//! Full-system simulator and experiment harness for the Hybrid2
//! reproduction.
//!
//! This crate wires the substrates together — synthetic workloads
//! (`workloads`), interval cores (`cpu`), the L1/L2/LLC filter
//! (`mem-cache`), a memory-management scheme (`hybrid2-core` or
//! `baselines`) and the DRAM devices (`dram`) — into a [`Machine`] that
//! replays a workload deterministically, and provides one experiment module
//! per table/figure of the paper's evaluation (see `experiments`).
//!
//! The headline entry points:
//!
//! * [`SchemeKind`] + [`ScaledSystem`] — describe *what* to simulate.
//! * [`run_one`] — simulate one (scheme, workload) pair to a [`RunResult`].
//! * [`Matrix`] — the full scheme × workload grid with speedups and
//!   normalized traffic/energy, computed in parallel.
//! * [`experiments`] — `fig01` … `fig18`, `table2` and the extra ablations,
//!   each returning a printable [`report::Report`].
//! * [`scenario`] — the phased / multi-program scenario grid behind the
//!   `reproduce scenario` subcommand.
//! * [`runlog`] — the one versioned run-record format (one record per
//!   simulated grid cell, float-bit exact): run directories and the query
//!   store behind `reproduce query`.
//!
//! # Example
//!
//! ```no_run
//! use sim::{run_one, EvalConfig, NmRatio, SchemeKind};
//! use workloads::catalog;
//!
//! let cfg = EvalConfig::smoke();
//! let spec = catalog::by_name("lbm").unwrap();
//! let base = run_one(SchemeKind::Baseline, spec, NmRatio::OneGb, &cfg);
//! let h2 = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &cfg);
//! println!("speedup: {:.2}", base.cycles as f64 / h2.cycles as f64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod any_scheme;
pub mod experiments;
mod machine;
mod matrix;
mod page_alloc;
pub mod report;
pub mod runlog;
mod runner;
mod scale;
pub mod scenario;

pub use any_scheme::AnyScheme;
pub use machine::{Machine, RunResult, DEFAULT_BATCH};
pub use matrix::{ClassSummary, Matrix};
pub use page_alloc::PageAllocator;
pub use runner::{build_scheme, run_one, scheme_label, EvalConfig, SchemeKind};
pub use scale::{NmRatio, ScaledSystem};
