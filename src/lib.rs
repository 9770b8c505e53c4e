//! # Hybrid2 — Combining Caching and Migration in Hybrid Memory Systems
//!
//! A from-scratch Rust reproduction of *Vasilakis, Papaefstathiou,
//! Trancoso & Sourdis, "Hybrid2: Combining Caching and Migration in Hybrid
//! Memory Systems", HPCA 2020* — the memory controller itself, the five
//! competing schemes it is evaluated against, the trace-driven simulation
//! substrate everything runs on, and one experiment harness per figure and
//! table of the paper's evaluation.
//!
//! This crate is the **facade**: it re-exports the public API of every
//! workspace member so downstream users can depend on a single crate.
//!
//! ## The sixty-second tour
//!
//! The paper's system pairs a small, fast *near memory* (3D-stacked HBM2)
//! with a large, slower *far memory* (DDR4). Hybrid2's DCMC
//! ([`hybrid2_core::Dcmc`]) carves a 64 MB sectored DRAM cache out of NM,
//! keeps that cache's tags on-chip in the eXtended Tag Array, and manages
//! the remaining NM as hardware-migrated flat memory — deciding migrations
//! *at cache eviction time* using the access history the cache observed.
//!
//! ```
//! use hybrid2::prelude::*;
//!
//! // Build the paper's controller at 1/1024 of paper capacities.
//! let cfg = Hybrid2Config::scaled_down(1024)?;
//! let mut dcmc = Dcmc::new(cfg)?;
//! let mut dram = DramSystem::paper_default();
//!
//! // Serve one demand read through the four-outcome access path (§3.4).
//! let served = dcmc.access(&MemReq::read(PAddr::new(0x4000), 64, Cycle::ZERO), &mut dram);
//! assert!(served.done > Cycle::ZERO);
//! # Ok::<(), hybrid2::ConfigError>(())
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`types`] | `sim-types` | addresses, cycles, geometry, RNG, stats |
//! | [`memory`] | `dram` | HBM2/DDR4 timing + energy model, [`MemoryScheme`] |
//! | [`caches`] | `mem-cache` | SRAM caches and the L1/L2/LLC hierarchy |
//! | [`cores`] | `cpu` | the interval core model |
//! | [`traffic`] | `workloads` | Table 2's thirty synthetic workloads |
//! | [`controller`] | `hybrid2-core` | **the paper's contribution** |
//! | [`rivals`] | `baselines` | MemPod, Chameleon, LGM, Tagless, DFC, Ideal |
//! | [`harness`] | `sim` | machine, matrix runner, per-figure experiments |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines as rivals;
pub use cpu as cores;
pub use dram as memory;
pub use hybrid2_core as controller;
pub use mem_cache as caches;
pub use sim as harness;
pub use sim_types as types;
pub use workloads as traffic;

pub use dram::{DramSystem, MemoryScheme, SchemeStats, Served, ServiceRequest};
pub use hybrid2_core::{ConfigError, Dcmc, Hybrid2Config, Variant};
pub use sim::{
    AnyScheme, EvalConfig, Machine, Matrix, NmRatio, RunResult, ScaledSystem, SchemeKind,
    DEFAULT_BATCH,
};

/// The most common imports in one place.
pub mod prelude {
    pub use dram::{DramSystem, MemoryScheme, Served, ServiceRequest};
    pub use hybrid2_core::{Dcmc, Hybrid2Config, Variant};
    pub use sim::{run_one, run_one_timed, EvalConfig, Machine, Matrix, NmRatio, SchemeKind};
    pub use sim_types::{AccessKind, Cycle, Geometry, MemReq, MemSide, PAddr, TrafficClass};
    pub use workloads::{catalog, scenarios, MpkiClass, Workload};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reaches_every_layer() {
        use crate::prelude::*;
        let cfg = Hybrid2Config::scaled_down(1024).unwrap();
        let dcmc = Dcmc::new(cfg).unwrap();
        assert_eq!(dcmc.name(), "HYBRID2");
        assert_eq!(catalog::all().len(), 30);
        let _ = DramSystem::paper_default();
    }
}
