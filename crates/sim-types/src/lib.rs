//! Shared vocabulary types for the Hybrid2 (HPCA 2020) reproduction.
//!
//! Every other crate in the workspace builds on the primitives defined here:
//!
//! * [`Cycle`] — a point in time measured in CPU clock cycles, with the
//!   [`ClockRatio`] helper to convert device-clock cycle counts (HBM, DDR4)
//!   into CPU cycles without floating point.
//! * Address newtypes ([`PAddr`], [`VAddr`], [`SectorId`], [`NmLoc`],
//!   [`FmLoc`], [`PageId`]) that make it a type error to confuse processor
//!   physical addresses with device-internal sector locations — the exact
//!   confusion the paper's remap tables exist to manage.
//! * [`Geometry`] — line/sector/page size arithmetic used by the sectored
//!   DRAM cache and all migration schemes.
//! * [`MemReq`] / [`AccessKind`] / [`TrafficClass`] — the request vocabulary
//!   spoken between the CPU model, the memory schemes and the DRAM model.
//! * [`stats`] — geometric means and the min/max/geomean triples the paper
//!   reports.
//! * [`rng::SplitMix64`] — a tiny deterministic RNG so simulations are
//!   reproducible byte-for-byte across runs and platforms.
//!
//! # Example
//!
//! ```
//! use sim_types::{Cycle, Geometry, PAddr};
//!
//! let geom = Geometry::new(256, 2048)?;
//! let addr = PAddr::new(0x1_2345);
//! assert_eq!(geom.sector_of(addr).index(), 0x1_2345 >> 11);
//! assert_eq!(geom.lines_per_sector(), 8);
//!
//! let t = Cycle::ZERO + 10;
//! assert_eq!(t.raw(), 10);
//! # Ok::<(), sim_types::GeometryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cycle;
mod geometry;
mod request;
pub mod rng;
pub mod stats;
mod trace;

pub use addr::{FmLoc, NmLoc, PAddr, PageId, SectorId, VAddr};
pub use cycle::{ClockRatio, Cycle};
pub use geometry::{Geometry, GeometryError};
pub use request::{AccessKind, MemReq, MemSide, TrafficClass};
pub use trace::{TraceOp, TraceSource};
