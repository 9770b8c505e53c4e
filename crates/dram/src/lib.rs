//! Bank/row/channel-level DRAM timing and energy model.
//!
//! This crate is the reproduction's substitute for DRAMSim2: a deterministic
//! timing calculator that gives every access a completion cycle derived from
//! the device's bank state (open row), bank availability, and data-bus
//! occupancy, using the timing and energy parameters of Table 1 of the
//! Hybrid2 paper:
//!
//! * **Near memory** — HBM2-like: 8 channels × 128 bit @ 2 GT/s,
//!   8 banks/channel, tCAS-tRCD-tRP = 7-7-7 (device cycles),
//!   6.4 pJ/bit read/write+I/O, 15 nJ per ACT/PRE pair.
//! * **Far memory** — DDR4-3200: 2 channels × 64 bit, 8 banks/channel,
//!   tCAS-tRCD-tRP = 22-22-22, 33 pJ/bit, 15 nJ per ACT/PRE pair.
//!
//! The model captures what the paper's evaluation depends on — row-hit vs
//! row-miss latency, bank conflicts, and bandwidth saturation of the narrow
//! FM bus versus the wide NM interface. Requests are processed in the order
//! they are presented to a device (FCFS with an open-page row policy),
//! which is not always arrival order; see [`DramDevice`].
//!
//! Schemes reach the devices in exactly two ways: one [`DramAccess`] on
//! one side is `DramSystem::device_mut(side).serve(access)`, and every
//! multi-access request (a sector swap, a page or line fill, a writeback)
//! is [`DramSystem::copy_lines`]. Both run the closed-form calculator:
//! there is no bounded controller queue.
//!
//! The crate also defines the [`MemoryScheme`] trait implemented by Hybrid2
//! and by every baseline scheme, so that all of them drive the same devices
//! and their traffic/energy is accounted identically. Schemes count a
//! request with [`SchemeStats::count`], serve it where its data lives with
//! [`DramAccess::demand`] and charge remap or tag entries with
//! [`DramAccess::metadata`].
//!
//! # Example
//!
//! ```
//! use dram::{DramAccess, DramDevice, DeviceConfig};
//! use sim_types::{AccessKind, Cycle, TrafficClass};
//!
//! let mut nm = DramDevice::new(DeviceConfig::hbm2_near_memory());
//! let first = nm.serve(DramAccess {
//!     addr: 0,
//!     bytes: 64,
//!     kind: AccessKind::Read,
//!     class: TrafficClass::Demand,
//!     at: Cycle::ZERO,
//! });
//! // A second access to the same row is a row-buffer hit: strictly faster.
//! let second = nm.serve(DramAccess {
//!     addr: 64,
//!     bytes: 64,
//!     kind: AccessKind::Read,
//!     class: TrafficClass::Demand,
//!     at: first,
//! });
//! assert!(second - first < first - Cycle::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod device;
mod energy;
mod scheme;
mod system;

pub use config::{DeviceConfig, DeviceConfigError};
pub use device::{DeviceStats, DramAccess, DramDevice};
pub use energy::EnergyCounter;
pub use scheme::{MemoryScheme, SchemeStats, Served};
pub use system::{DramSystem, ServiceModel};
