//! Set-associative SRAM cache models and the on-chip cache hierarchy.
//!
//! The Hybrid2 system (Table 1) filters every core's memory stream through
//! private L1 (64 KB, 4-way) and L2 (256 KB, 8-way) caches and a shared
//! 8 MB 16-way last-level cache before anything reaches the hybrid memory
//! controller. This crate provides:
//!
//! * [`SetAssocCache`] — a generic write-back, allocate-on-miss,
//!   LRU-replacement cache used for all three levels *and* for the tag
//!   stores of the schemes (remap caches, DFC's fused tags and DRAM-cache
//!   tags).
//! * [`Hierarchy`] — the three-level filter; it turns per-core accesses into
//!   an LLC-miss/writeback stream.
//!
//! # Example
//!
//! ```
//! use mem_cache::{CacheConfig, SetAssocCache};
//!
//! let mut c = SetAssocCache::new(CacheConfig::new(1024, 4, 64)?);
//! assert!(!c.access(0x40, false).hit); // cold miss
//! assert!(c.access(0x40, false).hit);  // now resident
//! # Ok::<(), mem_cache::CacheConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hierarchy;
mod set_assoc;

pub use hierarchy::{Hierarchy, HierarchyConfig, HierarchyStats, LevelStats, Outcome};
pub use set_assoc::{
    Access, CacheConfig, CacheConfigError, CacheStats, Evicted, SetAssocCache, MAX_ASSOC,
};
