//! The comparison schemes of the Hybrid2 evaluation (§5).
//!
//! Every scheme here implements [`dram::MemoryScheme`] and can be dropped
//! into the same simulated system as the Hybrid2 DCMC, so performance,
//! traffic and energy are accounted identically:
//!
//! | Scheme | Paper | Kind | Crate module |
//! |--------|-------|------|--------------|
//! | Baseline (no NM) | §5 normalization | — | [`FmOnly`] |
//! | MemPod | Prodromou et al., HPCA'17 | migration | [`MemPod`] |
//! | Chameleon | Kotra et al., MICRO'18 | migration + cache mode | [`Chameleon`] |
//! | LGM | Vasilakis et al., IPDPS'19 | migration | [`Lgm`] |
//! | Tagless DRAM cache | Lee et al., ISCA'15 | cache | [`Tagless`] |
//! | Decoupled Fused Cache | Vasilakis et al., TACO'19 | cache | [`Dfc`] |
//! | IDEAL cache | §2.3 motivation | cache | [`IdealCache`] |
//!
//! The migration schemes share the all-to-all remapping substrate in
//! [`flat`]: a block-granular remap table (+ inverted table) stored in NM
//! with an on-chip remap cache sized like Hybrid2's XTA, exactly as the
//! paper's methodology section prescribes ("we adjust the size of their
//! respective remap cache to be equal to that of the XTA ... for a fair
//! comparison").
//!
//! Every scheme counts a request with [`dram::SchemeStats::count`] and
//! serves it where its data lives with [`dram::DramAccess::demand`]; remap
//! and tag entries are [`dram::DramAccess::metadata`] lines. The three
//! caches share their data side in a private `line_cache` module: a hit
//! serves the resident copy, and a miss serves the critical access from
//! FM, writes a dirty victim back whole and fills the whole line. Each
//! cache keeps only its placement and lookup cost.
//!
//! Fidelity notes and deliberate simplifications are listed per module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chameleon;
mod dfc;
pub mod flat;
mod fm_only;
mod ideal;
mod lgm;
mod line_cache;
mod mea;
mod mempod;
mod tagless;

pub use chameleon::{Chameleon, ChameleonConfig};
pub use dfc::{Dfc, DfcConfig};
pub use fm_only::FmOnly;
pub use ideal::{IdealCache, IdealCacheConfig};
pub use lgm::{Lgm, LgmConfig};
pub use mea::MeaCounters;
pub use mempod::{MemPod, MemPodConfig};
pub use tagless::{Tagless, TaglessConfig};

/// The paper's migration interval: 50 µs at 3.2 GHz.
pub const INTERVAL_CYCLES: u64 = 160_000;
