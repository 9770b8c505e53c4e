//! Synthetic workload generators calibrated to the Hybrid2 paper's Table 2.
//!
//! The paper drives its evaluation with Pin-captured traces of 21 SPEC CPU
//! 2017 benchmarks (run as 8 identical multi-programmed instances) and 9
//! OpenMP NAS benchmarks (run as 8 threads sharing one address space). We
//! cannot redistribute or capture those traces, so this crate synthesizes
//! per-benchmark address streams from composable access-pattern primitives
//! (PAPER.md, "What the reproduction covers"):
//!
//! * streaming walks, plain and tiled — stencil and grid codes (lbm, sp.D, bt.D…),
//! * uniform-random and pointer-chase jumps — mcf, omnetpp, deepsjeng,
//! * hot-set (temporal-locality) references — the low-MPKI group,
//! * phased working-set shifts — gcc, xz,
//! * probabilistic mixes of the above.
//!
//! Each of the 30 entries in [`catalog::all()`] carries the paper's reported
//! MPKI / footprint / traffic (Table 2) plus generator parameters chosen so
//! that the *measured* characteristics land in the same MPKI class with the
//! same relative footprints. The `table2` experiment in the `sim` crate
//! regenerates the characterization table for comparison.
//!
//! Beyond the stationary Table 2 stand-ins, [`scenarios`] names composite
//! workloads built from two extra pattern combinators —
//! [`PatternSpec::Phased`] (exact-budget phase changes) and
//! [`PatternSpec::Mix`] (deterministic multi-program interleaves in
//! disjoint footprint slices) — exercising the access-pattern *dynamics*
//! the paper's eviction-time migration claims to adapt to. The eight
//! built-in scenarios ([`scenarios::builtin`]) are declared in code; a new
//! scenario shape joins them as a built-in with its own golden rows.
//!
//! # Example
//!
//! ```
//! use workloads::{catalog, Workload};
//! use sim_types::TraceSource;
//!
//! let spec = catalog::by_name("lbm").expect("lbm is in the catalog");
//! let mut wl = Workload::build(spec, /*cores=*/8, /*scale_den=*/64, /*seed=*/1);
//! let op = wl.source_mut(0).next_op().expect("traces are unbounded");
//! assert!(op.addr.raw() < wl.footprint_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod patterns;
pub mod scenarios;
mod spec;

pub use patterns::{MixPart, PatternSpec, Phase, TraceGen};
pub use scenarios::Scenario;
pub use spec::{MpkiClass, PaperRow, WorkloadKind, WorkloadSpec};

use sim_types::rng::SplitMix64;

/// A workload instantiated for a number of cores at a given scale: one trace
/// source per core plus the address-space layout information the system
/// runner needs.
#[derive(Clone, Debug)]
pub struct Workload {
    spec: WorkloadSpec,
    sources: Vec<TraceGen>,
    footprint_bytes: u64,
    shared_address_space: bool,
}

impl Workload {
    /// Instantiates `spec` for `cores` hardware threads with all sizes
    /// divided by `scale_den` (1 = paper scale). The generators are seeded
    /// deterministically from `seed`.
    ///
    /// Multi-threaded (NAS) workloads share one virtual address space:
    /// every thread walks its own partition plus a shared region.
    /// Multi-programmed (SPEC) workloads get one private address space per
    /// core; the paper's Table 2 footprint is the aggregate, so each
    /// instance receives `footprint / cores`.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `scale_den == 0`.
    pub fn build(spec: &WorkloadSpec, cores: usize, scale_den: u64, seed: u64) -> Self {
        assert!(cores > 0, "workload needs at least one core");
        assert!(scale_den > 0, "scale denominator must be non-zero");
        let total = (spec.paper.footprint_bytes() / scale_den).max(64 * 1024);
        let mut root = SplitMix64::new(seed ^ hash_name(&spec.name));
        let shared = spec.kind == WorkloadKind::MultiThreaded;
        let sources = (0..cores)
            .map(|core| {
                let rng = root.fork();
                if shared {
                    // Threads partition the space; ~1/8 of references go to
                    // a shared region at the bottom of the address space.
                    let part = total / cores as u64;
                    TraceGen::new(
                        spec.pattern.clone(),
                        spec.mem_every,
                        spec.write_pct,
                        core as u64 * part,
                        part,
                        total / 8,
                        rng,
                    )
                } else {
                    // Private space per instance; the runner maps each
                    // core's virtual space to disjoint physical pages.
                    let part = (total / cores as u64).max(64 * 1024);
                    TraceGen::new(
                        spec.pattern.clone(),
                        spec.mem_every,
                        spec.write_pct,
                        0,
                        part,
                        0,
                        rng,
                    )
                }
            })
            .collect();
        Workload {
            spec: spec.clone(),
            sources,
            footprint_bytes: total,
            shared_address_space: shared,
        }
    }

    /// The specification this workload was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Scaled total footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_bytes
    }

    /// Whether all cores share one virtual address space (NAS/MT) or each
    /// core owns a private one (SPEC/MP).
    pub fn shared_address_space(&self) -> bool {
        self.shared_address_space
    }

    /// Number of per-core trace sources.
    pub fn cores(&self) -> usize {
        self.sources.len()
    }

    /// Mutable access to core `i`'s trace source.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn source_mut(&mut self, i: usize) -> &mut TraceGen {
        &mut self.sources[i]
    }

    /// The per-core virtual footprint (bytes) the runner must map for core
    /// `i`: the whole space when shared, the private partition otherwise.
    pub fn core_space_bytes(&self, _i: usize) -> u64 {
        if self.shared_address_space {
            self.footprint_bytes
        } else {
            (self.footprint_bytes / self.sources.len() as u64).max(64 * 1024)
        }
    }
}

/// Stable tiny hash so each benchmark gets an independent seed stream.
fn hash_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_types::TraceSource;

    #[test]
    fn build_respects_scaled_footprint() {
        let spec = catalog::by_name("lbm").unwrap();
        let wl = Workload::build(spec, 8, 64, 7);
        let expected = spec.paper.footprint_bytes() / 64;
        assert_eq!(wl.footprint_bytes(), expected.max(64 * 1024));
    }

    #[test]
    fn mp_sources_stay_in_private_partition() {
        let spec = catalog::by_name("mcf").unwrap();
        let mut wl = Workload::build(spec, 8, 64, 7);
        let bound = wl.core_space_bytes(0);
        for core in 0..8 {
            for _ in 0..2000 {
                let op = wl.source_mut(core).next_op().unwrap();
                assert!(op.addr.raw() < bound, "MP trace escaped its partition");
            }
        }
    }

    #[test]
    fn mt_sources_cover_shared_space() {
        let spec = catalog::by_name("cg.D").unwrap();
        let mut wl = Workload::build(spec, 8, 64, 7);
        assert!(wl.shared_address_space());
        let total = wl.footprint_bytes();
        let mut max_seen = 0u64;
        for core in 0..8 {
            for _ in 0..2000 {
                let op = wl.source_mut(core).next_op().unwrap();
                assert!(op.addr.raw() < total);
                max_seen = max_seen.max(op.addr.raw());
            }
        }
        // Threads other than 0 reference beyond the first partition.
        assert!(max_seen > total / 8);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let spec = catalog::by_name("omnetpp").unwrap();
        let mut a = Workload::build(spec, 2, 64, 42);
        let mut b = Workload::build(spec, 2, 64, 42);
        for _ in 0..1000 {
            assert_eq!(a.source_mut(0).next_op(), b.source_mut(0).next_op());
            assert_eq!(a.source_mut(1).next_op(), b.source_mut(1).next_op());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let spec = catalog::by_name("omnetpp").unwrap();
        let mut a = Workload::build(spec, 1, 64, 1);
        let mut b = Workload::build(spec, 1, 64, 2);
        let same = (0..200)
            .filter(|_| a.source_mut(0).next_op() == b.source_mut(0).next_op())
            .count();
        assert!(same < 200, "independent seeds should diverge");
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let spec = catalog::by_name("lbm").unwrap();
        let _ = Workload::build(spec, 0, 64, 1);
    }

    #[test]
    fn hash_name_distinguishes_benchmarks() {
        assert_ne!(hash_name("lbm"), hash_name("mcf"));
        assert_eq!(hash_name("lbm"), hash_name("lbm"));
    }
}
