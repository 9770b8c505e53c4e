//! Devirtualized scheme dispatch for the per-op hot path.
//!
//! [`Machine::run`](crate::Machine::run) calls `scheme.access` up to twice
//! per memory operation; through a `Box<dyn MemoryScheme>` every one of
//! those calls is an indirect branch the optimiser cannot see through.
//! [`AnyScheme`] closes the set of schemes into an enum so the calls
//! dispatch on a jump table and inline into the event loop. Each scheme
//! still implements the [`MemoryScheme`] trait, which the enum's methods
//! forward to; the enum itself does not implement it.

use baselines::{Chameleon, Dfc, FmOnly, IdealCache, Lgm, MemPod, Tagless};
use dram::{DramSystem, MemoryScheme, SchemeStats, Served};
use hybrid2_core::Dcmc;
use sim_types::{Cycle, MemReq, PAddr};

/// Every concrete memory-management scheme of the evaluation, as one
/// statically-dispatched value.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // lives once per Machine, not per op
pub enum AnyScheme {
    /// The FM-only normalization baseline.
    FmOnly(FmOnly),
    /// MemPod (HPCA'17).
    MemPod(MemPod),
    /// Chameleon (MICRO'18).
    Chameleon(Chameleon),
    /// LGM (IPDPS'19).
    Lgm(Lgm),
    /// Tagless DRAM cache (ISCA'15).
    Tagless(Tagless),
    /// Decoupled Fused Cache (TACO'19).
    Dfc(Dfc),
    /// Zero-overhead ideal cache (§2.3 motivation).
    Ideal(IdealCache),
    /// Hybrid2's DCMC — the paper's contribution.
    Hybrid2(Dcmc),
}

macro_rules! forward {
    ($self:expr, $s:pat => $body:expr) => {
        match $self {
            AnyScheme::FmOnly($s) => $body,
            AnyScheme::MemPod($s) => $body,
            AnyScheme::Chameleon($s) => $body,
            AnyScheme::Lgm($s) => $body,
            AnyScheme::Tagless($s) => $body,
            AnyScheme::Dfc($s) => $body,
            AnyScheme::Ideal($s) => $body,
            AnyScheme::Hybrid2($s) => $body,
        }
    };
}

impl AnyScheme {
    /// Short scheme name as used in the paper's figures.
    #[inline]
    pub fn name(&self) -> &'static str {
        forward!(self, s => s.name())
    }

    /// Serves one processor request (see [`MemoryScheme::access`]).
    #[inline]
    pub fn access(&mut self, req: &MemReq, dram: &mut DramSystem) -> Served {
        forward!(self, s => s.access(req, dram))
    }

    /// Periodic housekeeping (see [`MemoryScheme::on_tick`]).
    #[inline]
    pub fn on_tick(&mut self, now: Cycle, dram: &mut DramSystem) {
        forward!(self, s => s.on_tick(now, dram))
    }

    /// End-of-run hook (see [`MemoryScheme::on_finish`]).
    #[inline]
    pub fn on_finish(&mut self) {
        forward!(self, s => s.on_finish())
    }

    /// OS hint: range holds no live data (see
    /// [`MemoryScheme::os_hint_unused`]).
    #[inline]
    pub fn os_hint_unused(&mut self, addr: PAddr, bytes: u64) {
        forward!(self, s => s.os_hint_unused(addr, bytes))
    }

    /// OS hint: range is (again) live (see [`MemoryScheme::os_hint_used`]).
    #[inline]
    pub fn os_hint_used(&mut self, addr: PAddr, bytes: u64) {
        forward!(self, s => s.os_hint_used(addr, bytes))
    }

    /// Interval between [`AnyScheme::on_tick`] calls, if any.
    #[inline]
    pub fn tick_period(&self) -> Option<u64> {
        forward!(self, s => s.tick_period())
    }

    /// Bytes of main memory visible to software under this scheme.
    #[inline]
    pub fn flat_capacity_bytes(&self) -> u64 {
        forward!(self, s => s.flat_capacity_bytes())
    }

    /// Scheme-level statistics.
    #[inline]
    pub fn stats(&self) -> &SchemeStats {
        forward!(self, s => s.stats())
    }
}

macro_rules! from_impl {
    ($($ty:ty => $variant:ident),+ $(,)?) => {
        $(impl From<$ty> for AnyScheme {
            fn from(s: $ty) -> Self {
                AnyScheme::$variant(s)
            }
        })+
    };
}

from_impl! {
    FmOnly => FmOnly,
    MemPod => MemPod,
    Chameleon => Chameleon,
    Lgm => Lgm,
    Tagless => Tagless,
    Dfc => Dfc,
    IdealCache => Ideal,
    Dcmc => Hybrid2,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_and_trait_agree() {
        let scheme = FmOnly::new(1 << 24);
        let s = AnyScheme::from(scheme.clone());
        assert_eq!(s.name(), MemoryScheme::name(&scheme));
        assert_eq!(s.name(), "BASELINE");
        assert_eq!(
            s.flat_capacity_bytes(),
            MemoryScheme::flat_capacity_bytes(&scheme)
        );
        assert_eq!(s.tick_period(), MemoryScheme::tick_period(&scheme));
        assert_eq!(s.stats(), MemoryScheme::stats(&scheme));
    }

    #[test]
    fn access_forwards() {
        use sim_types::{Cycle, MemReq, PAddr};
        let mut s = AnyScheme::from(FmOnly::new(1 << 24));
        let mut dram = DramSystem::paper_default();
        let served = s.access(&MemReq::read(PAddr::new(0x40), 64, Cycle::ZERO), &mut dram);
        assert!(served.done > Cycle::ZERO);
        assert!(!served.from_nm);
        assert_eq!(s.stats().requests, 1);
    }
}
