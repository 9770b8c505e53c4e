//! Proportional scaling of the paper's system: every capacity divided by
//! one power-of-two denominator.

use mem_cache::HierarchyConfig;

/// The three NM:FM ratios of the evaluation (§4: 1 GB, 2 GB, 4 GB of NM
/// against 16 GB of FM).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NmRatio {
    /// 1 GB NM : 16 GB FM (1:16) — the paper's stress configuration.
    OneGb,
    /// 2 GB NM : 16 GB FM (1:8).
    TwoGb,
    /// 4 GB NM : 16 GB FM (1:4).
    FourGb,
}

impl NmRatio {
    /// All ratios in reporting order.
    pub const ALL: [NmRatio; 3] = [NmRatio::OneGb, NmRatio::TwoGb, NmRatio::FourGb];

    /// NM capacity at paper scale, in bytes.
    pub fn nm_bytes_paper(self) -> u64 {
        match self {
            NmRatio::OneGb => 1 << 30,
            NmRatio::TwoGb => 2 << 30,
            NmRatio::FourGb => 4 << 30,
        }
    }

    /// Label used in figure captions.
    pub fn label(self) -> &'static str {
        match self {
            NmRatio::OneGb => "1GB (1:16)",
            NmRatio::TwoGb => "2GB (1:8)",
            NmRatio::FourGb => "4GB (1:4)",
        }
    }

    /// The extra main-memory capacity migration offers over caches at this
    /// ratio, as the paper states it (5.9% / 12.1% / 24.6%).
    pub fn capacity_gain_pct(self) -> f64 {
        // (NM - 64 MB cache) / 16 GB, approximately.
        let nm = self.nm_bytes_paper() as f64;
        let cache = (64u64 << 20) as f64;
        100.0 * (nm - cache) / (16u64 << 30) as f64
    }
}

/// All capacities of one simulated system, derived from a scale
/// denominator; ratios are preserved exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaledSystem {
    /// The divisor applied to every capacity (1 = paper scale).
    pub scale_den: u64,
    /// NM capacity in bytes.
    pub nm_bytes: u64,
    /// FM capacity in bytes.
    pub fm_bytes: u64,
    /// Hybrid2 DRAM-cache slice in bytes (64 MB at paper scale).
    pub cache_bytes: u64,
    /// On-chip remap-cache budget for the baselines (512 KB at paper scale,
    /// clamped to stay a functional cache at extreme scales).
    pub remap_cache_bytes: u64,
    /// LLC capacity in bytes after scaling (for DFC's fused store sizing).
    pub llc_bytes: u64,
}

impl ScaledSystem {
    /// The largest scale denominator: at `1/2048` the 64 MB DRAM cache is
    /// exactly one XTA set (16 ways of 2 KB sectors).
    pub(crate) const MAX_SCALE_DEN: u64 = (64 << 20) / (16 * 2048);

    /// Checks that `den` is a usable scale denominator: a power of two in
    /// `[1, MAX_SCALE_DEN]`. Other values either shrink the DRAM cache
    /// below one XTA set or leave capacities that do not split evenly into
    /// the schemes' pods and power-of-two set counts.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid range.
    pub fn check_scale_den(den: u64) -> Result<(), String> {
        let max = Self::MAX_SCALE_DEN;
        if den > max {
            Err(format!(
                "scale too extreme: 1/{den} shrinks the DRAM cache below one XTA set \
                 (the scale denominator must be a power of two in [1, {max}])"
            ))
        } else if !den.is_power_of_two() {
            Err(format!(
                "the scale denominator must be a power of two in [1, {max}], got {den}"
            ))
        } else {
            Ok(())
        }
    }

    /// Derives the system for `ratio` at `1/scale_den` of paper scale.
    ///
    /// # Panics
    ///
    /// Panics if [`ScaledSystem::check_scale_den`] rejects `scale_den`.
    pub fn new(ratio: NmRatio, scale_den: u64) -> Self {
        if let Err(e) = Self::check_scale_den(scale_den) {
            panic!("{e}");
        }
        let nm_bytes = ratio.nm_bytes_paper() / scale_den;
        let fm_bytes = (16u64 << 30) / scale_den;
        let cache_bytes = (64u64 << 20) / scale_den;
        let hier = HierarchyConfig::scaled(8, 1, scale_den);
        ScaledSystem {
            scale_den,
            nm_bytes,
            fm_bytes,
            cache_bytes,
            remap_cache_bytes: ((512u64 << 10) / scale_den).max(4 * 64 * 4),
            llc_bytes: hier.llc.capacity(),
        }
    }

    /// The scaled 8-core hierarchy matching these capacities.
    pub fn hierarchy(&self) -> HierarchyConfig {
        HierarchyConfig::scaled(8, 1, self.scale_den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_match_table_1() {
        assert_eq!(NmRatio::OneGb.nm_bytes_paper(), 1 << 30);
        assert_eq!(NmRatio::FourGb.nm_bytes_paper(), 4 << 30);
        assert_eq!(NmRatio::ALL.len(), 3);
    }

    #[test]
    fn capacity_gains_match_paper_abstract() {
        // Paper: 5.9%, 12.1%, 24.6% more main memory than caches.
        assert!((NmRatio::OneGb.capacity_gain_pct() - 5.9).abs() < 0.3);
        assert!((NmRatio::TwoGb.capacity_gain_pct() - 12.1).abs() < 0.3);
        assert!((NmRatio::FourGb.capacity_gain_pct() - 24.6).abs() < 0.3);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let s = ScaledSystem::new(NmRatio::OneGb, 64);
        assert_eq!(s.fm_bytes / s.nm_bytes, 16);
        assert_eq!(s.nm_bytes / s.cache_bytes, 16);
        let s2 = ScaledSystem::new(NmRatio::FourGb, 64);
        assert_eq!(s2.fm_bytes / s2.nm_bytes, 4);
    }

    #[test]
    fn paper_scale_is_identity() {
        let s = ScaledSystem::new(NmRatio::OneGb, 1);
        assert_eq!(s.nm_bytes, 1 << 30);
        assert_eq!(s.fm_bytes, 16 << 30);
        assert_eq!(s.cache_bytes, 64 << 20);
        assert_eq!(s.remap_cache_bytes, 512 << 10);
    }

    #[test]
    #[should_panic(expected = "scale too extreme")]
    fn absurd_scale_rejected() {
        let _ = ScaledSystem::new(NmRatio::OneGb, 1 << 20);
    }
}
