//! Dynamic-energy accounting (Figure 18 of the paper).
//!
//! The paper reports *dynamic* memory energy only (static/refresh energy is
//! proportional to runtime and excluded). We mirror that: every byte moved
//! charges read/write + I/O energy per bit, and every row activation charges
//! one ACT/PRE pair. Both are linear in a device's counters, so a device
//! derives its energy from its byte and activation totals.

use core::fmt;

/// Accumulates dynamic energy in femtojoules (integer, deterministic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnergyCounter {
    rw_fj: u128,
    act_fj: u128,
    activations: u64,
}

impl EnergyCounter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        EnergyCounter {
            rw_fj: 0,
            act_fj: 0,
            activations: 0,
        }
    }

    /// The energy of moving `bytes` at `fj_per_bit` plus `activations` row
    /// activate/precharge pairs of `act_pre_pj` picojoules each.
    pub fn from_counts(bytes: u64, fj_per_bit: u64, activations: u64, act_pre_pj: u64) -> Self {
        EnergyCounter {
            rw_fj: u128::from(bytes) * 8 * u128::from(fj_per_bit),
            act_fj: u128::from(activations) * u128::from(act_pre_pj) * 1_000,
            activations,
        }
    }

    /// Total dynamic energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        (self.rw_fj + self.act_fj) as f64 * 1e-12
    }

    /// Read/write + I/O component in millijoules.
    pub fn rw_mj(&self) -> f64 {
        self.rw_fj as f64 * 1e-12
    }

    /// Activate/precharge component in millijoules.
    pub fn act_mj(&self) -> f64 {
        self.act_fj as f64 * 1e-12
    }

    /// Number of row activations charged.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Adds another counter into this one (for NM + FM totals).
    pub fn merge(&mut self, other: &EnergyCounter) {
        self.rw_fj += other.rw_fj;
        self.act_fj += other.act_fj;
        self.activations += other.activations;
    }
}

impl fmt::Display for EnergyCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} mJ (rw {:.3} mJ, act {:.3} mJ, {} activations)",
            self.total_mj(),
            self.rw_mj(),
            self.act_mj(),
            self.activations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst(bytes: u64, fj_per_bit: u64) -> EnergyCounter {
        EnergyCounter::from_counts(bytes, fj_per_bit, 0, 0)
    }

    #[test]
    fn burst_energy_matches_hand_computation() {
        // 64 bytes at 6.4 pJ/bit = 64*8*6.4 pJ = 3276.8 pJ.
        let e = burst(64, 6_400);
        assert!((e.rw_mj() - 3276.8e-9).abs() < 1e-15);
    }

    #[test]
    fn activation_energy_matches_table() {
        let e = EnergyCounter::from_counts(0, 0, 1, 15_000); // 15 nJ
        assert!((e.act_mj() - 15e-6).abs() < 1e-12);
        assert_eq!(e.activations(), 1);
    }

    #[test]
    fn totals_are_sums() {
        let e = EnergyCounter::from_counts(128, 33_000, 1, 15_000);
        assert!((e.total_mj() - (e.rw_mj() + e.act_mj())).abs() < 1e-18);
    }

    #[test]
    fn merge_adds_componentwise() {
        let a = EnergyCounter::from_counts(64, 6_400, 1, 15_000);
        let mut b = burst(64, 6_400);
        b.merge(&a);
        assert_eq!(b.activations(), 1);
        assert!((b.rw_mj() - 2.0 * a.rw_mj()).abs() < 1e-18);
    }

    #[test]
    fn display_mentions_units() {
        assert!(burst(64, 6_400).to_string().contains("mJ"));
    }

    #[test]
    fn fm_bit_energy_exceeds_nm() {
        // Sanity on Table 1: moving a byte in FM costs ~5x NM energy.
        assert!(burst(64, 33_000).rw_mj() > 4.0 * burst(64, 6_400).rw_mj());
    }
}
