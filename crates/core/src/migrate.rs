//! The migration decision (§3.7, Figure 10).
//!
//! When an FM-resident sector is evicted from the DRAM cache, three factors
//! decide between *migrating* it into NM and *evicting* it back to FM:
//!
//! 1. **Access counter** (§3.7.1) — the victim must have been accessed at
//!    least as often as every competing (FM-resident, non-saturated) sector
//!    in its set.
//! 2. **Cost function** (§3.7.2) — the net FM traffic of migrating instead
//!    of evicting: `Netcost = 2*Nall − Nvalid − Ndirty + 1`.
//! 3. **Migration bandwidth** (§3.7.3) — `Netcost` must fit in the FM-access
//!    budget accumulated from demand misses since the last 100 K-cycle
//!    reset, and is debited from it on migration.
//!
//! The function here is pure so the exact arithmetic of the paper can be
//! tested exhaustively; [`crate::Dcmc`] wires it to live state.

use crate::config::Variant;

/// Inputs to the §3.7.2 cost function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostInputs {
    /// Cache lines per sector (`Nall`).
    pub nall: u32,
    /// Valid lines of the victim (`Nvalid`).
    pub nvalid: u32,
    /// Dirty lines of the victim (`Ndirty`).
    pub ndirty: u32,
}

impl CostInputs {
    /// Migration cost in FM accesses: fetch the missing lines, swap a full
    /// sector out of NM, plus one access for the remap-table updates.
    /// `Mcost = Nall − Nvalid + Nall + 1`.
    pub fn migration_cost(&self) -> u64 {
        debug_assert!(self.nvalid <= self.nall && self.ndirty <= self.nvalid);
        u64::from(2 * self.nall - self.nvalid) + 1
    }

    /// Eviction cost in FM accesses: write back the dirty lines.
    /// `Ecost = Ndirty`.
    pub fn eviction_cost(&self) -> u64 {
        u64::from(self.ndirty)
    }

    /// `Netcost = Mcost − Ecost = 2*Nall − Nvalid − Ndirty + 1`.
    pub fn net_cost(&self) -> u64 {
        self.migration_cost() - self.eviction_cost()
    }
}

/// Outcome of the decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Migrate the sector into NM; the caller debits `net_cost` from the
    /// FM-access budget.
    Migrate {
        /// The §3.7.2 net cost to debit.
        net_cost: u64,
    },
    /// Write dirty lines back and return the sector to FM.
    Evict,
}

/// Applies Figure 10 for one victim.
///
/// * `victim_counter` — the victim's §3.7.1 access counter.
/// * `strongest_peer` — the largest counter among the other FM-resident,
///   non-saturated sectors of the set, 0 when there is none (from
///   [`Xta::strongest_peer`](crate::xta::Xta::strongest_peer), asked after
///   [`Xta::evict_lru_if_full`](crate::xta::Xta::evict_lru_if_full) has
///   removed the victim from the set).
/// * `cost` — the victim's valid/dirty population.
/// * `budget` — the current FM-access counter (§3.7.3).
/// * `variant` — ablations: `MigrateAll` skips the policy and always
///   migrates; `MigrateNone` and `CacheOnly` never migrate.
pub fn decide(
    victim_counter: u16,
    strongest_peer: u16,
    cost: CostInputs,
    budget: u64,
    variant: Variant,
) -> Decision {
    match variant {
        Variant::CacheOnly | Variant::MigrateNone => return Decision::Evict,
        Variant::MigrateAll => {
            return Decision::Migrate {
                net_cost: cost.net_cost(),
            }
        }
        Variant::Full | Variant::NoRemap => {}
    }
    // §3.7.1: another sector with a strictly greater counter wins.
    if strongest_peer > victim_counter {
        return Decision::Evict;
    }
    // §3.7.3: "if the migration cost (Netcost) is smaller than the counter
    // value then the sector is considered for migration".
    let net = cost.net_cost();
    if net < budget {
        Decision::Migrate { net_cost: net }
    } else {
        Decision::Evict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NALL: u32 = 8;

    fn cost(nvalid: u32, ndirty: u32) -> CostInputs {
        CostInputs {
            nall: NALL,
            nvalid,
            ndirty,
        }
    }

    #[test]
    fn net_cost_matches_paper_formula() {
        // Netcost = 2*Nall - Nvalid - Ndirty + 1.
        assert_eq!(cost(8, 8).net_cost(), 1); // all valid+dirty -> minimum 1
        assert_eq!(cost(1, 0).net_cost(), 2 * 8 - 1 + 1); // 16 = 2*Nall
        assert_eq!(cost(4, 2).net_cost(), 16 - 4 - 2 + 1);
    }

    #[test]
    fn cost_extremes_from_the_paper_text() {
        // "from 1 when all cache lines of a sector are valid and dirty, to
        //  2*Nall when only one cacheline is valid and clean".
        assert_eq!(cost(NALL, NALL).net_cost(), 1);
        assert_eq!(cost(1, 0).net_cost(), u64::from(2 * NALL));
    }

    #[test]
    fn migration_and_eviction_costs() {
        let c = cost(5, 3);
        assert_eq!(c.migration_cost(), u64::from(2 * NALL - 5) + 1);
        assert_eq!(c.eviction_cost(), 3);
        assert_eq!(c.net_cost(), c.migration_cost() - c.eviction_cost());
    }

    #[test]
    fn peer_with_greater_counter_blocks_migration() {
        let d = decide(5, 6, cost(8, 8), 1_000, Variant::Full);
        assert_eq!(d, Decision::Evict);
    }

    #[test]
    fn equal_peer_counter_allows_migration() {
        // "greater or equal to all other sectors in the set".
        let d = decide(5, 5, cost(8, 8), 1_000, Variant::Full);
        assert!(matches!(d, Decision::Migrate { net_cost: 1 }));
    }

    #[test]
    fn empty_set_allows_migration() {
        let d = decide(0, 0, cost(8, 8), 1_000, Variant::Full);
        assert!(matches!(d, Decision::Migrate { .. }));
    }

    #[test]
    fn budget_gates_migration() {
        // net cost of cost(4,2) is 11.
        assert_eq!(decide(9, 0, cost(4, 2), 11, Variant::Full), Decision::Evict);
        assert!(matches!(
            decide(9, 0, cost(4, 2), 12, Variant::Full),
            Decision::Migrate { net_cost: 11 }
        ));
        assert_eq!(decide(9, 0, cost(4, 2), 0, Variant::Full), Decision::Evict);
    }

    #[test]
    fn ablation_variants_override_policy() {
        // MigrateAll ignores both the peers and the budget.
        assert!(matches!(
            decide(0, 100, cost(1, 0), 0, Variant::MigrateAll),
            Decision::Migrate { .. }
        ));
        // MigrateNone / CacheOnly never migrate, even with a perfect case.
        assert_eq!(
            decide(100, 0, cost(8, 8), 1_000_000, Variant::MigrateNone),
            Decision::Evict
        );
        assert_eq!(
            decide(100, 0, cost(8, 8), 1_000_000, Variant::CacheOnly),
            Decision::Evict
        );
    }

    #[test]
    fn noremap_uses_the_full_policy() {
        assert_eq!(
            decide(5, 6, cost(8, 8), 1_000, Variant::NoRemap),
            Decision::Evict
        );
        assert!(matches!(
            decide(6, 6, cost(8, 8), 1_000, Variant::NoRemap),
            Decision::Migrate { .. }
        ));
    }

    #[test]
    fn more_dirty_lines_lower_net_cost() {
        // Dirty lines would be written back anyway, so they subsidize
        // migration — the paper's swap-vs-copy asymmetry.
        assert!(cost(8, 8).net_cost() < cost(8, 0).net_cost());
        assert!(cost(8, 4).net_cost() < cost(4, 4).net_cost());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Netcost is always in [1, 2*Nall] (the paper's stated range).
        #[test]
        fn net_cost_range(nall in 1u32..=64, nvalid_raw in 0u32..=64, ndirty_raw in 0u32..=64) {
            let nvalid = nvalid_raw.min(nall).max(1);
            let ndirty = ndirty_raw.min(nvalid);
            let c = CostInputs { nall, nvalid, ndirty };
            let net = c.net_cost();
            prop_assert!(net >= 1);
            prop_assert!(net <= u64::from(2 * nall));
        }

        /// The decision never migrates with a zero budget (except MigrateAll).
        #[test]
        fn zero_budget_never_migrates(victim in 0u16..512, strongest_peer in 0u16..512) {
            let c = CostInputs { nall: 8, nvalid: 8, ndirty: 8 };
            let d = decide(victim, strongest_peer, c, 0, Variant::Full);
            prop_assert_eq!(d, Decision::Evict);
        }

        /// Monotonicity: raising the budget never flips Migrate -> Evict.
        #[test]
        fn budget_monotonic(victim in 0u16..512,
                            strongest_peer in 0u16..512,
                            nvalid in 1u32..=8, ndirty_raw in 0u32..=8,
                            b1 in 0u64..40, b2 in 0u64..40) {
            let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
            let c = CostInputs { nall: 8, nvalid, ndirty: ndirty_raw.min(nvalid) };
            let d_lo = decide(victim, strongest_peer, c, lo, Variant::Full);
            let d_hi = decide(victim, strongest_peer, c, hi, Variant::Full);
            let lo_migrates = matches!(d_lo, Decision::Migrate { .. });
            let hi_migrates = matches!(d_hi, Decision::Migrate { .. });
            if lo_migrates {
                prop_assert!(hi_migrates, "raising the budget flipped Migrate to Evict");
            }
        }
    }
}
