//! Quickstart: simulate one workload under Hybrid2 and the no-NM baseline,
//! and print the headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hybrid2::prelude::*;

fn main() {
    // A small, fast configuration: 1/1024 of the paper's capacities with a
    // proportional instruction window (see `ScaledSystem` in
    // crates/sim/src/scale.rs).
    let cfg = EvalConfig {
        scale_den: 1024,
        instrs_per_core: 1_000_000,
        seed: 42,
        threads: 1,
        ..EvalConfig::smoke()
    };

    // lbm: the high-MPKI streaming stencil from Table 2.
    let spec = catalog::by_name("lbm").expect("lbm is in the catalog");
    println!(
        "workload: {} ({}, paper MPKI {:.1}, footprint {:.1} GB)",
        spec.name, spec.kind, spec.paper.mpki, spec.paper.footprint_gb
    );

    let baseline = run_one(SchemeKind::Baseline, spec, NmRatio::OneGb, &cfg);
    let hybrid2 = run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &cfg);

    println!();
    println!("                      baseline      hybrid2");
    println!(
        "cycles              {:>10}   {:>10}",
        baseline.cycles, hybrid2.cycles
    );
    println!(
        "IPC                 {:>10.2}   {:>10.2}",
        baseline.ipc(),
        hybrid2.ipc()
    );
    println!(
        "measured MPKI       {:>10.1}   {:>10.1}",
        baseline.mpki, hybrid2.mpki
    );
    println!(
        "served from NM      {:>9.1}%   {:>9.1}%",
        100.0 * baseline.nm_served,
        100.0 * hybrid2.nm_served
    );
    println!(
        "FM traffic (MiB)    {:>10.1}   {:>10.1}",
        baseline.fm_traffic as f64 / (1 << 20) as f64,
        hybrid2.fm_traffic as f64 / (1 << 20) as f64
    );
    println!(
        "energy (mJ)         {:>10.3}   {:>10.3}",
        baseline.energy_mj, hybrid2.energy_mj
    );
    println!();
    println!(
        "speedup over baseline: {:.2}x  (migrated into NM: {} sectors, swapped out: {})",
        baseline.cycles as f64 / hybrid2.cycles as f64,
        hybrid2.stats.moved_into_nm,
        hybrid2.stats.moved_out_of_nm,
    );
}
