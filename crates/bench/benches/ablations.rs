//! Regenerates the ablation studies (budget reset period, free-stack
//! on-chip window) and times the full Hybrid2 policy.

use bench::{bench_cfg, kernel_cfg, print_reports};
use criterion::{criterion_group, criterion_main, Criterion};
use sim::experiments::{ablation_budget_period, ablation_free_hints, ablation_stack_window};
use sim::{run_one, NmRatio, SchemeKind};
use workloads::catalog;

fn bench(c: &mut Criterion) {
    print_reports(&ablation_budget_period(&bench_cfg(), true));
    print_reports(&ablation_stack_window(&bench_cfg(), true));
    print_reports(&ablation_free_hints(&bench_cfg(), true));
    let cfg = kernel_cfg();
    let spec = catalog::by_name("gcc").unwrap();
    c.bench_function("ablations/hybrid2_gcc", |b| {
        b.iter(|| run_one(SchemeKind::Hybrid2, spec, NmRatio::OneGb, &cfg))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
