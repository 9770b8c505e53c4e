//! Output checks: an exhaustive field view of [`RunResult`], digests built
//! on it, and the invariants every trace's cells must satisfy.

use dram::SchemeStats;
use sim::RunResult;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Every field of `r` as `(name, value)`, floats by their bit pattern and
/// strings by their FNV hash. The destructures are exhaustive, so a field
/// added to [`RunResult`] or [`SchemeStats`] fails to compile here instead
/// of silently escaping the comparison.
pub fn fields(r: &RunResult) -> [(&'static str, u64); 28] {
    let RunResult {
        scheme,
        workload,
        cycles,
        instructions,
        mem_ops,
        mpki,
        nm_served,
        fm_traffic,
        nm_traffic,
        energy_mj,
        footprint,
        nm_queue_mean,
        nm_queue_max,
        fm_queue_mean,
        fm_queue_max,
        stats,
    } = r;
    let SchemeStats {
        requests,
        reads,
        writes,
        served_from_nm,
        lookup_hits,
        lookup_misses,
        moved_into_nm,
        moved_out_of_nm,
        dirty_writebacks,
        metadata_reads,
        metadata_writes,
        fetched_bytes,
        used_bytes,
    } = stats;
    [
        ("scheme", fnv(FNV_START, scheme.as_bytes())),
        ("workload", fnv(FNV_START, workload.as_bytes())),
        ("cycles", *cycles),
        ("instructions", *instructions),
        ("mem_ops", *mem_ops),
        ("mpki", mpki.to_bits()),
        ("nm_served", nm_served.to_bits()),
        ("fm_traffic", *fm_traffic),
        ("nm_traffic", *nm_traffic),
        ("energy_mj", energy_mj.to_bits()),
        ("footprint", *footprint),
        ("nm_queue_mean", nm_queue_mean.to_bits()),
        ("nm_queue_max", *nm_queue_max),
        ("fm_queue_mean", fm_queue_mean.to_bits()),
        ("fm_queue_max", *fm_queue_max),
        ("stats.requests", *requests),
        ("stats.reads", *reads),
        ("stats.writes", *writes),
        ("stats.served_from_nm", *served_from_nm),
        ("stats.lookup_hits", *lookup_hits),
        ("stats.lookup_misses", *lookup_misses),
        ("stats.moved_into_nm", *moved_into_nm),
        ("stats.moved_out_of_nm", *moved_out_of_nm),
        ("stats.dirty_writebacks", *dirty_writebacks),
        ("stats.metadata_reads", *metadata_reads),
        ("stats.metadata_writes", *metadata_writes),
        ("stats.fetched_bytes", *fetched_bytes),
        ("stats.used_bytes", *used_bytes),
    ]
}

/// Digest of every field of `r`, float-bit exact.
pub fn digest(r: &RunResult) -> u64 {
    fields(r)
        .iter()
        .fold(FNV_START, |h, (_, v)| fnv(h, &v.to_le_bytes()))
}

/// The names of the fields on which `a` and `b` differ.
pub fn diff(a: &RunResult, b: &RunResult) -> Vec<&'static str> {
    fields(a)
        .iter()
        .zip(fields(b).iter())
        .filter(|(x, y)| x.1 != y.1)
        .map(|(x, _)| x.0)
        .collect()
}

/// Checks the cells of one trace: `base` is the BASELINE cell and
/// `schemes` the MAIN cells on the same trace. A core stops at the first
/// op that reaches its instruction target, so a cell retires the target
/// plus the last ops' overshoot; that overshoot depends on the trace
/// alone, so every scheme must retire exactly BASELINE's count. Returns one failure reason
/// per failing cell as `(index, reason)`, index 0 being the baseline and
/// `k + 1` being `schemes[k]`.
pub fn check_trace(
    base: &RunResult,
    schemes: &[&RunResult],
    instrs_target: u64,
) -> Vec<(usize, String)> {
    let mut bad = Vec::new();
    let cells = std::iter::once(base).chain(schemes.iter().copied());
    for (idx, r) in cells.enumerate() {
        let who = format!("{}/{}", r.scheme, r.workload);
        if r.instructions < instrs_target || r.instructions != base.instructions {
            bad.push((
                idx,
                format!(
                    "{who}: retired {} instructions; expected at least {instrs_target}, \
                     and BASELINE's {}",
                    r.instructions, base.instructions
                ),
            ));
        } else if r.mem_ops != base.mem_ops {
            bad.push((
                idx,
                format!(
                    "{who}: {} mem-ops, but BASELINE replayed {}",
                    r.mem_ops, base.mem_ops
                ),
            ));
        } else if !(0.0..=1.0).contains(&r.nm_served) {
            bad.push((
                idx,
                format!("{who}: nm_served {} outside [0, 1]", r.nm_served),
            ));
        } else if r.cycles == 0 || base.cycles == 0 {
            bad.push((idx, format!("{who}: zero cycles, speedup undefined")));
        } else if idx == 0 && (r.nm_traffic != 0 || r.stats.served_from_nm != 0) {
            bad.push((
                idx,
                format!(
                    "{who}: BASELINE has no NM, yet moved {} NM bytes",
                    r.nm_traffic
                ),
            ));
        }
    }
    bad
}
