//! Helpers shared by the integration-test differential walls.

use hybrid2::{RunResult, SchemeStats};

/// Exhaustive float-bit comparison of two run results. Destructures every
/// field of [`RunResult`] and [`SchemeStats`] so that adding a field
/// without extending this check fails to compile.
pub fn assert_bitwise_eq(a: &RunResult, b: &RunResult, ctx: &str) {
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
    } = a;
    assert_eq!(*scheme, b.scheme, "{ctx}: scheme");
    assert_eq!(*workload, b.workload, "{ctx}: workload");
    assert_eq!(*cycles, b.cycles, "{ctx}: cycles");
    assert_eq!(*instructions, b.instructions, "{ctx}: instructions");
    assert_eq!(*mem_ops, b.mem_ops, "{ctx}: mem_ops");
    assert_eq!(mpki.to_bits(), b.mpki.to_bits(), "{ctx}: mpki bits");
    assert_eq!(
        nm_served.to_bits(),
        b.nm_served.to_bits(),
        "{ctx}: nm_served bits"
    );
    assert_eq!(*fm_traffic, b.fm_traffic, "{ctx}: fm_traffic");
    assert_eq!(*nm_traffic, b.nm_traffic, "{ctx}: nm_traffic");
    assert_eq!(
        energy_mj.to_bits(),
        b.energy_mj.to_bits(),
        "{ctx}: energy bits"
    );
    assert_eq!(*footprint, b.footprint, "{ctx}: footprint");
    assert_eq!(
        nm_queue_mean.to_bits(),
        b.nm_queue_mean.to_bits(),
        "{ctx}: nm_queue_mean bits"
    );
    assert_eq!(*nm_queue_max, b.nm_queue_max, "{ctx}: nm_queue_max");
    assert_eq!(
        fm_queue_mean.to_bits(),
        b.fm_queue_mean.to_bits(),
        "{ctx}: fm_queue_mean bits"
    );
    assert_eq!(*fm_queue_max, b.fm_queue_max, "{ctx}: fm_queue_max");
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
    assert_eq!(*requests, b.stats.requests, "{ctx}: stats.requests");
    assert_eq!(*reads, b.stats.reads, "{ctx}: stats.reads");
    assert_eq!(*writes, b.stats.writes, "{ctx}: stats.writes");
    assert_eq!(
        *served_from_nm, b.stats.served_from_nm,
        "{ctx}: stats.served_from_nm"
    );
    assert_eq!(
        *lookup_hits, b.stats.lookup_hits,
        "{ctx}: stats.lookup_hits"
    );
    assert_eq!(
        *lookup_misses, b.stats.lookup_misses,
        "{ctx}: stats.lookup_misses"
    );
    assert_eq!(
        *moved_into_nm, b.stats.moved_into_nm,
        "{ctx}: stats.moved_into_nm"
    );
    assert_eq!(
        *moved_out_of_nm, b.stats.moved_out_of_nm,
        "{ctx}: stats.moved_out_of_nm"
    );
    assert_eq!(
        *dirty_writebacks, b.stats.dirty_writebacks,
        "{ctx}: stats.dirty_writebacks"
    );
    assert_eq!(
        *metadata_reads, b.stats.metadata_reads,
        "{ctx}: stats.metadata_reads"
    );
    assert_eq!(
        *metadata_writes, b.stats.metadata_writes,
        "{ctx}: stats.metadata_writes"
    );
    assert_eq!(
        *fetched_bytes, b.stats.fetched_bytes,
        "{ctx}: stats.fetched_bytes"
    );
    assert_eq!(*used_bytes, b.stats.used_bytes, "{ctx}: stats.used_bytes");
}
