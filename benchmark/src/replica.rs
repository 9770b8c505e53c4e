//! The traced run: a replica of `sim::Machine::run_batched` assembled from
//! the layers' public functions, which records every call it makes into a
//! layer and replays each layer's stream alone, on a shadow instance of
//! that layer, under a single timer.
//!
//! Per-call `Instant` spans cost about as much as many of the calls they
//! would time, so self time comes from replay instead: each layer's
//! recorded inputs are fed to a fresh instance with nothing else running
//! between the calls. The tape is replayed in bounded chunks; the shadows
//! persist across chunks, so a replayed layer walks exactly the states the
//! replica's layer walked. After the run the shadows' end states are
//! compared with the replica's, and the replica's `RunResult` with
//! `run_one`'s, so a replica that drifts from the machine loop fails
//! loudly instead of profiling a different program.

use std::hint::black_box;
use std::time::Instant;

use cpu::{Core, CoreConfig};
use dram::DramSystem;
use mem_cache::Hierarchy;
use sim::{
    build_scheme, AnyScheme, EvalConfig, PageAllocator, RunResult, ScaledSystem, SchemeKind,
};
use sim_types::{
    AccessKind, Cycle, MemReq, MemSide, PAddr, TraceOp, TraceSource, TrafficClass, VAddr,
};
use workloads::{Workload, WorkloadSpec};

use crate::suite::{CORES, RATIO};

/// Ops the replica runs between two replays of its tape.
const CHUNK_OPS: usize = 1 << 16;

/// The parts `sim::run_one` builds for one cell, built with the same
/// public constructors.
pub struct Parts {
    scheme: AnyScheme,
    workload: Workload,
    hierarchy: Hierarchy,
    dram: DramSystem,
    pages: PageAllocator,
}

impl Parts {
    /// Builds the parts of the (`kind`, `spec`) cell under `cfg`.
    pub fn build(kind: SchemeKind, spec: &WorkloadSpec, cfg: &EvalConfig) -> Parts {
        let sys = ScaledSystem::new(RATIO, cfg.scale_den);
        let scheme = build_scheme(kind, &sys);
        let workload = Workload::build(spec, CORES, cfg.scale_den, cfg.seed);
        let hierarchy = Hierarchy::new(sys.hierarchy());
        let dram = DramSystem::paper_default().with_service(cfg.service);
        // `Machine::new` seeds its page allocator this way.
        let pages = PageAllocator::new(scheme.flat_capacity_bytes(), cfg.seed ^ 0x9E37);
        Parts {
            scheme,
            workload,
            hierarchy,
            dram,
            pages,
        }
    }
}

fn new_cores() -> Vec<Core> {
    (0..CORES)
        .map(|i| Core::new(i as u8, CoreConfig::paper_default()))
        .collect()
}

/// The profiled layers, in replay order.
pub const LAYERS: [&str; 5] = ["tracegen", "page_alloc", "mem_cache", "cpu", "scheme"];
const TRACEGEN: usize = 0;
const PAGE_ALLOC: usize = 1;
const MEM_CACHE: usize = 2;
const CPU: usize = 3;
const SCHEME: usize = 4;

#[derive(Clone, Copy)]
struct PageCall {
    vaddr: VAddr,
    space: u8,
    /// `lookup` (run-ahead) rather than `translate_tracking`.
    lookup: bool,
}

#[derive(Clone, Copy)]
struct CacheCall {
    paddr: PAddr,
    core: u8,
    kind: AccessKind,
    /// `l1_access_fast` (run-ahead) rather than `access`.
    fast: bool,
}

#[derive(Clone, Copy)]
enum CpuCall {
    Advance(u8, u64),
    MissLoad(u8, Cycle),
    Store(u8),
    Drain(u8),
}

#[derive(Clone, Copy)]
enum SchemeCall {
    Access(MemReq),
    Tick(Cycle),
    Finish,
}

/// One chunk of recorded calls, per layer.
#[derive(Default)]
struct Tape {
    trace: Vec<u8>,
    pages: Vec<PageCall>,
    cache: Vec<CacheCall>,
    cpu: Vec<CpuCall>,
    scheme: Vec<SchemeCall>,
}

/// Fresh instances of every layer, fed only recorded inputs.
struct Shadow {
    parts: Parts,
    cores: Vec<Core>,
}

/// Replayed calls and self time per layer.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Calls replayed per layer (see [`LAYERS`]).
    pub calls: [u64; 5],
    /// Replayed self time per layer, nanoseconds.
    pub self_ns: [u64; 5],
    /// `on_tick` calls among the scheme's calls.
    pub tick_calls: u64,
    /// Nanoseconds of the scheme's self time spent in `on_tick`.
    pub tick_ns: u64,
}

/// What the traced run measured for one cell.
#[derive(Clone, Debug, Default)]
pub struct CellTrace {
    /// The replica's result.
    pub result: Option<RunResult>,
    /// Per-layer replay counts and self times.
    pub layers: LayerTimes,
    /// Pages allocated on first touch.
    pub first_touches: u64,
    /// `Hierarchy::access` calls (full walks).
    pub full_walks: u64,
    /// `Hierarchy::l1_access_fast` calls (run-ahead probes).
    pub l1_fast_probes: u64,
    /// L1 accesses (hierarchy stats at the end of the run).
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Simulated stall cycles, summed over cores.
    pub stall_cycles: u64,
    /// Core cycles summed over cores.
    pub core_cycles: u64,
    /// Scheduler epochs.
    pub epochs: u64,
    /// Ops executed on the run-ahead path.
    pub runahead_ops: u64,
    /// Scheme requests presented.
    pub scheme_reqs: u64,
    /// Scheme requests stamped earlier than one already presented.
    pub out_of_order: u64,
    /// Accesses and row hits per DRAM side, `[NM, FM]`.
    pub dram_accesses: [u64; 2],
    /// Row-buffer hits per DRAM side, `[NM, FM]`.
    pub dram_row_hits: [u64; 2],
    /// Metadata bytes moved on both sides.
    pub metadata_bytes: u64,
    /// Wall nanoseconds of the replica itself, replays excluded.
    pub replica_ns: u64,
    /// End-state mismatches between the replica and the replayed layers.
    pub mismatches: Vec<String>,
}

/// The scheduler-key packing of the machine loop: `now << bits | index`.
fn pack(now: u64, i: usize, idx_bits: u32) -> u64 {
    (now << idx_bits) | i as u64
}

/// Runs the (`kind`, `spec`) cell through the replica, replaying every
/// layer's calls as it goes.
pub fn trace_cell(kind: SchemeKind, spec: &WorkloadSpec, cfg: &EvalConfig) -> CellTrace {
    let Parts {
        mut scheme,
        mut workload,
        mut hierarchy,
        mut dram,
        mut pages,
    } = Parts::build(kind, spec, cfg);
    let mut shadow = Shadow {
        parts: Parts::build(kind, spec, cfg),
        cores: new_cores(),
    };
    let mut cores = new_cores();
    let mut out = CellTrace::default();
    let mut tape = Tape::default();
    let mut replay_ns = 0u64;
    let mut max_at = 0u64;
    let instrs_per_core = cfg.instrs_per_core;
    let batch = cfg.batch;
    let started = Instant::now();

    // The body below mirrors `Machine::run_batched` call for call; every
    // call into a layer is pushed onto that layer's tape first.
    let shared_space = workload.shared_address_space();
    let ncores = cores.len();
    let idx_bits = ncores.next_power_of_two().trailing_zeros().max(1);
    let mut next_tick = scheme.tick_period().unwrap_or(u64::MAX);
    let mut keys: Vec<u64> = cores
        .iter()
        .enumerate()
        .map(|(i, c)| {
            if c.retired() < instrs_per_core {
                pack(c.now().raw(), i, idx_bits)
            } else {
                u64::MAX
            }
        })
        .collect();
    let mut pending: Vec<Option<TraceOp>> = vec![None; ncores];
    let mut tick_horizon: u64 = 0;

    'epoch: loop {
        if tape.trace.len() >= CHUNK_OPS {
            replay_ns += replay(&mut tape, &mut shadow, &mut out.layers);
        }
        let mut best = u64::MAX;
        let mut other = u64::MAX;
        for &k in &keys {
            if k < best {
                other = best;
                best = k;
            } else if k < other {
                other = k;
            }
        }
        if best == u64::MAX {
            break;
        }
        out.epochs += 1;
        let i = (best & ((1 << idx_bits) - 1)) as usize;
        let mut left = batch;

        loop {
            let now = cores[i].now().raw();
            if pack(now, i, idx_bits) > other {
                break;
            }
            tick_horizon = tick_horizon.max(now);
            while now >= next_tick {
                let t = Cycle::new(next_tick);
                tape.scheme.push(SchemeCall::Tick(t));
                scheme.on_tick(t, &mut dram);
                next_tick += scheme.tick_period().unwrap_or(u64::MAX);
            }
            let op = match pending[i].take() {
                Some(op) => op,
                None => {
                    tape.trace.push(i as u8);
                    match workload.source_mut(i).next_op() {
                        Some(op) => op,
                        None => {
                            let remaining = instrs_per_core - cores[i].retired();
                            tape.cpu.push(CpuCall::Advance(i as u8, remaining));
                            cores[i].advance_instructions(remaining);
                            keys[i] = u64::MAX;
                            continue 'epoch;
                        }
                    }
                }
            };
            tape.cpu.push(CpuCall::Advance(i as u8, op.instructions()));
            cores[i].advance_instructions(op.instructions());

            let space = if shared_space { 0 } else { i as u8 };
            tape.pages.push(PageCall {
                vaddr: op.addr,
                space,
                lookup: false,
            });
            let (paddr, fresh_page) = pages.translate_tracking(space, op.addr);
            out.first_touches += u64::from(fresh_page);
            tape.cache.push(CacheCall {
                paddr,
                core: i as u8,
                kind: op.kind,
                fast: false,
            });
            out.full_walks += 1;
            let outcome = hierarchy.access(i, paddr, op.kind);
            if let Some(wb) = outcome.writeback {
                let req = MemReq::write(wb, 64, cores[i].now()).on_core(i as u8);
                present(&mut out, &mut max_at, &mut tape, req);
                scheme.access(&req, &mut dram);
            }
            if let Some(miss) = outcome.llc_miss {
                let req = MemReq {
                    addr: miss,
                    kind: op.kind,
                    bytes: 64,
                    at: cores[i].now() + outcome.latency,
                    core: i as u8,
                };
                present(&mut out, &mut max_at, &mut tape, req);
                let served = scheme.access(&req, &mut dram);
                if op.kind.is_write() {
                    tape.cpu.push(CpuCall::Store(i as u8));
                    cores[i].note_store();
                } else {
                    tape.cpu.push(CpuCall::MissLoad(i as u8, served.done));
                    cores[i].issue_llc_miss_load(served.done);
                }
            }
            if cores[i].retired() >= instrs_per_core {
                keys[i] = u64::MAX;
                continue 'epoch;
            }
            left -= 1;
            if left == 0 {
                keys[i] = pack(cores[i].now().raw(), i, idx_bits);
                continue 'epoch;
            }
        }

        loop {
            let now = cores[i].now().raw();
            tape.trace.push(i as u8);
            let Some(op) = workload.source_mut(i).next_op() else {
                tick_horizon = tick_horizon.max(now);
                let remaining = instrs_per_core - cores[i].retired();
                tape.cpu.push(CpuCall::Advance(i as u8, remaining));
                cores[i].advance_instructions(remaining);
                keys[i] = u64::MAX;
                continue 'epoch;
            };
            let space = if shared_space { 0 } else { i as u8 };
            tape.pages.push(PageCall {
                vaddr: op.addr,
                space,
                lookup: true,
            });
            let local = match pages.lookup(space, op.addr) {
                Some(paddr) => {
                    tape.cache.push(CacheCall {
                        paddr,
                        core: i as u8,
                        kind: op.kind,
                        fast: true,
                    });
                    out.l1_fast_probes += 1;
                    hierarchy.l1_access_fast(i, paddr, op.kind)
                }
                None => false,
            };
            if !local {
                pending[i] = Some(op);
                keys[i] = pack(now, i, idx_bits);
                continue 'epoch;
            }
            out.runahead_ops += 1;
            tick_horizon = tick_horizon.max(now);
            tape.cpu.push(CpuCall::Advance(i as u8, op.instructions()));
            cores[i].advance_instructions(op.instructions());
            if cores[i].retired() >= instrs_per_core {
                keys[i] = u64::MAX;
                continue 'epoch;
            }
            left -= 1;
            if left == 0 {
                keys[i] = pack(cores[i].now().raw(), i, idx_bits);
                continue 'epoch;
            }
        }
    }
    while tick_horizon >= next_tick {
        let t = Cycle::new(next_tick);
        tape.scheme.push(SchemeCall::Tick(t));
        scheme.on_tick(t, &mut dram);
        next_tick += scheme.tick_period().unwrap_or(u64::MAX);
    }
    for (i, c) in cores.iter_mut().enumerate() {
        tape.cpu.push(CpuCall::Drain(i as u8));
        c.drain();
    }
    tape.scheme.push(SchemeCall::Finish);
    scheme.on_finish();
    out.replica_ns = (started.elapsed().as_nanos() as u64).saturating_sub(replay_ns);
    replay(&mut tape, &mut shadow, &mut out.layers);

    // The result, assembled exactly as `Machine::result` does.
    let cycles = cores.iter().map(|c| c.now().raw()).max().unwrap_or(0);
    let instructions: u64 = cores.iter().map(|c| c.retired()).sum();
    let hstats = hierarchy.stats();
    out.result = Some(RunResult {
        scheme: scheme.name(),
        workload: workload.spec().name.clone(),
        cycles,
        instructions,
        mem_ops: hstats.l1.accesses,
        mpki: hstats.mpki(instructions),
        nm_served: scheme.stats().nm_served_fraction(),
        fm_traffic: dram.traffic_bytes(MemSide::Fm),
        nm_traffic: dram.traffic_bytes(MemSide::Nm),
        energy_mj: dram.total_energy().total_mj(),
        footprint: pages.footprint_bytes(),
        nm_queue_mean: dram.device(MemSide::Nm).stats().mean_queue_occupancy(),
        nm_queue_max: dram.device(MemSide::Nm).stats().queue_peak_occupancy,
        fm_queue_mean: dram.device(MemSide::Fm).stats().mean_queue_occupancy(),
        fm_queue_max: dram.device(MemSide::Fm).stats().queue_peak_occupancy,
        stats: scheme.stats().clone(),
    });
    out.l1_accesses = hstats.l1.accesses;
    out.l1_hits = hstats.l1.hits;
    out.llc_misses = hstats.llc_misses();
    out.stall_cycles = cores.iter().map(|c| c.stats().stall_cycles).sum();
    out.core_cycles = cores.iter().map(|c| c.now().raw()).sum();
    for (k, side) in [MemSide::Nm, MemSide::Fm].into_iter().enumerate() {
        let st = shadow.parts.dram.device(side).stats();
        out.dram_accesses[k] = st.accesses;
        out.dram_row_hits[k] = st.row_hits;
        out.metadata_bytes += st.bytes(TrafficClass::Metadata);
    }

    // Each replayed layer must have reached the replica's end state.
    let sh = &shadow.parts;
    let mut expect = |layer: &str, what: &str, same: bool| {
        if !same {
            out.mismatches
                .push(format!("{layer}: replayed {what} differs"));
        }
    };
    expect(
        "tracegen",
        "generator state",
        format!("{workload:?}") == format!("{:?}", sh.workload),
    );
    expect(
        "page_alloc",
        "page table",
        pages.table_digest() == sh.pages.table_digest()
            && pages.allocated_pages() == sh.pages.allocated_pages(),
    );
    expect(
        "mem_cache",
        "hierarchy stats",
        hierarchy.stats() == sh.hierarchy.stats()
            && hierarchy.level_stats() == sh.hierarchy.level_stats(),
    );
    for (a, b) in cores.iter().zip(&shadow.cores) {
        expect(
            "cpu",
            "core clock or stats",
            a.now() == b.now() && a.stats() == b.stats(),
        );
    }
    expect(
        "scheme",
        "scheme stats",
        scheme.stats() == sh.scheme.stats(),
    );
    for side in [MemSide::Nm, MemSide::Fm] {
        expect(
            "dram",
            "device stats",
            format!("{:?}", dram.device(side).stats())
                == format!("{:?}", sh.dram.device(side).stats()),
        );
    }
    expect(
        "dram",
        "energy",
        dram.total_energy() == sh.dram.total_energy(),
    );
    out
}

/// Records one scheme request, counting it out of order if it is stamped
/// earlier than a request already presented.
fn present(out: &mut CellTrace, max_at: &mut u64, tape: &mut Tape, req: MemReq) {
    out.scheme_reqs += 1;
    if req.at.raw() < *max_at {
        out.out_of_order += 1;
    }
    *max_at = (*max_at).max(req.at.raw());
    tape.scheme.push(SchemeCall::Access(req));
}

/// Replays and clears one chunk of `tape`, each layer alone under one
/// timer; returns the nanoseconds spent.
fn replay(tape: &mut Tape, sh: &mut Shadow, lt: &mut LayerTimes) -> u64 {
    let begin = Instant::now();
    let p = &mut sh.parts;
    let LayerTimes {
        calls,
        self_ns,
        tick_calls,
        tick_ns,
    } = lt;

    let t = Instant::now();
    for &i in &tape.trace {
        black_box(p.workload.source_mut(usize::from(i)).next_op());
    }
    self_ns[TRACEGEN] += t.elapsed().as_nanos() as u64;
    calls[TRACEGEN] += tape.trace.len() as u64;

    let t = Instant::now();
    for c in &tape.pages {
        if c.lookup {
            black_box(p.pages.lookup(c.space, c.vaddr));
        } else {
            black_box(p.pages.translate_tracking(c.space, c.vaddr));
        }
    }
    self_ns[PAGE_ALLOC] += t.elapsed().as_nanos() as u64;
    calls[PAGE_ALLOC] += tape.pages.len() as u64;

    let t = Instant::now();
    for c in &tape.cache {
        let core = usize::from(c.core);
        if c.fast {
            black_box(p.hierarchy.l1_access_fast(core, c.paddr, c.kind));
        } else {
            black_box(p.hierarchy.access(core, c.paddr, c.kind));
        }
    }
    self_ns[MEM_CACHE] += t.elapsed().as_nanos() as u64;
    calls[MEM_CACHE] += tape.cache.len() as u64;

    let t = Instant::now();
    for &c in &tape.cpu {
        match c {
            CpuCall::Advance(i, n) => sh.cores[usize::from(i)].advance_instructions(n),
            CpuCall::MissLoad(i, done) => sh.cores[usize::from(i)].issue_llc_miss_load(done),
            CpuCall::Store(i) => sh.cores[usize::from(i)].note_store(),
            CpuCall::Drain(i) => sh.cores[usize::from(i)].drain(),
        }
    }
    self_ns[CPU] += t.elapsed().as_nanos() as u64;
    calls[CPU] += tape.cpu.len() as u64;

    let t = Instant::now();
    for &c in &tape.scheme {
        match c {
            SchemeCall::Access(req) => {
                black_box(p.scheme.access(&req, &mut p.dram));
            }
            SchemeCall::Tick(now) => {
                // Ticks are rare and long, so a span of their own costs
                // nothing measurable.
                let tt = Instant::now();
                p.scheme.on_tick(now, &mut p.dram);
                *tick_ns += tt.elapsed().as_nanos() as u64;
                *tick_calls += 1;
            }
            SchemeCall::Finish => p.scheme.on_finish(),
        }
    }
    self_ns[SCHEME] += t.elapsed().as_nanos() as u64;
    calls[SCHEME] += tape.scheme.len() as u64;

    tape.trace.clear();
    tape.pages.clear();
    tape.cache.clear();
    tape.cpu.clear();
    tape.scheme.clear();
    begin.elapsed().as_nanos() as u64
}
