//! Structured per-run telemetry: the one run-record format and the
//! queryable result store behind `reproduce query`.
//!
//! The grid paths — [`Matrix::run_timed`] (via
//! [`crate::scenario::run_grid_timed`] and the timed evalsuite matrix) and
//! the `reproduce` run subcommands that drive them — can append one **run
//! record** per simulated (scheme, workload) cell to a *run directory*. A
//! record pins everything needed to reproduce the cell (workload, scheme,
//! NM:FM ratio, scale/instrs/seed/batch/threads, a digest of the
//! result-affecting knobs) next to everything it measured (the full
//! [`RunResult`] including the scheme's [`SchemeStats`] window counters,
//! plus wall-clock seconds and mem-ops/sec simulator throughput).
//!
//! The on-disk format is versioned (`hybrid2-runlog-v5`), line-oriented
//! and tab-separated: a version line, a `writer` header, then `record`
//! rows numbered contiguously from zero. Floats travel as IEEE-754 bit
//! patterns, so records round-trip float-bit exactly, and encode/decode
//! destructure [`RunRecord`], [`RunResult`] and [`SchemeStats`]
//! exhaustively so format drift fails to compile instead of silently
//! dropping columns. Each process appends to its own
//! `run-NNNNN.runlog.tsv` file inside the run directory (claimed
//! atomically with `create_new`), so concurrent processes never
//! interleave writes; a run directory accumulates files over time — the
//! append-only history `reproduce query` aggregates.
//!
//! Reading is strict: version and writer headers are mandatory, any other
//! line must be a `record` row, per-file record sequence numbers must be
//! contiguous from zero, rows must hold exactly [`REC_COLS`] columns, a
//! file whose last line lost its newline is rejected as truncated, and the
//! same writer appearing twice (the same file supplied twice, under any
//! name) is an error naming both files. All failures are `Err`s naming
//! the offending file — never a panic.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use dram::SchemeStats;
use sim_types::stats::geomean;

use crate::machine::RunResult;
use crate::matrix::Matrix;
use crate::report::{f3, Report};
use crate::runner::{EvalConfig, SchemeKind};
use crate::scale::NmRatio;

/// First line of every run-record file; bumped on any format change.
/// v5 dropped the six service-model and queue columns, and the service
/// model from the [`config_digest`] canon, so every digest changed.
pub const VERSION: &str = "hybrid2-runlog-v5";

/// Number of tab-separated columns in a `record` row.
pub const REC_COLS: usize = 37;

/// File-name suffix of every record file inside a run directory.
pub const FILE_SUFFIX: &str = ".runlog.tsv";

/// Largest `run-NNNNN` file number a run directory can hold.
const MAX_FILE_NUMBER: u64 = 99_999;

/// How many `create_new` collisions [`RunLog::create`] absorbs after its
/// directory scan before giving up. Collisions past the scan can only
/// come from concurrent writers racing for the same number, so a small
/// fixed budget suffices — and a budget overrun is an error, not a spin.
const CLAIM_RETRIES: u32 = 32;

/// The highest `run-NNNNN` number currently claimed in `dir` (0 if none),
/// so [`RunLog::create`] can start probing past the dense prefix.
fn next_file_number_hint(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read run directory {}: {e}", dir.display()))?;
    let mut max = 0u64;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(num) = name
            .strip_prefix("run-")
            .and_then(|rest| rest.strip_suffix(FILE_SUFFIX))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            max = max.max(num);
        }
    }
    Ok(max)
}

/// One structured run record: the full provenance and measurements of a
/// single simulated (scheme, workload) grid cell.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Which execution path produced the record (`"scenario:all"`,
    /// `"eval:smoke"`, …). Free-form, no tabs/newlines.
    pub source: String,
    /// Workload name.
    pub workload: String,
    /// The scheme simulated.
    pub kind: SchemeKind,
    /// The scheme's own display name (as in the paper's figures).
    pub scheme: String,
    /// NM:FM capacity ratio of the run.
    pub ratio: NmRatio,
    /// Capacity divisor vs the paper's system.
    pub scale_den: u64,
    /// Instructions retired per core.
    pub instrs_per_core: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Epoch-batch scheduling knob (never affects results).
    pub batch: u64,
    /// Worker threads of the run (never affects results).
    pub threads: u64,
    /// [`config_digest`] over the result-affecting knobs, for pairing
    /// records of the same logical configuration across runs.
    pub config_digest: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Memory operations replayed (the per-op loop's iteration count).
    pub mem_ops: u64,
    /// Measured LLC misses per kilo-instruction.
    pub mpki: f64,
    /// Fraction of requests served from NM, in [0, 1].
    pub nm_served: f64,
    /// Bytes moved on the FM interface.
    pub fm_traffic: u64,
    /// Bytes moved on the NM interface.
    pub nm_traffic: u64,
    /// Dynamic memory energy in millijoules.
    pub energy_mj: f64,
    /// Measured footprint in bytes.
    pub footprint: u64,
    /// The scheme's per-window counters, recorded whole.
    pub stats: SchemeStats,
    /// Wall-clock seconds the cell took to simulate (telemetry; varies
    /// run to run and machine to machine).
    pub wall_secs: f64,
    /// Simulator throughput in mem-ops/sec ([`ops_per_sec`]; always
    /// finite, 0.0 when no ops ran).
    pub mem_ops_per_sec: f64,
}

impl RunRecord {
    /// Builds a record from one run's result and its wall-clock seconds.
    pub fn new(
        source: &str,
        kind: SchemeKind,
        ratio: NmRatio,
        cfg: &EvalConfig,
        r: &RunResult,
        wall_secs: f64,
    ) -> RunRecord {
        // Destructure exhaustively: a new RunResult field must not
        // compile until the record format learns about it.
        let RunResult {
            scheme,
            ref workload,
            cycles,
            instructions,
            mem_ops,
            mpki,
            nm_served,
            fm_traffic,
            nm_traffic,
            energy_mj,
            footprint,
            nm_queue_mean: _,
            nm_queue_max: _,
            fm_queue_mean: _,
            fm_queue_max: _,
            ref stats,
        } = *r;
        RunRecord {
            source: source.to_owned(),
            workload: workload.to_owned(),
            kind,
            scheme: scheme.to_owned(),
            ratio,
            scale_den: cfg.scale_den,
            instrs_per_core: cfg.instrs_per_core,
            seed: cfg.seed,
            batch: cfg.batch as u64,
            threads: cfg.threads as u64,
            config_digest: config_digest(ratio, cfg),
            cycles,
            instructions,
            mem_ops,
            mpki,
            nm_served,
            fm_traffic,
            nm_traffic,
            energy_mj,
            footprint,
            stats: stats.clone(),
            wall_secs,
            mem_ops_per_sec: ops_per_sec(mem_ops, wall_secs),
        }
    }
}

/// Simulator throughput in mem-ops/sec, guarded so the result is always
/// finite: zero ops yield 0.0, and an elapsed reading that rounds to
/// (or below) zero on a fast machine is clamped to a nanosecond instead
/// of dividing by zero — NaN/inf must never reach a record, a golden
/// digest or a floor comparison.
pub fn ops_per_sec(mem_ops: u64, secs: f64) -> f64 {
    if mem_ops == 0 {
        return 0.0;
    }
    // f64::max ignores a NaN operand, so even a poisoned elapsed
    // reading clamps to the 1 ns floor rather than propagating.
    mem_ops as f64 / secs.max(1e-9)
}

/// FNV-1a digest over the *result-affecting* knobs (ratio, scale,
/// instrs, seed). Threads and batch are deliberately excluded — the
/// scheduler's byte-identity contracts make them irrelevant to results,
/// so records from a `--batch 1` reference run pair with batched runs.
pub fn config_digest(ratio: NmRatio, cfg: &EvalConfig) -> u64 {
    // Exhaustive destructure: adding an EvalConfig field forces a
    // decision on whether it affects results.
    let EvalConfig {
        scale_den,
        instrs_per_core,
        seed,
        threads: _,
        batch: _,
        service: _,
    } = *cfg;
    let canon = format!(
        "ratio={};scale={scale_den};instrs={instrs_per_core};seed={seed}",
        ratio_token(ratio)
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canon.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Short stable token for an NM:FM ratio (`1gb`/`2gb`/`4gb`), used in
/// record rows and accepted by the CLI's `--ratio` flag.
pub fn ratio_token(ratio: NmRatio) -> &'static str {
    match ratio {
        NmRatio::OneGb => "1gb",
        NmRatio::TwoGb => "2gb",
        NmRatio::FourGb => "4gb",
    }
}

/// Parses a [`ratio_token`] back to the ratio.
pub fn parse_ratio_token(s: &str) -> Result<NmRatio, String> {
    match s {
        "1gb" => Ok(NmRatio::OneGb),
        "2gb" => Ok(NmRatio::TwoGb),
        "4gb" => Ok(NmRatio::FourGb),
        other => Err(format!("unknown ratio {other:?}; use 1gb, 2gb or 4gb")),
    }
}

/// Stable token for a scheme kind, used in record rows and accepted
/// by the CLI's `query --scheme` filter.
pub fn kind_token(kind: SchemeKind) -> String {
    use hybrid2_core::Variant;
    match kind {
        SchemeKind::Baseline => "baseline".into(),
        SchemeKind::MemPod => "mempod".into(),
        SchemeKind::Chameleon => "chameleon".into(),
        SchemeKind::Lgm => "lgm".into(),
        SchemeKind::Tagless => "tagless".into(),
        SchemeKind::Dfc => "dfc".into(),
        SchemeKind::Hybrid2 => "hybrid2".into(),
        SchemeKind::DfcLine(l) => format!("dfc-line={l}"),
        SchemeKind::IdealLine(l) => format!("ideal-line={l}"),
        SchemeKind::Hybrid2Variant(v) => format!(
            "hybrid2-variant={}",
            match v {
                Variant::Full => "full",
                Variant::CacheOnly => "cache-only",
                Variant::MigrateAll => "migrate-all",
                Variant::MigrateNone => "migrate-none",
                Variant::NoRemap => "no-remap",
            }
        ),
        SchemeKind::Hybrid2Config {
            cache_bytes_paper,
            sector,
            line,
        } => format!("hybrid2-config={cache_bytes_paper}:{sector}:{line}"),
    }
}

/// Parses a [`kind_token`] back to the scheme kind.
pub fn parse_kind_token(s: &str) -> Result<SchemeKind, String> {
    use hybrid2_core::Variant;
    let plain = match s {
        "baseline" => Some(SchemeKind::Baseline),
        "mempod" => Some(SchemeKind::MemPod),
        "chameleon" => Some(SchemeKind::Chameleon),
        "lgm" => Some(SchemeKind::Lgm),
        "tagless" => Some(SchemeKind::Tagless),
        "dfc" => Some(SchemeKind::Dfc),
        "hybrid2" => Some(SchemeKind::Hybrid2),
        _ => None,
    };
    if let Some(kind) = plain {
        return Ok(kind);
    }
    let err = || format!("unknown scheme token {s:?}");
    let (name, arg) = s.split_once('=').ok_or_else(err)?;
    match name {
        "dfc-line" => Ok(SchemeKind::DfcLine(parse_u64(arg, "dfc line size")?)),
        "ideal-line" => Ok(SchemeKind::IdealLine(parse_u64(arg, "ideal line size")?)),
        "hybrid2-variant" => {
            let v = match arg {
                "full" => Variant::Full,
                "cache-only" => Variant::CacheOnly,
                "migrate-all" => Variant::MigrateAll,
                "migrate-none" => Variant::MigrateNone,
                "no-remap" => Variant::NoRemap,
                _ => return Err(err()),
            };
            Ok(SchemeKind::Hybrid2Variant(v))
        }
        "hybrid2-config" => {
            let mut it = arg.split(':');
            let (Some(c), Some(sec), Some(line), None) =
                (it.next(), it.next(), it.next(), it.next())
            else {
                return Err(err());
            };
            Ok(SchemeKind::Hybrid2Config {
                cache_bytes_paper: parse_u64(c, "hybrid2 cache bytes")?,
                sector: parse_u64(sec, "hybrid2 sector")?,
                line: parse_u64(line, "hybrid2 line")?,
            })
        }
        _ => Err(err()),
    }
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{what} {s:?} is not an unsigned integer"))
}

/// Replaces the characters the line-oriented format reserves.
fn sanitize(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], "-")
}

/// IEEE-754 bit pattern of `v` as fixed-width hex — the exact-round-trip
/// float encoding of record rows.
fn f64_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64_bits(s: &str, what: &str) -> Result<f64, String> {
    if s.len() != 16 {
        return Err(format!("{what} {s:?} is not a 16-digit hex bit pattern"));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("{what} {s:?} is not a 16-digit hex bit pattern"))
}

/// A writer identity no other invocation shares: `context`, the process
/// id and a nanosecond timestamp. The reader uses it to reject the same
/// *file* supplied twice while still accepting two identical *runs*.
fn writer_id(context: &str) -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    sanitize(&format!("{context}.{}.{nanos}", std::process::id()))
}

/// The version line and `writer` header every record file opens with.
fn file_header(writer: &str) -> String {
    format!("{VERSION}\nwriter\t{writer}\n")
}

/// Encodes one record row. `seq` is the record's 0-based position within
/// its file.
fn encode_record(rec: &RunRecord, seq: u64) -> String {
    // Exhaustive destructure: format drift fails to compile.
    let RunRecord {
        ref source,
        ref workload,
        kind,
        ref scheme,
        ratio,
        scale_den,
        instrs_per_core,
        seed,
        batch,
        threads,
        config_digest,
        cycles,
        instructions,
        mem_ops,
        mpki,
        nm_served,
        fm_traffic,
        nm_traffic,
        energy_mj,
        footprint,
        ref stats,
        wall_secs,
        mem_ops_per_sec,
    } = *rec;
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
    } = *stats;
    let mut line = String::with_capacity(256);
    let _ = writeln!(
        line,
        "record\t{seq}\t{source}\t{workload}\t{kind}\t{scheme}\t{ratio}\t{scale_den}\t\
         {instrs_per_core}\t{seed}\t{batch}\t{threads}\t{config_digest:016x}\t{cycles}\t\
         {instructions}\t{mem_ops}\t{mpki}\t{nm_served}\t{fm_traffic}\t{nm_traffic}\t{energy}\t\
         {footprint}\t{requests}\t{reads}\t{writes}\t{served_from_nm}\t{lookup_hits}\t\
         {lookup_misses}\t{moved_into_nm}\t{moved_out_of_nm}\t{dirty_writebacks}\t\
         {metadata_reads}\t{metadata_writes}\t{fetched_bytes}\t{used_bytes}\t{wall_secs}\t\
         {mem_ops_per_sec}",
        source = sanitize(source),
        workload = sanitize(workload),
        kind = kind_token(kind),
        scheme = sanitize(scheme),
        ratio = ratio_token(ratio),
        mpki = f64_bits(mpki),
        nm_served = f64_bits(nm_served),
        energy = f64_bits(energy_mj),
        wall_secs = f64_bits(wall_secs),
        mem_ops_per_sec = f64_bits(mem_ops_per_sec),
    );
    line
}

/// Decodes one `record` row (already split into columns).
fn decode_record(cols: &[&str]) -> Result<(u64, RunRecord), String> {
    let u = |i: usize, what: &str| parse_u64(cols[i], what);
    let fb = |i: usize, what: &str| parse_f64_bits(cols[i], what);
    let seq = u(1, "record sequence")?;
    let config_digest = u64::from_str_radix(cols[12], 16)
        .map_err(|_| format!("config digest {:?} is not a hex integer", cols[12]))?;
    let rec = RunRecord {
        source: cols[2].to_owned(),
        workload: cols[3].to_owned(),
        kind: parse_kind_token(cols[4])?,
        scheme: cols[5].to_owned(),
        ratio: parse_ratio_token(cols[6])?,
        scale_den: u(7, "scale")?,
        instrs_per_core: u(8, "instrs")?,
        seed: u(9, "seed")?,
        batch: u(10, "batch")?,
        threads: u(11, "threads")?,
        config_digest,
        cycles: u(13, "cycles")?,
        instructions: u(14, "instructions")?,
        mem_ops: u(15, "mem_ops")?,
        mpki: fb(16, "mpki")?,
        nm_served: fb(17, "nm_served")?,
        fm_traffic: u(18, "fm_traffic")?,
        nm_traffic: u(19, "nm_traffic")?,
        energy_mj: fb(20, "energy_mj")?,
        footprint: u(21, "footprint")?,
        stats: SchemeStats {
            requests: u(22, "requests")?,
            reads: u(23, "reads")?,
            writes: u(24, "writes")?,
            served_from_nm: u(25, "served_from_nm")?,
            lookup_hits: u(26, "lookup_hits")?,
            lookup_misses: u(27, "lookup_misses")?,
            moved_into_nm: u(28, "moved_into_nm")?,
            moved_out_of_nm: u(29, "moved_out_of_nm")?,
            dirty_writebacks: u(30, "dirty_writebacks")?,
            metadata_reads: u(31, "metadata_reads")?,
            metadata_writes: u(32, "metadata_writes")?,
            fetched_bytes: u(33, "fetched_bytes")?,
            used_bytes: u(34, "used_bytes")?,
        },
        wall_secs: fb(35, "wall_secs")?,
        mem_ops_per_sec: fb(36, "mem_ops_per_sec")?,
    };
    Ok((seq, rec))
}

/// An open, append-only run-record file inside a run directory.
///
/// Each [`RunLog::create`] claims a fresh `run-NNNNN.runlog.tsv` with
/// `create_new`, so concurrent processes writing to the same directory
/// never share a file. Every I/O failure surfaces as an `Err` naming the
/// path — a record that fails to append mid-line leaves a file the
/// strict reader rejects as truncated, never a silently-short history.
#[derive(Debug)]
pub struct RunLog {
    path: PathBuf,
    file: File,
    seq: u64,
}

impl RunLog {
    /// Creates the run directory (if needed) and claims the next free
    /// record file in it, stamping the version and a writer header unique
    /// to this invocation (`context`, process id, nanosecond timestamp).
    pub fn create(dir: &Path, context: &str) -> Result<RunLog, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create run directory {}: {e}", dir.display()))?;
        let header = file_header(&writer_id(context));
        // Scan for the highest claimed number first, so a dense run
        // directory costs one readdir, not one failed create_new per
        // existing file. The claim loop after the scan only has to absorb
        // *races* (another process claiming the same number between our
        // scan and our create), so its retry budget is small and fixed —
        // exhausting it is an error naming the directory, never a spin.
        let mut next: u64 = 1 + next_file_number_hint(dir)?;
        for _ in 0..CLAIM_RETRIES {
            if next > MAX_FILE_NUMBER {
                break;
            }
            let path = dir.join(format!("run-{next:05}{FILE_SUFFIX}"));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    file.write_all(header.as_bytes()).map_err(|e| {
                        format!("cannot write run-record header to {}: {e}", path.display())
                    })?;
                    return Ok(RunLog { path, file, seq: 0 });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => next += 1,
                Err(e) => {
                    return Err(format!(
                        "cannot create run-record file {}: {e}",
                        path.display()
                    ))
                }
            }
        }
        Err(format!(
            "cannot claim a run-record file in {} after {CLAIM_RETRIES} attempts \
             (next candidate run-{next:05}{FILE_SUFFIX}, cap {MAX_FILE_NUMBER})",
            dir.display()
        ))
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record. Sequence numbers are assigned here, in append
    /// order, starting at 0.
    pub fn append(&mut self, rec: &RunRecord) -> Result<(), String> {
        let line = encode_record(rec, self.seq);
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| format!("cannot append run record to {}: {e}", self.path.display()))?;
        self.seq += 1;
        Ok(())
    }
}

/// Appends one record per cell of an assembled [`Matrix`], in slot order
/// (baseline rows first, then each scheme row). `wall_secs` is the
/// per-slot timing vector of [`Matrix::run_timed`].
pub fn record_matrix(
    log: &mut RunLog,
    source: &str,
    m: &Matrix,
    wall_secs: &[f64],
    cfg: &EvalConfig,
) -> Result<(), String> {
    let n = m.workloads.len();
    assert_eq!(
        wall_secs.len(),
        (m.schemes.len() + 1) * n,
        "one wall-clock sample per grid slot"
    );
    for (w, r) in m.baseline.iter().enumerate() {
        log.append(&RunRecord::new(
            source,
            SchemeKind::Baseline,
            m.ratio,
            cfg,
            r,
            wall_secs[w],
        ))?;
    }
    for (s, row) in m.schemes.iter().enumerate() {
        for (w, r) in row.runs.iter().enumerate() {
            log.append(&RunRecord::new(
                source,
                row.kind,
                m.ratio,
                cfg,
                r,
                wall_secs[(s + 1) * n + w],
            ))?;
        }
    }
    Ok(())
}

/// One parsed record file.
struct RecordFile {
    /// The writer identity of the file.
    writer: String,
    /// The record rows, in sequence order.
    records: Vec<RunRecord>,
}

/// Parses one record file, strictly (see the module docs).
fn decode_file(contents: &str) -> Result<RecordFile, String> {
    if contents.is_empty() {
        return Err("empty run-record file".to_owned());
    }
    // A mid-value cut of the final row can survive every other check (the
    // truncated number still parses, the column count is intact), so the
    // trailing newline every encoder writes is the one reliable
    // truncation tell.
    if !contents.ends_with('\n') {
        return Err("file is truncated (last line has no newline)".to_owned());
    }
    let mut lines = contents.lines();
    match lines.next() {
        Some(v) if v == VERSION => {}
        Some(v) => {
            return Err(format!(
                "unsupported run-record format {v:?} (expected {VERSION})"
            ))
        }
        None => return Err("empty run-record file".to_owned()),
    }
    let writer = match lines.next().map(|l| l.split('\t').collect::<Vec<_>>()) {
        Some(cols) if cols.len() == 2 && cols[0] == "writer" => cols[1].to_owned(),
        other => return Err(format!("missing writer header, got {other:?}")),
    };
    let mut records = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.first() != Some(&"record") {
            return Err(format!("expected record row, got {line:?}"));
        }
        if cols.len() != REC_COLS {
            return Err(format!(
                "record row has {} columns, expected {REC_COLS}: {line:?}",
                cols.len()
            ));
        }
        let (seq, rec) = decode_record(&cols)?;
        if seq != records.len() as u64 {
            return Err(format!(
                "record sequence broken: expected {}, found {seq} (rows missing or spliced?)",
                records.len()
            ));
        }
        records.push(rec);
    }
    Ok(RecordFile { writer, records })
}

/// An assembled result store: every record of every supplied file, in a
/// deterministic global order (files sorted by name, records in file
/// order). A record's position in [`Store::records`] is its *global
/// record id* — the number `reproduce query --since-record` filters on.
#[derive(Debug)]
pub struct Store {
    /// Number of files the store was read from.
    pub files: usize,
    /// All records; the index is the global record id.
    pub records: Vec<RunRecord>,
}

/// Reads a store from `(name, contents)` pairs (names only for error
/// messages and ordering). Input order is irrelevant: files are sorted
/// by name, so any enumeration order yields a byte-identical store.
/// Rejects the same writer appearing twice — the same file supplied
/// twice under any name — naming both files.
pub fn read_store(inputs: &[(String, String)]) -> Result<Store, String> {
    let mut sorted: Vec<&(String, String)> = inputs.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut writers: BTreeMap<String, &str> = BTreeMap::new();
    let mut records = Vec::new();
    for (name, contents) in sorted {
        let f = decode_file(contents).map_err(|e| format!("{name}: {e}"))?;
        if let Some(prev) = writers.insert(f.writer.clone(), name) {
            return Err(format!(
                "writer {:?} appears twice ({prev} and {name}): the same record file supplied \
                 twice?",
                f.writer
            ));
        }
        records.extend(f.records);
    }
    Ok(Store {
        files: inputs.len(),
        records,
    })
}

/// Collects the record files (`*.runlog.tsv`) of a run directory as
/// `(name, contents)` pairs, sorted by name. `Err` if the directory is
/// unreadable or holds no record files.
pub fn dir_inputs(dir: &Path) -> Result<Vec<(String, String)>, String> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read run directory {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let path = entry.path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(FILE_SUFFIX))
        {
            paths.push(path);
        }
    }
    if paths.is_empty() {
        return Err(format!(
            "no run-record files (*{FILE_SUFFIX}) in {}",
            dir.display()
        ));
    }
    paths.sort();
    let mut inputs = Vec::with_capacity(paths.len());
    for path in paths {
        let contents = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        inputs.push((path.display().to_string(), contents));
    }
    Ok(inputs)
}

/// The filters of one `reproduce query` invocation. `None` means "any".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Query {
    /// Keep records of this scheme only.
    pub scheme: Option<SchemeKind>,
    /// Keep records of this workload only.
    pub workload: Option<String>,
    /// Keep records of this NM:FM ratio only.
    pub ratio: Option<NmRatio>,
    /// Keep records with a global record id ≥ this.
    pub since_record: Option<usize>,
}

impl Query {
    fn matches(&self, id: usize, r: &RunRecord) -> bool {
        self.since_record.is_none_or(|n| id >= n)
            && self.scheme.is_none_or(|k| r.kind == k)
            && self.workload.as_deref().is_none_or(|w| r.workload == w)
            && self.ratio.is_none_or(|rt| r.ratio == rt)
    }
}

/// Formats a throughput value (mem-ops/sec) for the query tables.
fn fops(v: f64) -> String {
    format!("{v:.0}")
}

/// Aggregate of one scheme's matched values: total count, the count of
/// finite positive samples actually aggregated, then geomean/min/max over
/// those samples. The two counts render side by side so a store whose
/// records carry no throughput reading (zero-rate rows) shows "counted
/// 10, aggregated 3" instead of passing a geomean of 3 values off as a
/// geomean of 10.
fn summarize(vals: &[f64]) -> [String; 5] {
    let clean: Vec<f64> = vals
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    let fmt = |v: Option<f64>, f: fn(f64) -> String| v.map(f).unwrap_or_else(|| "-".to_owned());
    [
        vals.len().to_string(),
        clean.len().to_string(),
        fmt(geomean(clean.iter().copied()), fops),
        fmt(clean.iter().copied().reduce(f64::min), fops),
        fmt(clean.iter().copied().reduce(f64::max), fops),
    ]
}

/// Runs a query over a store, returning the rendered-ready reports: a
/// per-scheme mem-ops/sec throughput summary and a per-scheme speedup
/// summary (each non-baseline record paired with the baseline records of
/// the same workload, ratio and [`config_digest`], drawn from the whole
/// store so scheme filters never starve the pairing). Output depends
/// only on the store contents — same records, any file order, same
/// bytes.
pub fn run_query(store: &Store, q: &Query) -> Vec<Report> {
    let matched: Vec<(usize, &RunRecord)> = store
        .records
        .iter()
        .enumerate()
        .filter(|(id, r)| q.matches(*id, r))
        .collect();

    // Throughput by scheme (BTreeMap: deterministic row order).
    let mut rates: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (_, r) in &matched {
        rates
            .entry(kind_token(r.kind))
            .or_default()
            .push(r.mem_ops_per_sec);
    }
    let mut thr = Report::new(
        "Run records — simulator throughput by scheme",
        vec![
            "scheme",
            "records",
            "samples",
            "geomean ops/s",
            "min ops/s",
            "max ops/s",
        ],
    );
    for (tok, vals) in &rates {
        let [count, samples, gm, min, max] = summarize(vals);
        thr.push_row(vec![tok.clone(), count, samples, gm, min, max]);
    }
    thr.push_note(format!(
        "records: {} of {} from {} file(s)",
        matched.len(),
        store.records.len(),
        store.files
    ));

    // Baseline cycles by (workload, ratio, config digest), store-wide.
    let mut base: BTreeMap<(String, &'static str, u64), Vec<f64>> = BTreeMap::new();
    for r in &store.records {
        if r.kind == SchemeKind::Baseline && r.cycles > 0 {
            base.entry((r.workload.clone(), ratio_token(r.ratio), r.config_digest))
                .or_default()
                .push(r.cycles as f64);
        }
    }
    let mut speedups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (_, r) in &matched {
        if r.kind == SchemeKind::Baseline || r.cycles == 0 {
            continue;
        }
        let key = (r.workload.clone(), ratio_token(r.ratio), r.config_digest);
        // Matching baselines of a deterministic run all recorded the
        // same cycle count; the geomean tolerates histories that mix
        // configurations the digest cannot tell apart.
        let Some(b) = base.get(&key).and_then(|bs| geomean(bs.iter().copied())) else {
            continue;
        };
        if b > 0.0 {
            speedups
                .entry(kind_token(r.kind))
                .or_default()
                .push(b / r.cycles as f64);
        }
    }
    let mut sp = Report::new(
        "Run records — speedup over recorded baseline",
        vec!["scheme", "paired", "geomean", "min", "max"],
    );
    for (tok, vals) in &speedups {
        let fmt = |v: Option<f64>| v.map(f3).unwrap_or_else(|| "-".to_owned());
        sp.push_row(vec![
            tok.clone(),
            vals.len().to_string(),
            fmt(geomean(vals.iter().copied())),
            fmt(vals.iter().copied().reduce(f64::min)),
            fmt(vals.iter().copied().reduce(f64::max)),
        ]);
    }
    sp.push_note(
        "pairs each record with baseline records of the same (workload, ratio, config digest)",
    );
    vec![thr, sp]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A scratch directory inside the workspace `target/` tree (tests
    /// must not touch paths outside the repository).
    fn temp_dir(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/test-tmp"
        ))
        .join(format!("runlog-{tag}-{}-{nanos}", std::process::id()))
    }

    /// A record with adversarial float bit patterns decimal formatting
    /// would destroy.
    fn nasty_record(slot: u64) -> RunRecord {
        let cfg = EvalConfig::smoke();
        RunRecord {
            source: "test:unit".to_owned(),
            workload: format!("w{slot}"),
            kind: if slot == 0 {
                SchemeKind::Baseline
            } else {
                SchemeKind::Hybrid2
            },
            scheme: "HYBRID2".to_owned(),
            ratio: NmRatio::OneGb,
            scale_den: cfg.scale_den,
            instrs_per_core: cfg.instrs_per_core,
            seed: cfg.seed,
            batch: 64,
            threads: 4,
            config_digest: config_digest(NmRatio::OneGb, &cfg),
            cycles: 1000 + slot,
            instructions: 77 * slot + 1,
            mem_ops: 13 * slot + 3,
            mpki: (slot as f64 + 0.1) / 3.0,
            nm_served: if slot.is_multiple_of(2) {
                -0.0
            } else {
                f64::MIN_POSITIVE
            },
            fm_traffic: slot << 20,
            nm_traffic: slot << 18,
            energy_mj: 1e-300 * (slot + 1) as f64,
            footprint: 4096 * slot,
            stats: SchemeStats {
                requests: slot,
                reads: slot / 2,
                writes: slot - slot / 2,
                served_from_nm: slot / 3,
                lookup_hits: 2 * slot,
                lookup_misses: slot + 5,
                moved_into_nm: slot % 7,
                moved_out_of_nm: slot % 5,
                dirty_writebacks: slot % 3,
                metadata_reads: 9 * slot,
                metadata_writes: 8 * slot,
                fetched_bytes: slot << 10,
                used_bytes: slot << 9,
            },
            wall_secs: 1e-9 * (slot + 1) as f64,
            mem_ops_per_sec: ops_per_sec(13 * slot + 3, 1e-9 * (slot + 1) as f64),
        }
    }

    fn bits_equal(a: &RunRecord, b: &RunRecord) {
        assert_eq!(a.source, b.source);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.ratio, b.ratio);
        assert_eq!(
            (a.scale_den, a.instrs_per_core, a.seed, a.batch, a.threads),
            (b.scale_den, b.instrs_per_core, b.seed, b.batch, b.threads)
        );
        assert_eq!(a.config_digest, b.config_digest);
        assert_eq!(
            (a.cycles, a.instructions, a.mem_ops),
            (b.cycles, b.instructions, b.mem_ops)
        );
        assert_eq!(a.mpki.to_bits(), b.mpki.to_bits());
        assert_eq!(a.nm_served.to_bits(), b.nm_served.to_bits());
        assert_eq!(
            (a.fm_traffic, a.nm_traffic, a.footprint),
            (b.fm_traffic, b.nm_traffic, b.footprint)
        );
        assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits());
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.wall_secs.to_bits(), b.wall_secs.to_bits());
        assert_eq!(a.mem_ops_per_sec.to_bits(), b.mem_ops_per_sec.to_bits());
    }

    #[test]
    fn ratio_tokens_round_trip() {
        for r in NmRatio::ALL {
            assert_eq!(parse_ratio_token(ratio_token(r)).unwrap(), r);
        }
        assert!(parse_ratio_token("8gb").is_err());
    }

    #[test]
    fn kind_tokens_round_trip() {
        use hybrid2_core::Variant;
        let mut kinds = vec![
            SchemeKind::Baseline,
            SchemeKind::DfcLine(1024),
            SchemeKind::IdealLine(256),
            SchemeKind::Hybrid2Config {
                cache_bytes_paper: 64 << 20,
                sector: 2048,
                line: 256,
            },
        ];
        kinds.extend(SchemeKind::MAIN);
        kinds.extend(Variant::ALL.map(SchemeKind::Hybrid2Variant));
        for kind in kinds {
            let tok = kind_token(kind);
            assert_eq!(parse_kind_token(&tok).unwrap(), kind, "token {tok}");
        }
        assert!(parse_kind_token("quantum-cache").is_err());
        assert!(parse_kind_token("hybrid2-variant=bogus").is_err());
        assert!(parse_kind_token("hybrid2-config=1:2").is_err());
    }

    /// A record file holding `records`, as [`RunLog`] writes it.
    fn file_text(writer: &str, records: &[RunRecord]) -> String {
        let mut text = file_header(writer);
        for (seq, rec) in records.iter().enumerate() {
            text.push_str(&encode_record(rec, seq as u64));
        }
        text
    }

    /// Files written before the shard slices were retired carry `grid`
    /// and `shard` headers after the writer. They are not record files
    /// any more: reading one is an `Err` naming the file.
    #[test]
    fn old_slice_files_are_errors_naming_the_file() {
        let records: Vec<RunRecord> = (0..3).map(nasty_record).collect();
        let text = file_text("shard-1-of-2.1.2", &records).replacen(
            "\nrecord\t",
            "\ngrid\tscenario:all\nshard\t1/2\nrecord\t",
            1,
        );
        let e = read_store(&[("s1.tsv".to_owned(), text)]).unwrap_err();
        assert!(e.contains("s1.tsv") && e.contains("grid"), "{e}");
    }

    /// Tokens a corrupted or hand-edited record file might carry in any
    /// field.
    const NASTY: [&str; 13] = [
        "",
        "0",
        "-1",
        "18446744073709551616",
        "ffffffffffffffff",
        "7ff8000000000000",
        "nan",
        "eval:full",
        "hybrid2-config=0:0:0",
        "hybrid2-variant=bogus",
        "record",
        "writer",
        "grid",
    ];

    /// Applies one edit to `text`: `op` picks the kind, `a` and `b` the
    /// position and the replacement.
    fn mutate(text: &str, op: u8, a: u64, b: u64) -> String {
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let line = (a as usize) % lines.len().max(1);
        match op {
            0 => text[..(a as usize) % (text.len() + 1)].to_owned(),
            1 if !lines.is_empty() => {
                lines.remove(line);
                lines.join("\n") + "\n"
            }
            2 if !lines.is_empty() => {
                lines.insert(line, lines[line].clone());
                lines.join("\n") + "\n"
            }
            3 if !lines.is_empty() => {
                let mut cols: Vec<&str> = lines[line].split('\t').collect();
                let col = (b as usize >> 8) % cols.len();
                cols[col] = NASTY[b as usize % NASTY.len()];
                lines[line] = cols.join("\t");
                lines.join("\n") + "\n"
            }
            4 if !lines.is_empty() => {
                let other = (b as usize) % lines.len();
                lines.swap(line, other);
                lines.join("\n") + "\n"
            }
            _ => {
                let mut bytes = text.as_bytes().to_vec();
                if !bytes.is_empty() {
                    let i = (a as usize) % bytes.len();
                    let pool = b"\t\n\r:/0-9af x";
                    bytes[i] = pool[b as usize % pool.len()];
                }
                String::from_utf8(bytes).expect("ASCII in, ASCII out")
            }
        }
    }

    proptest! {
        /// Mutated record files never panic `read_store`: every outcome
        /// is `Ok` or an `Err` naming the mutated file.
        #[test]
        fn mutated_files_never_panic_read_store(
            victim in 0usize..3,
            edits in proptest::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..4),
        ) {
            // Three files of seven records: most lines are records.
            let mut files: Vec<(String, String)> = (0..3u64)
                .map(|f| {
                    let records: Vec<RunRecord> = (0..7).map(|i| nasty_record(7 * f + i)).collect();
                    (format!("s{f}.tsv"), file_text(&format!("w{f}"), &records))
                })
                .collect();
            for (op, a, b) in edits {
                files[victim].1 = mutate(&files[victim].1, op, a, b);
            }
            let name = files[victim].0.clone();
            if let Err(e) = read_store(&files) {
                prop_assert!(e.contains(&name), "read_store error must name {name}: {e}");
            }
        }
    }

    #[test]
    fn ops_per_sec_is_always_finite() {
        assert_eq!(ops_per_sec(0, 0.0), 0.0);
        assert_eq!(ops_per_sec(0, f64::NAN), 0.0);
        for secs in [0.0, -1.0, 1e-300, f64::NAN, 1.5] {
            let v = ops_per_sec(1_000, secs);
            assert!(v.is_finite() && v >= 0.0, "secs={secs} -> {v}");
        }
        assert_eq!(ops_per_sec(300, 2.0), 150.0);
    }

    #[test]
    fn config_digest_ignores_scheduling_knobs() {
        let a = EvalConfig::smoke();
        let mut b = a;
        b.threads = 1;
        b.batch = 1;
        assert_eq!(
            config_digest(NmRatio::OneGb, &a),
            config_digest(NmRatio::OneGb, &b)
        );
        let mut c = a;
        c.seed = a.seed + 1;
        assert_ne!(
            config_digest(NmRatio::OneGb, &a),
            config_digest(NmRatio::OneGb, &c)
        );
        assert_ne!(
            config_digest(NmRatio::OneGb, &a),
            config_digest(NmRatio::TwoGb, &a)
        );
    }

    #[test]
    fn write_read_round_trips_float_bits() {
        let dir = temp_dir("roundtrip");
        let want: Vec<RunRecord> = (0..5).map(nasty_record).collect();
        let mut log = RunLog::create(&dir, "unit").unwrap();
        for r in &want {
            log.append(r).unwrap();
        }
        let store = read_store(&dir_inputs(&dir).unwrap()).unwrap();
        assert_eq!(store.files, 1);
        assert_eq!(store.records.len(), want.len());
        for (got, want) in store.records.iter().zip(&want) {
            bits_equal(got, want);
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_rejects_same_file_twice_and_names_both() {
        let dir = temp_dir("dup");
        let mut log = RunLog::create(&dir, "unit").unwrap();
        log.append(&nasty_record(1)).unwrap();
        let contents = std::fs::read_to_string(log.path()).unwrap();
        let e = read_store(&[
            ("a.runlog.tsv".to_owned(), contents.clone()),
            ("b-copy.runlog.tsv".to_owned(), contents),
        ])
        .unwrap_err();
        assert!(
            e.contains("a.runlog.tsv") && e.contains("b-copy.runlog.tsv"),
            "{e}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_rejects_truncation_and_splice() {
        let dir = temp_dir("trunc");
        let mut log = RunLog::create(&dir, "unit").unwrap();
        for s in 0..3 {
            log.append(&nasty_record(s)).unwrap();
        }
        let good = std::fs::read_to_string(log.path()).unwrap();

        // Mid-value truncation of the final line: the cut row still has
        // the right column count and still parses as a number, so only
        // the missing trailing newline betrays it.
        let cut = &good[..good.len() - 2];
        let e = read_store(&[("t.runlog.tsv".to_owned(), cut.to_owned())]).unwrap_err();
        assert!(e.contains("truncated") && e.contains("t.runlog.tsv"), "{e}");

        // A deleted middle row breaks the sequence.
        let lines: Vec<&str> = good.lines().collect();
        let spliced = format!(
            "{}\n",
            lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 3)
                .map(|(_, l)| *l)
                .collect::<Vec<_>>()
                .join("\n")
        );
        let e = read_store(&[("s.runlog.tsv".to_owned(), spliced)]).unwrap_err();
        assert!(e.contains("sequence"), "{e}");

        // A wrong column count is named, not panicked on.
        let short_row = format!("{}record\t3\tonly\tfour\tcols\n", good);
        let e = read_store(&[("c.runlog.tsv".to_owned(), short_row)]).unwrap_err();
        assert!(e.contains("columns"), "{e}");

        // Wrong version and a missing writer header are clear errors.
        let e = read_store(&[("v.runlog.tsv".to_owned(), "hybrid2-runlog-v0\n".to_owned())])
            .unwrap_err();
        assert!(e.contains("unsupported"), "{e}");
        let e = read_store(&[("w.runlog.tsv".to_owned(), format!("{VERSION}\n"))]).unwrap_err();
        assert!(e.contains("writer"), "{e}");

        // A v4 file: its rows carry the six service and queue columns
        // after the v5 ones. The version line rejects it before any row
        // is parsed.
        let row = encode_record(&nasty_record(1), 0);
        let v4_row = format!(
            "{}\tunbounded\t0\t{}\t0\t{}\t0\n",
            row.trim_end(),
            f64_bits(0.0),
            f64_bits(0.0)
        );
        assert_eq!(v4_row.trim_end().split('\t').count(), 43);
        let v4 = format!("hybrid2-runlog-v4\nwriter\tw\n{v4_row}");
        let e = read_store(&[("v4.runlog.tsv".to_owned(), v4)]).unwrap_err();
        assert!(
            e.contains("v4.runlog.tsv") && e.contains("unsupported"),
            "{e}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_accepts_crlf_with_identical_bits() {
        let dir = temp_dir("crlf");
        let want: Vec<RunRecord> = (0..3).map(nasty_record).collect();
        let mut log = RunLog::create(&dir, "unit").unwrap();
        for r in &want {
            log.append(r).unwrap();
        }
        let crlf = std::fs::read_to_string(log.path())
            .unwrap()
            .replace('\n', "\r\n");
        let store = read_store(&[("crlf.runlog.tsv".to_owned(), crlf)]).unwrap();
        for (got, want) in store.records.iter().zip(&want) {
            bits_equal(got, want);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn query_filters_and_aggregates_deterministically() {
        let recs: Vec<RunRecord> = (0..6).map(nasty_record).collect();
        let store = Store {
            files: 1,
            records: recs,
        };
        let all = run_query(&store, &Query::default());
        assert_eq!(all.len(), 2);
        let text = all[0].render();
        assert!(text.contains("records: 6 of 6"), "{text}");

        let filtered = run_query(
            &store,
            &Query {
                scheme: Some(SchemeKind::Hybrid2),
                since_record: Some(2),
                ..Query::default()
            },
        );
        assert!(filtered[0].render().contains("records: 4 of 6"));

        // Zero matches still renders (the zero-row tables plus counts).
        let none = run_query(
            &store,
            &Query {
                workload: Some("no-such-workload".to_owned()),
                ..Query::default()
            },
        );
        assert!(none[0].render().contains("records: 0 of 6"));
    }

    #[test]
    fn query_speedup_pairs_with_baseline_and_guards_zero_cycles() {
        let mut base = nasty_record(0);
        base.workload = "w".to_owned();
        base.cycles = 2000;
        let mut fast = nasty_record(1);
        fast.workload = "w".to_owned();
        fast.cycles = 1000;
        // A corrupt zero-cycle record must be skipped, never divide.
        let mut zero = nasty_record(1);
        zero.workload = "w".to_owned();
        zero.cycles = 0;
        let store = Store {
            files: 1,
            records: vec![base, fast, zero],
        };
        let sp = &run_query(&store, &Query::default())[1];
        let text = sp.render();
        assert!(text.contains("hybrid2"), "{text}");
        assert!(text.contains("2.000"), "{text}");
        assert!(!text.to_lowercase().contains("nan"), "{text}");
        assert!(!text.contains("inf"), "{text}");
    }

    #[test]
    fn dense_run_directory_claims_without_spinning() {
        // 200 pre-existing files: the scan must land on run-00201 in one
        // create_new attempt, not probe 200 occupied slots.
        let dir = temp_dir("dense");
        std::fs::create_dir_all(&dir).unwrap();
        for n in 1..=200u32 {
            std::fs::write(dir.join(format!("run-{n:05}{FILE_SUFFIX}")), "x").unwrap();
        }
        // Unrelated files must not confuse the scan.
        std::fs::write(dir.join("notes.txt"), "y").unwrap();
        let log = RunLog::create(&dir, "unit").unwrap();
        assert!(
            log.path().ends_with(format!("run-00201{FILE_SUFFIX}")),
            "claimed {}",
            log.path().display()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_file_number_space_errors_naming_the_directory() {
        // A file at the number cap leaves no claimable slot: create must
        // give up after its fixed retry budget with an error naming the
        // directory — bounded work, not 99 999 failed creates.
        let dir = temp_dir("cap");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(format!("run-{MAX_FILE_NUMBER:05}{FILE_SUFFIX}")),
            "x",
        )
        .unwrap();
        let started = std::time::Instant::now();
        let e = RunLog::create(&dir, "unit").unwrap_err();
        assert!(started.elapsed().as_secs() < 5, "claim loop must not spin");
        assert!(e.contains(&dir.display().to_string()), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn unwritable_run_directory_is_an_err_naming_the_path() {
        use std::os::unix::fs::PermissionsExt;
        let dir = temp_dir("readonly");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o555)).unwrap();
        match RunLog::create(&dir, "unit") {
            Err(e) => assert!(e.contains("run-00001") || e.contains("readonly"), "{e}"),
            // Root ignores permission bits; the CI runner does not.
            Ok(_) => eprintln!("skipping: permissions not enforced (running as root?)"),
        }
        let _ = std::fs::set_permissions(&dir, std::fs::Permissions::from_mode(0o755));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
