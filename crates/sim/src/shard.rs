//! Process-level sharding of the evaluation grids.
//!
//! A grid — the scenario grid or the `evalsuite` scheme × workload
//! matrix — is partitioned deterministically into `--shard K/N` slices
//! (`matrix::shard_jobs` deals the LPT-sorted job list round-robin, so
//! every slice gets its share of heavy and light cells). Each slice runs
//! through the work-stealing scheduler in its own process and is written
//! as a run-record file ([`crate::runlog`]) with `grid` and `shard`
//! headers. [`merge`] reads the slices back through the same decoder and
//! reassembles the exact [`Matrix`] a monolithic run computes, so the
//! rendered reports are **byte-identical** — floats are carried as
//! IEEE-754 bit patterns, never re-parsed decimal text.
//!
//! The byte-identity contract, concretely:
//!
//! ```text
//! reproduce scenario all --shard 1/2 --out s1.tsv
//! reproduce scenario all --shard 2/2 --out s2.tsv
//! reproduce merge s1.tsv s2.tsv > merged.txt
//! reproduce scenario all           > mono.txt
//! cmp merged.txt mono.txt          # always identical
//! ```
//!
//! CI enforces exactly this with a sharded job matrix feeding a blocking
//! `merge-verify` job (see `.github/workflows/ci.yml`). Worker thread
//! count never has to agree across slices — the scheduler's determinism
//! contract makes it irrelevant to the output.

use std::fmt;

use dram::ServiceModel;
use workloads::{Catalog, Scenario, WorkloadSpec};

use crate::machine::RunResult;
use crate::matrix::{self, Job};
use crate::report::Report;
use crate::runlog::{self, RunRecord};
use crate::runner::{build_scheme, EvalConfig, SchemeKind};
use crate::scale::{NmRatio, ScaledSystem};
use crate::{experiments, scenario, Matrix};

/// One slice of an `N`-way grid split, as written on the CLI: `K/N` with
/// `K` in `1..=N`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based slice index (`K` in `K/N`).
    pub index: usize,
    /// Total number of slices (`N` in `K/N`).
    pub count: usize,
}

impl ShardSpec {
    /// Parses the CLI form `K/N` (e.g. `"2/4"`), requiring `1 <= K <= N`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (k, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard {s:?} is not of the form K/N (e.g. 2/4)"))?;
        let index: usize = k
            .parse()
            .map_err(|_| format!("shard index {k:?} is not an integer"))?;
        let count: usize = n
            .parse()
            .map_err(|_| format!("shard count {n:?} is not an integer"))?;
        if count == 0 {
            return Err("shard count must be at least 1".to_owned());
        }
        if index == 0 || index > count {
            return Err(format!(
                "shard index {index} out of range 1..={count} (indices are 1-based)"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// 0-based slice index.
    fn index0(self) -> usize {
        self.index - 1
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Which evaluation grid a shard file slices. The grid id plus the sizing
/// knobs its records carry fully determine the job space, so [`merge`] can
/// re-enumerate it and verify each slice claims exactly its cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GridId {
    /// The scenario grid (`reproduce scenario <selector>`): the MAIN six
    /// schemes plus the baseline over the selected scenarios.
    Scenario {
        /// Scenario selector as passed to [`scenario::select`]: `"all"` or
        /// one catalog name.
        selector: String,
    },
    /// The `evalsuite` scheme × workload matrix (`reproduce --exp
    /// evalsuite`): the MAIN six schemes plus the baseline over the
    /// 30-workload catalog (or the 3-workload smoke set).
    Eval {
        /// `true` for the smoke workload set.
        smoke: bool,
    },
    /// A scenario grid over a `.scn` spec file (`reproduce scenario --spec
    /// FILE`). Merge re-reads the file, so the path must resolve wherever
    /// the shard is decoded.
    SpecFile {
        /// Path of the `.scn` file (no tabs or newlines; colons allowed).
        path: String,
        /// Scenario selector within the compiled catalog.
        selector: String,
    },
    /// A scenario grid over a generated catalog (`reproduce scenario
    /// --generate N --seed S`). Generation is a pure function of
    /// `(count, seed)`, so any decoder re-derives the identical grid.
    Generated {
        /// Number of scenarios generated.
        count: usize,
        /// Generator seed.
        seed: u64,
        /// Scenario selector within the generated catalog.
        selector: String,
    },
}

/// The most scenarios a generated catalog may hold, whether asked for by
/// `reproduce scenario --generate N` or by the `grid` header of a slice
/// file, which `merge` must not trust to size the work it does.
pub const MAX_GENERATED_SCENARIOS: usize = 1024;

/// The one textual form of a grid id: the `grid` header of a shard slice
/// and the `source` of every run record. `scenario:<sel>`, `eval:smoke`,
/// `eval:full`, `specfile:<path>:<sel>` or
/// `generated:<count>:<seed>:<sel>`.
pub fn grid_token(grid: &GridId) -> String {
    match grid {
        GridId::Scenario { selector } => format!("scenario:{selector}"),
        GridId::Eval { smoke: true } => "eval:smoke".to_owned(),
        GridId::Eval { smoke: false } => "eval:full".to_owned(),
        GridId::SpecFile { path, selector } => format!("specfile:{path}:{selector}"),
        GridId::Generated {
            count,
            seed,
            selector,
        } => format!("generated:{count}:{seed}:{selector}"),
    }
}

/// True for a selector safe to embed in a grid token (non-empty, no
/// whitespace or separators).
fn clean_selector(sel: &str) -> bool {
    !sel.is_empty() && !sel.contains(['\t', '\n', '\r', ' '])
}

/// Parses a [`grid_token`] back to the grid id. (Whether a scenario
/// selector actually exists is checked when the grid is resolved.)
pub fn parse_grid_token(s: &str) -> Result<GridId, String> {
    let err = || {
        format!(
            "unknown grid {s:?}; use scenario:<name|all>, eval:smoke, eval:full, \
             generated:<count>:<seed>:<name|all> or specfile:<path>:<name|all>"
        )
    };
    match s.split_once(':') {
        Some(("scenario", sel)) if clean_selector(sel) => Ok(GridId::Scenario {
            selector: sel.to_owned(),
        }),
        Some(("eval", "smoke")) => Ok(GridId::Eval { smoke: true }),
        Some(("eval", "full")) => Ok(GridId::Eval { smoke: false }),
        Some(("generated", rest)) => {
            let mut it = rest.split(':');
            let (Some(count), Some(seed), Some(sel), None) =
                (it.next(), it.next(), it.next(), it.next())
            else {
                return Err(err());
            };
            if !clean_selector(sel) {
                return Err(err());
            }
            let count: usize = count.parse().map_err(|_| err())?;
            if count > MAX_GENERATED_SCENARIOS {
                return Err(format!(
                    "grid {s:?} generates {count} scenarios; at most \
                     {MAX_GENERATED_SCENARIOS} are allowed"
                ));
            }
            Ok(GridId::Generated {
                count,
                seed: seed.parse().map_err(|_| err())?,
                selector: sel.to_owned(),
            })
        }
        Some(("specfile", rest)) => {
            // The selector follows the last colon; the path keeps any
            // colons of its own.
            let (path, sel) = rest.rsplit_once(':').ok_or_else(err)?;
            if path.is_empty() || path.contains(['\t', '\n', '\r']) || !clean_selector(sel) {
                return Err(err());
            }
            Ok(GridId::SpecFile {
                path: path.to_owned(),
                selector: sel.to_owned(),
            })
        }
        _ => Err(err()),
    }
}

/// Stable address of one grid cell: its slot in the [`Matrix`] result
/// layout plus the (scheme, workload) pair that determines it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellKey {
    /// Position in the flat result layout (baseline rows first, then each
    /// scheme row in grid order).
    pub slot: usize,
    /// The scheme simulated in this cell.
    pub kind: SchemeKind,
    /// The workload name (unique within a grid).
    pub workload: String,
}

impl CellKey {
    fn of(job: &Job, specs: &[WorkloadSpec]) -> CellKey {
        CellKey {
            slot: job.slot,
            kind: job.kind,
            workload: specs[job.w].name.clone(),
        }
    }
}

/// The cell addresses of shard `shard` over a `kinds` × `specs` grid, in
/// slot order — the pure enumeration behind [`run_shard`], exposed
/// so tests can check the partition is disjoint, covering and
/// order-stable without running any simulation.
pub fn shard_cell_keys(
    kinds: &[SchemeKind],
    specs: &[WorkloadSpec],
    shard: ShardSpec,
) -> Vec<CellKey> {
    matrix::shard_jobs(kinds, specs, shard.index0(), shard.count)
        .iter()
        .map(|j| CellKey::of(j, specs))
        .collect()
}

/// Short stable token for an NM:FM ratio (`1gb`/`2gb`/`4gb`), used in
/// shard headers and accepted by the CLI's `--ratio` flag.
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

/// Stable token for a scheme kind, used in cell/record rows and accepted
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

/// The schemes of every shardable grid: the baseline row plus MAIN, in
/// slot-row order. (Parameterized sweeps like Figure 11 stay in-process.)
fn grid_kinds() -> Vec<SchemeKind> {
    SchemeKind::MAIN.to_vec()
}

/// Selects scenarios from `cat` and clones out their workloads, failing
/// with a nearest-match suggestion on an unknown name.
fn select_workloads(cat: &Catalog, selector: &str) -> Result<Vec<WorkloadSpec>, String> {
    let scens: Vec<&Scenario> =
        scenario::select(cat, selector).ok_or_else(|| match cat.nearest(selector) {
            Some(near) => {
                format!("unknown scenario selector {selector:?} (did you mean {near:?}?)")
            }
            None => format!("unknown scenario selector {selector:?}"),
        })?;
    Ok(scenario::workloads_of(&scens))
}

/// Resolves a grid id to its owned (scheme rows, workloads) job space.
/// [`GridId::Generated`] grids are re-derived (generation is a pure
/// function of count and seed); [`GridId::SpecFile`] grids re-read the
/// spec file, so the path must resolve wherever the shard is decoded.
fn resolve(grid: &GridId) -> Result<(Vec<SchemeKind>, Vec<WorkloadSpec>), String> {
    match grid {
        GridId::Scenario { selector } => Ok((
            grid_kinds(),
            select_workloads(workloads::scenarios::builtin(), selector)?,
        )),
        GridId::Eval { smoke } => Ok((grid_kinds(), experiments::workload_set(*smoke))),
        GridId::SpecFile { path, selector } => {
            let cat =
                Catalog::from_scn_file(std::path::Path::new(path)).map_err(|e| e.to_string())?;
            Ok((grid_kinds(), select_workloads(&cat, selector)?))
        }
        GridId::Generated {
            count,
            seed,
            selector,
        } => Ok((
            grid_kinds(),
            select_workloads(&Catalog::generate(*count, *seed), selector)?,
        )),
    }
}

/// Runs shard `shard` of `grid` on the work-stealing scheduler and
/// returns one run record per cell, in slot order, with `source` set to
/// the [`grid_token`]. [`runlog::encode_slice`] writes them as the slice
/// file [`merge`] reads.
pub fn run_shard(
    grid: &GridId,
    ratio: NmRatio,
    cfg: &EvalConfig,
    shard: ShardSpec,
) -> Result<Vec<RunRecord>, String> {
    let source = grid_token(grid);
    if parse_grid_token(&source).as_ref() != Ok(grid) {
        return Err(format!(
            "grid {source:?} cannot be named in a slice header (a selector may not contain \
             ':' or whitespace)"
        ));
    }
    let (kinds, specs) = resolve(grid)?;
    Ok(
        Matrix::run_shard(&kinds, &specs, ratio, cfg, shard.index0(), shard.count)
            .into_iter()
            .map(|(job, r, secs)| RunRecord::new(&source, job.kind, ratio, cfg, &r, secs))
            .collect(),
    )
}

/// Renders the reports a monolithic run of `grid` would print — the merge
/// path and the monolithic path share this function, so byte-identity of
/// the rendered output reduces to equality of the [`Matrix`].
pub fn reports(grid: &GridId, m: &Matrix) -> Vec<Report> {
    match grid {
        GridId::Scenario { .. } | GridId::SpecFile { .. } | GridId::Generated { .. } => {
            scenario::grid_reports(m)
        }
        GridId::Eval { .. } => experiments::evalsuite_reports(m),
    }
}

pub(crate) fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{what} {s:?} is not an unsigned integer"))
}

/// The reassembled result of [`merge`].
#[derive(Debug)]
pub struct Merged {
    /// The grid the shards sliced.
    pub grid: GridId,
    /// The NM:FM ratio of the run.
    pub ratio: NmRatio,
    /// Sizing knobs recovered from the slice records (threads is the
    /// caller's business — it never affects results).
    pub scale_den: u64,
    /// Instructions per core per run.
    pub instrs_per_core: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// The memory-service model every shard ran under.
    pub service: ServiceModel,
    /// The full grid, exactly as a monolithic run computes it.
    pub matrix: Matrix,
}

/// How many absent slice indices a missing-slice error lists before
/// summarizing the rest as a `+N more` tail.
const MISSING_LIST_CAP: usize = 16;

/// Names exactly which slice indices of a `count`-way split are absent
/// from the supplied files, so an incomplete merge says what to re-run
/// instead of making callers diff slice files by hand. The listing is
/// capped at [`MISSING_LIST_CAP`] entries — the index walk stays bounded
/// even when a corrupt header claims an astronomically wide split.
fn missing_slices_message(have: &std::collections::BTreeMap<usize, &str>, count: usize) -> String {
    let total_missing = count - have.len();
    let mut listed: Vec<String> = Vec::new();
    // Walk indices upward skipping present ones: the first
    // MISSING_LIST_CAP absent indices all sit within the first
    // `cap + have.len()` integers, so the walk is bounded by the *input*
    // size, not the header's count.
    let mut k = 1usize;
    while listed.len() < MISSING_LIST_CAP.min(total_missing) && k <= count {
        if !have.contains_key(&k) {
            listed.push(format!("{k}/{count}"));
        }
        k += 1;
    }
    let more = total_missing - listed.len();
    let tail = if more > 0 {
        format!(" (+{more} more)")
    } else {
        String::new()
    };
    format!(
        "{total_missing} of {count} slice(s) missing: {}{tail}",
        listed.join(", ")
    )
}

/// Merges shard slice files (as `(name, contents)` pairs, names only for
/// error messages) back into the full [`Matrix`].
///
/// Validation is strict: every file must be a slice (`grid` and `shard`
/// headers), all slices must name the same grid and shard count, all `N`
/// slice indices must be present exactly once, and every file must hold
/// exactly the cells the deterministic partition assigns it, in order,
/// with scheme/workload names matching the grid's own. Every record's
/// ratio, scale, instrs, seed and service must agree with the first
/// file's. Any violation is an `Err` naming the offending file — never a
/// panic.
pub fn merge(inputs: &[(String, String)]) -> Result<Merged, String> {
    if inputs.is_empty() {
        return Err("merge needs at least one shard file".to_owned());
    }
    let mut slices = Vec::with_capacity(inputs.len());
    for (name, f) in runlog::decode_files(inputs)? {
        let (grid, shard) = f
            .slice
            .ok_or_else(|| format!("{name}: not a shard slice (no grid/shard headers)"))?;
        slices.push((name, grid, shard, f.records));
    }
    let (first_name, grid, count) = {
        let (name, grid, shard, _) = &slices[0];
        (*name, grid.clone(), shard.count)
    };
    for (name, g, shard, _) in &slices[1..] {
        if *g != grid {
            return Err(format!(
                "{name}: grid {:?} disagrees with {first_name}'s {:?}",
                grid_token(g),
                grid_token(&grid)
            ));
        }
        if shard.count != count {
            return Err(format!(
                "{name}: shard count {} disagrees with {first_name}'s {count}",
                shard.count
            ));
        }
    }
    // Presence is tracked by (1-based) slice index in a map, never in an
    // allocation sized by the untrusted header count — a corrupt
    // `K/<huge N>` header must produce an Err, not an OOM.
    let mut have: std::collections::BTreeMap<usize, &str> = std::collections::BTreeMap::new();
    for (name, _, shard, _) in &slices {
        if let Some(prev) = have.insert(shard.index, name) {
            return Err(format!("shard {shard} appears twice ({prev} and {name})"));
        }
    }
    if have.len() < count {
        return Err(missing_slices_message(&have, count));
    }

    let (kinds, specs) = resolve(&grid).map_err(|e| format!("{first_name}: {e}"))?;
    // The result-affecting knobs every record must share with the first.
    let knobs = |r: &RunRecord| {
        (
            r.ratio,
            r.scale_den,
            r.instrs_per_core,
            r.seed,
            r.service_model,
        )
    };
    let (ref_name, want) = slices
        .iter()
        .find_map(|(name, _, _, records)| records.first().map(|r| (*name, knobs(r))))
        .ok_or_else(|| format!("{first_name}: no slice holds a record"))?;
    let (ratio, scale_den, instrs_per_core, seed, service) = want;
    if scale_den == 0 || scale_den > 1 << 30 {
        return Err(format!("{ref_name}: scale {scale_den} out of range"));
    }
    // Scheme names are scale-independent, so extract them at a known-good
    // reference scale: the untrusted `scale` column (metadata from here
    // on) must never reach `ScaledSystem::new`'s validity asserts.
    let sys = ScaledSystem::new(ratio, 1024);
    let scheme_names: Vec<&'static str> = std::iter::once(SchemeKind::Baseline)
        .chain(kinds.iter().copied())
        .map(|k| build_scheme(k, &sys).name())
        .collect();

    let total = (kinds.len() + 1) * specs.len();
    let mut flat: Vec<Option<RunResult>> = (0..total).map(|_| None).collect();
    for (name, _, shard, records) in slices {
        let keys = shard_cell_keys(&kinds, &specs, shard);
        if records.len() != keys.len() {
            return Err(format!(
                "{name}: shard {shard} holds {} records but the partition assigns it {} cells",
                records.len(),
                keys.len()
            ));
        }
        for (seq, (rec, key)) in records.into_iter().zip(keys).enumerate() {
            if knobs(&rec) != want {
                return Err(format!(
                    "{name}: record {seq} disagrees with {ref_name} (ratio/scale/instrs/seed/\
                     service must match across shards)"
                ));
            }
            if rec.kind != key.kind || rec.workload != key.workload {
                return Err(format!(
                    "{name}: record {seq} ({}, {}) does not match the partition's (slot {}, {}, \
                     {})",
                    kind_token(rec.kind),
                    rec.workload,
                    key.slot,
                    kind_token(key.kind),
                    key.workload
                ));
            }
            let expected_name = scheme_names[key.slot / specs.len()];
            if rec.scheme != expected_name {
                return Err(format!(
                    "{name}: slot {} records scheme name {:?}, grid says {expected_name:?}",
                    key.slot, rec.scheme
                ));
            }
            flat[key.slot] = Some(RunResult {
                scheme: expected_name,
                workload: key.workload,
                cycles: rec.cycles,
                instructions: rec.instructions,
                mem_ops: rec.mem_ops,
                mpki: rec.mpki,
                nm_served: rec.nm_served,
                fm_traffic: rec.fm_traffic,
                nm_traffic: rec.nm_traffic,
                energy_mj: rec.energy_mj,
                footprint: rec.footprint,
                nm_queue_mean: rec.nm_queue_mean,
                nm_queue_max: rec.nm_queue_max,
                fm_queue_mean: rec.fm_queue_mean,
                fm_queue_max: rec.fm_queue_max,
                stats: rec.stats,
            });
        }
    }
    let flat: Vec<RunResult> = flat
        .into_iter()
        .enumerate()
        .map(|(slot, cell)| cell.ok_or_else(|| format!("no shard supplied slot {slot}")))
        .collect::<Result<_, _>>()?;
    Ok(Merged {
        grid,
        ratio,
        scale_den,
        instrs_per_core,
        seed,
        service,
        matrix: Matrix::assemble(&kinds, &specs, ratio, flat),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use workloads::catalog;

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(
            ShardSpec::parse("2/4").unwrap(),
            ShardSpec { index: 2, count: 4 }
        );
        assert_eq!(ShardSpec::parse("1/1").unwrap().to_string(), "1/1");
        for bad in ["", "3", "0/4", "5/4", "1/0", "a/b", "1/2/3", "-1/2"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad:?} should be rejected");
        }
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

    #[test]
    fn grid_tokens_round_trip() {
        for grid in [
            GridId::Scenario {
                selector: "all".to_owned(),
            },
            GridId::Scenario {
                selector: "stream-chase".to_owned(),
            },
            GridId::Eval { smoke: true },
            GridId::Eval { smoke: false },
            GridId::Generated {
                count: 3,
                seed: 2020,
                selector: "all".to_owned(),
            },
            GridId::SpecFile {
                path: "scenarios/diurnal-tide.scn".to_owned(),
                selector: "diurnal-tide".to_owned(),
            },
            // The path keeps its own colons; the selector follows the last.
            GridId::SpecFile {
                path: "C:\\specs\\a:b c.scn".to_owned(),
                selector: "all".to_owned(),
            },
        ] {
            assert_eq!(parse_grid_token(&grid_token(&grid)).unwrap(), grid);
        }
        for bad in [
            "",
            "eval",
            "eval:tiny",
            "scenario:",
            "scenario:a b",
            "grid:x",
            "generated:3:x:all",
            "generated:3:1",
            "generated:1025:1:all",
            "generated:18446744073709551615:1:all",
            "specfile::all",
            "specfile:a.scn",
        ] {
            assert!(parse_grid_token(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn cell_keys_are_disjoint_covering_and_slot_ordered() {
        let specs: Vec<WorkloadSpec> = catalog::smoke_set().map(Clone::clone).to_vec();
        let kinds = grid_kinds();
        let total = (kinds.len() + 1) * specs.len();
        for count in [1, 2, 3, 7, total + 5] {
            let mut seen = vec![false; total];
            for index in 1..=count {
                let keys = shard_cell_keys(&kinds, &specs, ShardSpec { index, count });
                assert!(keys.windows(2).all(|p| p[0].slot < p[1].slot));
                for k in keys {
                    assert!(!seen[k.slot]);
                    seen[k.slot] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "count={count} not covering");
        }
    }

    #[test]
    fn run_shard_runs_exactly_its_partition_slice() {
        let grid = synthetic_grid();
        let cfg = EvalConfig {
            instrs_per_core: 10_000,
            threads: 4,
            ..synthetic_cfg()
        };
        let shard = ShardSpec { index: 1, count: 3 };
        let records = run_shard(&grid, NmRatio::OneGb, &cfg, shard).unwrap();
        let (kinds, specs) = resolve(&grid).unwrap();
        let keys = shard_cell_keys(&kinds, &specs, shard);
        assert!(!records.is_empty());
        assert_eq!(records.len(), keys.len());
        for (rec, key) in records.iter().zip(&keys) {
            assert_eq!((rec.kind, &rec.workload), (key.kind, &key.workload));
            assert_eq!(rec.source, "scenario:stream-chase");
            assert!(rec.cycles > 0);
            assert!(rec.wall_secs.is_finite() && rec.wall_secs >= 0.0);
        }

        // A grid whose token would not parse back to itself is refused
        // before anything runs: its slices could never merge.
        let unnamable = GridId::SpecFile {
            path: "a.scn".to_owned(),
            selector: "x:y".to_owned(),
        };
        let e = run_shard(&unnamable, NmRatio::OneGb, &cfg, shard).unwrap_err();
        assert!(e.contains("slice header"), "{e}");
    }

    fn synthetic_grid() -> GridId {
        GridId::Scenario {
            selector: "stream-chase".to_owned(),
        }
    }

    fn synthetic_cfg() -> EvalConfig {
        EvalConfig {
            scale_den: 1024,
            instrs_per_core: 1,
            seed: 11,
            threads: 1,
            ..EvalConfig::smoke()
        }
    }

    /// Synthetic results for one slice of `grid` (no simulation): every
    /// cell gets distinctive numbers, including float bit patterns that
    /// decimal formatting would destroy.
    fn synthetic_cells(grid: &GridId, shard: ShardSpec) -> Vec<(CellKey, RunResult)> {
        let (kinds, specs) = resolve(grid).unwrap();
        let sys = ScaledSystem::new(NmRatio::OneGb, synthetic_cfg().scale_den);
        shard_cell_keys(&kinds, &specs, shard)
            .into_iter()
            .map(|key| {
                let x = key.slot as u64;
                let r = RunResult {
                    scheme: build_scheme(key.kind, &sys).name(),
                    workload: key.workload.clone(),
                    cycles: 1000 + x,
                    instructions: 77 * x + 1,
                    mem_ops: 13 * x,
                    mpki: (x as f64 + 0.1) / 3.0,
                    nm_served: if x.is_multiple_of(2) {
                        -0.0
                    } else {
                        f64::MIN_POSITIVE
                    },
                    fm_traffic: x << 20,
                    nm_traffic: x << 18,
                    energy_mj: 1e-300 * (x + 1) as f64,
                    footprint: 4096 * x,
                    nm_queue_mean: -0.0 + x as f64 / 7.0,
                    nm_queue_max: 2 * x,
                    fm_queue_mean: f64::MIN_POSITIVE * (x + 1) as f64,
                    fm_queue_max: x,
                    stats: dram::SchemeStats {
                        requests: x,
                        reads: x / 2,
                        writes: x - x / 2,
                        served_from_nm: x / 3,
                        lookup_hits: 2 * x,
                        lookup_misses: x + 5,
                        moved_into_nm: x % 7,
                        moved_out_of_nm: x % 5,
                        dirty_writebacks: x % 3,
                        metadata_reads: 9 * x,
                        metadata_writes: 8 * x,
                        fetched_bytes: x << 10,
                        used_bytes: x << 9,
                    },
                };
                (key, r)
            })
            .collect()
    }

    /// The slice files `s1.tsv … sN.tsv` of a `count`-way split of
    /// `grid`, with `tweak(file index, record)` applied to every record
    /// before encoding.
    fn slices_with(
        grid: &GridId,
        count: usize,
        tweak: impl Fn(usize, &mut RunRecord),
    ) -> Vec<(String, String)> {
        let cfg = synthetic_cfg();
        (1..=count)
            .map(|index| {
                let shard = ShardSpec { index, count };
                let records: Vec<RunRecord> = synthetic_cells(grid, shard)
                    .iter()
                    .map(|(key, r)| {
                        let secs = 1e-9 * (key.slot + 1) as f64;
                        let mut rec = RunRecord::new(
                            &grid_token(grid),
                            key.kind,
                            NmRatio::OneGb,
                            &cfg,
                            r,
                            secs,
                        );
                        tweak(index - 1, &mut rec);
                        rec
                    })
                    .collect();
                (
                    format!("s{index}.tsv"),
                    runlog::encode_slice(grid, shard, &records),
                )
            })
            .collect()
    }

    fn synthetic_shards(count: usize) -> Vec<(String, String)> {
        slices_with(&synthetic_grid(), count, |_, _| {})
    }

    #[test]
    fn encode_merge_round_trips_every_field_bit_for_bit() {
        let files = synthetic_shards(3);
        let merged = merge(&files).unwrap();
        let cfg = synthetic_cfg();
        assert_eq!(merged.grid, synthetic_grid());
        assert_eq!(merged.scale_den, cfg.scale_den);
        assert_eq!(merged.instrs_per_core, cfg.instrs_per_core);
        assert_eq!(merged.seed, cfg.seed);
        assert_eq!(merged.service, ServiceModel::Unbounded);
        let n = merged.matrix.workloads.len();
        let m = &merged.matrix;
        for (key, want) in synthetic_cells(&synthetic_grid(), ShardSpec { index: 1, count: 1 }) {
            let got = if key.slot < n {
                &m.baseline[key.slot]
            } else {
                &m.schemes[key.slot / n - 1].runs[key.slot % n]
            };
            assert_eq!(got.scheme, want.scheme);
            assert_eq!(got.workload, want.workload);
            assert_eq!(
                (got.cycles, got.instructions, got.mem_ops),
                (want.cycles, want.instructions, want.mem_ops)
            );
            assert_eq!(got.mpki.to_bits(), want.mpki.to_bits());
            assert_eq!(got.nm_served.to_bits(), want.nm_served.to_bits());
            assert_eq!(
                (got.fm_traffic, got.nm_traffic, got.footprint),
                (want.fm_traffic, want.nm_traffic, want.footprint)
            );
            assert_eq!(got.energy_mj.to_bits(), want.energy_mj.to_bits());
            assert_eq!(got.nm_queue_mean.to_bits(), want.nm_queue_mean.to_bits());
            assert_eq!(got.nm_queue_max, want.nm_queue_max);
            assert_eq!(got.fm_queue_mean.to_bits(), want.fm_queue_mean.to_bits());
            assert_eq!(got.fm_queue_max, want.fm_queue_max);
            assert_eq!(got.stats, want.stats);
        }
    }

    #[test]
    fn merge_handles_empty_shards_when_count_exceeds_cells() {
        // 7 cells (MAIN + baseline × 1 scenario), 9 shards: two are empty.
        let files = synthetic_shards(9);
        assert!(files.iter().any(|(_, c)| !c.contains("\nrecord\t")));
        assert!(merge(&files).is_ok());
    }

    #[test]
    fn merge_lists_exactly_the_missing_slices() {
        // Slices 2 and 5 of a 5-way split withheld: the error must name
        // both absent indices (and only those) so the caller knows what
        // to re-run without diffing files by hand.
        let files = synthetic_shards(5);
        let partial: Vec<(String, String)> = files
            .into_iter()
            .enumerate()
            .filter(|(i, _)| *i != 1 && *i != 4)
            .map(|(_, f)| f)
            .collect();
        let e = merge(&partial).unwrap_err();
        assert!(e.contains("2 of 5 slice(s) missing"), "{e}");
        assert!(e.contains("2/5") && e.contains("5/5"), "{e}");
        assert!(
            !e.contains("1/5") && !e.contains("3/5") && !e.contains("4/5"),
            "{e}"
        );
        assert!(!e.contains("more"), "{e}");
    }

    #[test]
    fn merge_survives_adversarial_slice_files() {
        let files = synthetic_shards(2);

        // The same slice under a different file name is still a duplicate
        // — its writer betrays it, and the error names both files.
        let copied = vec![
            files[0].clone(),
            ("sneaky-rename.tsv".to_owned(), files[0].1.clone()),
            files[1].clone(),
        ];
        let e = merge(&copied).unwrap_err();
        assert!(e.contains("appears twice"), "{e}");
        assert!(e.contains("sneaky-rename.tsv"), "{e}");

        // A re-run of the same slice (a different writer) is a duplicate
        // slice, named by its shard index.
        let rerun = vec![files[0].clone(), synthetic_shards(2).swap_remove(0)];
        let e = merge(&rerun).unwrap_err();
        assert!(e.contains("shard 1/2 appears twice"), "{e}");

        // Mid-value truncation of the final row: the cut `fm_queue_max`
        // still parses as an integer and the column count is intact, so
        // only the missing trailing newline betrays the damage.
        let mut cut = files.clone();
        assert!(cut[0].1.ends_with('\n'));
        let new_len = cut[0].1.len() - 2;
        cut[0].1.truncate(new_len);
        let e = merge(&cut).unwrap_err();
        assert!(e.contains("truncated"), "{e}");
        assert!(e.contains(&files[0].0), "error must name the file: {e}");

        // CRLF line endings (a Windows checkout, a careless transfer)
        // parse to the identical matrix — the merged reports stay
        // byte-identical to the LF merge.
        let want = merge(&files).unwrap();
        let crlf: Vec<(String, String)> = files
            .iter()
            .map(|(n, c)| (n.clone(), c.replace('\n', "\r\n")))
            .collect();
        let got = merge(&crlf).unwrap();
        let render = |m: &Matrix| {
            reports(&synthetic_grid(), m)
                .iter()
                .map(Report::render)
                .collect::<String>()
        };
        assert_eq!(render(&want.matrix), render(&got.matrix));
    }

    #[test]
    fn merge_rejects_bad_inputs() {
        let files = synthetic_shards(2);

        assert!(merge(&[]).unwrap_err().contains("at least one"));

        let mut missing = files.clone();
        missing.pop();
        let e = merge(&missing).unwrap_err();
        assert!(e.contains("1 of 2 slice(s) missing: 2/2"), "{e}");

        let dup = vec![files[0].clone(), files[0].clone()];
        assert!(merge(&dup).unwrap_err().contains("appears twice"));

        // A run-directory file is not a slice.
        let plain = files[0]
            .1
            .replace("grid\tscenario:stream-chase\nshard\t1/2\n", "");
        let e = merge(&[("plain.tsv".to_owned(), plain)]).unwrap_err();
        assert!(
            e.contains("plain.tsv") && e.contains("not a shard slice"),
            "{e}"
        );

        // A corrupt generated-grid header must not size the merge's work.
        let mut huge_grid = files.clone();
        for (_, text) in &mut huge_grid {
            *text = text.replace(
                "grid\tscenario:stream-chase\n",
                "grid\tgenerated:18446744073709551615:7:all\n",
            );
        }
        let e = merge(&huge_grid).unwrap_err();
        assert!(e.contains("s1.tsv") && e.contains("at most"), "{e}");

        let bad_seed = slices_with(&synthetic_grid(), 2, |file, rec| {
            if file == 1 {
                rec.seed = 12;
            }
        });
        assert!(merge(&bad_seed).unwrap_err().contains("disagrees"));

        // Shards simulated under different service models must never
        // merge: a queued slice is a different experiment.
        let bad_service = slices_with(&synthetic_grid(), 2, |file, rec| {
            if file == 1 {
                rec.service_model = ServiceModel::Queued { depth: 8 };
            }
        });
        assert!(merge(&bad_service).unwrap_err().contains("disagrees"));

        // An unknown service token is a decode error naming the file.
        let mut bad_token = files.clone();
        bad_token[0].1 = bad_token[0].1.replace("\tunbounded\t", "\twarp-speed\t");
        let e = merge(&bad_token).unwrap_err();
        assert!(e.contains("service model") && e.contains("s1.tsv"), "{e}");

        let mut bad_version = files.clone();
        bad_version[0].1 = bad_version[0]
            .1
            .replacen(runlog::VERSION, "hybrid2-runlog-v0", 1);
        assert!(merge(&bad_version).unwrap_err().contains("unsupported"));

        // A whole final row lost: the partition count betrays it.
        let mut truncated = files.clone();
        let cut = truncated[0].1.rfind("record\t").unwrap();
        truncated[0].1.truncate(cut);
        assert!(merge(&truncated).unwrap_err().contains("cells"));

        // A corrupt sequence number must be an Err, never an allocation
        // panic/abort — the CI merge gate feeds merge untrusted artifacts.
        let mut huge_seq = files.clone();
        huge_seq[0].1 =
            huge_seq[0]
                .1
                .replacen("\nrecord\t0\t", &format!("\nrecord\t{}\t", u64::MAX), 1);
        let e = merge(&huge_seq).unwrap_err();
        assert!(e.contains("sequence"), "{e}");

        // Likewise a corrupt shard count: the missing-slice walk and its
        // listing are bounded by the input size, never by the header's
        // claimed width — no allocation or iteration scales with it.
        let mut huge_split: Vec<(String, String)> = files.clone();
        for f in &mut huge_split {
            f.1 = f.1.replace("/2\n", "/99999999999\n");
        }
        let e = merge(&huge_split).unwrap_err();
        assert!(
            e.contains("99999999997 of 99999999999 slice(s) missing"),
            "{e}"
        );
        assert!(e.contains("3/99999999999"), "{e}");
        assert!(e.contains("more"), "{e}");

        // An extreme `scale` is metadata at merge time — it must not
        // reach ScaledSystem's validity asserts and panic.
        let wild_scale = slices_with(&synthetic_grid(), 2, |_, rec| rec.scale_den = 1_000_000);
        assert!(merge(&wild_scale).is_ok());
        let zero_scale = slices_with(&synthetic_grid(), 2, |_, rec| rec.scale_den = 0);
        assert!(merge(&zero_scale).unwrap_err().contains("scale"));

        let mut bad_float = files.clone();
        // -0.0's bit pattern: nm_served of every even slot, of which a
        // 4-cell shard of a 7-cell grid always holds at least one.
        bad_float[0].1 = bad_float[0]
            .1
            .replace("\t8000000000000000\t", "\tnot-a-float-xx\t");
        let e = merge(&bad_float).unwrap_err();
        assert!(e.contains("hex bit pattern"), "{e}");
    }

    /// Tokens a corrupted or hand-edited slice might carry in any field.
    const NASTY: [&str; 17] = [
        "",
        "0",
        "-1",
        "18446744073709551616",
        "ffffffffffffffff",
        "7ff8000000000000",
        "nan",
        "queued:0",
        "1/0",
        "2/1",
        "99999999999/99999999999",
        "eval:full",
        "scenario:no-such-scenario",
        "specfile:/no/such/file.scn:all",
        "generated:18446744073709551615:7:all",
        "hybrid2-config=0:0:0",
        "record",
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
        /// Mutated slice files never panic `merge` or `read_store`: every
        /// outcome is `Ok` or an `Err` naming the mutated file.
        #[test]
        fn mutated_files_never_panic_merge_or_read_store(
            victim in 0usize..3,
            edits in proptest::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 1..4),
        ) {
            // The 21-cell smoke matrix: most lines of a slice are records.
            let mut files = slices_with(&GridId::Eval { smoke: true }, 3, |_, _| {});
            for (op, a, b) in edits {
                files[victim].1 = mutate(&files[victim].1, op, a, b);
            }
            let name = files[victim].0.clone();
            if let Err(e) = merge(&files) {
                prop_assert!(e.contains(&name), "merge error must name {name}: {e}");
            }
            if let Err(e) = runlog::read_store(&files) {
                prop_assert!(e.contains(&name), "read_store error must name {name}: {e}");
            }
        }
    }
}
