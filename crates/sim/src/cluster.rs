//! Fault-tolerant cluster dispatcher on the shard layer.
//!
//! PR 4 made cross-process grid runs byte-identical (`--shard K/N` slices
//! plus a strict `reproduce merge`); this module adds the missing control
//! plane: a dispatcher (`reproduce serve`) that deals those slices to
//! worker processes (`reproduce worker`) over plain std TCP and keeps the
//! run *correct* when workers die, hang or straggle.
//!
//! The design is lease-based, in the cyclotron ticketed-service spirit —
//! every unit of in-flight work is explicit, bounded and observable:
//!
//! * Each shard slice is dealt as a **lease** with an absolute per-lease
//!   deadline and heartbeat tracking. A lease whose deadline passes, whose
//!   heartbeats stop, or whose connection drops returns its slice to the
//!   pending pool and it is re-dealt.
//! * Re-dealing is safe because completion is **first-result-wins**: the
//!   first accepted payload marks a slice done, later results for the same
//!   slice (a straggler finishing after a re-deal, a duplicate send) are
//!   acknowledged as duplicates and discarded, never double-counted.
//! * Every accepted payload is validated against the lease's job
//!   ([`crate::shard`]'s `check_slice`) before it can enter the run, and
//!   the assembled matrix still passes through [`shard::merge`] — the same
//!   byte-identity gate a file-based merge uses. Cluster output is
//!   `cmp`-identical to a monolithic run by construction.
//! * The dispatcher **never hangs**: if a slice stays pending for a full
//!   deadline with no accepted result anywhere in between (all workers
//!   dead, none ever connected, or the last one stalled), the dispatcher
//!   runs the slice in-process and the run completes degraded rather than
//!   waiting forever.
//! * Workers reconnect with capped exponential backoff ([`Backoff`]) and
//!   give up after a fixed attempt budget — a vanished dispatcher leaves
//!   no zombie workers.
//!
//! The wire protocol (`hybrid2-cluster-v1`) is line-oriented and versioned
//! like every other format in this repo. Floats never ride the protocol in
//! decimal: result payloads are verbatim shard interchange files, which
//! carry IEEE-754 bit patterns. Client → server: `hello`, `next`,
//! `heartbeat`, `result` (a header line followed by a byte-counted
//! payload). Server → client: `welcome`, `lease`, `wait`, `done`,
//! `ok`/`error` acknowledgements.
//!
//! Fault injection for tests is built into the worker (`--fault-stall-secs`
//! stalls before the first leased slice; `--fault-duplicate` sends every
//! result twice), so the integration suite can deterministically exercise
//! re-deal, deadline expiry and duplicate-discard paths.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use crate::machine::RunResult;
use crate::runlog;
use crate::runner::{EvalConfig, SchemeKind};
use crate::scale::NmRatio;
use crate::shard::{self, GridId, ShardSpec};

/// Protocol version token exchanged in `hello`/`welcome`; bumped on any
/// wire-format change.
pub const PROTO_VERSION: &str = "hybrid2-cluster-v2";

/// Socket read timeout used as the poll granularity of every blocking
/// read — each tick re-checks the shutdown flag, so no thread can sit in
/// a read forever.
const READ_POLL: Duration = Duration::from_millis(500);

/// Monitor/accept loop tick.
const POLL_INTERVAL: Duration = Duration::from_millis(200);

/// How long a worker sleeps after a `wait` reply before asking again.
const WAIT_RETRY: Duration = Duration::from_millis(300);

/// How often a worker heartbeats while simulating a lease.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(1000);

/// Granularity of the heartbeat thread's sleep (so it notices the lease
/// finishing promptly).
const HEARTBEAT_STEP: Duration = Duration::from_millis(100);

/// A lease whose last heartbeat is older than this is considered dead
/// even before its absolute deadline (covers workers that vanish without
/// closing the connection).
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(5);

/// Overall cap on reading one result payload.
const PAYLOAD_TIMEOUT: Duration = Duration::from_secs(30);

/// Overall cap on a worker waiting for any single server reply.
const WORKER_REPLY_LIMIT: Duration = Duration::from_secs(30);

/// Largest result payload the dispatcher accepts (a shard file is a few
/// KB; this cap only bounds a corrupt or malicious length header).
const MAX_PAYLOAD_BYTES: u64 = 64 << 20;

/// Stable CLI/wire token of a grid: `scenario:<selector>`, `eval:smoke`,
/// `eval:full`, `generated:<count>:<seed>:<selector>` or
/// `specfile:<path>:<selector>` (the selector follows the *last* colon,
/// so paths containing colons survive the round trip).
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

/// True for a selector token safe to embed in grid tokens and shard
/// headers (non-empty, no whitespace or separators).
fn clean_token(sel: &str) -> bool {
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
        Some(("scenario", sel)) if clean_token(sel) => Ok(GridId::Scenario {
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
            if !clean_token(sel) {
                return Err(err());
            }
            Ok(GridId::Generated {
                count: count.parse().map_err(|_| err())?,
                seed: seed.parse().map_err(|_| err())?,
                selector: sel.to_owned(),
            })
        }
        Some(("specfile", rest)) => {
            // The selector follows the last colon; the path keeps any
            // colons of its own.
            let (path, sel) = rest.rsplit_once(':').ok_or_else(err)?;
            if path.is_empty() || path.contains(['\t', '\n', '\r']) || !clean_token(sel) {
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

/// Capped exponential backoff with a fixed attempt budget, used by the
/// worker's reconnect loop. `next()` yields the delay before each retry
/// and `None` once the budget is exhausted — the worker then exits with
/// an error instead of retrying forever.
#[derive(Debug, Default)]
pub struct Backoff {
    attempt: u32,
}

impl Backoff {
    /// Delay before the first retry.
    pub const BASE: Duration = Duration::from_millis(50);
    /// Ceiling on any single delay.
    pub const CAP: Duration = Duration::from_secs(2);
    /// Retry budget; exhausting it is terminal.
    pub const MAX_ATTEMPTS: u32 = 8;

    /// A fresh backoff at attempt zero.
    pub fn new() -> Backoff {
        Backoff::default()
    }

    /// The delay to sleep before the next retry, or `None` once the
    /// attempt budget is spent. Doubles from [`Backoff::BASE`], capped at
    /// [`Backoff::CAP`].
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= Self::MAX_ATTEMPTS {
            return None;
        }
        let delay = Self::BASE
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(Self::CAP);
        self.attempt += 1;
        Some(delay)
    }

    /// Resets the budget after a successful (re)connection.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// One dispatched job, as carried on a `lease` line: which slice of which
/// grid, plus every result-affecting sizing knob. Thread count stays
/// worker-local (it never affects results).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct LeaseJob {
    /// Unique lease id (per dispatcher run).
    pub lease: u64,
    /// The slice to simulate.
    pub spec: ShardSpec,
    /// The grid being sliced.
    pub grid: GridId,
    /// NM:FM ratio.
    pub ratio: NmRatio,
    /// Capacity divisor.
    pub scale_den: u64,
    /// Instructions per core.
    pub instrs_per_core: u64,
    /// RNG seed.
    pub seed: u64,
    /// Epoch-batch knob (byte-identical for every value; carried so the
    /// whole cluster schedules the same way).
    pub batch: u64,
    /// Memory-service model (result-affecting: a queued slice is a
    /// different experiment from an unbounded one).
    pub service: dram::ServiceModel,
}

/// Encodes a `lease` line.
pub(crate) fn encode_lease(
    lease: u64,
    spec: ShardSpec,
    grid: &GridId,
    ratio: NmRatio,
    cfg: &EvalConfig,
) -> String {
    format!(
        "lease\t{lease}\t{spec}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        grid_token(grid),
        shard::ratio_token(ratio),
        cfg.scale_den,
        cfg.instrs_per_core,
        cfg.seed,
        cfg.batch,
        cfg.service.token()
    )
}

/// Parses a `lease` line back to the job.
pub(crate) fn parse_lease(line: &str) -> Result<LeaseJob, String> {
    let cols: Vec<&str> = line.split('\t').collect();
    let [tag, lease, spec, grid, ratio, scale, instrs, seed, batch, service] = cols.as_slice()
    else {
        return Err(format!("malformed lease line {line:?}"));
    };
    if *tag != "lease" {
        return Err(format!("malformed lease line {line:?}"));
    }
    Ok(LeaseJob {
        lease: shard::parse_u64(lease, "lease id")?,
        spec: ShardSpec::parse(spec)?,
        grid: parse_grid_token(grid)?,
        ratio: shard::parse_ratio_token(ratio)?,
        scale_den: shard::parse_u64(scale, "scale")?,
        instrs_per_core: shard::parse_u64(instrs, "instrs")?,
        seed: shard::parse_u64(seed, "seed")?,
        batch: shard::parse_u64(batch, "batch")?,
        service: dram::ServiceModel::parse(service)
            .ok_or_else(|| format!("unknown service model {service:?}"))?,
    })
}

/// State of one shard slice inside the dispatcher.
#[derive(Debug)]
enum Slice {
    /// Waiting to be dealt (or re-dealt). `since` is when it last entered
    /// this state.
    Pending { since: Instant },
    /// Dealt to some worker under `lease`.
    Leased {
        lease: u64,
        dealt_at: Instant,
        last_heartbeat: Instant,
    },
    /// Completed; the payload is a verbatim shard interchange file.
    Done { payload: String, wall_secs: f64 },
}

/// What a lease's dealt-at/slice lookup needs to remember. Entries are
/// never removed — a straggler's result for a long-expired lease must
/// still resolve to its slice so first-result-wins can adjudicate it.
#[derive(Clone, Copy, Debug)]
struct LeaseInfo {
    slice0: usize,
    dealt_at: Instant,
}

/// Verdict of [`Dispatch::complete`].
#[derive(Debug, PartialEq)]
pub(crate) enum Completion {
    /// First result for the slice: accepted. `wall_secs` is this lease's
    /// deal → result wall clock.
    Accepted { slice0: usize, wall_secs: f64 },
    /// The slice was already done: discarded, not double-counted.
    Duplicate { slice0: usize },
    /// No such lease was ever dealt (protocol violation).
    UnknownLease,
}

/// One slice's lease telemetry: the accepted lease's wall-clock seconds
/// and how many times the slice had to be re-dealt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct SliceTelemetry {
    pub wall_secs: f64,
    pub redeals: u64,
}

/// An expired lease, as reported by [`Dispatch::expire`].
#[derive(Debug)]
pub(crate) struct Expired {
    pub lease: u64,
    pub slice0: usize,
    /// `"deadline"` or `"heartbeat"`.
    pub reason: &'static str,
}

/// The dispatcher's pure state machine: slices, leases, deadlines and
/// dedup. Every method takes `now` explicitly so unit tests can drive
/// time without sleeping; all I/O lives in [`serve`].
pub(crate) struct Dispatch {
    deadline: Duration,
    hb_timeout: Duration,
    count: usize,
    slices: Vec<Slice>,
    /// Per-slice re-deal count (deals beyond the first).
    redeals: Vec<u64>,
    ever_dealt: Vec<bool>,
    leases: BTreeMap<u64, LeaseInfo>,
    next_lease: u64,
    /// Last time any result was accepted (creation time before that);
    /// the in-process takeover clock, so a run that *is* progressing is
    /// never preempted.
    last_progress: Instant,
}

impl Dispatch {
    /// A dispatcher for `count` slices, all pending as of `now`.
    pub(crate) fn new(
        count: usize,
        deadline: Duration,
        hb_timeout: Duration,
        now: Instant,
    ) -> Dispatch {
        Dispatch {
            deadline,
            hb_timeout,
            count,
            slices: (0..count).map(|_| Slice::Pending { since: now }).collect(),
            redeals: vec![0; count],
            ever_dealt: vec![false; count],
            leases: BTreeMap::new(),
            next_lease: 1,
            last_progress: now,
        }
    }

    fn spec_of(&self, slice0: usize) -> ShardSpec {
        ShardSpec {
            index: slice0 + 1,
            count: self.count,
        }
    }

    /// Deals the first pending slice, if any.
    pub(crate) fn deal(&mut self, now: Instant) -> Option<(u64, ShardSpec)> {
        let slice0 = self
            .slices
            .iter()
            .position(|s| matches!(s, Slice::Pending { .. }))?;
        Some(self.deal_slice(slice0, now))
    }

    /// Deals a specific pending slice (the in-process takeover path).
    pub(crate) fn deal_slice(&mut self, slice0: usize, now: Instant) -> (u64, ShardSpec) {
        debug_assert!(matches!(self.slices[slice0], Slice::Pending { .. }));
        let lease = self.next_lease;
        self.next_lease += 1;
        self.slices[slice0] = Slice::Leased {
            lease,
            dealt_at: now,
            last_heartbeat: now,
        };
        self.leases.insert(
            lease,
            LeaseInfo {
                slice0,
                dealt_at: now,
            },
        );
        if self.ever_dealt[slice0] {
            self.redeals[slice0] += 1;
        } else {
            self.ever_dealt[slice0] = true;
        }
        (lease, self.spec_of(slice0))
    }

    /// Records a heartbeat for `lease`, if it still holds its slice.
    pub(crate) fn heartbeat(&mut self, lease: u64, now: Instant) {
        let Some(&LeaseInfo { slice0, .. }) = self.leases.get(&lease) else {
            return;
        };
        if let Slice::Leased {
            lease: holder,
            ref mut last_heartbeat,
            ..
        } = self.slices[slice0]
        {
            if holder == lease {
                *last_heartbeat = now;
            }
        }
    }

    /// The slice a lease covers, if the lease was ever dealt.
    pub(crate) fn lease_spec(&self, lease: u64) -> Option<ShardSpec> {
        self.leases
            .get(&lease)
            .map(|info| self.spec_of(info.slice0))
    }

    /// Adjudicates a result for `lease`: the first result a slice sees is
    /// accepted (even from a lease that has since expired — first
    /// completed wins), anything after that is a duplicate.
    pub(crate) fn complete(&mut self, lease: u64, payload: String, now: Instant) -> Completion {
        let Some(&LeaseInfo { slice0, dealt_at }) = self.leases.get(&lease) else {
            return Completion::UnknownLease;
        };
        if matches!(self.slices[slice0], Slice::Done { .. }) {
            return Completion::Duplicate { slice0 };
        }
        let wall_secs = now.saturating_duration_since(dealt_at).as_secs_f64();
        self.slices[slice0] = Slice::Done { payload, wall_secs };
        self.last_progress = now;
        Completion::Accepted { slice0, wall_secs }
    }

    /// Returns a lease's slice to the pending pool, but only if that
    /// lease still holds it — a handler cleaning up after a lost
    /// connection must not free a slice that was already re-dealt.
    pub(crate) fn release_lease(&mut self, lease: u64, now: Instant) -> Option<usize> {
        let &LeaseInfo { slice0, .. } = self.leases.get(&lease)?;
        match self.slices[slice0] {
            Slice::Leased { lease: holder, .. } if holder == lease => {
                self.slices[slice0] = Slice::Pending { since: now };
                Some(slice0)
            }
            _ => None,
        }
    }

    /// Expires leases past their absolute deadline or whose heartbeats
    /// stopped, returning the slices to the pending pool.
    pub(crate) fn expire(&mut self, now: Instant) -> Vec<Expired> {
        let mut out = Vec::new();
        for (slice0, s) in self.slices.iter_mut().enumerate() {
            if let Slice::Leased {
                lease,
                dealt_at,
                last_heartbeat,
            } = *s
            {
                let reason = if now.saturating_duration_since(dealt_at) >= self.deadline {
                    Some("deadline")
                } else if now.saturating_duration_since(last_heartbeat) >= self.hb_timeout {
                    Some("heartbeat")
                } else {
                    None
                };
                if let Some(reason) = reason {
                    *s = Slice::Pending { since: now };
                    out.push(Expired {
                        lease,
                        slice0,
                        reason,
                    });
                }
            }
        }
        out
    }

    /// The first slice that has sat pending for a full deadline while the
    /// run made no progress at all — the in-process takeover trigger.
    /// Covers zero-workers-ever, all-workers-lost, and a stalled worker
    /// holding the last slice (its lease expires first, then this fires).
    pub(crate) fn overdue_pending(&self, now: Instant) -> Option<usize> {
        self.slices.iter().position(|s| match s {
            Slice::Pending { since } => {
                let anchor = (*since).max(self.last_progress);
                now.saturating_duration_since(anchor) >= self.deadline
            }
            _ => false,
        })
    }

    /// True once every slice is done.
    pub(crate) fn all_done(&self) -> bool {
        self.slices.iter().all(|s| matches!(s, Slice::Done { .. }))
    }

    /// Total re-deals across all slices.
    pub(crate) fn total_redeals(&self) -> u64 {
        self.redeals.iter().sum()
    }

    /// Per-slice lease telemetry, in slice order.
    pub(crate) fn telemetry(&self) -> Vec<SliceTelemetry> {
        self.slices
            .iter()
            .zip(&self.redeals)
            .map(|(s, &redeals)| SliceTelemetry {
                wall_secs: match s {
                    Slice::Done { wall_secs, .. } => *wall_secs,
                    _ => 0.0,
                },
                redeals,
            })
            .collect()
    }

    /// Consumes the dispatcher into `(name, payload)` pairs for
    /// [`shard::merge`], in slice order.
    pub(crate) fn into_payloads(self) -> Result<Vec<(String, String)>, String> {
        let count = self.count;
        self.slices
            .into_iter()
            .enumerate()
            .map(|(slice0, s)| match s {
                Slice::Done { payload, .. } => Ok((format!("slice-{}", slice0 + 1), payload)),
                _ => Err(format!("slice {}/{count} never completed", slice0 + 1)),
            })
            .collect()
    }
}

/// Everything `reproduce serve` needs: the job, the split, the failure
/// policy and where to listen.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// The grid to run.
    pub grid: GridId,
    /// NM:FM ratio.
    pub ratio: NmRatio,
    /// Sizing knobs (threads applies to the dispatcher's own in-process
    /// takeover runs; workers choose their own).
    pub cfg: EvalConfig,
    /// How many slices to split the grid into.
    pub shards: usize,
    /// How many workers the operator expects to join. Informational: the
    /// dispatcher logs progress against it but never waits for it — the
    /// deadline/takeover machinery alone guarantees completion.
    pub workers_expected: usize,
    /// Per-lease deadline; also the no-progress threshold after which a
    /// pending slice is run in-process.
    pub deadline: Duration,
    /// Listen address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// If set, the bound address is written here (tests and scripts poll
    /// it to learn the ephemeral port).
    pub addr_file: Option<String>,
    /// If set, append one run record per grid cell (source
    /// `cluster:<grid>`) with per-lease wall-clock and re-deal telemetry.
    pub runlog: Option<String>,
}

/// Shared state between the accept loop, connection handlers and the
/// monitor thread.
struct ServeCtx {
    grid: GridId,
    ratio: NmRatio,
    cfg: EvalConfig,
    shards: usize,
    workers_expected: usize,
    state: Mutex<Dispatch>,
    done: AtomicBool,
    connected: AtomicUsize,
    duplicates: AtomicU64,
    fatal: Mutex<Option<String>>,
}

/// Poison-tolerant lock: a panicking handler thread must not wedge the
/// dispatcher (the state machine is valid between any two method calls).
fn lock(m: &Mutex<Dispatch>) -> MutexGuard<'_, Dispatch> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `true` for the error kinds a socket read timeout surfaces as.
fn would_block(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Outcome of one polled line read.
enum Read1 {
    /// A complete line (without the newline).
    Line(String),
    /// The peer closed the connection.
    Closed,
    /// The stop flag was raised (or the overall limit passed) first.
    Stop,
}

/// Reads one `\n`-terminated line, polling the socket at [`READ_POLL`]
/// granularity so `stop` (and `limit`, if given) are honored even while
/// the peer is silent. Partial lines survive across polls — `read_line`
/// appends whatever arrived before a timeout.
fn read_line_poll(
    reader: &mut impl BufRead,
    stop: &AtomicBool,
    limit: Option<Duration>,
) -> Result<Read1, String> {
    let start = Instant::now();
    let mut line = String::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(Read1::Stop);
        }
        if limit.is_some_and(|l| start.elapsed() >= l) {
            return Ok(Read1::Stop);
        }
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(Read1::Closed),
            Ok(_) => {
                while line.ends_with('\n') || line.ends_with('\r') {
                    line.pop();
                }
                return Ok(Read1::Line(line));
            }
            Err(e) if would_block(&e) => continue,
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
}

/// Reads exactly `buf.len()` payload bytes under the same polling
/// discipline, with an overall [`PAYLOAD_TIMEOUT`].
fn read_exact_poll(
    reader: &mut impl Read,
    buf: &mut [u8],
    stop: &AtomicBool,
) -> Result<(), String> {
    let start = Instant::now();
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::Relaxed) {
            return Err("shutting down mid-payload".to_owned());
        }
        if start.elapsed() >= PAYLOAD_TIMEOUT {
            return Err(format!(
                "timed out reading payload ({filled} of {} bytes)",
                buf.len()
            ));
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err("connection closed mid-payload".to_owned()),
            Ok(n) => filled += n,
            Err(e) if would_block(&e) => continue,
            Err(e) => return Err(format!("read error: {e}")),
        }
    }
    Ok(())
}

/// Writes one line (adding the newline) in a single `write_all`.
fn write_line(w: &mut impl Write, line: &str) -> Result<(), String> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf).map_err(|e| format!("cannot send: {e}"))
}

/// Runs the dispatcher: listens, deals leases, re-deals on expiry/loss,
/// takes over stalled slices in-process, merge-gates the assembled matrix
/// and returns the rendered reports (byte-identical to a monolithic run).
pub fn serve(sc: &ServeConfig) -> Result<String, String> {
    if sc.shards == 0 {
        return Err("--shards must be at least 1".to_owned());
    }
    if sc.deadline.is_zero() {
        return Err("--deadline-secs must be positive".to_owned());
    }
    // Validate the grid before binding anything.
    shard::resolve(&sc.grid)?;

    let listener = TcpListener::bind(&sc.listen)
        .map_err(|e| format!("cannot listen on {}: {e}", sc.listen))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set the listener nonblocking: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read the bound address: {e}"))?;
    if let Some(f) = &sc.addr_file {
        std::fs::write(f, format!("{addr}\n")).map_err(|e| format!("cannot write {f:?}: {e}"))?;
    }
    eprintln!(
        "dispatcher: serving {} as {} slice(s) on {addr}; expecting {} worker(s), lease deadline \
         {:.1}s",
        grid_token(&sc.grid),
        sc.shards,
        sc.workers_expected,
        sc.deadline.as_secs_f64()
    );

    let ctx = ServeCtx {
        grid: sc.grid.clone(),
        ratio: sc.ratio,
        cfg: sc.cfg,
        shards: sc.shards,
        workers_expected: sc.workers_expected,
        state: Mutex::new(Dispatch::new(
            sc.shards,
            sc.deadline,
            HEARTBEAT_TIMEOUT,
            Instant::now(),
        )),
        done: AtomicBool::new(false),
        connected: AtomicUsize::new(0),
        duplicates: AtomicU64::new(0),
        fatal: Mutex::new(None),
    };

    thread::scope(|s| {
        s.spawn(|| monitor(&ctx));
        loop {
            if ctx.done.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, peer)) => {
                    let peer = peer.to_string();
                    s.spawn(|| handle_conn(&ctx, stream, peer));
                }
                Err(e) if would_block(&e) => thread::sleep(POLL_INTERVAL),
                Err(e) => {
                    eprintln!("dispatcher: accept failed: {e}");
                    thread::sleep(POLL_INTERVAL);
                }
            }
        }
    });

    let ServeCtx {
        state,
        fatal,
        duplicates,
        ..
    } = ctx;
    if let Some(e) = fatal.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    let dispatch = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    let total_redeals = dispatch.total_redeals();
    let telemetry = dispatch.telemetry();
    let payloads = dispatch.into_payloads()?;
    // The same strict gate a file-based `reproduce merge` applies: headers
    // must agree, the partition must be exact, floats ride as bit
    // patterns. Byte-identity to a monolithic run follows.
    let merged = shard::merge(&payloads)?;
    let mut text = String::new();
    for report in shard::reports(&sc.grid, &merged.matrix) {
        text.push_str(&report.render());
        text.push('\n');
    }
    eprintln!(
        "dispatcher: cluster run complete: {} slice(s), {} re-deal(s), {} duplicate(s) discarded",
        sc.shards,
        total_redeals,
        duplicates.load(Ordering::Relaxed)
    );
    if let Some(dir) = &sc.runlog {
        record_cluster(dir, sc, &merged, &telemetry)?;
    }
    Ok(text)
}

/// The monitor thread: expires dead/stalled leases and, when a slice has
/// sat pending for a full deadline with no progress anywhere, runs it
/// in-process — the no-hang guarantee.
fn monitor(ctx: &ServeCtx) {
    loop {
        let now = Instant::now();
        let takeover = {
            let mut d = lock(&ctx.state);
            if d.all_done() {
                ctx.done.store(true, Ordering::Relaxed);
                return;
            }
            for x in d.expire(now) {
                eprintln!(
                    "dispatcher: lease {} (slice {}/{}) expired ({}); re-dealing",
                    x.lease,
                    x.slice0 + 1,
                    ctx.shards,
                    x.reason
                );
            }
            d.overdue_pending(now)
                .map(|slice0| d.deal_slice(slice0, now))
        };
        match takeover {
            Some((lease, spec)) => {
                eprintln!(
                    "dispatcher: no worker produced slice {spec} within the deadline; running it \
                     in-process"
                );
                match shard::run_shard(&ctx.grid, ctx.ratio, &ctx.cfg, spec) {
                    Ok(run) => {
                        let c = lock(&ctx.state).complete(lease, run.encoded, Instant::now());
                        match c {
                            Completion::Accepted { .. } => {
                                eprintln!("dispatcher: slice {spec} completed in-process");
                            }
                            _ => {
                                // A straggler beat us while we simulated.
                                ctx.duplicates.fetch_add(1, Ordering::Relaxed);
                                eprintln!(
                                    "dispatcher: duplicate in-process result for slice {spec} \
                                     discarded"
                                );
                            }
                        }
                    }
                    Err(e) => {
                        *ctx.fatal.lock().unwrap_or_else(PoisonError::into_inner) =
                            Some(format!("in-process run of slice {spec} failed: {e}"));
                        ctx.done.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            }
            None => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// One worker connection: logs, serves the protocol, and on an abnormal
/// exit returns every lease this connection still holds to the pool.
fn handle_conn(ctx: &ServeCtx, stream: TcpStream, peer: String) {
    let mut name = peer.clone();
    let mut dealt: Vec<u64> = Vec::new();
    if let Err(e) = serve_worker_conn(ctx, stream, &mut name, &mut dealt) {
        eprintln!("dispatcher: worker {name} lost ({e})");
        let now = Instant::now();
        let mut d = lock(&ctx.state);
        for lease in dealt {
            if let Some(slice0) = d.release_lease(lease, now) {
                eprintln!(
                    "dispatcher: re-dealing slice {}/{} after losing worker {name}",
                    slice0 + 1,
                    ctx.shards
                );
            }
        }
    }
}

/// The protocol loop of one worker connection. `Ok(())` is a clean end
/// (run complete or dispatcher shutdown); `Err` is an abnormal loss whose
/// leases the caller must release.
fn serve_worker_conn(
    ctx: &ServeCtx,
    stream: TcpStream,
    name: &mut String,
    dealt: &mut Vec<u64>,
) -> Result<(), String> {
    stream
        .set_read_timeout(Some(READ_POLL))
        .map_err(|e| format!("cannot set a read timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone the stream: {e}"))?;
    let mut reader = BufReader::new(stream);

    let hello = match read_line_poll(&mut reader, &ctx.done, None)? {
        Read1::Line(l) => l,
        Read1::Closed => return Err("closed before hello".to_owned()),
        Read1::Stop => return Ok(()),
    };
    let cols: Vec<&str> = hello.split('\t').collect();
    match cols.as_slice() {
        ["hello", ver, n] if *ver == PROTO_VERSION => *name = (*n).to_owned(),
        ["hello", ver, _] => {
            let _ = write_line(
                &mut writer,
                &format!("error\tprotocol version {ver} unsupported (want {PROTO_VERSION})"),
            );
            return Err(format!("protocol version mismatch ({ver})"));
        }
        _ => {
            let _ = write_line(&mut writer, "error\tmalformed hello");
            return Err(format!("malformed hello {hello:?}"));
        }
    }
    write_line(&mut writer, &format!("welcome\t{PROTO_VERSION}"))?;
    let n = ctx.connected.fetch_add(1, Ordering::Relaxed) + 1;
    eprintln!(
        "dispatcher: worker {name} connected ({n} of {} expected)",
        ctx.workers_expected
    );

    loop {
        let line = match read_line_poll(&mut reader, &ctx.done, None)? {
            Read1::Line(l) => l,
            Read1::Closed => return Err("connection closed".to_owned()),
            Read1::Stop => return Ok(()),
        };
        let cols: Vec<&str> = line.split('\t').collect();
        match cols.as_slice() {
            ["next"] => {
                let now = Instant::now();
                let lease = {
                    let mut d = lock(&ctx.state);
                    if d.all_done() {
                        None
                    } else {
                        match d.deal(now) {
                            Some((lease, spec)) => Some(Some((lease, spec))),
                            None => Some(None),
                        }
                    }
                };
                match lease {
                    None => {
                        write_line(&mut writer, "done")?;
                        return Ok(());
                    }
                    Some(Some((lease, spec))) => {
                        dealt.push(lease);
                        eprintln!("dispatcher: lease {lease}: slice {spec} dealt to {name}");
                        write_line(
                            &mut writer,
                            &encode_lease(lease, spec, &ctx.grid, ctx.ratio, &ctx.cfg),
                        )?;
                    }
                    Some(None) => write_line(&mut writer, "wait")?,
                }
            }
            ["heartbeat", lease] => {
                let lease = shard::parse_u64(lease, "heartbeat lease id")?;
                lock(&ctx.state).heartbeat(lease, Instant::now());
            }
            ["result", lease, len] => {
                let lease = shard::parse_u64(lease, "result lease id")?;
                let len = shard::parse_u64(len, "result payload length")?;
                if len > MAX_PAYLOAD_BYTES {
                    let _ = write_line(&mut writer, "error\tpayload too large");
                    return Err(format!("payload of {len} bytes exceeds the cap"));
                }
                let mut buf = vec![0u8; len as usize];
                read_exact_poll(&mut reader, &mut buf, &ctx.done)?;
                let payload =
                    String::from_utf8(buf).map_err(|_| "payload is not valid UTF-8".to_owned())?;
                let spec = lock(&ctx.state).lease_spec(lease);
                let Some(spec) = spec else {
                    let _ = write_line(&mut writer, &format!("error\tunknown lease {lease}"));
                    return Err(format!("result for unknown lease {lease}"));
                };
                if let Err(e) = shard::check_slice(&payload, &ctx.grid, ctx.ratio, &ctx.cfg, spec) {
                    // A bad payload must neither enter the run nor strand
                    // the slice: reject it and free the lease for re-deal.
                    let freed = lock(&ctx.state).release_lease(lease, Instant::now());
                    if freed.is_some() {
                        eprintln!(
                            "dispatcher: rejecting bad payload for slice {spec} from {name} \
                             ({e}); re-dealing"
                        );
                    }
                    let _ = write_line(&mut writer, &format!("error\tbad payload: {e}"));
                    return Err(format!("bad payload for lease {lease}: {e}"));
                }
                match lock(&ctx.state).complete(lease, payload, Instant::now()) {
                    Completion::Accepted { slice0, wall_secs } => {
                        eprintln!(
                            "dispatcher: slice {}/{} completed by {name} in {wall_secs:.2}s",
                            slice0 + 1,
                            ctx.shards
                        );
                        write_line(&mut writer, "ok\taccepted")?;
                    }
                    Completion::Duplicate { slice0 } => {
                        ctx.duplicates.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "dispatcher: duplicate result for slice {}/{} from {name} discarded",
                            slice0 + 1,
                            ctx.shards
                        );
                        write_line(&mut writer, "ok\tduplicate")?;
                    }
                    Completion::UnknownLease => {
                        let _ = write_line(&mut writer, &format!("error\tunknown lease {lease}"));
                        return Err(format!("result for unknown lease {lease}"));
                    }
                }
            }
            _ => {
                let _ = write_line(&mut writer, "error\tmalformed request");
                return Err(format!("malformed request {line:?}"));
            }
        }
    }
}

/// Appends one run record per grid cell of a completed cluster run, with
/// the accepted lease's wall clock and the slice's re-deal count attached
/// (source `cluster:<grid>`).
///
/// The dispatcher times leases, not cells, but a lease's wall clock and
/// the mem-op counts of its cells are both known, so per-cell throughput
/// is apportioned: each cell gets the slice's aggregate rate
/// (`slice mem-ops / lease wall`) as `mem_ops_per_sec`, carried by a
/// `wall_secs` share proportional to the cell's mem-ops (the shares sum
/// back to the lease wall). Cells whose slice has no accepted wall
/// reading — or no mem-ops at all — keep zeros rather than inheriting a
/// nanosecond-clamped fiction; `reproduce query`'s `samples` column keeps
/// those visible. Before this apportionment every cluster record carried
/// `mem_ops_per_sec = 0.0` and silently vanished from query geomeans
/// while still being counted in `records`.
fn record_cluster(
    dir: &str,
    sc: &ServeConfig,
    merged: &shard::Merged,
    telemetry: &[SliceTelemetry],
) -> Result<(), String> {
    let (kinds, specs) = shard::resolve(&sc.grid)?;
    let n = specs.len();
    let total = (kinds.len() + 1) * n;
    let mut per_slot = vec![
        SliceTelemetry {
            wall_secs: 0.0,
            redeals: 0
        };
        total
    ];
    let mut slot_slice: Vec<Option<usize>> = vec![None; total];
    for (i, t) in telemetry.iter().enumerate() {
        let spec = ShardSpec {
            index: i + 1,
            count: telemetry.len(),
        };
        for key in shard::shard_cell_keys(&kinds, &specs, spec) {
            per_slot[key.slot] = *t;
            slot_slice[key.slot] = Some(i);
        }
    }
    let m = &merged.matrix;
    let mut cells: Vec<(SchemeKind, usize, &RunResult)> = Vec::with_capacity(total);
    for (w, r) in m.baseline.iter().enumerate() {
        cells.push((SchemeKind::Baseline, w, r));
    }
    for (si, row) in m.schemes.iter().enumerate() {
        for (w, r) in row.runs.iter().enumerate() {
            cells.push((row.kind, (si + 1) * n + w, r));
        }
    }
    let mut slice_ops = vec![0u64; telemetry.len()];
    for (_, slot, r) in &cells {
        if let Some(s) = slot_slice[*slot] {
            slice_ops[s] += r.mem_ops;
        }
    }

    let source = format!("cluster:{}", grid_token(&sc.grid));
    let mut log = runlog::RunLog::create(Path::new(dir), &source)?;
    for (kind, slot, r) in cells {
        let t = per_slot[slot];
        let wall = match slot_slice[slot] {
            Some(s) if t.wall_secs > 0.0 && slice_ops[s] > 0 => {
                t.wall_secs * (r.mem_ops as f64 / slice_ops[s] as f64)
            }
            _ => 0.0,
        };
        let mut rec = runlog::RunRecord::new(&source, kind, sc.ratio, &sc.cfg, r, wall)
            .with_lease(t.wall_secs, t.redeals);
        if wall <= 0.0 {
            rec.mem_ops_per_sec = 0.0;
        }
        log.append(&rec)?;
    }
    eprintln!("recorded {total} run record(s) to {}", log.path().display());
    Ok(())
}

/// Everything `reproduce worker` needs.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerConfig {
    /// Dispatcher address (`host:port`).
    pub addr: String,
    /// Worker threads for this worker's own simulations (never affects
    /// results).
    pub threads: usize,
    /// Fault injection: stall this long before simulating the first
    /// leased slice (drives the lease past its deadline in tests).
    pub fault_stall: Option<Duration>,
    /// Fault injection: send every result twice, deterministically
    /// exercising the dispatcher's duplicate-discard path.
    pub fault_duplicate: bool,
}

/// Runs the worker loop: connect (with capped-backoff retry), lease,
/// simulate (heartbeating), deliver, repeat — until the dispatcher says
/// `done` or the retry budget is exhausted.
pub fn worker(wc: &WorkerConfig) -> Result<(), String> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    let name = format!("w-{}-{:08x}", std::process::id(), nanos as u32);
    let mut backoff = Backoff::new();
    let mut stalled = false;
    loop {
        match worker_session(wc, &name, &mut stalled, &mut backoff) {
            Ok(()) => return Ok(()),
            Err(e) => match backoff.next_delay() {
                Some(delay) => {
                    eprintln!(
                        "{name}: session with {} failed ({e}); retrying in {}ms",
                        wc.addr,
                        delay.as_millis()
                    );
                    thread::sleep(delay);
                }
                None => {
                    return Err(format!(
                        "{name}: giving up on {} after {} attempts: {e}",
                        wc.addr,
                        Backoff::MAX_ATTEMPTS
                    ))
                }
            },
        }
    }
}

/// Sends one request line through the shared writer.
fn send_line(writer: &Mutex<TcpStream>, line: &str) -> Result<(), String> {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    write_line(&mut *w, line)
}

/// Sends a `result` header plus the byte-counted payload in one locked
/// write, so heartbeats can never splice into the middle.
fn send_result(writer: &Mutex<TcpStream>, lease: u64, payload: &str) -> Result<(), String> {
    let mut buf = Vec::with_capacity(payload.len() + 64);
    buf.extend_from_slice(format!("result\t{lease}\t{}\n", payload.len()).as_bytes());
    buf.extend_from_slice(payload.as_bytes());
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    w.write_all(&buf).map_err(|e| format!("cannot send: {e}"))
}

/// Reads one server reply with the worker's overall limit.
fn read_reply(reader: &mut impl BufRead) -> Result<String, String> {
    static NEVER: AtomicBool = AtomicBool::new(false);
    match read_line_poll(reader, &NEVER, Some(WORKER_REPLY_LIMIT))? {
        Read1::Line(l) => Ok(l),
        Read1::Closed => Err("dispatcher closed the connection".to_owned()),
        Read1::Stop => Err("dispatcher unresponsive".to_owned()),
    }
}

/// One connected session: hello/welcome, then lease-simulate-deliver
/// until `done`. Any I/O failure returns `Err` and the caller reconnects
/// under backoff.
fn worker_session(
    wc: &WorkerConfig,
    name: &str,
    stalled: &mut bool,
    backoff: &mut Backoff,
) -> Result<(), String> {
    let stream =
        TcpStream::connect(&wc.addr).map_err(|e| format!("cannot connect to {}: {e}", wc.addr))?;
    stream
        .set_read_timeout(Some(READ_POLL))
        .map_err(|e| format!("cannot set a read timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    let writer = Mutex::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone the stream: {e}"))?,
    );
    let mut reader = BufReader::new(stream);

    send_line(&writer, &format!("hello\t{PROTO_VERSION}\t{name}"))?;
    let welcome = read_reply(&mut reader)?;
    match welcome.split('\t').collect::<Vec<_>>().as_slice() {
        ["welcome", ver] if *ver == PROTO_VERSION => {}
        ["error", msg] => return Err(format!("dispatcher rejected hello: {msg}")),
        _ => return Err(format!("unexpected greeting {welcome:?}")),
    }
    // The dispatcher is alive: a fresh failure later deserves a fresh
    // retry budget.
    backoff.reset();

    loop {
        send_line(&writer, "next")?;
        let reply = read_reply(&mut reader)?;
        let cols: Vec<&str> = reply.split('\t').collect();
        match cols.as_slice() {
            ["done"] => {
                eprintln!("{name}: dispatcher reports the run complete");
                return Ok(());
            }
            ["wait"] => thread::sleep(WAIT_RETRY),
            ["lease", ..] => {
                let job = parse_lease(&reply)?;
                eprintln!(
                    "{name}: leased slice {} of {}",
                    job.spec,
                    grid_token(&job.grid)
                );
                if let Some(stall) = wc.fault_stall {
                    if !*stalled {
                        *stalled = true;
                        eprintln!(
                            "{name}: fault injection: stalling {:.1}s",
                            stall.as_secs_f64()
                        );
                        thread::sleep(stall);
                    }
                }
                let run = run_lease(wc, &job, &writer)?;
                send_result(&writer, job.lease, &run)?;
                let ack = read_reply(&mut reader)?;
                check_ack(name, &job, &ack)?;
                if wc.fault_duplicate {
                    eprintln!("{name}: fault injection: sending the result twice");
                    send_result(&writer, job.lease, &run)?;
                    let ack = read_reply(&mut reader)?;
                    check_ack(name, &job, &ack)?;
                }
            }
            ["error", msg] => return Err(format!("dispatcher error: {msg}")),
            _ => return Err(format!("unexpected reply {reply:?}")),
        }
    }
}

/// Interprets a result acknowledgement.
fn check_ack(name: &str, job: &LeaseJob, ack: &str) -> Result<(), String> {
    match ack.split('\t').collect::<Vec<_>>().as_slice() {
        ["ok", verdict] => {
            eprintln!("{name}: slice {} result {verdict}", job.spec);
            Ok(())
        }
        ["error", msg] => Err(format!("result for slice {} rejected: {msg}", job.spec)),
        _ => Err(format!("unexpected acknowledgement {ack:?}")),
    }
}

/// Simulates one leased slice while a sidecar thread heartbeats the
/// lease, returning the encoded shard payload.
fn run_lease(
    wc: &WorkerConfig,
    job: &LeaseJob,
    writer: &Mutex<TcpStream>,
) -> Result<String, String> {
    let cfg = EvalConfig {
        scale_den: job.scale_den,
        instrs_per_core: job.instrs_per_core,
        seed: job.seed,
        threads: wc.threads,
        batch: job.batch as usize,
        service: job.service,
    };
    let stop = AtomicBool::new(false);
    let run = thread::scope(|s| {
        s.spawn(|| {
            let mut since_beat = Duration::ZERO;
            loop {
                thread::sleep(HEARTBEAT_STEP);
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                since_beat += HEARTBEAT_STEP;
                if since_beat >= HEARTBEAT_INTERVAL {
                    since_beat = Duration::ZERO;
                    // A failed heartbeat is not fatal here: the main
                    // thread notices the broken session at delivery.
                    let _ = send_line(writer, &format!("heartbeat\t{}", job.lease));
                }
            }
        });
        let run = shard::run_shard(&job.grid, job.ratio, &cfg, job.spec);
        stop.store(true, Ordering::Relaxed);
        run
    })?;
    Ok(run.encoded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Instant {
        // A fixed origin far enough in the past that saturating
        // subtraction never clips the offsets used in tests.
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        *ORIGIN.get_or_init(Instant::now) + Duration::from_millis(ms)
    }

    fn dispatch(count: usize, deadline_ms: u64, hb_ms: u64) -> Dispatch {
        Dispatch::new(
            count,
            Duration::from_millis(deadline_ms),
            Duration::from_millis(hb_ms),
            t(0),
        )
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
        ] {
            assert!(parse_grid_token(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn lease_lines_round_trip() {
        let cfg = EvalConfig {
            scale_den: 1024,
            instrs_per_core: 60_000,
            seed: 7,
            threads: 3,
            ..EvalConfig::smoke()
        };
        let grid = GridId::Scenario {
            selector: "stream-chase".to_owned(),
        };
        let spec = ShardSpec { index: 2, count: 4 };
        let line = encode_lease(17, spec, &grid, NmRatio::TwoGb, &cfg);
        let job = parse_lease(&line).unwrap();
        assert_eq!(job.lease, 17);
        assert_eq!(job.spec, spec);
        assert_eq!(job.grid, grid);
        assert_eq!(job.ratio, NmRatio::TwoGb);
        assert_eq!(job.scale_den, 1024);
        assert_eq!(job.instrs_per_core, 60_000);
        assert_eq!(job.seed, 7);
        assert_eq!(job.batch, cfg.batch as u64);
        assert_eq!(job.service, cfg.service);

        let mut queued = cfg;
        queued.service = dram::ServiceModel::Queued { depth: 4 };
        let line = encode_lease(18, spec, &grid, NmRatio::TwoGb, &queued);
        assert_eq!(
            parse_lease(&line).unwrap().service,
            dram::ServiceModel::Queued { depth: 4 }
        );
        for bad in [
            "",
            "lease\t1",
            "lease\tx\t1/2\tscenario:all\t1gb\t64\t1\t1\t1",
            "result\t1\t2",
        ] {
            assert!(parse_lease(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn backoff_caps_and_exhausts() {
        let mut b = Backoff::new();
        let mut delays = Vec::new();
        while let Some(d) = b.next_delay() {
            delays.push(d);
        }
        assert_eq!(delays.len() as u32, Backoff::MAX_ATTEMPTS);
        assert_eq!(delays[0], Backoff::BASE);
        assert!(delays.windows(2).all(|p| p[0] <= p[1]), "{delays:?}");
        assert!(delays.iter().all(|d| *d <= Backoff::CAP), "{delays:?}");
        assert_eq!(*delays.last().unwrap(), Backoff::CAP);
        assert!(b.next_delay().is_none(), "budget must stay exhausted");
        b.reset();
        assert_eq!(b.next_delay(), Some(Backoff::BASE));
    }

    #[test]
    fn deal_covers_each_slice_exactly_once() {
        let mut d = dispatch(3, 1000, 5000);
        let mut specs = Vec::new();
        while let Some((_, spec)) = d.deal(t(1)) {
            specs.push(spec.index);
        }
        assert_eq!(specs, vec![1, 2, 3]);
        assert!(d.deal(t(2)).is_none(), "nothing pending to deal");
        assert!(!d.all_done());
    }

    #[test]
    fn expire_redeals_on_deadline_even_with_heartbeats() {
        let mut d = dispatch(1, 1000, 5000);
        let (lease, _) = d.deal(t(0)).unwrap();
        // Heartbeats keep flowing, but the absolute deadline still fires:
        // a stalled-but-chatty worker cannot hold a slice forever.
        d.heartbeat(lease, t(900));
        assert!(d.expire(t(999)).is_empty());
        let ex = d.expire(t(1000));
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].reason, "deadline");
        // The slice is pending again and a re-deal counts.
        let (lease2, _) = d.deal(t(1001)).unwrap();
        assert_ne!(lease, lease2);
        assert_eq!(d.total_redeals(), 1);
    }

    #[test]
    fn expire_redeals_on_heartbeat_loss_before_the_deadline() {
        let mut d = dispatch(1, 60_000, 5000);
        let (lease, _) = d.deal(t(0)).unwrap();
        d.heartbeat(lease, t(1000));
        assert!(d.expire(t(5999)).is_empty(), "heartbeat at 1s holds to 6s");
        let ex = d.expire(t(6000));
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].reason, "heartbeat");
    }

    #[test]
    fn first_result_wins_and_duplicates_are_discarded() {
        let mut d = dispatch(1, 1000, 5000);
        let (lease1, _) = d.deal(t(0)).unwrap();
        // Deadline passes, the slice is re-dealt...
        assert_eq!(d.expire(t(1000)).len(), 1);
        let (lease2, _) = d.deal(t(1100)).unwrap();
        // ...but the original straggler finishes first: accepted, with
        // the wall clock measured from *its* deal.
        match d.complete(lease1, "payload-a".to_owned(), t(1500)) {
            Completion::Accepted { slice0, wall_secs } => {
                assert_eq!(slice0, 0);
                assert!((wall_secs - 1.5).abs() < 1e-9, "{wall_secs}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The re-dealt lease's result is a duplicate — discarded, not
        // double-counted, and the stored payload stays the winner's.
        assert_eq!(
            d.complete(lease2, "payload-b".to_owned(), t(1600)),
            Completion::Duplicate { slice0: 0 }
        );
        assert!(d.all_done());
        assert_eq!(d.total_redeals(), 1);
        let payloads = d.into_payloads().unwrap();
        assert_eq!(
            payloads,
            vec![("slice-1".to_owned(), "payload-a".to_owned())]
        );
    }

    #[test]
    fn unknown_lease_is_rejected() {
        let mut d = dispatch(1, 1000, 5000);
        assert_eq!(
            d.complete(42, "x".to_owned(), t(1)),
            Completion::UnknownLease
        );
        assert!(d.lease_spec(42).is_none());
    }

    #[test]
    fn release_frees_only_the_current_holder() {
        let mut d = dispatch(2, 10_000, 5000);
        let (lease1, _) = d.deal(t(0)).unwrap();
        let (lease2, _) = d.deal(t(0)).unwrap();
        // Losing the connection behind lease1 frees its slice...
        assert_eq!(d.release_lease(lease1, t(100)), Some(0));
        let (lease3, spec3) = d.deal(t(200)).unwrap();
        assert_eq!(spec3.index, 1, "the freed slice is re-dealt first");
        // ...but a late release of the *stale* lease must not free the
        // re-dealt slice out from under lease3.
        assert_eq!(d.release_lease(lease1, t(300)), None);
        assert!(d.lease_spec(lease3).is_some());
        // Releasing a completed slice is likewise a no-op.
        let Completion::Accepted { .. } = d.complete(lease2, "p".to_owned(), t(400)) else {
            panic!("first result must be accepted");
        };
        assert_eq!(d.release_lease(lease2, t(500)), None);
        assert_eq!(d.total_redeals(), 1);
    }

    #[test]
    fn takeover_fires_only_without_progress() {
        let mut d = dispatch(2, 1000, 5000);
        // Nothing dealt, no progress: both slices become overdue a full
        // deadline after creation — the zero-workers-ever case.
        assert_eq!(d.overdue_pending(t(999)), None);
        assert_eq!(d.overdue_pending(t(1000)), Some(0));
        // Dealing slice 1 and accepting its result counts as progress,
        // pushing slice 2's takeover out by a fresh deadline.
        let (lease, _) = d.deal(t(1000)).unwrap();
        let Completion::Accepted { .. } = d.complete(lease, "p".to_owned(), t(1500)) else {
            panic!("first result must be accepted");
        };
        assert_eq!(d.overdue_pending(t(2499)), None);
        assert_eq!(d.overdue_pending(t(2500)), Some(1));
        // A takeover deal occupies the slice like any lease.
        let (_, spec) = d.deal_slice(1, t(2500));
        assert_eq!(spec.index, 2);
        assert_eq!(d.overdue_pending(t(9999)), None);
    }

    #[test]
    fn telemetry_reports_wall_and_redeals_per_slice() {
        let mut d = dispatch(2, 1000, 5000);
        let (lease1, _) = d.deal(t(0)).unwrap();
        let (lease2, _) = d.deal(t(0)).unwrap();
        assert_eq!(d.expire(t(1000)).len(), 2);
        let (lease3, _) = d.deal(t(1100)).unwrap();
        let Completion::Accepted { .. } = d.complete(lease3, "a".to_owned(), t(1400)) else {
            panic!("accepted");
        };
        let Completion::Accepted { .. } = d.complete(lease2, "b".to_owned(), t(2000)) else {
            panic!("late first result for slice 2 still wins");
        };
        assert_eq!(
            d.complete(lease1, "c".to_owned(), t(2100)),
            Completion::Duplicate { slice0: 0 }
        );
        let tele = d.telemetry();
        assert_eq!(tele.len(), 2);
        // Slice 1: re-dealt once, accepted lease took 0.3s.
        assert_eq!(tele[0].redeals, 1);
        assert!(
            (tele[0].wall_secs - 0.3).abs() < 1e-9,
            "{}",
            tele[0].wall_secs
        );
        // Slice 2: expired but never dealt a second time (no re-deal),
        // won by its original lease dealt at t=0 and completed at t=2.0.
        assert_eq!(tele[1].redeals, 0);
        assert!(
            (tele[1].wall_secs - 2.0).abs() < 1e-9,
            "{}",
            tele[1].wall_secs
        );
    }

    #[test]
    fn into_payloads_names_the_incomplete_slice() {
        let mut d = dispatch(3, 1000, 5000);
        let (lease, _) = d.deal(t(0)).unwrap();
        let Completion::Accepted { .. } = d.complete(lease, "p".to_owned(), t(1)) else {
            panic!("accepted");
        };
        let e = d.into_payloads().unwrap_err();
        assert!(e.contains("2/3"), "{e}");
    }

    #[test]
    fn serve_rejects_degenerate_configs() {
        let sc = ServeConfig {
            grid: GridId::Scenario {
                selector: "stream-chase".to_owned(),
            },
            ratio: NmRatio::OneGb,
            cfg: EvalConfig::smoke(),
            shards: 0,
            workers_expected: 1,
            deadline: Duration::from_secs(1),
            listen: "127.0.0.1:0".to_owned(),
            addr_file: None,
            runlog: None,
        };
        assert!(serve(&sc).unwrap_err().contains("--shards"));
        let zero_deadline = ServeConfig {
            shards: 1,
            deadline: Duration::ZERO,
            ..sc.clone()
        };
        assert!(serve(&zero_deadline)
            .unwrap_err()
            .contains("--deadline-secs"));
        let bad_grid = ServeConfig {
            shards: 1,
            grid: GridId::Scenario {
                selector: "no-such-scenario".to_owned(),
            },
            ..sc
        };
        assert!(serve(&bad_grid).unwrap_err().contains("no-such-scenario"));
    }
}
