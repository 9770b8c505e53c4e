//! The data side the three DRAM caches share (Tagless, DFC and IDEAL).
//!
//! A hit reads or writes the resident copy in NM. A miss serves the
//! critical access from FM, writes the frame's dirty victim back whole and
//! fills the whole missing line into the frame. Each cache keeps only its
//! own placement and lookup cost.

use dram::{DramAccess, DramSystem, SchemeStats, Served};
use sim_types::{Cycle, MemReq, MemSide, TrafficClass};

/// Serves `req` from its resident copy at NM device address `nm_addr`,
/// once the lookup is known at `at`.
#[inline]
pub(crate) fn hit(
    req: &MemReq,
    nm_addr: u64,
    at: Cycle,
    dram: &mut DramSystem,
    stats: &mut SchemeStats,
) -> Served {
    stats.lookup_hits += 1;
    stats.served_from_nm += 1;
    let done = dram
        .device_mut(MemSide::Nm)
        .serve(DramAccess::demand(req, nm_addr, at));
    Served::new(done, true)
}

/// The lines one miss moves.
pub(crate) struct Fill {
    /// Processor address of the missing line.
    pub line: u64,
    /// Processor address of the line the frame held, when it is dirty.
    pub dirty_victim: Option<u64>,
    /// NM device address of the frame the line fills.
    pub frame: u64,
    /// The line's 64 B chunks, as a copy mask.
    pub chunks: u64,
}

/// Serves a miss on `req` whose lookup is known at `at`, over `fm_bytes`
/// of FM: the critical access from FM (class `Fill` for a write, whose
/// line the fill brings in), the dirty victim's writeback at `req.at`,
/// then the fill once the critical data is back. A write completes when
/// it is accepted, at `req.at`.
#[inline]
pub(crate) fn miss(
    req: &MemReq,
    at: Cycle,
    fm_bytes: u64,
    fill: Fill,
    dram: &mut DramSystem,
    stats: &mut SchemeStats,
) -> Served {
    stats.lookup_misses += 1;
    let write = req.kind.is_write();
    let critical = dram.device_mut(MemSide::Fm).serve(DramAccess {
        addr: req.addr.raw() % fm_bytes,
        bytes: req.bytes,
        kind: req.kind,
        class: if write {
            TrafficClass::Fill
        } else {
            TrafficClass::Demand
        },
        at,
    });
    let frame = (MemSide::Nm, fill.frame);
    if let Some(victim) = fill.dirty_victim {
        let home = (MemSide::Fm, victim % fm_bytes);
        dram.copy_lines(
            fill.chunks,
            frame,
            home,
            64,
            TrafficClass::Writeback,
            req.at,
        );
        stats.dirty_writebacks += 1;
    }
    let home = (MemSide::Fm, fill.line % fm_bytes);
    dram.copy_lines(fill.chunks, home, frame, 64, TrafficClass::Fill, critical);
    stats.moved_into_nm += 1;
    Served::new(if write { req.at } else { critical }, false)
}
