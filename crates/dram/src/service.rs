//! The memory-service layer: requests and bounded queues.
//!
//! Every memory operation a scheme performs — demand line reads, metadata
//! probes, migration bursts — is expressed as one [`ServiceRequest`]: the
//! device-level [`DramAccess`] plus the side it targets and a back-to-back
//! repeat count. The system answers with the cycle the (last) access
//! completes.
//!
//! Two service models are offered (see [`ServiceModel`]):
//!
//! * **`Unbounded`** (the default) — infinite queue depth, zero arbitration:
//!   requests flow straight into the closed-form bank/bus timing calculator.
//!   Every pinned golden and paper figure uses it.
//! * **`Queued { depth }`** — each channel front-ends the calculator with a
//!   bounded FIFO of in-flight requests. A request that finds its queue full
//!   suffers explicit [`Backpressure`]: it is admitted only when the oldest
//!   in-flight entry drains, and the stall is charged on top of the usual
//!   CAS/RCD/RP timing and counted in the device's `queue_stalls` and
//!   `queue_stall_cycles`.

use std::collections::VecDeque;

use sim_types::{Cycle, MemSide};

use crate::device::DramAccess;

/// Queue depth used by `queued` when no explicit depth is given.
pub const DEFAULT_QUEUE_DEPTH: u32 = 8;

/// How a device arbitrates requests ahead of the timing calculator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ServiceModel {
    /// Infinite queue depth: the closed-form reference path. Byte-identical
    /// to the pre-service-layer simulator.
    #[default]
    Unbounded,
    /// Bounded per-channel FIFO queues of `depth` in-flight requests each;
    /// overflow produces [`Backpressure`].
    Queued {
        /// Maximum in-flight requests per channel queue.
        depth: u32,
    },
}

impl ServiceModel {
    /// Parses a CLI/wire token: `unbounded`, `queued` (default depth) or
    /// `queued:<depth>` with a positive depth. Returns `None` on anything
    /// else, including a zero depth.
    pub fn parse(token: &str) -> Option<ServiceModel> {
        match token {
            "unbounded" => Some(ServiceModel::Unbounded),
            "queued" => Some(ServiceModel::Queued {
                depth: DEFAULT_QUEUE_DEPTH,
            }),
            _ => {
                let depth = token.strip_prefix("queued:")?.parse::<u32>().ok()?;
                if depth == 0 {
                    None
                } else {
                    Some(ServiceModel::Queued { depth })
                }
            }
        }
    }

    /// The canonical token form (`unbounded` / `queued:<depth>`), used in
    /// run records and config digests. Inverse of [`ServiceModel::parse`].
    pub fn token(&self) -> String {
        match self {
            ServiceModel::Unbounded => "unbounded".to_string(),
            ServiceModel::Queued { depth } => format!("queued:{depth}"),
        }
    }

    /// The bounded queue depth, or 0 under [`ServiceModel::Unbounded`].
    pub fn queue_depth(&self) -> u32 {
        match self {
            ServiceModel::Unbounded => 0,
            ServiceModel::Queued { depth } => *depth,
        }
    }
}

impl core::fmt::Display for ServiceModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.token())
    }
}

/// One request to the memory system.
///
/// `count > 1` requests `count` back-to-back accesses of `access.bytes`
/// starting at `access.addr`, all arriving at `access.at` (sector
/// migrations, page fills) — the old `burst` entry point folded into the
/// one request struct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceRequest {
    /// Which device serves the request.
    pub side: MemSide,
    /// Number of back-to-back line accesses (1 for a single access).
    pub count: u32,
    /// The device-level access (address, bytes, kind, class, arrival).
    pub access: DramAccess,
}

impl ServiceRequest {
    /// A single-access request.
    pub fn new(side: MemSide, access: DramAccess) -> Self {
        ServiceRequest {
            side,
            count: 1,
            access,
        }
    }

    /// Turns this into a `count`-access burst (stride `access.bytes`).
    #[must_use]
    pub fn with_count(mut self, count: u32) -> Self {
        self.count = count;
        self
    }
}

/// A full service queue pushing back on an arriving request.
///
/// `until` is the cycle the oldest in-flight entry drains, i.e. the earliest
/// cycle the request can be admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backpressure {
    /// Earliest admission cycle.
    pub until: Cycle,
}

/// A bounded FIFO of in-flight completion cycles guarding one channel.
///
/// Entries are the completion (drain) cycles of admitted requests, pushed in
/// program order; because a channel's data bus serves requests in order, the
/// entries are non-decreasing, so the front is always the earliest drain. Admission
/// first retires every entry that has drained by the arrival cycle; if the
/// queue is still at `depth`, the arrival suffers [`Backpressure`] until the
/// front drains (which frees its slot).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BoundedQueue {
    done: VecDeque<Cycle>,
}

impl BoundedQueue {
    /// An empty queue.
    pub fn new() -> Self {
        BoundedQueue::default()
    }

    /// Tries to admit a request arriving at `at` into a queue bounded at
    /// `depth`. On success the request is admitted immediately (`Ok(at)`);
    /// on a full queue it returns the [`Backpressure`] point, *consuming*
    /// the drained front slot so the caller can admit at `until`.
    pub fn admit(&mut self, at: Cycle, depth: u32) -> Result<Cycle, Backpressure> {
        while self.done.front().is_some_and(|&d| d <= at) {
            self.done.pop_front();
        }
        if self.done.len() < depth as usize {
            Ok(at)
        } else {
            let until = self
                .done
                .pop_front()
                .expect("queue at positive depth is non-empty");
            Err(Backpressure { until })
        }
    }

    /// Records an admitted request's completion cycle.
    pub fn push(&mut self, done: Cycle) {
        debug_assert!(
            self.done.back().is_none_or(|&d| d <= done),
            "channel completions must be non-decreasing"
        );
        self.done.push_back(done);
    }

    /// Requests currently in flight (as of the last admit).
    pub fn occupancy(&self) -> usize {
        self.done.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_types::{AccessKind, TrafficClass};

    fn acc(at: u64) -> DramAccess {
        DramAccess {
            addr: 0,
            bytes: 64,
            kind: AccessKind::Read,
            class: TrafficClass::Demand,
            at: Cycle::new(at),
        }
    }

    #[test]
    fn model_tokens_round_trip() {
        for m in [
            ServiceModel::Unbounded,
            ServiceModel::Queued { depth: 1 },
            ServiceModel::Queued { depth: 8 },
            ServiceModel::Queued { depth: 4096 },
        ] {
            assert_eq!(ServiceModel::parse(&m.token()), Some(m));
        }
        assert_eq!(
            ServiceModel::parse("queued"),
            Some(ServiceModel::Queued {
                depth: DEFAULT_QUEUE_DEPTH
            })
        );
    }

    #[test]
    fn model_parse_rejects_garbage() {
        for bad in [
            "",
            "bounded",
            "queued:",
            "queued:0",
            "queued:-1",
            "queued:x",
            "QUEUED",
        ] {
            assert_eq!(ServiceModel::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn model_default_is_unbounded() {
        assert_eq!(ServiceModel::default(), ServiceModel::Unbounded);
        assert_eq!(ServiceModel::Unbounded.queue_depth(), 0);
        assert_eq!(ServiceModel::Queued { depth: 5 }.queue_depth(), 5);
    }

    #[test]
    fn request_builder_defaults_to_single_access() {
        let r = ServiceRequest::new(MemSide::Nm, acc(0));
        assert_eq!(r.count, 1);
        assert_eq!(r.with_count(8).count, 8);
    }

    #[test]
    fn empty_queue_admits_immediately() {
        let mut q = BoundedQueue::new();
        assert_eq!(q.admit(Cycle::new(10), 1), Ok(Cycle::new(10)));
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    fn full_queue_pushes_back_until_front_drains() {
        let mut q = BoundedQueue::new();
        q.push(Cycle::new(100));
        q.push(Cycle::new(200));
        // Depth 2, both in flight at cycle 50: backpressure to the front.
        assert_eq!(
            q.admit(Cycle::new(50), 2),
            Err(Backpressure {
                until: Cycle::new(100)
            })
        );
        // The drained slot was consumed; only the 200 entry remains.
        assert_eq!(q.occupancy(), 1);
    }

    #[test]
    fn drained_entries_retire_before_admission() {
        let mut q = BoundedQueue::new();
        q.push(Cycle::new(100));
        q.push(Cycle::new(200));
        // At cycle 150 the first entry has drained: depth 2 admits.
        assert_eq!(q.admit(Cycle::new(150), 2), Ok(Cycle::new(150)));
        assert_eq!(q.occupancy(), 1);
    }
}
