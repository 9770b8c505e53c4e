//! The trace vocabulary: what a workload feeds a core.
//!
//! The paper drives its simulator with Pin-captured instruction traces; we
//! drive ours with synthesized ones (the `workloads` crate). Either way a trace
//! is a sequence of [`TraceOp`]s: "execute `gap` non-memory instructions,
//! then perform this memory access".

use crate::{AccessKind, VAddr};

/// One step of a workload trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Number of non-memory instructions retired before this access.
    pub gap: u32,
    /// Virtual address of the access.
    pub addr: VAddr,
    /// Load or store.
    pub kind: AccessKind,
}

impl TraceOp {
    /// Convenience constructor for a load.
    pub fn load(gap: u32, addr: VAddr) -> Self {
        TraceOp {
            gap,
            addr,
            kind: AccessKind::Read,
        }
    }

    /// Convenience constructor for a store.
    pub fn store(gap: u32, addr: VAddr) -> Self {
        TraceOp {
            gap,
            addr,
            kind: AccessKind::Write,
        }
    }

    /// Instructions this op accounts for (the gap plus the access itself).
    pub fn instructions(&self) -> u64 {
        u64::from(self.gap) + 1
    }
}

/// A (possibly infinite) stream of trace operations for one hardware thread.
///
/// Generators in the `workloads` crate implement this; the core model pulls
/// from it. Streams are deterministic: two sources built with the same seed
/// yield identical sequences.
pub trait TraceSource {
    /// Produces the next operation, or `None` if the trace is exhausted.
    fn next_op(&mut self) -> Option<TraceOp>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let l = TraceOp::load(3, VAddr::new(64));
        assert_eq!(l.kind, AccessKind::Read);
        assert_eq!(l.instructions(), 4);
        let s = TraceOp::store(0, VAddr::new(0));
        assert_eq!(s.kind, AccessKind::Write);
        assert_eq!(s.instructions(), 1);
    }
}
