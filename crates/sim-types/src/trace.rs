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

/// A trivial source backed by a vector, used in tests and examples.
#[derive(Clone, Debug)]
pub struct VecTrace {
    ops: std::vec::IntoIter<TraceOp>,
}

impl VecTrace {
    /// Wraps a vector of operations.
    pub fn new(ops: Vec<TraceOp>) -> Self {
        VecTrace {
            ops: ops.into_iter(),
        }
    }
}

impl TraceSource for VecTrace {
    fn next_op(&mut self) -> Option<TraceOp> {
        self.ops.next()
    }
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

    #[test]
    fn vec_trace_yields_in_order_then_none() {
        let mut t = VecTrace::new(vec![
            TraceOp::load(1, VAddr::new(0)),
            TraceOp::store(2, VAddr::new(64)),
        ]);
        assert_eq!(t.next_op().unwrap().gap, 1);
        assert_eq!(t.next_op().unwrap().gap, 2);
        assert!(t.next_op().is_none());
        assert!(t.next_op().is_none());
    }
}
