//! The memory-service layer: requests.
//!
//! Every memory operation a scheme performs — demand line reads, metadata
//! probes, migration bursts — is expressed as one [`ServiceRequest`]: the
//! device-level [`DramAccess`] plus the side it targets and a back-to-back
//! repeat count. The system answers with the cycle the (last) access
//! completes. Requests flow straight into the closed-form bank/bus timing
//! calculator: there is no controller queue and no arbitration.

use sim_types::MemSide;

use crate::device::DramAccess;

/// The memory-service model. It has one value, [`ServiceModel::Unbounded`],
/// and stays only until `benchmark/` stops using it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ServiceModel {
    /// Infinite queue depth: the closed-form timing calculator.
    #[default]
    Unbounded,
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

#[cfg(test)]
mod tests {
    use super::*;
    use sim_types::{AccessKind, Cycle, TrafficClass};

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
    fn request_builder_defaults_to_single_access() {
        let r = ServiceRequest::new(MemSide::Nm, acc(0));
        assert_eq!(r.count, 1);
        assert_eq!(r.with_count(8).count, 8);
    }
}
