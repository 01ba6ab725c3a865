//! Causal spans: typed, parent-linked time intervals.
//!
//! The paper's central measurements are *time decompositions* — where a
//! reference's latency goes (directory lookup, home forwarding, data
//! reply, network hops) and where recovery time goes after a fault
//! (detection, reconfiguration, rollback, re-execution). A [`SpanRecord`]
//! is one measured interval of such a phase; records link to a parent
//! span, so a remote miss becomes a small causal tree rooted at its
//! transaction span and a recovery becomes a tree rooted at the recovery
//! span.
//!
//! The machine collects records in a [`Ring`](crate::ring::Ring), like
//! its protocol trace: capacity 0 is a no-op sink (the zero-cost-when-
//! disabled invariant), a bounded one retains the **newest** closed spans
//! and evicts the oldest. Records are pushed when a span *closes*, so
//! eviction can never drop the most recent span-close events.
//!
//! # Example
//!
//! ```
//! use ftcoma_sim::ring::Ring;
//! use ftcoma_sim::span::{SpanPhase, SpanRecord};
//!
//! let mut log = Ring::new(16);
//! log.push(SpanRecord { id: 2, parent: 1, phase: SpanPhase::DirLookup,
//!                       node: 3, start: 100, end: 130 });
//! log.push(SpanRecord { id: 1, parent: 0, phase: SpanPhase::Transaction,
//!                       node: 0, start: 100, end: 216 });
//! let root = log.iter().find(|s| s.parent == 0).unwrap();
//! assert_eq!(root.duration(), 116);
//! ```

use crate::Cycles;

/// Identifier of a span within one run. `0` means "no span" and is never
/// allocated; parent links use it for roots.
pub type SpanId = u64;

/// The typed phase a span measures.
///
/// The first group decomposes a memory transaction (a reference that
/// missed and stalled its processor); the second decomposes a recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// Root span of one stalled memory reference: processor stall to
    /// resume.
    Transaction,
    /// Request leg: requester → home-node directory (ReadReq/WriteReq in
    /// flight).
    DirLookup,
    /// Forwarded leg: home directory → current owner (ReadFwd/WriteFwd).
    HomeFwd,
    /// Data leg: data or grant travelling back to the requester.
    DataReply,
    /// One router-to-router hop of a message on the mesh.
    NetHop,
    /// Root span of one fault recovery: detection through replay.
    Recovery,
    /// Fault detection (zero-length under the fail-stop model).
    Detection,
    /// Global rollback to the last recovery point (per-node scans).
    Rollback,
    /// Directory reconfiguration and copy promotion after the rollback.
    Reconfiguration,
    /// Re-execution of the work lost between the recovery point and the
    /// fault, ending at the first post-recovery commit.
    Replay,
}

impl SpanPhase {
    /// Stable lowercase name used by every exporter.
    pub fn name(&self) -> &'static str {
        match self {
            SpanPhase::Transaction => "transaction",
            SpanPhase::DirLookup => "dir_lookup",
            SpanPhase::HomeFwd => "home_fwd",
            SpanPhase::DataReply => "data_reply",
            SpanPhase::NetHop => "net_hop",
            SpanPhase::Recovery => "recovery",
            SpanPhase::Detection => "detection",
            SpanPhase::Rollback => "rollback",
            SpanPhase::Reconfiguration => "reconfiguration",
            SpanPhase::Replay => "replay",
        }
    }

    /// Inverse of [`SpanPhase::name`].
    pub fn from_name(name: &str) -> Option<SpanPhase> {
        Some(match name {
            "transaction" => SpanPhase::Transaction,
            "dir_lookup" => SpanPhase::DirLookup,
            "home_fwd" => SpanPhase::HomeFwd,
            "data_reply" => SpanPhase::DataReply,
            "net_hop" => SpanPhase::NetHop,
            "recovery" => SpanPhase::Recovery,
            "detection" => SpanPhase::Detection,
            "rollback" => SpanPhase::Rollback,
            "reconfiguration" => SpanPhase::Reconfiguration,
            "replay" => SpanPhase::Replay,
            _ => return None,
        })
    }

    /// Does this phase belong to the recovery decomposition (rather than
    /// the transaction one)?
    pub fn is_recovery(&self) -> bool {
        matches!(
            self,
            SpanPhase::Recovery
                | SpanPhase::Detection
                | SpanPhase::Rollback
                | SpanPhase::Reconfiguration
                | SpanPhase::Replay
        )
    }
}

impl std::fmt::Display for SpanPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One closed span: a measured interval with causal parentage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id (unique within a run, never 0).
    pub id: SpanId,
    /// Parent span id, or 0 for a root.
    pub parent: SpanId,
    /// What the interval measures.
    pub phase: SpanPhase,
    /// The node the phase executed on (for message legs: the receiver).
    pub node: u16,
    /// Interval start, in cycles.
    pub start: Cycles,
    /// Interval end, in cycles (`end >= start`).
    pub end: Cycles,
}

impl SpanRecord {
    /// Length of the interval in cycles.
    pub fn duration(&self) -> Cycles {
        self.end - self.start
    }
}

/// The span-id counter of one run: hands out 1, 2, 3, … while span
/// capture is on, and 0 ("no span") while it is off, so parent links stay
/// inert.
#[derive(Debug, Clone)]
pub struct SpanIds {
    on: bool,
    last: SpanId,
}

impl SpanIds {
    /// A counter for a run with span capture `on` or off.
    pub fn new(on: bool) -> Self {
        Self { on, last: 0 }
    }

    /// A fresh id, or 0 while capture is off.
    pub fn alloc(&mut self) -> SpanId {
        if self.on {
            self.last += 1;
        }
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Ring;

    fn rec(id: SpanId, end: Cycles) -> SpanRecord {
        SpanRecord {
            id,
            parent: 0,
            phase: SpanPhase::Transaction,
            node: 0,
            start: end.saturating_sub(10),
            end,
        }
    }

    #[test]
    fn disabled_log_is_inert() {
        let mut log = Ring::new(0);
        assert!(!log.enabled());
        assert_eq!(SpanIds::new(log.enabled()).alloc(), 0);
        log.push(rec(1, 50));
        assert_eq!(log.iter().count(), 0);
    }

    #[test]
    fn ids_are_dense_and_nonzero() {
        let mut ids = SpanIds::new(true);
        assert_eq!([ids.alloc(), ids.alloc(), ids.alloc()], [1, 2, 3]);
    }

    /// Ring wraparound evicts the *oldest* closes; the newest span-close
    /// events are always retained.
    #[test]
    fn wraparound_keeps_newest_closes() {
        let mut log = Ring::new(3);
        let mut ids = SpanIds::new(true);
        for end in 1..=10u64 {
            log.push(rec(ids.alloc(), end));
        }
        assert_eq!(
            log.iter().map(|r| r.end).collect::<Vec<_>>(),
            vec![8, 9, 10],
            "eviction must drop the oldest closes, never the newest"
        );
    }

    #[test]
    fn phase_names_round_trip() {
        for phase in [
            SpanPhase::Transaction,
            SpanPhase::DirLookup,
            SpanPhase::HomeFwd,
            SpanPhase::DataReply,
            SpanPhase::NetHop,
            SpanPhase::Recovery,
            SpanPhase::Detection,
            SpanPhase::Rollback,
            SpanPhase::Reconfiguration,
            SpanPhase::Replay,
        ] {
            assert_eq!(SpanPhase::from_name(phase.name()), Some(phase));
        }
        assert_eq!(SpanPhase::from_name("bogus"), None);
        assert!(SpanPhase::Rollback.is_recovery());
        assert!(!SpanPhase::DataReply.is_recovery());
    }
}
