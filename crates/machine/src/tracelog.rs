//! Protocol event tracing.
//!
//! When enabled ([`crate::MachineConfig::trace_capacity`] > 0), the machine
//! records the last N protocol-level events in a bounded ring
//! ([`ftcoma_sim::ring::Ring`]) — message deliveries, checkpoint phases,
//! failures and repairs — for post-mortem inspection. Tracing never affects
//! simulated timing.
//!
//! # Example
//!
//! ```
//! use ftcoma_machine::{Machine, MachineConfig};
//! use ftcoma_machine::tracelog::TraceEvent;
//! use ftcoma_core::FtConfig;
//! use ftcoma_workloads::presets;
//!
//! let mut m = Machine::new(MachineConfig {
//!     nodes: 4,
//!     refs_per_node: 20_000,
//!     workload: presets::water(),
//!     ft: FtConfig::enabled(400.0),
//!     trace_capacity: 200_000,
//!     ..MachineConfig::default()
//! });
//! m.run();
//! let ckpts = m
//!     .trace()
//!     .iter()
//!     .filter(|e| matches!(e, TraceEvent::CheckpointCommitted { .. }))
//!     .count();
//! assert!(ckpts > 0);
//! ```

use ftcoma_mem::{ItemId, NodeId};
use ftcoma_sim::Cycles;

/// One traced protocol event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A coherence message was delivered.
    Delivery {
        /// Delivery time.
        at: Cycles,
        /// Receiving node.
        to: NodeId,
        /// Message kind (see `Msg::kind`).
        kind: &'static str,
        /// Item concerned.
        item: ItemId,
    },
    /// A recovery-point establishment entered its create phase (all
    /// processors quiesced; item securing begins).
    CheckpointBegun {
        /// Create-phase start time.
        at: Cycles,
        /// Generation number being established.
        gen: u64,
    },
    /// A recovery point committed.
    CheckpointCommitted {
        /// Commit time.
        at: Cycles,
        /// Generation number.
        gen: u64,
    },
    /// One node's commit scan during a recovery-point commit.
    NodeCommit {
        /// Commit start time (shared by all nodes of the checkpoint).
        at: Cycles,
        /// The node.
        node: NodeId,
        /// Scan duration in cycles.
        dur: Cycles,
    },
    /// One node's rollback scan after a failure.
    NodeRollback {
        /// Rollback start time (the failure instant).
        at: Cycles,
        /// The node.
        node: NodeId,
        /// Scan duration in cycles.
        dur: Cycles,
    },
    /// A mesh link was cut (both directions).
    LinkCut {
        /// Cut time.
        at: Cycles,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A mesh router went down (its node becomes unreachable).
    RouterDown {
        /// Failure time.
        at: Cycles,
        /// The node whose router died.
        node: NodeId,
    },
    /// A failure was injected.
    Failure {
        /// Failure time.
        at: Cycles,
        /// Failed node.
        node: NodeId,
        /// Whether the node is gone for good.
        permanent: bool,
    },
    /// A fault landed inside an open recovery window: the in-flight
    /// recovery was abandoned and restarted with the new victim folded
    /// into the failure set. Follows the victim's own `Failure` event.
    RecoveryRestarted {
        /// Restart time (the nested fault's injection time).
        at: Cycles,
        /// The nested fault's victim.
        node: NodeId,
        /// Faults folded into the episode so far (2 = first restart).
        depth: u64,
    },
    /// Recovery (rollback + any reconfiguration) finished.
    Recovered {
        /// Completion time.
        at: Cycles,
    },
    /// A replacement node rejoined.
    Repaired {
        /// Rejoin time.
        at: Cycles,
        /// The node.
        node: NodeId,
    },
    /// A severed mesh link was restored (both directions).
    LinkRepaired {
        /// Repair time.
        at: Cycles,
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

impl TraceEvent {
    /// Event timestamp.
    pub fn at(&self) -> Cycles {
        match self {
            TraceEvent::Delivery { at, .. }
            | TraceEvent::CheckpointBegun { at, .. }
            | TraceEvent::CheckpointCommitted { at, .. }
            | TraceEvent::NodeCommit { at, .. }
            | TraceEvent::NodeRollback { at, .. }
            | TraceEvent::LinkCut { at, .. }
            | TraceEvent::RouterDown { at, .. }
            | TraceEvent::Failure { at, .. }
            | TraceEvent::RecoveryRestarted { at, .. }
            | TraceEvent::Recovered { at }
            | TraceEvent::Repaired { at, .. }
            | TraceEvent::LinkRepaired { at, .. } => *at,
        }
    }

    /// Stable lowercase kind tag, used by the structured exporters.
    pub fn kind_tag(&self) -> &'static str {
        match self {
            TraceEvent::Delivery { .. } => "delivery",
            TraceEvent::CheckpointBegun { .. } => "checkpoint_begun",
            TraceEvent::CheckpointCommitted { .. } => "checkpoint_committed",
            TraceEvent::NodeCommit { .. } => "node_commit",
            TraceEvent::NodeRollback { .. } => "node_rollback",
            TraceEvent::LinkCut { .. } => "link_cut",
            TraceEvent::RouterDown { .. } => "router_down",
            TraceEvent::Failure { .. } => "failure",
            TraceEvent::RecoveryRestarted { .. } => "recovery_restarted",
            TraceEvent::Recovered { .. } => "recovered",
            TraceEvent::Repaired { .. } => "repaired",
            TraceEvent::LinkRepaired { .. } => "link_repaired",
        }
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::Delivery { at, to, kind, item } => {
                write!(f, "{at:>12} {to}  <- {kind} {item}")
            }
            TraceEvent::CheckpointBegun { at, gen } => {
                write!(f, "{at:>12} recovery point {gen} create phase begun")
            }
            TraceEvent::CheckpointCommitted { at, gen } => {
                write!(f, "{at:>12} recovery point {gen} committed")
            }
            TraceEvent::NodeCommit { at, node, dur } => {
                write!(f, "{at:>12} {node} commit scan ({dur} cycles)")
            }
            TraceEvent::NodeRollback { at, node, dur } => {
                write!(f, "{at:>12} {node} rollback scan ({dur} cycles)")
            }
            TraceEvent::LinkCut { at, a, b } => {
                write!(f, "{at:>12} link {a}<->{b} cut")
            }
            TraceEvent::RouterDown { at, node } => {
                write!(f, "{at:>12} {node} router down")
            }
            TraceEvent::Failure {
                at,
                node,
                permanent,
            } => {
                write!(
                    f,
                    "{at:>12} {node} failed ({})",
                    if *permanent { "permanent" } else { "transient" }
                )
            }
            TraceEvent::RecoveryRestarted { at, node, depth } => {
                write!(f, "{at:>12} recovery restarted for {node} (depth {depth})")
            }
            TraceEvent::Recovered { at } => write!(f, "{at:>12} recovery complete"),
            TraceEvent::Repaired { at, node } => write!(f, "{at:>12} {node} repaired"),
            TraceEvent::LinkRepaired { at, a, b } => {
                write!(f, "{at:>12} link {a}<->{b} repaired")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcoma_sim::ring::Ring;

    /// The times of the events a trace ring of `cap` keeps after `pushes`
    /// pushes.
    fn kept(cap: usize, pushes: Cycles) -> Vec<Cycles> {
        let mut log = Ring::new(cap);
        for at in 0..pushes {
            log.push(TraceEvent::Recovered { at });
        }
        log.iter().map(TraceEvent::at).collect()
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        assert_eq!(kept(3, 5), vec![2, 3, 4]);
    }

    #[test]
    fn ring_buffer_wraps_exactly_at_capacity() {
        // Filled to exactly its capacity, the ring has evicted nothing;
        // the next push evicts exactly the oldest event.
        assert_eq!(kept(4, 4), vec![0, 1, 2, 3]);
        assert_eq!(kept(4, 5), vec![1, 2, 3, 4]);
    }

    #[test]
    fn render_is_line_per_event() {
        let failure = TraceEvent::Failure {
            at: 5,
            node: NodeId::new(2),
            permanent: true,
        };
        let commit = TraceEvent::CheckpointCommitted { at: 9, gen: 3 };
        let text = format!("{failure}\n{commit}\n");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("n2 failed (permanent)"));
        assert!(text.contains("recovery point 3 committed"));
    }
}
