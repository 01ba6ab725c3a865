//! The reliable transport's machine-side state.
//!
//! A machine sends fire-and-forget until it learns of its first
//! interconnect fault. From then on every inter-node message is
//! sequenced, kept until acknowledged, retransmitted on timeout and
//! delivered exactly once; [`Transport`] owns that state. The switch is
//! one-way: once on, the reliable path stays on for the rest of the run.

use ftcoma_mem::NodeId;
use ftcoma_net::NetFaultPlan;
use ftcoma_protocol::msg::Msg;
use ftcoma_protocol::transport::{DedupFilter, SeqSpace};
use ftcoma_sim::{Cycles, FxHashMap};

/// An unacknowledged transport packet awaiting its ack or next retry.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    pub(crate) msg: Msg,
    pub(crate) attempts: u32,
    /// Original departure time of the logical message (retransmissions keep
    /// it, so the measured leg latency includes retry delays).
    pub(crate) sent: Cycles,
}

/// The state of the reliable send path.
#[derive(Debug, Clone)]
pub(crate) struct Transport {
    /// Loss plan consulted once per physical send: a zero-rate standby
    /// until a message-loss episode arms it in place.
    pub(crate) plan: NetFaultPlan,
    /// Per-source send sequence spaces (indexed by sender).
    seqs: Vec<SeqSpace>,
    /// Per-receiver duplicate suppression (indexed by receiver).
    dedup: Vec<DedupFilter>,
    /// Unacked packets by `(src, dst, seq)`.
    pub(crate) in_flight: FxHashMap<(NodeId, NodeId, u64), InFlight>,
}

impl Transport {
    /// A transport for `nodes` nodes with a standby loss plan seeded by
    /// `seed`.
    pub(crate) fn new(nodes: usize, seed: u64) -> Self {
        Self {
            plan: NetFaultPlan::new(seed),
            seqs: vec![SeqSpace::new(); nodes],
            dedup: vec![DedupFilter::new(); nodes],
            in_flight: FxHashMap::default(),
        }
    }

    /// Sequences a message from `from` to `to` that departs at `sent` and
    /// keeps it until acknowledged. Returns its sequence number.
    pub(crate) fn open(&mut self, from: NodeId, to: NodeId, msg: Msg, sent: Cycles) -> u64 {
        let seq = self.seqs[from.index()].next(to);
        self.in_flight.insert(
            (from, to, seq),
            InFlight {
                msg,
                attempts: 0,
                sent,
            },
        );
        seq
    }

    /// Whether this is the first arrival of `(src, seq)` at `to` (later
    /// copies are duplicates to suppress).
    pub(crate) fn first_delivery(&mut self, to: NodeId, src: NodeId, seq: u64) -> bool {
        self.dedup[to.index()].first_delivery(src, seq)
    }

    /// Forgets every packet and sequence number: a node failure purges the
    /// network, so the transport loses all its packets with it. The loss
    /// plan keeps its send ordinal.
    pub(crate) fn reset(&mut self) {
        self.in_flight.clear();
        for s in &mut self.seqs {
            s.clear();
        }
        for d in &mut self.dedup {
            d.clear();
        }
    }
}
