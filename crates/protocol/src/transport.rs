//! Reliable end-to-end transport bookkeeping for the network interface.
//!
//! The mesh below the protocol can drop or refuse to route messages once
//! interconnect faults are in play (see `ftcoma-net`), and retransmission
//! itself delivers duplicates when an ack is lost.
//! This module holds the *pure* state machinery a node's network interface
//! needs to make message delivery reliable on top of that:
//!
//! * per-destination sequence numbers ([`SeqSpace`]),
//! * exactly-once delivery via duplicate suppression ([`DedupFilter`]),
//! * bounded exponential backoff for ack/timeout retransmission
//!   ([`backoff`]).
//!
//! The event-driven half (scheduling retries, sending acks, escalating to
//! the recovery machinery after [`MAX_RETRIES`]) lives in `ftcoma-machine`;
//! everything here is deterministic data plumbing so it can be unit-tested
//! in isolation.

use std::collections::{HashMap, HashSet};

use ftcoma_mem::NodeId;
use ftcoma_sim::Cycles;

/// First retransmission timeout in cycles.
///
/// Comfortably above the worst zero-load round trip of the default mesh
/// (two ~50-cycle message latencies plus service time), so a healthy but
/// congested network does not trigger spurious retransmissions at once.
pub const RTO_BASE: Cycles = 1_000;

/// Ceiling of the exponential backoff, in cycles.
pub const RTO_CAP: Cycles = 32_000;

/// Retransmissions after which the transport gives up on a peer and
/// escalates to the machine's failure handling.
pub const MAX_RETRIES: u32 = 10;

/// Retransmission timeout for the given attempt number (0 = the initial
/// transmission): `min(RTO_BASE << attempt, RTO_CAP)`.
///
/// # Example
///
/// ```
/// use ftcoma_protocol::transport::{backoff, RTO_BASE, RTO_CAP};
///
/// assert_eq!(backoff(0), RTO_BASE);
/// assert_eq!(backoff(1), 2 * RTO_BASE);
/// assert_eq!(backoff(31), RTO_CAP); // bounded
/// ```
pub fn backoff(attempt: u32) -> Cycles {
    // Clamp the exponent before shifting: past log2(cap/base) doublings
    // the cap wins anyway, and an unclamped shift would wrap bits out.
    let exp = attempt.min((RTO_CAP / RTO_BASE).ilog2());
    (RTO_BASE << exp).min(RTO_CAP)
}

/// Per-destination send sequence numbers for one node.
#[derive(Debug, Clone, Default)]
pub struct SeqSpace {
    next: HashMap<NodeId, u64>,
}

impl SeqSpace {
    /// An empty sequence space (all destinations start at 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the next sequence number for a message to `dst`.
    pub fn next(&mut self, dst: NodeId) -> u64 {
        let seq = self.next.entry(dst).or_insert(0);
        let allocated = *seq;
        *seq += 1;
        allocated
    }

    /// Forgets all sequence state (used when a failure wipes the network:
    /// every in-flight packet is gone, so numbering may restart).
    pub fn clear(&mut self) {
        self.next.clear();
    }
}

/// Receive-side duplicate suppression: remembers every `(src, seq)` pair
/// already delivered to the protocol engine.
///
/// Sequence numbers can arrive out of order (retransmissions race the
/// originals, detours reorder packets), so this is a set, not a
/// highest-seen watermark.
#[derive(Debug, Clone, Default)]
pub struct DedupFilter {
    seen: HashSet<(NodeId, u64)>,
}

impl DedupFilter {
    /// An empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a delivery; returns `true` iff it is the first time this
    /// `(src, seq)` was seen (i.e. the payload must be handed up).
    pub fn first_delivery(&mut self, src: NodeId, seq: u64) -> bool {
        self.seen.insert((src, seq))
    }

    /// Forgets everything (failure recovery resets the network).
    pub fn clear(&mut self) {
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        assert_eq!(backoff(0), 1_000);
        assert_eq!(backoff(1), 2_000);
        assert_eq!(backoff(4), 16_000);
        assert_eq!(backoff(5), 32_000);
        assert_eq!(backoff(6), 32_000);
        assert_eq!(backoff(63), 32_000);
        assert_eq!(backoff(64), 32_000); // shift overflow is still capped
    }

    #[test]
    fn sequence_numbers_are_per_destination() {
        let mut seqs = SeqSpace::new();
        assert_eq!(seqs.next(n(1)), 0);
        assert_eq!(seqs.next(n(1)), 1);
        assert_eq!(seqs.next(n(2)), 0);
        assert_eq!(seqs.next(n(1)), 2);
        seqs.clear();
        assert_eq!(seqs.next(n(1)), 0);
    }

    #[test]
    fn dedup_suppresses_retransmitted_deliveries_out_of_order() {
        let mut filter = DedupFilter::new();
        assert!(filter.first_delivery(n(3), 7));
        assert!(filter.first_delivery(n(3), 5)); // out of order: still new
        assert!(!filter.first_delivery(n(3), 7)); // the duplicate
        assert!(filter.first_delivery(n(4), 7)); // another source
        filter.clear();
        assert!(filter.first_delivery(n(3), 7));
    }
}
