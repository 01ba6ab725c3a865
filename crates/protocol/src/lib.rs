//! COMA-F coherence-protocol building blocks.
//!
//! This crate holds the *standard* (non-fault-tolerant) protocol machinery
//! of the simulated machine, shared by the baseline and the Extended
//! Coherence Protocol in `ftcoma-core`:
//!
//! * [`msg::Msg`] — the complete coherence message vocabulary (requests,
//!   data transfers, invalidations, injections, checkpoint traffic);
//! * [`home::HomeTable`] — the statically distributed *localization
//!   pointers* that map an item to its current owner, plus the per-item
//!   serialization (busy/queue) that keeps racing transactions ordered;
//! * [`dir::OwnerDirectory`] — the sharing lists attached to the owner copy
//!   of each item ("the directory entry of an item is maintained on the
//!   node which is the current owner of the item");
//! * [`timing::MemTiming`] — node-local access latencies (Table 2
//!   calibration together with `ftcoma-net`);
//! * [`node::NodeState`] — everything a node owns: cache, attraction
//!   memory, home table, directory, and transient protocol bookkeeping.
//!
//! The transaction *logic* itself — what happens on a read miss, a write
//! fault on a recovery copy, an injection — lives in `ftcoma-core`, which
//! implements both protocol variants over these structures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dir;
pub mod home;
pub mod msg;
pub mod node;
pub mod timing;

pub use dir::OwnerDirectory;
pub use home::{HomeTable, QueuedReq};
pub use msg::{Msg, Outgoing, TxnLeg};
pub use node::NodeState;
pub use timing::MemTiming;

use ftcoma_mem::{ItemId, NodeId};
use ftcoma_net::LogicalRing;

/// The node responsible for an item's localization pointer.
///
/// Pointers are statically distributed across the nodes by item index; if
/// the static home has failed permanently, responsibility migrates to its
/// ring successor (a reproduction-completing extension — see DESIGN.md §3).
///
/// # Example
///
/// ```
/// use ftcoma_protocol::home_of;
/// use ftcoma_net::LogicalRing;
/// use ftcoma_mem::{ItemId, NodeId};
///
/// let mut ring = LogicalRing::new(4);
/// assert_eq!(home_of(ItemId::new(6), &ring), NodeId::new(2));
/// ring.mark_dead(NodeId::new(2));
/// assert_eq!(home_of(ItemId::new(6), &ring), NodeId::new(3));
/// ```
///
/// # Panics
///
/// Panics if no node is alive.
pub fn home_of(item: ItemId, ring: &LogicalRing) -> NodeId {
    let statically = NodeId::new((item.index() % ring.len() as u64) as u16);
    if ring.is_alive(statically) {
        statically
    } else {
        ring.successor(statically).expect("at least one live node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_distributes_by_item_index() {
        let ring = LogicalRing::new(8);
        assert_eq!(home_of(ItemId::new(0), &ring), NodeId::new(0));
        assert_eq!(home_of(ItemId::new(15), &ring), NodeId::new(7));
        assert_eq!(home_of(ItemId::new(16), &ring), NodeId::new(0));
    }

    #[test]
    fn home_migrates_past_multiple_dead_nodes() {
        let mut ring = LogicalRing::new(4);
        ring.mark_dead(NodeId::new(1));
        ring.mark_dead(NodeId::new(2));
        assert_eq!(home_of(ItemId::new(1), &ring), NodeId::new(3));
        assert_eq!(home_of(ItemId::new(2), &ring), NodeId::new(3));
    }
}
