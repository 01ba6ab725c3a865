//! The logical ring used by the injection mechanism.
//!
//! "In order to easily find a place for an injected line, a logical ring is
//! mapped onto the physical interconnection network. … If the injection
//! cannot be accepted, the node forwards the injection to the next node on
//! the logical ring. … This logical ring must be reconfigured in the event
//! of a failure."

use ftcoma_mem::NodeId;

/// A logical ring over the machine's nodes, skipping failed ones.
///
/// # Example
///
/// ```
/// use ftcoma_net::LogicalRing;
/// use ftcoma_mem::NodeId;
///
/// let mut ring = LogicalRing::new(4);
/// assert_eq!(ring.successor(NodeId::new(3)), Some(NodeId::new(0)));
/// ring.mark_dead(NodeId::new(0));
/// assert_eq!(ring.successor(NodeId::new(3)), Some(NodeId::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct LogicalRing {
    alive: Vec<bool>,
}

impl LogicalRing {
    /// Creates a ring over nodes `0..n`, all alive.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "ring requires at least one node");
        Self {
            alive: vec![true; n],
        }
    }

    /// Number of ring positions (alive or dead).
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Always `false`: a ring has at least one position by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Is `node` currently alive?
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.index()).copied().unwrap_or(false)
    }

    /// Reconfigures the ring around a failed node.
    pub fn mark_dead(&mut self, node: NodeId) {
        self.alive[node.index()] = false;
    }

    /// Restores a repaired node to the ring.
    pub fn mark_alive(&mut self, node: NodeId) {
        self.alive[node.index()] = true;
    }

    /// Number of live nodes.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// The next live node after `node` on the ring, or `None` if `node` is
    /// the only live node (or none are live).
    pub fn successor(&self, node: NodeId) -> Option<NodeId> {
        let n = self.alive.len();
        let start = node.index();
        for step in 1..=n {
            let cand = (start + step) % n;
            if cand == start {
                break;
            }
            if self.alive[cand] {
                return Some(NodeId::new(cand as u16));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn successor_wraps() {
        let ring = LogicalRing::new(3);
        assert_eq!(ring.successor(n(0)), Some(n(1)));
        assert_eq!(ring.successor(n(2)), Some(n(0)));
    }

    #[test]
    fn successor_skips_dead() {
        let mut ring = LogicalRing::new(4);
        ring.mark_dead(n(1));
        ring.mark_dead(n(2));
        assert_eq!(ring.successor(n(0)), Some(n(3)));
        assert_eq!(ring.alive_count(), 2);
    }

    #[test]
    fn lone_survivor_has_no_successor() {
        let mut ring = LogicalRing::new(3);
        ring.mark_dead(n(0));
        ring.mark_dead(n(2));
        assert_eq!(ring.successor(n(1)), None);
    }

    #[test]
    fn mark_alive_restores() {
        let mut ring = LogicalRing::new(2);
        ring.mark_dead(n(1));
        assert_eq!(ring.successor(n(0)), None);
        ring.mark_alive(n(1));
        assert_eq!(ring.successor(n(0)), Some(n(1)));
        assert!(ring.is_alive(n(1)));
    }

    // Reconfiguration edge case: two *adjacent* failed nodes, placed at the
    // wraparound point so the successor scan must skip both and wrap.
    #[test]
    fn two_adjacent_dead_nodes_wrap_around() {
        let mut ring = LogicalRing::new(5);
        ring.mark_dead(n(3));
        ring.mark_dead(n(4));
        assert_eq!(ring.successor(n(2)), Some(n(0)));
        // Successors *of* the dead pair are still well-defined (the heir
        // lookup during reconfiguration asks exactly this).
        assert_eq!(ring.successor(n(3)), Some(n(0)));
        assert_eq!(ring.successor(n(4)), Some(n(0)));
        assert_eq!(ring.alive_count(), 3);
    }

    // Reconfiguration edge case: failure of node 0 — the ring "head" every
    // wraparound lands on — alone and then together with its neighbour.
    #[test]
    fn head_failure_reconfigures_the_wraparound() {
        let mut ring = LogicalRing::new(4);
        ring.mark_dead(n(0));
        assert_eq!(ring.successor(n(3)), Some(n(1)));
        assert_eq!(ring.successor(n(0)), Some(n(1)));
        ring.mark_dead(n(1)); // adjacent to the dead head
        assert_eq!(ring.successor(n(3)), Some(n(2)));
        assert_eq!(ring.successor(n(2)), Some(n(3)));
        assert_eq!(ring.alive_count(), 2);
        // Repairing the head restores the original wraparound.
        ring.mark_alive(n(0));
        assert_eq!(ring.successor(n(3)), Some(n(0)));
    }
}
