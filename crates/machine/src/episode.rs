//! One failure's recovery (§3.4), from the first fault through any
//! restarts to the end of reconfiguration.
//!
//! A fault rolls every live node back to the last recovery point, then the
//! nodes left holding orphaned recovery copies re-replicate them. A fault
//! before that finishes restarts the episode instead of opening another,
//! and the episode is survived as a whole.

use ftcoma_sim::Cycles;

/// The bookkeeping of one recovery episode (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RecoveryEpisode {
    /// When the latest attempt began: the episode's latest fault.
    start: Cycles,
    /// When the latest attempt's slowest rollback scan ends.
    scan_end: Cycles,
    /// Nodes that finished re-replicating their orphans, of `expected`.
    reconfigured: usize,
    expected: usize,
    /// Faults folded into the episode so far.
    faults: u64,
}

impl RecoveryEpisode {
    /// A fault at `now` starts the episode, or restarts it. Returns the
    /// length of the attempt a restart abandons.
    pub(crate) fn fault(&mut self, now: Cycles) -> Option<Cycles> {
        let abandoned = (self.faults > 0).then(|| now - self.start);
        self.start = now;
        self.faults += 1;
        abandoned
    }

    pub(crate) fn start(&self) -> Cycles {
        self.start
    }

    pub(crate) fn faults(&self) -> u64 {
        self.faults
    }

    /// The latest attempt rolled back, its slowest node scanning for `scan`
    /// cycles, and `nodes` nodes now re-replicate orphans.
    pub(crate) fn reconfigure(&mut self, scan: Cycles, nodes: usize) {
        self.scan_end = self.start + scan;
        self.reconfigured = 0;
        self.expected = nodes;
    }

    pub(crate) fn node_reconfigured(&mut self) {
        self.reconfigured += 1;
    }

    pub(crate) fn reconfigured(&self) -> bool {
        self.reconfigured == self.expected
    }

    /// When the episode ends if reconfiguration is over at `now`: not
    /// before the slowest rollback scan.
    pub(crate) fn end(&self, now: Cycles) -> Cycles {
        now.max(self.scan_end)
    }
}
