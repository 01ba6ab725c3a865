//! Continuous MTBF/MTTR failure–repair processes.
//!
//! The one-shot injection APIs on [`crate::Machine`] (`schedule_failure`,
//! `schedule_repair`, `schedule_link_cut`, …) model a *scripted* fault: the
//! caller decides exactly when each event happens. Long-horizon
//! availability studies need the opposite: an **unbounded stochastic
//! schedule** where every node and link fails and is repaired over and over
//! with configurable mean-time-between-failures (MTBF) and mean-time-to-
//! repair (MTTR), including overlapping faults and repair-then-refail
//! cycles.
//!
//! [`FaultProcess`] is that schedule generator. It is pure bookkeeping —
//! the machine asks it *when* the next fault-model event is due
//! ([`FaultProcess::next_at`]) and *what* happens there
//! ([`FaultProcess::fire`]), then applies the returned [`FaultAction`]s
//! through the same failure/repair machinery the scripted APIs use. All
//! randomness comes from per-component [`DetRng`] streams derived from the
//! machine seed, drawn with the integer-safe [`DetRng::exp_with`] sampler,
//! so a run is a pure function of its configuration: byte-identical across
//! hosts and `--jobs` levels.
//!
//! Semantics worth knowing:
//!
//! * Node failures are **permanent** (memory lost, ring departure); the
//!   paired repair re-integrates a fresh replacement through the machine's
//!   full rejoin path (router restored, homes migrated back, work
//!   reclaimed). This exercises the interesting ECP machinery; a transient
//!   blip is strictly weaker.
//! * A failure sampled while its target *structurally* cannot fail (the
//!   node is still down awaiting a deferred repair, failing it would
//!   leave fewer than the ECP's four-node establishment floor, or the
//!   kill would partition the live mesh) is **deferred**: the machine
//!   calls [`FaultProcess::defer_node_fail`] and the clock re-arms with a
//!   fresh MTBF draw. Deferral consumes the same single draw a real
//!   failure would, keeping sibling streams aligned. A draw landing
//!   inside an open recovery window is **not** deferred: recovery is
//!   restartable, so the nested fault fires and folds into the episode —
//!   the sampled failure distribution is no longer skewed around
//!   reconfiguration windows.
//! * Link faults pick a random *currently intact* mesh link, cut it, and
//!   schedule its repair one MTTR draw later. With no intact link left the
//!   draw is burned and the process re-arms.

use ftcoma_mem::NodeId;
use ftcoma_sim::{Cycles, DetRng};

/// Configuration of the continuous failure processes. A mean of `0`
/// disables that process; at least one process must be enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultProcessConfig {
    /// Mean cycles between failures of each node (`0` = no node process).
    pub node_mtbf: Cycles,
    /// Mean cycles a failed node stays down before its repair is
    /// requested.
    pub node_mttr: Cycles,
    /// Mean cycles between link cuts, machine-wide (`0` = no link
    /// process).
    pub link_mtbf: Cycles,
    /// Mean cycles a cut link stays down before it is restored.
    pub link_mttr: Cycles,
    /// Absolute cycle the processes start at (first draws are offsets
    /// from here). `0` = from the beginning of the run.
    pub start: Cycles,
}

impl FaultProcessConfig {
    /// Checks the configuration is usable: every enabled process has a
    /// positive repair mean, and at least one process is enabled.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.node_mtbf == 0 && self.link_mtbf == 0 {
            return Err(
                "fault process: no process enabled (node_mtbf and link_mtbf both 0)".into(),
            );
        }
        if self.node_mtbf > 0 && self.node_mttr == 0 {
            return Err("fault process: node_mtbf set but node_mttr is 0".into());
        }
        if self.link_mtbf > 0 && self.link_mttr == 0 {
            return Err("fault process: link_mtbf set but link_mttr is 0".into());
        }
        Ok(())
    }
}

/// One fault-model event produced by [`FaultProcess::fire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Permanently fail this node.
    FailNode(NodeId),
    /// Request the repair (rejoin) of this previously failed node.
    RepairNode(NodeId),
    /// Cut this mesh link (both directions).
    CutLink(NodeId, NodeId),
    /// Restore this previously cut mesh link.
    RepairLink(NodeId, NodeId),
}

/// Per-node alternating failure/repair clock.
#[derive(Debug, Clone, Copy)]
enum NodeClock {
    Up { fail_at: Cycles },
    Down { repair_at: Cycles },
}

/// The deterministic continuous failure-process generator. See the module
/// docs for the contract.
#[derive(Debug, Clone)]
pub struct FaultProcess {
    cfg: FaultProcessConfig,
    /// One independent stream per node, so adding or disabling one node's
    /// process never shifts another's schedule.
    node_rng: Vec<DetRng>,
    node_clock: Vec<NodeClock>,
    /// The machine-wide link process stream.
    link_rng: DetRng,
    /// Next link cut (`None` = link process disabled).
    link_fail_at: Option<Cycles>,
    /// The mesh's link universe, as index pairs into `links`.
    links: Vec<(NodeId, NodeId)>,
    /// Which links the *process* has cut (indices into `links`).
    link_down: Vec<bool>,
    /// Pending link repairs: `(repair_at, link index)`.
    link_repairs: Vec<(Cycles, usize)>,
}

impl FaultProcess {
    /// Builds the process for a machine of `nodes` nodes whose mesh links
    /// are `links` (empty when the link process is disabled or the fabric
    /// has no links). `seed` should be derived from the machine seed on a
    /// dedicated stream.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate, or the link process
    /// is enabled with an empty link universe.
    pub fn new(
        cfg: FaultProcessConfig,
        seed: u64,
        nodes: u16,
        links: Vec<(NodeId, NodeId)>,
    ) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        assert!(
            cfg.link_mtbf == 0 || !links.is_empty(),
            "link fault process needs a link universe"
        );
        let root = DetRng::seeded(seed);
        let mut node_rng: Vec<DetRng> = (0..nodes).map(|i| root.split(i as u64)).collect();
        let mut link_rng = root.split(0x4C49_4E4B); // "LINK"
        let node_clock = if cfg.node_mtbf > 0 {
            node_rng
                .iter_mut()
                .map(|rng| NodeClock::Up {
                    fail_at: cfg.start + sample(rng, cfg.node_mtbf),
                })
                .collect()
        } else {
            Vec::new()
        };
        let link_fail_at =
            (cfg.link_mtbf > 0).then(|| cfg.start + sample(&mut link_rng, cfg.link_mtbf));
        let link_down = vec![false; links.len()];
        Self {
            cfg,
            node_rng,
            node_clock,
            link_rng,
            link_fail_at,
            links,
            link_down,
            link_repairs: Vec::new(),
        }
    }

    /// The absolute time of the earliest pending fault-model event, or
    /// `None` if nothing is armed (cannot happen under a validated
    /// configuration, but kept total for safety).
    pub fn next_at(&self) -> Option<Cycles> {
        let mut next: Option<Cycles> = None;
        let mut consider = |t: Cycles| next = Some(next.map_or(t, |n: Cycles| n.min(t)));
        for clock in &self.node_clock {
            match *clock {
                NodeClock::Up { fail_at } => consider(fail_at),
                NodeClock::Down { repair_at } => consider(repair_at),
            }
        }
        if let Some(t) = self.link_fail_at {
            consider(t);
        }
        for &(t, _) in &self.link_repairs {
            consider(t);
        }
        next
    }

    /// Pops every event due at or before `now`, in deterministic order
    /// (nodes by ascending index, then link repairs by ascending link
    /// index, then the link cut), advancing each popped clock by a fresh
    /// draw. The machine applies the returned actions in order.
    pub fn fire(&mut self, now: Cycles) -> Vec<FaultAction> {
        let mut actions = Vec::new();
        for i in 0..self.node_clock.len() {
            match self.node_clock[i] {
                NodeClock::Up { fail_at } if fail_at <= now => {
                    self.node_clock[i] = NodeClock::Down {
                        repair_at: now + sample(&mut self.node_rng[i], self.cfg.node_mttr),
                    };
                    actions.push(FaultAction::FailNode(NodeId::new(i as u16)));
                }
                NodeClock::Down { repair_at } if repair_at <= now => {
                    self.node_clock[i] = NodeClock::Up {
                        fail_at: now + sample(&mut self.node_rng[i], self.cfg.node_mtbf),
                    };
                    actions.push(FaultAction::RepairNode(NodeId::new(i as u16)));
                }
                _ => {}
            }
        }
        // Due link repairs, by ascending link index for determinism.
        let mut due: Vec<usize> = self
            .link_repairs
            .iter()
            .filter(|&&(t, _)| t <= now)
            .map(|&(_, idx)| idx)
            .collect();
        due.sort_unstable();
        self.link_repairs.retain(|&(t, _)| t > now);
        for idx in due {
            self.link_down[idx] = false;
            let (a, b) = self.links[idx];
            actions.push(FaultAction::RepairLink(a, b));
        }
        if let Some(fail_at) = self.link_fail_at {
            if fail_at <= now {
                // Choose among the still-intact links. The draw happens
                // even when every link is down (the cut is then skipped),
                // so the stream never depends on machine state timing.
                let up: Vec<usize> = (0..self.links.len())
                    .filter(|&i| !self.link_down[i])
                    .collect();
                let pick = self.link_rng.below(self.links.len() as u64) as usize;
                if !up.is_empty() {
                    let idx = up[pick % up.len()];
                    self.link_down[idx] = true;
                    self.link_repairs
                        .push((now + sample(&mut self.link_rng, self.cfg.link_mttr), idx));
                    let (a, b) = self.links[idx];
                    actions.push(FaultAction::CutLink(a, b));
                } else {
                    // Burn the MTTR draw a real cut would have consumed.
                    let _ = sample(&mut self.link_rng, self.cfg.link_mttr);
                }
                self.link_fail_at = Some(now + sample(&mut self.link_rng, self.cfg.link_mtbf));
            }
        }
        actions
    }

    /// The machine could not apply a [`FaultAction::FailNode`] for `node`
    /// (it is still down awaiting a deferred repair, failing it would
    /// drop the machine below the ECP's establishment floor, or the kill
    /// would partition the live mesh): put the node
    /// back in the `Up` state and re-arm its failure clock from `now`,
    /// discarding the repair time `fire` had armed for the aborted
    /// failure. Uses the node's own stream, so the deferral stays a pure
    /// function of that node's event sequence.
    pub fn defer_node_fail(&mut self, node: NodeId, now: Cycles) {
        let i = node.index();
        self.node_clock[i] = NodeClock::Up {
            fail_at: now + sample(&mut self.node_rng[i], self.cfg.node_mtbf),
        };
    }
}

/// One exponential inter-event draw with mean `mean`, never zero (a zero
/// delay would re-fire in the same cycle forever).
fn sample(rng: &mut DetRng, mean: Cycles) -> Cycles {
    rng.exp_with(mean).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn cfg() -> FaultProcessConfig {
        FaultProcessConfig {
            node_mtbf: 10_000,
            node_mttr: 2_000,
            link_mtbf: 8_000,
            link_mttr: 1_000,
            ..FaultProcessConfig::default()
        }
    }

    fn links() -> Vec<(NodeId, NodeId)> {
        vec![(n(0), n(1)), (n(1), n(2)), (n(2), n(3))]
    }

    #[test]
    fn validation_rejects_missing_repair_means() {
        assert!(FaultProcessConfig::default().validate().is_err());
        assert!(FaultProcessConfig {
            node_mtbf: 100,
            ..FaultProcessConfig::default()
        }
        .validate()
        .is_err());
        assert!(FaultProcessConfig {
            link_mtbf: 100,
            ..FaultProcessConfig::default()
        }
        .validate()
        .is_err());
        assert!(cfg().validate().is_ok());
    }

    #[test]
    fn schedule_alternates_failures_and_repairs_deterministically() {
        let mut a = FaultProcess::new(cfg(), 42, 4, links());
        let mut b = FaultProcess::new(cfg(), 42, 4, links());
        let mut trail = Vec::new();
        for _ in 0..200 {
            let at = a.next_at().expect("always armed");
            assert_eq!(b.next_at(), Some(at));
            let acts = a.fire(at);
            assert_eq!(b.fire(at), acts);
            assert!(!acts.is_empty(), "a due clock must produce its action");
            trail.extend(acts);
        }
        // Every node alternates strictly: fail, repair, fail, ...
        for node in 0..4u16 {
            let mine: Vec<_> = trail
                .iter()
                .filter(|a| {
                    matches!(a, FaultAction::FailNode(x) | FaultAction::RepairNode(x) if *x == n(node))
                })
                .collect();
            assert!(mine.len() > 2, "node {node} saw fault/repair cycles");
            for pair in mine.windows(2) {
                match pair[0] {
                    FaultAction::FailNode(_) => {
                        assert!(matches!(pair[1], FaultAction::RepairNode(_)))
                    }
                    FaultAction::RepairNode(_) => {
                        assert!(matches!(pair[1], FaultAction::FailNode(_)))
                    }
                    _ => unreachable!(),
                }
            }
        }
        // Link cuts only ever hit intact links, repairs only cut ones.
        let mut down = std::collections::BTreeSet::new();
        for act in &trail {
            match act {
                FaultAction::CutLink(a, b) => assert!(down.insert((*a, *b))),
                FaultAction::RepairLink(a, b) => assert!(down.remove(&(*a, *b))),
                _ => {}
            }
        }
    }

    #[test]
    fn deferring_a_failure_rearms_without_a_repair() {
        let mut fp = FaultProcess::new(
            FaultProcessConfig {
                node_mtbf: 1_000,
                node_mttr: 100,
                ..FaultProcessConfig::default()
            },
            7,
            2,
            Vec::new(),
        );
        let at = fp.next_at().unwrap();
        let acts = fp.fire(at);
        let victim = match acts[0] {
            FaultAction::FailNode(v) => v,
            ref other => panic!("expected a failure first, got {other:?}"),
        };
        fp.defer_node_fail(victim, at);
        // The node is Up again: its next event is another failure, not the
        // repair `fire` had armed.
        loop {
            let t = fp.next_at().unwrap();
            let acts = fp.fire(t);
            if let Some(act) = acts
                .iter()
                .find(|a| matches!(a, FaultAction::FailNode(v) | FaultAction::RepairNode(v) if *v == victim))
            {
                assert!(matches!(act, FaultAction::FailNode(_)));
                break;
            }
        }
    }

    #[test]
    fn start_offset_delays_the_first_draws() {
        let base = FaultProcess::new(cfg(), 9, 4, links());
        let offset = FaultProcess::new(
            FaultProcessConfig {
                start: 50_000,
                ..cfg()
            },
            9,
            4,
            links(),
        );
        assert_eq!(offset.next_at().unwrap(), base.next_at().unwrap() + 50_000);
        assert!(offset.next_at().unwrap() >= 50_000);
    }
}
