//! The machine-wide phase: computing, establishing a recovery point,
//! draining for a repair, or recovering from a failure.
//!
//! An establishment drains every in-flight transaction, lets each live
//! node create its recovery data, then commits (§3.3, Fig. 2). A repair
//! drains the same way before the replacement rejoins, and a failure
//! abandons either for a recovery episode. Each phase carries its own
//! data, and [`Coordinator::step`] alone decides when a phase moves on.

use ftcoma_core::invariants::CheckScope;
use ftcoma_mem::NodeId;
use ftcoma_sim::Cycles;

use crate::episode::RecoveryEpisode;
use crate::processors::Processors;

#[derive(Debug, Clone, Copy)]
enum Phase {
    Running,
    /// The establishment begun at `since` waits for quiescence.
    Draining {
        since: Cycles,
    },
    /// `created` of `expected` live nodes have secured their modified
    /// items for the establishment begun at `since`.
    Creating {
        since: Cycles,
        created: usize,
        expected: usize,
    },
    /// A repair waits for quiescence before `node` rejoins.
    Rejoining {
        node: NodeId,
    },
    Recovering(RecoveryEpisode),
}

/// What moves the current phase on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// The drain is over: every live node creates its recovery data.
    Create,
    /// The repair's drain is over: `node` rejoins.
    Rejoin(NodeId),
    /// Every live node created: the establishment begun at `since` commits.
    Commit { since: Cycles },
    /// Every node reconfigured: the episode ends.
    Recovered(RecoveryEpisode),
}

/// The phase, the recovery-point count, the checkpoint timer and the
/// logical in-flight message count (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Coordinator {
    phase: Phase,
    gen: u64,
    /// Cycles between establishments; `None` on the standard protocol.
    period: Option<Cycles>,
    /// Whether a checkpoint timer is queued; at most one ever is.
    timer_armed: bool,
    /// Logical messages sent and not yet delivered, however many physical
    /// copies the reliable transport sends.
    in_flight: usize,
}

impl Coordinator {
    pub(crate) fn new(period: Option<Cycles>) -> Self {
        Self {
            phase: Phase::Running,
            gen: 0,
            period,
            timer_armed: false,
            in_flight: 0,
        }
    }

    #[inline]
    pub(crate) fn running(&self) -> bool {
        matches!(self.phase, Phase::Running)
    }

    /// Which invariants hold now: recovery data may be half-built while
    /// creating, and home tables settle only with nothing in flight.
    pub(crate) fn check_scope(&self) -> CheckScope {
        CheckScope {
            allow_precommit: matches!(self.phase, Phase::Creating { .. }),
            check_homes: self.in_flight == 0,
        }
    }

    #[inline]
    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    #[inline]
    pub(crate) fn sent(&mut self) {
        self.in_flight += 1;
    }

    #[inline]
    pub(crate) fn delivered(&mut self) {
        self.in_flight -= 1;
    }

    pub(crate) fn node_created(&mut self) {
        if let Phase::Creating { created, .. } = &mut self.phase {
            *created += 1;
        }
    }

    pub(crate) fn node_reconfigured(&mut self) {
        if let Phase::Recovering(episode) = &mut self.phase {
            episode.node_reconfigured();
        }
    }

    /// What moves the current phase on, if anything: nothing may be in
    /// flight, a drain needs every processor stopped, a create phase every
    /// live node created, and a recovery every node reconfigured.
    #[inline]
    pub(crate) fn step(&self, procs: &Processors) -> Option<Step> {
        if self.in_flight > 0 {
            return None;
        }
        match self.phase {
            Phase::Running => None,
            Phase::Draining { .. } => procs.quiescent().then_some(Step::Create),
            Phase::Rejoining { node } => procs.quiescent().then_some(Step::Rejoin(node)),
            Phase::Creating {
                since,
                created,
                expected,
            } => (created == expected).then_some(Step::Commit { since }),
            Phase::Recovering(episode) => {
                episode.reconfigured().then_some(Step::Recovered(episode))
            }
        }
    }

    /// Arms the checkpoint timer unless one is queued or the protocol takes
    /// no checkpoints. Returns when it fires: a period after `from`, but
    /// not before `floor`.
    pub(crate) fn arm_timer(&mut self, from: Cycles, floor: Cycles) -> Option<Cycles> {
        if self.timer_armed {
            return None;
        }
        let period = self.period?;
        self.timer_armed = true;
        Some((from + period).max(floor))
    }

    pub(crate) fn timer_fired(&mut self) {
        self.timer_armed = false;
    }

    /// Starts an establishment at `now` unless a recovery or a repair is in
    /// progress. Returns whether it started.
    pub(crate) fn begin_checkpoint(&mut self, now: Cycles) -> bool {
        let idle = self.running();
        if idle {
            self.phase = Phase::Draining { since: now };
        }
        idle
    }

    /// The drain is over and `alive` nodes create recovery point number
    /// `gen + 1`, which this returns.
    pub(crate) fn begin_create(&mut self, alive: usize) -> u64 {
        let Phase::Draining { since } = self.phase else {
            unreachable!("creating follows a checkpoint drain");
        };
        self.phase = Phase::Creating {
            since,
            created: 0,
            expected: alive,
        };
        self.gen + 1
    }

    /// The recovery point commits. Returns its number.
    pub(crate) fn commit(&mut self) -> u64 {
        self.phase = Phase::Running;
        self.gen += 1;
        self.gen
    }

    pub(crate) fn begin_rejoin(&mut self, node: NodeId) {
        self.phase = Phase::Rejoining { node };
    }

    /// The rejoin or the recovery is over: processors compute again.
    pub(crate) fn resume(&mut self) {
        self.phase = Phase::Running;
    }

    /// The open recovery episode, or a fresh one outside recovery. A
    /// failure takes it, and [`Coordinator::recover`] installs it once the
    /// rollback is over.
    pub(crate) fn episode(&self) -> RecoveryEpisode {
        match self.phase {
            Phase::Recovering(episode) => episode,
            _ => RecoveryEpisode::default(),
        }
    }

    /// A failure purged the network, so nothing is in flight. Returns the
    /// node of an abandoned repair drain, to be requested again.
    pub(crate) fn purge(&mut self) -> Option<NodeId> {
        self.in_flight = 0;
        match self.phase {
            Phase::Rejoining { node } => Some(node),
            _ => None,
        }
    }

    pub(crate) fn recover(&mut self, episode: RecoveryEpisode) {
        self.phase = Phase::Recovering(episode);
    }

    /// The machine halted with the calendar cleared: no message or timer
    /// is pending any more.
    pub(crate) fn halt(&mut self) {
        self.in_flight = 0;
        self.timer_armed = false;
    }
}
