//! The processors: which reference streams each one executes, what it has
//! buffered, and when it may next issue.
//!
//! Processor `i` runs on node `i` and starts out on stream `i`; a dead
//! node's ring successor adopts its streams until a repair hands them back.
//! Every scheduled issue or completion carries the processor's epoch, which
//! each pause, reschedule and rollback bumps, so older events are stale.

use std::collections::VecDeque;

use ftcoma_mem::NodeId;
use ftcoma_sim::Cycles;
use ftcoma_workloads::{MemRef, NodeStream, RefStream, StreamSnapshot};

use crate::config::MachineConfig;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Will issue at its scheduled `Proc` event.
    Ready,
    /// Blocked on a coherence transaction.
    Stalled,
    /// Stopped for a checkpoint, a repair or a recovery.
    Paused,
    /// Waiting at a global barrier.
    AtBarrier,
    /// Completed its reference quota.
    Done,
    /// Permanently failed.
    Dead,
}

impl ProcState {
    fn finished(self) -> bool {
        matches!(self, ProcState::Done | ProcState::Dead)
    }
}

/// Every processor of a machine (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Processors {
    streams: Vec<NodeStream>,
    /// Every stream's state at the last recovery point.
    snapshots: Vec<StreamSnapshot>,
    /// Per-stream buffered-but-unissued reference at the recovery point.
    /// The stream snapshot already counts such a reference as emitted, so
    /// a rollback must re-inject it explicitly or it is lost forever.
    pending_snap: Vec<Option<MemRef>>,
    /// References re-injected by a rollback, drained before the streams.
    carryover: Vec<VecDeque<(usize, MemRef)>>,
    /// Stream indices each processor executes.
    assigned: Vec<Vec<usize>>,
    /// Round-robin cursor into `assigned`.
    rr: Vec<usize>,
    /// The buffered reference each processor issues next, with its stream.
    pending_ref: Vec<Option<(usize, MemRef)>>,
    state: Vec<ProcState>,
    epochs: Vec<u64>,
    stall_start: Vec<Cycles>,
    refs_since_barrier: Vec<u64>,
    /// Recovery points committed since each processor last issued.
    idle_commits: Vec<u32>,
    /// References each stream emits, warmup included.
    quota: u64,
    /// References between global barriers, if any.
    barrier: Option<u64>,
}

impl Processors {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        let n = cfg.nodes as usize;
        let streams: Vec<NodeStream> = (0..cfg.nodes)
            .map(|i| NodeStream::new(&cfg.workload, i, cfg.nodes, cfg.seed))
            .collect();
        Self {
            snapshots: streams.iter().map(NodeStream::snapshot).collect(),
            streams,
            pending_snap: vec![None; n],
            carryover: vec![VecDeque::new(); n],
            assigned: (0..n).map(|i| vec![i]).collect(),
            rr: vec![0; n],
            pending_ref: vec![None; n],
            state: vec![ProcState::Ready; n],
            epochs: vec![0; n],
            stall_start: vec![0; n],
            refs_since_barrier: vec![0; n],
            idle_commits: vec![0; n],
            quota: cfg.warmup_refs_per_node + cfg.refs_per_node,
            barrier: cfg.workload.barrier_interval_refs,
        }
    }

    /// References each stream has emitted.
    pub(crate) fn progress(&self) -> Vec<u64> {
        self.streams.iter().map(RefStream::refs_emitted).collect()
    }

    pub(crate) fn all_done(&self) -> bool {
        self.state.iter().all(|p| p.finished())
    }

    /// Whether no processor will issue or waits for a transaction.
    pub(crate) fn quiescent(&self) -> bool {
        self.state
            .iter()
            .all(|&p| p.finished() || matches!(p, ProcState::Paused | ProcState::AtBarrier))
    }

    /// How many processors are blocked on a transaction.
    pub(crate) fn stalled(&self) -> usize {
        self.state
            .iter()
            .filter(|&&p| p == ProcState::Stalled)
            .count()
    }

    /// The epoch an event of `node`'s processor must carry to be current.
    #[inline]
    pub(crate) fn epoch(&self, node: NodeId) -> u64 {
        self.epochs[node.index()]
    }

    /// Makes `node`'s processor ready, buffering its next reference unless
    /// one is buffered already. Returns the issue's epoch and the compute
    /// gap of a freshly buffered reference (0 otherwise), or `None` once
    /// the processor has no work left.
    #[inline]
    pub(crate) fn ready(&mut self, node: NodeId) -> Option<(u64, Cycles)> {
        let i = node.index();
        let mut pre = 0;
        if self.pending_ref[i].is_none() {
            let Some(next) = self.next_ref(i) else {
                self.state[i] = ProcState::Done;
                return None;
            };
            pre = Cycles::from(next.1.pre_cycles);
            self.pending_ref[i] = Some(next);
        }
        self.state[i] = ProcState::Ready;
        self.epochs[i] += 1;
        Some((self.epochs[i], pre))
    }

    /// The next reference of processor `i`: re-injected ones first, then
    /// its streams round-robin. `None` once its quota is complete.
    fn next_ref(&mut self, i: usize) -> Option<(usize, MemRef)> {
        if let Some(re_injected) = self.carryover[i].pop_front() {
            return Some(re_injected);
        }
        let k = self.assigned[i].len();
        for step in 0..k {
            let si = self.assigned[i][(self.rr[i] + step) % k];
            if self.streams[si].refs_emitted() < self.quota {
                self.rr[i] = (self.rr[i] + step + 1) % k;
                return Some((si, self.streams[si].next_ref()));
            }
        }
        None
    }

    /// `node`'s issue event of `epoch` fired. Returns the reference and the
    /// value a write of it stores (stream in the top 16 bits, emission
    /// count below), or `None` if the event is stale or the processor
    /// stops at the global barrier instead.
    #[inline]
    pub(crate) fn issue(&mut self, node: NodeId, epoch: u64) -> Option<(MemRef, u64)> {
        let i = node.index();
        if epoch != self.epochs[i] || self.state[i] != ProcState::Ready {
            return None;
        }
        if self
            .barrier
            .is_some_and(|b| self.refs_since_barrier[i] >= b)
        {
            self.refs_since_barrier[i] = 0;
            self.state[i] = ProcState::AtBarrier;
            return None;
        }
        let (si, r) = self.pending_ref[i]
            .take()
            .expect("ready node has a buffered reference");
        self.refs_since_barrier[i] += 1;
        self.idle_commits[i] = 0;
        Some((r, ((si as u64) << 48) | self.streams[si].refs_emitted()))
    }

    /// `node`'s processor blocked on a transaction at `now`.
    #[inline]
    pub(crate) fn stall(&mut self, node: NodeId, now: Cycles) {
        self.stall_start[node.index()] = now;
        self.state[node.index()] = ProcState::Stalled;
    }

    /// `node`'s transaction of `epoch` completed. Returns when it stalled,
    /// or `None` if the completion is stale; the processor stays paused
    /// until made ready.
    #[inline]
    pub(crate) fn unstall(&mut self, node: NodeId, epoch: u64) -> Option<Cycles> {
        let i = node.index();
        if epoch != self.epochs[i] || self.state[i] != ProcState::Stalled {
            return None;
        }
        self.state[i] = ProcState::Paused;
        Some(self.stall_start[i])
    }

    /// Pauses every processor that has not yet issued; stalled ones finish
    /// their transaction first ("each node first terminates all pending
    /// requests").
    pub(crate) fn pause_ready(&mut self) {
        for (state, epoch) in self.state.iter_mut().zip(&mut self.epochs) {
            if *state == ProcState::Ready {
                *state = ProcState::Paused;
                *epoch += 1;
            }
        }
    }

    /// The paused processors, in node order.
    pub(crate) fn paused(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.state.len()).filter(|&i| self.state[i] == ProcState::Paused)
    }

    /// Once every unfinished processor waits at the global barrier, pauses
    /// them all for the caller to resume. Returns whether it did.
    #[inline]
    pub(crate) fn release_barrier(&mut self) -> bool {
        let unfinished = || self.state.iter().filter(|p| !p.finished());
        if self.barrier.is_none()
            || unfinished().next().is_none()
            || unfinished().any(|&p| p != ProcState::AtBarrier)
        {
            return false;
        }
        for state in &mut self.state {
            if *state == ProcState::AtBarrier {
                *state = ProcState::Paused;
            }
        }
        true
    }

    /// A recovery point commits. It holds every stream's state, plus any
    /// reference already emitted into an issue buffer but not yet executed:
    /// the stream snapshot counts it as consumed, so only this side record
    /// can resurrect it after a rollback. Returns whether a live, unfinished
    /// processor has now gone two recovery points in a row without issuing.
    pub(crate) fn commit(&mut self) -> bool {
        self.snapshots = self.streams.iter().map(NodeStream::snapshot).collect();
        self.pending_snap = vec![None; self.streams.len()];
        for p in self.pending_ref.iter().flatten() {
            self.pending_snap[p.0] = Some(p.1);
        }
        let mut starved = false;
        for (idle, state) in self.idle_commits.iter_mut().zip(&self.state) {
            *idle = if state.finished() {
                0
            } else {
                idle.saturating_add(1)
            };
            starved |= *idle >= 2;
        }
        starved
    }

    /// `dead`'s processor failed for good: `heir` adopts its streams.
    pub(crate) fn retire(&mut self, dead: NodeId, heir: NodeId) {
        self.state[dead.index()] = ProcState::Dead;
        let work = std::mem::take(&mut self.assigned[dead.index()]);
        self.assigned[heir.index()].extend(work);
    }

    /// A failure stops every processor: scheduled issues and completions
    /// turn stale, buffered references are dropped, every live processor
    /// pauses and the barrier counts restart.
    pub(crate) fn stop_all(&mut self) {
        for i in 0..self.state.len() {
            self.epochs[i] += 1;
            self.pending_ref[i] = None;
            self.refs_since_barrier[i] = 0;
            if self.state[i] != ProcState::Dead {
                self.state[i] = ProcState::Paused;
            }
        }
    }

    /// Rewinds every stream to the last recovery point. References that sat
    /// in an issue buffer then are re-injected, since the restored streams
    /// will never re-emit them, each at whichever live processor now runs
    /// its stream.
    pub(crate) fn rewind(&mut self) {
        for (stream, snap) in self.streams.iter_mut().zip(&self.snapshots) {
            stream.restore(snap);
        }
        for q in &mut self.carryover {
            q.clear();
        }
        for (si, buffered) in self.pending_snap.iter().enumerate() {
            if let Some(r) = buffered {
                let owner = (0..self.state.len())
                    .find(|&p| self.state[p] != ProcState::Dead && self.assigned[p].contains(&si));
                if let Some(p) = owner {
                    self.carryover[p].push_back((si, *r));
                }
            }
        }
    }

    /// A repaired `node` rejoins paused and reclaims its own stream from
    /// whoever adopted it, together with any re-injected reference of that
    /// stream. Finished processors pause too, so the resume rechecks their
    /// work.
    pub(crate) fn rejoin(&mut self, node: NodeId) {
        let i = node.index();
        self.state[i] = ProcState::Paused;
        self.pending_ref[i] = None;
        self.idle_commits[i] = 0;
        for other in (0..self.state.len()).filter(|&o| o != i) {
            self.assigned[other].retain(|&s| s != i);
            while let Some(pos) = self.carryover[other].iter().position(|&(s, _)| s == i) {
                let moved = self.carryover[other].remove(pos).expect("position exists");
                self.carryover[i].push_back(moved);
            }
        }
        if !self.assigned[i].contains(&i) {
            self.assigned[i].push(i);
        }
        for state in &mut self.state {
            if *state == ProcState::Done {
                *state = ProcState::Paused;
            }
        }
    }
}
