//! Everything a [`Machine`](crate::Machine) records about a run but never
//! consults: the protocol trace, the causal spans, the time series, the
//! replay window and the per-node down intervals.
//!
//! The machine makes one call per lifecycle point (a stall, a delivery, a
//! commit, a failure, …) and the observer turns it into trace events,
//! spans, histogram samples and availability intervals. No simulation
//! decision depends on observer state, so capture can never change a
//! run's outcome.

use ftcoma_mem::NodeId;
use ftcoma_net::HopSegment;
use ftcoma_protocol::msg::{Msg, TxnLeg};
use ftcoma_sim::span::{SpanId, SpanLog, SpanPhase, SpanRecord};
use ftcoma_sim::Cycles;

use crate::metrics::{RunMetrics, TsSample};
use crate::tracelog::{TraceEvent, TraceLog};

/// Ceiling on retained time-series rows: when reached, every other row is
/// dropped and the sampling stride doubles, keeping memory bounded on
/// arbitrarily long runs while staying deterministic.
pub(crate) const MAX_TS_ROWS: usize = 8192;

/// The machine's recording state (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Observer {
    trace: TraceLog,
    /// Causal span sink (inert when `trace_capacity` is 0).
    spans: SpanLog,
    /// Open root Transaction span per node: `(id, stall time)`, id 0 =
    /// none.
    open_txn: Vec<(SpanId, Cycles)>,
    /// Open root Recovery span: `(id, failure time, failed node)`.
    open_recovery: Option<(SpanId, Cycles, u16)>,
    /// Open Replay child span: `(id, recovery-end time)`.
    open_replay: Option<(SpanId, Cycles)>,
    /// Start of the current replay window (always on; feeds the replay
    /// phase histogram independently of span capture). Crate-visible for
    /// the machine's tests only.
    pub(crate) replay_start: Option<Cycles>,
    /// Per-node down-interval opening time (always on; availability).
    down_since: Vec<Option<Cycles>>,
    /// Time-series sampling stride (0 = off; doubles when thinning).
    ts_every: Cycles,
    /// Next sample time.
    ts_next: Cycles,
    /// `refs` as of the previous sample (for per-interval deltas).
    ts_last_refs: u64,
    ts_rows: Vec<TsSample>,
}

impl Observer {
    /// An observer of `nodes` nodes whose trace and span rings hold
    /// `trace_capacity` records (0 = off), sampling a time-series row
    /// every `ts_every` cycles (0 = off).
    pub(crate) fn new(nodes: usize, trace_capacity: usize, ts_every: Cycles) -> Self {
        Self {
            trace: TraceLog::new(trace_capacity),
            spans: SpanLog::new(trace_capacity),
            open_txn: vec![(0, 0); nodes],
            open_recovery: None,
            open_replay: None,
            replay_start: None,
            down_since: vec![None; nodes],
            ts_every,
            ts_next: ts_every,
            ts_last_refs: 0,
            ts_rows: Vec::new(),
        }
    }

    pub(crate) fn trace(&self) -> Vec<TraceEvent> {
        self.trace.events().cloned().collect()
    }

    pub(crate) fn spans(&self) -> Vec<SpanRecord> {
        self.spans.records()
    }

    pub(crate) fn timeseries(&self) -> &[TsSample] {
        &self.ts_rows
    }

    /// Emits every sample row due up to (and including) simulation time
    /// `t`. `sample` reads the machine's counters given the open down
    /// intervals; the observer stamps each row's `cycle` and `refs_delta`.
    pub(crate) fn sample_until(
        &mut self,
        t: Cycles,
        mut sample: impl FnMut(&[Option<Cycles>]) -> TsSample,
    ) {
        if self.ts_every == 0 {
            return;
        }
        while self.ts_next <= t {
            let row = sample(&self.down_since);
            let refs_delta = row.refs - self.ts_last_refs;
            self.ts_last_refs = row.refs;
            self.ts_rows.push(TsSample {
                cycle: self.ts_next,
                refs_delta,
                ..row
            });
            self.ts_next += self.ts_every;
            if self.ts_rows.len() >= MAX_TS_ROWS {
                // Thin deterministically: keep every other row, double the
                // stride. Long runs stay bounded without a config knob.
                let mut idx = 0;
                self.ts_rows.retain(|_| {
                    idx += 1;
                    idx % 2 == 1
                });
                self.ts_every *= 2;
            }
        }
    }

    /// `node` stalled on a miss at `now`. Opens its root Transaction span
    /// before the request messages leave, so their hop spans find it.
    pub(crate) fn stall(&mut self, node: usize, now: Cycles) {
        if self.spans.enabled() {
            self.open_txn[node] = (self.spans.alloc_id(), now);
        }
    }

    /// The stalled access of `node` completed at `now`.
    pub(crate) fn resume(&mut self, node: usize, now: Cycles) {
        self.close_txn_span(node, now);
    }

    /// A message reached `to` at `now`. Traces it and attributes it to its
    /// transaction leg: the end-to-end latency goes into the always-on
    /// phase histogram and, with span capture on, into a leg span under
    /// the requester's open Transaction span.
    pub(crate) fn delivery(
        &mut self,
        now: Cycles,
        to: NodeId,
        msg: &Msg,
        sent: Cycles,
        metrics: &mut RunMetrics,
    ) {
        if self.trace.enabled() {
            self.trace.push(TraceEvent::Delivery {
                at: now,
                to,
                kind: msg.kind(),
                item: msg.item(),
            });
        }
        let Some(leg) = msg.txn_leg() else {
            return;
        };
        let (hist, phase) = match leg {
            TxnLeg::DirLookup => (&mut metrics.phases.dir_lookup, SpanPhase::DirLookup),
            TxnLeg::HomeFwd => (&mut metrics.phases.home_fwd, SpanPhase::HomeFwd),
            TxnLeg::DataReply => (&mut metrics.phases.data_reply, SpanPhase::DataReply),
        };
        hist.record(now - sent);
        if !self.spans.enabled() {
            return;
        }
        let parent = self.txn_parent(msg, to);
        if parent != 0 {
            let id = self.spans.alloc_id();
            self.record(id, parent, phase, to.index() as u16, sent, now);
        }
    }

    /// Emits a NetHop span per hop segment of the send of `msg` to `to`
    /// just issued on the mesh, parented to the requester's open
    /// Transaction span.
    pub(crate) fn hops(&mut self, msg: &Msg, to: NodeId, hops: &[HopSegment]) {
        if !self.spans.enabled() || msg.txn_leg().is_none() {
            return;
        }
        let parent = self.txn_parent(msg, to);
        if parent == 0 {
            return;
        }
        for h in hops {
            let id = self.spans.alloc_id();
            self.record(
                id,
                parent,
                SpanPhase::NetHop,
                to.index() as u16,
                h.start,
                h.end,
            );
        }
    }

    pub(crate) fn checkpoint_begun(&mut self, now: Cycles, gen: u64) {
        self.trace
            .push(TraceEvent::CheckpointBegun { at: now, gen });
    }

    /// Recovery point `gen` committed at `now`. The commit ends the replay
    /// window: lost work is re-covered by a durable recovery point from
    /// here on.
    pub(crate) fn checkpoint_committed(&mut self, now: Cycles, gen: u64, metrics: &mut RunMetrics) {
        self.close_replay_window(now, metrics);
        self.close_recovery_tree(now);
        self.trace
            .push(TraceEvent::CheckpointCommitted { at: now, gen });
    }

    pub(crate) fn node_commit(&mut self, at: Cycles, node: NodeId, dur: Cycles) {
        if self.trace.enabled() {
            self.trace.push(TraceEvent::NodeCommit { at, node, dur });
        }
    }

    /// `node` failed at `now`; `restart_depth` is the episode's fault count
    /// when the failure restarts an open recovery. Ends any replay window,
    /// opens the node's down interval, aborts the in-flight transaction
    /// spans, closes a stale recovery tree and opens a new one.
    pub(crate) fn failure(
        &mut self,
        now: Cycles,
        node: NodeId,
        permanent: bool,
        restart_depth: Option<u64>,
        metrics: &mut RunMetrics,
    ) {
        self.trace.push(TraceEvent::Failure {
            at: now,
            node,
            permanent,
        });
        if let Some(depth) = restart_depth {
            self.trace.push(TraceEvent::RecoveryRestarted {
                at: now,
                node,
                depth,
            });
        }
        self.close_replay_window(now, metrics);
        // Detection is immediate under the fail-stop model; the zero-width
        // sample keeps the phase present in the decomposition.
        metrics.phases.detection.record(0);
        let i = node.index();
        metrics.per_node[i].down_count += 1;
        self.down_since[i].get_or_insert(now);
        if self.spans.enabled() {
            // In-flight transactions are about to be aborted by the purge.
            for k in 0..self.open_txn.len() {
                self.close_txn_span(k, now);
            }
            self.close_recovery_tree(now);
            let root = self.spans.alloc_id();
            self.open_recovery = Some((root, now, i as u16));
            let det = self.spans.alloc_id();
            self.record(det, root, SpanPhase::Detection, i as u16, now, now);
        }
    }

    /// `node`'s rollback scan ran from `at` for `dur` cycles.
    pub(crate) fn rollback_scan(&mut self, at: Cycles, node: NodeId, dur: Cycles) {
        if self.trace.enabled() {
            self.trace.push(TraceEvent::NodeRollback { at, node, dur });
        }
        if let Some((root, _, _)) = self.open_recovery {
            let id = self.spans.alloc_id();
            let node = node.index() as u16;
            self.record(id, root, SpanPhase::Rollback, node, at, at + dur);
        }
    }

    /// The recovery that started at `start` completed at `end`. Surviving
    /// (transient) victims, those `alive` says are up, come back; the
    /// replay window opens.
    pub(crate) fn recovered(
        &mut self,
        start: Cycles,
        end: Cycles,
        alive: impl Fn(usize) -> bool,
        metrics: &mut RunMetrics,
    ) {
        self.trace.push(TraceEvent::Recovered { at: end });
        for i in 0..self.down_since.len() {
            if alive(i) {
                self.close_down_interval(i, end, metrics);
            }
        }
        self.replay_start = Some(end);
        if let Some((root, _, victim)) = self.open_recovery {
            let id = self.spans.alloc_id();
            self.record(id, root, SpanPhase::Reconfiguration, victim, start, end);
            self.open_replay = Some((self.spans.alloc_id(), end));
        }
    }

    /// A replacement for `node` rejoined at `now`.
    pub(crate) fn repaired(&mut self, now: Cycles, node: NodeId, metrics: &mut RunMetrics) {
        self.close_down_interval(node.index(), now, metrics);
        self.trace.push(TraceEvent::Repaired { at: now, node });
    }

    /// A link was cut or repaired, or a router went down.
    pub(crate) fn interconnect(&mut self, event: TraceEvent) {
        self.trace.push(event);
    }

    /// Closes every still-open span and down interval at the end of the
    /// run (or at a halt), so exported timelines never dangle.
    pub(crate) fn end_of_run(&mut self, now: Cycles, metrics: &mut RunMetrics) {
        for i in 0..self.down_since.len() {
            self.close_down_interval(i, now, metrics);
        }
        self.close_replay_window(now, metrics);
        for i in 0..self.open_txn.len() {
            self.close_txn_span(i, now);
        }
        self.close_recovery_tree(now);
    }

    /// The open Transaction span a message of the requester's transaction
    /// belongs to (0 = none).
    fn txn_parent(&self, msg: &Msg, to: NodeId) -> SpanId {
        let requester = msg.requester().map(NodeId::index).unwrap_or(to.index());
        self.open_txn.get(requester).map_or(0, |&(id, _)| id)
    }

    fn close_txn_span(&mut self, node: usize, end: Cycles) {
        let (id, start) = std::mem::take(&mut self.open_txn[node]);
        if id != 0 {
            self.record(id, 0, SpanPhase::Transaction, node as u16, start, end);
        }
    }

    /// Closes the open recovery span tree at `end`: its Replay child (if
    /// the replay window opened) and then the Recovery root.
    fn close_recovery_tree(&mut self, end: Cycles) {
        let Some((root, start, victim)) = self.open_recovery.take() else {
            return;
        };
        if let Some((id, replay_start)) = self.open_replay.take() {
            let replay_start = replay_start.min(end);
            self.record(id, root, SpanPhase::Replay, victim, replay_start, end);
        }
        self.record(root, 0, SpanPhase::Recovery, victim, start, end);
    }

    /// Records a closed span; the arguments are `SpanRecord`'s fields in
    /// order. A no-op while span capture is off.
    fn record(
        &mut self,
        id: SpanId,
        parent: SpanId,
        phase: SpanPhase,
        node: u16,
        start: Cycles,
        end: Cycles,
    ) {
        self.spans.push(SpanRecord {
            id,
            parent,
            phase,
            node,
            start,
            end,
        });
    }

    /// Ends the replay window at `end` and records its length. The window
    /// can open at a recovery end scheduled past the event that ends it;
    /// such a window never opened and is discarded without a sample (a
    /// clamped zero would pollute the replay p50).
    fn close_replay_window(&mut self, end: Cycles, metrics: &mut RunMetrics) {
        if let Some(start) = self.replay_start.take() {
            if end >= start {
                metrics.phases.replay.record(end - start);
            }
        }
    }

    /// Closes `node`'s down interval (if open) at `end`.
    fn close_down_interval(&mut self, node: usize, end: Cycles, metrics: &mut RunMetrics) {
        if let Some(from) = self.down_since[node].take() {
            metrics.per_node[node].down_cycles += end - from;
            metrics.down_intervals[node].push((from, end));
        }
    }
}
