//! The machine: nodes + engine + mesh + checkpoint coordinator + failures,
//! advanced by one deterministic event loop.

use ftcoma_core::{
    ckpt, invariants, recovery, AccessOutcome, AccessReq, Ctx, Effect, Engine, HitSource,
    RecoveryOutcome, ECP_MIN_LIVE_NODES,
};
use ftcoma_mem::{ItemId, ItemState, NodeId};
use ftcoma_net::{Fabric, LogicalRing, MeshGeometry, NetClass};
use ftcoma_protocol::msg::{InjectCause, Msg};
use ftcoma_protocol::NodeState;
use ftcoma_sim::span::SpanRecord;
use ftcoma_sim::{derive_seed, Cycles, EventQueue, FxHashMap};

use crate::config::{FailureKind, MachineConfig};
use crate::coordinator::{Coordinator, Step};
use crate::episode::RecoveryEpisode;
use crate::faultproc::{FaultAction, FaultProcess, FaultProcessConfig};
use crate::metrics::{NodeMetrics, RunMetrics, TsSample};
use crate::observer::Observer;
use crate::processors::Processors;
use crate::tracelog::TraceEvent;
use crate::transport::{backoff, Retry, Transport};

#[derive(Debug, Clone)]
enum Event {
    /// Processor of `node` issues its buffered reference (valid only for
    /// the matching epoch).
    Proc { node: NodeId, epoch: u64 },
    /// Network delivery. `sent` is the departure time, kept so delivery
    /// can attribute the end-to-end leg latency to its causal phase.
    Deliver { to: NodeId, msg: Msg, sent: Cycles },
    /// Stalled access of `node` completed.
    Resume { node: NodeId, epoch: u64 },
    /// Periodic recovery-point establishment.
    CkptTimer,
    /// Injected failure.
    Failure { node: NodeId, kind: FailureKind },
    /// A replacement node rejoins in place of a permanently failed one.
    Repair { node: NodeId },
    /// Reliable-transport delivery attempt: one physical copy of packet
    /// `(src, seq)` arriving at `to`.
    NetDeliver {
        src: NodeId,
        to: NodeId,
        seq: u64,
        msg: Msg,
    },
    /// Transport acknowledgement for `(src, dst, seq)` arriving back at
    /// `src`.
    NetAck { src: NodeId, dst: NodeId, seq: u64 },
    /// Retransmission timer for in-flight packet `(src, dst, seq)`.
    NetRetry { src: NodeId, dst: NodeId, seq: u64 },
    /// Scheduled interconnect fault: a mesh link is cut.
    LinkCut { a: NodeId, b: NodeId },
    /// Scheduled interconnect fault: a mesh router dies.
    RouterDown { node: NodeId },
    /// The continuous fault process has events due ([`FaultProcess`]);
    /// exactly one tick is in flight whenever a process is installed.
    FaultTick,
}

/// Seed stream for the continuous fault process installed by
/// [`Machine::install_fault_process`].
const FAULT_PROC_STREAM: u64 = 0x8F17_0C55_C0D1_2ED9;

/// The simulated ft-coma machine. See the crate docs for an example.
///
/// `Clone` is deep and deterministic: the clone replays exactly like the
/// original (see [`Machine::snapshot`]).
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
    nodes: Vec<NodeState>,
    engine: Engine,
    mesh: Fabric,
    ring: LogicalRing,
    queue: EventQueue<Event>,

    /// Reference streams, issue buffers and processor states.
    procs: Processors,
    /// Global phase, checkpoint timer and in-flight message count.
    coord: Coordinator,
    /// Continuous MTBF/MTTR failure–repair schedule generator
    /// ([`Machine::install_fault_process`]; `None` = scripted faults only).
    fault_process: Option<FaultProcess>,

    /// The reliable transport, switched on by the first interconnect fault
    /// the machine is told about ([`Machine::activate_transport`]); `None`
    /// = the fire-and-forget path (mesh sends cannot fail on a healthy
    /// fabric).
    transport: Option<Transport>,

    committed_values: FxHashMap<ItemId, u64>,
    /// Trace, spans, time series, replay window and down intervals.
    observer: Observer,

    metrics: RunMetrics,
    /// Metrics snapshot taken when warmup completed.
    baseline: Option<(RunMetrics, Cycles)>,
    finished: bool,
    outcome: RecoveryOutcome,
    /// Set when the machine stopped early on a terminal outcome.
    halted: bool,
}

/// A frozen, deeply-cloned [`Machine`] state, cheap to fork from.
///
/// Produced by [`Machine::snapshot`]; turned back into a runnable machine
/// by [`Snapshot::to_machine`] (any number of times — each fork is
/// independent) or applied over an existing machine by
/// [`Machine::restore`]. Forked runs are byte-identical to straight runs:
/// the event calendar's two-band sequence numbering makes scenario
/// injection into a resumed snapshot tie-break exactly like
/// construction-time injection.
#[derive(Debug, Clone)]
pub struct Snapshot(Box<Machine>);

impl Snapshot {
    /// Forks an independent runnable machine from the captured state.
    pub fn to_machine(&self) -> Machine {
        (*self.0).clone()
    }

    /// Simulation time at which the state was captured.
    pub fn at(&self) -> Cycles {
        self.0.queue.now()
    }
}

impl Machine {
    /// Builds a machine from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// ([`MachineConfig::validate`]).
    pub fn new(cfg: MachineConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let n = cfg.nodes as usize;
        let nodes: Vec<NodeState> = (0..cfg.nodes)
            .map(|i| NodeState::new(NodeId::new(i), cfg.am, cfg.cache))
            .collect();
        let mesh = Fabric::new(cfg.fabric(), n);
        let engine = Engine::new(cfg.ft, cfg.timing, n);
        let mut machine = Self {
            nodes,
            engine,
            mesh,
            ring: LogicalRing::new(n),
            queue: EventQueue::new(),
            procs: Processors::new(&cfg),
            coord: Coordinator::new(cfg.ft.ckpt_period_cycles()),
            fault_process: None,
            transport: None,
            committed_values: FxHashMap::default(),
            observer: Observer::new(n, cfg.trace_capacity, cfg.timeseries_every),
            metrics: RunMetrics {
                nodes: n as u64,
                per_node: vec![NodeMetrics::default(); n],
                down_intervals: vec![Vec::new(); n],
                ..RunMetrics::default()
            },
            baseline: None,
            finished: false,
            outcome: RecoveryOutcome::Recovered,
            halted: false,
            cfg,
        };
        // Hop segments feed span capture only; timing is unchanged.
        machine.mesh.set_hop_trace(machine.cfg.trace_capacity > 0);
        for i in 0..n {
            machine.schedule_issue(NodeId::new(i as u16), 0);
        }
        machine.arm_timer(0, 0);
        machine
    }

    /// Schedules a node failure at an absolute simulation time.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled (the baseline machine cannot
    /// recover) or the node index is out of range.
    pub fn schedule_failure(&mut self, at: Cycles, node: NodeId, kind: FailureKind) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "failures require the ECP; the standard protocol cannot recover"
        );
        assert!(node.index() < self.nodes.len(), "no such node");
        self.queue.schedule_pre(at, Event::Failure { node, kind });
    }

    /// Schedules the repair of a permanently failed node: a fresh
    /// replacement (empty memory) rejoins the ring at `at`, takes its
    /// static home range back and resumes the node's share of the work.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled or the node index is out of
    /// range. Repairing a node that is still alive at `at` is a no-op.
    pub fn schedule_repair(&mut self, at: Cycles, node: NodeId) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "repair requires the ECP machine"
        );
        assert!(node.index() < self.nodes.len(), "no such node");
        self.queue.schedule_pre(at, Event::Repair { node });
    }

    /// Schedules a mesh link cut at `at`: both directions of the `a`–`b`
    /// link die, forcing traffic to detour (or, if the cut severs the mesh,
    /// escalating through the reliable transport). Activates the transport.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled, the fabric is a bus (no
    /// per-link topology), or a node index is out of range; `a` and `b`
    /// must be mesh-adjacent (checked when the cut is applied).
    pub fn schedule_link_cut(&mut self, at: Cycles, a: NodeId, b: NodeId) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "interconnect faults require the ECP machine"
        );
        assert!(self.cfg.bus.is_none(), "link cuts need a mesh fabric");
        assert!(
            a.index() < self.nodes.len() && b.index() < self.nodes.len(),
            "no such node"
        );
        self.activate_transport();
        self.queue.schedule_pre(at, Event::LinkCut { a, b });
    }

    /// Schedules a mesh router failure at `at`: the node's router stops
    /// switching, making the node unreachable while its processor keeps
    /// running. Its peers' transports time out and escalate, turning the
    /// router loss into a permanent node failure. Activates the transport.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled, the fabric is a bus, or the
    /// node index is out of range.
    pub fn schedule_router_down(&mut self, at: Cycles, node: NodeId) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "interconnect faults require the ECP machine"
        );
        assert!(self.cfg.bus.is_none(), "router faults need a mesh fabric");
        assert!(node.index() < self.nodes.len(), "no such node");
        self.activate_transport();
        self.queue.schedule_pre(at, Event::RouterDown { node });
    }

    /// Installs a seeded message-loss episode: starting at `at`, each
    /// physical packet is dropped with probability `rate_per_mille`/1000
    /// for a bounded window of 16 000 cycles. The reliable
    /// transport masks the losses with retransmissions. Activates the
    /// transport and arms its standby loss plan in place, keeping the
    /// plan's seed and send ordinal, so a run forked from a pre-activated
    /// prefix rolls the same per-packet dice as a straight one.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled, a plan is already armed, or
    /// the rate exceeds 1000 per-mille.
    pub fn set_message_loss(&mut self, at: Cycles, rate_per_mille: u32) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "interconnect faults require the ECP machine"
        );
        self.activate_transport().arm_loss(rate_per_mille, at);
    }

    /// Switches the machine onto the reliable-transport path from cycle 0
    /// without changing behavior: every packet is delivered, merely
    /// through the sequenced/acked path an armed plan would use. A prefix
    /// run snapshotted for later network-fault injection must run
    /// pre-activated so the fork point inherits transport state (and the
    /// plan's send ordinal) identical to a straight run's.
    ///
    /// # Panics
    ///
    /// Panics if a message-loss plan is already armed.
    pub fn preactivate_transport(&mut self) {
        let armed = self.activate_transport().loss_armed();
        assert!(!armed, "a fault plan is already armed");
    }

    /// The reliable transport, switched on first if the machine is still
    /// on the fire-and-forget path. Every interconnect fault comes through
    /// here; the first installs a zero-rate standby loss plan, and the
    /// transport then stays on for the rest of the run.
    fn activate_transport(&mut self) -> &mut Transport {
        let seed = self.cfg.seed;
        self.transport.get_or_insert_with(|| Transport::new(seed))
    }

    /// Installs the continuous MTBF/MTTR failure–repair process
    /// ([`crate::faultproc`]): from `cfg.start` on, nodes permanently
    /// fail and rejoin — and, when the link process is enabled, mesh
    /// links are cut and restored — on an unbounded seeded stochastic
    /// schedule. Node repairs re-enter through the full rejoin path
    /// (router restored, home ranges migrated back, work reclaimed);
    /// enabling the link process activates the reliable transport, since
    /// a cut may sever the mesh.
    ///
    /// # Panics
    ///
    /// Panics if fault tolerance is disabled, a process is already
    /// installed, the configuration does not validate, or a link process
    /// is requested on a bus fabric.
    pub fn install_fault_process(&mut self, cfg: FaultProcessConfig) {
        assert!(
            self.cfg.ft.mode.is_enabled(),
            "continuous faults require the ECP; the standard protocol cannot recover"
        );
        assert!(
            self.fault_process.is_none(),
            "one fault process per machine"
        );
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let links = if cfg.link_mtbf > 0 {
            assert!(self.cfg.bus.is_none(), "link faults need a mesh fabric");
            self.activate_transport();
            MeshGeometry::for_nodes(self.nodes.len()).links()
        } else {
            Vec::new()
        };
        let fp = FaultProcess::new(
            cfg,
            derive_seed(self.cfg.seed, FAULT_PROC_STREAM),
            self.cfg.nodes,
            links,
        );
        let first = fp.next_at().expect("a validated process is always armed");
        self.queue.schedule_pre(first.max(1), Event::FaultTick);
        self.fault_process = Some(fp);
    }

    /// Dispatches queued events in order until a terminal condition —
    /// halt, quiescent completion, or (when `limit` is set) the next
    /// event not being strictly before `limit`.
    ///
    /// The termination checks run *before* each pop, so an event queued
    /// past the natural end of the run (e.g. a fault injected into a
    /// resumed snapshot at a cycle the straight run never reached) is
    /// left undelivered exactly as a straight run would leave it.
    fn advance(&mut self, limit: Option<Cycles>) {
        self.queue.seal();
        loop {
            if self.halted {
                return;
            }
            if self.coord.running() && self.coord.in_flight() == 0 && self.procs.all_done() {
                return;
            }
            if let Some(l) = limit {
                match self.queue.peek_time() {
                    Some(t) if t < l => {}
                    _ => return,
                }
            }
            let Some((at, ev)) = self.queue.pop() else {
                return;
            };
            self.sample_timeseries_until(at);
            self.dispatch(ev);
        }
    }

    /// Runs the machine up to (but not including) simulation time `limit`,
    /// then stops with all state intact: every event strictly before
    /// `limit` is dispatched, nothing at or after it. The machine can
    /// continue via another [`Machine::run_until`] or finish with
    /// [`Machine::run`] — the composite run is byte-identical to an
    /// uninterrupted one. This is the prefix half of snapshot-fork
    /// execution: run to an injection cycle once, snapshot, fork many.
    ///
    /// # Panics
    ///
    /// Panics if the machine already finished.
    pub fn run_until(&mut self, limit: Cycles) {
        assert!(!self.finished, "machine already ran");
        self.advance(Some(limit));
    }

    /// Runs the machine to completion and returns the metrics.
    pub fn run(&mut self) -> RunMetrics {
        assert!(!self.finished, "machine already ran");
        self.advance(None);
        self.finished = true;
        self.observer
            .end_of_run(self.queue.now(), &mut self.metrics);
        self.metrics.total_cycles = self.queue.now();
        self.metrics.pages_allocated = self
            .live_nodes()
            .map(|n| n.am.allocated_pages() as u64)
            .sum();
        self.metrics.pages_peak = self
            .live_nodes()
            .map(|n| n.am.peak_allocated_pages() as u64)
            .sum();
        for i in 0..self.nodes.len() {
            // Dead nodes report their peak up to the failure (the wipe
            // evicts pages but keeps the high-water mark) and zero current
            // pages, consistent with the live_nodes() aggregates above.
            self.metrics.per_node[i].pages_allocated = if self.nodes[i].alive {
                self.nodes[i].am.allocated_pages() as u64
            } else {
                0
            };
            self.metrics.per_node[i].pages_peak = self.nodes[i].am.peak_allocated_pages() as u64;
        }
        self.metrics.record_net(self.mesh.stats());
        if let Some((base, base_cycles)) = self.baseline.take() {
            self.metrics = self.metrics.delta_since(&base);
            self.metrics.total_cycles = self.queue.now() - base_cycles;
        }
        self.metrics.clone()
    }

    /// Captures the machine's complete state — engine, attraction
    /// memories, caches, directory/home tables, transport, mesh, fault
    /// plan, workload streams, RNG streams, metrics/trace/span/time-series
    /// sinks and the event calendar with both sequence bands — as a
    /// deterministic snapshot. A machine restored from the snapshot and
    /// run to completion produces a report byte-identical to running the
    /// original straight through.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(Box::new(self.clone()))
    }

    /// Replaces this machine's state with the snapshot's.
    pub fn restore(&mut self, snap: &Snapshot) {
        *self = (*snap.0).clone();
    }

    /// The metrics collected so far (complete after [`Machine::run`]).
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The structured recovery verdict of the run so far. Stays
    /// [`RecoveryOutcome::Recovered`] unless the run degraded into a
    /// terminal state (second fault inside a recovery window, or a failed
    /// post-recovery verification), in which case the machine halted early.
    pub fn outcome(&self) -> &RecoveryOutcome {
        &self.outcome
    }

    /// Per-stream emitted-reference counts, indexed by stream (= home
    /// node) number. After a complete run every entry reaches the quota
    /// `warmup_refs_per_node + refs_per_node` even when streams were
    /// adopted by an heir — the liveness signal chaos oracles check.
    pub fn stream_progress(&self) -> Vec<u64> {
        self.procs.progress()
    }

    /// The owner-visible memory image: `(item index, value)` for every
    /// owner-state copy on a live node, sorted by item index. The
    /// invariants guarantee at most one owner per item, so this is a
    /// well-defined snapshot of current memory contents.
    pub fn owner_image(&self) -> Vec<(u64, u64)> {
        let mut image: Vec<(u64, u64)> = Vec::new();
        for ns in self.live_nodes() {
            for (item, slot) in ns.am.iter_present() {
                if slot.state.is_owner() {
                    image.push((item.index(), slot.value));
                }
            }
        }
        image.sort_unstable();
        image
    }

    /// The retained protocol trace (empty unless
    /// [`MachineConfig::trace_capacity`] was set).
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.observer.trace()
    }

    /// The retained causal span records, oldest first (empty unless
    /// [`MachineConfig::trace_capacity`] was set). Spans share the trace
    /// ring's capacity; the newest closes survive wraparound.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.observer.spans()
    }

    /// The sampled time-series rows (empty unless
    /// [`MachineConfig::timeseries_every`] was set).
    pub fn timeseries(&self) -> &[TsSample] {
        self.observer.timeseries()
    }

    /// Per-link interconnect traffic breakdown (empty for bus fabrics).
    pub fn link_report(&self) -> Vec<ftcoma_net::LinkReport> {
        self.mesh.link_report()
    }

    /// The paper's four-irreplaceable-pages capacity check (§4.1) for this
    /// configuration: necessary (not sufficient) for injections to always
    /// find space. Violations make `run` likely to abort with an
    /// AM-capacity panic.
    pub fn capacity_report(&self) -> ftcoma_core::capacity::CapacityReport {
        ftcoma_core::capacity::check(
            &self.cfg.am,
            self.cfg.nodes,
            ftcoma_core::capacity::workload_pages(
                self.cfg.workload.shared_pages,
                self.cfg.workload.private_pages_per_node,
                self.cfg.nodes,
            ),
        )
    }

    /// The per-node states (read-only, for tests and tools).
    pub fn nodes(&self) -> &[NodeState] {
        &self.nodes
    }

    /// The logical ring (liveness view).
    pub fn ring(&self) -> &LogicalRing {
        &self.ring
    }

    /// Checks all protocol invariants on the (quiescent) machine.
    ///
    /// # Panics
    ///
    /// Panics with a readable report if an invariant is violated.
    pub fn assert_invariants(&self) {
        invariants::assert_consistent(&self.nodes, &self.ring, self.coord.check_scope());
    }

    /// Checks all protocol invariants and returns the violations (empty =
    /// consistent). Non-panicking form of [`Machine::assert_invariants`]
    /// for harnesses that report rather than abort.
    pub fn check_invariants(&self) -> Vec<String> {
        invariants::check(&self.nodes, &self.ring, self.coord.check_scope())
    }

    /// Verifies that the memory image matches the last committed recovery
    /// point (meaningful right after a recovery, before computation
    /// resumes; requires `verify` in the configuration).
    pub fn verify_against_oracle(&self) -> Result<(), Vec<String>> {
        assert!(
            self.cfg.verify,
            "oracle tracking disabled in this configuration"
        );
        let mut problems = Vec::new();
        let mut seen: FxHashMap<ItemId, Vec<u64>> = FxHashMap::default();
        for ns in self.live_nodes() {
            for (item, slot) in ns.am.iter_present() {
                if slot.state.is_committed_recovery() {
                    seen.entry(item).or_default().push(slot.value);
                }
            }
        }
        for (&item, &value) in &self.committed_values {
            match seen.get(&item) {
                Some(vals) if vals.len() == 2 && vals.iter().all(|&v| v == value) => {}
                other => problems.push(format!(
                    "{item}: expected 2 recovery copies of value {value}, found {other:?}"
                )),
            }
        }
        for item in seen.keys() {
            if !self.committed_values.contains_key(item) {
                problems.push(format!("{item}: recovery copies for an uncommitted item"));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }

    /// Re-runs the data-loss certification audit against the current
    /// memory image: `Some(item)` iff some *written* committed item has
    /// zero live copies (the lowest such item, matching the one a
    /// [`RecoveryOutcome::UnrecoverableDataLoss`] outcome names).
    /// Available on every machine — unlike
    /// [`Machine::verify_against_oracle`] it does not require `verify`,
    /// because the committed-value oracle is always maintained.
    pub fn audit_data_loss(&self) -> Option<ItemId> {
        recovery::audit_copies(
            &self.nodes,
            self.committed_values.iter().map(|(&i, &v)| (i, v)),
        )
        .lost
        .first()
        .copied()
    }

    // -- internals ---------------------------------------------------------

    fn live_nodes(&self) -> impl Iterator<Item = &NodeState> {
        self.nodes.iter().filter(|n| n.alive)
    }

    /// Emits every due time-series row up to (and including) simulation
    /// time `t`. Pure observation: reads counters, schedules nothing.
    fn sample_timeseries_until(&mut self, t: Cycles) {
        let metrics = &self.metrics;
        self.observer.sample_until(t, |down_since| TsSample {
            cycle: 0,
            refs: metrics.refs,
            refs_delta: 0,
            read_misses: metrics.read_misses,
            write_misses: metrics.write_misses,
            in_flight: (self.procs.stalled() + self.coord.in_flight()) as u64,
            queue_depth: self.queue.len() as u64,
            nodes_up: self.ring.alive_count() as u64,
            nodes_down: (0..self.nodes.len())
                .filter(|&i| !self.nodes[i].alive || down_since[i].is_some())
                .map(|i| i as u16)
                .collect(),
            checkpoints: metrics.checkpoints,
            failures: metrics.failures,
            ckpt_stall_cycles: metrics.per_node.iter().map(|n| n.ckpt_stall_cycles).sum(),
            rollback_cycles: metrics.per_node.iter().map(|n| n.rollback_cycles).sum(),
        });
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Proc { node, epoch } => self.on_proc(node, epoch),
            Event::Deliver { to, msg, sent } => self.on_deliver(to, msg, sent),
            Event::Resume { node, epoch } => self.on_resume(node, epoch),
            Event::CkptTimer => self.on_ckpt_timer(),
            Event::Failure { node, kind } => self.on_failure(node, kind),
            Event::Repair { node } => self.on_repair_request(node),
            Event::NetDeliver { src, to, seq, msg } => self.on_net_deliver(src, to, seq, msg),
            Event::NetAck { src, dst, seq } => {
                if let Some(t) = &mut self.transport {
                    t.acked(src, dst, seq);
                }
            }
            Event::NetRetry { src, dst, seq } => self.on_net_retry(src, dst, seq),
            Event::LinkCut { a, b } => {
                let at = self.queue.now();
                self.observer.interconnect(TraceEvent::LinkCut { at, a, b });
                self.mesh.fail_link(a, b);
            }
            Event::RouterDown { node } => {
                let at = self.queue.now();
                self.observer
                    .interconnect(TraceEvent::RouterDown { at, node });
                self.mesh.fail_router(node);
            }
            Event::FaultTick => self.on_fault_tick(),
        }
        if self.halted {
            return; // terminal outcome: no phase may make progress
        }
        if self.coord.running() && self.procs.release_barrier() {
            self.resume_paused(|_| 1);
        }
        self.make_progress();
    }

    /// Moves the current phase on once its condition holds: checked after
    /// every event, and wherever a phase may complete on the spot.
    fn make_progress(&mut self) {
        match self.coord.step(&self.procs) {
            None => {}
            Some(Step::Create) => self.begin_create(),
            Some(Step::Rejoin(node)) => self.do_repair(node),
            Some(Step::Commit { since }) => self.do_commit(since),
            Some(Step::Recovered(episode)) => self.finish_recovery(episode),
        }
    }

    /// Makes `node`'s processor ready and, unless it has finished,
    /// schedules its issue `delay` cycles from now, plus the compute gap of
    /// a freshly buffered reference. Returns the issue cycle.
    fn schedule_issue(&mut self, node: NodeId, delay: Cycles) -> Option<Cycles> {
        let (epoch, pre) = self.procs.ready(node)?;
        let at = self.queue.now() + delay + pre;
        self.queue.schedule(at, Event::Proc { node, epoch });
        Some(at)
    }

    /// Resumes every paused processor, node `i` after `delay(i)` cycles.
    /// Returns the cycle the last of them issues at, or now if none will.
    fn resume_paused(&mut self, delay: impl Fn(usize) -> Cycles) -> Cycles {
        let paused: Vec<usize> = self.procs.paused().collect();
        let now = self.queue.now();
        paused
            .into_iter()
            .filter_map(|i| self.schedule_issue(NodeId::new(i as u16), delay(i)))
            .fold(now, Cycles::max)
    }

    /// Queues the checkpoint timer one period after `from`, but not before
    /// `floor`, unless one is already queued.
    fn arm_timer(&mut self, from: Cycles, floor: Cycles) {
        if let Some(at) = self.coord.arm_timer(from, floor) {
            self.queue.schedule(at, Event::CkptTimer);
        }
    }

    fn on_proc(&mut self, node: NodeId, epoch: u64) {
        // Nothing to issue when the event is stale (from before a pause
        // or rollback) or the processor stopped at the global barrier.
        let Some((r, write_value)) = self.procs.issue(node, epoch) else {
            return;
        };
        debug_assert!(self.coord.running(), "ready processors only run in Running");
        let i = node.index();

        self.metrics.refs += 1;
        self.metrics.per_node[i].refs += 1;
        self.metrics.instructions += 1 + u64::from(r.pre_cycles);
        if self.baseline.is_none()
            && self.cfg.warmup_refs_per_node > 0
            && self.metrics.refs >= self.cfg.warmup_refs_per_node * self.nodes.len() as u64
        {
            let mut snap = self.metrics.clone();
            snap.total_cycles = 0;
            snap.record_net(self.mesh.stats());
            self.baseline = Some((snap, self.queue.now()));
        }
        if r.is_write {
            self.metrics.writes += 1;
        } else {
            self.metrics.reads += 1;
        }

        let req = AccessReq {
            addr: r.addr,
            is_write: r.is_write,
            write_value,
        };
        let mut ctx = Ctx::new(&self.ring, self.queue.now());
        let outcome = self.engine.access(&mut self.nodes[i], req, &mut ctx);
        let (out, effects) = ctx.finish();
        if matches!(outcome, AccessOutcome::Stalled) {
            self.observer.stall(i, self.queue.now());
        }
        self.apply_outgoing(node, out);
        self.apply_effects(node, effects);

        match outcome {
            AccessOutcome::Complete { latency, source } => {
                match source {
                    HitSource::Cache if !r.is_write => self.metrics.cache_read_hits += 1,
                    HitSource::LocalAmCk => self.metrics.shared_ck_reads += 1,
                    _ => {}
                }
                self.metrics.access_latency.record(latency);
                self.schedule_issue(node, latency);
            }
            AccessOutcome::Stalled => {
                if r.is_write {
                    self.metrics.write_misses += 1;
                    self.metrics.per_node[i].write_misses += 1;
                } else {
                    self.metrics.read_misses += 1;
                    self.metrics.per_node[i].read_misses += 1;
                }
                self.procs.stall(node, self.queue.now());
            }
        }
    }

    fn on_deliver(&mut self, to: NodeId, msg: Msg, sent: Cycles) {
        self.coord.delivered();
        if !self.nodes[to.index()].alive {
            return; // fail-silent node swallows the message
        }
        self.deliver(to, msg, sent);
    }

    /// Hands a message sent at `sent` to the protocol engine of `to`: the
    /// common tail of both send paths.
    fn deliver(&mut self, to: NodeId, msg: Msg, sent: Cycles) {
        let now = self.queue.now();
        self.observer
            .delivery(now, to, &msg, sent, &mut self.metrics);
        let mut ctx = Ctx::new(&self.ring, now);
        self.engine
            .handle(&mut self.nodes[to.index()], msg, &mut ctx);
        let (out, effects) = ctx.finish();
        self.apply_outgoing(to, out);
        self.apply_effects(to, effects);
    }

    fn on_resume(&mut self, node: NodeId, epoch: u64) {
        let Some(stalled_at) = self.procs.unstall(node, epoch) else {
            return;
        };
        let now = self.queue.now();
        self.metrics.access_latency.record(now - stalled_at);
        self.observer.resume(node.index(), now);
        if self.coord.running() {
            self.schedule_issue(node, 0);
        }
    }

    fn on_ckpt_timer(&mut self) {
        self.coord.timer_fired();
        if self.procs.all_done() {
            return;
        }
        let now = self.queue.now();
        if !self.coord.begin_checkpoint(now) {
            // Recovery or a repair in progress: try again a period later.
            self.arm_timer(now, now);
            return;
        }
        self.procs.pause_ready();
        self.make_progress();
    }

    /// The drain is over: every live node starts creating its recovery
    /// data.
    fn begin_create(&mut self) {
        let now = self.queue.now();
        let gen = self.coord.begin_create(self.ring.alive_count());
        self.observer.checkpoint_begun(now, gen);
        for i in 0..self.nodes.len() {
            if !self.nodes[i].alive {
                continue;
            }
            let mut ctx = Ctx::new(&self.ring, now);
            self.engine.begin_create(&mut self.nodes[i], gen, &mut ctx);
            let (out, effects) = ctx.finish();
            let id = self.nodes[i].id;
            self.apply_outgoing(id, out);
            self.apply_effects(id, effects);
        }
        // An entirely clean machine commits immediately.
        self.make_progress();
    }

    /// Commits the establishment begun at `since`.
    fn do_commit(&mut self, since: Cycles) {
        let commit_start = self.queue.now();
        self.metrics.t_create += commit_start - since;
        let gen = self.coord.commit();
        self.metrics.checkpoints += 1;
        self.observer
            .checkpoint_committed(commit_start, gen, &mut self.metrics);

        let mut scan = vec![0; self.nodes.len()];
        for (ns, scan) in self.nodes.iter_mut().zip(&mut scan) {
            if ns.alive {
                *scan = ckpt::commit_node(ns, &self.cfg.ft, self.engine.timing()).duration;
                self.observer.node_commit(commit_start, ns.id, *scan);
            }
        }
        self.metrics.t_commit += scan.iter().copied().max().unwrap_or(0);
        // Each paused processor was stopped from the establishment start
        // until its own commit scan finished.
        for i in self.procs.paused() {
            self.metrics.per_node[i].ckpt_stall_cycles += (commit_start - since) + scan[i];
        }
        let last_issue = self.resume_paused(|i| scan[i]);
        let starved = self.procs.commit();
        // The committed-value oracle is always maintained (not just under
        // `verify`): the restartable-recovery copy audit needs it to
        // certify data loss on any machine.
        self.rebuild_oracle();

        // The next establishment starts a period after this one began,
        // and strictly after this commit. A period shorter than an
        // establishment would pause the resumed processors again before
        // they issue: once a live processor has gone two establishments
        // without issuing, the next one waits until they all have.
        let floor = if starved { last_issue + 1 } else { 0 };
        self.arm_timer(since, floor.max(commit_start + 1));
    }

    /// The continuous fault process has events due: apply every due
    /// action through the same machinery the scripted APIs use, then arm
    /// the next tick. A failure that cannot be applied (its node is still
    /// down, or the ECP's four-node floor would be breached) is deferred
    /// by a fresh MTBF draw instead of being forced.
    fn on_fault_tick(&mut self) {
        let now = self.queue.now();
        let Some(mut fp) = self.fault_process.take() else {
            return;
        };
        for action in fp.fire(now) {
            if self.halted {
                break;
            }
            match action {
                FaultAction::FailNode(node) => {
                    // A draw landing inside an open recovery window fires
                    // like any other: recovery is restartable, so the soak
                    // exercises the nested-fault regime instead of
                    // deferring around it (which skewed the sampled
                    // distribution). Only structural guards defer — the
                    // node is already down, the ECP's four-live-node
                    // establishment floor, or a kill that would partition
                    // the live mesh.
                    if !self.nodes[node.index()].alive
                        || self.ring.alive_count() <= usize::from(ECP_MIN_LIVE_NODES)
                        || !self.mesh_stays_connected(node, false)
                    {
                        fp.defer_node_fail(node, now);
                    } else {
                        self.on_failure(node, FailureKind::Permanent);
                    }
                }
                FaultAction::RepairNode(node) => self.on_repair_request(node),
                FaultAction::CutLink(a, b) => {
                    self.observer
                        .interconnect(TraceEvent::LinkCut { at: now, a, b });
                    self.mesh.fail_link(a, b);
                }
                FaultAction::RepairLink(a, b) => {
                    self.observer
                        .interconnect(TraceEvent::LinkRepaired { at: now, a, b });
                    self.mesh.repair_link(a, b);
                }
            }
        }
        if !self.halted {
            if let Some(at) = fp.next_at() {
                self.queue.schedule(at.max(now + 1), Event::FaultTick);
            }
        }
        self.fault_process = Some(fp);
    }

    /// Whether the live mesh routers stay one grid-connected piece once
    /// `node` is dead (`alive = false`) or has rejoined (`alive = true`).
    /// The continuous fault process may hold several nodes down at once,
    /// but it must never partition the live machine: a kill must not cut
    /// off live routers, and a repair must wait until a grid neighbour of
    /// the node is back up, or the node would be live but unroutable (the
    /// fire-and-forget send path treats an unroutable live destination as
    /// a protocol violation). Cut links are deliberately ignored: when the
    /// link process is active the reliable transport is too, and it
    /// escalates residual partitions instead of asserting. A bus has no
    /// routers to lose.
    fn mesh_stays_connected(&self, node: NodeId, alive: bool) -> bool {
        self.cfg.bus.is_some()
            || MeshGeometry::for_nodes(self.nodes.len()).connected(|i| {
                if i == node {
                    alive
                } else {
                    self.nodes[i.index()].alive
                }
            })
    }

    fn on_repair_request(&mut self, node: NodeId) {
        if self.nodes[node.index()].alive {
            return; // nothing to repair
        }
        if !self.coord.running() || !self.mesh_stays_connected(node, true) {
            // Let the current checkpoint/recovery finish first — or, under
            // the continuous fault process, wait until a mesh neighbour is
            // back up: rejoining a node every live router is dead to would
            // make it live but unroutable.
            self.queue.schedule_in(10_000, Event::Repair { node });
            return;
        }
        // Drain in-flight transactions (home responsibility is about to
        // move), then perform the rejoin at quiescence.
        self.coord.begin_rejoin(node);
        self.procs.pause_ready();
        self.make_progress();
    }

    /// Performs the rejoin at quiescence: fresh node, ring membership,
    /// home-range migration back, and reclaiming its share of the work.
    fn do_repair(&mut self, node: NodeId) {
        let i = node.index();
        self.mesh.repair_node(node);
        self.ring.mark_alive(node);
        self.nodes[i] = NodeState::new(node, self.cfg.am, self.cfg.cache);
        self.engine.reset_node(node);

        // The statically assigned home range returns to the repaired node.
        recovery::rebuild_homes_from_owners(&mut self.nodes, &self.ring);

        self.procs.rejoin(node);
        self.metrics.repairs += 1;
        self.metrics.per_node[i].repairs += 1;
        self.observer
            .repaired(self.queue.now(), node, &mut self.metrics);

        self.coord.resume();
        self.resume_paused(|_| 1);
    }

    fn on_failure(&mut self, node: NodeId, kind: FailureKind) {
        if !self.nodes[node.index()].alive {
            return;
        }
        // A fault inside an open recovery window *restarts* recovery: the
        // in-flight reconfiguration (and its purged re-replication
        // traffic) is abandoned, the new victim joins the failure set and
        // the whole pipeline re-enters from the on-node committed state.
        // Every step below is idempotent against a half-applied
        // predecessor — rollback skips already-restored copies, the dedup
        // pass collapses double-installed recovery copies, and orphan
        // collection counts live copies rather than trusting pointers —
        // so a restart never double-applies partner migration or orphan
        // re-replication. The only fault that cannot be absorbed is a
        // certified data loss, caught by the copy audit further down.
        let now = self.queue.now();
        let mut episode = self.coord.episode();
        let abandoned = episode.fault(now);
        if let Some(abandoned) = abandoned {
            self.metrics.recovery_restarts += 1;
            self.metrics.phases.restart.record(abandoned);
            // The abandoned window is recovery time too; `finish_recovery`
            // only accounts from the *latest* restart.
            self.metrics.t_recovery += abandoned;
        }
        self.metrics.failures += 1;
        self.metrics.recovery_max_depth = self.metrics.recovery_max_depth.max(episode.faults());
        let permanent = kind == FailureKind::Permanent;
        self.observer.failure(
            now,
            node,
            permanent,
            abandoned.map(|_| episode.faults()),
            &mut self.metrics,
        );

        // 1. Every in-flight message and scheduled processor issue is moot
        //    (scheduled interconnect faults survive: the mesh keeps its own
        //    fate regardless of node-level recovery). The transport loses
        //    all its packets with the network, so its state resets too.
        self.queue.retain(|e| {
            matches!(
                e,
                Event::CkptTimer
                    | Event::Failure { .. }
                    | Event::Repair { .. }
                    | Event::LinkCut { .. }
                    | Event::RouterDown { .. }
                    | Event::FaultTick
            )
        });
        // A repair that was draining toward quiescence when this failure
        // hit would otherwise be lost for good (its drain is abandoned),
        // wedging every later repair of the run behind it: re-queue it as
        // a fresh request once recovery is over.
        if let Some(r) = self.coord.purge() {
            self.queue.schedule_in(10_000, Event::Repair { node: r });
        }
        if let Some(t) = &mut self.transport {
            t.reset();
        }

        // 2. The failed node. A permanent loss takes its mesh router down
        //    with it, so subsequent traffic detours around the dead node
        //    instead of flowing through a ghost router.
        if permanent {
            self.mesh.fail_router(node);
            self.ring.mark_dead(node);
            recovery::wipe_dead_node(&mut self.nodes[node.index()]);
            // Its work is adopted by the ring successor.
            let heir = self.ring.successor(node).expect("a live node remains");
            self.procs.retire(node, heir);
        }
        self.procs.stop_all();

        // 3. Global rollback on every live node.
        let mut max_scan = 0;
        for i in 0..self.nodes.len() {
            if !self.nodes[i].alive {
                continue;
            }
            let stats = recovery::rollback_node(&mut self.nodes[i], self.engine.timing());
            max_scan = max_scan.max(stats.duration);
            let id = self.nodes[i].id;
            self.metrics.per_node[i].rollback_cycles += stats.duration;
            self.metrics.phases.rollback.record(stats.duration);
            self.observer.rollback_scan(now, id, stats.duration);
            self.engine.reset_node(id);
        }

        // 4. Recovery copies that were mid-injection exist twice (origin
        //    and destination); keep one of each and mend partner pointers.
        recovery::dedup_recovery_copies(&mut self.nodes);

        // 4b. Per-item copy accounting: recovery can restart as long as
        //     every *written* committed item retains at least one live
        //     copy. A certified zero-copy written item is unreconstructible
        //     — halt fail-stop. Never-written committed items (value 0)
        //     that lost every copy are dropped from the oracle instead:
        //     the machine recreates them on first touch, exactly like
        //     items annihilated by a pre-first-commit rollback.
        let audit = recovery::audit_copies(
            &self.nodes,
            self.committed_values.iter().map(|(&i, &v)| (i, v)),
        );
        if let Some(&item) = audit.lost.first() {
            self.metrics.faults_unsurvivable += 1;
            self.outcome = RecoveryOutcome::UnrecoverableDataLoss { at: now, item };
            self.halt();
            return;
        }
        for item in &audit.droppable {
            self.committed_values.remove(item);
        }

        // 5. Processor state (streams) rewinds to the recovery point.
        self.procs.rewind();

        // 5. Reconfiguration: re-replicate orphaned recovery copies, then
        //    rebuild the localization pointers from the surviving primaries.
        //    Orphans are found by counting live copies per item rather than
        //    chasing partner pointers: a pointer can be stale when the
        //    failure purged an in-flight `PartnerUpdate` of a copy that had
        //    just migrated, and a stale pointer must not hide an orphan.
        //    A restart re-runs the census even for a transient victim: the
        //    abandoned recovery's re-replication traffic was purged above,
        //    so items it had not yet re-paired are still singletons.
        let orphan_lists: Vec<(NodeId, Vec<ItemId>)> = if permanent || abandoned.is_some() {
            recovery::collect_singleton_orphans(&mut self.nodes)
        } else {
            Vec::new()
        };
        recovery::rebuild_homes(&mut self.nodes, &self.ring);

        episode.reconfigure(max_scan, orphan_lists.len());
        self.coord.recover(episode);
        for (id, orphans) in orphan_lists {
            let mut ctx = Ctx::new(&self.ring, now);
            self.engine
                .begin_reconfig(&mut self.nodes[id.index()], orphans, &mut ctx);
            let (out, effects) = ctx.finish();
            self.apply_outgoing(id, out);
            self.apply_effects(id, effects);
        }
        self.make_progress();
    }

    /// Ends `episode` once reconfiguration is over: verifies the restored
    /// image, credits the survived faults and resumes computation.
    fn finish_recovery(&mut self, episode: RecoveryEpisode) {
        let now = self.queue.now();
        let (start, end) = (episode.start(), episode.end(now));
        self.metrics.t_recovery += end - start;
        self.metrics.phases.reconfiguration.record(end - start);

        if self.cfg.verify {
            if let Err(problems) = self.verify_against_oracle() {
                self.outcome = RecoveryOutcome::InvariantViolation { at: end, problems };
                self.halt();
                return;
            }
        }

        // The whole episode is survived at once: a restarted recovery
        // covers every fault folded into it.
        self.metrics.faults_survived += episode.faults();
        // Surviving (transient) victims come back up when the machine
        // resumes; permanently failed nodes stay down until repair.
        let nodes = &self.nodes;
        self.observer
            .recovered(start, end, |i| nodes[i].alive, &mut self.metrics);
        self.coord.resume();
        self.resume_paused(|_| end - now);
        if !self.procs.all_done() {
            self.arm_timer(end, end);
        }
    }

    /// Stops the event loop: drains the queue so [`Machine::run`] exits at
    /// the current simulation time with the terminal outcome recorded.
    fn halt(&mut self) {
        debug_assert!(
            !self.outcome.is_recovered(),
            "halt needs a terminal outcome"
        );
        self.halted = true;
        self.queue.clear();
        self.coord.halt();
    }

    fn rebuild_oracle(&mut self) {
        self.committed_values.clear();
        for ns in self.nodes.iter().filter(|n| n.alive) {
            for (item, slot) in ns.am.iter_present() {
                if slot.state == ItemState::SharedCk1 {
                    self.committed_values.insert(item, slot.value);
                }
            }
        }
    }

    fn apply_outgoing(&mut self, from: NodeId, out: Vec<ftcoma_protocol::msg::Outgoing>) {
        for o in out {
            let depart = self.queue.now() + o.delay;
            match &mut self.transport {
                // Reliable transport: sequence the packet, remember it
                // until acked, and let the retry timer repair whatever the
                // network does to it. The coordinator's in-flight count
                // is of logical messages, so it rises exactly once here no
                // matter how many copies fly. Node-local deliveries never
                // leave the node and need no end-to-end framing.
                Some(t) if o.to != from => {
                    let seq = t.open(from, o.to, o.msg.clone(), depart);
                    self.coord.sent();
                    self.transmit(depart, from, o.to, seq, 0, o.msg);
                }
                // Fire-and-forget. A send can only fail once a mesh fault
                // has removed the route, in which case the destination
                // must already be a dead node whose router died with it;
                // the dead node would have swallowed the message anyway.
                _ => match self
                    .mesh
                    .send(depart, from, o.to, o.msg.class(), o.msg.payload_bytes())
                {
                    Ok(arrival) => {
                        self.observer.hops(&o.msg, o.to, self.mesh.last_hops());
                        self.queue.schedule(
                            arrival,
                            Event::Deliver {
                                to: o.to,
                                msg: o.msg,
                                sent: depart,
                            },
                        );
                        self.coord.sent();
                    }
                    Err(_) => {
                        debug_assert!(
                            !self.nodes[o.to.index()].alive,
                            "unroutable destination {} is alive",
                            o.to
                        );
                        self.metrics.net_dropped_msgs += 1;
                    }
                },
            }
        }
    }

    /// Sends copy `attempt` (0 = the first) of in-flight packet
    /// `(src, dst, seq)`, carrying `msg`, and arms its retransmission
    /// timer.
    fn transmit(&mut self, at: Cycles, src: NodeId, dst: NodeId, seq: u64, attempt: u32, msg: Msg) {
        if let Some(arrival) = self.send_copy(at, src, dst, msg.class(), msg.payload_bytes()) {
            if attempt == 0 {
                self.observer.hops(&msg, dst, self.mesh.last_hops());
            }
            let to = dst;
            self.queue
                .schedule(arrival, Event::NetDeliver { src, to, seq, msg });
        }
        self.queue
            .schedule(at + backoff(attempt), Event::NetRetry { src, dst, seq });
    }

    /// Sends one physical copy (data or ack) on the reliable path. Returns
    /// its arrival, or `None` when the loss plan drops it or no route is
    /// left; either counts as a dropped message, which the data packet's
    /// retry timer repairs (or escalates if the route never comes back).
    fn send_copy(
        &mut self,
        at: Cycles,
        from: NodeId,
        to: NodeId,
        class: NetClass,
        bytes: u64,
    ) -> Option<Cycles> {
        let t = self
            .transport
            .as_mut()
            .expect("only the reliable path sends copies");
        let arrival = if t.drops(at) {
            None
        } else {
            self.mesh.send(at, from, to, class, bytes).ok()
        };
        if arrival.is_none() {
            self.metrics.net_dropped_msgs += 1;
        }
        arrival
    }

    /// A physical copy of `(src, seq)` reached `to`: ack it, and hand the
    /// payload to the protocol engine iff this is its first arrival.
    fn on_net_deliver(&mut self, src: NodeId, to: NodeId, seq: u64, msg: Msg) {
        if !self.nodes[to.index()].alive {
            return; // purged-queue stragglers only; nothing was counted
        }
        // Ack every copy: the sender keeps retransmitting until an ack
        // survives the network, so duplicates must re-ack too.
        self.send_ack(to, src, seq);
        let t = self
            .transport
            .as_mut()
            .expect("only the reliable path delivers");
        let Some(sent) = t.first_delivery(src, to, seq) else {
            return; // duplicate suppressed
        };
        self.coord.delivered();
        self.deliver(to, msg, sent);
    }

    /// Sends a transport ack from `from` back to `to` for `(to, from, seq)`.
    /// Acks are header-only reply-class packets, subject to the loss plan
    /// but never retried themselves: a lost ack is repaired by the data
    /// packet's retransmission, which triggers a fresh ack.
    fn send_ack(&mut self, from: NodeId, to: NodeId, seq: u64) {
        let now = self.queue.now();
        if let Some(arrival) = self.send_copy(now, from, to, NetClass::Reply, 0) {
            let (src, dst) = (to, from);
            self.queue
                .schedule(arrival, Event::NetAck { src, dst, seq });
        }
    }

    /// The retransmission timer for `(src, dst, seq)` fired. If the ack
    /// already arrived this is a no-op; otherwise retransmit with doubled
    /// timeout, or escalate once the retry budget is spent.
    fn on_net_retry(&mut self, src: NodeId, dst: NodeId, seq: u64) {
        let Some(t) = &mut self.transport else {
            return;
        };
        match t.retry(src, dst, seq) {
            Retry::Acked => {}
            Retry::GiveUp => {
                self.metrics.net_timeouts += 1;
                self.escalate(src, dst);
            }
            Retry::Resend { attempt, msg } => {
                self.metrics.net_timeouts += 1;
                self.metrics.net_retries += 1;
                let now = self.queue.now();
                self.transmit(now, src, dst, seq, attempt, msg);
            }
        }
    }

    /// The transport gave up on `dst` after its last retransmission:
    /// decide what that means for the machine. A peer that is still
    /// routable looks dead, so the single-failure machinery handles it. If
    /// the mesh is severed, the largest connected component of live nodes
    /// (ties broken towards the one holding the lowest node id) carries on
    /// and treats the endpoints outside it as failed; when neither endpoint
    /// is in the majority component, no side can safely reconfigure and
    /// the machine halts fail-stop with
    /// [`RecoveryOutcome::PartitionedNetwork`].
    fn escalate(&mut self, src: NodeId, dst: NodeId) {
        // Components are named by their lowest node.
        let comp = self.mesh.components(self.nodes.len());
        if comp[src.index()] == comp[dst.index()] {
            // Pure message loss: the peer is unresponsive, not unreachable.
            self.on_failure(dst, FailureKind::Permanent);
            return;
        }
        let mut live = vec![0; comp.len()];
        for n in self.live_nodes() {
            live[comp[n.id.index()].index()] += 1;
        }
        // The largest component; ties go to the one holding the lowest
        // live id, since `min_by_key` keeps the first of equal keys.
        let majority = self
            .live_nodes()
            .map(|n| comp[n.id.index()])
            .min_by_key(|c| std::cmp::Reverse(live[c.index()]));
        let inside = |x: NodeId| self.nodes[x.index()].alive && Some(comp[x.index()]) == majority;
        match (inside(src), inside(dst)) {
            (true, false) => self.on_failure(dst, FailureKind::Permanent),
            (false, true) => self.on_failure(src, FailureKind::Permanent),
            _ => {
                self.outcome = RecoveryOutcome::PartitionedNetwork {
                    at: self.queue.now(),
                    from: src,
                    to: dst,
                };
                self.halt();
            }
        }
    }

    fn apply_effects(&mut self, node: NodeId, effects: Vec<Effect>) {
        for e in effects {
            match e {
                Effect::Resume { latency } => {
                    let epoch = self.procs.epoch(node);
                    self.queue
                        .schedule(self.queue.now() + latency, Event::Resume { node, epoch });
                }
                Effect::CreateDone => self.coord.node_created(),
                Effect::ReconfigDone => self.coord.node_reconfigured(),
                Effect::InjectionStarted { cause } => {
                    let m = &mut self.metrics;
                    let counter = match cause {
                        InjectCause::Replacement => &mut m.injections_replacement,
                        InjectCause::ReadOnInvCk => &mut m.injections_on_read,
                        InjectCause::WriteOnInvCk => &mut m.injections_write_inv_ck,
                        InjectCause::WriteOnSharedCk => &mut m.injections_write_shared_ck,
                        _ => continue,
                    };
                    *counter += 1;
                    m.per_node[node.index()].injections += 1;
                }
                Effect::ReplicationBytes { bytes } => {
                    self.metrics.replication_bytes += bytes;
                    self.metrics.per_node[node.index()].replication_bytes += bytes;
                }
                Effect::ItemCheckpointed { reused_existing } => {
                    self.metrics.items_checkpointed += 1;
                    self.metrics.per_node[node.index()].items_checkpointed += 1;
                    if reused_existing {
                        self.metrics.reused_replicas += 1;
                    }
                }
                Effect::FatalNoSpace { item } => panic!(
                    "AM capacity exhausted: no node could host a copy of {item}; \
                     enlarge the AMs or shrink the working set (the paper reserves \
                     four irreplaceable pages per page to rule this out)"
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use ftcoma_core::FtConfig;
    use ftcoma_workloads::presets;

    fn small_ecp_config() -> MachineConfig {
        MachineConfig {
            nodes: 8,
            refs_per_node: 3_000,
            workload: presets::water(),
            ft: FtConfig::enabled(400.0),
            verify: true,
            ..MachineConfig::default()
        }
    }

    #[test]
    fn dead_node_reports_peak_pages_and_zero_current() {
        let mut m = Machine::new(small_ecp_config());
        let victim = NodeId::new(2);
        m.schedule_failure(20_000, victim, FailureKind::Permanent);
        let metrics = m.run();
        assert!(m.outcome().is_recovered(), "run must survive the failure");
        assert_eq!(metrics.failures, 1, "the failure must fire mid-run");

        let dead = &metrics.per_node[victim.index()];
        assert_eq!(
            dead.pages_allocated, 0,
            "a permanently failed node holds no pages"
        );
        assert!(
            dead.pages_peak > 0,
            "the peak up to the failure must be reported, not dropped"
        );
        // The aggregates cover live nodes only; per-node rows must agree.
        let live_current: u64 = metrics
            .per_node
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != victim.index())
            .map(|(_, n)| n.pages_allocated)
            .sum();
        assert_eq!(metrics.pages_allocated, live_current);
        let live_peak: u64 = metrics
            .per_node
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != victim.index())
            .map(|(_, n)| n.pages_peak)
            .sum();
        assert_eq!(metrics.pages_peak, live_peak);
    }

    #[test]
    fn spans_decompose_transactions_and_recoveries() {
        let mut m = Machine::new(MachineConfig {
            trace_capacity: 100_000,
            ..small_ecp_config()
        });
        m.schedule_failure(20_000, NodeId::new(2), FailureKind::Transient);
        let metrics = m.run();
        assert!(m.outcome().is_recovered());

        let spans = m.spans();
        assert!(!spans.is_empty());
        for s in &spans {
            assert!(s.end >= s.start, "span {s:?} ends before it starts");
            assert_ne!(s.id, 0);
        }
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.phase == ftcoma_sim::span::SpanPhase::Transaction)
            .collect();
        assert!(!roots.is_empty(), "miss transactions must produce roots");
        // Every child points at a recorded parent of the right kind.
        let recovery_roots: Vec<_> = spans
            .iter()
            .filter(|s| s.phase == ftcoma_sim::span::SpanPhase::Recovery)
            .collect();
        assert_eq!(recovery_roots.len(), 1, "one failure, one recovery root");
        let root = recovery_roots[0];
        for phase in [
            ftcoma_sim::span::SpanPhase::Detection,
            ftcoma_sim::span::SpanPhase::Rollback,
            ftcoma_sim::span::SpanPhase::Reconfiguration,
            ftcoma_sim::span::SpanPhase::Replay,
        ] {
            let children: Vec<_> = spans
                .iter()
                .filter(|s| s.phase == phase && s.parent == root.id)
                .collect();
            assert!(
                !children.is_empty(),
                "recovery must contain a {phase} child"
            );
            for c in children {
                assert!(c.start >= root.start && c.end <= root.end);
            }
        }
        // The always-on phase histograms saw the same decomposition.
        assert!(metrics.phases.dir_lookup.summary().count > 0);
        assert!(metrics.phases.data_reply.summary().count > 0);
        assert_eq!(metrics.phases.detection.summary().count, 1);
        assert!(metrics.phases.rollback.summary().count > 0);
        assert_eq!(metrics.phases.reconfiguration.summary().count, 1);
        assert_eq!(metrics.phases.replay.summary().count, 1);
    }

    #[test]
    fn availability_tracks_down_intervals() {
        let victim = NodeId::new(3);
        let mut m = Machine::new(small_ecp_config());
        m.schedule_failure(30_000, victim, FailureKind::Permanent);
        let metrics = m.run();
        assert!(m.outcome().is_recovered());
        let i = victim.index();
        assert_eq!(metrics.per_node[i].down_count, 1);
        assert!(metrics.per_node[i].down_cycles > 0);
        assert_eq!(metrics.down_intervals[i].len(), 1);
        let (from, to) = metrics.down_intervals[i][0];
        assert_eq!(from, 30_000);
        assert_eq!(
            to, metrics.total_cycles,
            "a permanent failure stays down to the end of the run"
        );
        assert_eq!(metrics.per_node[i].down_cycles, to - from);
        assert!(metrics.availability() < 1.0);
        assert!(metrics.mttr_cycles() > 0.0);
        // Other nodes never went down.
        for (k, n) in metrics.per_node.iter().enumerate() {
            if k != i {
                assert_eq!(n.down_count, 0);
                assert!(metrics.down_intervals[k].is_empty());
            }
        }
    }

    #[test]
    fn transient_down_interval_closes_at_recovery_end() {
        let victim = NodeId::new(1);
        let mut m = Machine::new(small_ecp_config());
        m.schedule_failure(30_000, victim, FailureKind::Transient);
        let metrics = m.run();
        assert!(m.outcome().is_recovered());
        let i = victim.index();
        assert_eq!(metrics.down_intervals[i].len(), 1);
        let (from, to) = metrics.down_intervals[i][0];
        assert_eq!(from, 30_000);
        assert!(
            to < metrics.total_cycles,
            "a transient victim comes back before the run ends"
        );
        assert_eq!(metrics.per_node[i].down_cycles, to - from);
    }

    #[test]
    fn timeseries_rows_are_sampled_and_monotone() {
        let mut m = Machine::new(MachineConfig {
            timeseries_every: 5_000,
            ..small_ecp_config()
        });
        m.schedule_failure(30_000, NodeId::new(2), FailureKind::Permanent);
        let metrics = m.run();
        let rows = m.timeseries();
        assert!(rows.len() > 2, "a multi-epoch run yields several samples");
        for w in rows.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
            assert!(w[1].refs >= w[0].refs);
            assert_eq!(w[1].refs_delta, w[1].refs - w[0].refs);
        }
        assert!(rows.last().expect("nonempty").refs <= metrics.refs);
        // After the permanent failure every sample reports the node down.
        let post: Vec<_> = rows.iter().filter(|r| r.cycle > 30_000).collect();
        assert!(!post.is_empty());
        for r in post {
            assert_eq!(r.nodes_up, 7);
            assert_eq!(r.nodes_down, vec![2]);
        }
    }

    #[test]
    fn timeseries_thinning_keeps_memory_bounded() {
        let mut m = Machine::new(MachineConfig {
            timeseries_every: 1,
            refs_per_node: 2_000,
            ..small_ecp_config()
        });
        m.run();
        assert!(
            m.timeseries().len() < crate::observer::MAX_TS_ROWS,
            "thinning must hold the row count under the cap"
        );
        let rows = m.timeseries();
        for w in rows.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
        }
    }

    #[test]
    fn observability_sinks_do_not_change_metrics() {
        let quiet = Machine::new(small_ecp_config()).run();
        let mut m = Machine::new(MachineConfig {
            trace_capacity: 50_000,
            timeseries_every: 2_000,
            ..small_ecp_config()
        });
        let loud = m.run();
        assert_eq!(quiet, loud, "sinks must be pure observation");
        assert!(!m.spans().is_empty());
        assert!(!m.timeseries().is_empty());
    }

    #[test]
    fn live_nodes_report_pages_as_before() {
        let mut m = Machine::new(small_ecp_config());
        let metrics = m.run();
        for n in &metrics.per_node {
            assert!(n.pages_peak >= n.pages_allocated);
            assert!(n.pages_allocated > 0, "every live node touched pages");
        }
    }

    #[test]
    fn continuous_fault_process_cycles_failures_and_repairs() {
        let run = || {
            let mut m = Machine::new(MachineConfig {
                refs_per_node: 6_000,
                ..small_ecp_config()
            });
            m.install_fault_process(FaultProcessConfig {
                node_mtbf: 60_000,
                node_mttr: 10_000,
                link_mtbf: 80_000,
                link_mttr: 10_000,
                ..FaultProcessConfig::default()
            });
            let metrics = m.run();
            let progress = m.stream_progress();
            (metrics, m.outcome().clone(), m.check_invariants(), progress)
        };
        let (metrics, outcome, violations, progress) = run();
        assert!(
            metrics.failures >= 2 && metrics.repairs >= 1,
            "the process must drive fault/repair cycles (got {} failures, {} repairs)",
            metrics.failures,
            metrics.repairs
        );
        if outcome.is_recovered() {
            assert!(violations.is_empty(), "{violations:?}");
            assert_eq!(metrics.faults_survived, metrics.failures);
            assert_eq!(metrics.faults_unsurvivable, 0);
            // Every stream reached its quota despite the churn (metrics.refs
            // counts rollback re-execution too, so it only bounds below).
            assert!(progress.iter().all(|&p| p == 6_000));
            assert!(metrics.refs >= 8 * 6_000);
        } else {
            // Nested faults restart recovery instead of halting, so the
            // only unrecovered ends left are a certified data loss or a
            // network partition.
            assert!(matches!(
                outcome,
                RecoveryOutcome::UnrecoverableDataLoss { .. }
                    | RecoveryOutcome::PartitionedNetwork { .. }
            ));
            let expected = u64::from(matches!(
                outcome,
                RecoveryOutcome::UnrecoverableDataLoss { .. }
            ));
            assert_eq!(metrics.faults_unsurvivable, expected);
        }
        // The schedule is a pure function of the configuration.
        let again = run();
        assert_eq!((metrics, outcome, violations, progress), again);
    }

    #[test]
    fn fault_process_defers_below_the_four_node_floor() {
        let mut m = Machine::new(MachineConfig {
            nodes: 4,
            ..small_ecp_config()
        });
        // Aggressive MTBF on the smallest legal ECP machine: every sampled
        // failure must be deferred, never breaching the floor.
        m.install_fault_process(FaultProcessConfig {
            node_mtbf: 5_000,
            node_mttr: 1_000,
            ..FaultProcessConfig::default()
        });
        let metrics = m.run();
        assert!(m.outcome().is_recovered());
        assert_eq!(metrics.failures, 0, "the floor defers every failure");
        assert_eq!(metrics.refs, 4 * 3_000);
    }

    #[test]
    #[should_panic(expected = "no process enabled")]
    fn fault_process_rejects_an_empty_configuration() {
        let mut m = Machine::new(small_ecp_config());
        m.install_fault_process(FaultProcessConfig::default());
    }

    #[test]
    fn replay_window_opening_in_the_future_is_discarded_not_clamped() {
        // `finish_recovery` can open the replay window at a cycle past the
        // current event (the rollback scan end); if the run ends first,
        // the window never opened and must not contribute a sample.
        let mut m = Machine::new(small_ecp_config());
        m.run();
        let before = m.metrics().phases.replay.count();
        let now = m.queue.now();
        m.observer.replay_start = Some(now + 10_000);
        m.observer.end_of_run(now, &mut m.metrics);
        assert_eq!(
            m.metrics().phases.replay.count(),
            before,
            "a window that never opened must not record a zero-length sample"
        );
        // A window that did open still records normally.
        m.observer.replay_start = Some(now.saturating_sub(50));
        m.observer.end_of_run(now, &mut m.metrics);
        assert_eq!(m.metrics().phases.replay.count(), before + 1);
    }

    #[test]
    fn nested_fault_before_the_replay_window_opens_records_no_zero_sample() {
        // Regression for the `saturating_sub` clamp: drive a real recovery
        // with `run_until` until `finish_recovery` has opened the replay
        // window at a *future* cycle, inject a nested fault inside that
        // gap, and check the aborted window contributes no (zero) sample —
        // only the second episode's commit-closed window is recorded.
        let mut m = Machine::new(small_ecp_config());
        m.schedule_failure(20_000, NodeId::new(2), FailureKind::Transient);
        m.run_until(20_001); // process the failure event
        while m.observer.replay_start.is_none() {
            let t = m.queue.peek_time().expect("recovery still in flight");
            m.run_until(t + 1);
        }
        let window_opens = m.observer.replay_start.expect("just observed");
        let now = m.queue.now();
        assert!(
            window_opens > now,
            "config must produce a future-opening window ({window_opens} vs {now})"
        );
        m.schedule_failure(now, NodeId::new(3), FailureKind::Transient);
        let metrics = m.run();
        assert!(m.outcome().is_recovered());
        assert_eq!(metrics.failures, 2);
        assert_eq!(
            metrics.phases.replay.count(),
            1,
            "only the completed episode's replay window may be sampled"
        );
    }

    #[test]
    fn forked_run_report_matches_a_straight_run() {
        let cfg = small_ecp_config();
        let mut straight = Machine::new(cfg.clone());
        straight.schedule_failure(20_000, NodeId::new(2), FailureKind::Transient);
        let want = straight.run();

        // Fork: run an unfaulted prefix to the injection cycle, snapshot,
        // clone a machine off it, inject, finish.
        let mut prefix = Machine::new(cfg);
        prefix.run_until(20_000);
        let snap = prefix.snapshot();
        let mut fork = snap.to_machine();
        fork.schedule_failure(20_000, NodeId::new(2), FailureKind::Transient);
        let got = fork.run();
        assert_eq!(got, want, "forked report differs from the straight run");
        assert_eq!(fork.stream_progress(), straight.stream_progress());
        assert_eq!(fork.outcome(), straight.outcome());
        assert_eq!(fork.timeseries(), straight.timeseries());

        // The snapshot is reusable: a second fork replays identically too.
        let mut fork2 = snap.to_machine();
        fork2.schedule_failure(20_000, NodeId::new(2), FailureKind::Transient);
        assert_eq!(fork2.run(), want);
    }

    #[test]
    fn run_until_composes_into_an_uninterrupted_run() {
        let cfg = small_ecp_config();
        let mut straight = Machine::new(cfg.clone());
        straight.schedule_failure(15_000, NodeId::new(1), FailureKind::Permanent);
        straight.schedule_repair(60_000, NodeId::new(1));
        let want = straight.run();

        let mut stepped = Machine::new(cfg);
        stepped.schedule_failure(15_000, NodeId::new(1), FailureKind::Permanent);
        stepped.schedule_repair(60_000, NodeId::new(1));
        for limit in [1, 10_000, 15_000, 15_001, 40_000, 90_000] {
            stepped.run_until(limit);
        }
        assert_eq!(stepped.run(), want);
    }
}
