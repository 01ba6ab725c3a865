//! The parallel cell executor: a work queue drained by `std::thread`
//! workers, with snapshot-fork prefix sharing.
//!
//! Cells are independent simulations, so the pool claims them off a shared
//! atomic counter and writes each outcome back into its slot. Nothing about
//! a cell's result depends on which worker ran it or when — seeds are fixed
//! at expansion time and the simulator is a pure function of its
//! configuration — so `--jobs 1` and `--jobs N` produce identical outcomes
//! (enforced by the `determinism` CI job and the integration tests).
//!
//! # Snapshot-fork execution
//!
//! Scripted scenarios only change machine behavior from their injection
//! cycle on; everything before is the same unfaulted prefix. Instead of
//! re-simulating that prefix once per cell, [`run_cells`] groups cells
//! that share a configuration (and transport band), runs the prefix
//! *once* per group, snapshots it at each distinct injection cycle
//! ([`ftcoma_machine::Snapshot`]), and forks each cell's machine from the
//! matching snapshot. The event calendar's two-band sequence numbering
//! makes fork-time injection tie-break exactly like construction-time
//! injection, so the outcomes are byte-identical to straight runs —
//! the grouping is a pure wall-clock optimization, independent of `jobs`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ftcoma_core::RecoveryOutcome;
use ftcoma_machine::{
    tracelog::TraceEvent, FailureKind, FaultProcessConfig, Machine, MachineConfig, Snapshot,
};
use ftcoma_mem::NodeId;
use ftcoma_net::LinkReport;
use ftcoma_sim::Cycles;

use crate::spec::{Cell, Scenario, ScenarioKind};

/// Everything one cell run produced.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Id of the cell that produced this outcome.
    pub cell_id: u64,
    /// The run's aggregated metrics.
    pub metrics: ftcoma_machine::RunMetrics,
    /// Per-link interconnect breakdown (empty for bus fabrics).
    pub links: Vec<LinkReport>,
    /// Retained protocol trace (empty unless the cell's config set
    /// `trace_capacity`).
    pub trace: Vec<TraceEvent>,
    /// Structured recovery verdict: the machine's own outcome, downgraded
    /// to `InvariantViolation` if the post-run invariant sweep found
    /// problems a recovered run should not have.
    pub outcome: RecoveryOutcome,
    /// Final owner-visible memory image (`(item index, value)`, sorted) —
    /// the chaos golden-replay oracle's subject.
    pub owner_image: Vec<(u64, u64)>,
    /// Per-stream emitted-reference counts (liveness oracle input).
    pub stream_progress: Vec<u64>,
    /// Retained causal span records (empty unless the cell's config set
    /// `trace_capacity`).
    pub spans: Vec<ftcoma_sim::span::SpanRecord>,
    /// Sampled time-series rows (empty unless the cell's config set
    /// `timeseries_every`).
    pub timeseries: Vec<ftcoma_machine::TsSample>,
    /// Whether the post-run copy-accounting audit certifies a data loss:
    /// some written committed item retains zero live copies. An
    /// `unrecoverable_data_loss` outcome is only legitimate when this is
    /// set (the chaos oracle enforces it).
    pub data_loss_certified: bool,
    /// Host wall-clock time of this cell, in milliseconds. Never
    /// serialized into the report document (it lands in the `timing`
    /// sidecar), so reports stay byte-deterministic.
    pub wall_ms: f64,
}

/// Injects a cell scenario into a machine. Valid both before the run
/// starts and at a fork point mid-run: the scenario APIs schedule through
/// the event calendar's pre band, so either way the events tie-break
/// identically.
pub fn apply_scenario(machine: &mut Machine, scenario: &Scenario) {
    let node = NodeId::new(scenario.node);
    match scenario.kind {
        ScenarioKind::None => {}
        ScenarioKind::Transient => {
            machine.schedule_failure(scenario.at, node, FailureKind::Transient);
        }
        ScenarioKind::Permanent => {
            machine.schedule_failure(scenario.at, node, FailureKind::Permanent);
            if let Some(repair_at) = scenario.repair_at {
                machine.schedule_repair(repair_at, node);
            }
        }
        ScenarioKind::Cycle { period, count } => {
            for k in 0..u64::from(count) {
                machine.schedule_failure(scenario.at + k * period, node, FailureKind::Transient);
            }
        }
        ScenarioKind::BackToBack { gap, second_node } => {
            machine.schedule_failure(scenario.at, node, FailureKind::Permanent);
            machine.schedule_failure(
                scenario.at + gap,
                NodeId::new(second_node),
                FailureKind::Transient,
            );
        }
        ScenarioKind::Nested {
            gap,
            second_node,
            gap2,
            third_node,
            permanent_mask,
        } => {
            let kind_of = |bit: u8| {
                if permanent_mask & bit != 0 {
                    FailureKind::Permanent
                } else {
                    FailureKind::Transient
                }
            };
            machine.schedule_failure(scenario.at, node, kind_of(0b001));
            machine.schedule_failure(scenario.at + gap, NodeId::new(second_node), kind_of(0b010));
            if gap2 > 0 {
                machine.schedule_failure(
                    scenario.at + gap + gap2,
                    NodeId::new(third_node),
                    kind_of(0b100),
                );
            }
        }
        ScenarioKind::LinkCut { to_node } => {
            machine.schedule_link_cut(scenario.at, node, NodeId::new(to_node));
        }
        ScenarioKind::RouterDown => {
            machine.schedule_router_down(scenario.at, node);
        }
        ScenarioKind::MessageLoss { rate } => {
            machine.set_message_loss(scenario.at, rate);
        }
        ScenarioKind::Continuous {
            node_mtbf,
            node_mttr,
            link_mtbf,
            link_mttr,
        } => {
            machine.install_fault_process(FaultProcessConfig {
                node_mtbf,
                node_mttr,
                link_mtbf,
                link_mttr,
                start: scenario.at,
            });
        }
    }
}

/// The cycle at which a scenario first touches the machine — the latest
/// safe fork point — or `None` for scenarios that must run straight
/// (no injection at all, or a continuous process whose schedule is drawn
/// at install time, typically from cycle 0).
pub fn fork_cycle(scenario: &Scenario) -> Option<Cycles> {
    match scenario.kind {
        ScenarioKind::None | ScenarioKind::Continuous { .. } => None,
        ScenarioKind::Transient
        | ScenarioKind::Permanent
        | ScenarioKind::Cycle { .. }
        | ScenarioKind::BackToBack { .. }
        | ScenarioKind::Nested { .. }
        | ScenarioKind::LinkCut { .. }
        | ScenarioKind::RouterDown
        | ScenarioKind::MessageLoss { .. } => Some(scenario.at),
    }
}

/// Whether a scenario runs on the reliable-transport path from cycle 0
/// (its straight run activates the transport at construction time). Such
/// cells must fork from a transport-preactivated prefix; plain node-fault
/// cells from a fire-and-forget one — the two prefix bands differ.
pub fn needs_net(kind: &ScenarioKind) -> bool {
    matches!(
        kind,
        ScenarioKind::LinkCut { .. } | ScenarioKind::RouterDown | ScenarioKind::MessageLoss { .. }
    )
}

/// Finishes a prepared machine (scenario already injected) and assembles
/// the outcome. `start` anchors the wall-clock sidecar measurement.
fn finish_cell(cell: &Cell, mut machine: Machine, start: Instant) -> CellOutcome {
    let metrics = machine.run();
    let mut outcome = machine.outcome().clone();
    if outcome.is_recovered() {
        let problems = machine.check_invariants();
        if !problems.is_empty() {
            outcome = RecoveryOutcome::InvariantViolation {
                at: metrics.total_cycles,
                problems,
            };
        }
    }
    CellOutcome {
        cell_id: cell.id,
        metrics,
        links: machine.link_report(),
        trace: machine.trace(),
        outcome,
        owner_image: machine.owner_image(),
        stream_progress: machine.stream_progress(),
        spans: machine.spans(),
        timeseries: machine.timeseries().to_vec(),
        data_loss_certified: machine.audit_data_loss().is_some(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

/// Runs a single cell to completion from scratch: builds the machine,
/// injects the cell's scenario, runs, and records the structured outcome
/// (machine verdict plus a post-run invariant sweep) instead of panicking.
pub fn run_cell(cell: &Cell) -> CellOutcome {
    let start = Instant::now();
    let mut machine = Machine::new(cell.cfg.clone());
    apply_scenario(&mut machine, &cell.scenario);
    finish_cell(cell, machine, start)
}

/// Runs a cell on a machine forked from a shared pre-injection prefix:
/// injects the scenario at the fork point and finishes the run. The
/// outcome is byte-identical to [`run_cell`] when the machine came from a
/// matching prefix (same config and transport band, forked at or before
/// the scenario's [`fork_cycle`]).
pub fn run_cell_on(cell: &Cell, machine: Machine) -> CellOutcome {
    let start = Instant::now();
    let mut machine = machine;
    apply_scenario(&mut machine, &cell.scenario);
    finish_cell(cell, machine, start)
}

/// A lazy cache of prefix snapshots for one `(config, transport band)`,
/// used by the chaos shrinker: every bisection probe of the injection
/// cycle forks from the nearest snapshot at or before it instead of
/// re-simulating the prefix from cycle 0.
#[derive(Debug)]
pub struct SnapshotForge {
    cfg: MachineConfig,
    net: bool,
    snaps: BTreeMap<Cycles, Snapshot>,
}

impl SnapshotForge {
    /// A forge for machines built from `cfg`; `net` selects the
    /// transport-preactivated prefix band (see [`needs_net`]).
    pub fn new(cfg: MachineConfig, net: bool) -> Self {
        Self {
            cfg,
            net,
            snaps: BTreeMap::new(),
        }
    }

    /// A machine advanced to exactly `cycle` (every event strictly before
    /// it dispatched), forked from the nearest cached snapshot at or
    /// before `cycle` — or from a fresh machine when none exists yet. The
    /// state at `cycle` is cached, so repeated probes (bisection!) cost at
    /// most one incremental prefix extension each.
    pub fn machine_at(&mut self, cycle: Cycles) -> Machine {
        if let Some(snap) = self.snaps.get(&cycle) {
            return snap.to_machine();
        }
        let mut m = match self.snaps.range(..=cycle).next_back() {
            Some((_, snap)) => snap.to_machine(),
            None => {
                let mut m = Machine::new(self.cfg.clone());
                if self.net {
                    m.preactivate_transport();
                }
                m
            }
        };
        m.run_until(cycle);
        self.snaps.insert(cycle, m.snapshot());
        m
    }

    /// The forge's configuration (forks are only valid for cells whose
    /// config equals it).
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }
}

/// Maps `items` through `f` on a pool of `jobs` worker threads, returning
/// results in item order (independent of completion order).
fn pool_map<T: Sync, R: Send>(items: &[T], jobs: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let jobs = jobs.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                slots.lock().expect("result lock")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("result lock")
        .into_iter()
        .map(|s| s.expect("every item ran"))
        .collect()
}

/// Runs every cell on a pool of `jobs` worker threads and returns the
/// outcomes in cell order (independent of completion order).
///
/// Cells whose scenarios admit a fork point are grouped by `(config,
/// transport band)`; each multi-cell group simulates its unfaulted prefix
/// once, snapshotting at every distinct injection cycle, and the member
/// cells fork from those snapshots. Outcomes are byte-identical to
/// running every cell from scratch, at any job count.
///
/// `jobs` is clamped to `1..=cells.len()`; pass
/// `std::thread::available_parallelism()` for one worker per core.
pub fn run_cells(cells: &[Cell], jobs: usize) -> Vec<CellOutcome> {
    if cells.is_empty() {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, cells.len());

    struct Group<'a> {
        cfg: &'a MachineConfig,
        net: bool,
        members: Vec<usize>,
    }
    let mut groups: Vec<Group> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        if fork_cycle(&cell.scenario).is_none() {
            continue;
        }
        let net = needs_net(&cell.scenario.kind);
        match groups
            .iter_mut()
            .find(|g| g.net == net && *g.cfg == cell.cfg)
        {
            Some(g) => g.members.push(i),
            None => groups.push(Group {
                cfg: &cell.cfg,
                net,
                members: vec![i],
            }),
        }
    }
    // A lone cell gains nothing from a shared prefix: run it straight.
    groups.retain(|g| g.members.len() > 1);

    // Phase A: one shared prefix run per group, snapshotted at each
    // distinct fork cycle.
    let prefixes: Vec<BTreeMap<Cycles, Snapshot>> = pool_map(&groups, jobs, |g| {
        let mut fork_ats: Vec<Cycles> = g
            .members
            .iter()
            .map(|&i| fork_cycle(&cells[i].scenario).expect("grouped cells are forkable"))
            .collect();
        fork_ats.sort_unstable();
        fork_ats.dedup();
        let mut m = Machine::new(g.cfg.clone());
        if g.net {
            m.preactivate_transport();
        }
        let mut snaps = BTreeMap::new();
        for at in fork_ats {
            m.run_until(at);
            snaps.insert(at, m.snapshot());
        }
        snaps
    });
    let mut fork_from: Vec<Option<(usize, Cycles)>> = vec![None; cells.len()];
    for (gi, g) in groups.iter().enumerate() {
        for &i in &g.members {
            let at = fork_cycle(&cells[i].scenario).expect("grouped cells are forkable");
            fork_from[i] = Some((gi, at));
        }
    }

    // Phase B: every cell, forked where a prefix snapshot exists.
    let idx: Vec<usize> = (0..cells.len()).collect();
    pool_map(&idx, jobs, |&i| match fork_from[i] {
        Some((gi, at)) => run_cell_on(&cells[i], prefixes[gi][&at].to_machine()),
        None => run_cell(&cells[i]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::parse(
            r#"{
                "workloads": ["water"],
                "nodes": [5],
                "freqs": [400],
                "refs": 2000,
                "warmup": 0,
                "scenarios": [
                    {"kind": "none"},
                    {"kind": "transient", "node": 1, "at": 4000},
                    {"kind": "permanent", "node": 2, "at": 4000, "repair_at": 30000}
                ]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn outcomes_are_identical_at_any_job_count() {
        let cells = tiny_spec().expand();
        assert_eq!(cells.len(), 4);
        let serial = run_cells(&cells, 1);
        let parallel = run_cells(&cells, 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.cell_id, b.cell_id);
            assert_eq!(a.metrics, b.metrics, "cell {} diverged", a.cell_id);
        }
    }

    #[test]
    fn grouped_forked_cells_match_straight_runs_exactly() {
        // The tiny spec's transient and permanent cells share a config:
        // run_cells forks them from one prefix. Their outcomes must be
        // byte-identical to running each cell from scratch.
        let cells = tiny_spec().expand();
        let grouped = run_cells(&cells, 2);
        for (cell, got) in cells.iter().zip(&grouped) {
            let straight = run_cell(cell);
            assert_eq!(got.metrics, straight.metrics, "{} diverged", cell.label);
            assert_eq!(got.owner_image, straight.owner_image, "{}", cell.label);
            assert_eq!(got.stream_progress, straight.stream_progress);
            assert_eq!(got.timeseries, straight.timeseries);
            assert_eq!(got.spans, straight.spans);
            assert_eq!(got.trace, straight.trace);
            assert_eq!(got.links, straight.links);
            assert_eq!(got.data_loss_certified, straight.data_loss_certified);
            assert_eq!(
                format!("{:?}", got.outcome),
                format!("{:?}", straight.outcome)
            );
        }
    }

    #[test]
    fn snapshot_forge_caches_and_reforks_deterministically() {
        let cells = tiny_spec().expand();
        let faulted = &cells[2]; // transient @4000
        let mut forge = SnapshotForge::new(faulted.cfg.clone(), false);
        let straight = run_cell(faulted);
        // Probe out of order (like a shrink bisection would): the floor
        // lookup + cache must still produce byte-identical outcomes.
        for at in [4000, 1000, 2500, 4000, 1000] {
            let cell = Cell {
                scenario: Scenario {
                    at,
                    ..faulted.scenario
                },
                ..faulted.clone()
            };
            let forked = run_cell_on(&cell, forge.machine_at(at));
            let rebuilt = run_cell(&cell);
            assert_eq!(forked.metrics, rebuilt.metrics, "fork@{at} diverged");
            assert_eq!(forked.owner_image, rebuilt.owner_image);
            if at == faulted.scenario.at {
                assert_eq!(forked.metrics, straight.metrics);
            }
        }
    }

    #[test]
    fn scenarios_inject_what_they_say() {
        let cells = tiny_spec().expand();
        let outcomes = run_cells(&cells, 2);
        // Baseline and fault-free ECP cells see no failures.
        assert_eq!(outcomes[0].metrics.failures, 0);
        assert_eq!(outcomes[1].metrics.failures, 0);
        // Transient and permanent scenario cells each fail once; the
        // permanent one also repairs.
        assert_eq!(outcomes[2].metrics.failures, 1);
        assert_eq!(outcomes[3].metrics.failures, 1);
        assert_eq!(outcomes[3].metrics.repairs, 1);
    }

    #[test]
    fn net_scenarios_recover_under_the_reliable_transport() {
        let spec = CampaignSpec::parse(
            r#"{
                "workloads": ["water"],
                "nodes": [4],
                "freqs": [400],
                "refs": 2000,
                "warmup": 0,
                "baseline": false,
                "scenarios": [
                    {"kind": "message_loss", "rate": 200, "at": 3000},
                    {"kind": "link_cut", "node": 0, "to_node": 1, "at": 3000}
                ]
            }"#,
        )
        .unwrap();
        let cells = spec.expand();
        let outcomes = run_cells(&cells, 2);
        for o in &outcomes {
            assert!(
                o.outcome.is_recovered(),
                "cell {}: {:?}",
                o.cell_id,
                o.outcome
            );
        }
        // Retransmissions masked the dropped packets...
        assert!(outcomes[0].metrics.net_retries > 0);
        assert!(outcomes[0].metrics.net_dropped_msgs > 0);
        // ...and traffic detoured around the cut link.
        assert!(outcomes[1].metrics.net_detour_hops > 0);
        // The two net cells share a transport-preactivated prefix; each
        // must still match its own from-scratch run byte for byte.
        for (cell, got) in cells.iter().zip(&outcomes) {
            let straight = run_cell(cell);
            assert_eq!(got.metrics, straight.metrics, "{} diverged", cell.label);
            assert_eq!(got.owner_image, straight.owner_image);
        }
    }

    #[test]
    fn continuous_cells_cycle_faults_and_stay_deterministic() {
        let spec = CampaignSpec::parse(
            r#"{
                "workloads": ["water"],
                "nodes": [8],
                "freqs": [400],
                "refs": 5000,
                "warmup": 0,
                "baseline": false,
                "scenarios": [
                    {"kind": "continuous", "at": 0, "node_mtbf": 60000, "node_mttr": 10000,
                     "link_mtbf": 80000, "link_mttr": 10000}
                ]
            }"#,
        )
        .unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].label.ends_with("cont@0+n60000/10000+l80000/10000"));
        let serial = run_cells(&cells, 1);
        let parallel = run_cells(&cells, 2);
        assert_eq!(serial[0].metrics, parallel[0].metrics);
        assert_eq!(serial[0].owner_image, parallel[0].owner_image);
        // The process kept failing and repairing nodes for the whole run.
        assert!(serial[0].metrics.failures >= 2, "{:?}", serial[0].metrics);
        assert!(serial[0].metrics.repairs >= 1, "{:?}", serial[0].metrics);
        if serial[0].outcome.is_recovered() {
            assert_eq!(
                serial[0].metrics.faults_survived,
                serial[0].metrics.failures
            );
        } else {
            // The only unrecovered ends left are a certified data loss or
            // a network partition; only the former counts as unsurvivable.
            let data_loss = matches!(
                serial[0].outcome,
                RecoveryOutcome::UnrecoverableDataLoss { .. }
            );
            assert_eq!(serial[0].metrics.faults_unsurvivable, u64::from(data_loss));
            if data_loss {
                assert!(serial[0].data_loss_certified);
            }
        }
    }

    #[test]
    fn nested_cells_restart_recovery_and_survive() {
        let spec = CampaignSpec::parse(
            r#"{
                "workloads": ["mp3d"],
                "nodes": [9],
                "freqs": [1000],
                "refs": 40000,
                "warmup": 0,
                "baseline": false,
                "scenarios": [
                    {"kind": "nested", "node": 2, "at": 30000, "gap": 60, "second_node": 5,
                     "permanent_mask": 1},
                    {"kind": "nested", "node": 1, "at": 30000, "gap": 40, "second_node": 3,
                     "gap2": 90, "third_node": 6, "permanent_mask": 1}
                ]
            }"#,
        )
        .unwrap();
        let cells = spec.expand();
        assert_eq!(cells.len(), 2);
        let serial = run_cells(&cells, 1);
        let parallel = run_cells(&cells, 2);
        for (o, p, cell) in serial
            .iter()
            .zip(&parallel)
            .zip(&cells)
            .map(|((a, b), c)| (a, b, c))
        {
            assert_eq!(o.metrics, p.metrics, "{} diverged across jobs", cell.label);
            assert!(o.outcome.is_recovered(), "{}: {:?}", cell.label, o.outcome);
            assert!(!o.data_loss_certified, "{}", cell.label);
            // The tight gaps landed at least one fault inside an open
            // recovery window, so recovery restarted instead of halting.
            assert!(
                o.metrics.recovery_restarts >= 1,
                "{}: no restart recorded",
                cell.label
            );
            assert!(o.metrics.recovery_max_depth >= 2, "{}", cell.label);
            assert_eq!(o.metrics.faults_survived, o.metrics.failures);
        }
    }
}
