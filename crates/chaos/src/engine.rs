//! The fuzzing engine: golden runs → adversarial case generation →
//! parallel execution → oracle judgement → counterexample shrinking.
//!
//! Determinism contract: the report document is a pure function of the
//! [`ChaosConfig`] (host wall-clock time is reported out-of-band in
//! [`ChaosReport::wall_ms_total`]). Case scenarios are sampled
//! from per-seed-group [`DetRng`] streams derived at generation time, the
//! cells run on the campaign worker pool (whose results are
//! order-independent), and shrinking re-runs cells sequentially in case
//! order — so `jobs: 1` and `jobs: N` produce byte-identical reports.

use std::time::Instant;

use ftcoma_campaign::{
    fork_cycle, needs_net, run_cell, run_cell_on, run_cells, Cell, CellOutcome, Scenario,
    ScenarioKind, SnapshotForge,
};
use ftcoma_core::{FtConfig, ECP_MIN_LIVE_NODES};
use ftcoma_machine::{export, MachineConfig};
use ftcoma_mem::addr::ITEMS_PER_PAGE;
use ftcoma_mem::NodeId;
use ftcoma_net::MeshGeometry;
use ftcoma_sim::{derive_seed, DetRng, Json};
use ftcoma_workloads::{presets, SplashConfig};

use crate::artifact::Counterexample;
use crate::oracle::{judge, GoldenRef, Verdict};
use crate::shrink::shrink_scenario;

/// Configuration of one fuzzing run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; machine seeds and case-sampling streams derive from it.
    pub campaign_seed: u64,
    /// Independent seed groups (one golden reference each).
    pub seeds: u64,
    /// Total cases, distributed round-robin across the seed groups.
    pub cases: u64,
    /// Worker threads for the golden and case runs.
    pub jobs: usize,
    /// Workload preset every cell runs.
    pub workload: SplashConfig,
    /// Machine size (≥ 5: the samplers draw permanent faults, and the ECP
    /// needs four live nodes after one).
    pub nodes: u16,
    /// Checkpoint frequency — high enough that several establishment
    /// windows land inside each run.
    pub freq_hz: f64,
    /// References per node (warmup is always 0 so sampled injection times
    /// are absolute positions within the golden run).
    pub refs_per_node: u64,
    /// Max re-runs the shrinker may spend per counterexample.
    pub shrink_budget: u32,
    /// Mix interconnect faults (link cuts, router deaths, message-loss
    /// episodes) into the sampled cases. Off by default: the node-fault
    /// sampling streams are untouched when disabled, so existing runs
    /// stay byte-identical.
    pub net_faults: bool,
    /// Mix continuous MTBF/MTTR failure–repair processes (soak cases) into
    /// the sampled grid: the case machine keeps failing, repairing and
    /// re-failing nodes (and links) for its whole run instead of taking
    /// one scripted fault. Off by default with the same RNG discipline as
    /// `net_faults`: disabled soak sampling consumes no draws, so existing
    /// runs stay byte-identical.
    pub soak: bool,
    /// Mix nested-fault chains into the sampled grid: two- and three-fault
    /// sequences with gaps tight enough to land later faults inside open
    /// recovery windows, stressing the restartable-recovery path. Off by
    /// default with the same RNG discipline as `net_faults`/`soak`:
    /// disabled nested sampling consumes no draws, so existing runs stay
    /// byte-identical.
    pub nested: bool,
}

impl ChaosConfig {
    /// Defaults for a fuzzing run: water on 8 nodes at 1000 recovery
    /// points/s (≈ one establishment every 20k cycles, so every run spans
    /// several), 4 seed groups × 200 cases of 8 000 references per node.
    pub fn new(campaign_seed: u64) -> ChaosConfig {
        ChaosConfig {
            campaign_seed,
            seeds: 4,
            cases: 200,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workload: presets::water(),
            nodes: 8,
            freq_hz: 1_000.0,
            refs_per_node: 8_000,
            shrink_budget: 24,
            net_faults: false,
            soak: false,
            nested: false,
        }
    }

    /// The machine seed of seed group `group` (its golden reference and
    /// every case in the group share it — a case must replay the golden
    /// execution exactly up to its injection point).
    pub fn machine_seed(&self, group: u64) -> u64 {
        derive_seed(self.campaign_seed, 2 * group)
    }

    /// The scenario-sampling stream of seed group `group` (independent of
    /// the machine seed so adding cases never perturbs the simulations).
    fn case_rng(&self, group: u64) -> DetRng {
        DetRng::seeded(derive_seed(self.campaign_seed, 2 * group + 1))
    }

    /// First private item index: items at or above it belong to exactly
    /// one node's private region and must replay value-exactly.
    pub fn private_floor(&self) -> u64 {
        self.workload.shared_pages * ITEMS_PER_PAGE
    }

    /// Builds the campaign cell for `scenario` in seed group `group`.
    pub fn cell(&self, id: u64, group: u64, scenario: Scenario) -> Cell {
        Cell {
            id,
            group,
            label: format!("chaos/s{group}/{}", scenario.label()),
            cfg: MachineConfig {
                nodes: self.nodes,
                refs_per_node: self.refs_per_node,
                warmup_refs_per_node: 0,
                workload: self.workload.clone(),
                ft: FtConfig::enabled(self.freq_hz),
                seed: self.machine_seed(group),
                verify: true,
                ..MachineConfig::default()
            },
            scenario,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.seeds == 0 || self.cases == 0 {
            return Err("chaos needs at least one seed and one case".into());
        }
        if self.nodes <= ECP_MIN_LIVE_NODES {
            return Err(
                "chaos needs at least 5 nodes: its cases lose nodes for good, and establishing \
                 a recovery point takes four live nodes"
                    .into(),
            );
        }
        if self.jobs == 0 {
            return Err("jobs must be at least 1".into());
        }
        if self.refs_per_node == 0 {
            return Err("refs_per_node must be positive".into());
        }
        FtConfig::try_enabled(self.freq_hz).map(|_| ())
    }
}

/// Samples one adversarial scenario. Buckets sweep the protocol
/// lifecycle: uniform transient/permanent faults (mid-transaction and
/// drain windows fall out of uniformity), faults biased into the
/// two-phase establishment windows around each `k * period`, back-to-back
/// pairs with tight gaps probing the rollback/reconfiguration window, and
/// multi-failure cycles.
/// Floor for sampled horizons: a degenerate golden horizon (tiny runs in
/// quick/test modes) must not collapse every sampling window to a single
/// cycle, or bias every draw to cycle 1. All scripted samplers clamp to
/// the same floor so their draw streams stay aligned across modes.
const MIN_HORIZON: u64 = 8;

fn sample_scenario(rng: &mut DetRng, nodes: u16, horizon: u64, period: u64) -> Scenario {
    let horizon = horizon.max(MIN_HORIZON);
    let full = [(1, horizon)];
    let node = rng.below(u64::from(nodes)) as u16;
    let bucket = rng.below(100);
    let (kind, at, repair_at) = if bucket < 40 {
        let at = rng.in_windows(&full).expect("non-empty window");
        (ScenarioKind::Transient, at, None)
    } else if bucket < 60 {
        let at = rng.in_windows(&full).expect("non-empty window");
        let repair = if rng.chance(0.3) {
            Some(at + rng.range(20_000, 100_000))
        } else {
            None
        };
        (ScenarioKind::Permanent, at, repair)
    } else if bucket < 80 {
        // Inside (or just around) a checkpoint establishment window.
        let windows: Vec<(u64, u64)> = (1..)
            .map(|g| g * period)
            .take_while(|&c| c < horizon)
            .map(|c| {
                (
                    c.saturating_sub(period / 8).max(1),
                    (c + period / 4).min(horizon),
                )
            })
            .collect();
        let at = rng
            .in_windows(&windows)
            .unwrap_or_else(|| rng.in_windows(&full).expect("non-empty window"));
        let kind = if rng.chance(0.5) {
            ScenarioKind::Transient
        } else {
            ScenarioKind::Permanent
        };
        (kind, at, None)
    } else if bucket < 92 {
        // Permanent fault, then a transient one a tight gap later.
        let at = rng.range(1, (horizon * 3 / 4).max(2));
        let gap = 1 + rng.below(2_000);
        let mut second = rng.below(u64::from(nodes) - 1) as u16;
        if second >= node {
            second += 1;
        }
        (
            ScenarioKind::BackToBack {
                gap,
                second_node: second,
            },
            at,
            None,
        )
    } else {
        let at = rng.range(1, (horizon / 2).max(2));
        (
            ScenarioKind::Cycle {
                period: rng.range(5_000, 60_000),
                count: 2 + rng.below(2) as u32,
            },
            at,
            None,
        )
    };
    Scenario {
        kind,
        node,
        at,
        repair_at,
    }
}

/// Samples one interconnect-fault scenario (only drawn when
/// [`ChaosConfig::net_faults`] is on): link cuts between mesh-adjacent
/// pairs, router deaths, and bounded message-loss episodes — all faults
/// the reliable transport and fault-aware routing must mask or escalate
/// cleanly.
fn sample_net_scenario(rng: &mut DetRng, nodes: u16, horizon: u64) -> Scenario {
    let horizon = horizon.max(MIN_HORIZON);
    let node = rng.below(u64::from(nodes)) as u16;
    let at = rng.in_windows(&[(1, horizon)]).expect("non-empty window");
    let bucket = rng.below(100);
    let kind = if bucket < 40 {
        let neighbours: Vec<NodeId> = MeshGeometry::for_nodes(usize::from(nodes))
            .neighbours(NodeId::new(node))
            .collect();
        let to_node = neighbours[rng.below(neighbours.len() as u64) as usize];
        ScenarioKind::LinkCut {
            to_node: to_node.index() as u16,
        }
    } else if bucket < 70 {
        ScenarioKind::RouterDown
    } else {
        ScenarioKind::MessageLoss {
            rate: 50 + rng.below(450) as u32,
        }
    };
    Scenario {
        kind,
        node,
        at,
        repair_at: None,
    }
}

/// Samples one continuous-process soak scenario (only drawn when
/// [`ChaosConfig::soak`] is on). Means are scaled to the golden run's
/// horizon so several failure/repair cycles — including repair-then-refail
/// sequences — land inside every case. The MTBF floor sits at a third of
/// the horizon on purpose: every fault costs a rollback (lost progress
/// since the last recovery point) plus a reconfiguration, so denser
/// processes inflate the run far past the fault-free horizon without
/// probing anything new.
fn sample_soak_scenario(rng: &mut DetRng, horizon: u64) -> Scenario {
    let horizon = horizon.max(4_096);
    let node_mtbf = rng.range(horizon / 3, horizon);
    let node_mttr = rng.range(horizon / 64, horizon / 16);
    let (link_mtbf, link_mttr) = if rng.chance(0.5) {
        (
            rng.range(horizon / 3, horizon),
            rng.range(horizon / 64, horizon / 16),
        )
    } else {
        (0, 0)
    };
    Scenario {
        kind: ScenarioKind::Continuous {
            node_mtbf: node_mtbf.max(1),
            node_mttr: node_mttr.max(1),
            link_mtbf,
            link_mttr,
        },
        node: 0,
        // Process start offset; 0 means the process samples from cycle 0.
        at: rng.below(horizon / 4),
        repair_at: None,
    }
}

/// Samples one nested-fault chain (only drawn when
/// [`ChaosConfig::nested`] is on): a first fault, a second one a tight
/// gap later, and — half the time — a third fault another tight gap after
/// that. Tight gaps land the later faults inside the detection, rollback,
/// reconfiguration or replay window of the recovery already in flight, so
/// these cases exercise recovery restarts rather than independent
/// episodes. At most one fault in the chain is permanent: scripted kills
/// carry no mesh-connectivity guard, so two permanents could partition
/// the mesh and mask the restart path under test.
fn sample_nested_scenario(rng: &mut DetRng, nodes: u16, horizon: u64) -> Scenario {
    let horizon = horizon.max(MIN_HORIZON);
    let node = rng.below(u64::from(nodes)) as u16;
    let at = rng.range(1, (horizon * 3 / 4).max(2));
    let gap = 1 + rng.below(4_000);
    let mut second = rng.below(u64::from(nodes) - 1) as u16;
    if second >= node {
        second += 1;
    }
    let (gap2, third_node) = if rng.chance(0.5) {
        let g2 = 1 + rng.below(4_000);
        let mut third = rng.below(u64::from(nodes) - 2) as u16;
        for taken in [node.min(second), node.max(second)] {
            if third >= taken {
                third += 1;
            }
        }
        (g2, third)
    } else {
        (0, 0)
    };
    // One permanent fault at most; bit 2 only when the third fault exists.
    let masks: &[u8] = if gap2 > 0 {
        &[0b000, 0b001, 0b010, 0b100]
    } else {
        &[0b000, 0b001, 0b010]
    };
    let permanent_mask = masks[rng.below(masks.len() as u64) as usize];
    Scenario {
        kind: ScenarioKind::Nested {
            gap,
            second_node: second,
            gap2,
            third_node,
            permanent_mask,
        },
        node,
        at,
        repair_at: None,
    }
}

/// What one fuzzing run produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The full report document (`"kind": "chaos"`, byte-deterministic).
    pub doc: Json,
    /// Host wall-clock time of the whole run, in milliseconds. Kept out
    /// of `doc` so reports diff cleanly; the CLI writes it to the
    /// `timing` sidecar.
    pub wall_ms_total: f64,
    /// One minimized artifact per oracle failure, in case order.
    pub counterexamples: Vec<Counterexample>,
    /// Cases that recovered and passed all three oracles.
    pub passed: u64,
    /// Cases legally reported unrecoverable: a network partition, or a
    /// data loss certified by the copy-accounting audit.
    pub unrecoverable: u64,
    /// Cases that failed an oracle (== `counterexamples.len()`).
    pub failed: u64,
}

/// Runs the full fuzzing pipeline.
///
/// # Errors
///
/// Returns a message for invalid configurations, or if a *golden* (fault
/// free) run does not recover — that is a harness-level inconsistency no
/// counterexample can describe.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    cfg.validate()?;
    let start = Instant::now();

    // Phase 1: one golden reference per seed group, in parallel.
    let golden_cells: Vec<Cell> = (0..cfg.seeds)
        .map(|k| cfg.cell(k, k, Scenario::none()))
        .collect();
    let golden_outcomes = run_cells(&golden_cells, cfg.jobs);
    for (k, o) in golden_outcomes.iter().enumerate() {
        if !o.outcome.is_recovered() {
            return Err(format!(
                "golden run of seed group {k} is inconsistent: {}",
                o.outcome
            ));
        }
    }
    let goldens: Vec<GoldenRef> = golden_outcomes
        .iter()
        .map(|o| GoldenRef::from_outcome(o, cfg.private_floor(), cfg.refs_per_node))
        .collect();

    // Phase 2: sample the case grid (deterministic per seed group).
    let period = FtConfig::enabled(cfg.freq_hz)
        .ckpt_period_cycles()
        .expect("chaos runs with FT enabled");
    let mut cells: Vec<Cell> = Vec::with_capacity(cfg.cases as usize);
    for k in 0..cfg.seeds {
        let n = cfg.cases / cfg.seeds + u64::from(k < cfg.cases % cfg.seeds);
        let mut rng = cfg.case_rng(k);
        for _ in 0..n {
            let horizon = goldens[k as usize].total_cycles;
            // Short-circuit order matters: a disabled gate consumes no
            // draws, so turning a mode off never perturbs the others.
            let sc = if cfg.nested && rng.chance(0.25) {
                sample_nested_scenario(&mut rng, cfg.nodes, horizon)
            } else if cfg.soak && rng.chance(0.25) {
                sample_soak_scenario(&mut rng, horizon)
            } else if cfg.net_faults && rng.chance(0.5) {
                sample_net_scenario(&mut rng, cfg.nodes, horizon)
            } else {
                sample_scenario(&mut rng, cfg.nodes, horizon, period)
            };
            cells.push(cfg.cell(cells.len() as u64, k, sc));
        }
    }

    // Phase 3: run every case on the worker pool.
    let outcomes = run_cells(&cells, cfg.jobs);

    // Phase 4 + 5: judge in case order; shrink each failure sequentially.
    let (mut passed, mut unrecoverable, mut failed) = (0u64, 0u64, 0u64);
    let mut rows: Vec<Json> = Vec::with_capacity(cells.len());
    let mut counterexamples: Vec<Counterexample> = Vec::new();
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        let golden = &goldens[cell.group as usize];
        let verdict = judge(outcome, golden);
        let mut row = vec![
            ("id".to_string(), Json::from(cell.id)),
            ("seed_group".to_string(), Json::from(cell.group)),
            ("scenario".to_string(), cell.scenario.to_json()),
            ("status".to_string(), Json::from(outcome.outcome.label())),
            ("verdict".to_string(), Json::from(verdict.label())),
        ];
        match verdict {
            Verdict::Pass => passed += 1,
            Verdict::Unrecoverable => unrecoverable += 1,
            Verdict::Fail(reasons) => {
                failed += 1;
                // Fork-aware shrink runner: bisection probes share prefix
                // snapshots (one forge per transport band) instead of
                // re-simulating the unfaulted prefix per probe. The final
                // artifact re-run raises `trace_capacity`, so its config
                // differs from the forge's and it runs straight — exactly
                // as a from-scratch shrinker would have run it.
                let base_cfg = &cell.cfg;
                let mut forges: [Option<SnapshotForge>; 2] = [None, None];
                let cx = minimize_case(cfg, cell, golden, reasons, |c: &Cell| {
                    if c.cfg == *base_cfg {
                        if let Some(at) = fork_cycle(&c.scenario) {
                            let band = usize::from(needs_net(&c.scenario.kind));
                            let forge = forges[band].get_or_insert_with(|| {
                                SnapshotForge::new(c.cfg.clone(), band == 1)
                            });
                            return run_cell_on(c, forge.machine_at(at));
                        }
                    }
                    run_cell(c)
                });
                row.push(("counterexample".to_string(), Json::from(cx.case_id)));
                counterexamples.push(cx);
            }
        }
        rows.push(Json::Obj(row));
    }

    let golden_rows = golden_cells.iter().zip(&golden_outcomes).map(|(c, o)| {
        Json::obj([
            ("seed_group", Json::from(c.group)),
            ("machine_seed", Json::from(format!("0x{:016x}", c.cfg.seed))),
            ("total_cycles", Json::from(o.metrics.total_cycles)),
            ("checkpoints", Json::from(o.metrics.checkpoints)),
            ("owned_items", Json::from(o.owner_image.len())),
        ])
    });
    let doc = Json::obj([
        ("schema_version", Json::from(export::SCHEMA_VERSION)),
        ("kind", Json::from("chaos")),
        (
            "config",
            Json::obj([
                (
                    "campaign_seed",
                    Json::from(format!("0x{:016x}", cfg.campaign_seed)),
                ),
                ("seeds", Json::from(cfg.seeds)),
                ("cases", Json::from(cfg.cases)),
                ("workload", Json::from(cfg.workload.name.as_str())),
                ("nodes", Json::from(u64::from(cfg.nodes))),
                ("freq", Json::from(cfg.freq_hz)),
                ("refs_per_node", Json::from(cfg.refs_per_node)),
                ("shrink_budget", Json::from(u64::from(cfg.shrink_budget))),
                ("net_faults", Json::from(cfg.net_faults)),
                ("soak", Json::from(cfg.soak)),
                ("nested", Json::from(cfg.nested)),
            ]),
        ),
        ("goldens", Json::arr(golden_rows)),
        (
            "oracle",
            Json::obj([
                ("pass", Json::from(passed)),
                ("unrecoverable", Json::from(unrecoverable)),
                ("fail", Json::from(failed)),
            ]),
        ),
        ("cases", Json::arr(rows)),
        (
            "counterexamples",
            Json::arr(counterexamples.iter().map(Counterexample::to_json)),
        ),
    ]);
    Ok(ChaosReport {
        doc,
        wall_ms_total: start.elapsed().as_secs_f64() * 1e3,
        counterexamples,
        passed,
        unrecoverable,
        failed,
    })
}

/// Shrinks one failing case and packages it as a replayable artifact.
/// `runner` abstracts the simulation so the artifact machinery is testable
/// against deliberately broken fakes.
fn minimize_case<F: FnMut(&Cell) -> CellOutcome>(
    cfg: &ChaosConfig,
    case_cell: &Cell,
    golden: &GoldenRef,
    original_reasons: Vec<String>,
    mut runner: F,
) -> Counterexample {
    let (shrunk, runs) = shrink_scenario(
        &case_cell.scenario,
        |cand| {
            let cell = cfg.cell(case_cell.id, case_cell.group, *cand);
            judge(&runner(&cell), golden).is_fail()
        },
        cfg.shrink_budget,
    );
    // Record the shrunk scenario's own reasons (one extra run); the
    // shrinker guarantees it still fails. This final run collects spans
    // so the artifact carries the recovery timeline of the failing case.
    let mut final_cell = cfg.cell(case_cell.id, case_cell.group, shrunk);
    final_cell.cfg.trace_capacity = 100_000;
    let final_outcome = runner(&final_cell);
    let recovery_timeline: Vec<_> = final_outcome
        .spans
        .iter()
        .filter(|s| s.phase.is_recovery())
        .take(64)
        .copied()
        .collect();
    let reasons = match judge(&final_outcome, golden) {
        Verdict::Fail(r) => r,
        _ => original_reasons,
    };
    Counterexample {
        campaign_seed: cfg.campaign_seed,
        seed_group: case_cell.group,
        machine_seed: cfg.machine_seed(case_cell.group),
        workload: cfg.workload.name.clone(),
        nodes: cfg.nodes,
        freq_hz: cfg.freq_hz,
        refs_per_node: cfg.refs_per_node,
        case_id: case_cell.id,
        scenario: shrunk,
        original: case_cell.scenario,
        reasons,
        shrink_runs: runs,
        recovery_timeline,
    }
}

/// Replays a counterexample artifact: rebuilds the golden reference and
/// the faulted cell from the recorded seeds, re-runs both and re-judges
/// with the same oracle the fuzzer used.
///
/// # Errors
///
/// Returns a message for unknown workloads, a scenario that does not fit
/// the artifact's machine, a machine seed that no longer matches the
/// derivation (stale artifact), or a golden run that does not recover.
pub fn replay(cx: &Counterexample) -> Result<Verdict, String> {
    let workload = presets::by_name(&cx.workload)
        .ok_or_else(|| format!("unknown workload `{}`", cx.workload))?;
    let cfg = ChaosConfig {
        campaign_seed: cx.campaign_seed,
        seeds: cx.seed_group + 1,
        cases: 1,
        jobs: 1,
        workload,
        nodes: cx.nodes,
        freq_hz: cx.freq_hz,
        refs_per_node: cx.refs_per_node,
        shrink_budget: 0,
        // Only steer case sampling; a replay re-runs the recorded
        // scenario directly.
        net_faults: false,
        soak: false,
        nested: false,
    };
    cfg.validate()?;
    cx.scenario.validate_for(cx.nodes).map_err(|e| e.0)?;
    if cfg.machine_seed(cx.seed_group) != cx.machine_seed {
        return Err(format!(
            "stale artifact: seed derivation now gives 0x{:016x}, artifact has 0x{:016x}",
            cfg.machine_seed(cx.seed_group),
            cx.machine_seed
        ));
    }
    let golden_out = run_cell(&cfg.cell(0, cx.seed_group, Scenario::none()));
    if !golden_out.outcome.is_recovered() {
        return Err(format!(
            "golden run is inconsistent: {}",
            golden_out.outcome
        ));
    }
    let golden = GoldenRef::from_outcome(&golden_out, cfg.private_floor(), cfg.refs_per_node);
    let case_out = run_cell(&cfg.cell(cx.case_id, cx.seed_group, cx.scenario));
    Ok(judge(&case_out, &golden))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcoma_core::RecoveryOutcome;
    use ftcoma_machine::RunMetrics;

    fn tiny(seed: u64) -> ChaosConfig {
        ChaosConfig {
            campaign_seed: seed,
            seeds: 2,
            cases: 8,
            jobs: 2,
            workload: presets::water(),
            nodes: 8,
            freq_hz: 1_000.0,
            refs_per_node: 1_500,
            shrink_budget: 8,
            net_faults: false,
            soak: false,
            nested: false,
        }
    }

    #[test]
    fn sampled_scenarios_are_in_range() {
        let mut rng = DetRng::seeded(99);
        for _ in 0..500 {
            let sc = sample_scenario(&mut rng, 8, 120_000, 20_000);
            assert!(sc.at >= 1);
            assert!(sc.node < 8);
            assert_ne!(sc.kind, ScenarioKind::None);
            if let ScenarioKind::BackToBack { gap, second_node } = sc.kind {
                assert!(gap >= 1 && second_node < 8 && second_node != sc.node);
            }
        }
    }

    #[test]
    fn net_fault_sampling_is_in_range() {
        let mut rng = DetRng::seeded(3);
        let geo = MeshGeometry::for_nodes(8);
        for _ in 0..200 {
            let sc = sample_net_scenario(&mut rng, 8, 50_000);
            assert!(sc.at >= 1);
            assert!(sc.node < 8);
            assert_eq!(sc.repair_at, None);
            match sc.kind {
                ScenarioKind::LinkCut { to_node } => {
                    assert!(to_node < 8 && to_node != sc.node);
                    assert_eq!(geo.hops(NodeId::new(sc.node), NodeId::new(to_node)), 1);
                }
                ScenarioKind::RouterDown => {}
                ScenarioKind::MessageLoss { rate } => assert!((50..500).contains(&rate)),
                other => panic!("unexpected node-fault kind {other:?}"),
            }
        }
    }

    #[test]
    fn net_fault_fuzzing_is_deterministic_and_violation_free() {
        let cfg1 = ChaosConfig {
            jobs: 1,
            net_faults: true,
            ..tiny(23)
        };
        let cfg4 = ChaosConfig {
            jobs: 4,
            ..cfg1.clone()
        };
        let r1 = run_chaos(&cfg1).unwrap();
        let r4 = run_chaos(&cfg4).unwrap();
        assert_eq!(r1.doc.to_string_pretty(), r4.doc.to_string_pretty());
        assert_eq!(
            r1.failed, 0,
            "net-fault bug or oracle bug: {:#?}",
            r1.counterexamples
        );
        // The mix actually drew interconnect faults, not just node faults.
        let text = r1.doc.to_string_pretty();
        assert!(
            ["link_cut", "router_down", "message_loss"]
                .iter()
                .any(|k| text.contains(k)),
            "no net-fault cases sampled"
        );
    }

    #[test]
    fn nested_sampling_is_in_range() {
        let mut rng = DetRng::seeded(29);
        let mut saw_third = false;
        for _ in 0..300 {
            let sc = sample_nested_scenario(&mut rng, 8, 120_000);
            assert!(sc.at >= 1);
            assert!(sc.node < 8);
            let ScenarioKind::Nested {
                gap,
                second_node,
                gap2,
                third_node,
                permanent_mask,
            } = sc.kind
            else {
                panic!("nested sampler produced {:?}", sc.kind);
            };
            assert!((1..=4_000).contains(&gap));
            assert!(second_node < 8 && second_node != sc.node);
            // At most one permanent kill, and only over faults that exist.
            assert!(permanent_mask.count_ones() <= 1);
            if gap2 > 0 {
                saw_third = true;
                assert!((1..=4_000).contains(&gap2));
                assert!(third_node < 8);
                assert!(third_node != sc.node && third_node != second_node);
            } else {
                assert_eq!(permanent_mask & 0b100, 0);
            }
        }
        assert!(saw_third, "three-fault chains never sampled");
    }

    #[test]
    fn nested_fuzzing_is_deterministic_and_violation_free() {
        let cfg1 = ChaosConfig {
            jobs: 1,
            nested: true,
            cases: 12,
            ..tiny(37)
        };
        let cfg4 = ChaosConfig {
            jobs: 4,
            ..cfg1.clone()
        };
        let r1 = run_chaos(&cfg1).unwrap();
        let r4 = run_chaos(&cfg4).unwrap();
        assert_eq!(r1.doc.to_string_pretty(), r4.doc.to_string_pretty());
        assert_eq!(
            r1.failed, 0,
            "nested-fault bug or oracle bug: {:#?}",
            r1.counterexamples
        );
        // The mix actually drew nested chains (the config key alone would
        // match a bare "nested" substring).
        assert!(
            r1.doc.to_string_pretty().contains("\"kind\": \"nested\""),
            "no nested cases sampled"
        );
    }

    #[test]
    fn soak_sampling_scales_means_to_the_horizon() {
        let mut rng = DetRng::seeded(17);
        for _ in 0..200 {
            let sc = sample_soak_scenario(&mut rng, 120_000);
            assert!(sc.at < 30_000);
            let ScenarioKind::Continuous {
                node_mtbf,
                node_mttr,
                link_mtbf,
                link_mttr,
            } = sc.kind
            else {
                panic!("soak sampler produced {:?}", sc.kind);
            };
            assert!((40_000..=120_000).contains(&node_mtbf));
            assert!((1_875..=7_500).contains(&node_mttr));
            // Either both link means are set or the link half is off.
            assert_eq!(link_mtbf > 0, link_mttr > 0);
        }
    }

    #[test]
    fn soak_fuzzing_is_deterministic_and_violation_free() {
        let cfg1 = ChaosConfig {
            jobs: 1,
            soak: true,
            cases: 12,
            ..tiny(31)
        };
        let cfg4 = ChaosConfig {
            jobs: 4,
            ..cfg1.clone()
        };
        let r1 = run_chaos(&cfg1).unwrap();
        let r4 = run_chaos(&cfg4).unwrap();
        assert_eq!(r1.doc.to_string_pretty(), r4.doc.to_string_pretty());
        assert_eq!(
            r1.failed, 0,
            "soak bug or oracle bug: {:#?}",
            r1.counterexamples
        );
        // The mix actually drew continuous processes.
        assert!(
            r1.doc.to_string_pretty().contains("continuous"),
            "no soak cases sampled"
        );
    }

    /// Satellite regression: degenerate golden horizons (tiny quick-mode
    /// runs) used to collapse the sampling windows — `range(1, 2)` pins
    /// every draw to cycle 1. With the shared [`MIN_HORIZON`] clamp the
    /// samplers stay in range *and* keep spreading their draws.
    #[test]
    fn tiny_horizon_sampling_stays_in_range_and_unbiased() {
        for horizon in [0, 1, 2, 3, 5, 7] {
            let mut rng = DetRng::seeded(0xBAD0 + horizon);
            let mut ats = std::collections::BTreeSet::new();
            for _ in 0..200 {
                let sc = sample_scenario(&mut rng, 8, horizon, 20_000);
                assert!(sc.at >= 1, "horizon {horizon}: at {} below 1", sc.at);
                assert!(sc.at < MIN_HORIZON, "horizon {horizon}: at {}", sc.at);
                assert!(sc.node < 8);
                ats.insert(sc.at);

                let net = sample_net_scenario(&mut rng, 8, horizon);
                assert!(net.at >= 1 && net.at < MIN_HORIZON);

                let nested = sample_nested_scenario(&mut rng, 8, horizon);
                assert!(nested.at >= 1 && nested.at < MIN_HORIZON);
            }
            assert!(
                ats.len() > 1,
                "horizon {horizon}: every scripted draw biased to cycle {:?}",
                ats
            );
        }
    }

    /// End-to-end quick-mode sweep over a tiny golden horizon: short runs
    /// must neither panic in the samplers nor lose jobs-level determinism.
    #[test]
    fn tiny_horizon_sweep_is_deterministic() {
        let cfg1 = ChaosConfig {
            jobs: 1,
            refs_per_node: 120,
            cases: 10,
            net_faults: true,
            nested: true,
            ..tiny(61)
        };
        let cfg4 = ChaosConfig {
            jobs: 4,
            ..cfg1.clone()
        };
        let r1 = run_chaos(&cfg1).unwrap();
        let r4 = run_chaos(&cfg4).unwrap();
        assert_eq!(r1.doc.to_string_pretty(), r4.doc.to_string_pretty());
        assert_eq!(r1.passed + r1.unrecoverable + r1.failed, 10);
    }

    #[test]
    fn case_sampling_is_deterministic() {
        let cfg = tiny(42);
        let mut a = cfg.case_rng(0);
        let mut b = cfg.case_rng(0);
        for _ in 0..50 {
            assert_eq!(
                sample_scenario(&mut a, 8, 100_000, 20_000),
                sample_scenario(&mut b, 8, 100_000, 20_000)
            );
        }
    }

    /// The deliberately-broken-invariant path: a fake runner reports an
    /// invariant violation for every injection at or after a threshold
    /// cycle. The artifact machinery must fire, bisect the injection time
    /// to exactly the threshold, and the artifact must replay (against the
    /// same fake) to the same verdict.
    #[test]
    fn broken_invariant_produces_a_shrunk_replayable_artifact() {
        const THRESHOLD: u64 = 33_000;
        let cfg = ChaosConfig {
            shrink_budget: 32,
            ..tiny(7)
        };
        let golden = GoldenRef {
            total_cycles: 100_000,
            owner_image: Vec::new(),
            private_floor: 0,
            quota: 0,
        };
        let fake = |cell: &Cell| -> CellOutcome {
            let broken = cell.scenario.at >= THRESHOLD;
            CellOutcome {
                cell_id: cell.id,
                metrics: RunMetrics::default(),
                links: Vec::new(),
                trace: Vec::new(),
                outcome: if broken {
                    RecoveryOutcome::InvariantViolation {
                        at: cell.scenario.at,
                        problems: vec!["item 3: two owners".into()],
                    }
                } else {
                    RecoveryOutcome::Recovered
                },
                owner_image: Vec::new(),
                stream_progress: Vec::new(),
                spans: Vec::new(),
                timeseries: Vec::new(),
                data_loss_certified: false,
                wall_ms: 0.0,
            }
        };
        let case = cfg.cell(
            5,
            0,
            Scenario {
                kind: ScenarioKind::Transient,
                node: 1,
                at: 90_000,
                repair_at: None,
            },
        );
        let cx = minimize_case(&cfg, &case, &golden, vec!["invariant: seeded".into()], fake);
        assert_eq!(cx.scenario.at, THRESHOLD, "bisection missed the threshold");
        assert_eq!(cx.original.at, 90_000);
        assert!(cx.reasons.iter().any(|r| r.contains("two owners")));
        // Round-trip through the artifact format and re-judge with the
        // same fake: identical verdict, deterministically.
        let back = Counterexample::parse(&cx.to_json().to_string_pretty()).unwrap();
        assert_eq!(back, cx);
        let v1 = judge(
            &fake(&cfg.cell(back.case_id, back.seed_group, back.scenario)),
            &golden,
        );
        assert!(v1.is_fail());
    }

    #[test]
    fn fuzzing_is_deterministic_across_job_counts() {
        let cfg1 = ChaosConfig {
            jobs: 1,
            ..tiny(11)
        };
        let cfg4 = ChaosConfig {
            jobs: 4,
            ..tiny(11)
        };
        let r1 = run_chaos(&cfg1).unwrap();
        let r4 = run_chaos(&cfg4).unwrap();
        assert_eq!(r1.doc.to_string_pretty(), r4.doc.to_string_pretty());
        assert_eq!(
            r1.failed, 0,
            "protocol bug or oracle bug: {:#?}",
            r1.counterexamples
        );
    }
}
