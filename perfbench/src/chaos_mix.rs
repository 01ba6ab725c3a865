//! `chaos_mix`: `run_chaos` on the default 8-node Water config with 200
//! cases over 4 seed groups, nested, net-fault and soak sampling on, two
//! worker threads, and `refs_per_node` set explicitly so that
//! `FTCOMA_BENCH_QUICK` cannot change it.
//!
//! One op is one judged case. A case fails on a `fail` verdict, or when
//! its sweep's report is inconsistent (tallies that do not add up, a
//! document that differs from the first sweep of the run, golden rows
//! that disagree with a direct run of the same configuration).
//!
//! The campaign seed is derived from `--seed`. `refs_per_sec` here is the
//! sweep's reference quota per sweep second, `cases_per_sec` rescaled: a
//! forked case does not simulate its shared prefix again, and the report
//! does not say how many references each case ran.
//!
//! The traced run rebuilds the sweep's phases from outside: the report's
//! per-case `Scenario::from_json` goes back through `ChaosConfig::cell`,
//! and golden, case, judge, shrink and report phases are timed apart.

use std::collections::BTreeMap;

use ftcoma_campaign::{
    fork_cycle, needs_net, run_cell, run_cell_on, run_cells, Cell, Scenario, SnapshotForge,
};
use ftcoma_chaos::{judge, run_chaos, shrink_scenario, ChaosConfig, GoldenRef, Verdict};
use ftcoma_core::FtConfig;
use ftcoma_machine::{Machine, MachineConfig, RunMetrics};
use ftcoma_sim::{derive_seed, Json};

use crate::common::{self, Opts};
use crate::layers;
use crate::report::{self, fast_rate, fast_time, median, quantile, Report};
use crate::tracer::Tracer;

/// Snapshot, fork and restore repetitions per golden machine.
const SNAP_REPS: usize = 5;

/// Report renders timed after each untraced sweep.
const EXPORT_PASSES: usize = 5;
/// Set-ups measured after each untraced sweep.
const SETUP_PER_SWEEP: usize = 3;

pub fn config(opts: &Opts) -> ChaosConfig {
    let mut c = ChaosConfig::new(derive_seed(opts.seed, 0xC4A0));
    c.seeds = 4;
    c.cases = 200;
    c.jobs = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    c.nested = true;
    c.net_faults = true;
    c.soak = true;
    c.refs_per_node = 8_000;
    if opts.short {
        (c.seeds, c.cases, c.refs_per_node) = (2, 12, 1_500);
    }
    c
}

fn golden_cells(cfg: &ChaosConfig) -> Vec<Cell> {
    (0..cfg.seeds)
        .map(|k| cfg.cell(k, k, Scenario::none()))
        .collect()
}

/// The report's cases, rebuilt as campaign cells.
fn case_cells(cfg: &ChaosConfig, doc: &Json) -> Result<Vec<Cell>, String> {
    let rows = doc
        .get("cases")
        .and_then(Json::as_array)
        .ok_or("report has no cases array")?;
    rows.iter()
        .map(|row| {
            let id = row
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("case without id")?;
            let group = row
                .get("seed_group")
                .and_then(Json::as_u64)
                .ok_or("case without seed_group")?;
            let sc = row.get("scenario").ok_or("case without scenario")?;
            let sc = Scenario::from_json(sc).map_err(|e| e.to_string())?;
            Ok(cfg.cell(id, group, sc))
        })
        .collect()
}

/// Every case's verdict label, in report order.
fn verdicts_of(doc: &Json) -> Vec<&str> {
    doc.get("cases")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|r| r.get("verdict").and_then(Json::as_str).unwrap_or("missing"))
        .collect()
}

/// One traced sweep's phase times and results.
struct Phases {
    golden_s: f64,
    cases_s: f64,
    judge_s: f64,
    shrink_s: f64,
    report_s: f64,
    verdicts: Vec<&'static str>,
    shrink_runs: u32,
    pool_efficiency: f64,
    case_metrics: Vec<RunMetrics>,
}

fn traced_sweep(tr: &mut Tracer, cfg: &ChaosConfig, doc: &Json) -> Result<Phases, String> {
    let goldens = golden_cells(cfg);
    let cells = case_cells(cfg, doc)?;
    let (goldens, golden_s) = tr.span("chaos.golden", |tr| {
        let (outs, _) = tr.span("campaign.run_cells", |_| run_cells(&goldens, cfg.jobs));
        outs.iter()
            .map(|o| {
                tr.span("chaos.golden_ref", |_| {
                    GoldenRef::from_outcome(o, cfg.private_floor(), cfg.refs_per_node)
                })
                .0
            })
            .collect::<Vec<_>>()
    });
    let ((outcomes, pool_s), cases_s) = tr.span("chaos.cases", |tr| {
        tr.span("campaign.run_cells", |_| run_cells(&cells, cfg.jobs))
    });
    let busy_ms: f64 = outcomes.iter().map(|o| o.wall_ms).sum();
    let (mut judge_s, mut shrink_s, mut shrink_runs) = (0.0, 0.0, 0);
    let mut verdicts = Vec::with_capacity(cells.len());
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        let golden = &goldens[cell.group as usize];
        let (verdict, secs) = tr.span("chaos.judge", |_| judge(outcome, golden));
        judge_s += secs;
        if let Verdict::Fail(_) = verdict {
            let ((_, runs), secs) = tr.span("chaos.shrink", |_| {
                shrink_scenario(
                    &cell.scenario,
                    |cand| {
                        judge(&run_cell(&cfg.cell(cell.id, cell.group, *cand)), golden).is_fail()
                    },
                    cfg.shrink_budget,
                )
            });
            shrink_s += secs;
            shrink_runs += runs;
        }
        verdicts.push(verdict.label());
    }
    let (_, report_s) = tr.span("chaos.report", |tr| {
        tr.span("export.serialize", |_| doc.to_string_pretty())
    });
    Ok(Phases {
        golden_s,
        cases_s,
        judge_s,
        shrink_s,
        report_s,
        verdicts,
        shrink_runs,
        pool_efficiency: busy_ms / (cfg.jobs as f64 * pool_s * 1e3),
        case_metrics: outcomes.into_iter().map(|o| o.metrics).collect(),
    })
}

/// The sweep's configuration and what the run learned about it.
struct Campaign {
    cfg: ChaosConfig,
    /// Standard/ECP twins of every seed group's unfaulted configuration:
    /// the simulated overhead the sweep's cases run under.
    twins: Vec<(RunMetrics, RunMetrics)>,
    /// The first sweep's rendered report; later sweeps must repeat it.
    reference: Option<String>,
    /// The latest untraced sweep's report.
    doc: Option<Json>,
}

impl Campaign {
    fn new(cfg: ChaosConfig) -> Campaign {
        let twins = golden_cells(&cfg)
            .iter()
            .map(|c| {
                let ecp = Machine::new(c.cfg.clone()).run();
                let std_cfg = MachineConfig {
                    ft: FtConfig::disabled(),
                    verify: false,
                    ..c.cfg.clone()
                };
                (Machine::new(std_cfg).run(), ecp)
            })
            .collect();
        Campaign {
            cfg,
            twins,
            reference: None,
            doc: None,
        }
    }
}

/// What an untraced sweep cost: wall seconds, report render seconds,
/// report bytes and peak memory.
struct Sweep {
    secs: f64,
    render_s: Vec<f64>,
    bytes: usize,
    peak_rss_mb: f64,
}

/// One `run_chaos` sweep with its report checks; each case is one op.
fn sweep(report: &mut Report, tr: &mut Tracer, camp: &mut Campaign) -> Option<Sweep> {
    let cfg = &camp.cfg;
    report::reset_peak_rss();
    let (rep, secs) = tr.span("chaos.run_chaos", |_| run_chaos(cfg));
    let rep = match rep {
        Ok(rep) => rep,
        Err(e) => {
            for _ in 0..cfg.cases {
                report.op(false, || format!("chaos_mix sweep refused: {e}"));
            }
            return None;
        }
    };
    let peak_rss_mb = report::peak_rss_mb();
    // One render takes well under a millisecond, too little to time once
    // against host noise: time several, after every sweep.
    let renders: Vec<(String, f64)> = (0..EXPORT_PASSES)
        .map(|_| tr.span("export.serialize", |_| rep.doc.to_string_pretty()))
        .collect();
    let text = &renders[0].0;
    let first = camp.reference.is_none();
    let same = text == camp.reference.get_or_insert_with(|| text.clone());
    let goldens_match = !first || goldens_agree(&rep.doc, &camp.twins);
    let adds_up = rep.passed + rep.unrecoverable + rep.failed == cfg.cases;
    for (k, v) in verdicts_of(&rep.doc).into_iter().enumerate() {
        report.op(v != "fail" && same && adds_up && goldens_match, || {
            format!(
                "chaos_mix case {k}: {v} (identical report: {same}, tallies add up: {adds_up}, goldens agree: {goldens_match})"
            )
        });
    }
    if first {
        report.note(format!(
            "chaos_mix campaign seed {:#x}: {} pass, {} unrecoverable, {} fail",
            cfg.campaign_seed, rep.passed, rep.unrecoverable, rep.failed
        ));
    }
    let out = Sweep {
        secs,
        render_s: renders.iter().map(|r| r.1).collect(),
        bytes: text.len(),
        peak_rss_mb,
    };
    camp.doc = Some(rep.doc);
    Some(out)
}

/// The traced rebuild of the latest sweep; each case is one op, and its
/// verdict must match the report's.
fn traced(report: &mut Report, tr: &mut Tracer, camp: &Campaign) -> Option<(Phases, f64)> {
    let doc = camp.doc.as_ref()?;
    let (phases, secs) = tr.span("bench.sweep", |tr| traced_sweep(tr, &camp.cfg, doc));
    match phases {
        Ok(p) => {
            let want = verdicts_of(doc);
            for (k, v) in p.verdicts.iter().enumerate() {
                let ok = *v != "fail" && want.get(k) == Some(v);
                report.op(ok, || {
                    format!(
                        "chaos_mix traced case {k}: {v}, report says {:?}",
                        want.get(k)
                    )
                });
            }
            Some((p, secs))
        }
        Err(e) => {
            report.op(false, || format!("chaos_mix traced sweep: {e}"));
            None
        }
    }
}

pub fn run(opts: &Opts, report: &mut Report, tr: &mut Tracer) {
    let mut setup = common::Setup::new(tr, |tr| {
        golden_cells(&config(opts))
            .into_iter()
            .map(|c| common::new_machine(tr, c.cfg).1)
            .collect()
    });
    let mut camp = Campaign::new(config(opts));
    layers::set_overhead(report, &camp.twins);

    let cfg = camp.cfg.clone();
    let quota_refs = (cfg.cases + cfg.seeds) * u64::from(cfg.nodes) * cfg.refs_per_node;
    let (mut cps, mut rps, mut exp) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bytes, mut rss) = (Vec::new(), Vec::new());
    let (mut walls_off, mut walls_on) = (Vec::new(), Vec::new());
    let mut sweeps: Vec<Phases> = Vec::new();

    // A traced run follows each untraced sweep with two rebuilds of it,
    // the tracer off and then on, so the tracing overhead compares one
    // pipeline with itself.
    let per_sweep = if opts.traced { 3 } else { 1 };
    common::repeat_for(opts.seconds, per_sweep, |i| match i % per_sweep {
        0 => {
            tr.set_on(false);
            if let Some(s) = sweep(report, tr, &mut camp) {
                cps.push(cfg.cases as f64 / s.secs);
                rps.push(quota_refs as f64 / s.secs);
                bytes.push(s.bytes as f64);
                exp.extend(s.render_s);
                rss.push(s.peak_rss_mb);
            }
            setup.sample(tr, SETUP_PER_SWEEP);
        }
        k => {
            tr.set_on(k == 2);
            if let Some((p, secs)) = traced(report, tr, &camp) {
                if k == 2 {
                    walls_on.push(secs);
                    sweeps.push(p);
                } else {
                    walls_off.push(secs);
                }
            }
        }
    });
    tr.set_on(opts.traced);
    setup.finish(report);

    report.set("cases_per_sec", fast_rate(&cps));
    report.set("refs_per_sec", fast_rate(&rps));
    let export_s = fast_time(&exp);
    report.set("export_s", export_s);
    report.set("peak_rss_mb", median(&rss));
    report.note(format!(
        "chaos_mix: {} untraced sweeps of campaign seed {:#x}; refs_per_sec is the reference quota of every case and golden ({quota_refs} per sweep) per sweep second",
        cps.len(),
        cfg.campaign_seed
    ));

    if opts.traced {
        report.set("export.serialize_ms", export_s * 1e3);
        report.set("export.bytes", median(&bytes));
        if let Some(first) = sweeps.first() {
            let ms =
                |f: fn(&Phases) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>()) * 1e3;
            report.set("chaos.golden_ms", ms(|p| p.golden_s));
            report.set("chaos.cases_ms", ms(|p| p.cases_s));
            report.set("chaos.judge_ms", ms(|p| p.judge_s));
            report.set("chaos.shrink_ms", ms(|p| p.shrink_s));
            report.set("chaos.report_ms", ms(|p| p.report_s));
            let count = |v: &str| first.verdicts.iter().filter(|&&x| x == v).count() as f64;
            report.set("chaos.pass", count("pass"));
            report.set("chaos.unrecoverable", count("unrecoverable"));
            report.set("chaos.fail", count("fail"));
            report.set("chaos.shrink_runs", f64::from(first.shrink_runs));
            report.set(
                "campaign.pool_efficiency",
                median(&sweeps.iter().map(|p| p.pool_efficiency).collect::<Vec<_>>()),
            );
            let runs: Vec<&RunMetrics> = first.case_metrics.iter().collect();
            layers::set_model_counters(report, &runs);
        }
        common::set_trace_overhead(report, &walls_off, &walls_on);
        common::set_self_times(report, tr, "bench.sweep", sweeps.len());
        machine_probes(report, tr, &cfg, &golden_cells(&cfg), &camp.twins);
        if let Some(doc) = &camp.doc {
            match case_cells(&cfg, doc) {
                Ok(cells) => cells_alone(report, tr, &cells),
                Err(e) => report.op(false, || format!("chaos_mix cases: {e}")),
            }
        }
    }
}

/// Whether the report's golden rows match direct runs of the same
/// configurations.
fn goldens_agree(doc: &Json, twins: &[(RunMetrics, RunMetrics)]) -> bool {
    let rows = doc.get("goldens").and_then(Json::as_array).unwrap_or(&[]);
    rows.len() == twins.len()
        && rows.iter().zip(twins).all(|(row, (_, ecp))| {
            row.get("total_cycles").and_then(Json::as_u64) == Some(ecp.total_cycles)
        })
}

/// Snapshot, fork, restore, run, invariant and oracle costs on every
/// seed group's golden machine.
fn machine_probes(
    report: &mut Report,
    tr: &mut Tracer,
    cfg: &ChaosConfig,
    goldens: &[Cell],
    twins: &[(RunMetrics, RunMetrics)],
) {
    let nodes = f64::from(cfg.nodes);
    let (mut snap, mut restore, mut inv, mut verify, mut epochs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut run_s, mut refs) = (0.0, 0u64);
    for (cell, (_, ecp)) in goldens.iter().zip(twins) {
        let (mut m, _) = common::new_machine(tr, cell.cfg.clone());
        tr.span("machine.run_until", |_| m.run_until(ecp.total_cycles / 2));
        for _ in 0..SNAP_REPS {
            let (s, secs) = tr.span("machine.snapshot", |_| m.snapshot());
            snap.push(secs);
            let (fork, _) = tr.span("machine.snapshot_to_machine", |_| s.to_machine());
            drop(fork);
            let ((), secs) = tr.span("machine.restore", |_| m.restore(&s));
            restore.push(secs);
        }
        drop(m);
        let (mut m, _) = common::new_machine(tr, cell.cfg.clone());
        let epoch = cell.cfg.ft.ckpt_period_cycles().unwrap_or(20_000);
        let run = common::run_machine(tr, &mut m, epoch, cfg.refs_per_node);
        run_s += run.run_s;
        refs += run.refs;
        epochs.extend(run.epochs);
        let (problems, secs) = tr.span("machine.check_invariants", |_| m.check_invariants());
        inv.push(secs);
        let (oracle, secs) = tr.span("machine.verify_against_oracle", |_| {
            m.verify_against_oracle()
        });
        verify.push(secs);
        let same = run.metrics == *ecp;
        report.op(problems.is_empty() && oracle.is_ok() && same, || {
            format!(
                "chaos_mix golden {}: {} invariant problems, oracle ok: {}, epoch run matches straight run: {same}",
                cell.label,
                problems.len(),
                oracle.is_ok()
            )
        });
    }
    report.set("machine.snapshot_us_per_node", median(&snap) * 1e6 / nodes);
    report.set(
        "machine.restore_us_per_node",
        median(&restore) * 1e6 / nodes,
    );
    report.set("machine.invariants_ms", median(&inv) * 1e3);
    report.set("machine.oracle_verify_ms", median(&verify) * 1e3);
    report.set("machine.run_ns_per_ref", run_s * 1e9 / refs.max(1) as f64);
    report.set("machine.epoch_ms_p50", quantile(&epochs, 0.5) * 1e3);
    report.set("machine.epoch_ms_p99", quantile(&epochs, 0.99) * 1e3);
}

/// Runs every case alone, in one thread: forkable cases through
/// `SnapshotForge::machine_at` and `run_cell_on`, the rest through
/// `run_cell`. Also reports how `run_cells` would group them for forking.
fn cells_alone(report: &mut Report, tr: &mut Tracer, cells: &[Cell]) {
    // run_cells' grouping: forkable cells by (config, transport band).
    let mut groups: BTreeMap<(u64, bool), Vec<usize>> = BTreeMap::new();
    for (i, c) in cells.iter().enumerate() {
        if fork_cycle(&c.scenario).is_some() {
            groups
                .entry((c.group, needs_net(&c.scenario.kind)))
                .or_default()
                .push(i);
        }
    }
    let shared: Vec<&Vec<usize>> = groups.values().filter(|g| g.len() > 1).collect();
    let forked: usize = shared.iter().map(|g| g.len()).sum();
    report.set("campaign.fork_groups", shared.len() as f64);
    report.set(
        "campaign.fork_ratio",
        forked as f64 / cells.len().max(1) as f64,
    );

    let (mut cell_ms, mut forge_us) = (Vec::new(), Vec::new());
    for (&(_, net), members) in &groups {
        let mut order = members.clone();
        order.sort_by_key(|&i| cells[i].scenario.at);
        let mut forge = SnapshotForge::new(cells[order[0]].cfg.clone(), net);
        for i in order {
            let at = fork_cycle(&cells[i].scenario).expect("grouped cells are forkable");
            let (m, secs) = tr.span("campaign.forge_machine_at", |_| forge.machine_at(at));
            forge_us.push(secs * 1e6);
            let (_, secs) = tr.span("campaign.run_cell_on", |_| run_cell_on(&cells[i], m));
            cell_ms.push(secs * 1e3);
        }
    }
    for c in cells.iter().filter(|c| fork_cycle(&c.scenario).is_none()) {
        let (_, secs) = tr.span("campaign.run_cell", |_| run_cell(c));
        cell_ms.push(secs * 1e3);
    }
    report.set("campaign.cell_ms_p50", quantile(&cell_ms, 0.5));
    report.set("campaign.cell_ms_p90", quantile(&cell_ms, 0.9));
    report.set("campaign.forge_machine_at_us", median(&forge_us));
}
