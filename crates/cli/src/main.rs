//! `ftcoma` — command-line front end for the ft-coma simulator.
//!
//! ```text
//! ftcoma run      --workload mp3d --nodes 16 --refs 60000 [--freq 100 | --no-ft]
//! ftcoma compare  --workload mp3d --nodes 16 --freq 100        # std vs ECP
//! ftcoma sweep    --workload water --freqs 400,200,100,50,5    # Fig 3 style
//! ftcoma failure  --workload water --kind permanent --node 3 --at 20000 [--repair-at 80000]
//! ftcoma campaign --spec grid.json --jobs 8 --out report.json  # parallel grid
//! ftcoma chaos    --seeds 4 --cases 200 --jobs 4 --out chaos.json
//! ftcoma chaos    --replay chaos-counterexample-17.json        # reproduce
//! ftcoma trace summarize --spans spans.jsonl --top 10          # slowest txns
//! ftcoma latency                                               # Table 2 probe
//! ftcoma help
//! ```

mod args;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use args::{ArgError, Parsed};
use ftcoma_campaign::{
    report, run_cell, run_cell_on, run_cells, CampaignSpec, Cell, CellOutcome, Lengths, Scenario,
    ScenarioKind,
};
use ftcoma_chaos::{ChaosConfig, Counterexample, Verdict};
use ftcoma_core::{FtConfig, RecoveryOutcome};
use ftcoma_machine::{export, probe, Decomposition, Machine, MachineConfig, RunMetrics};
use ftcoma_sim::span::SpanRecord;
use ftcoma_sim::{Clock, Json};
use ftcoma_workloads::{presets, SplashConfig};

fn main() -> ExitCode {
    let parsed = match Parsed::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\nrun `ftcoma help` for usage");
            return ExitCode::FAILURE;
        }
    };
    match dispatch(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\nrun `ftcoma help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(p: &Parsed) -> Result<(), ArgError> {
    match p.command.as_str() {
        "run" => cmd_run(p),
        "compare" => cmd_compare(p),
        "sweep" => cmd_sweep(p),
        "failure" => cmd_failure(p),
        "campaign" => cmd_campaign(p),
        "chaos" => cmd_chaos(p),
        "trace" => cmd_trace(p),
        "latency" => cmd_latency(p),
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(ArgError(format!("unknown subcommand `{other}`"))),
    }
}

const HELP: &str = "\
ftcoma — fault-tolerant COMA simulator (Morin et al., ISCA 1996)

USAGE
  ftcoma run      --workload W [--nodes N] [--refs R] [--warmup U]
                  [--freq RP_PER_S | --no-ft] [--seed S] [--verify] [--wormhole]
                  [--fail-at CYCLES [--fail-kind transient|permanent]
                  [--fail-node K]]
                  [--json] [--metrics-out FILE] [--trace-out FILE]
                  [--trace-jsonl FILE] [--trace-capacity N]
                  [--spans-out FILE] [--timeseries-out FILE]
                  [--timeseries-every CYCLES]
  ftcoma compare  --workload W [--nodes N] [--refs R] [--warmup U] [--freq F]
                  [--seed S] [--wormhole]
  ftcoma sweep    --workload W [--nodes N] [--freqs F1,F2,...] [--jobs J]
  ftcoma failure  --workload W --kind transient|permanent|continuous
                  [--node K] [--at CYCLES] [--repair-at CYCLES]
                  [--node-mtbf C --node-mttr C] [--link-mtbf C --link-mttr C]
  ftcoma campaign --spec FILE [--jobs J] [--json] [--out FILE] [--cell ID]
  ftcoma chaos    [--seeds G] [--cases N] [--jobs J] [--seed S]
                  [--workload W] [--nodes K] [--freq F] [--refs R]
                  [--net-faults] [--soak] [--nested] [--out FILE] [--json]
  ftcoma chaos    --replay ARTIFACT.json
  ftcoma trace summarize --spans FILE [--top K]
  ftcoma latency
  ftcoma help

  --freq, --freqs and a campaign's \"freqs\" count recovery points per
  simulated second: more than 0 and at most 4e7, twice the 20 MHz clock
  (a 1-cycle period). A campaign with \"lengths\": \"paper\" also rejects
  a frequency so low that its run lengths overflow.

  A fault that loses a node for good (permanent, alone, back to back or
  nested, or a dead router) needs at least 5 nodes, and so does chaos:
  establishing a recovery point takes four live nodes.

CAMPAIGNS
  A campaign spec (see docs/CAMPAIGNS.md) expands workloads x node counts
  x checkpoint frequencies x failure scenarios into independent cells, run
  on J worker threads. Per-cell seeds are derived from the campaign seed
  at expansion time, so the aggregated JSON report is byte-identical at
  any --jobs level (wall-clock timings go to a separate <out>.timing.json
  sidecar). --cell replays one cell. A `continuous` scenario installs a
  seeded MTBF/MTTR failure-repair process instead of scripted faults; the
  report's availability section carries the availability-vs-time curve
  and steady-state MTTR (see docs/CAMPAIGNS.md).

CHAOS (see docs/CHAOS.md)
  A seeded fuzzer sweeps failure injections across the whole protocol
  lifecycle (mid-transaction, checkpoint establishment, drain, recovery,
  back-to-back pairs) and judges every case with a three-layer oracle:
  post-recovery invariants, golden replay against an unfaulted run of the
  same seed, and liveness bounds. Failing cases are shrunk by bisection
  and written as standalone counterexample artifacts; --replay re-runs
  one artifact byte-identically (exit 0 iff it still reproduces).
  --net-faults mixes interconnect faults into the sampled cases: link
  cuts, router deaths and message-loss episodes, which the fault-aware
  routing and reliable transport must mask or escalate cleanly (see
  docs/NETWORK.md).
  --soak mixes continuous MTBF/MTTR failure-repair processes into the
  sampled cases: the case machine keeps failing, repairing and re-failing
  nodes (and links) for its whole run, probing long-horizon availability
  instead of one scripted fault.
  --nested mixes nested-fault chains into the sampled cases: two- and
  three-fault sequences with gaps tight enough to land later faults
  inside open recovery windows, forcing recovery to abandon and restart.
  A case may only end unrecoverable if the copy-accounting audit
  certifies a committed item with zero live copies.
  Reports are byte-identical across --jobs; wall-clock time goes to the
  <out>.timing.json sidecar. Counterexample artifacts carry the failing
  case's recovery span timeline.

OBSERVABILITY (run and failure; see docs/OBSERVABILITY.md)
  --json                   print the run metrics as versioned JSON on stdout
  --metrics-out FILE       also write that JSON document to FILE
  --trace-out FILE         write a Chrome trace-event file (Perfetto-viewable;
                           includes causal spans and flow arrows)
  --trace-jsonl FILE       write the protocol trace as JSON Lines
  --trace-capacity N       retain the last N trace events and causal spans
                           (default 1000000 when a trace or span output is
                           requested, which then needs N > 0; else 0)
  --spans-out FILE         write the causal span records as JSON Lines
  --timeseries-out FILE    write epoch-sampled time-series rows as JSON Lines
  --timeseries-every N     sample every N cycles (default 10000 when
                           --timeseries-out is given, which then needs
                           N > 0; else off)
  ftcoma trace summarize --spans FILE [--top K]
                           print the K slowest transactions with their
                           per-phase decomposition (default 10)

WORKLOADS
  barnes, cholesky, mp3d, water (paper's Table 3), plus micro-benchmarks
  uniform, hotspot, prodcons.
";

fn workload(p: &Parsed) -> Result<SplashConfig, ArgError> {
    let name = p.str_or("workload", "water");
    presets::by_name(&name).ok_or_else(|| ArgError(format!("unknown workload `{name}`")))
}

fn machine_config(p: &Parsed) -> Result<MachineConfig, ArgError> {
    let ft = if p.has("no-ft") {
        FtConfig::disabled()
    } else {
        FtConfig::try_enabled(p.f64_or("freq", 100.0)?).map_err(ArgError)?
    };
    let net = if p.has("wormhole") {
        ftcoma_net_config_wormhole()
    } else {
        Default::default()
    };
    let traced = ["trace-out", "trace-jsonl", "spans-out"]
        .into_iter()
        .find(|&f| p.has(f));
    let trace_capacity = p.u64_or(
        "trace-capacity",
        if traced.is_some() { 1_000_000 } else { 0 },
    )?;
    let sampled = p.has("timeseries-out");
    let timeseries_every = p.u64_or("timeseries-every", if sampled { 10_000 } else { 0 })?;
    // An output whose sink is switched off would be written empty.
    if let (Some(flag), 0) = (traced, trace_capacity) {
        return Err(ArgError(format!(
            "--{flag} needs a trace: --trace-capacity 0 records nothing"
        )));
    }
    if sampled && timeseries_every == 0 {
        return Err(ArgError(
            "--timeseries-out needs samples: --timeseries-every 0 takes none".into(),
        ));
    }
    let cfg = MachineConfig {
        nodes: p.int_or("nodes", 16)?,
        refs_per_node: p.u64_or("refs", 60_000)?,
        warmup_refs_per_node: p.u64_or("warmup", 30_000)?,
        workload: workload(p)?,
        ft,
        net,
        seed: p.u64_or("seed", 0xF7C0_3A11)?,
        verify: p.has("verify"),
        trace_capacity: trace_capacity as usize,
        timeseries_every,
        ..MachineConfig::default()
    };
    cfg.validate().map_err(ArgError)?;
    Ok(cfg)
}

/// Handles the structured-output flags shared by `run` and `failure`.
/// Returns `true` when `--json` consumed stdout (suppress the text report).
fn export_outputs(p: &Parsed, run: &CellOutcome) -> Result<bool, ArgError> {
    let write = |path: &str, contents: &str| {
        std::fs::write(path, contents).map_err(|e| ArgError(format!("cannot write {path}: {e}")))
    };
    let wants_doc = p.has("json") || p.has("metrics-out");
    let doc = if wants_doc {
        let mut d = export::metrics_json(&run.metrics, &run.links);
        match &mut d {
            Json::Obj(pairs) => pairs.push(("outcome".into(), export::outcome_json(&run.outcome))),
            _ => {
                return Err(ArgError(
                    "malformed metrics document: top level must be a JSON object".into(),
                ))
            }
        }
        Some(d)
    } else {
        None
    };
    if let Some(doc) = &doc {
        if p.has("metrics-out") {
            let mut text = doc.to_string_pretty();
            text.push('\n');
            write(&p.str_or("metrics-out", ""), &text)?;
        }
    }
    if p.has("trace-out") {
        let path = p.str_or("trace-out", "");
        let text = export::chrome_trace_with_spans(&run.trace, &run.spans, Clock::ksr1().hz())
            .to_string_compact();
        // The newline is a second write: appending it to the document
        // could reallocate, and so copy, the whole text.
        std::fs::File::create(&path)
            .and_then(|mut f| {
                f.write_all(text.as_bytes())?;
                f.write_all(b"\n")
            })
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
    }
    if p.has("trace-jsonl") {
        write(
            &p.str_or("trace-jsonl", ""),
            &export::trace_jsonl(&run.trace),
        )?;
    }
    if p.has("spans-out") {
        write(&p.str_or("spans-out", ""), &export::spans_jsonl(&run.spans))?;
    }
    if p.has("timeseries-out") {
        write(
            &p.str_or("timeseries-out", ""),
            &export::timeseries_jsonl(&run.timeseries),
        )?;
    }
    if p.has("json") {
        let doc = doc.ok_or_else(|| {
            ArgError("internal: --json was requested but no document was built".into())
        })?;
        println!("{}", doc.to_string_pretty());
        return Ok(true);
    }
    Ok(false)
}

fn ftcoma_net_config_wormhole() -> ftcoma_net::NetConfig {
    ftcoma_net::NetConfig::wormhole()
}

fn print_metrics(m: &RunMetrics) {
    println!("cycles           {:>14}", m.total_cycles);
    println!("instructions     {:>14}", m.instructions);
    println!("references       {:>14}", m.refs);
    println!("read miss rate   {:>13.2}%", m.read_miss_rate() * 100.0);
    println!("write miss rate  {:>13.2}%", m.write_miss_rate() * 100.0);
    if m.checkpoints > 0 {
        println!("recovery points  {:>14}", m.checkpoints);
        println!("T_create         {:>14}", m.t_create);
        println!("T_commit         {:>14}", m.t_commit);
        println!(
            "replication      {:>11.1} MB/s per node",
            m.replication_throughput_bps() / 1e6
        );
        println!(
            "injections/10k   {:>14.1}",
            m.per_10k_refs(m.injections_total())
        );
    }
    if m.failures > 0 {
        println!("failures         {:>14}", m.failures);
        println!("repairs          {:>14}", m.repairs);
        println!("T_recovery       {:>14}", m.t_recovery);
    }
    println!("pages allocated  {:>14}", m.pages_allocated);
    let s = m.access_latency.summary();
    println!(
        "access latency   mean {:.1}cy, p50<={:.0}, p90<={:.0}, p99<={:.0}, max {}",
        s.mean, s.p50, s.p90, s.p99, s.max,
    );
}

const RUN_FLAGS: &[&str] = &[
    "workload",
    "nodes",
    "refs",
    "warmup",
    "freq",
    "no-ft",
    "seed",
    "verify",
    "wormhole",
    "fail-at",
    "fail-kind",
    "fail-node",
    "json",
    "metrics-out",
    "trace-out",
    "trace-jsonl",
    "trace-capacity",
    "spans-out",
    "timeseries-out",
    "timeseries-every",
];

/// The `--fail-at/--fail-kind/--fail-node` injection triple of `run`.
fn injection_flags(p: &Parsed) -> Result<Option<Scenario>, ArgError> {
    if !p.has("fail-at") {
        if p.has("fail-kind") || p.has("fail-node") {
            return Err(ArgError(
                "--fail-kind/--fail-node need --fail-at CYCLES".into(),
            ));
        }
        return Ok(None);
    }
    let kind = match p.str_or("fail-kind", "transient").as_str() {
        "transient" => ScenarioKind::Transient,
        "permanent" => ScenarioKind::Permanent,
        other => {
            return Err(ArgError(format!(
                "--fail-kind must be transient|permanent, got {other}"
            )))
        }
    };
    Ok(Some(Scenario {
        kind,
        node: p.int_or("fail-node", 1)?,
        at: p.u64_or("fail-at", 0)?,
        repair_at: None,
    }))
}

/// `run` and `failure` as one campaign cell that keeps the command line's
/// own seed, checked by the one scenario check.
fn single_cell(cfg: MachineConfig, scenario: Scenario) -> Result<Cell, ArgError> {
    scenario
        .validate_for(cfg.nodes)
        .map_err(|e| ArgError(e.0))?;
    Ok(Cell {
        id: 0,
        group: 0,
        label: format!(
            "{}/{}",
            cfg.workload.name.to_ascii_lowercase(),
            scenario.label()
        ),
        cfg,
        scenario,
    })
}

/// Error mapping shared by every command that surfaces a [`RecoveryOutcome`]:
/// an invariant violation is a simulator-correctness failure and must fail
/// the process; an unrecoverable second fault is a *reported* legal outcome.
fn fail_on_violation(outcome: &RecoveryOutcome) -> Result<(), ArgError> {
    if let RecoveryOutcome::InvariantViolation { at, problems } = outcome {
        return Err(ArgError(format!(
            "invariant violation at cycle {at}: {}",
            problems.join("; ")
        )));
    }
    Ok(())
}

fn cmd_run(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(RUN_FLAGS)?;
    let inject = injection_flags(p)?;
    let mut cfg = machine_config(p)?;
    if inject.is_some() {
        if !cfg.ft.mode.is_enabled() {
            return Err(ArgError("--fail-at needs the ECP (drop --no-ft)".into()));
        }
        cfg.verify = true; // an injected run is always checked
    }
    let cell = single_cell(cfg, inject.unwrap_or_else(Scenario::none))?;
    let quiet = p.has("json"); // keep stdout pure JSON
    if !quiet {
        println!(
            "running {} on {} nodes ({})",
            cell.cfg.workload.name,
            cell.cfg.nodes,
            if cell.is_ft() {
                format!("ECP, {} rp/s", cell.cfg.ft.ckpt_rate_hz)
            } else {
                "standard protocol".into()
            }
        );
    }
    let machine = Machine::new(cell.cfg.clone());
    if !quiet {
        println!("capacity check: {}", machine.capacity_report());
    }
    let run = run_cell_on(&cell, machine);
    if !export_outputs(p, &run)? {
        print_metrics(&run.metrics);
        if inject.is_some() || !run.outcome.is_recovered() {
            println!("outcome          {}", run.outcome);
        }
    }
    fail_on_violation(&run.outcome)
}

/// `compare` prints one table of a standard run and its ECP twin, so it
/// takes no fault, export or `--no-ft` flag.
const COMPARE_FLAGS: &[&str] = &[
    "workload", "nodes", "refs", "warmup", "freq", "seed", "wormhole",
];

fn cmd_compare(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(COMPARE_FLAGS)?;
    let ft_cfg = machine_config(p)?;
    let std_cfg = MachineConfig {
        ft: FtConfig::disabled(),
        ..ft_cfg.clone()
    };
    let std_m = Machine::new(std_cfg).run();
    let ft_m = Machine::new(ft_cfg.clone()).run();
    let d = Decomposition::of(&ft_m, &std_m);
    println!(
        "{} on {} nodes at {} rp/s:",
        ft_cfg.workload.name, ft_cfg.nodes, ft_cfg.ft.ckpt_rate_hz
    );
    println!("standard    {:>12} cycles", std_m.total_cycles);
    println!("ECP         {:>12} cycles", ft_m.total_cycles);
    println!("overhead    {:>11.1}%", d.total_overhead * 100.0);
    println!("  create    {:>11.1}%", d.create * 100.0);
    println!("  commit    {:>11.1}%", d.commit * 100.0);
    println!("  pollution {:>11.1}%", d.pollution * 100.0);
    note_if_no_recovery_point(&ft_cfg.ft, &ft_m);
    Ok(())
}

/// Notes that an ECP run established no recovery point, so its overhead
/// row (0.0%) measures nothing about checkpointing. The note goes to
/// stderr, so stdout holds only the report.
fn note_if_no_recovery_point(ft: &FtConfig, m: &RunMetrics) {
    if let (0, Some(period)) = (m.checkpoints, ft.ckpt_period_cycles()) {
        eprintln!(
            "note: no recovery point fits the run at {} rp/s: the period is {period} cycles \
             and the run {} cycles",
            ft.ckpt_rate_hz, m.total_cycles
        );
    }
}

/// `--jobs` with a per-core default, shared by `sweep` and `campaign`.
fn jobs_flag(p: &Parsed) -> Result<usize, ArgError> {
    let default = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let jobs = p.u64_or("jobs", default)?;
    if jobs == 0 {
        return Err(ArgError("--jobs must be at least 1".into()));
    }
    Ok(jobs as usize)
}

fn cmd_sweep(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(&[
        "workload", "nodes", "freqs", "refs", "warmup", "seed", "jobs",
    ])?;
    let freqs = p.f64_list_or("freqs", &[400.0, 200.0, 100.0, 50.0])?;
    // One base configuration for the whole sweep; the campaign engine runs
    // the standard-protocol baseline once and every frequency against it.
    let base = machine_config(p)?;
    let spec = CampaignSpec {
        name: "sweep".into(),
        seed: base.seed,
        workloads: vec![base.workload.clone()],
        nodes: vec![base.nodes],
        freqs,
        lengths: Lengths::Fixed {
            refs: base.refs_per_node,
            warmup: base.warmup_refs_per_node,
        },
        baseline: true,
        scenarios: vec![Scenario::none()],
    };
    spec.validate().map_err(|e| ArgError(e.0))?;
    let cells = spec.expand();
    let outcomes = run_cells(&cells, jobs_flag(p)?);
    // One baseline group: every ECP cell twins the same baseline run.
    let twins = report::twins(&cells, &outcomes);
    let std_m = twins[0].std;
    println!(
        "baseline (standard protocol): {} cycles over {} refs",
        std_m.total_cycles, std_m.refs
    );
    println!(
        "{:>8}  {:>9}  {:>8}  {:>8}  {:>9}",
        "rp/s", "overhead", "create", "commit", "pollution"
    );
    for t in &twins {
        let d = t.decomposition;
        println!(
            "{:>8}  {:>8.1}%  {:>7.1}%  {:>7.1}%  {:>8.1}%",
            t.cell.cfg.ft.ckpt_rate_hz,
            d.total_overhead * 100.0,
            d.create * 100.0,
            d.commit * 100.0,
            d.pollution * 100.0,
        );
        note_if_no_recovery_point(&t.cell.cfg.ft, t.ft);
    }
    Ok(())
}

fn cmd_failure(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(&[
        "workload",
        "nodes",
        "refs",
        "warmup",
        "freq",
        "seed",
        "kind",
        "node",
        "at",
        "repair-at",
        "node-mtbf",
        "node-mttr",
        "link-mtbf",
        "link-mttr",
        "json",
        "metrics-out",
        "trace-out",
        "trace-jsonl",
        "trace-capacity",
        "spans-out",
        "timeseries-out",
        "timeseries-every",
    ])?;
    let mut cfg = machine_config(p)?;
    cfg.verify = true;
    let kind = match p.str_or("kind", "transient").as_str() {
        "transient" => ScenarioKind::Transient,
        "permanent" => ScenarioKind::Permanent,
        "continuous" => ScenarioKind::Continuous {
            node_mtbf: p.u64_or("node-mtbf", 0)?,
            node_mttr: p.u64_or("node-mttr", 0)?,
            link_mtbf: p.u64_or("link-mtbf", 0)?,
            link_mttr: p.u64_or("link-mttr", 0)?,
        },
        other => {
            return Err(ArgError(format!(
                "--kind must be transient|permanent|continuous, got {other}"
            )))
        }
    };
    if !matches!(kind, ScenarioKind::Continuous { .. })
        && ["node-mtbf", "node-mttr", "link-mtbf", "link-mttr"]
            .iter()
            .any(|k| p.has(k))
    {
        return Err(ArgError(
            "--node-mtbf/--node-mttr/--link-mtbf/--link-mttr need --kind continuous".into(),
        ));
    }
    let repair_at = match p.u64_or("repair-at", u64::MAX)? {
        u64::MAX => None,
        at => Some(at),
    };
    let scenario = Scenario {
        kind,
        node: p.int_or("node", 1)?,
        // For a continuous process `at` is the start offset (0 = sample
        // from the beginning); for scripted faults it is the fault cycle.
        at: p.u64_or(
            "at",
            if matches!(kind, ScenarioKind::Continuous { .. }) {
                0
            } else {
                20_000
            },
        )?,
        repair_at,
    };
    // A failure run is a single campaign cell with an explicit seed.
    let cell = single_cell(cfg, scenario)?;
    let outcome = run_cell(&cell);
    if !export_outputs(p, &outcome)? {
        match &outcome.outcome {
            RecoveryOutcome::Recovered => {
                println!("scenario `{}`: recovered and verified", scenario.label());
            }
            other => println!("scenario `{}`: {other}", scenario.label()),
        }
        if let ScenarioKind::Continuous { .. } = kind {
            println!("faults survived  {:>14}", outcome.metrics.faults_survived);
            println!(
                "steady MTTR      {:>11.0} cy",
                outcome.metrics.steady_mttr_cycles()
            );
        }
        print_metrics(&outcome.metrics);
    }
    fail_on_violation(&outcome.outcome)
}

const CAMPAIGN_FLAGS: &[&str] = &["spec", "jobs", "json", "out", "cell"];

fn cmd_campaign(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(CAMPAIGN_FLAGS)?;
    if !p.has("spec") {
        return Err(ArgError("campaign needs --spec FILE".into()));
    }
    let path = p.str_or("spec", "");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ArgError(format!("cannot read spec {path}: {e}")))?;
    let spec = CampaignSpec::parse(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let cells = spec.expand();

    // Single-cell replay: same expansion, same derived seed, one run.
    if p.has("cell") {
        let id = p.u64_or("cell", 0)?;
        let cell = cells
            .iter()
            .find(|c| c.id == id)
            .ok_or_else(|| ArgError(format!("no cell {id}: the spec has {}", cells.len())))?;
        let outcome = run_cell(cell);
        if p.has("json") {
            println!(
                "{}",
                report::cell_json(cell, &outcome, None).to_string_pretty()
            );
        } else {
            println!("cell {id} ({})", cell.label);
            print_metrics(&outcome.metrics);
            if !outcome.outcome.is_recovered() {
                println!("outcome          {}", outcome.outcome);
            }
        }
        return fail_on_violation(&outcome.outcome);
    }

    let jobs = jobs_flag(p)?;
    let quiet = p.has("json");
    if !quiet {
        println!(
            "campaign `{}`: {} cells on {} worker thread{}",
            spec.name,
            cells.len(),
            jobs,
            if jobs == 1 { "" } else { "s" }
        );
    }
    let start = Instant::now();
    let outcomes = run_cells(&cells, jobs);
    let wall_ms_total = start.elapsed().as_secs_f64() * 1e3;
    // The report is always written/printed first — a violation must not
    // suppress the evidence describing it.
    let violations: Vec<String> = cells
        .iter()
        .zip(&outcomes)
        .filter_map(|(c, o)| match &o.outcome {
            RecoveryOutcome::InvariantViolation { at, problems } => Some(format!(
                "cell {} ({}): invariant violation at cycle {at}: {}",
                c.id,
                c.label,
                problems.join("; ")
            )),
            _ => None,
        })
        .collect();
    let finish = |violations: Vec<String>| -> Result<(), ArgError> {
        for v in &violations {
            eprintln!("error: {v}");
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(ArgError(format!(
                "{} cell(s) ended with invariant violations",
                violations.len()
            )))
        }
    };
    let doc = report::campaign_json(&spec, &cells, &outcomes);
    if p.has("out") {
        let out = p.str_or("out", "");
        std::fs::write(&out, doc.to_string_pretty())
            .map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
        // Wall-clock timings go to a sidecar so the report diffs cleanly.
        let timing_path = timing_sidecar_path(&out);
        let timing = report::timing_json(&outcomes, wall_ms_total);
        std::fs::write(&timing_path, timing.to_string_pretty())
            .map_err(|e| ArgError(format!("cannot write {timing_path}: {e}")))?;
        if !quiet {
            println!("wrote {out} (+ {timing_path})");
        }
    }
    if quiet {
        println!("{}", doc.to_string_pretty());
        return finish(violations);
    }

    // Text summary: one row per cell, overhead for ECP cells whose group
    // has a baseline.
    println!(
        "{:>4}  {:<34} {:>12} {:>6} {:>5} {:>9}",
        "id", "label", "cycles", "ckpts", "fail", "overhead"
    );
    for (i, (cell, outcome)) in cells.iter().zip(&outcomes).enumerate() {
        let m = &outcome.metrics;
        let overhead = report::twin(&cells, &outcomes, i)
            .map(|t| format!("{:>8.1}%", t.decomposition.total_overhead * 100.0))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>4}  {:<34} {:>12} {:>6} {:>5} {:>9}",
            cell.id, cell.label, m.total_cycles, m.checkpoints, m.failures, overhead
        );
    }
    println!(
        "{} cells in {:.1} s ({} job{})",
        cells.len(),
        wall_ms_total / 1e3,
        jobs,
        if jobs == 1 { "" } else { "s" }
    );
    finish(violations)
}

const CHAOS_FLAGS: &[&str] = &[
    "seeds",
    "cases",
    "jobs",
    "seed",
    "workload",
    "nodes",
    "freq",
    "refs",
    "out",
    "json",
    "replay",
    "net-faults",
    "soak",
    "nested",
];

/// Where the wall-clock sidecar of `--out report.json` lands:
/// `report.timing.json`.
fn timing_sidecar_path(out: &str) -> String {
    format!("{}.timing.json", out.strip_suffix(".json").unwrap_or(out))
}

/// Where a counterexample artifact lands: next to `--out` when given
/// (`report.json` → `report-counterexample-<id>.json`), else the cwd.
fn artifact_path(out: Option<&str>, case_id: u64) -> String {
    match out {
        Some(out) => format!(
            "{}-counterexample-{case_id}.json",
            out.strip_suffix(".json").unwrap_or(out)
        ),
        None => format!("chaos-counterexample-{case_id}.json"),
    }
}

fn cmd_chaos(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(CHAOS_FLAGS)?;
    if p.has("replay") {
        return cmd_chaos_replay(p);
    }
    let mut cfg = ChaosConfig::new(p.u64_or("seed", 0xC4A0_5EED)?);
    cfg.seeds = p.u64_or("seeds", cfg.seeds)?;
    cfg.cases = p.u64_or("cases", cfg.cases)?;
    cfg.jobs = jobs_flag(p)?;
    if p.has("workload") {
        cfg.workload = workload(p)?;
    }
    cfg.nodes = p.int_or("nodes", cfg.nodes)?;
    cfg.freq_hz = p.f64_or("freq", cfg.freq_hz)?;
    cfg.refs_per_node = p.u64_or("refs", cfg.refs_per_node)?;
    cfg.net_faults = p.has("net-faults");
    cfg.soak = p.has("soak");
    cfg.nested = p.has("nested");
    let quiet = p.has("json");
    if !quiet {
        println!(
            "chaos: {} cases over {} seed groups ({} on {} nodes, {} rp/s, {} refs/node, {} job{})",
            cfg.cases,
            cfg.seeds,
            cfg.workload.name,
            cfg.nodes,
            cfg.freq_hz,
            cfg.refs_per_node,
            cfg.jobs,
            if cfg.jobs == 1 { "" } else { "s" }
        );
    }
    let report = ftcoma_chaos::run_chaos(&cfg).map_err(ArgError)?;
    let out = p.has("out").then(|| p.str_or("out", ""));
    // Artifacts and report first; the exit code must never suppress them.
    for cx in &report.counterexamples {
        let path = artifact_path(out.as_deref(), cx.case_id);
        let mut text = cx.to_json().to_string_pretty();
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        eprintln!(
            "counterexample: case {} shrunk to `{}` in {} runs -> {path}",
            cx.case_id,
            cx.scenario.label(),
            cx.shrink_runs
        );
        for r in &cx.reasons {
            eprintln!("  {r}");
        }
    }
    if let Some(out) = &out {
        let mut text = report.doc.to_string_pretty();
        text.push('\n');
        std::fs::write(out, text).map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
        let timing_path = timing_sidecar_path(out);
        let timing = Json::obj([(
            "timing",
            Json::obj([("wall_ms_total", Json::from(report.wall_ms_total))]),
        )]);
        std::fs::write(&timing_path, timing.to_string_pretty())
            .map_err(|e| ArgError(format!("cannot write {timing_path}: {e}")))?;
        if !quiet {
            println!("wrote {out} (+ {timing_path})");
        }
    }
    if quiet {
        println!("{}", report.doc.to_string_pretty());
    } else {
        println!(
            "verdicts: {} pass, {} unrecoverable (certified halts), {} fail",
            report.passed, report.unrecoverable, report.failed
        );
    }
    if report.failed > 0 {
        return Err(ArgError(format!(
            "{} case(s) failed the oracle (see counterexample artifacts)",
            report.failed
        )));
    }
    Ok(())
}

/// `ftcoma chaos --replay ARTIFACT`: exit 0 iff the counterexample still
/// reproduces (a fixed bug makes the replay *fail* with the new verdict).
fn cmd_chaos_replay(p: &Parsed) -> Result<(), ArgError> {
    let path = p.str_or("replay", "");
    let text =
        std::fs::read_to_string(&path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let cx = Counterexample::parse(&text).map_err(ArgError)?;
    println!(
        "replaying case {} of campaign seed 0x{:016x}: {} on {} nodes, scenario `{}`",
        cx.case_id,
        cx.campaign_seed,
        cx.workload,
        cx.nodes,
        cx.scenario.label()
    );
    match ftcoma_chaos::replay(&cx).map_err(ArgError)? {
        Verdict::Fail(reasons) => {
            println!("reproduced: the scenario still fails the oracle");
            for r in &reasons {
                println!("  {r}");
            }
            Ok(())
        }
        v => Err(ArgError(format!(
            "counterexample did not reproduce (verdict now `{}`)",
            v.label()
        ))),
    }
}

/// `ftcoma trace summarize --spans FILE [--top K]`: reads a spans JSONL
/// file (the `--spans-out` format) and prints the K slowest root spans —
/// transactions and recoveries — each decomposed into its child phases.
fn cmd_trace(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(&["spans", "top"])?;
    match p.subcommand.as_deref() {
        Some("summarize") => {}
        Some(other) => {
            return Err(ArgError(format!(
                "unknown trace action `{other}` (try `summarize`)"
            )))
        }
        None => {
            return Err(ArgError(
                "trace needs an action: `ftcoma trace summarize --spans FILE`".into(),
            ))
        }
    }
    if !p.has("spans") {
        return Err(ArgError("trace summarize needs --spans FILE".into()));
    }
    let path = p.str_or("spans", "");
    let text =
        std::fs::read_to_string(&path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let spans = parse_spans_jsonl(&text)?;
    print_span_summary(&spans, p.u64_or("top", 10)? as usize);
    Ok(())
}

/// Parses a spans JSONL file: the meta header line is skipped, every
/// other line must be one span row as written by `--spans-out`.
fn parse_spans_jsonl(text: &str) -> Result<Vec<SpanRecord>, ArgError> {
    let mut spans = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let row = Json::parse(line).map_err(|e| ArgError(format!("line {}: {e}", ln + 1)))?;
        if row.get("type").is_some() {
            continue; // meta header
        }
        let span = export::span_from_json(&row)
            .ok_or_else(|| ArgError(format!("line {}: malformed span row", ln + 1)))?;
        spans.push(span);
    }
    Ok(spans)
}

/// Prints the `top` slowest roots with their per-phase decomposition.
fn print_span_summary(spans: &[SpanRecord], top: usize) {
    let mut roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == 0).collect();
    // Slowest first; id breaks ties so the listing is deterministic.
    roots.sort_by(|a, b| b.duration().cmp(&a.duration()).then(a.id.cmp(&b.id)));
    println!(
        "{} spans, {} roots; top {} by duration:",
        spans.len(),
        roots.len(),
        roots.len().min(top)
    );
    for (rank, root) in roots.iter().take(top).enumerate() {
        println!(
            "#{:<3} {:<12} node {:<3} start {:>10}  {:>8} cycles",
            rank + 1,
            root.phase.name(),
            root.node,
            root.start,
            root.duration()
        );
        // (phase name, summed duration, child count), largest share first.
        let mut by_phase: Vec<(&'static str, u64, u64)> = Vec::new();
        for s in spans.iter().filter(|s| s.parent == root.id) {
            match by_phase.iter_mut().find(|(n, _, _)| *n == s.phase.name()) {
                Some(e) => {
                    e.1 += s.duration();
                    e.2 += 1;
                }
                None => by_phase.push((s.phase.name(), s.duration(), 1)),
            }
        }
        by_phase.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let total = root.duration().max(1) as f64;
        for (name, dur, count) in &by_phase {
            println!(
                "      {:<16} {:>8} cycles ({:>5.1}%, {} span{})",
                name,
                dur,
                *dur as f64 / total * 100.0,
                count,
                if *count == 1 { "" } else { "s" }
            );
        }
    }
}

fn cmd_latency(p: &Parsed) -> Result<(), ArgError> {
    p.assert_only(&[])?;
    let t = probe::read_miss_latencies();
    println!("read miss latencies (paper Table 2):");
    println!("  cache            {:>4} cycles", t.cache);
    println!("  local AM         {:>4} cycles", t.local_am);
    println!("  remote AM, 1 hop {:>4} cycles", t.remote_1hop);
    println!("  remote AM, 2 hop {:>4} cycles", t.remote_2hop);
    Ok(())
}
