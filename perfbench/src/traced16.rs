//! `traced16`: one 16-node Mp3d ECP run with `verify` on, a bounded
//! trace/span/time-series ring, and one permanent failure injected after
//! warmup; then every export built in memory: metrics JSON, trace JSONL,
//! spans JSONL, time-series JSONL and the Chrome trace with spans.
//!
//! One op is one such run. It fails when the run does not recover from
//! exactly one failure, `verify_against_oracle` errs, or an export does
//! not parse back with `Json::parse` (later ops must reproduce the first
//! op's bytes exactly instead). Recording (the machine's sinks, timed as
//! part of the run) and exporting (reading the sinks back) are timed
//! apart. Each op is followed by recording-only runs on other machine
//! seeds, each one op of its own.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use ftcoma_campaign::lengths_for;
use ftcoma_core::FtConfig;
use ftcoma_machine::{export, FailureKind, Machine, MachineConfig, RunMetrics};
use ftcoma_mem::NodeId;
use ftcoma_sim::{derive_seed, Clock, Json};
use ftcoma_workloads::presets;

use crate::common::{self, Opts, RunResult};
use crate::layers;
use crate::report::{self, fast_rate, fast_time, median, quantile, Report};
use crate::tracer::Tracer;

const FREQ_HZ: f64 = 400.0;
/// Events each of the trace and span rings keeps: the `ftcoma` CLI's
/// default whenever a trace or span file is asked for. The run fills it,
/// so every op exports the same number of events.
const RING: usize = 1_000_000;
const TIMESERIES_EVERY: u64 = 10_000;
const FAIL_NODE: u16 = 5;
/// Machine seeds derived from `--seed`. Seed 0 runs the exporting op;
/// every op is followed by one recording-only run on each other seed, so
/// `refs_per_sec` and `ecp_overhead_pct` rest on several reference
/// streams and every op covers the same mix.
const MACHINE_SEEDS: u64 = 4;
/// Set-ups measured after each untraced op.
const SETUP_PER_OP: usize = 5;

/// Machine seed `k`'s configuration; `sinks` off drops the rings and
/// sampling.
fn config(opts: &Opts, k: u64, sinks: bool) -> MachineConfig {
    let (mut refs, mut warmup) = lengths_for(FREQ_HZ);
    if opts.short {
        (refs, warmup) = (refs / 4, warmup / 4);
    }
    MachineConfig {
        nodes: 16,
        refs_per_node: refs,
        warmup_refs_per_node: warmup,
        workload: presets::mp3d(),
        ft: FtConfig::enabled(FREQ_HZ),
        verify: true,
        trace_capacity: if sinks { RING } else { 0 },
        timeseries_every: if sinks { TIMESERIES_EVERY } else { 0 },
        seed: derive_seed(opts.seed, 0x7216 + k),
        ..MachineConfig::default()
    }
}

/// The failure cycle: late enough to land after warmup on every seed.
fn fail_at(opts: &Opts) -> u64 {
    if opts.short {
        80_000
    } else {
        400_000
    }
}

/// Every export of one op, with the seconds each took. The texts are
/// dropped once the op is checked.
struct Exports {
    texts: [String; 5],
    bytes: usize,
    spans: usize,
    read_s: f64,
    metrics_json_s: f64,
    trace_jsonl_s: f64,
    spans_jsonl_s: f64,
    timeseries_jsonl_s: f64,
    chrome_trace_s: f64,
    serialize_s: f64,
}

impl Exports {
    fn total_s(&self) -> f64 {
        self.read_s
            + self.metrics_json_s
            + self.trace_jsonl_s
            + self.spans_jsonl_s
            + self.timeseries_jsonl_s
            + self.chrome_trace_s
            + self.serialize_s
    }

    fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.texts.hash(&mut h);
        h.finish()
    }

    /// Parses every document and every JSONL line back.
    fn parse_back(&self) -> Result<(), String> {
        let [metrics, trace, spans, ts, chrome] = &self.texts;
        for doc in [metrics, chrome] {
            Json::parse(doc).map_err(|e| format!("document does not parse: {e}"))?;
        }
        for jsonl in [trace, spans, ts] {
            for line in jsonl.lines() {
                Json::parse(line).map_err(|e| format!("JSONL line does not parse: {e}"))?;
            }
        }
        Ok(())
    }
}

fn build_exports(tr: &mut Tracer, m: &Machine, metrics: &RunMetrics) -> Exports {
    let ((trace, spans, ts, links), read_s) = tr.span("machine.sinks_read", |_| {
        (
            m.trace(),
            m.spans(),
            m.timeseries().to_vec(),
            m.link_report(),
        )
    });
    let (doc, metrics_json_s) = tr.span("export.metrics_json", |_| {
        export::metrics_json(metrics, &links)
    });
    let (trace_jsonl, trace_jsonl_s) =
        tr.span("export.trace_jsonl", |_| export::trace_jsonl(&trace));
    let (spans_jsonl, spans_jsonl_s) =
        tr.span("export.spans_jsonl", |_| export::spans_jsonl(&spans));
    let (ts_jsonl, timeseries_jsonl_s) =
        tr.span("export.timeseries_jsonl", |_| export::timeseries_jsonl(&ts));
    let (chrome, chrome_trace_s) = tr.span("export.chrome_trace", |_| {
        export::chrome_trace_with_spans(&trace, &spans, Clock::ksr1().hz())
    });
    let ((metrics_text, chrome_text), serialize_s) = tr.span("export.serialize", |_| {
        (doc.to_string_pretty(), chrome.to_string_compact())
    });
    let texts = [
        metrics_text,
        trace_jsonl,
        spans_jsonl,
        ts_jsonl,
        chrome_text,
    ];
    Exports {
        bytes: texts.iter().map(String::len).sum(),
        texts,
        spans: spans.len(),
        read_s,
        metrics_json_s,
        trace_jsonl_s,
        spans_jsonl_s,
        timeseries_jsonl_s,
        chrome_trace_s,
        serialize_s,
    }
}

/// What one op produced.
struct Op {
    run: RunResult,
    recovered: bool,
    oracle: Result<(), Vec<String>>,
    verify_s: f64,
    exports: Exports,
    /// Host seconds of the whole op.
    wall_s: f64,
}

fn run_op(tr: &mut Tracer, opts: &Opts, cfg: &MachineConfig) -> Op {
    let quota = cfg.refs_per_node + cfg.warmup_refs_per_node;
    let epoch = cfg.ft.ckpt_period_cycles().expect("the ECP checkpoints");
    let (op, wall_s) = tr.span("bench.op", |tr| {
        let (mut m, _) = common::new_machine(tr, cfg.clone());
        m.schedule_failure(
            fail_at(opts),
            NodeId::new(FAIL_NODE),
            FailureKind::Permanent,
        );
        let run = common::run_machine(tr, &mut m, epoch, quota);
        let (oracle, verify_s) = tr.span("machine.verify_against_oracle", |_| {
            m.verify_against_oracle()
        });
        let exports = build_exports(tr, &m, &run.metrics);
        (m.outcome().is_recovered(), run, oracle, verify_s, exports)
    });
    let (recovered, run, oracle, verify_s, exports) = op;
    Op {
        run,
        recovered,
        oracle,
        verify_s,
        exports,
        wall_s,
    }
}

/// Runs the configuration without sinks: the recording cost is the
/// difference in `Machine::run` time.
fn run_without_sinks(tr: &mut Tracer, opts: &Opts) -> f64 {
    let (mut m, _) = common::new_machine(tr, config(opts, 0, false));
    m.schedule_failure(
        fail_at(opts),
        NodeId::new(FAIL_NODE),
        FailureKind::Permanent,
    );
    tr.span("machine.run", |_| m.run()).1
}

/// A recording-only run on machine seed `k`: the op's run with sinks and
/// failure, without oracle check or exports. It is one op too, and fails
/// unless it recovers from exactly one failure. Returns the refs
/// simulated and the seconds of `Machine::run`.
fn recording_run(report: &mut Report, tr: &mut Tracer, opts: &Opts, k: u64) -> (u64, f64) {
    let (mut m, _) = common::new_machine(tr, config(opts, k, true));
    m.schedule_failure(
        fail_at(opts),
        NodeId::new(FAIL_NODE),
        FailureKind::Permanent,
    );
    let (metrics, secs) = tr.span("machine.run", |_| m.run());
    let recovered = m.outcome().is_recovered();
    report.op(
        recovered && metrics.failures == 1 && metrics.faults_survived == 1,
        || {
            format!(
                "traced16 recording run on machine seed {k}: recovered {recovered}, failures {} survived {}",
                metrics.failures, metrics.faults_survived
            )
        },
    );
    (m.stream_progress().iter().sum(), secs)
}

/// Checks one op and drops its export texts: it is correct when the run
/// recovered from exactly one failure, the oracle agrees, and the exports
/// parse back (first op) or repeat the first op's bytes and metrics
/// (later ops).
fn check(report: &mut Report, op: &mut Op, first: &mut Option<(u64, RunMetrics)>) {
    let m = &op.run.metrics;
    let one_failure = m.failures == 1 && m.faults_survived == 1;
    let digest = op.exports.digest();
    let exports_ok = match first {
        None => op.exports.parse_back(),
        Some((d, _)) if *d == digest => Ok(()),
        Some(_) => Err("export bytes differ from the first op".into()),
    };
    let same_run = first.as_ref().is_none_or(|(_, m0)| m0 == m);
    report.op(
        op.recovered && one_failure && op.oracle.is_ok() && exports_ok.is_ok() && same_run,
        || {
            format!(
                "traced16: recovered {}, failures {} survived {}, oracle {:?}, exports {:?}, same metrics as the first op: {same_run}",
                op.recovered,
                m.failures,
                m.faults_survived,
                op.oracle.as_ref().map_err(|p| p.len()),
                exports_ok
            )
        },
    );
    first.get_or_insert_with(|| (digest, m.clone()));
    op.exports.texts = Default::default();
}

pub fn run(opts: &Opts, report: &mut Report, tr: &mut Tracer) {
    let cfg = config(opts, 0, true);
    let mut setup = common::Setup::new(tr, |tr| {
        (0..MACHINE_SEEDS)
            .map(|k| common::new_machine(tr, config(opts, k, true)).1)
            .collect()
    });

    // The simulated overhead of these configurations without the
    // failure: each seed's unfaulted ECP run against its standard twin.
    let twin = |k, ft| {
        let c = MachineConfig {
            ft,
            verify: false,
            ..config(opts, k, false)
        };
        Machine::new(c).run()
    };
    let twins: Vec<(RunMetrics, RunMetrics)> = (0..MACHINE_SEEDS)
        .map(|k| {
            (
                twin(k, FtConfig::disabled()),
                twin(k, FtConfig::enabled(FREQ_HZ)),
            )
        })
        .collect();
    layers::set_overhead(report, &twins);

    let mut first: Option<(u64, RunMetrics)> = None;
    let (mut rps, mut cps, mut exp, mut rss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut walls_off, mut walls_on, mut run_on, mut run_off) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut traced_ops: Vec<Op> = Vec::new();

    // Each untraced op is followed by the recording-only runs of the
    // other seeds; `refs_per_sec` takes all of them together. A traced
    // run then adds a run without sinks and a traced op. Each op and what
    // follows it runs on one CPU, and the next op on the next.
    let cpus = common::CpuRotation::new();
    common::repeat_for(opts.seconds, 1, |i| {
        cpus.pin(i);
        tr.set_on(false);
        report::reset_peak_rss();
        let mut op = run_op(tr, opts, &cfg);
        rss.push(report::peak_rss_mb());
        check(report, &mut op, &mut first);
        let (mut refs, mut run_s) = (op.run.refs, op.run.run_s);
        for k in 1..MACHINE_SEEDS {
            let (r, s) = recording_run(report, tr, opts, k);
            refs += r;
            run_s += s;
        }
        rps.push(refs as f64 / run_s);
        cps.push(1.0 / op.wall_s);
        exp.push(op.exports.total_s());
        walls_off.push(op.wall_s);
        run_on.push(op.run.run_s);
        setup.sample(tr, SETUP_PER_OP);
        if opts.traced {
            run_off.push(run_without_sinks(tr, opts));
            tr.set_on(true);
            let mut op = run_op(tr, opts, &cfg);
            check(report, &mut op, &mut first);
            walls_on.push(op.wall_s);
            traced_ops.push(op);
        }
    });
    drop(cpus);
    tr.set_on(opts.traced);
    setup.finish(report);

    let runs: Vec<&RunMetrics> = first.iter().map(|(_, m)| m).collect();
    let t_recovery: u64 = runs.iter().map(|m| m.t_recovery).sum();
    report.set("recovery_cycles", t_recovery as f64);
    report.set("refs_per_sec", fast_rate(&rps));
    report.set("cases_per_sec", fast_rate(&cps));
    report.set("export_s", fast_time(&exp));
    report.set("peak_rss_mb", median(&rss));
    report.note(format!(
        "traced16: {} untraced ops, each with {} recording-only runs; failure of node {FAIL_NODE} at cycle {}",
        walls_off.len(),
        MACHINE_SEEDS - 1,
        fail_at(opts)
    ));

    if opts.traced {
        let ms = |f: fn(&Op) -> f64| median(&traced_ops.iter().map(f).collect::<Vec<_>>()) * 1e3;
        let epochs: Vec<f64> = traced_ops
            .iter()
            .flat_map(|o| o.run.epochs.iter().copied())
            .collect();
        let (run_s, refs) = traced_ops
            .iter()
            .fold((0.0, 0u64), |(s, r), o| (s + o.run.run_s, r + o.run.refs));
        report.set("machine.run_ns_per_ref", run_s * 1e9 / refs.max(1) as f64);
        report.set("machine.epoch_ms_p50", quantile(&epochs, 0.5) * 1e3);
        report.set("machine.epoch_ms_p99", quantile(&epochs, 0.99) * 1e3);
        report.set(
            "machine.sinks_ms",
            (median(&run_on) - median(&run_off)) * 1e3,
        );
        report.set("machine.oracle_verify_ms", ms(|o| o.verify_s));
        report.set("export.metrics_json_ms", ms(|o| o.exports.metrics_json_s));
        report.set("export.trace_jsonl_ms", ms(|o| o.exports.trace_jsonl_s));
        report.set("export.spans_jsonl_ms", ms(|o| o.exports.spans_jsonl_s));
        report.set(
            "export.timeseries_jsonl_ms",
            ms(|o| o.exports.timeseries_jsonl_s),
        );
        report.set("export.chrome_trace_ms", ms(|o| o.exports.chrome_trace_s));
        report.set("export.serialize_ms", ms(|o| o.exports.serialize_s));
        report.set("export.bytes", ms(|o| o.exports.bytes as f64) / 1e3);
        report.set("export.spans", ms(|o| o.exports.spans as f64) / 1e3);
        layers::set_model_counters(report, &runs);
        common::set_trace_overhead(report, &walls_off, &walls_on);
        common::set_self_times(report, tr, "bench.op", traced_ops.len());
    }
}
