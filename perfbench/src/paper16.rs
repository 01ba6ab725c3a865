//! `paper16`: the paper's 4×4 mesh running all four SPLASH presets, each
//! as a standard/ECP twin at 400 recovery points/s with the paper's run
//! lengths, verify and tracing off, one thread, cells in sequence.
//!
//! One op is one cell: `Machine::new`, `Machine::run`,
//! `Machine::check_invariants` and the cell's `metrics_json` bytes. A
//! cell fails when the invariant sweep reports a problem, a stream falls
//! short of its quota, or its `metrics_json` differs from the first batch
//! of the same run (traced cells, which advance epoch by epoch through
//! `run_until`, must match the untraced `run` byte for byte).

use ftcoma_campaign::lengths_for;
use ftcoma_core::FtConfig;
use ftcoma_machine::{export, MachineConfig, RunMetrics};
use ftcoma_net::LinkReport;
use ftcoma_sim::derive_seed;
use ftcoma_workloads::presets;

use crate::common::{self, Opts, RunResult};
use crate::layers;
use crate::report::{self, fast_rate, fast_time, median, quantile, Report};
use crate::tracer::Tracer;

pub const NODES: u16 = 16;
const FREQ_HZ: f64 = 400.0;
/// Export passes timed after each untraced batch.
const EXPORT_PASSES: usize = 5;
/// Set-ups measured after each untraced batch.
const SETUP_PER_BATCH: usize = 2;

/// The machine seed of preset `p` (both twins share it, as the paper's
/// paired runs must). The isolated kernel drivers replay these streams.
pub fn machine_seed(seed: u64, p: usize) -> u64 {
    derive_seed(seed, 0x1600 + p as u64)
}

/// The eight cell configurations: per preset, the standard twin then the
/// ECP twin.
fn cell_configs(opts: &Opts) -> Vec<(String, MachineConfig)> {
    let (mut refs, mut warmup) = lengths_for(FREQ_HZ);
    if opts.short {
        (refs, warmup) = (refs / 4, warmup / 4);
    }
    let mut out = Vec::new();
    for (p, workload) in presets::all().into_iter().enumerate() {
        for ft in [FtConfig::disabled(), FtConfig::enabled(FREQ_HZ)] {
            let mode = if ft.mode.is_enabled() { "ecp" } else { "std" };
            let cfg = MachineConfig {
                nodes: NODES,
                refs_per_node: refs,
                warmup_refs_per_node: warmup,
                workload: workload.clone(),
                ft,
                seed: machine_seed(opts.seed, p),
                ..MachineConfig::default()
            };
            out.push((format!("{}/{mode}", workload.name), cfg));
        }
    }
    out
}

/// What one cell produced.
struct Cell {
    run: RunResult,
    links: Vec<LinkReport>,
    problems: Vec<String>,
    short_streams: bool,
    json: String,
    inv_s: f64,
    metrics_json_s: f64,
    serialize_s: f64,
}

fn run_cell(tr: &mut Tracer, cfg: &MachineConfig) -> Cell {
    let quota = cfg.refs_per_node + cfg.warmup_refs_per_node;
    let epoch = cfg.ft.ckpt_period_cycles().unwrap_or(50_000);
    tr.span("bench.cell", |tr| {
        let (mut m, _) = common::new_machine(tr, cfg.clone());
        let run = common::run_machine(tr, &mut m, epoch, quota);
        let (problems, inv_s) = tr.span("machine.check_invariants", |_| m.check_invariants());
        let links = m.link_report();
        let (doc, metrics_json_s) = tr.span("export.metrics_json", |_| {
            export::metrics_json(&run.metrics, &links)
        });
        let (json, serialize_s) = tr.span("export.serialize", |_| doc.to_string_pretty());
        Cell {
            short_streams: m.stream_progress().iter().any(|&p| p < quota),
            run,
            links,
            problems,
            json,
            inv_s,
            metrics_json_s,
            serialize_s,
        }
    })
    .0
}

pub fn run(opts: &Opts, report: &mut Report, tr: &mut Tracer) {
    let cells = cell_configs(opts);
    let mut setup = common::Setup::new(tr, |tr| {
        cell_configs(opts)
            .into_iter()
            .map(|(_, cfg)| common::new_machine(tr, cfg).1)
            .collect()
    });

    let mut reference: Vec<String> = Vec::new();
    let mut first_metrics: Vec<RunMetrics> = Vec::new();
    let (mut rps, mut cps, mut exp) = (Vec::new(), Vec::new(), Vec::new());
    let (mut walls_off, mut walls_on, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut epochs, mut inv, mut mj, mut ser, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_run_s, mut traced_refs, mut traced_batches) = (0.0, 0u64, 0usize);

    // A traced run alternates untraced and traced batches, so both sides
    // of the tracing overhead see the same host conditions; each pair runs
    // on one CPU, and the next pair on the next.
    let per_cycle = if opts.traced { 2 } else { 1 };
    let cpus = common::CpuRotation::new();
    common::repeat_for(opts.seconds, per_cycle, |i| {
        cpus.pin(i / per_cycle);
        let traced = opts.traced && i % 2 == 1;
        tr.set_on(traced);
        report::reset_peak_rss();
        let ((done, run_s, refs), batch_s) = tr.span("bench.batch", |tr| {
            let (mut run_s, mut refs) = (0.0, 0u64);
            let mut done = Vec::new();
            for (label, cfg) in &cells {
                let c = run_cell(tr, cfg);
                run_s += c.run.run_s;
                refs += c.run.refs;
                done.push((label, c));
            }
            (done, run_s, refs)
        });
        if !traced {
            for _ in 0..EXPORT_PASSES {
                exp.push(export_pass(tr, done.iter().map(|(_, c)| c)));
            }
            setup.sample(tr, SETUP_PER_BATCH);
        }
        let first = reference.is_empty();
        for (k, (label, c)) in done.into_iter().enumerate() {
            if first {
                reference.push(c.json.clone());
                first_metrics.push(c.run.metrics.clone());
            }
            let same = c.json == reference[k];
            report.op(c.problems.is_empty() && !c.short_streams && same, || {
                format!(
                    "paper16 {label}: {} invariant problems, streams short: {}, metrics_json {}",
                    c.problems.len(),
                    c.short_streams,
                    if same {
                        "identical"
                    } else {
                        "differs from the first batch"
                    }
                )
            });
            if traced {
                epochs.extend(c.run.epochs.iter().copied());
                inv.push(c.inv_s);
                mj.push(c.metrics_json_s);
                ser.push(c.serialize_s);
                bytes.push(c.json.len() as f64);
            }
        }
        if traced {
            walls_on.push(batch_s);
            traced_run_s += run_s;
            traced_refs += refs;
            traced_batches += 1;
        } else {
            walls_off.push(batch_s);
            rps.push(refs as f64 / run_s);
            cps.push(cells.len() as f64 / batch_s);
            rss.push(report::peak_rss_mb());
        }
    });
    drop(cpus);
    tr.set_on(opts.traced);
    setup.finish(report);

    // Cells come in (standard, ECP) twin order.
    let twins: Vec<(RunMetrics, RunMetrics)> = first_metrics
        .chunks_exact(2)
        .map(|t| (t[0].clone(), t[1].clone()))
        .collect();
    report.set("refs_per_sec", fast_rate(&rps));
    report.set("cases_per_sec", fast_rate(&cps));
    report.set("export_s", fast_time(&exp));
    report.set("peak_rss_mb", median(&rss));
    layers::set_overhead(report, &twins);
    report.note(format!(
        "paper16: {} untraced batches of {} cells",
        walls_off.len(),
        cells.len()
    ));

    if opts.traced {
        let ecp: Vec<&RunMetrics> = twins.iter().map(|t| &t.1).collect();
        layers::set_model_counters(report, &ecp);
        report.set(
            "machine.run_ns_per_ref",
            traced_run_s * 1e9 / traced_refs as f64,
        );
        report.set("machine.epoch_ms_p50", quantile(&epochs, 0.5) * 1e3);
        report.set("machine.epoch_ms_p99", quantile(&epochs, 0.99) * 1e3);
        report.set("machine.invariants_ms", median(&inv) * 1e3);
        report.set("export.metrics_json_ms", median(&mj) * 1e3);
        report.set("export.serialize_ms", median(&ser) * 1e3);
        report.set("export.bytes", median(&bytes));
        common::set_trace_overhead(report, &walls_off, &walls_on);
        common::set_self_times(report, tr, "bench.batch", traced_batches);
        report.note(format!(
            "paper16 traced: {} batches, {} run_until epochs",
            traced_batches,
            epochs.len()
        ));
    }
}

/// Seconds to build and render the `metrics_json` documents of a batch's
/// cells once more. A document takes a fraction of a millisecond, too
/// little to time once inside an op against host noise; repeated passes
/// after every batch spread the samples over the whole run.
fn export_pass<'a>(tr: &mut Tracer, cells: impl Iterator<Item = &'a Cell>) -> f64 {
    tr.span("export.serialize", |_| {
        for c in cells {
            std::hint::black_box(export::metrics_json(&c.run.metrics, &c.links).to_string_pretty());
        }
    })
    .1
}
