//! The ft-coma benchmark: three workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a traced run.
//!
//! ```text
//! ftcoma-perfbench --workload <paper16|chaos_mix|traced16> --seed <n>
//!                  --seconds <s> --trace <0|1> [--short] [--spans-out <file>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it print every
//! metric by name with its unit and direction. See `perfbench/README.md`.

mod chaos_mix;
mod common;
mod layers;
mod paper16;
mod report;
mod traced16;
mod tracer;

use std::path::PathBuf;
use std::process::ExitCode;

use common::Opts;
use report::Report;
use tracer::Tracer;

const WORKLOADS: [&str; 3] = ["paper16", "chaos_mix", "traced16"];

/// References per node each isolated kernel driver replays.
const DRIVER_REFS: usize = 50_000;

struct Args {
    workload: String,
    opts: Opts,
    spans_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut short, mut spans_out) = (false, None);
    while let Some(flag) = args.next() {
        if flag == "--short" {
            short = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("one of paper16, chaos_mix, traced16")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spans_out =
        spans_out.unwrap_or_else(|| PathBuf::from(format!("perfbench/out/spans-{workload}.jsonl")));
    Ok(Args {
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: trace.ok_or("--trace is required")?,
            short,
        },
        workload,
        spans_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftcoma-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.opts;
    println!(
        "# workload {} seed {} seconds {} trace {} threads available {}",
        args.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.traced),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut report = Report::default();
    let mut tr = Tracer::new(opts.traced);
    match args.workload.as_str() {
        "paper16" => paper16::run(opts, &mut report, &mut tr),
        "chaos_mix" => chaos_mix::run(opts, &mut report, &mut tr),
        _ => traced16::run(opts, &mut report, &mut tr),
    }
    if opts.traced {
        let refs = if opts.short {
            DRIVER_REFS / 20
        } else {
            DRIVER_REFS
        };
        layers::kernel_drivers(&mut report, &mut tr, opts.seed, refs);
        layers::set_table2(&mut report);
        if let Err(e) = tr.write_jsonl(&args.spans_out) {
            eprintln!(
                "ftcoma-perfbench: cannot write {}: {e}",
                args.spans_out.display()
            );
            return ExitCode::FAILURE;
        }
        report.note(format!(
            "{} spans written to {}",
            tr.len(),
            args.spans_out.display()
        ));
    }
    report.print(opts.traced);
    ExitCode::SUCCESS
}
