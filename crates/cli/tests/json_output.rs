//! End-to-end tests of the `ftcoma` binary's structured output: spawn the
//! real executable, parse what it writes, assert the schema.

use std::process::Command;

use ftcoma_sim::Json;

fn ftcoma(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ftcoma"))
        .args(args)
        .output()
        .expect("spawn ftcoma")
}

const RUN_ARGS: &[&str] = &[
    "run",
    "--workload",
    "water",
    "--nodes",
    "4",
    "--refs",
    "20000",
    "--warmup",
    "0",
    "--freq",
    "400",
    "--seed",
    "42",
];

#[test]
fn run_json_emits_versioned_schema_on_stdout() {
    let mut args = RUN_ARGS.to_vec();
    args.push("--json");
    let out = ftcoma(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::str::from_utf8(&out.stdout).expect("utf-8 stdout");
    let doc = Json::parse(text).expect("stdout is one valid JSON document");

    assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(7));
    let machine = doc.get("machine").expect("machine section");
    for key in [
        "nodes",
        "total_cycles",
        "refs",
        "read_miss_rate",
        "checkpoints",
        "t_create",
        "t_commit",
        "injections",
        "net",
    ] {
        assert!(machine.get(key).is_some(), "missing machine.{key}");
    }
    assert_eq!(machine.get("nodes").and_then(|v| v.as_u64()), Some(4));

    let per_node = doc.get("per_node").unwrap().as_array().unwrap();
    assert_eq!(per_node.len(), 4);
    let refs: u64 = per_node
        .iter()
        .map(|n| n.get("refs").and_then(|v| v.as_u64()).unwrap())
        .sum();
    assert_eq!(Some(refs), machine.get("refs").and_then(|v| v.as_u64()));

    let per_link = doc.get("per_link").unwrap().as_array().unwrap();
    assert!(!per_link.is_empty(), "mesh runs must report per-link rows");
    for row in per_link {
        for key in [
            "from",
            "to",
            "class",
            "messages",
            "busy_cycles",
            "utilization",
        ] {
            assert!(row.get(key).is_some(), "missing per_link.{key}");
        }
    }

    let lat = doc.get("access_latency").unwrap();
    for key in ["count", "mean", "p50", "p90", "p99", "max"] {
        assert!(lat.get(key).is_some(), "missing access_latency.{key}");
    }

    // Since schema 3 every run reports its structured recovery outcome.
    assert_eq!(
        doc.get("outcome")
            .and_then(|o| o.get("status"))
            .and_then(|v| v.as_str()),
        Some("recovered")
    );
}

#[test]
fn run_fail_at_injects_and_reports_the_outcome() {
    let mut args = RUN_ARGS.to_vec();
    args.extend([
        "--fail-at",
        "8000",
        "--fail-kind",
        "transient",
        "--fail-node",
        "2",
        "--json",
    ]);
    let out = ftcoma(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    let machine = doc.get("machine").expect("machine section");
    assert_eq!(machine.get("failures").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(
        doc.get("outcome")
            .and_then(|o| o.get("status"))
            .and_then(|v| v.as_str()),
        Some("recovered")
    );

    // The triple is validated: satellites without --fail-at are rejected.
    let out = ftcoma(&["run", "--workload", "water", "--fail-kind", "permanent"]);
    assert!(!out.status.success());
    let out = ftcoma(&["run", "--workload", "water", "--fail-at", "100", "--no-ft"]);
    assert!(!out.status.success(), "--fail-at needs the ECP");
}

#[test]
fn chaos_smoke_is_deterministic_and_passes() {
    let base = [
        "chaos", "--seeds", "2", "--cases", "6", "--nodes", "8", "--refs", "1500", "--freq",
        "1000", "--seed", "77", "--json",
    ];
    let mut reports = Vec::new();
    for jobs in ["1", "4"] {
        let out = ftcoma(&[&base[..], &["--jobs", jobs]].concat());
        assert!(
            out.status.success(),
            "chaos failed the oracle; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::str::from_utf8(&out.stdout).unwrap().to_string();
        let doc = Json::parse(&text).expect("chaos report parses");
        assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("chaos"));
        let oracle = doc.get("oracle").expect("oracle tallies");
        assert_eq!(oracle.get("fail").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(doc.get("cases").unwrap().as_array().unwrap().len(), 6);
        reports.push(text);
    }
    assert_eq!(
        reports[0], reports[1],
        "chaos reports must be byte-identical across --jobs"
    );
}

#[test]
fn chaos_net_faults_smoke_passes() {
    let out = ftcoma(&[
        "chaos",
        "--seeds",
        "1",
        "--cases",
        "4",
        "--nodes",
        "8",
        "--refs",
        "1500",
        "--freq",
        "1000",
        "--seed",
        "9",
        "--net-faults",
        "--jobs",
        "2",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "net-fault chaos failed the oracle; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    assert_eq!(
        doc.get("config")
            .and_then(|c| c.get("net_faults"))
            .and_then(|v| v.as_bool()),
        Some(true)
    );
    let oracle = doc.get("oracle").expect("oracle tallies");
    assert_eq!(oracle.get("fail").and_then(|v| v.as_u64()), Some(0));
}

#[test]
fn metrics_and_trace_files_are_valid_json() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let metrics = dir.join(format!("ftcoma_test_m_{tag}.json"));
    let trace = dir.join(format!("ftcoma_test_t_{tag}.json"));
    let jsonl = dir.join(format!("ftcoma_test_t_{tag}.jsonl"));

    let mut args: Vec<String> = RUN_ARGS.iter().map(|s| s.to_string()).collect();
    for (flag, path) in [
        ("--metrics-out", &metrics),
        ("--trace-out", &trace),
        ("--trace-jsonl", &jsonl),
    ] {
        args.push(flag.to_string());
        args.push(path.to_string_lossy().into_owned());
    }
    let out = ftcoma(&args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let m = Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(m.get("schema_version").and_then(|v| v.as_u64()), Some(7));

    let t = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = t.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty(), "trace must contain events");
    for e in events {
        assert!(
            e.get("ph").is_some() && e.get("pid").is_some(),
            "bad trace row: {e:?}"
        );
        if e.get("ph").and_then(|v| v.as_str()) != Some("M") {
            assert!(e.get("ts").is_some(), "non-metadata rows need a timestamp");
        }
    }
    // At least one per-node complete span (a commit scan) made it in.
    assert!(events
        .iter()
        .any(|e| e.get("ph").and_then(|v| v.as_str()) == Some("X")));

    let lines: Vec<String> = std::fs::read_to_string(&jsonl)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    assert!(lines.len() > 1, "JSONL needs a header and events");
    for line in &lines {
        Json::parse(line).expect("every JSONL line parses");
    }
    assert_eq!(
        Json::parse(&lines[0])
            .unwrap()
            .get("schema_version")
            .and_then(|v| v.as_u64()),
        Some(7)
    );

    for p in [metrics, trace, jsonl] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn spans_timeseries_and_trace_summarize_work_end_to_end() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let spans = dir.join(format!("ftcoma_test_s_{tag}.jsonl"));
    let ts = dir.join(format!("ftcoma_test_ts_{tag}.jsonl"));
    let spans_str = spans.to_string_lossy().into_owned();
    let ts_str = ts.to_string_lossy().into_owned();

    // A faulted run so the span log carries a recovery tree too.
    let mut args: Vec<&str> = RUN_ARGS.to_vec();
    args.extend([
        "--fail-at",
        "8000",
        "--fail-kind",
        "transient",
        "--fail-node",
        "2",
        "--spans-out",
        &spans_str,
        "--timeseries-out",
        &ts_str,
        "--timeseries-every",
        "5000",
    ]);
    let out = ftcoma(&args);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Spans JSONL: header + rows, transaction and recovery decompositions.
    let text = std::fs::read_to_string(&spans).unwrap();
    assert!(text.lines().count() > 1, "spans file needs header + rows");
    for line in text.lines() {
        Json::parse(line).expect("every spans line parses");
    }
    assert!(text.contains("\"transaction\""), "no transaction spans");
    assert!(text.contains("\"recovery\""), "no recovery span");

    // Time-series JSONL: header + sampled rows with the core columns.
    let ts_text = std::fs::read_to_string(&ts).unwrap();
    let rows: Vec<Json> = ts_text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert!(rows.len() > 2, "time-series needs header + several rows");
    assert!(rows[1].get("cycle").is_some() && rows[1].get("nodes_up").is_some());

    // `trace summarize` reads the file back and prints a ranked listing.
    let out = ftcoma(&["trace", "summarize", "--spans", &spans_str, "--top", "3"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("roots"), "summary header missing: {stdout}");
    assert!(stdout.contains("#1"), "no ranked rows: {stdout}");

    // Bad invocations fail cleanly.
    assert!(!ftcoma(&["trace"]).status.success());
    assert!(!ftcoma(&["trace", "bogus"]).status.success());

    for p in [spans, ts] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn campaign_is_deterministic_across_job_counts() {
    let dir = std::env::temp_dir();
    let tag = std::process::id();
    let spec = dir.join(format!("ftcoma_test_spec_{tag}.json"));
    std::fs::write(
        &spec,
        r#"{
            "name": "cli-determinism",
            "seed": 11,
            "workloads": ["water", "mp3d"],
            "nodes": [4],
            "freqs": [400],
            "refs": 2000,
            "warmup": 0,
            "scenarios": [
                {"kind": "none"},
                {"kind": "transient", "node": 1, "at": 4000}
            ]
        }"#,
    )
    .unwrap();
    let spec_str = spec.to_string_lossy().into_owned();

    let mut reports = Vec::new();
    for jobs in ["1", "4"] {
        let out = ftcoma(&["campaign", "--spec", &spec_str, "--jobs", jobs, "--json"]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::str::from_utf8(&out.stdout).unwrap().to_string();
        let doc = Json::parse(&text).expect("campaign report parses");
        assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(doc.get("kind").and_then(|v| v.as_str()), Some("campaign"));
        // 2 workloads x (1 baseline + 2 scenarios) = 6 cells.
        assert_eq!(doc.get("cells").unwrap().as_array().unwrap().len(), 6);
        reports.push(text);
    }
    assert_eq!(
        reports[0], reports[1],
        "--jobs 1 and --jobs 4 reports must be byte-identical"
    );

    // Single-cell replay reproduces the full run's numbers for that cell.
    let out = ftcoma(&["campaign", "--spec", &spec_str, "--cell", "1", "--json"]);
    assert!(out.status.success());
    let cell = Json::parse(std::str::from_utf8(&out.stdout).unwrap()).unwrap();
    let full = Json::parse(&reports[0]).unwrap();
    let row = &full.get("cells").unwrap().as_array().unwrap()[1];
    assert_eq!(cell.get("label"), row.get("label"));
    assert_eq!(
        cell.get("metrics").unwrap().get("machine"),
        row.get("metrics").unwrap().get("machine"),
        "replayed cell diverged from the campaign run"
    );

    let _ = std::fs::remove_file(spec);
}

#[test]
fn campaign_rejects_bad_specs() {
    let dir = std::env::temp_dir();
    let spec = dir.join(format!("ftcoma_test_badspec_{}.json", std::process::id()));
    std::fs::write(&spec, r#"{"bogus_key": 1}"#).unwrap();
    let out = ftcoma(&["campaign", "--spec", &spec.to_string_lossy()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown spec key"));
    let out = ftcoma(&["campaign"]);
    assert!(!out.status.success(), "campaign requires --spec");
    let _ = std::fs::remove_file(spec);
}

#[test]
fn export_failures_exit_through_the_error_path_not_a_panic() {
    // An unwritable --metrics-out must surface as a clean CLI error even
    // when --json is also requested: exit code, an `error:` line on
    // stderr, and crucially no panic backtrace from the doc plumbing.
    let mut args = RUN_ARGS.to_vec();
    args.extend([
        "--json",
        "--metrics-out",
        "/nonexistent-ftcoma-dir/metrics.json",
    ]);
    let out = ftcoma(&args);
    assert!(!out.status.success(), "unwritable path must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: cannot write /nonexistent-ftcoma-dir/metrics.json"),
        "expected the CLI error path, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "export errors must not panic: {stderr}"
    );
    // The failed export must not have half-emitted the JSON document.
    assert!(
        out.stdout.is_empty(),
        "stdout must stay empty on export failure"
    );
}

#[test]
fn invalid_numeric_inputs_exit_with_an_error_not_a_panic() {
    // Out-of-range integers must not wrap into a different machine (65540
    // nodes used to run a 4-node one), configurations the machine rejects
    // must not reach its constructor's panic, a span that ends before it
    // starts must not reach `SpanRecord::duration`'s subtraction, and a
    // replayed scenario that does not fit its artifact's machine must not
    // reach the machine's node and link lookups.
    let temp = |name: &str, text: &str| {
        let path = std::env::temp_dir().join(format!("ftcoma_test_{name}_{}", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path.to_string_lossy().into_owned()
    };
    let spans = temp(
        "inverted_span.jsonl",
        r#"{"id": 1, "parent": 0, "phase": "transaction", "node": 0, "start": 10, "end": 5}"#,
    );
    // Campaign seed 7, group 0: the machine seed is current, so only the
    // scenario stands between each artifact and a run on 8 nodes.
    let artifact = |name: &str, scenario: &str| {
        temp(
            name,
            &format!(
                r#"{{"kind": "chaos_counterexample", "campaign_seed": "0x7", "seed_group": 0,
                "machine_seed": "0x63cbe1e459320dd7", "workload": "water", "nodes": 8,
                "freq": 1000, "refs_per_node": 2000, "case_id": 1,
                "scenario": {scenario}, "original": {scenario}}}"#
            ),
        )
    };
    let replays = [
        artifact(
            "node_out_of_range.json",
            r#"{"kind": "transient", "node": 30, "at": 5000}"#,
        ),
        artifact(
            "link_not_adjacent.json",
            r#"{"kind": "link_cut", "node": 0, "to_node": 5, "at": 5000}"#,
        ),
        artifact(
            "router_out_of_range.json",
            r#"{"kind": "router_down", "node": 9, "at": 5000}"#,
        ),
    ];
    let router_down_4 = temp(
        "router_down_4.json",
        r#"{"nodes": [4], "freqs": [400], "refs": 20000, "warmup": 0, "baseline": false,
            "scenarios": [{"kind": "router_down", "node": 2, "at": 5000}]}"#,
    );
    let sink = std::env::temp_dir()
        .join(format!("ftcoma_test_empty_sink_{}", std::process::id()))
        .to_string_lossy()
        .into_owned();
    // A rate whose period rounds to 0 cycles, and a paper-length run whose
    // period saturates, used to hang the simulator.
    let tiny_freq = temp(
        "tiny_freq.json",
        r#"{"name": "t", "workloads": ["water"], "nodes": [4], "freqs": [1e-300],
            "lengths": "paper"}"#,
    );
    let cases: &[&[&str]] = &[
        &[
            "run", "--nodes", "65540", "--refs", "2000", "--warmup", "0", "--json",
        ],
        &["run", "--nodes", "2"],
        &["run", "--refs", "0"],
        &["run", "--freq", "0"],
        &["run", "--freq", "inf"],
        &["run", "--freq", "5e7"],
        &["chaos", "--freq", "5e7"],
        &["campaign", "--spec", &tiny_freq],
        &["run", "--fail-at", "1000", "--fail-node", "65537"],
        &["failure", "--node", "65537"],
        &["failure", "--node", "20"],
        &["failure", "--kind", "transient", "--at", "0"],
        &["chaos", "--nodes", "65540"],
        &["trace", "summarize", "--spans", &spans],
        &["chaos", "--replay", &replays[0]],
        &["chaos", "--replay", &replays[1]],
        &["chaos", "--replay", &replays[2]],
    ];
    // A permanent node loss on 4 nodes, and an output whose sink is off.
    let lines = [
        "chaos --nodes 4 --cases 40 --seeds 2 --jobs 2".to_string(),
        "run --workload water --nodes 4 --refs 20000 --warmup 0 --freq 400 --fail-at 5000 --fail-kind permanent --fail-node 1".into(),
        "failure --workload water --nodes 4 --refs 20000 --warmup 0 --freq 400 --kind permanent --node 2 --at 5000 --repair-at 200000".into(),
        format!("campaign --spec {router_down_4}"),
        format!("run --spans-out {sink} --trace-capacity 0"),
        format!("run --trace-out {sink} --trace-capacity 0"),
        format!("run --trace-jsonl {sink} --trace-capacity 0"),
        format!("run --timeseries-out {sink} --timeseries-every 0"),
        format!("failure --spans-out {sink} --trace-capacity 0"),
        format!("failure --timeseries-out {sink} --timeseries-every 0"),
    ];
    let lines: Vec<Vec<&str>> = lines.iter().map(|l| l.split(' ').collect()).collect();
    for args in cases.iter().copied().chain(lines.iter().map(Vec::as_slice)) {
        let out = ftcoma(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    assert!(
        !std::path::Path::new(&sink).exists(),
        "a rejected command wrote its output"
    );
    for path in replays.iter().chain([&spans, &tiny_freq, &router_down_4]) {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn json_rejects_unknown_subcommand_flags() {
    let out = ftcoma(&["latency", "--json"]);
    assert!(!out.status.success(), "latency does not take --json");

    // `compare` prints one table of a standard run and its ECP twin: it
    // must refuse `run`'s output, fault and protocol flags, not ignore them.
    let trace = std::env::temp_dir()
        .join(format!("ftcoma_test_compare_trace_{}", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let compare = [
        "compare", "--nodes", "4", "--refs", "2000", "--warmup", "0", "--freq", "400",
    ];
    let extras: [&[&str]; 4] = [
        &["--json"],
        &["--trace-out", &trace],
        &["--fail-at", "100"],
        &["--no-ft"],
    ];
    for extra in extras {
        let out = ftcoma(&[&compare[..], extra].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        let refusal = format!("unknown flag {} for `compare`", extra[0]);
        assert!(stderr.contains(&refusal), "{extra:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{extra:?} ran the comparison");
    }
    assert!(
        !std::path::Path::new(&trace).exists(),
        "compare wrote a trace"
    );
}

#[test]
fn sweep_and_compare_note_rates_that_establish_no_recovery_point() {
    let sweep = |freqs: &str| {
        ftcoma(&[
            "sweep",
            "--workload",
            "water",
            "--nodes",
            "9",
            "--refs",
            "20000",
            "--warmup",
            "10000",
            "--freqs",
            freqs,
            "--jobs",
            "2",
        ])
    };
    // At 100 rp/s the period (200000 cycles) outlasts the run (92567).
    let out = sweep("400,200,100");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("     100       0.0%"), "{stdout}");
    assert!(!stdout.contains("note:"), "the note stays off stdout");
    assert_eq!(
        stderr.trim_end(),
        "note: no recovery point fits the run at 100 rp/s: \
         the period is 200000 cycles and the run 92567 cycles"
    );
    let out = sweep("400");
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let compare = |freq: &str| {
        ftcoma(&[
            "compare",
            "--workload",
            "water",
            "--nodes",
            "9",
            "--refs",
            "20000",
            "--warmup",
            "10000",
            "--freq",
            freq,
        ])
    };
    let out = compare("100");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("note: no recovery point fits the run at 100 rp/s"),
        "{stderr}"
    );
    assert!(compare("400").stderr.is_empty());
}
