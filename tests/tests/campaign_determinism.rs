//! Cross-crate reproducibility gate: a campaign's report is a pure
//! function of its spec, independent of worker count — the property CI
//! enforces on the built binary by byte-diffing `scripts/reports.sh` at
//! `--jobs 1` and `--jobs 4`.

use ftcoma_campaign::{report, run_cells, CampaignSpec, ScenarioKind};

/// A 4-group, 10-cell campaign mixing workloads, frequencies and failure
/// scenarios — small enough to run in a unit-test budget, wide enough that
/// a scheduling-dependent seed or shared-state bug would show up.
fn spec() -> CampaignSpec {
    CampaignSpec::parse(
        r#"{
            "name": "integration-determinism",
            "seed": 2026,
            "workloads": ["water", "cholesky"],
            "nodes": [4],
            "freqs": [400, 100],
            "refs": 2000,
            "warmup": 500,
            "scenarios": [
                {"kind": "none"},
                {"kind": "transient", "node": 1, "at": 5000}
            ]
        }"#,
    )
    .unwrap()
}

#[test]
fn report_is_identical_for_any_job_count() {
    let spec = spec();
    let cells = spec.expand();
    // 2 workloads x (1 baseline + 2 freqs x 2 scenarios) = 10 cells.
    assert_eq!(cells.len(), 10);

    let mut docs = Vec::new();
    for jobs in [1, 3, 8] {
        let outcomes = run_cells(&cells, jobs);
        let doc = report::campaign_json(&spec, &cells, &outcomes);
        docs.push(doc.to_string_pretty());
    }
    // Since schema 5 the report carries no wall-clock fields at all, so
    // the comparison is a plain byte diff.
    assert_eq!(docs[0], docs[1], "--jobs 1 vs --jobs 3 diverged");
    assert_eq!(docs[0], docs[2], "--jobs 1 vs --jobs 8 diverged");
    assert!(
        !docs[0].contains("wall_ms"),
        "a wall-clock field leaked into the report body"
    );
}

#[test]
fn single_cell_replay_matches_full_campaign() {
    let cells = spec().expand();
    let full = run_cells(&cells, 4);
    for probe in [0usize, 3, 9] {
        let alone = ftcoma_campaign::run_cell(&cells[probe]);
        assert_eq!(
            alone.metrics, full[probe].metrics,
            "cell {probe} replayed differently outside the pool"
        );
    }
}

#[test]
fn failure_cells_actually_fail_and_recover() {
    // Warmup-free: with a warmup window, metrics are deltas from the
    // warmup snapshot and an early failure would be subtracted out.
    let cells = CampaignSpec::parse(
        r#"{
            "name": "integration-failures",
            "workloads": ["water", "mp3d"],
            "nodes": [4],
            "freqs": [400],
            "refs": 2000,
            "warmup": 0,
            "scenarios": [
                {"kind": "none"},
                {"kind": "transient", "node": 1, "at": 4000},
                {"kind": "cycle", "node": 2, "at": 3000, "period": 2000, "count": 2}
            ]
        }"#,
    )
    .unwrap()
    .expand();
    let outcomes = run_cells(&cells, 4);
    for (cell, outcome) in cells.iter().zip(&outcomes) {
        let expected = match cell.scenario.kind {
            ScenarioKind::None => 0,
            ScenarioKind::Cycle { count, .. } => u64::from(count),
            _ => 1,
        };
        assert_eq!(outcome.metrics.failures, expected, "cell {}", cell.label);
        if expected > 0 {
            let rollback: u64 = outcome
                .metrics
                .per_node
                .iter()
                .map(|n| n.rollback_cycles)
                .sum();
            assert!(
                rollback > 0,
                "cell {} failed without rolling back",
                cell.label
            );
        }
    }
}
