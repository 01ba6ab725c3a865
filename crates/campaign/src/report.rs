//! The campaign report: one versioned JSON document aggregating every
//! cell's metrics, link report and overhead decomposition.
//!
//! The document is `schema_version` 7 (see
//! [`ftcoma_machine::export::SCHEMA_VERSION`]); cells appear in id order
//! regardless of the order workers finished them, and every field is a
//! pure function of the spec — the property the CI `determinism` job
//! checks by byte-diffing `--jobs 1` against `--jobs 4` output. Wall-clock
//! timings live in a separate sidecar document ([`timing_json`]) that is
//! exempt from the comparison.
//!
//! [`twin`] is the one place a campaign's standard-protocol cell is paired
//! with its ECP twin: the report, the CLI's `campaign` and `sweep`
//! summaries and the figure benches all read Fig. 3's decomposition
//! through it.

use ftcoma_machine::{export, Decomposition, PhaseLatency, RunMetrics};
use ftcoma_sim::Json;

use crate::runner::CellOutcome;
use crate::spec::{CampaignSpec, Cell, ScenarioKind};

/// An ECP cell paired with its group's standard-protocol baseline: the
/// two runs share seed and run length, so their difference is the cost
/// of fault tolerance.
#[derive(Debug, Clone, Copy)]
pub struct Twin<'a> {
    /// The ECP cell.
    pub cell: &'a Cell,
    /// The ECP cell's metrics.
    pub ft: &'a RunMetrics,
    /// The group baseline's metrics.
    pub std: &'a RunMetrics,
    /// `ft` decomposed against `std`.
    pub decomposition: Decomposition,
}

/// Cell `i` paired with its group's baseline, the first standard-protocol
/// cell of the same group; `None` for a baseline cell and for an ECP cell
/// whose group has no baseline. `outcomes[j]` must be cell `j`'s.
pub fn twin<'a>(cells: &'a [Cell], outcomes: &'a [CellOutcome], i: usize) -> Option<Twin<'a>> {
    let cell = &cells[i];
    if !cell.is_ft() {
        return None;
    }
    let std = cells
        .iter()
        .zip(outcomes)
        .find(|(c, _)| c.group == cell.group && !c.is_ft())
        .map(|(_, o)| &o.metrics)?;
    let ft = &outcomes[i].metrics;
    Some(Twin {
        cell,
        ft,
        std,
        decomposition: Decomposition::of(ft, std),
    })
}

/// Every [`twin`] of a campaign run, in cell order.
pub fn twins<'a>(cells: &'a [Cell], outcomes: &'a [CellOutcome]) -> Vec<Twin<'a>> {
    (0..cells.len())
        .filter_map(|i| twin(cells, outcomes, i))
        .collect()
}

/// A decomposition as the report's `decomposition` object.
fn decomposition_json(d: &Decomposition) -> Json {
    Json::obj([
        ("total_overhead", Json::from(d.total_overhead)),
        ("create", Json::from(d.create)),
        ("commit", Json::from(d.commit)),
        ("pollution", Json::from(d.pollution)),
    ])
}

/// One cell's row in the report: identity, configuration summary,
/// decomposition (ECP cells with a baseline in their group; see [`twin`])
/// and the full embedded metrics document.
pub fn cell_json(cell: &Cell, outcome: &CellOutcome, decomposition: Option<Decomposition>) -> Json {
    let freq = if cell.is_ft() {
        Json::from(cell.cfg.ft.ckpt_rate_hz)
    } else {
        Json::Null
    };
    let scenario = if cell.scenario.kind == ScenarioKind::None {
        Json::Null
    } else {
        cell.scenario.to_json()
    };
    let decomposition = decomposition.map_or(Json::Null, |d| decomposition_json(&d));
    Json::obj([
        ("id", Json::from(cell.id)),
        ("group", Json::from(cell.group)),
        ("label", Json::from(cell.label.as_str())),
        ("workload", Json::from(cell.cfg.workload.name.as_str())),
        ("nodes", Json::from(u64::from(cell.cfg.nodes))),
        ("refs_per_node", Json::from(cell.cfg.refs_per_node)),
        (
            "warmup_refs_per_node",
            Json::from(cell.cfg.warmup_refs_per_node),
        ),
        (
            "mode",
            Json::from(if cell.is_ft() { "ecp" } else { "standard" }),
        ),
        ("freq", freq),
        ("scenario", scenario),
        // Hex string: JSON numbers are doubles and would round 64-bit
        // derived seeds.
        ("seed", Json::from(format!("0x{:016x}", cell.cfg.seed))),
        ("decomposition", decomposition),
        ("outcome", export::outcome_json(&outcome.outcome)),
        (
            "metrics",
            export::metrics_json(&outcome.metrics, &outcome.links),
        ),
    ])
}

/// Assembles the full campaign document from a spec's cells and their
/// outcomes (`outcomes[i]` must be cell `i`'s, as `run_cells` returns
/// them).
///
/// # Panics
///
/// Panics if `cells` and `outcomes` disagree in length or ids.
pub fn campaign_json(spec: &CampaignSpec, cells: &[Cell], outcomes: &[CellOutcome]) -> Json {
    assert_eq!(cells.len(), outcomes.len(), "one outcome per cell");
    let rows = cells.iter().zip(outcomes).enumerate().map(|(i, (c, o))| {
        assert_eq!(c.id, o.cell_id, "outcomes out of order");
        cell_json(c, o, twin(cells, outcomes, i).map(|t| t.decomposition))
    });

    let mut totals = RunMetrics::default();
    let mut phases = PhaseLatency::default();
    for o in outcomes {
        totals.refs += o.metrics.refs;
        totals.total_cycles += o.metrics.total_cycles;
        totals.checkpoints += o.metrics.checkpoints;
        totals.failures += o.metrics.failures;
        totals.repairs += o.metrics.repairs;
        totals.net_messages += o.metrics.net_messages;
        phases.merge(&o.metrics.phases);
    }

    Json::obj([
        ("schema_version", Json::from(export::SCHEMA_VERSION)),
        ("kind", Json::from("campaign")),
        (
            "campaign",
            Json::obj([
                ("name", Json::from(spec.name.as_str())),
                ("seed", Json::from(spec.seed)),
                ("cells", Json::from(cells.len())),
            ]),
        ),
        (
            "totals",
            Json::obj([
                ("refs", Json::from(totals.refs)),
                ("simulated_cycles", Json::from(totals.total_cycles)),
                ("checkpoints", Json::from(totals.checkpoints)),
                ("failures", Json::from(totals.failures)),
                ("repairs", Json::from(totals.repairs)),
                ("net_messages", Json::from(totals.net_messages)),
                (
                    "phases",
                    Json::obj(
                        phases
                            .named()
                            .into_iter()
                            .map(|(name, h)| (name, h.summary().to_json())),
                    ),
                ),
            ]),
        ),
        ("cells", Json::arr(rows)),
    ])
}

/// The wall-clock timing sidecar: host timings of a campaign run, kept out
/// of the report document so the report itself stays byte-deterministic.
/// The CLI writes it next to the report as `<out>.timing.json`.
pub fn timing_json(outcomes: &[CellOutcome], wall_ms_total: f64) -> Json {
    Json::obj([(
        "timing",
        Json::obj([
            ("wall_ms_total", Json::from(wall_ms_total)),
            (
                "cells",
                Json::arr(outcomes.iter().map(|o| {
                    Json::obj([
                        ("id", Json::from(o.cell_id)),
                        ("wall_ms", Json::from(o.wall_ms)),
                    ])
                })),
            ),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cells;

    #[test]
    fn report_is_versioned_ordered_and_decomposed() {
        let spec = CampaignSpec::parse(
            r#"{
                "name": "report-unit",
                "workloads": ["water"],
                "nodes": [4],
                "freqs": [400],
                "refs": 2000,
                "warmup": 0
            }"#,
        )
        .unwrap();
        let cells = spec.expand();
        let outcomes = run_cells(&cells, 2);
        let doc = campaign_json(&spec, &cells, &outcomes);
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(export::SCHEMA_VERSION)
        );
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("campaign"));
        let rows = doc.get("cells").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("mode").and_then(Json::as_str), Some("standard"));
        assert_eq!(rows[1].get("mode").and_then(Json::as_str), Some("ecp"));
        // Every cell carries its structured recovery outcome.
        for row in rows {
            assert_eq!(
                row.get("outcome")
                    .and_then(|o| o.get("status"))
                    .and_then(Json::as_str),
                Some("recovered")
            );
        }
        // The ECP cell carries a decomposition against its baseline.
        let d = rows[1].get("decomposition").unwrap();
        assert!(d.get("create").and_then(Json::as_f64).is_some());
        assert_eq!(rows[0].get("decomposition"), Some(&Json::Null));
        // Embedded metrics documents are complete.
        let m = rows[1].get("metrics").unwrap();
        assert!(m
            .get("machine")
            .and_then(|s| s.get("checkpoints"))
            .is_some());
        // Merged per-phase latency summaries ride along in the totals.
        let phases = doc.get("totals").and_then(|t| t.get("phases")).unwrap();
        assert!(phases
            .get("dir_lookup")
            .and_then(|h| h.get("count"))
            .is_some());
        // The whole document round-trips through the parser.
        assert!(Json::parse(&doc.to_string_pretty()).is_ok());
        // The report itself carries no wall-clock fields...
        let text = doc.to_string_compact();
        assert!(!text.contains("wall_ms"), "wall clock leaked into report");
        // ...those live in the timing sidecar, one row per cell.
        let timing = timing_json(&outcomes, 12.5);
        let t = timing.get("timing").unwrap();
        assert!(t.get("wall_ms_total").and_then(Json::as_f64).is_some());
        assert_eq!(t.get("cells").unwrap().as_array().unwrap().len(), 2);
    }
}
