//! Counterexample artifacts: everything needed to replay one failing case
//! byte-identically, as a small standalone JSON document.
//!
//! `ftcoma chaos --replay <artifact>` parses the document, rebuilds the
//! golden reference and the faulted cell from the recorded seeds, re-runs
//! both and re-judges — the same code path the fuzzer used, so a
//! counterexample either reproduces exactly or the artifact is stale.

use ftcoma_campaign::Scenario;
use ftcoma_machine::export::{span_from_json, span_json, SCHEMA_VERSION};
use ftcoma_sim::span::SpanRecord;
use ftcoma_sim::Json;

/// One minimized failing case, self-contained for replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Campaign master seed the fuzzer ran with.
    pub campaign_seed: u64,
    /// Seed group (0-based) this case belonged to.
    pub seed_group: u64,
    /// The machine seed derived for that group (recorded redundantly so an
    /// artifact is replayable even if the derivation scheme evolves).
    pub machine_seed: u64,
    /// Workload preset name.
    pub workload: String,
    /// Machine size.
    pub nodes: u16,
    /// Checkpoint frequency (recovery points per second).
    pub freq_hz: f64,
    /// Measured references per node (warmup is always 0 in chaos runs).
    pub refs_per_node: u64,
    /// Global case id within the fuzzing run.
    pub case_id: u64,
    /// The *shrunk* scenario that still fails.
    pub scenario: Scenario,
    /// The originally sampled scenario the shrinker started from.
    pub original: Scenario,
    /// Oracle reasons recorded for the shrunk scenario.
    pub reasons: Vec<String>,
    /// Predicate evaluations the shrinker spent.
    pub shrink_runs: u32,
    /// Recovery-phase spans (detection, rollback, reconfiguration,
    /// replay) collected from the shrunk case's final traced run, capped
    /// at 64 records. Empty when the failing run saw no recovery at all.
    pub recovery_timeline: Vec<SpanRecord>,
}

impl Counterexample {
    /// Serializes the artifact (order-stable, byte-deterministic).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("kind", Json::from("chaos_counterexample")),
            (
                "campaign_seed",
                Json::from(format!("0x{:016x}", self.campaign_seed)),
            ),
            ("seed_group", Json::from(self.seed_group)),
            (
                "machine_seed",
                Json::from(format!("0x{:016x}", self.machine_seed)),
            ),
            ("workload", Json::from(self.workload.as_str())),
            ("nodes", Json::from(u64::from(self.nodes))),
            ("freq", Json::from(self.freq_hz)),
            ("refs_per_node", Json::from(self.refs_per_node)),
            ("case_id", Json::from(self.case_id)),
            ("scenario", self.scenario.to_json()),
            ("original", self.original.to_json()),
            (
                "reasons",
                Json::arr(self.reasons.iter().map(|r| Json::from(r.as_str()))),
            ),
            ("shrink_runs", Json::from(u64::from(self.shrink_runs))),
            (
                "recovery_timeline",
                Json::arr(self.recovery_timeline.iter().map(span_json)),
            ),
        ])
    }

    /// Parses an artifact document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Counterexample, String> {
        let doc = Json::parse(text).map_err(|e| format!("artifact is not valid JSON: {e}"))?;
        if doc.get("kind").and_then(Json::as_str) != Some("chaos_counterexample") {
            return Err("not a chaos counterexample (missing kind)".into());
        }
        let hex = |key: &str| -> Result<u64, String> {
            let s = doc
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("artifact needs a string `{key}`"))?;
            let digits = s.strip_prefix("0x").unwrap_or(s);
            u64::from_str_radix(digits, 16).map_err(|e| format!("bad `{key}`: {e}"))
        };
        let num = |key: &str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("artifact needs an integer `{key}`"))
        };
        let scenario = |key: &str| -> Result<Scenario, String> {
            Scenario::from_json(
                doc.get(key)
                    .ok_or_else(|| format!("artifact needs a `{key}` scenario"))?,
            )
            .map_err(|e| format!("bad `{key}`: {e}"))
        };
        Ok(Counterexample {
            campaign_seed: hex("campaign_seed")?,
            seed_group: num("seed_group")?,
            machine_seed: hex("machine_seed")?,
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("artifact needs a string `workload`")?
                .to_string(),
            nodes: u16::try_from(num("nodes")?).map_err(|_| "`nodes` out of range".to_string())?,
            freq_hz: doc
                .get("freq")
                .and_then(Json::as_f64)
                .ok_or("artifact needs a number `freq`")?,
            refs_per_node: num("refs_per_node")?,
            case_id: num("case_id")?,
            scenario: scenario("scenario")?,
            original: scenario("original")?,
            reasons: doc
                .get("reasons")
                .and_then(Json::as_array)
                .map(|xs| {
                    xs.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            shrink_runs: num("shrink_runs").map(|v| v as u32).unwrap_or(0),
            // Tolerant: pre-v5 artifacts have no timeline; malformed rows
            // (inverted spans included) are skipped rather than failing the
            // whole parse.
            recovery_timeline: doc
                .get("recovery_timeline")
                .and_then(Json::as_array)
                .map(|xs| xs.iter().filter_map(span_from_json).collect())
                .unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcoma_campaign::ScenarioKind;
    use ftcoma_sim::span::SpanPhase;

    fn sample() -> Counterexample {
        Counterexample {
            campaign_seed: 0xDEAD_BEEF_0000_0001,
            seed_group: 2,
            machine_seed: 0x1234,
            workload: "water".into(),
            nodes: 8,
            freq_hz: 1000.0,
            refs_per_node: 4000,
            case_id: 17,
            scenario: Scenario {
                kind: ScenarioKind::BackToBack {
                    gap: 13,
                    second_node: 3,
                },
                node: 1,
                at: 42_000,
                repair_at: None,
            },
            original: Scenario {
                kind: ScenarioKind::BackToBack {
                    gap: 900,
                    second_node: 3,
                },
                node: 1,
                at: 88_000,
                repair_at: None,
            },
            reasons: vec!["golden-replay: item 7 lost (golden value 9)".into()],
            shrink_runs: 21,
            recovery_timeline: vec![
                SpanRecord {
                    id: 40,
                    parent: 0,
                    phase: SpanPhase::Recovery,
                    node: 1,
                    start: 42_000,
                    end: 44_500,
                },
                SpanRecord {
                    id: 41,
                    parent: 40,
                    phase: SpanPhase::Rollback,
                    node: 1,
                    start: 42_000,
                    end: 42_800,
                },
            ],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let cx = sample();
        let text = cx.to_json().to_string_pretty();
        let back = Counterexample::parse(&text).unwrap();
        assert_eq!(back, cx);
        // Serialization is byte-deterministic.
        assert_eq!(text, back.to_json().to_string_pretty());
    }

    #[test]
    fn pre_v5_artifacts_parse_with_empty_timeline() {
        let mut doc = sample().to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "recovery_timeline");
        }
        let back = Counterexample::parse(&doc.to_string_pretty()).unwrap();
        assert!(back.recovery_timeline.is_empty());
        assert_eq!(back.case_id, sample().case_id);
    }

    #[test]
    fn inverted_timeline_rows_are_skipped_like_malformed_ones() {
        let mut cx = sample();
        cx.recovery_timeline[1].end = 41_000; // ends before it starts
        let back = Counterexample::parse(&cx.to_json().to_string_pretty()).unwrap();
        assert_eq!(back.recovery_timeline, sample().recovery_timeline[..1]);
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(Counterexample::parse("{}").is_err());
        assert!(Counterexample::parse("not json").is_err());
        let mut doc = sample().to_json();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "scenario");
        }
        assert!(Counterexample::parse(&doc.to_string_pretty()).is_err());
    }
}
