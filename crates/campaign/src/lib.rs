//! Parallel, deterministic simulation campaigns.
//!
//! The paper's evaluation (Figs. 3–11, Tables 1–3) is a grid of
//! *independent* simulations: workloads × node counts × checkpoint
//! frequencies × failure scenarios. This crate expands such a grid from a
//! declarative spec into flat [`Cell`]s, runs them on a `std::thread`
//! worker pool, and aggregates everything into one versioned JSON report
//! (`schema_version` 7). Host wall-clock timings stay out of the report;
//! [`report::timing_json`] builds them as a separate sidecar document.
//!
//! Determinism is the design center: every cell's RNG seed is derived from
//! `(campaign seed, baseline-group id)` with [`ftcoma_sim::derive_seed`] at
//! *expansion* time, so results are byte-identical at any `--jobs` level
//! and any single cell can be replayed alone (`ftcoma campaign --cell`).
//! Cells in the same baseline group share their seed because paired
//! standard/ECP runs must (the paper's methodology); distinct groups get
//! independent streams.
//!
//! # Example
//!
//! ```
//! use ftcoma_campaign::{run_cells, report, CampaignSpec};
//!
//! let spec = CampaignSpec::parse(r#"{
//!     "name": "doc-example",
//!     "workloads": ["water"],
//!     "nodes": [4],
//!     "freqs": [400],
//!     "refs": 2000,
//!     "warmup": 0
//! }"#).unwrap();
//! let cells = spec.expand();
//! assert_eq!(cells.len(), 2); // baseline + one ECP cell
//! let outcomes = run_cells(&cells, 2);
//! let doc = report::campaign_json(&spec, &cells, &outcomes);
//! assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod spec;

pub use runner::{
    apply_scenario, fork_cycle, needs_net, run_cell, run_cell_on, run_cells, CellOutcome,
    SnapshotForge,
};
pub use spec::{lengths_for, CampaignSpec, Cell, Lengths, Scenario, ScenarioKind, SpecError};
