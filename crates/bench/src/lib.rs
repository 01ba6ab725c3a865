//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every table and figure of the paper's evaluation (§4.2) has a dedicated
//! bench target in `benches/` (custom harnesses, run with `cargo bench`);
//! this library holds the common machinery: paired standard/ECP runs with
//! identical seeds, the execution-time decomposition, run-length scaling
//! for low checkpoint frequencies, and plain-text table printing.
//!
//! The grid-shaped benches (Figs. 3–6, 8–11) run their points on
//! [`ftcoma_campaign`]'s worker pool via [`run_pairs`] — results are
//! identical at any parallelism, so `cargo bench` uses every core.
//!
//! Absolute numbers will not match the paper (different workload substrate
//! — see DESIGN.md §4); the *shapes* are the reproduction target and
//! EXPERIMENTS.md records both sides.

use std::path::{Path, PathBuf};

use ftcoma_campaign::{run_cells, Cell, Scenario};
use ftcoma_core::FtConfig;
use ftcoma_machine::{export, Machine, MachineConfig, RunMetrics};
use ftcoma_sim::Json;
use ftcoma_workloads::SplashConfig;

pub use ftcoma_campaign::lengths_for;

/// The recovery-point frequencies of Fig. 3 (per simulated second).
pub const PAPER_FREQS: [f64; 5] = [400.0, 200.0, 100.0, 50.0, 5.0];

/// The machine sizes of the scalability figures (Figs. 8–11).
pub const PAPER_SIZES: [u16; 5] = [9, 16, 30, 42, 56];

/// Default node count (the paper's 4×4 mesh).
pub const NODES: u16 = 16;

/// Worker count for the parallel benches: one per core, overridable with
/// `FTCOMA_BENCH_JOBS` (useful to pin `cargo bench` runs for timing).
pub fn bench_jobs() -> usize {
    std::env::var("FTCOMA_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&j| j > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Whether `FTCOMA_BENCH_QUICK` is set: benches shrink their grids to a
/// few short cells so CI smoke jobs can exercise the full path (including
/// the `FTCOMA_BENCH_JSON` export) in seconds.
pub fn quick_mode() -> bool {
    std::env::var_os("FTCOMA_BENCH_QUICK").is_some()
}

/// Runs one machine configuration to completion.
pub fn run_one(
    workload: &SplashConfig,
    nodes: u16,
    ft: FtConfig,
    refs: u64,
    warmup: u64,
) -> RunMetrics {
    let cfg = MachineConfig {
        nodes,
        refs_per_node: refs,
        warmup_refs_per_node: warmup,
        workload: workload.clone(),
        ft,
        ..MachineConfig::default()
    };
    Machine::new(cfg).run()
}

/// A paired baseline/ECP measurement with identical seed and run length.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Standard-protocol run.
    pub std: RunMetrics,
    /// ECP run.
    pub ft: RunMetrics,
}

/// One grid point of a paired bench: a fully specified standard/ECP twin.
#[derive(Debug, Clone)]
pub struct PairPoint {
    /// Workload configuration (already scaled if the bench scales it).
    pub workload: SplashConfig,
    /// Machine size.
    pub nodes: u16,
    /// ECP recovery-point frequency.
    pub freq_hz: f64,
    /// Measured references per node.
    pub refs: u64,
    /// Warmup references per node.
    pub warmup: u64,
}

impl PairPoint {
    /// A point with run lengths derived from the frequency via
    /// [`lengths_for`].
    pub fn new(workload: &SplashConfig, nodes: u16, freq_hz: f64) -> Self {
        let (refs, warmup) = lengths_for(freq_hz);
        PairPoint {
            workload: workload.clone(),
            nodes,
            freq_hz,
            refs,
            warmup,
        }
    }

    fn cell(&self, id: u64, group: u64, ft: FtConfig) -> Cell {
        let mode = if ft.mode.is_enabled() { "ft" } else { "std" };
        Cell {
            id,
            group,
            label: format!(
                "{}/n{}/f{}/{mode}",
                self.workload.name, self.nodes, self.freq_hz
            ),
            cfg: MachineConfig {
                nodes: self.nodes,
                refs_per_node: self.refs,
                warmup_refs_per_node: self.warmup,
                workload: self.workload.clone(),
                ft,
                ..MachineConfig::default()
            },
            scenario: Scenario::none(),
        }
    }
}

/// Runs every point's standard/ECP twin on `jobs` campaign workers and
/// returns the pairs in point order. Both halves of a pair share the
/// default seed and run length, exactly as [`run_pair`] pairs them; the
/// parallelism cannot affect the numbers.
pub fn run_pairs(points: &[PairPoint], jobs: usize) -> Vec<Pair> {
    let cells: Vec<Cell> = points
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            let (i, base) = (i as u64, 2 * i as u64);
            [
                p.cell(base, i, FtConfig::disabled()),
                p.cell(base + 1, i, FtConfig::enabled(p.freq_hz)),
            ]
        })
        .collect();
    let outcomes = run_cells(&cells, jobs);
    outcomes
        .chunks_exact(2)
        .map(|twin| Pair {
            std: twin[0].metrics.clone(),
            ft: twin[1].metrics.clone(),
        })
        .collect()
}

/// Runs the standard and ECP machines over the same workload and seed.
pub fn run_pair(workload: &SplashConfig, nodes: u16, freq_hz: f64) -> Pair {
    run_pairs(&[PairPoint::new(workload, nodes, freq_hz)], 1)
        .pop()
        .expect("one point in, one pair out")
}

/// Fig. 3's execution-time decomposition, as fractions of the standard
/// execution time.
#[derive(Debug, Clone, Copy)]
pub struct Decomposition {
    /// `T_ft / T_standard - 1`.
    pub total_overhead: f64,
    /// `T_create / T_standard`.
    pub create: f64,
    /// `T_commit / T_standard`.
    pub commit: f64,
    /// `T_pollution / T_standard` (may be slightly negative: simulation
    /// noise when the pollution effect is ~0).
    pub pollution: f64,
}

impl Pair {
    /// Computes the decomposition `T_ft = T_std + T_create + T_commit +
    /// T_pollution`.
    pub fn decomposition(&self) -> Decomposition {
        let t_std = self.std.total_cycles as f64;
        let t_ft = self.ft.total_cycles as f64;
        let create = self.ft.t_create as f64;
        let commit = self.ft.t_commit as f64;
        Decomposition {
            total_overhead: t_ft / t_std - 1.0,
            create: create / t_std,
            commit: commit / t_std,
            pollution: (t_ft - t_std - create - commit) / t_std,
        }
    }
}

/// One labeled pair as a JSON row: the Fig. 3 decomposition plus both
/// runs' metrics documents ([`export::metrics_json`], the document the
/// CLI's `--json` prints).
pub fn pair_json(label: &str, pair: &Pair) -> Json {
    let d = pair.decomposition();
    Json::obj([
        ("label", Json::from(label)),
        (
            "decomposition",
            Json::obj([
                ("total_overhead", Json::from(d.total_overhead)),
                ("create", Json::from(d.create)),
                ("commit", Json::from(d.commit)),
                ("pollution", Json::from(d.pollution)),
            ]),
        ),
        ("std", export::metrics_json(&pair.std, &[])),
        ("ft", export::metrics_json(&pair.ft, &[])),
    ])
}

/// Assembles a versioned bench document from labeled rows.
pub fn bench_doc(id: &str, rows: Vec<Json>) -> Json {
    Json::obj([
        ("schema_version", Json::from(export::SCHEMA_VERSION)),
        ("bench", Json::from(id)),
        ("rows", Json::arr(rows)),
    ])
}

/// Writes `BENCH_<id>.json` into `dir` and returns its path.
///
/// # Errors
///
/// Propagates I/O errors from the write.
pub fn write_bench_json_to(dir: &Path, id: &str, rows: Vec<Json>) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{id}.json"));
    let mut text = bench_doc(id, rows).to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Env-gated bench export: when `FTCOMA_BENCH_JSON` names a directory,
/// writes `BENCH_<id>.json` there and returns the path; otherwise a no-op.
///
/// # Errors
///
/// Propagates I/O errors from the write.
pub fn write_bench_json(id: &str, rows: Vec<Json>) -> std::io::Result<Option<PathBuf>> {
    match std::env::var_os("FTCOMA_BENCH_JSON") {
        None => Ok(None),
        Some(dir) => write_bench_json_to(Path::new(&dir), id, rows).map(Some),
    }
}

/// Prints a benchmark banner.
pub fn banner(id: &str, paper: &str) {
    println!("\n=== {id} ===");
    println!("paper reference: {paper}");
    println!("{}", "-".repeat(72));
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats bytes/second as MB/s.
pub fn mbps(x: f64) -> String {
    format!("{:.1} MB/s", x / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcoma_workloads::presets;

    #[test]
    fn lengths_scale_with_period() {
        let (r400, w400) = lengths_for(400.0);
        let (r5, w5) = lengths_for(5.0);
        assert_eq!(r400, 60_000);
        assert_eq!(w400, 30_000);
        assert!(r5 >= 3_000_000);
        assert!(w5 >= 1_500_000);
    }

    #[test]
    fn pair_decomposition_adds_up() {
        let pair = run_pair(&presets::water(), 4, 400.0);
        let d = pair.decomposition();
        let recomposed = d.create + d.commit + d.pollution;
        assert!((recomposed - d.total_overhead).abs() < 1e-9);
        assert!(pair.ft.checkpoints > 0);
    }

    #[test]
    fn bench_json_round_trips() {
        let pair = run_pair(&presets::water(), 4, 400.0);
        let doc = bench_doc("unit_test", vec![pair_json("water@400", &pair)]);
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(|v| v.as_u64()),
            Some(export::SCHEMA_VERSION)
        );
        assert_eq!(
            parsed.get("bench").and_then(|v| v.as_str()),
            Some("unit_test")
        );
        let row = &parsed.get("rows").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get("label").and_then(|v| v.as_str()), Some("water@400"));
        assert!(row
            .get("decomposition")
            .and_then(|d| d.get("create"))
            .is_some());
        // Each run is embedded as its full metrics document.
        for (key, run) in [("std", &pair.std), ("ft", &pair.ft)] {
            assert_eq!(
                row.get(key).unwrap().to_string_pretty(),
                export::metrics_json(run, &[]).to_string_pretty(),
                "{key} row is not the run's metrics document"
            );
        }
        let dir = std::env::temp_dir();
        let path =
            write_bench_json_to(&dir, "unit_test", vec![pair_json("water@400", &pair)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(Json::parse(&text).is_ok());
        let _ = std::fs::remove_file(path);
    }
}
