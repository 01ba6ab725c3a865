//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every table and figure of the paper's evaluation (§4.2) has a dedicated
//! bench target in `benches/` (custom harnesses, run with `cargo bench`);
//! this library holds the common machinery: the paper's campaign grid,
//! cell selection and execution on [`ftcoma_campaign`]'s worker pool,
//! run-length scaling for low checkpoint frequencies, and plain-text table
//! printing.
//!
//! The figure benches are views of campaign cells. Figs. 3–7 and Table 1
//! expand `specs/paper-grid.json`, the spec `ftcoma campaign --spec
//! specs/paper-grid.json` runs, so a bench and the campaign report see the
//! same cells with the same derived seeds; Figs. 8–11 build one spec per
//! machine size. Their standard/ECP twins and Fig. 3's decomposition come
//! from [`ftcoma_campaign::report::twin`]; the ablations, whose switches a
//! spec cannot set, pair [`run_one`] runs themselves. Results are
//! identical at any parallelism, so `cargo bench` uses every core.
//!
//! Absolute numbers will not match the paper (different workload substrate
//! — see DESIGN.md §4); the *shapes* are the reproduction target and
//! EXPERIMENTS.md records both sides.

use std::path::{Path, PathBuf};

use ftcoma_campaign::{run_cells, CampaignSpec, Cell, CellOutcome};
use ftcoma_core::FtConfig;
use ftcoma_machine::{Machine, MachineConfig, RunMetrics};
use ftcoma_sim::Json;
use ftcoma_workloads::SplashConfig;

/// The machine sizes of the scalability figures (Figs. 8–11).
pub const PAPER_SIZES: [u16; 5] = [9, 16, 30, 42, 56];

/// The paper's Fig. 3–6 grid, `specs/paper-grid.json`: four workloads on
/// 16 nodes at 400, 200, 100, 50 and 5 recovery points per second, paper
/// run lengths. Select cells after [`CampaignSpec::expand`]; editing the
/// spec would move the group ids, and with them the seeds.
pub fn paper_grid() -> CampaignSpec {
    CampaignSpec::parse(include_str!("../../../specs/paper-grid.json"))
        .expect("specs/paper-grid.json is a valid campaign spec")
}

/// The cells of every baseline group that holds a cell `pick` selects:
/// the selected ECP cells together with the baselines they are decomposed
/// against.
pub fn groups_of(cells: &[Cell], pick: impl Fn(&Cell) -> bool) -> Vec<Cell> {
    let groups: Vec<u64> = cells.iter().filter(|c| pick(c)).map(|c| c.group).collect();
    cells
        .iter()
        .filter(|c| groups.contains(&c.group))
        .cloned()
        .collect()
}

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

/// Runs `cells` on [`bench_jobs`] campaign workers and returns their
/// outcomes in cell order.
pub fn run(cells: &[Cell]) -> Vec<CellOutcome> {
    let jobs = bench_jobs();
    eprintln!("running {} cells on {jobs} workers ...", cells.len());
    run_cells(cells, jobs)
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

/// Env-gated bench export of a whole document: when `FTCOMA_BENCH_JSON`
/// names a directory, writes `doc` there as `BENCH_<id>.json` and returns
/// the path; otherwise a no-op.
///
/// # Errors
///
/// Propagates I/O errors from the write.
pub fn write_bench_doc(id: &str, doc: &Json) -> std::io::Result<Option<PathBuf>> {
    let Some(dir) = std::env::var_os("FTCOMA_BENCH_JSON") else {
        return Ok(None);
    };
    let path = Path::new(&dir).join(format!("BENCH_{id}.json"));
    let mut text = doc.to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(Some(path))
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
    use ftcoma_campaign::report;

    #[test]
    fn paper_grid_is_the_shipped_spec() {
        let cells = paper_grid().expand();
        // 4 workloads x 5 frequencies, each its own baseline group.
        assert_eq!(cells.len(), 40);
        assert_eq!(cells.iter().filter(|c| c.is_ft()).count(), 20);
        // Picking the 100 rp/s cells brings their four baselines along.
        let picked = groups_of(&cells, |c| c.is_ft() && c.cfg.ft.ckpt_rate_hz == 100.0);
        assert_eq!(picked.len(), 8);
        assert_eq!(picked.iter().filter(|c| c.is_ft()).count(), 4);
    }

    #[test]
    fn figure_rows_are_the_reports_decompositions() {
        let spec = CampaignSpec::parse(
            r#"{"name": "bench-unit", "workloads": ["water"], "nodes": [4],
                "freqs": [400, 100], "refs": 8000, "warmup": 1000}"#,
        )
        .unwrap();
        let cells = spec.expand();
        let outcomes = run(&cells);
        let twins = report::twins(&cells, &outcomes);
        assert_eq!(twins.len(), 2);
        assert!(
            twins[0].ft.checkpoints > 0,
            "400 rp/s establishes recovery points"
        );
        let doc = report::campaign_json(&spec, &cells, &outcomes);
        let rows = doc.get("cells").and_then(Json::as_array).unwrap();
        for t in &twins {
            let d = rows[t.cell.id as usize].get("decomposition").unwrap();
            let field = |k: &str| d.get(k).and_then(Json::as_f64).unwrap();
            assert_eq!(field("total_overhead"), t.decomposition.total_overhead);
            assert_eq!(field("create"), t.decomposition.create);
            assert_eq!(field("commit"), t.decomposition.commit);
            assert_eq!(field("pollution"), t.decomposition.pollution);
        }
        // A selection runs the same cells: its rows match the full run's.
        let picked = vec![cells[0].clone(), cells[2].clone()];
        let picked_out = run(&picked);
        let t100 = report::twins(&picked, &picked_out);
        assert_eq!(t100.len(), 1);
        assert_eq!(t100[0].cell.cfg.ft.ckpt_rate_hz, 100.0);
        assert_eq!(t100[0].decomposition, twins[1].decomposition);
    }
}
