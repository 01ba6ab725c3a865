//! Figs. 3–6 — the recovery-point-frequency sweep (one sweep regenerates
//! all four figures; they are different views of the same experiment).
//!
//! * Fig. 3: execution-time overhead decomposed into T_create + T_commit +
//!   T_pollution (paper: 5 % best case to 35 % worst case, falling with
//!   the frequency; Mp3d worst; T_commit small);
//! * Fig. 4: per-node replication throughput during establishment
//!   (paper: ~20 MB/s; Barnes ~30 MB/s effective thanks to 52 % replica
//!   reuse);
//! * Fig. 5: AM miss rates (paper: negligible variation with frequency —
//!   recovery data stays readable until modified);
//! * Fig. 6: injections per 10 000 references (paper: ≤ ~25; writes grow
//!   with frequency and are 88–98 % on Shared-CK1 copies; reads roughly
//!   frequency-independent).
//!
//! The sweep is `specs/paper-grid.json`: every row is a cell of the report
//! `ftcoma campaign --spec specs/paper-grid.json --out` writes, and
//! `FTCOMA_BENCH_JSON` exports that report itself.

use ftcoma_bench::{banner, mbps, paper_grid, pct, quick_mode, run, write_bench_doc};
use ftcoma_campaign::{report, CampaignSpec};

/// Quick mode (CI smoke): two workloads at two frequencies on a small
/// mesh, long enough that every ECP cell establishes a recovery point
/// (at least 3 at 400 rp/s and 1 at 200 rp/s; a 200 rp/s period is 100k
/// cycles) — exercises the whole path, including the JSON export, in
/// under a second.
const QUICK_GRID: &str = r#"{
    "name": "paper-grid-quick",
    "seed": 1996,
    "workloads": ["water", "mp3d"],
    "nodes": [4],
    "freqs": [400, 200],
    "refs": 24000,
    "warmup": 1000
}"#;

fn main() {
    let spec = if quick_mode() {
        CampaignSpec::parse(QUICK_GRID).expect("the quick grid is a valid spec")
    } else {
        paper_grid()
    };
    let cells = spec.expand();
    let outcomes = run(&cells);

    // Structured export (set FTCOMA_BENCH_JSON to a directory to enable).
    let doc = report::campaign_json(&spec, &cells, &outcomes);
    match write_bench_doc("fig3_6_frequency_sweep", &doc) {
        Ok(Some(path)) => eprintln!("wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("bench JSON export failed: {e}"),
    }

    let sweep = report::twins(&cells, &outcomes);
    banner(
        "Fig 3: time overhead vs recovery-point frequency (16 nodes)",
        "§4.2.3, Fig. 3 — paper range: 5% best to 35% worst (Mp3d @400)",
    );
    for t in &sweep {
        let d = t.decomposition;
        println!(
            "{:<10} {:>5} rp/s  create={:>6}  commit={:>6}  pollution={:>6}  total={:>6}  ckpts={}",
            t.cell.cfg.workload.name,
            t.cell.cfg.ft.ckpt_rate_hz,
            pct(d.create),
            pct(d.commit),
            pct(d.pollution),
            pct(d.total_overhead),
            t.ft.checkpoints,
        );
    }

    banner(
        "Fig 4: per-node replication throughput during establishment",
        "§4.2.3, Fig. 4 — paper: ~20 MB/s/node, Barnes ~30 MB/s effective",
    );
    for t in &sweep {
        println!(
            "{:<10} {:>5} rp/s  transferred={:>11}  effective={:>11}  reused={:>4.0}%",
            t.cell.cfg.workload.name,
            t.cell.cfg.ft.ckpt_rate_hz,
            mbps(t.ft.replication_throughput_bps()),
            mbps(t.ft.effective_replication_throughput_bps()),
            t.ft.replica_reuse_fraction() * 100.0,
        );
    }

    banner(
        "Fig 5: AM miss rates vs frequency",
        "§4.2.3, Fig. 5 — paper: negligible variation across frequencies",
    );
    for t in &sweep {
        let ck = if t.ft.reads == 0 {
            0.0
        } else {
            t.ft.shared_ck_reads as f64 / t.ft.reads as f64
        };
        println!(
            "{:<10} {:>5} rp/s  read={:>6.2}% (std {:>5.2}%)  write={:>6.2}% (std {:>5.2}%)  CK-reads={:>5.1}%",
            t.cell.cfg.workload.name,
            t.cell.cfg.ft.ckpt_rate_hz,
            t.ft.read_miss_rate() * 100.0,
            t.std.read_miss_rate() * 100.0,
            t.ft.write_miss_rate() * 100.0,
            t.std.write_miss_rate() * 100.0,
            ck * 100.0,
        );
    }

    banner(
        "Fig 6: injections per 10k references vs frequency",
        "§4.2.3, Fig. 6 — paper: <=~25 total; writes grow with rp/s, 88-98% on Shared-CK1",
    );
    for t in &sweep {
        let ft = t.ft;
        let wr = ft.injections_on_write();
        let sck = if wr == 0 {
            0.0
        } else {
            ft.injections_write_shared_ck as f64 / wr as f64 * 100.0
        };
        println!(
            "{:<10} {:>5} rp/s  on-read={:>5.1}  on-write={:>5.1}  total={:>5.1}  S-CK1 share={:>3.0}%",
            t.cell.cfg.workload.name,
            t.cell.cfg.ft.ckpt_rate_hz,
            ft.per_10k_refs(ft.injections_on_read),
            ft.per_10k_refs(wr),
            ft.per_10k_refs(ft.injections_total()),
            sck,
        );
    }
}
