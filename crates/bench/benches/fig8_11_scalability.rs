//! Figs. 8–11 — scalability of the ECP from 9 to 56 processors at 100
//! recovery points per second (one sweep regenerates all four figures).
//!
//! * Fig. 8: T_create overhead is constant or *decreases* with more
//!   processors (per-processor recovery data shrinks for a fixed-size
//!   application);
//! * Fig. 9: aggregate replication throughput grows nearly linearly
//!   (paper: 211 MB/s at 9 processors to 1.1 GB/s at 56 for Cholesky);
//! * Fig. 10: the pollution effect stays flat or decreases;
//! * Fig. 11: injections on writes stay constant; injections on reads
//!   *decrease* with more processors.
//!
//! Each machine size is one campaign: the four workloads, scaled to a
//! fixed-size application, each a standard/ECP twin at 100 rp/s.

use ftcoma_bench::{banner, mbps, pct, run, PAPER_SIZES};
use ftcoma_campaign::report::{self, Twin};
use ftcoma_campaign::{CampaignSpec, Lengths};
use ftcoma_workloads::presets;

/// The campaign of one machine size.
fn spec(nodes: u16) -> CampaignSpec {
    CampaignSpec {
        name: format!("fig8_11-n{nodes}"),
        // Fixed-size application: the per-node private share shrinks as
        // the problem is split across more processors.
        workloads: presets::all()
            .into_iter()
            .map(|mut wl| {
                wl.private_pages_per_node =
                    (wl.private_pages_per_node * 16 / u64::from(nodes)).max(1);
                wl
            })
            .collect(),
        nodes: vec![nodes],
        freqs: vec![100.0],
        lengths: Lengths::Fixed {
            refs: 60_000,
            warmup: 30_000,
        },
        ..CampaignSpec::default()
    }
}

fn main() {
    let runs: Vec<_> = PAPER_SIZES
        .iter()
        .map(|&nodes| {
            let cells = spec(nodes).expand();
            let outcomes = run(&cells);
            (cells, outcomes)
        })
        .collect();
    let results: Vec<Twin> = runs
        .iter()
        .flat_map(|(cells, outcomes)| report::twins(cells, outcomes))
        .collect();

    banner(
        "Fig 8: T_create overhead vs number of processors (100 rp/s)",
        "§4.2.5, Fig. 8 — paper: constant or decreasing",
    );
    print_per_size(&results, |t| pct(t.decomposition.create));

    banner(
        "Fig 9: aggregate replication throughput vs processors",
        "§4.2.5, Fig. 9 — paper: near-linear growth (211 MB/s @9 -> 1.1 GB/s @56)",
    );
    print_per_size(&results, |t| {
        mbps(t.ft.aggregate_replication_throughput_bps())
    });

    banner(
        "Fig 10: pollution effect vs number of processors",
        "§4.2.5, Fig. 10 — paper: constant or decreasing",
    );
    print_per_size(&results, |t| pct(t.decomposition.pollution));

    banner(
        "Fig 11: injections per node per 10k references vs processors",
        "§4.2.5, Fig. 11 — paper: writes constant, reads decrease",
    );
    print_per_size(&results, |t| {
        format!(
            "r={:.1} w={:.1}",
            t.ft.per_10k_refs(t.ft.injections_on_read),
            t.ft.per_10k_refs(t.ft.injections_on_write())
        )
    });
}

fn print_per_size(results: &[Twin], f: impl Fn(&Twin) -> String) {
    print!("{:<10}", "app");
    for &n in &PAPER_SIZES {
        print!(" {:>14}", format!("{n} nodes"));
    }
    println!();
    for wl in ["Barnes", "Cholesky", "Mp3d", "Water"] {
        print!("{wl:<10}");
        for &n in &PAPER_SIZES {
            let twin = results
                .iter()
                .find(|t| t.cell.cfg.workload.name == wl && t.cell.cfg.nodes == n)
                .expect("sweep covers all points");
            print!(" {:>14}", f(twin));
        }
        println!();
    }
}
