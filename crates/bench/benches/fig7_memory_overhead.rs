//! Fig. 7 — memory overhead: pages allocated by the ECP architecture
//! versus the standard one.
//!
//! Paper: the overhead ranges from 1.1x to 2.6x; applications dominated by
//! shared pages stay below 1.5x because the recovery copies reuse already
//! allocated (replicated) pages, while private pages pay the replication.
//!
//! The rows are the 100 rp/s cells of `specs/paper-grid.json` and their
//! baselines, the same cells `ftcoma campaign --spec
//! specs/paper-grid.json` runs.

use ftcoma_bench::{banner, groups_of, paper_grid, run};
use ftcoma_campaign::report;

fn main() {
    let cells = groups_of(&paper_grid().expand(), |c| {
        c.is_ft() && c.cfg.ft.ckpt_rate_hz == 100.0
    });
    let outcomes = run(&cells);
    banner(
        "Fig 7: page allocation, ECP vs standard protocol (16 nodes)",
        "§4.2.4, Fig. 7 — paper: overhead 1.1x to 2.6x",
    );
    println!(
        "{:<10} {:>12} {:>12} {:>9}",
        "app", "std pages", "ECP pages", "ratio"
    );
    for t in report::twins(&cells, &outcomes) {
        let ratio = t.ft.pages_allocated as f64 / t.std.pages_allocated.max(1) as f64;
        println!(
            "{:<10} {:>12} {:>12} {:>8.2}x",
            t.cell.cfg.workload.name, t.std.pages_allocated, t.ft.pages_allocated, ratio
        );
        assert!(
            ratio >= 1.0,
            "ECP cannot allocate fewer pages than the baseline"
        );
    }
    println!("\nshared pages are already replicated by normal COMA operation, so");
    println!("recovery copies often land in pages the standard protocol allocates");
    println!("anyway; private pages pay for their replica pages.");
}
