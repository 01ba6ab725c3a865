//! Table 1 — the new injections introduced by the ECP.
//!
//! | cause        | local copy state | action                  |
//! |--------------|------------------|-------------------------|
//! | replacement  | Shared-CK        | injection               |
//! | replacement  | Inv-CK           | injection               |
//! | read access  | Inv-CK           | injection + read miss   |
//! | write access | Inv-CK           | injection + write miss  |
//! | write access | Shared-CK        | injection + write miss  |
//!
//! The access-triggered causes are measured from the Mp3d cell at 400
//! rp/s of `specs/paper-grid.json` (the cell `ftcoma campaign --spec
//! specs/paper-grid.json` runs); the replacement cause is demonstrated
//! with a deterministic page-conflict micro-scenario
//! (`probe::force_replacement_injection`), since the full-size AM never
//! replaces pages in the paper's experiments either ("no capacity
//! replacements occur during the simulations").

use ftcoma_bench::{banner, paper_grid};
use ftcoma_campaign::run_cell;
use ftcoma_machine::probe;

fn main() {
    banner(
        "Table 1: new injections introduced by the ECP",
        "§4.1, Table 1",
    );

    // Access-triggered causes: the paper grid's Mp3d cell at 400 rp/s.
    let cell = paper_grid()
        .expand()
        .into_iter()
        .find(|c| c.is_ft() && c.cfg.workload.name == "Mp3d" && c.cfg.ft.ckpt_rate_hz == 400.0)
        .expect("the paper grid runs Mp3d at 400 rp/s");
    let m = run_cell(&cell).metrics;

    // Replacement-triggered cause: deterministic page-set conflict.
    let demo = probe::force_replacement_injection();

    println!(
        "{:<16} {:<18} {:<26} {:>10}",
        "cause", "local copy state", "action", "observed"
    );
    println!(
        "{:<16} {:<18} {:<26} {:>10}",
        "replacement", "master / CK copy", "injection", demo.replacement_injections
    );
    println!(
        "{:<16} {:<18} {:<26} {:>10}",
        "read access", "Inv-CK", "injection + read miss", m.injections_on_read
    );
    println!(
        "{:<16} {:<18} {:<26} {:>10}",
        "write access", "Inv-CK", "injection + write miss", m.injections_write_inv_ck
    );
    println!(
        "{:<16} {:<18} {:<26} {:>10}",
        "write access", "Shared-CK", "injection + write miss", m.injections_write_shared_ck
    );

    assert!(
        m.injections_on_read > 0,
        "read-on-InvCk injections must occur"
    );
    assert!(
        m.injections_write_shared_ck > 0,
        "write-on-SharedCk injections must occur"
    );
    assert_eq!(
        demo.replacement_injections, 1,
        "forced replacement injects exactly once"
    );
    println!(
        "\nreplacement demo: master displaced to {}, faulting access took {} cycles",
        demo.new_host, demo.access_latency
    );
    println!("all of Table 1's injection causes observed.");
}
