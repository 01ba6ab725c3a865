//! Checkpoint-frequency tuning: how does the recovery-point rate trade
//! off failure-free overhead against the amount of lost work on rollback?
//!
//! For each frequency this prints the paper's overhead decomposition plus
//! the worst-case work lost to a failure (one full interval). Higher rates
//! bound the lost work tightly but replicate more data; the sweet spot
//! depends on the machine's failure rate.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example checkpoint_tuning
//! ```

use ftcoma_core::FtConfig;
use ftcoma_machine::{Decomposition, Machine, MachineConfig};
use ftcoma_sim::Clock;
use ftcoma_workloads::presets;

fn main() {
    let clock = Clock::ksr1();
    let workload = presets::cholesky();
    println!("workload: {} on 16 nodes\n", workload.name);
    println!(
        "{:>8}  {:>9}  {:>8}  {:>8}  {:>8}  {:>10}  {:>12}",
        "rp/s", "overhead", "create", "commit", "pollute", "data/ckpt", "max lost work"
    );

    let base = MachineConfig {
        nodes: 16,
        refs_per_node: 80_000,
        warmup_refs_per_node: 40_000,
        workload,
        ..MachineConfig::default()
    };

    for freq in [400.0, 200.0, 100.0, 50.0, 25.0] {
        let period = clock.period_for_rate_hz(freq);
        // Keep several recovery points inside the measured window.
        let scale = (period / 25_000).max(1);
        let cfg = MachineConfig {
            ft: FtConfig::enabled(freq),
            refs_per_node: base.refs_per_node * scale.min(8),
            warmup_refs_per_node: base.warmup_refs_per_node * scale.min(8),
            ..base.clone()
        };
        let ft = Machine::new(cfg).run();
        // Baseline: the standard run at the same length.
        let std_len = Machine::new(MachineConfig {
            ft: FtConfig::disabled(),
            refs_per_node: base.refs_per_node * scale.min(8),
            warmup_refs_per_node: base.warmup_refs_per_node * scale.min(8),
            ..base.clone()
        })
        .run();
        let d = Decomposition::of(&ft, &std_len);
        let kb_per_ckpt =
            ft.items_checkpointed as f64 * 128.0 / 1024.0 / ft.checkpoints.max(1) as f64;
        println!(
            "{:>8}  {:>8.1}%  {:>7.1}%  {:>7.1}%  {:>7.1}%  {:>7.1} KB  {:>9.1} ms",
            freq,
            d.total_overhead * 100.0,
            d.create * 100.0,
            d.commit * 100.0,
            d.pollution * 100.0,
            kb_per_ckpt,
            clock.cycles_to_secs(period) * 1_000.0,
        );
    }
}
