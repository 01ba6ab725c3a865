//! Scalability: the ECP's overheads as the machine grows from 9 to 56
//! nodes (the paper's §4.2.5), at 100 recovery points per second.
//!
//! The per-node recovery-data volume shrinks (fixed-size application split
//! across more nodes) while the aggregate replication throughput grows
//! nearly linearly, so the create overhead stays flat or falls — the
//! paper's scalability argument.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example scalability
//! ```

use ftcoma_core::FtConfig;
use ftcoma_machine::{Decomposition, Machine, MachineConfig};
use ftcoma_workloads::presets;

fn main() {
    println!("workload: Mp3d, 100 recovery points per second\n");
    println!(
        "{:>6}  {:>9}  {:>10}  {:>14}  {:>16}",
        "nodes", "create", "pollution", "KB/ckpt/node", "aggregate MB/s"
    );

    for nodes in [9u16, 16, 30, 42, 56] {
        // Fixed-size application: the shared data set stays constant and
        // the per-node private share shrinks as it is split across more
        // processors. Per-node run length stays constant so every point
        // measures steady state.
        let mut workload = presets::mp3d();
        workload.private_pages_per_node = (48 / u64::from(nodes)).max(1);
        let base = MachineConfig {
            nodes,
            refs_per_node: 60_000,
            warmup_refs_per_node: 30_000,
            workload,
            ..MachineConfig::default()
        };
        let std_run = Machine::new(MachineConfig {
            ft: FtConfig::disabled(),
            ..base.clone()
        })
        .run();
        let ft = Machine::new(MachineConfig {
            ft: FtConfig::enabled(100.0),
            ..base.clone()
        })
        .run();
        let d = Decomposition::of(&ft, &std_run);
        println!(
            "{:>6}  {:>8.1}%  {:>9.1}%  {:>14.1}  {:>16.1}",
            nodes,
            d.create * 100.0,
            d.pollution * 100.0,
            ft.items_checkpointed as f64 * 128.0
                / 1024.0
                / ft.checkpoints.max(1) as f64
                / f64::from(nodes),
            ft.aggregate_replication_throughput_bps() / 1e6,
        );
    }
}
