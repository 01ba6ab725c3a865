//! Quickstart: simulate the same workload on the standard COMA-F machine
//! and on the fault-tolerant (ECP) machine, and decompose the overhead.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ftcoma_core::FtConfig;
use ftcoma_machine::{Decomposition, Machine, MachineConfig};
use ftcoma_workloads::presets;

fn main() {
    // A 16-node (4x4 mesh) machine running the synthetic Mp3d workload —
    // the paper's worst case for checkpointing overhead.
    let base = MachineConfig {
        nodes: 16,
        refs_per_node: 60_000,
        warmup_refs_per_node: 30_000,
        workload: presets::mp3d(),
        ..MachineConfig::default()
    };

    // Baseline: the standard coherence protocol.
    let std_run = Machine::new(MachineConfig {
        ft: FtConfig::disabled(),
        ..base.clone()
    })
    .run();

    // ECP: 100 recovery points per simulated second.
    let mut ft_machine = Machine::new(MachineConfig {
        ft: FtConfig::enabled(100.0),
        ..base
    });
    let ft_run = ft_machine.run();
    ft_machine.assert_invariants();

    let d = Decomposition::of(&ft_run, &std_run);

    println!("workload            : Mp3d (16 nodes, 100 recovery points/s)");
    println!("standard execution  : {:>12} cycles", std_run.total_cycles);
    println!("fault-tolerant      : {:>12} cycles", ft_run.total_cycles);
    println!("overhead            : {:>11.1} %", d.total_overhead * 100.0);
    println!("  T_create          : {:>11.1} %", d.create * 100.0);
    println!("  T_commit          : {:>11.1} %", d.commit * 100.0);
    println!("  T_pollution       : {:>11.1} %", d.pollution * 100.0);
    println!("recovery points     : {:>12}", ft_run.checkpoints);
    println!(
        "replication         : {:>11.1} MB/s per node during establishment",
        ft_run.replication_throughput_bps() / 1e6
    );
    println!(
        "injections          : {:>11.1} per 10k references",
        ft_run.per_10k_refs(ft_run.injections_total())
    );
    println!("protocol invariants : OK (exactly two recovery copies per item)");
}
