//! Recoverable DSVM: the ECP on a software shared-memory system.
//!
//! The paper closes with: "our approach is more generally applicable to
//! architectures implementing a shared memory on top of distributed
//! physical memories. In particular, it can be used to implement a
//! recoverable distributed shared virtual memory (DSVM) on top of a
//! multicomputer or a network of workstations."
//!
//! This example reconfigures the same machine model for that regime:
//! software protocol handlers (hundreds of cycles per action instead of
//! tens) and a shared-medium network, then compares checkpointing
//! overheads against the hardware COMA.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example recoverable_dsvm
//! ```

use ftcoma_core::FtConfig;
use ftcoma_machine::{Decomposition, Machine, MachineConfig};
use ftcoma_net::BusConfig;
use ftcoma_protocol::MemTiming;
use ftcoma_workloads::presets;

fn overheads(cfg_base: MachineConfig, freq: f64) -> (f64, f64) {
    let std_run = Machine::new(MachineConfig {
        ft: FtConfig::disabled(),
        ..cfg_base.clone()
    })
    .run();
    let ft_run = Machine::new(MachineConfig {
        ft: FtConfig::enabled(freq),
        ..cfg_base
    })
    .run();
    let d = Decomposition::of(&ft_run, &std_run);
    (d.total_overhead, d.create)
}

fn main() {
    let workload = presets::water();

    // The paper's hardware COMA.
    let coma = MachineConfig {
        nodes: 8,
        refs_per_node: 60_000,
        warmup_refs_per_node: 30_000,
        workload: workload.clone(),
        ..MachineConfig::default()
    };

    // A software DSVM on a network of workstations: software handlers,
    // one shared network segment.
    let dsvm = MachineConfig {
        timing: MemTiming::software_dsm(),
        bus: Some(BusConfig {
            arbitration: 200,
            propagation: 400,
            ni_overhead: 600, // protocol-stack traversal
            ..BusConfig::default()
        }),
        refs_per_node: 400_000,
        warmup_refs_per_node: 80_000,
        ..coma.clone()
    };

    // Checkpoint cadence follows the substrate: the hardware COMA can
    // afford 200 recovery points per second; a software DSVM checkpoints
    // two orders of magnitude less often (the paper's DSVM systems
    // checkpointed on the scale of seconds).
    let (coma_total, coma_create) = overheads(coma, 200.0);
    let (dsvm_total, dsvm_create) = overheads(dsvm, 4.0);

    println!("Water, 8 nodes; COMA at 200 rp/s, DSVM at 4 rp/s\n");
    println!("{:<28} {:>12} {:>12}", "", "hardware COMA", "software DSVM");
    println!(
        "{:<28} {:>11.1}% {:>11.1}%",
        "checkpointing overhead",
        coma_total * 100.0,
        dsvm_total * 100.0
    );
    println!(
        "{:<28} {:>11.1}% {:>11.1}%",
        "  of which T_create",
        coma_create * 100.0,
        dsvm_create * 100.0
    );
    println!();
    println!("same protocol, software constants: the establishment (create) phase");
    println!("dominates because every 128-byte item pays a software handler; a real");
    println!("DSVM moves 4 KB pages, amortising that cost ~32x. What carries over");
    println!("is the structure the paper's DSVM implementations reported: recovery");
    println!("data lives in the (virtual) memories, commit stays negligible, and");
    println!("the algorithms are unchanged — only the constants move.");
}
