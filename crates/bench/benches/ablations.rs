//! Ablations of the ECP's two explicit optimisations (DESIGN.md §5):
//!
//! 1. **Replica reuse** in the create phase ("an optimization consists in
//!    choosing one of the replica to become the second recovery copy, thus
//!    avoiding a data transfer") — toggled via
//!    `FtConfig::reuse_shared_replica`;
//! 2. **Commit-scan optimisation** ("testing only the allocated pages in
//!    the AM") — toggled via `FtConfig::optimized_commit_scan`.

use ftcoma_bench::{banner, pct, run_one};
use ftcoma_core::{CommitStrategy, FtConfig};
use ftcoma_machine::{Decomposition, Machine, MachineConfig};
use ftcoma_net::mesh::SwitchingModel;
use ftcoma_net::NetConfig;
use ftcoma_workloads::presets;

fn main() {
    let (refs, warmup) = (60_000u64, 30_000u64);

    banner(
        "Ablation 1: create-phase replica reuse (Barnes, 100 rp/s)",
        "§3.3 — reuse avoids transfers where sharing already replicated the item",
    );
    let wl = presets::barnes();
    let std = run_one(&wl, 16, FtConfig::disabled(), refs, warmup);
    for reuse in [true, false] {
        let mut ft_cfg = FtConfig::enabled(100.0);
        ft_cfg.reuse_shared_replica = reuse;
        let ft = run_one(&wl, 16, ft_cfg, refs, warmup);
        let d = Decomposition::of(&ft, &std);
        println!(
            "reuse={:<5}  T_create={:>7}  transferred bytes={:>9}  reused={:>4.0}%",
            reuse,
            pct(d.create),
            ft.replication_bytes,
            ft.replica_reuse_fraction() * 100.0,
        );
    }

    banner(
        "Ablation 2: commit-scan optimisation (Cholesky, 100 rp/s)",
        "§4.1 — scan only allocated pages instead of the whole AM",
    );
    let wl = presets::cholesky();
    let std = run_one(&wl, 16, FtConfig::disabled(), refs, warmup);
    for optimized in [true, false] {
        let mut ft_cfg = FtConfig::enabled(100.0);
        ft_cfg.optimized_commit_scan = optimized;
        let d = Decomposition::of(&run_one(&wl, 16, ft_cfg, refs, warmup), &std);
        println!(
            "optimized={:<5}  T_commit={:>7}  total overhead={:>7}",
            optimized,
            pct(d.commit),
            pct(d.total_overhead),
        );
    }
    banner(
        "Ablation 3: commit strategy — scan vs generation counters (Cholesky)",
        "§4.2.3 — 'recovery point counters … would nullify T_commit'",
    );
    for strategy in [CommitStrategy::Scan, CommitStrategy::GenerationCounters] {
        let mut ft_cfg = FtConfig::enabled(400.0);
        ft_cfg.commit_strategy = strategy;
        let d = Decomposition::of(&run_one(&wl, 16, ft_cfg, refs, warmup), &std);
        println!(
            "{:<20?}  T_commit={:>7}  total overhead={:>7}",
            strategy,
            pct(d.commit),
            pct(d.total_overhead),
        );
    }

    banner(
        "Ablation 4: network switching model — virtual cut-through vs wormhole",
        "DESIGN.md §4.2 — identical zero-load latency, HOL blocking differs",
    );
    for switching in [SwitchingModel::VirtualCutThrough, SwitchingModel::Wormhole] {
        let cfg = MachineConfig {
            nodes: 16,
            refs_per_node: refs,
            warmup_refs_per_node: warmup,
            workload: presets::mp3d(),
            ft: FtConfig::enabled(400.0),
            net: NetConfig {
                switching,
                ..NetConfig::default()
            },
            ..MachineConfig::default()
        };
        let m = Machine::new(cfg).run();
        println!(
            "{:<20?}  total={:>10} cycles  net contention={:>9} cycles",
            switching, m.total_cycles, m.net_contention_cycles,
        );
    }
    banner(
        "Ablation 5: interconnect — shared snooping bus vs 2-D mesh",
        "§5 — 'the ECP can also be implemented with snooping coherence protocols';\n         the bus saturates with node count, which is why the paper targets meshes",
    );
    println!(
        "{:>7}  {:>14}  {:>14}  {:>8}",
        "nodes", "mesh cycles", "bus cycles", "bus/mesh"
    );
    for nodes in [4u16, 9, 16] {
        let mk = |bus| MachineConfig {
            nodes,
            refs_per_node: 20_000,
            warmup_refs_per_node: 10_000,
            workload: presets::mp3d(),
            ft: FtConfig::enabled(400.0),
            bus,
            ..MachineConfig::default()
        };
        let mesh = Machine::new(mk(None)).run();
        let bus = Machine::new(mk(Some(ftcoma_net::BusConfig::default()))).run();
        println!(
            "{:>7}  {:>14}  {:>14}  {:>7.2}x",
            nodes,
            mesh.total_cycles,
            bus.total_cycles,
            bus.total_cycles as f64 / mesh.total_cycles as f64,
        );
    }

    println!("\nthe paper also notes per-item recovery counters would nullify T_commit.");
}
