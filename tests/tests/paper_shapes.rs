//! Paper-shape regression tests: small, fast versions of the trends the
//! benchmark harness reproduces at full size, locked in as assertions so a
//! regression in any subsystem (protocol cost model, workload locality,
//! network contention) shows up in `cargo test`.

use ftcoma_core::FtConfig;
use ftcoma_machine::{Decomposition, Machine, MachineConfig};
use ftcoma_workloads::presets;

fn run(nodes: u16, freq: Option<f64>, refs: u64) -> ftcoma_machine::RunMetrics {
    let cfg = MachineConfig {
        nodes,
        refs_per_node: refs,
        warmup_refs_per_node: refs / 2,
        workload: presets::mp3d(),
        ft: freq.map_or_else(FtConfig::disabled, FtConfig::enabled),
        ..MachineConfig::default()
    };
    Machine::new(cfg).run()
}

#[test]
fn fig3_shape_overhead_falls_with_frequency() {
    let std_run = run(9, None, 30_000);
    let hi = run(9, Some(400.0), 30_000);
    let lo = run(9, Some(50.0), 30_000);
    let hi_ovh = Decomposition::of(&hi, &std_run).total_overhead;
    let lo_ovh = Decomposition::of(&lo, &std_run).total_overhead;
    assert!(
        hi_ovh > lo_ovh,
        "overhead must fall with the checkpoint frequency ({hi_ovh:.3} vs {lo_ovh:.3})"
    );
    // And stay in a paper-like envelope at both ends.
    assert!(hi_ovh < 0.8, "400 rp/s overhead exploded: {hi_ovh:.3}");
    assert!(lo_ovh < 0.4, "50 rp/s overhead exploded: {lo_ovh:.3}");
}

#[test]
fn fig3_shape_create_falls_with_frequency() {
    let hi = run(9, Some(400.0), 30_000);
    let lo = run(9, Some(50.0), 30_000);
    let std_run = run(9, None, 30_000);
    assert!(Decomposition::of(&hi, &std_run).create > Decomposition::of(&lo, &std_run).create);
}

#[test]
fn fig4_shape_replication_throughput_in_band() {
    let m = run(16, Some(400.0), 40_000);
    let mbps = m.replication_throughput_bps() / 1e6;
    assert!(
        (8.0..40.0).contains(&mbps),
        "throughput {mbps:.1} MB/s outside paper band"
    );
}

#[test]
fn fig5_shape_read_miss_rate_frequency_invariant() {
    let hi = run(9, Some(400.0), 30_000);
    let lo = run(9, Some(50.0), 30_000);
    let delta = (hi.read_miss_rate() - lo.read_miss_rate()).abs();
    assert!(
        delta < 0.01,
        "read miss rate moved {delta:.4} across frequencies"
    );
}

#[test]
fn fig6_shape_write_injections_grow_with_frequency() {
    let hi = run(9, Some(400.0), 30_000);
    let lo = run(9, Some(50.0), 30_000);
    assert!(
        hi.per_10k_refs(hi.injections_on_write()) > lo.per_10k_refs(lo.injections_on_write()),
        "write-triggered injections must grow with the checkpoint frequency"
    );
}

#[test]
fn fig7_shape_memory_overhead_bounded() {
    let std_run = run(9, None, 30_000);
    let ft_run = run(9, Some(100.0), 30_000);
    let ratio = ft_run.pages_allocated as f64 / std_run.pages_allocated.max(1) as f64;
    assert!(
        (1.0..=3.0).contains(&ratio),
        "page overhead {ratio:.2}x outside the paper's 1.1-2.6x envelope"
    );
}

#[test]
fn fig9_shape_aggregate_throughput_grows_with_nodes() {
    let small = run(9, Some(100.0), 20_000);
    let large = run(30, Some(100.0), 20_000);
    assert!(
        large.aggregate_replication_throughput_bps() > small.aggregate_replication_throughput_bps(),
        "aggregate replication bandwidth must grow with the machine"
    );
}

#[test]
fn mp3d_is_the_worst_case_at_high_frequency() {
    // The paper's headline ordering: Mp3d (high shared-write rate, largest
    // working set) pays the most at 400 rp/s.
    let mut overheads = Vec::new();
    for wl in presets::all() {
        let std_run = Machine::new(MachineConfig {
            nodes: 9,
            refs_per_node: 30_000,
            warmup_refs_per_node: 15_000,
            workload: wl.clone(),
            ft: FtConfig::disabled(),
            ..MachineConfig::default()
        })
        .run();
        let ft_run = Machine::new(MachineConfig {
            nodes: 9,
            refs_per_node: 30_000,
            warmup_refs_per_node: 15_000,
            workload: wl.clone(),
            ft: FtConfig::enabled(400.0),
            ..MachineConfig::default()
        })
        .run();
        let create = Decomposition::of(&ft_run, &std_run).create;
        overheads.push((wl.name.clone(), create));
    }
    let mp3d = overheads
        .iter()
        .find(|(n, _)| n == "Mp3d")
        .expect("mp3d measured")
        .1;
    for (name, create) in &overheads {
        assert!(
            mp3d >= *create,
            "Mp3d's create overhead ({mp3d:.3}) must dominate {name} ({create:.3})"
        );
    }
}

#[test]
fn table2_shape_remote_misses_cost_more_than_local() {
    // End-to-end restatement of Table 2's ordering through real runs: the
    // latency histogram must contain both ~1-cycle hits and >100-cycle
    // remote transactions.
    let m = run(9, None, 20_000);
    assert!(
        m.access_latency.quantile(0.05) <= 2.0,
        "hits must dominate the low end"
    );
    assert!(m.access_latency.max() >= 116, "remote misses must appear");
}
