//! Machine-level behavioural tests: metrics plausibility, configuration
//! guards, and paper-shaped relationships between measured quantities.

use ftcoma_core::FtConfig;
use ftcoma_machine::{FailureKind, Machine, MachineConfig};
use ftcoma_mem::NodeId;
use ftcoma_workloads::presets;

fn base(ft: FtConfig) -> MachineConfig {
    MachineConfig {
        nodes: 9,
        refs_per_node: 20_000,
        warmup_refs_per_node: 10_000,
        workload: presets::barnes(),
        ft,
        ..MachineConfig::default()
    }
}

#[test]
fn ecp_allocates_at_least_as_many_pages() {
    let std_run = Machine::new(base(FtConfig::disabled())).run();
    let ft_run = Machine::new(base(FtConfig::enabled(200.0))).run();
    assert!(ft_run.pages_allocated >= std_run.pages_allocated);
    // And within the paper's envelope: never more than 4x.
    assert!(
        ft_run.pages_allocated <= 4 * std_run.pages_allocated,
        "ECP pages {} vs std {}",
        ft_run.pages_allocated,
        std_run.pages_allocated
    );
}

#[test]
fn ecp_run_is_slower_but_bounded() {
    let std_run = Machine::new(base(FtConfig::disabled())).run();
    let ft_run = Machine::new(base(FtConfig::enabled(400.0))).run();
    assert!(ft_run.total_cycles > std_run.total_cycles);
    assert!(
        (ft_run.total_cycles as f64) < 2.0 * std_run.total_cycles as f64,
        "overhead should stay far below 2x even at 400 rp/s"
    );
}

#[test]
fn shared_ck_reads_occur_under_ecp() {
    // The ECP's key property: unmodified recovery data stays readable.
    let ft_run = Machine::new(base(FtConfig::enabled(400.0))).run();
    assert!(ft_run.shared_ck_reads > 0);
    let std_run = Machine::new(base(FtConfig::disabled())).run();
    assert_eq!(std_run.shared_ck_reads, 0);
    assert_eq!(std_run.checkpoints, 0);
    assert_eq!(
        std_run.injections_total(),
        0,
        "full-size AM: no replacements"
    );
}

#[test]
fn checkpoint_count_matches_frequency() {
    let ft_run = Machine::new(base(FtConfig::enabled(400.0))).run();
    // One recovery point every 50k cycles; allow wide tolerance for the
    // warmup boundary and establishment time.
    let expected = ft_run.total_cycles / 50_000;
    assert!(
        ft_run.checkpoints + 2 >= expected && ft_run.checkpoints <= expected + 2,
        "expected ~{expected} checkpoints, got {}",
        ft_run.checkpoints
    );
}

#[test]
fn commit_is_much_cheaper_than_create() {
    let ft_run = Machine::new(base(FtConfig::enabled(400.0))).run();
    assert!(ft_run.t_create > 0);
    assert!(
        ft_run.t_commit < ft_run.t_create,
        "commit ({}) must be cheaper than create ({})",
        ft_run.t_commit,
        ft_run.t_create
    );
}

#[test]
fn miss_rates_stay_close_to_baseline() {
    // Fig 5's claim: the ECP barely disturbs the miss rates.
    let std_run = Machine::new(base(FtConfig::disabled())).run();
    let ft_run = Machine::new(base(FtConfig::enabled(400.0))).run();
    let delta = (ft_run.read_miss_rate() - std_run.read_miss_rate()).abs();
    assert!(delta < 0.02, "read miss rate moved by {delta}");
}

#[test]
#[should_panic(expected = "ECP")]
fn failures_require_fault_tolerance() {
    let mut m = Machine::new(base(FtConfig::disabled()));
    m.schedule_failure(1_000, NodeId::new(0), FailureKind::Transient);
}

#[test]
#[should_panic(expected = "four nodes")]
fn ecp_requires_four_nodes() {
    let cfg = MachineConfig {
        nodes: 3,
        ft: FtConfig::enabled(100.0),
        ..base(FtConfig::enabled(100.0))
    };
    let _ = Machine::new(cfg);
}

#[test]
fn warmup_shrinks_measured_window_only() {
    let with = Machine::new(base(FtConfig::disabled())).run();
    let mut cfg = base(FtConfig::disabled());
    cfg.warmup_refs_per_node = 0;
    let without = Machine::new(cfg).run();
    // Same measured refs per node (20k) either way — warmup runs extra
    // references before measurement starts — but the warmed-up run
    // excludes the cold start, so its measured miss rate is lower.
    assert_eq!(with.refs, without.refs);
    assert!(with.read_miss_rate() <= without.read_miss_rate());
}

#[test]
fn replication_throughput_is_in_paper_ballpark() {
    let ft_run = Machine::new(MachineConfig {
        nodes: 16,
        refs_per_node: 60_000,
        warmup_refs_per_node: 30_000,
        workload: presets::mp3d(),
        ft: FtConfig::enabled(400.0),
        ..MachineConfig::default()
    })
    .run();
    let mbps = ft_run.replication_throughput_bps() / 1e6;
    assert!(
        (5.0..60.0).contains(&mbps),
        "throughput {mbps} MB/s far from paper's ~20"
    );
}

#[test]
fn injection_mix_matches_paper_claim() {
    // "...the number of injections caused by write accesses on Shared-CK1
    // copies represents 88% to 98% of the total number of injections on
    // write accesses" (at 400 rp/s).
    let ft_run = Machine::new(MachineConfig {
        nodes: 16,
        refs_per_node: 60_000,
        warmup_refs_per_node: 30_000,
        workload: presets::mp3d(),
        ft: FtConfig::enabled(400.0),
        ..MachineConfig::default()
    })
    .run();
    let wr = ft_run.injections_on_write();
    assert!(wr > 0);
    let share = ft_run.injections_write_shared_ck as f64 / wr as f64;
    assert!(
        share > 0.7,
        "Shared-CK write-injection share only {share:.2}"
    );
}

#[test]
fn capacity_report_reflects_configuration() {
    let m = Machine::new(base(FtConfig::enabled(100.0)));
    let report = m.capacity_report();
    assert!(
        report.fits,
        "paper-sized AMs must satisfy the guarantee: {report}"
    );
    assert!(report.worst_utilization < 0.5);

    let tight = Machine::new(MachineConfig {
        am: ftcoma_mem::AmGeometry {
            capacity_bytes: 2 * 16 * 1024,
            ways: 1,
        },
        ..base(FtConfig::enabled(100.0))
    });
    assert!(!tight.capacity_report().fits);
}

#[test]
fn bus_fabric_runs_and_saturates_vs_mesh() {
    // The ECP works on a snooping-style shared bus too; the bus costs more
    // under the same load (everything arbitrates for one medium).
    let mesh_cfg = MachineConfig {
        nodes: 16,
        refs_per_node: 15_000,
        workload: presets::mp3d(),
        ft: FtConfig::enabled(400.0),
        verify: true,
        ..MachineConfig::default()
    };
    let bus_cfg = MachineConfig {
        fabric: ftcoma_net::FabricConfig::Bus(ftcoma_net::BusConfig::default()),
        ..mesh_cfg.clone()
    };
    let mut mesh_m = Machine::new(mesh_cfg);
    let mesh = mesh_m.run();
    mesh_m.assert_invariants();
    let mut bus_m = Machine::new(bus_cfg);
    let bus = bus_m.run();
    bus_m.assert_invariants();
    assert!(
        bus.total_cycles > mesh.total_cycles,
        "16 nodes must saturate the bus (bus {} vs mesh {})",
        bus.total_cycles,
        mesh.total_cycles
    );
    assert!(bus.net_contention_cycles > mesh.net_contention_cycles);
}

#[test]
fn barriers_synchronize_and_cost_time() {
    let free = Machine::new(base(FtConfig::enabled(200.0))).run();
    let mut cfg = base(FtConfig::enabled(200.0));
    cfg.workload = cfg.workload.with_barriers(2_000);
    let mut m = Machine::new(cfg);
    let barriered = m.run();
    m.assert_invariants();
    assert_eq!(barriered.refs, free.refs, "same work either way");
    assert!(
        barriered.total_cycles > free.total_cycles,
        "waiting at barriers must cost time ({} vs {})",
        barriered.total_cycles,
        free.total_cycles
    );
}

#[test]
fn barriers_survive_failures() {
    let mut cfg = base(FtConfig::enabled(400.0));
    cfg.workload = cfg.workload.with_barriers(1_500);
    cfg.warmup_refs_per_node = 0; // failures during warmup are baselined out
    cfg.verify = true;
    let mut m = Machine::new(cfg);
    m.schedule_failure(25_000, NodeId::new(2), FailureKind::Permanent);
    let run = m.run();
    assert_eq!(run.failures, 1);
    m.assert_invariants();
}

#[test]
fn short_checkpoint_periods_still_make_progress() {
    // A period shorter than an establishment used to pause every resumed
    // processor again before it could issue, so the run never ended.
    for freq in [1e3, 1e4, 1e5, 1e6, 1e7, 2e7] {
        let mut m = Machine::new(MachineConfig {
            nodes: 4,
            refs_per_node: 200,
            warmup_refs_per_node: 0,
            workload: presets::water(),
            ft: FtConfig::enabled(freq),
            ..MachineConfig::default()
        });
        m.run_until(500_000);
        assert!(
            m.stream_progress().iter().all(|&p| p == 200),
            "{freq} rp/s: streams stuck at {:?}",
            m.stream_progress()
        );
    }
}
