//! Cross-cutting tests for the alternative fabrics (wormhole switching,
//! shared bus) and the observability features (trace log, latency
//! histogram, capacity report).

use ftcoma_core::FtConfig;
use ftcoma_machine::tracelog::TraceEvent;
use ftcoma_machine::{FailureKind, Machine, MachineConfig};
use ftcoma_mem::NodeId;
use ftcoma_net::{BusConfig, FabricConfig, NetConfig};
use ftcoma_workloads::presets;

fn base() -> MachineConfig {
    MachineConfig {
        nodes: 9,
        refs_per_node: 10_000,
        workload: presets::mp3d(),
        ft: FtConfig::enabled(400.0),
        verify: true,
        ..MachineConfig::default()
    }
}

#[test]
fn wormhole_switching_preserves_correctness() {
    let mut m = Machine::new(MachineConfig {
        fabric: FabricConfig::Mesh(NetConfig::wormhole()),
        ..base()
    });
    m.schedule_failure(20_000, NodeId::new(3), FailureKind::Transient);
    let run = m.run();
    assert_eq!(run.failures, 1);
    m.assert_invariants();
}

#[test]
fn bus_fabric_preserves_correctness_under_failure() {
    let mut m = Machine::new(MachineConfig {
        fabric: FabricConfig::Bus(BusConfig::default()),
        ..base()
    });
    m.schedule_failure(30_000, NodeId::new(5), FailureKind::Permanent);
    let run = m.run();
    assert_eq!(run.failures, 1);
    m.assert_invariants();
}

#[test]
fn single_medium_bus_works_too() {
    let bus = BusConfig {
        split_classes: false,
        ..BusConfig::default()
    };
    let mut m = Machine::new(MachineConfig {
        fabric: FabricConfig::Bus(bus),
        ..base()
    });
    m.run();
    m.assert_invariants();
}

#[test]
fn trace_orders_failure_before_recovery() {
    let mut m = Machine::new(MachineConfig {
        trace_capacity: 1_000_000,
        ..base()
    });
    m.schedule_failure(25_000, NodeId::new(2), FailureKind::Transient);
    m.run();
    let trace = m.trace();
    let failure_pos = trace
        .iter()
        .position(|e| matches!(e, TraceEvent::Failure { .. }))
        .expect("failure traced");
    let recovered_pos = trace
        .iter()
        .position(|e| matches!(e, TraceEvent::Recovered { .. }))
        .expect("recovery traced");
    assert!(failure_pos < recovered_pos);
    // Timestamps are monotone.
    let times: Vec<_> = trace.iter().map(TraceEvent::at).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn trace_disabled_by_default() {
    let mut m = Machine::new(base());
    m.run();
    assert!(m.trace().is_empty());
}

#[test]
fn tracing_is_zero_cost() {
    // Enabling every observability sink (trace ring, span log, epoch
    // time-series sampler) must not perturb the simulation: identical
    // timing, identical RNG stream, identical metrics (including the
    // always-on phase histograms and availability timeline), event for
    // event.
    let mut quiet = Machine::new(MachineConfig {
        trace_capacity: 0,
        timeseries_every: 0,
        ..base()
    });
    let mut traced = Machine::new(MachineConfig {
        trace_capacity: 1_000_000,
        timeseries_every: 5_000,
        ..base()
    });
    quiet.schedule_failure(25_000, NodeId::new(2), FailureKind::Transient);
    traced.schedule_failure(25_000, NodeId::new(2), FailureKind::Transient);
    let a = quiet.run();
    let b = traced.run();
    assert_eq!(a.total_cycles, b.total_cycles, "tracing changed the timing");
    assert_eq!(a, b, "tracing changed the metrics");
    assert!(quiet.trace().is_empty());
    assert!(!traced.trace().is_empty());
    assert!(quiet.spans().is_empty() && quiet.timeseries().is_empty());
    assert!(!traced.spans().is_empty(), "spans collected when enabled");
    assert!(
        !traced.timeseries().is_empty(),
        "time-series sampled when enabled"
    );
}

/// Satellite regression: a small `--trace-capacity` ring must wrap by
/// evicting the *oldest* span closes — the newest closes (the end-of-run
/// tail of a full-capacity log) always survive.
#[test]
fn span_ring_wraparound_never_drops_newest_closes() {
    let run_with = |capacity: usize| {
        let mut m = Machine::new(MachineConfig {
            trace_capacity: capacity,
            ..base()
        });
        m.schedule_failure(25_000, NodeId::new(2), FailureKind::Transient);
        m.run();
        m.spans()
    };
    let full = run_with(1_000_000);
    let small = run_with(64);
    assert!(
        full.len() > 64,
        "fixture too small to exercise wraparound ({} spans)",
        full.len()
    );
    assert_eq!(small.len(), 64);
    // The bounded log's content is exactly the newest 64 closes of the
    // full log (same run: the sink is pure observation).
    assert_eq!(small, full[full.len() - 64..].to_vec());
}

#[test]
fn per_node_metrics_sum_to_machine_totals() {
    let mut m = Machine::new(base());
    let run = m.run();
    assert_eq!(run.per_node.len(), 9);
    let refs: u64 = run.per_node.iter().map(|n| n.refs).sum();
    let read_misses: u64 = run.per_node.iter().map(|n| n.read_misses).sum();
    let write_misses: u64 = run.per_node.iter().map(|n| n.write_misses).sum();
    let injections: u64 = run.per_node.iter().map(|n| n.injections).sum();
    let items: u64 = run.per_node.iter().map(|n| n.items_checkpointed).sum();
    let repl: u64 = run.per_node.iter().map(|n| n.replication_bytes).sum();
    let pages: u64 = run.per_node.iter().map(|n| n.pages_allocated).sum();
    assert_eq!(refs, run.refs);
    assert_eq!(read_misses, run.read_misses);
    assert_eq!(write_misses, run.write_misses);
    assert_eq!(injections, run.injections_total());
    assert_eq!(items, run.items_checkpointed);
    assert_eq!(repl, run.replication_bytes);
    assert_eq!(pages, run.pages_allocated);
    if run.checkpoints > 0 {
        assert!(
            run.per_node.iter().any(|n| n.ckpt_stall_cycles > 0),
            "checkpoints must charge stall time to the nodes"
        );
    }
}

#[test]
fn link_report_covers_mesh_traffic() {
    let mut m = Machine::new(base());
    let run = m.run();
    let links = m.link_report();
    assert!(!links.is_empty());
    let messages: u64 = links.iter().map(|l| l.stats.messages).sum();
    // Each remote message crosses >= 1 link; local ones cross none.
    assert!(messages >= 1);
    for l in &links {
        let u = l.utilization(run.total_cycles);
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }
    // Bus fabrics report no links.
    let mut bus = Machine::new(MachineConfig {
        fabric: FabricConfig::Bus(BusConfig::default()),
        ..base()
    });
    bus.run();
    assert!(bus.link_report().is_empty());
}

#[test]
fn latency_histogram_covers_hits_and_misses() {
    let mut m = Machine::new(base());
    let run = m.run();
    assert_eq!(
        run.access_latency.count(),
        run.refs,
        "every reference must be accounted in the latency histogram"
    );
    assert!(
        run.access_latency.quantile(0.1) <= 2.0,
        "cache hits dominate the low end"
    );
    assert!(
        run.access_latency.max() >= 116,
        "remote misses reach Table-2 latencies"
    );
}

#[test]
fn capacity_report_printable() {
    let m = Machine::new(base());
    let report = m.capacity_report();
    let text = format!("{report}");
    assert!(text.contains("guarantee holds"), "{text}");
}
