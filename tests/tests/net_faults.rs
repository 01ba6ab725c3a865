//! End-to-end interconnect fault tolerance: the reliable transport must
//! mask message loss, fault-aware routing must detour around cut links
//! and dead routers, and unreachable peers must escalate into the
//! machine's existing reconfiguration path.

use ftcoma_core::{FtConfig, RecoveryOutcome};
use ftcoma_machine::tracelog::TraceEvent;
use ftcoma_machine::{FailureKind, Machine, MachineConfig};
use ftcoma_mem::NodeId;
use ftcoma_net::MeshGeometry;
use ftcoma_workloads::presets;

fn base() -> MachineConfig {
    MachineConfig {
        nodes: 8,
        refs_per_node: 4_000,
        warmup_refs_per_node: 0,
        workload: presets::water(),
        ft: FtConfig::enabled(1_000.0),
        verify: true,
        ..MachineConfig::default()
    }
}

#[test]
fn fault_free_runs_never_touch_the_transport() {
    let m = Machine::new(base()).run();
    assert_eq!(m.net_retries, 0);
    assert_eq!(m.net_timeouts, 0);
    assert_eq!(m.net_detour_hops, 0);
    assert_eq!(m.net_dropped_msgs, 0);
}

#[test]
fn message_loss_is_masked_by_retransmission() {
    let mut machine = Machine::new(base());
    machine.set_message_loss(3_000, 300);
    let m = machine.run();
    assert_eq!(*machine.outcome(), RecoveryOutcome::Recovered);
    assert!(m.net_dropped_msgs > 0, "the plan dropped nothing");
    assert!(m.net_retries > 0, "losses must be retransmitted");
    assert!(m.net_timeouts >= m.net_retries);
    // No node failed: the transport absorbed the episode entirely.
    assert_eq!(m.failures, 0);
    assert!(machine.check_invariants().is_empty());
}

#[test]
fn message_loss_runs_are_deterministic() {
    let run = || {
        let mut machine = Machine::new(base());
        machine.set_message_loss(3_000, 300);
        machine.run()
    };
    assert_eq!(run(), run());
}

#[test]
fn link_cut_detours_traffic_and_still_recovers() {
    let mut machine = Machine::new(base());
    machine.schedule_link_cut(2_000, NodeId::new(0), NodeId::new(1));
    let m = machine.run();
    assert_eq!(*machine.outcome(), RecoveryOutcome::Recovered);
    assert!(m.net_detour_hops > 0, "cut-link traffic must misroute");
    assert_eq!(m.failures, 0, "a single cut never severs the mesh");
    // The report marks exactly the cut link (both directions) dead.
    let geo = MeshGeometry::for_nodes(8);
    let ends = [geo.coords(NodeId::new(0)), geo.coords(NodeId::new(1))];
    let dead: Vec<_> = machine
        .link_report()
        .into_iter()
        .filter(|l| !l.alive)
        .map(|l| (l.from, l.to))
        .collect();
    assert!(!dead.is_empty());
    for (from, to) in &dead {
        assert!(
            ends.contains(from) && ends.contains(to),
            "only 0<->1 was cut, got {from:?}->{to:?}"
        );
    }
}

/// The reliable path switches on at the first interconnect fault a
/// machine hears of, whatever its kind: a link cut that never fires
/// changes exactly what a bare preactivation does.
#[test]
fn a_link_cut_past_the_end_switches_on_the_transport_and_nothing_else() {
    let plain = Machine::new(base()).run();
    let mut pre = Machine::new(base());
    pre.preactivate_transport();
    let pre = pre.run();
    let mut cut = Machine::new(base());
    cut.schedule_link_cut(2 * pre.total_cycles, NodeId::new(0), NodeId::new(1));
    assert_eq!(cut.run(), pre);
    // Transport acks ride the mesh too.
    assert!(pre.net_messages > plain.net_messages);
}

#[test]
fn link_cut_and_message_loss_compose_in_either_order() {
    let run = |cut_first: bool| {
        let mut machine = Machine::new(base());
        let cut = |m: &mut Machine| m.schedule_link_cut(2_000, NodeId::new(0), NodeId::new(1));
        if cut_first {
            cut(&mut machine);
        }
        machine.set_message_loss(3_000, 300);
        if !cut_first {
            cut(&mut machine);
        }
        (machine.run(), machine.outcome().clone())
    };
    let (m, outcome) = run(true);
    assert_eq!(outcome, RecoveryOutcome::Recovered);
    assert!(m.net_dropped_msgs > 0 && m.net_detour_hops > 0);
    assert_eq!(run(false), (m, outcome));
}

#[test]
fn router_down_escalates_into_a_permanent_node_failure() {
    let mut cfg = base();
    cfg.trace_capacity = 100_000;
    let mut machine = Machine::new(cfg);
    machine.schedule_router_down(5_000, NodeId::new(3));
    let m = machine.run();
    // The victim's peers exhaust their retries, then reconfigure around
    // it exactly as they would for a fail-stop node.
    assert_eq!(*machine.outcome(), RecoveryOutcome::Recovered);
    assert!(m.net_timeouts > 0, "escalation needs exhausted retries");
    assert_eq!(m.failures, 1);
    let trace = machine.trace();
    assert!(trace
        .iter()
        .any(|e| matches!(e, TraceEvent::RouterDown { node, .. } if node.index() == 3)));
    assert!(trace.iter().any(
        |e| matches!(e, TraceEvent::Failure { node, permanent: true, .. } if node.index() == 3)
    ));
    assert!(machine.check_invariants().is_empty());
}

/// Regression for routing through permanently failed nodes: a dead node's
/// router must stop carrying third-party traffic, and the links incident
/// to it must be reported dead.
#[test]
fn permanent_node_failure_kills_its_router() {
    let mut machine = Machine::new(base());
    machine.schedule_failure(5_000, NodeId::new(4), FailureKind::Permanent);
    let m = machine.run();
    assert_eq!(*machine.outcome(), RecoveryOutcome::Recovered);
    assert_eq!(m.failures, 1);
    let dead_router = MeshGeometry::for_nodes(8).coords(NodeId::new(4));
    let report = machine.link_report();
    assert!(report
        .iter()
        .any(|l| !l.alive && (l.from == dead_router || l.to == dead_router)));
    // Links between live nodes stay up.
    assert!(report
        .iter()
        .filter(|l| l.from != dead_router && l.to != dead_router)
        .all(|l| l.alive));
}

/// Both ways an exhausted transport escalates, on a 3x3 mesh. Cutting
/// corner 0's two links leaves it alone against a live majority, which
/// carries on and fails it; cutting corner 8 off as well makes 8 give up
/// on 0 with neither of them in the majority, so no side can safely
/// reconfigure and the machine halts.
#[test]
fn escalation_fails_a_cut_off_node_or_halts_on_a_partition() {
    let run = |cuts: &[(u16, u16)]| {
        let mut machine = Machine::new(MachineConfig {
            nodes: 9,
            refs_per_node: 20_000,
            ft: FtConfig::enabled(400.0),
            ..base()
        });
        for &(a, b) in cuts {
            machine.schedule_link_cut(30_000, NodeId::new(a), NodeId::new(b));
        }
        let m = machine.run();
        let dead = machine.nodes().iter().filter(|n| !n.alive).map(|n| n.id);
        (m, machine.outcome().clone(), dead.collect::<Vec<_>>())
    };
    let (m, outcome, dead) = run(&[(0, 1), (0, 3)]);
    assert_eq!(outcome, RecoveryOutcome::Recovered);
    assert_eq!((m.failures, m.faults_survived), (1, 1));
    assert_eq!(dead, [NodeId::new(0)]);
    let (_, outcome, _) = run(&[(0, 1), (0, 3), (8, 7), (8, 5)]);
    let (from, to) = (NodeId::new(8), NodeId::new(0));
    assert!(
        matches!(outcome, RecoveryOutcome::PartitionedNetwork { from: f, to: t, .. } if (f, t) == (from, to)),
        "{outcome:?}"
    );
}
