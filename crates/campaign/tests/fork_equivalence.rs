//! Property test for snapshot-fork execution: a run forked from a
//! pre-injection prefix snapshot — at *any* cycle at or before the
//! injection — must produce a report byte-identical to running the same
//! cell straight from cycle 0. Scenario kinds, victims, injection cycles
//! and fork cycles are all drawn from a seeded generator, and the forks go
//! through the production [`SnapshotForge`] so its floor-lookup cache is
//! exercised with out-of-order probes. Two machine-level cases cover the
//! fork points the campaign runner never uses: mid-recovery and inside an
//! active message-loss episode.

use ftcoma_campaign::{
    needs_net, run_cell, run_cell_on, Cell, Scenario, ScenarioKind, SnapshotForge,
};
use ftcoma_core::FtConfig;
use ftcoma_machine::{FailureKind, Machine, MachineConfig};
use ftcoma_mem::NodeId;
use ftcoma_workloads::presets;

/// xorshift64*: deterministic, dependency-free draws for the property.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn pick(state: &mut u64, lo: u64, hi: u64) -> u64 {
    lo + next(state) % (hi - lo + 1)
}

const NODES: u16 = 8;

fn cfg() -> MachineConfig {
    MachineConfig {
        nodes: NODES,
        refs_per_node: 2_000,
        warmup_refs_per_node: 0,
        workload: presets::water(),
        ft: FtConfig::enabled(400.0),
        verify: true,
        seed: 0x5EED_F0CA,
        ..MachineConfig::default()
    }
}

/// One random forkable scenario. Victims stay inside the machine and
/// link cuts use a horizontally adjacent mesh pair (even, even+1), which
/// is adjacent on every row-major mesh shape for 8 nodes.
fn random_scenario(state: &mut u64) -> Scenario {
    let at = pick(state, 1_000, 6_000);
    let node = pick(state, 0, u64::from(NODES) - 1) as u16;
    let other = |state: &mut u64, avoid: u16| loop {
        let n = pick(state, 0, u64::from(NODES) - 1) as u16;
        if n != avoid {
            return n;
        }
    };
    let kind = match pick(state, 0, 7) {
        0 => ScenarioKind::Transient,
        1 => ScenarioKind::Permanent,
        2 => ScenarioKind::Cycle {
            period: pick(state, 3_000, 6_000),
            count: pick(state, 2, 3) as u32,
        },
        3 => ScenarioKind::BackToBack {
            gap: pick(state, 20, 2_000),
            second_node: other(state, node),
        },
        4 => {
            let second_node = other(state, node);
            let third_node = loop {
                let n = other(state, node);
                if n != second_node {
                    break n;
                }
            };
            let gap2 = if next(state).is_multiple_of(2) {
                0
            } else {
                pick(state, 20, 1_500)
            };
            ScenarioKind::Nested {
                gap: pick(state, 20, 1_500),
                second_node,
                gap2,
                third_node,
                permanent_mask: match pick(state, 0, if gap2 > 0 { 2 } else { 1 }) {
                    0 => 0,
                    1 => 0b001,
                    _ => 0b010,
                },
            }
        }
        5 => {
            // Remap the victim onto an even index so (node, node + 1) is a
            // horizontally adjacent mesh link.
            return Scenario {
                kind: ScenarioKind::LinkCut {
                    to_node: (node & !1) + 1,
                },
                node: node & !1,
                at,
                repair_at: None,
            };
        }
        6 => ScenarioKind::RouterDown,
        _ => ScenarioKind::MessageLoss {
            rate: pick(state, 50, 500) as u32,
        },
    };
    let repair_at = match kind {
        ScenarioKind::Permanent if next(state).is_multiple_of(2) => {
            Some(at + pick(state, 10_000, 30_000))
        }
        _ => None,
    };
    Scenario {
        kind,
        node,
        at,
        repair_at,
    }
}

fn assert_outcomes_match(
    got: &ftcoma_campaign::CellOutcome,
    want: &ftcoma_campaign::CellOutcome,
    what: &str,
) {
    assert_eq!(got.metrics, want.metrics, "{what}: metrics diverged");
    assert_eq!(
        got.owner_image, want.owner_image,
        "{what}: owner image diverged"
    );
    assert_eq!(got.stream_progress, want.stream_progress, "{what}");
    assert_eq!(got.links, want.links, "{what}");
    assert_eq!(got.trace, want.trace, "{what}");
    assert_eq!(got.spans, want.spans, "{what}");
    assert_eq!(got.timeseries, want.timeseries, "{what}");
    assert_eq!(got.data_loss_certified, want.data_loss_certified, "{what}");
    assert_eq!(
        format!("{:?}", got.outcome),
        format!("{:?}", want.outcome),
        "{what}: outcome diverged"
    );
}

#[test]
fn forked_runs_match_straight_runs_for_random_scenarios_and_fork_cycles() {
    let mut state = 0x0DDB_1A5E_D5EE_D001_u64;
    // One forge per transport band, shared across all draws: the random,
    // out-of-order fork cycles make the floor lookup + incremental prefix
    // extension do real work.
    let mut forges = [
        SnapshotForge::new(cfg(), false),
        SnapshotForge::new(cfg(), true),
    ];
    for case in 0..12 {
        let scenario = random_scenario(&mut state);
        let cell = Cell {
            id: case,
            group: 0,
            label: format!("prop/{}", scenario.label()),
            cfg: cfg(),
            scenario,
        };
        // Fork anywhere at or before the injection, not just at it.
        let fork_at = pick(&mut state, 0, scenario.at);
        let forge = &mut forges[usize::from(needs_net(&scenario.kind))];
        let forked = run_cell_on(&cell, forge.machine_at(fork_at));
        let straight = run_cell(&cell);
        assert_outcomes_match(
            &forked,
            &straight,
            &format!("{} forked@{fork_at}", cell.label),
        );
    }
}

#[test]
fn forking_mid_recovery_matches_a_straight_run() {
    // Straight: both faults scheduled before the run.
    let mut straight = Machine::new(cfg());
    straight.schedule_failure(3_000, NodeId::new(2), FailureKind::Transient);
    straight.schedule_failure(4_500, NodeId::new(5), FailureKind::Transient);
    let want = straight.run();

    // Forked: first fault runs, then the fork lands 1..600 cycles after
    // the injection — squarely inside (and just around) the recovery
    // window — and the second fault is scheduled post-fork.
    for delta in [1, 40, 150, 600] {
        let mut prefix = Machine::new(cfg());
        prefix.schedule_failure(3_000, NodeId::new(2), FailureKind::Transient);
        prefix.run_until(3_000 + delta);
        let snap = prefix.snapshot();
        let mut forked = snap.to_machine();
        forked.schedule_failure(4_500, NodeId::new(5), FailureKind::Transient);
        let got = forked.run();
        assert_eq!(got, want, "fork at +{delta} diverged");
        assert_eq!(forked.owner_image(), straight.owner_image());
        assert_eq!(forked.stream_progress(), straight.stream_progress());
        assert_eq!(
            format!("{:?}", forked.outcome()),
            format!("{:?}", straight.outcome())
        );
    }
}

#[test]
fn forking_inside_an_active_loss_episode_matches_a_straight_run() {
    // Straight: the loss episode and the node fault are both pre-scheduled.
    let mut straight = Machine::new(cfg());
    straight.set_message_loss(2_000, 150);
    straight.schedule_failure(5_000, NodeId::new(1), FailureKind::Transient);
    let want = straight.run();
    assert!(
        want.net_dropped_msgs > 0,
        "episode must actually drop packets"
    );

    // Forked: snapshot mid-episode (the drop window is thousands of
    // cycles wide), then add the node fault at the fork.
    let mut prefix = Machine::new(cfg());
    prefix.set_message_loss(2_000, 150);
    prefix.run_until(3_500);
    let mut forked = prefix.snapshot().to_machine();
    forked.schedule_failure(5_000, NodeId::new(1), FailureKind::Transient);
    let got = forked.run();
    assert_eq!(got, want);
    assert_eq!(forked.owner_image(), straight.owner_image());
    assert_eq!(forked.stream_progress(), straight.stream_progress());
}

#[test]
fn forking_after_a_link_cut_matches_a_straight_run() {
    // Straight: both cuts scheduled before the run.
    let mut straight = Machine::new(cfg());
    straight.schedule_link_cut(2_000, NodeId::new(0), NodeId::new(1));
    straight.schedule_link_cut(5_000, NodeId::new(5), NodeId::new(6));
    let want = straight.run();
    assert!(want.net_detour_hops > 0, "the cuts must divert traffic");

    // Forked: the snapshot lands on a damaged mesh whose route cache the
    // traffic since the first cut has filled; the second cut, scheduled
    // after the fork, must empty the fork's copy of that cache.
    let mut prefix = Machine::new(cfg());
    prefix.schedule_link_cut(2_000, NodeId::new(0), NodeId::new(1));
    prefix.run_until(3_500);
    let mut forked = prefix.snapshot().to_machine();
    forked.schedule_link_cut(5_000, NodeId::new(5), NodeId::new(6));
    let got = forked.run();
    assert_eq!(got, want);
    assert_eq!(forked.owner_image(), straight.owner_image());
    assert_eq!(forked.stream_progress(), straight.stream_progress());
    assert_eq!(forked.link_report(), straight.link_report());
}
