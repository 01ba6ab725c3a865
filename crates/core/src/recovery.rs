//! Rollback and post-failure reconfiguration.
//!
//! After a failure is detected, "each node scans its local memory and
//! invalidates all current item copies (in state Shared, Exclusive or
//! Master-Shared) as well as Pre-Commit copies. … Inv-CK copies are
//! restored to Shared-CK. … No action is required for Shared-CK copies."
//! For a *permanent* failure, "each Shared-CK copy has to check whether its
//! replica is still alive or not. If not, a new Shared-CK copy has to be
//! created on a safe node" — see [`collect_singleton_orphans`], which finds
//! such copies by counting live copies per item rather than by chasing
//! partner pointers (robust to stale ones); its output feeds
//! [`crate::Engine::begin_reconfig`].
//!
//! The paper does not detail how the localization pointers of a failed home
//! are rebuilt; [`rebuild_homes`] implements the natural mechanism (owners
//! re-register with the possibly-migrated home) as a
//! reproduction-completing extension (DESIGN.md §3).
//!
//! Recovery is **restartable** (DESIGN.md §6): a fault landing while a
//! previous recovery is still in flight re-enters the whole pipeline
//! against the on-node committed state instead of halting. [`audit_copies`]
//! is the per-item copy-accounting audit that decides whether a restart is
//! possible — only a written committed item with zero live copies is
//! certified unrecoverable ([`RecoveryOutcome::UnrecoverableDataLoss`]).

use ftcoma_mem::addr::ITEMS_PER_PAGE;
use ftcoma_mem::{ItemId, ItemState, NodeId};
use ftcoma_net::LogicalRing;
use ftcoma_protocol::{home_of, MemTiming, NodeState};
use ftcoma_sim::Cycles;

/// Final recovery verdict of a whole run.
///
/// The machine starts out `Recovered` (a run without failures trivially
/// satisfies the recovery contract) and degrades monotonically. Recovery
/// itself is *restartable*: a fault striking while a previous recovery is
/// still in flight abandons that recovery, folds the new victim into the
/// failure set and re-enters from the on-node committed state — the
/// paper's single-failure hypothesis (§2) is replaced by per-item copy
/// accounting. Only a *certified* loss (a written committed item with
/// zero live copies left) becomes
/// [`RecoveryOutcome::UnrecoverableDataLoss`]; a post-recovery memory
/// image that contradicts the committed recovery point becomes
/// [`RecoveryOutcome::InvariantViolation`]. Either terminal state halts
/// the machine instead of aborting the process, so harnesses can report
/// the outcome structurally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Every injected failure was recovered from (or none occurred).
    #[default]
    Recovered,
    /// The copy-accounting audit certified that a written committed item
    /// retains zero live copies: every node holding either recovery
    /// replica died before a restarted recovery could re-replicate it.
    /// No reconfiguration can reconstruct the value, so the machine
    /// halts fail-stop.
    UnrecoverableDataLoss {
        /// Simulation time of the fault that destroyed the last copy.
        at: Cycles,
        /// The lowest-numbered item certified lost.
        item: ItemId,
    },
    /// Post-recovery verification found an inconsistent memory image.
    InvariantViolation {
        /// Simulation time at which verification failed.
        at: Cycles,
        /// Human-readable violation reports.
        problems: Vec<String>,
    },
    /// Interconnect faults split the mesh: after exhausting its transport
    /// retries, the machine found both itself and its peer cut off from the
    /// majority of live nodes. No reconfiguration can restore a consistent
    /// memory image across the split, so the machine halts fail-stop.
    PartitionedNetwork {
        /// Simulation time at which the partition was diagnosed.
        at: Cycles,
        /// The node whose transport gave up.
        from: NodeId,
        /// The unreachable peer.
        to: NodeId,
    },
}

impl RecoveryOutcome {
    /// True iff the run never left the recovered state.
    pub fn is_recovered(&self) -> bool {
        matches!(self, RecoveryOutcome::Recovered)
    }

    /// Stable machine-readable tag (`recovered` /
    /// `unrecoverable_data_loss` / `invariant_violation` /
    /// `partitioned_network`).
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryOutcome::Recovered => "recovered",
            RecoveryOutcome::UnrecoverableDataLoss { .. } => "unrecoverable_data_loss",
            RecoveryOutcome::InvariantViolation { .. } => "invariant_violation",
            RecoveryOutcome::PartitionedNetwork { .. } => "partitioned_network",
        }
    }
}

impl std::fmt::Display for RecoveryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryOutcome::Recovered => write!(f, "recovered"),
            RecoveryOutcome::UnrecoverableDataLoss { at, item } => {
                write!(f, "unrecoverable data loss of {item} at cycle {at}")
            }
            RecoveryOutcome::InvariantViolation { at, problems } => {
                write!(f, "invariant violation at cycle {at}:")?;
                for p in problems {
                    write!(f, "\n  {p}")?;
                }
                Ok(())
            }
            RecoveryOutcome::PartitionedNetwork { at, from, to } => {
                write!(
                    f,
                    "network partitioned at cycle {at}: {from} cannot reach {to}"
                )
            }
        }
    }
}

/// Outcome of one node's rollback scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RollbackStats {
    /// Current copies (Shared / Master-Shared / Exclusive) invalidated.
    pub current_invalidated: u64,
    /// Pre-Commit copies of an unfinished establishment invalidated.
    pub precommit_invalidated: u64,
    /// `Inv-CK` copies restored to `Shared-CK`.
    pub restored: u64,
    /// Simulated cycles the scan took.
    pub duration: Cycles,
}

/// Rolls one live node back to the last committed recovery point.
///
/// Besides the AM scan this clears the cache and every piece of protocol
/// metadata (home pointers, directory entries, reservations) — the caller
/// must rebuild the localization pointers afterwards with
/// [`rebuild_homes`].
pub fn rollback_node(ns: &mut NodeState, t: &MemTiming) -> RollbackStats {
    let mut stats = RollbackStats::default();
    ns.cache.invalidate_all();

    let items: Vec<_> = ns.am.iter_present().map(|(i, s)| (i, s.state)).collect();
    for (item, state) in items {
        match state {
            ItemState::Shared | ItemState::MasterShared | ItemState::Exclusive => {
                ns.am.clear_slot(item);
                stats.current_invalidated += 1;
            }
            ItemState::PreCommit1 | ItemState::PreCommit2 => {
                ns.am.clear_slot(item);
                stats.precommit_invalidated += 1;
            }
            ItemState::InvCk1 => {
                ns.am.set_state(item, ItemState::SharedCk1);
                stats.restored += 1;
            }
            ItemState::InvCk2 => {
                ns.am.set_state(item, ItemState::SharedCk2);
                stats.restored += 1;
            }
            ItemState::SharedCk1 | ItemState::SharedCk2 => {}
            ItemState::Invalid => unreachable!("iter_present yields present copies"),
        }
    }

    ns.home.clear();
    ns.dir.clear();
    ns.reserved.clear();
    ns.pending_fill.clear();

    stats.duration = t.commit_scan(ns.am.allocated_pages() as u64, ITEMS_PER_PAGE);
    stats
}

/// Erases a permanently failed node: its memory contents are lost and it
/// leaves the protocol.
pub fn wipe_dead_node(ns: &mut NodeState) {
    ns.alive = false;
    ns.cache.invalidate_all();
    let pages: Vec<_> = ns.am.pages().collect();
    for page in pages {
        let items: Vec<_> = page.items().collect();
        for item in items {
            if ns.am.state(item).is_present() {
                // Bypass the injection guard: the copies are *lost*, which
                // is the point of the failure model.
                if let Some(s) = ns.am.slot_mut(item) {
                    *s = Default::default();
                }
            }
        }
        ns.am.evict_page(page);
    }
    ns.home.clear();
    ns.dir.clear();
    ns.reserved.clear();
    ns.pending_fill.clear();
}

/// After the rollback and dedup passes of a *permanent* failure: finds
/// every committed recovery copy whose sibling no longer exists on any
/// live node, promotes the survivor to `Shared-CK1` and returns the
/// orphans grouped by surviving host (in node order, each node's items in
/// its AM's deterministic iteration order).
///
/// This deliberately does **not** chase partner pointers, as a literal
/// reading of the paper would: a copy that had just finished migrating
/// when the failure struck may leave its sibling's pointer aimed at the
/// *old* host (the `PartnerUpdate` message was purged with the rest of
/// the in-flight traffic), so a pointer scan misses the orphan when the
/// fault kills the new host. Counting live copies per item is immune to
/// stale pointers.
pub fn collect_singleton_orphans(nodes: &mut [NodeState]) -> Vec<(NodeId, Vec<ItemId>)> {
    use std::collections::HashMap;
    let mut copies: HashMap<ItemId, u32> = HashMap::new();
    for ns in nodes.iter() {
        if !ns.alive {
            continue;
        }
        for (item, slot) in ns.am.iter_present() {
            if slot.state.is_committed_recovery() {
                *copies.entry(item).or_default() += 1;
            }
        }
    }
    let mut by_node: Vec<(NodeId, Vec<ItemId>)> = Vec::new();
    for ns in nodes.iter_mut() {
        if !ns.alive {
            continue;
        }
        let orphans: Vec<ItemId> = ns
            .am
            .items_where(|s| s.state.is_committed_recovery())
            .into_iter()
            .filter(|item| copies.get(item) == Some(&1))
            .collect();
        for &item in &orphans {
            let slot = ns.am.slot_mut(item).expect("orphan present");
            debug_assert!(matches!(
                slot.state,
                ItemState::SharedCk1 | ItemState::SharedCk2
            ));
            slot.state = ItemState::SharedCk1; // survivor becomes the primary
            slot.partner = None;
        }
        if !orphans.is_empty() {
            by_node.push((ns.id, orphans));
        }
    }
    by_node
}

/// Per-item data-loss certification: the copy-accounting audit behind the
/// restartable-recovery model.
///
/// Counts the live committed recovery copies (`Shared-CK1/2`) of every
/// item and splits the committed set (`(item, committed value)` pairs from
/// the last committed recovery point) into:
///
/// * `lost` — *written* committed items (value ≠ 0) with **zero** live
///   copies. These are certified data loss: the value existed only in the
///   recovery pair and every host of either replica has died, so no
///   reconfiguration can reconstruct it. Sorted ascending, so `lost[0]`
///   is the deterministic representative for reporting.
/// * `droppable` — never-written committed items (value 0) with zero live
///   copies. Their content is the well-known initial value: the machine
///   recreates them on first touch (the same path that serves items
///   annihilated by a pre-first-commit rollback), so losing every copy is
///   survivable. The caller must drop them from its committed-set oracle
///   or post-recovery verification would demand copies of a recreatable
///   item.
///
/// Recovery may restart as long as `lost` is empty — this is the audit
/// that retired the paper's blanket single-failure halt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CopyAudit {
    /// Written committed items with zero live copies (certified loss).
    pub lost: Vec<ItemId>,
    /// Never-written committed items with zero live copies (recreatable).
    pub droppable: Vec<ItemId>,
}

/// Runs the copy-accounting audit of `committed` (the last committed
/// recovery point's `(item, value)` pairs) against the live nodes' memory
/// images. Pointer-agnostic like [`collect_singleton_orphans`]: only copy
/// counts matter, so stale partner pointers cannot hide a loss.
pub fn audit_copies(
    nodes: &[NodeState],
    committed: impl IntoIterator<Item = (ItemId, u64)>,
) -> CopyAudit {
    use std::collections::HashSet;
    let mut present: HashSet<ItemId> = HashSet::new();
    for ns in nodes.iter().filter(|n| n.alive) {
        for (item, slot) in ns.am.iter_present() {
            if slot.state.is_committed_recovery() {
                present.insert(item);
            }
        }
    }
    let mut audit = CopyAudit::default();
    for (item, value) in committed {
        if !present.contains(&item) {
            if value == 0 {
                audit.droppable.push(item);
            } else {
                audit.lost.push(item);
            }
        }
    }
    audit.lost.sort_unstable();
    audit.droppable.sort_unstable();
    audit
}

/// Repairs recovery pairs damaged by in-flight injections at failure time.
///
/// A recovery copy that was mid-move when the failure struck can exist
/// twice after the rollback: the origin had not yet cleared its slot while
/// the destination had already installed the copy (both hold the same
/// committed value, so either is valid). This global pass — part of the
/// stop-the-world recovery, like the scans — keeps exactly one copy per
/// replica index (highest generation, then lowest node id, for
/// determinism), drops the leftovers, and re-points the partners at each
/// other.
pub fn dedup_recovery_copies(nodes: &mut [NodeState]) {
    use std::collections::HashMap;

    // item -> (replica index -> candidate copies as (gen, node)).
    let mut seen: HashMap<ItemId, [Vec<(u64, usize)>; 2]> = HashMap::new();
    for (idx, ns) in nodes.iter().enumerate() {
        if !ns.alive {
            continue;
        }
        for (item, slot) in ns.am.iter_present() {
            if let Some(r) = slot.state.replica_index() {
                if slot.state.is_committed_recovery() {
                    seen.entry(item).or_default()[usize::from(r) - 1].push((slot.ckpt_gen, idx));
                }
            }
        }
    }

    for (item, mut by_replica) in seen {
        let keep: Vec<Option<usize>> = by_replica
            .iter_mut()
            .map(|cands| {
                cands.sort_by_key(|&(gen, node)| (std::cmp::Reverse(gen), node));
                cands.first().map(|&(_, node)| node)
            })
            .collect();
        for cands in &by_replica {
            for &(_, node) in cands.iter().skip(1) {
                nodes[node].cache.invalidate_item(item);
                nodes[node].am.clear_slot(item);
            }
        }
        // Re-point the surviving pair at each other.
        if let (Some(a), Some(b)) = (keep[0], keep[1]) {
            let b_id = nodes[b].id;
            let a_id = nodes[a].id;
            nodes[a]
                .am
                .slot_mut(item)
                .expect("survivor present")
                .partner = Some(b_id);
            nodes[b]
                .am
                .slot_mut(item)
                .expect("survivor present")
                .partner = Some(a_id);
        }
    }
}

/// Rebuilds every localization pointer from the *current owners* (any
/// owner-state copy), used when home responsibility moves while the
/// machine is quiescent — e.g. when a repaired node rejoins the ring and
/// takes its statically-assigned home range back from its successor.
pub fn rebuild_homes_from_owners(nodes: &mut [NodeState], ring: &LogicalRing) {
    let mut registrations: Vec<(ItemId, NodeId)> = Vec::new();
    for ns in nodes.iter_mut() {
        ns.home.clear();
    }
    for ns in nodes.iter() {
        if !ns.alive {
            continue;
        }
        for (item, slot) in ns.am.iter_present() {
            if slot.state.is_owner() {
                registrations.push((item, ns.id));
            }
        }
    }
    for (item, owner) in registrations {
        let home = home_of(item, ring);
        nodes[home.index()].home.set_owner(item, owner);
    }
}

/// Rebuilds every localization pointer from the surviving `Shared-CK1`
/// copies: each owner re-registers with the item's (possibly migrated)
/// home, and owner directory entries are re-created empty (all plain
/// `Shared` copies were invalidated by the rollback).
pub fn rebuild_homes(nodes: &mut [NodeState], ring: &LogicalRing) {
    let mut registrations: Vec<(ItemId, NodeId)> = Vec::new();
    for ns in nodes.iter_mut() {
        if !ns.alive {
            continue;
        }
        let owned = ns.am.items_where(|s| s.state == ItemState::SharedCk1);
        for &item in &owned {
            ns.dir.create(item, Vec::new());
            registrations.push((item, ns.id));
        }
    }
    for (item, owner) in registrations {
        let home = home_of(item, ring);
        nodes[home.index()].home.set_owner(item, owner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcoma_mem::{ItemId, ItemSlot, LineState};

    fn install(ns: &mut NodeState, idx: u64, st: ItemState, partner: Option<NodeId>) {
        let item = ItemId::new(idx);
        if !ns.am.has_page(item.page()) {
            ns.am.allocate_page(item.page()).unwrap();
        }
        ns.am.install(item, st, idx, partner);
    }

    #[test]
    fn rollback_restores_recovery_point() {
        let mut ns = NodeState::ksr1(NodeId::new(0));
        install(&mut ns, 0, ItemState::Exclusive, None);
        install(&mut ns, 1, ItemState::Shared, None);
        install(&mut ns, 2, ItemState::MasterShared, None);
        install(&mut ns, 3, ItemState::InvCk1, Some(NodeId::new(1)));
        install(&mut ns, 4, ItemState::InvCk2, Some(NodeId::new(1)));
        install(&mut ns, 5, ItemState::SharedCk2, Some(NodeId::new(1)));
        install(&mut ns, 6, ItemState::PreCommit1, None);
        ns.home.set_owner(ItemId::new(0), NodeId::new(0));
        ns.dir.create(ItemId::new(0), vec![]);

        let stats = rollback_node(&mut ns, &MemTiming::ksr1());
        assert_eq!(stats.current_invalidated, 3);
        assert_eq!(stats.precommit_invalidated, 1);
        assert_eq!(stats.restored, 2);
        assert_eq!(ns.am.state(ItemId::new(3)), ItemState::SharedCk1);
        assert_eq!(ns.am.state(ItemId::new(4)), ItemState::SharedCk2);
        assert_eq!(ns.am.state(ItemId::new(5)), ItemState::SharedCk2);
        assert_eq!(ns.am.state(ItemId::new(0)), ItemState::Invalid);
        assert!(ns.home.is_empty());
        assert!(ns.dir.is_empty());
        assert!(stats.duration > 0);
    }

    #[test]
    fn singleton_scan_finds_orphans_with_stale_partner_pointers() {
        // Pair was (n0, n2); the n2 copy had just migrated to n1 when n1
        // died, and the PartnerUpdate to n0 was purged in flight: n0 still
        // points at n2, which holds nothing. A pointer scan for
        // partner == n1 finds no orphan; the copy count does.
        let mut nodes = vec![
            NodeState::ksr1(NodeId::new(0)),
            NodeState::ksr1(NodeId::new(1)),
            NodeState::ksr1(NodeId::new(2)),
        ];
        install(&mut nodes[0], 0, ItemState::SharedCk2, Some(NodeId::new(2)));
        // An intact pair on (n0, n2) must be left alone.
        install(&mut nodes[0], 1, ItemState::SharedCk1, Some(NodeId::new(2)));
        install(&mut nodes[2], 1, ItemState::SharedCk2, Some(NodeId::new(0)));
        // A primary whose secondary sat on the dead node is an orphan too.
        install(&mut nodes[0], 2, ItemState::SharedCk1, Some(NodeId::new(1)));
        nodes[1].alive = false;

        let orphans = collect_singleton_orphans(&mut nodes);
        assert_eq!(
            orphans,
            vec![(NodeId::new(0), vec![ItemId::new(0), ItemId::new(2)])]
        );
        // Each survivor is (or stays) the primary, unpaired.
        for item in [0, 2] {
            let slot = nodes[0].am.slot(ItemId::new(item)).unwrap();
            assert_eq!(slot.state, ItemState::SharedCk1);
            assert_eq!(slot.partner, None);
        }
        // The intact pair kept its states and pointers.
        assert_eq!(nodes[0].am.state(ItemId::new(1)), ItemState::SharedCk1);
        assert_eq!(nodes[2].am.state(ItemId::new(1)), ItemState::SharedCk2);
    }

    #[test]
    fn copy_audit_certifies_only_written_zero_copy_items() {
        let mut nodes = vec![
            NodeState::ksr1(NodeId::new(0)),
            NodeState::ksr1(NodeId::new(1)),
        ];
        // Item 0: one live copy left — not lost. Item 1: no live copy and a
        // written value — certified loss. Item 2: no live copy but never
        // written — droppable. Item 3: copy only on a dead node — lost.
        install(&mut nodes[0], 0, ItemState::SharedCk1, Some(NodeId::new(1)));
        install(&mut nodes[1], 3, ItemState::SharedCk2, Some(NodeId::new(0)));
        nodes[1].alive = false;
        let committed = [
            (ItemId::new(0), 10),
            (ItemId::new(1), 11),
            (ItemId::new(2), 0),
            (ItemId::new(3), 13),
        ];
        let audit = audit_copies(&nodes, committed);
        assert_eq!(audit.lost, vec![ItemId::new(1), ItemId::new(3)]);
        assert_eq!(audit.droppable, vec![ItemId::new(2)]);
        // Everything present: a clean audit.
        nodes[1].alive = true;
        let clean = audit_copies(&nodes, [(ItemId::new(0), 10), (ItemId::new(3), 13)]);
        assert_eq!(clean, CopyAudit::default());
    }

    #[test]
    fn dedup_keeps_the_newest_then_lowest_node_copy_and_repairs_the_pair() {
        let mut nodes: Vec<NodeState> = (0..4).map(|i| NodeState::ksr1(NodeId::new(i))).collect();
        let mut ck = |node: usize, item: u64, st: ItemState, partner: u16, gen: u64| {
            install(&mut nodes[node], item, st, Some(NodeId::new(partner)));
            nodes[node].am.slot_mut(ItemId::new(item)).unwrap().ckpt_gen = gen;
        };
        // Item 0: two Shared-CK1 copies of equal generation; the lower node
        // id (n1) stays. Its Shared-CK2 copy on n3 points at the other one,
        // and the survivor's own pointer is stale.
        ck(1, 0, ItemState::SharedCk1, 0, 5);
        ck(2, 0, ItemState::SharedCk1, 3, 5);
        ck(3, 0, ItemState::SharedCk2, 2, 5);
        // Item 1: the newer copy (n2, generation 4) beats the lower node id
        // (n0, generation 3).
        ck(0, 1, ItemState::SharedCk1, 3, 3);
        ck(2, 1, ItemState::SharedCk1, 1, 4);
        ck(3, 1, ItemState::SharedCk2, 0, 4);
        let (item0, item1) = (ItemId::new(0), ItemId::new(1));
        for (node, item) in [(1, item0), (2, item0), (0, item1)] {
            for line in item.lines() {
                nodes[node].cache.fill(line, false);
            }
        }

        dedup_recovery_copies(&mut nodes);

        for (item, kept, dropped) in [(item0, 1, 2), (item1, 2, 0)] {
            let (kept_id, ck2_id) = (NodeId::new(kept), NodeId::new(3));
            let kept = usize::from(kept);
            let slot = nodes[kept].am.slot(item).unwrap();
            assert_eq!(slot.state, ItemState::SharedCk1, "{item}: n{kept} kept");
            assert_eq!(slot.partner, Some(ck2_id), "{item}: kept copy -> n3");
            let ck2 = nodes[3].am.slot(item).unwrap();
            assert_eq!(ck2.partner, Some(kept_id), "{item}: n3 -> kept copy");
            assert_eq!(nodes[dropped].am.slot(item), Some(&ItemSlot::default()));
            for line in item.lines() {
                assert_eq!(nodes[dropped].cache.line_state(line), LineState::Invalid);
            }
        }
        // The kept copy's cached lines stay.
        assert!(item0
            .lines()
            .all(|l| nodes[1].cache.line_state(l) == LineState::Clean));
    }

    #[test]
    fn rebuild_homes_registers_primaries() {
        let ring = LogicalRing::new(2);
        let mut nodes = vec![
            NodeState::ksr1(NodeId::new(0)),
            NodeState::ksr1(NodeId::new(1)),
        ];
        // Item 1 is homed on node 1; its primary recovery copy lives on 0.
        install(&mut nodes[0], 1, ItemState::SharedCk1, Some(NodeId::new(1)));
        install(&mut nodes[1], 1, ItemState::SharedCk2, Some(NodeId::new(0)));
        rebuild_homes(&mut nodes, &ring);
        assert_eq!(nodes[1].home.owner(ItemId::new(1)), Some(NodeId::new(0)));
        assert!(nodes[0].dir.owns(ItemId::new(1)));
        assert!(!nodes[1].dir.owns(ItemId::new(1)));
    }

    #[test]
    fn wipe_dead_node_clears_everything() {
        let mut ns = NodeState::ksr1(NodeId::new(0));
        install(&mut ns, 0, ItemState::MasterShared, None);
        install(&mut ns, 1, ItemState::SharedCk1, Some(NodeId::new(1)));
        wipe_dead_node(&mut ns);
        assert!(!ns.alive);
        assert_eq!(ns.am.allocated_pages(), 0);
        assert_eq!(ns.am.iter_present().count(), 0);
    }
}
