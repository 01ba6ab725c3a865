//! Coherence states of an item copy in an attraction memory.
//!
//! The standard COMA-F protocol uses four stable states; the Extended
//! Coherence Protocol (ECP) adds six more to identify recovery data
//! (Fig. 1 and §4.1 of the paper). The two `Shared-CK` copies of an item must
//! be distinguishable (only one of them may hand out exclusive rights), so
//! each checkpoint-related state is split into a `1` and a `2` variant —
//! "Encoding these new states requires three additional bits per item".

/// Coherence state of one item copy held in an AM slot.
///
/// Standard COMA-F states:
///
/// * [`Invalid`](ItemState::Invalid) — the slot holds no copy;
/// * [`Shared`](ItemState::Shared) — read-only copy, other copies may exist;
/// * [`MasterShared`](ItemState::MasterShared) — the *master* read-only copy;
///   the owning AM answers requests and must inject the copy before
///   replacing it (it may be the last copy in the machine);
/// * [`Exclusive`](ItemState::Exclusive) — the only valid current copy,
///   writable.
///
/// ECP recovery states:
///
/// * [`SharedCk1`](ItemState::SharedCk1) / [`SharedCk2`](ItemState::SharedCk2)
///   — the two recovery copies of an item *not* modified since the last
///   recovery point; still readable, and `SharedCk1` additionally serves
///   remote requests like a master copy;
/// * [`InvCk1`](ItemState::InvCk1) / [`InvCk2`](ItemState::InvCk2) — the two
///   recovery copies of an item that *has* been modified since the last
///   recovery point; inaccessible, kept only for rollback;
/// * [`PreCommit1`](ItemState::PreCommit1) / [`PreCommit2`](ItemState::PreCommit2)
///   — transient copies of the recovery point being established between the
///   `create` and `commit` phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ItemState {
    /// No copy present in this slot.
    #[default]
    Invalid,
    /// Plain read-only copy.
    Shared,
    /// Master read-only copy (answers requests; injected before replacement).
    MasterShared,
    /// Unique writable current copy.
    Exclusive,
    /// Primary recovery copy, unmodified since last checkpoint (readable,
    /// serves requests like a master copy).
    SharedCk1,
    /// Secondary recovery copy, unmodified since last checkpoint (readable).
    SharedCk2,
    /// Primary recovery copy of a since-modified item (inaccessible).
    InvCk1,
    /// Secondary recovery copy of a since-modified item (inaccessible).
    InvCk2,
    /// Primary copy of the recovery point under construction.
    PreCommit1,
    /// Secondary copy of the recovery point under construction.
    PreCommit2,
}

impl ItemState {
    /// All ten states, in a fixed order (useful for tests and stats tables).
    pub const ALL: [ItemState; 10] = [
        ItemState::Invalid,
        ItemState::Shared,
        ItemState::MasterShared,
        ItemState::Exclusive,
        ItemState::SharedCk1,
        ItemState::SharedCk2,
        ItemState::InvCk1,
        ItemState::InvCk2,
        ItemState::PreCommit1,
        ItemState::PreCommit2,
    ];

    /// Is this one of the four standard COMA-F states?
    pub fn is_standard(self) -> bool {
        matches!(
            self,
            ItemState::Invalid | ItemState::Shared | ItemState::MasterShared | ItemState::Exclusive
        )
    }

    /// Does the slot hold a copy at all?
    pub fn is_present(self) -> bool {
        self != ItemState::Invalid
    }

    /// May the local processor *read* this copy directly?
    ///
    /// `Inv-CK` copies are recovery-only: reads on them are treated as
    /// misses (after injecting the copy elsewhere). `Pre-Commit` copies only
    /// exist while processors are stalled in a checkpoint, but they are
    /// readable by construction (they equal the current value).
    pub fn is_readable(self) -> bool {
        matches!(
            self,
            ItemState::Shared
                | ItemState::MasterShared
                | ItemState::Exclusive
                | ItemState::SharedCk1
                | ItemState::SharedCk2
                | ItemState::PreCommit1
                | ItemState::PreCommit2
        )
    }

    /// Is this copy part of a *current* (computation) version of the item,
    /// as opposed to recovery data?
    pub fn is_current(self) -> bool {
        matches!(
            self,
            ItemState::Shared | ItemState::MasterShared | ItemState::Exclusive
        )
    }

    /// Is this copy recovery data of the last *committed* recovery point
    /// (the set restored by a rollback)?
    pub fn is_committed_recovery(self) -> bool {
        matches!(
            self,
            ItemState::SharedCk1 | ItemState::SharedCk2 | ItemState::InvCk1 | ItemState::InvCk2
        )
    }

    /// Is this one of the six ECP checkpoint states?
    pub fn is_ck(self) -> bool {
        !self.is_standard()
    }

    /// Does this copy answer remote requests for the item (i.e. is the
    /// slot's node the item's *owner*)?
    ///
    /// Standard protocol: `Exclusive` and `Master-Shared`. ECP: `Shared-CK1`
    /// serves requests "in a similar way as a Master-Shared copy", and
    /// `Pre-Commit1` is the owner-side copy during establishment.
    pub fn is_owner(self) -> bool {
        matches!(
            self,
            ItemState::Exclusive
                | ItemState::MasterShared
                | ItemState::SharedCk1
                | ItemState::PreCommit1
        )
    }

    /// Must this copy be *injected* into another AM rather than silently
    /// dropped when its slot is reclaimed?
    ///
    /// Masters may be the last copy of the item; CK copies are recovery data
    /// whose loss would break the persistence property (Table 1).
    pub fn requires_injection(self) -> bool {
        matches!(
            self,
            ItemState::MasterShared
                | ItemState::Exclusive
                | ItemState::SharedCk1
                | ItemState::SharedCk2
                | ItemState::InvCk1
                | ItemState::InvCk2
                | ItemState::PreCommit1
                | ItemState::PreCommit2
        )
    }

    /// Which recovery replica is this (1 or 2), if any.
    pub fn replica_index(self) -> Option<u8> {
        match self {
            ItemState::SharedCk1 | ItemState::InvCk1 | ItemState::PreCommit1 => Some(1),
            ItemState::SharedCk2 | ItemState::InvCk2 | ItemState::PreCommit2 => Some(2),
            _ => None,
        }
    }

    /// Has the item been modified since the last recovery point, as seen
    /// from this copy? (`Exclusive` current copies and `Master-Shared`
    /// copies are the modified set the `create` phase replicates.)
    pub fn is_modified_since_ckpt(self) -> bool {
        matches!(self, ItemState::Exclusive | ItemState::MasterShared)
    }
}

impl std::fmt::Display for ItemState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ItemState::Invalid => "Invalid",
            ItemState::Shared => "Shared",
            ItemState::MasterShared => "Master-Shared",
            ItemState::Exclusive => "Exclusive",
            ItemState::SharedCk1 => "Shared-CK1",
            ItemState::SharedCk2 => "Shared-CK2",
            ItemState::InvCk1 => "Inv-CK1",
            ItemState::InvCk2 => "Inv-CK2",
            ItemState::PreCommit1 => "Pre-Commit1",
            ItemState::PreCommit2 => "Pre-Commit2",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_states_are_standard() {
        for s in ItemState::ALL {
            assert_eq!(s.is_standard(), !s.is_ck());
        }
        assert_eq!(ItemState::ALL.iter().filter(|s| s.is_ck()).count(), 6);
    }

    #[test]
    fn inv_ck_not_readable() {
        assert!(!ItemState::InvCk1.is_readable());
        assert!(!ItemState::InvCk2.is_readable());
        assert!(ItemState::SharedCk1.is_readable());
        assert!(ItemState::SharedCk2.is_readable());
    }

    #[test]
    fn owners_are_unique_per_role() {
        // Only replica-1 CK states ever own.
        assert!(ItemState::SharedCk1.is_owner());
        assert!(!ItemState::SharedCk2.is_owner());
        assert!(ItemState::PreCommit1.is_owner());
        assert!(!ItemState::PreCommit2.is_owner());
    }

    #[test]
    fn injection_requirements() {
        assert!(!ItemState::Shared.requires_injection());
        assert!(!ItemState::Invalid.requires_injection());
        assert!(ItemState::MasterShared.requires_injection());
        assert!(ItemState::InvCk2.requires_injection());
    }

    #[test]
    fn display_nonempty() {
        for s in ItemState::ALL {
            assert!(!format!("{s}").is_empty());
        }
    }
}
