//! The coherence message vocabulary.
//!
//! Every inter-node interaction of both protocol variants is one of these
//! messages. Control messages are header-only (4 flits); messages carrying
//! an item travel with a 128-byte payload. Each message knows which
//! sub-network it uses, so the engine cannot misroute one.

use ftcoma_mem::addr::ITEM_BYTES;
use ftcoma_mem::{ItemId, ItemState, NodeId};
use ftcoma_net::NetClass;

/// Why an injection was started (Table 1 of the paper, plus the standard
/// master-replacement cause and checkpoint replication).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectCause {
    /// Replacement of a master or recovery copy during page eviction.
    Replacement,
    /// Read access faulting on a local `Inv-CK` copy.
    ReadOnInvCk,
    /// Write access faulting on a local `Inv-CK` copy.
    WriteOnInvCk,
    /// Write access faulting on a local `Shared-CK` copy.
    WriteOnSharedCk,
    /// Recovery-point establishment replicating a modified item
    /// (copies, rather than moves, the item).
    CkptReplication,
    /// Post-failure reconfiguration re-replicating a recovery copy whose
    /// partner was lost.
    Reconfiguration,
}

impl InjectCause {
    /// Is this cause a *move* (the origin's copy disappears) rather than a
    /// *copy* (checkpoint replication, reconfiguration)?
    pub fn is_move(self) -> bool {
        !matches!(
            self,
            InjectCause::CkptReplication | InjectCause::Reconfiguration
        )
    }
}

/// Payload of an item travelling between AMs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPayload {
    /// The item's coherence state at its destination.
    pub state: ItemState,
    /// The item's version value.
    pub value: u64,
    /// Recovery-partner pointer carried with CK copies.
    pub partner: Option<NodeId>,
    /// Recovery-point generation of CK copies.
    pub ckpt_gen: u64,
    /// Sharing list, carried when ownership (and thus the directory entry)
    /// moves with the copy.
    pub sharers: Vec<NodeId>,
}

/// A coherence protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    // ---- Localization / transaction initiation (requester -> home) ----
    /// Read miss: locate the owner and obtain a shared copy.
    ReadReq {
        /// Requested item.
        item: ItemId,
        /// Faulting node.
        requester: NodeId,
    },
    /// Write miss or upgrade: obtain exclusive ownership.
    WriteReq {
        /// Requested item.
        item: ItemId,
        /// Faulting node.
        requester: NodeId,
    },

    // ---- Forwards (home -> owner) ----
    /// Forwarded read request.
    ReadFwd {
        /// Requested item.
        item: ItemId,
        /// Faulting node the data must be sent to.
        requester: NodeId,
    },
    /// Forwarded write request.
    WriteFwd {
        /// Requested item.
        item: ItemId,
        /// Faulting node ownership must be transferred to.
        requester: NodeId,
    },

    // ---- Data replies ----
    /// Shared copy of the item (owner -> requester), 128-byte payload.
    DataShared {
        /// The item.
        item: ItemId,
        /// Item version value.
        value: u64,
    },
    /// Ownership transfer (owner -> requester), 128-byte payload. The
    /// requester must additionally collect `acks_expected` invalidation
    /// acknowledgements before proceeding.
    DataExclusive {
        /// The item.
        item: ItemId,
        /// Item version value.
        value: u64,
        /// Invalidation acks the requester must await.
        acks_expected: u32,
    },
    /// First touch of an item machine-wide: the home grants a fresh copy
    /// (zero-filled storage, so header-only).
    InitGrant {
        /// The item.
        item: ItemId,
        /// Granted state: `MasterShared` for reads, `Exclusive` for writes.
        state: ItemState,
    },

    // ---- Invalidations ----
    /// Invalidate a plain shared copy; ack to `ack_to`.
    Inval {
        /// The item.
        item: ItemId,
        /// Node collecting the acknowledgement (the new owner).
        ack_to: NodeId,
    },
    /// ECP: turn the sibling `Shared-CK2` copy into `Inv-CK2`; ack to
    /// `ack_to`.
    InvalCk {
        /// The item.
        item: ItemId,
        /// Node collecting the acknowledgement (the new owner).
        ack_to: NodeId,
    },
    /// Invalidation acknowledgement (sharer -> new owner).
    InvalAck {
        /// The item.
        item: ItemId,
    },
    /// Transaction completion (requester -> home): release the busy bit.
    TxnDone {
        /// The item.
        item: ItemId,
    },
    /// Ownership change notification (new owner -> home): update the
    /// localization pointer and release the busy bit.
    OwnerUpdate {
        /// The item.
        item: ItemId,
        /// The node now owning the item.
        new_owner: NodeId,
    },

    // ---- Injection (ring walk) ----
    /// Serialize an owner-copy injection against the home's busy bit
    /// (origin -> home).
    InjectLock {
        /// The item.
        item: ItemId,
        /// Injecting node.
        origin: NodeId,
    },
    /// Lock granted (home -> origin).
    InjectLockGrant {
        /// The item.
        item: ItemId,
    },
    /// Lock released without ownership change (origin -> home); used when
    /// the origin lost the copy while waiting for the grant.
    InjectLockRelease {
        /// The item.
        item: ItemId,
    },
    /// Find a victim slot for an injected/replicated copy; forwarded along
    /// the logical ring until accepted (header-only first step of the
    /// two-step injection).
    InjectReq {
        /// The item.
        item: ItemId,
        /// Injecting node (receives the accept).
        origin: NodeId,
        /// State the copy will have at its destination.
        state: ItemState,
        /// Why the injection happens (statistics, Table 1 / Figs 6 & 11).
        cause: InjectCause,
        /// Ring hops walked so far; the walk must terminate within one
        /// full traversal (the four-irreplaceable-pages guarantee).
        hops: u32,
    },
    /// A node accepted the injection and reserved the slot
    /// (acceptor -> origin).
    InjectAccept {
        /// The item.
        item: ItemId,
        /// The accepting node.
        host: NodeId,
        /// Echo of the request's cause.
        cause: InjectCause,
    },
    /// The injected item itself (origin -> acceptor), 128-byte payload.
    InjectData {
        /// The item.
        item: ItemId,
        /// Injecting node (receives the final acknowledgement).
        origin: NodeId,
        /// Copy contents and metadata.
        payload: ItemPayload,
        /// Echo of the request's cause.
        cause: InjectCause,
    },
    /// Injection acknowledgement (acceptor -> origin), sent 5 cycles after
    /// the data arrives; the origin may then free its slot.
    InjectDone {
        /// The item.
        item: ItemId,
        /// The accepting node.
        host: NodeId,
        /// Echo of the request's cause.
        cause: InjectCause,
    },
    /// A moved recovery copy informs its sibling of its new location.
    PartnerUpdate {
        /// The item.
        item: ItemId,
        /// New host of the sibling recovery copy.
        new_partner: NodeId,
        /// Generation of the copy that moved.
        ckpt_gen: u64,
        /// Node to acknowledge (the injection origin, which holds the
        /// item's serialization lock until the pointer is settled).
        reply_to: NodeId,
    },
    /// Acknowledges a [`Msg::PartnerUpdate`].
    PartnerUpdateAck {
        /// The item.
        item: ItemId,
    },

    // ---- Recovery-point establishment ----
    /// Create-phase optimisation: ask a node holding a plain `Shared` copy
    /// to re-label it `Pre-Commit2` instead of transferring data.
    PreCommitMark {
        /// The item.
        item: ItemId,
        /// The node establishing the recovery point (holds `Pre-Commit1`).
        origin: NodeId,
        /// Generation being established.
        ckpt_gen: u64,
    },
    /// Answer to [`Msg::PreCommitMark`]: whether the copy was still there
    /// and is now `Pre-Commit2`.
    PreCommitMarkAck {
        /// The item.
        item: ItemId,
        /// `true` if the mark succeeded.
        accepted: bool,
    },
}

impl Msg {
    /// The item this message concerns.
    pub fn item(&self) -> ItemId {
        match self {
            Msg::ReadReq { item, .. }
            | Msg::WriteReq { item, .. }
            | Msg::ReadFwd { item, .. }
            | Msg::WriteFwd { item, .. }
            | Msg::DataShared { item, .. }
            | Msg::DataExclusive { item, .. }
            | Msg::InitGrant { item, .. }
            | Msg::Inval { item, .. }
            | Msg::InvalCk { item, .. }
            | Msg::InvalAck { item }
            | Msg::TxnDone { item }
            | Msg::OwnerUpdate { item, .. }
            | Msg::InjectLock { item, .. }
            | Msg::InjectLockGrant { item }
            | Msg::InjectLockRelease { item }
            | Msg::InjectReq { item, .. }
            | Msg::InjectAccept { item, .. }
            | Msg::InjectData { item, .. }
            | Msg::InjectDone { item, .. }
            | Msg::PartnerUpdate { item, .. }
            | Msg::PartnerUpdateAck { item }
            | Msg::PreCommitMark { item, .. }
            | Msg::PreCommitMarkAck { item, .. } => *item,
        }
    }

    /// Short stable name of the message kind (tracing and diagnostics).
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::ReadReq { .. } => "ReadReq",
            Msg::WriteReq { .. } => "WriteReq",
            Msg::ReadFwd { .. } => "ReadFwd",
            Msg::WriteFwd { .. } => "WriteFwd",
            Msg::DataShared { .. } => "DataShared",
            Msg::DataExclusive { .. } => "DataExclusive",
            Msg::InitGrant { .. } => "InitGrant",
            Msg::Inval { .. } => "Inval",
            Msg::InvalCk { .. } => "InvalCk",
            Msg::InvalAck { .. } => "InvalAck",
            Msg::TxnDone { .. } => "TxnDone",
            Msg::OwnerUpdate { .. } => "OwnerUpdate",
            Msg::InjectLock { .. } => "InjectLock",
            Msg::InjectLockGrant { .. } => "InjectLockGrant",
            Msg::InjectLockRelease { .. } => "InjectLockRelease",
            Msg::InjectReq { .. } => "InjectReq",
            Msg::InjectAccept { .. } => "InjectAccept",
            Msg::InjectData { .. } => "InjectData",
            Msg::InjectDone { .. } => "InjectDone",
            Msg::PartnerUpdate { .. } => "PartnerUpdate",
            Msg::PartnerUpdateAck { .. } => "PartnerUpdateAck",
            Msg::PreCommitMark { .. } => "PreCommitMark",
            Msg::PreCommitMarkAck { .. } => "PreCommitMarkAck",
        }
    }

    /// Payload size in bytes (0 for header-only control messages).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Msg::DataShared { .. } | Msg::DataExclusive { .. } | Msg::InjectData { .. } => {
                ITEM_BYTES
            }
            _ => 0,
        }
    }

    /// Which leg of a memory transaction this message is, if any.
    ///
    /// Drives the per-phase latency decomposition and the causal span
    /// tree: a remote miss is requester → home ([`TxnLeg::DirLookup`]),
    /// optionally home → owner ([`TxnLeg::HomeFwd`]), then data or grant
    /// back to the requester ([`TxnLeg::DataReply`]). Invalidations,
    /// injections, checkpoint traffic and other side-band messages are
    /// not transaction legs and return `None`.
    pub fn txn_leg(&self) -> Option<TxnLeg> {
        match self {
            Msg::ReadReq { .. } | Msg::WriteReq { .. } => Some(TxnLeg::DirLookup),
            Msg::ReadFwd { .. } | Msg::WriteFwd { .. } => Some(TxnLeg::HomeFwd),
            Msg::DataShared { .. } | Msg::DataExclusive { .. } | Msg::InitGrant { .. } => {
                Some(TxnLeg::DataReply)
            }
            _ => None,
        }
    }

    /// The faulting node a request or forward acts for, when the message
    /// carries one. Data replies travel *to* the requester, so the
    /// receiver already knows it.
    pub fn requester(&self) -> Option<NodeId> {
        match self {
            Msg::ReadReq { requester, .. }
            | Msg::WriteReq { requester, .. }
            | Msg::ReadFwd { requester, .. }
            | Msg::WriteFwd { requester, .. } => Some(*requester),
            _ => None,
        }
    }

    /// Which sub-network this message travels on.
    pub fn class(&self) -> NetClass {
        match self {
            Msg::ReadReq { .. }
            | Msg::WriteReq { .. }
            | Msg::ReadFwd { .. }
            | Msg::WriteFwd { .. }
            | Msg::Inval { .. }
            | Msg::InvalCk { .. }
            | Msg::InjectLock { .. }
            | Msg::InjectReq { .. }
            | Msg::PreCommitMark { .. }
            | Msg::TxnDone { .. }
            | Msg::OwnerUpdate { .. }
            | Msg::InjectLockRelease { .. }
            | Msg::PartnerUpdate { .. } => NetClass::Request,
            Msg::DataShared { .. }
            | Msg::DataExclusive { .. }
            | Msg::InitGrant { .. }
            | Msg::InvalAck { .. }
            | Msg::InjectLockGrant { .. }
            | Msg::InjectAccept { .. }
            | Msg::InjectData { .. }
            | Msg::InjectDone { .. }
            | Msg::PartnerUpdateAck { .. }
            | Msg::PreCommitMarkAck { .. } => NetClass::Reply,
        }
    }
}

/// The phase of a memory transaction a coherence message implements.
///
/// See [`Msg::txn_leg`]. The names line up with the span phases in
/// `ftcoma_sim::span::SpanPhase`, which the machine maps them onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnLeg {
    /// Requester → home-node directory (ReadReq / WriteReq).
    DirLookup,
    /// Home directory → current owner (ReadFwd / WriteFwd).
    HomeFwd,
    /// Data or initial grant travelling back to the requester.
    DataReply,
}

/// A message queued for transmission by a protocol handler.
///
/// `delay` is node-local processing time charged before the message enters
/// the network (e.g. the 20-cycle remote-AM access before a data reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// Destination node.
    pub to: NodeId,
    /// The message.
    pub msg: Msg,
    /// Node-local cycles before network injection.
    pub delay: u64,
}

impl Outgoing {
    /// A message leaving immediately.
    pub fn now(to: NodeId, msg: Msg) -> Self {
        Self { to, msg, delay: 0 }
    }

    /// A message leaving after `delay` local cycles.
    pub fn after(to: NodeId, msg: Msg, delay: u64) -> Self {
        Self { to, msg, delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item() -> ItemId {
        ItemId::new(7)
    }

    #[test]
    fn data_messages_carry_an_item() {
        assert_eq!(
            Msg::DataShared {
                item: item(),
                value: 1
            }
            .payload_bytes(),
            128
        );
        assert_eq!(
            Msg::DataExclusive {
                item: item(),
                value: 1,
                acks_expected: 0
            }
            .payload_bytes(),
            128
        );
        assert_eq!(
            Msg::ReadReq {
                item: item(),
                requester: NodeId::new(0)
            }
            .payload_bytes(),
            0
        );
        assert_eq!(
            Msg::InitGrant {
                item: item(),
                state: ItemState::Exclusive
            }
            .payload_bytes(),
            0
        );
    }

    #[test]
    fn classes_separate_requests_from_replies() {
        assert_eq!(
            Msg::ReadReq {
                item: item(),
                requester: NodeId::new(0)
            }
            .class(),
            NetClass::Request
        );
        assert_eq!(
            Msg::DataShared {
                item: item(),
                value: 0
            }
            .class(),
            NetClass::Reply
        );
        assert_eq!(Msg::InvalAck { item: item() }.class(), NetClass::Reply);
        assert_eq!(
            Msg::Inval {
                item: item(),
                ack_to: NodeId::new(1)
            }
            .class(),
            NetClass::Request
        );
    }

    #[test]
    fn item_accessor_covers_all_variants() {
        let payload = ItemPayload {
            state: ItemState::InvCk1,
            value: 3,
            partner: Some(NodeId::new(2)),
            ckpt_gen: 1,
            sharers: vec![],
        };
        let msgs = vec![
            Msg::ReadReq {
                item: item(),
                requester: NodeId::new(0),
            },
            Msg::InjectData {
                item: item(),
                origin: NodeId::new(0),
                payload,
                cause: InjectCause::Replacement,
            },
            Msg::PreCommitMark {
                item: item(),
                origin: NodeId::new(1),
                ckpt_gen: 2,
            },
        ];
        for m in msgs {
            assert_eq!(m.item(), item());
        }
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(
            Msg::ReadReq {
                item: item(),
                requester: NodeId::new(0)
            }
            .kind(),
            "ReadReq"
        );
        assert_eq!(Msg::TxnDone { item: item() }.kind(), "TxnDone");
    }

    #[test]
    fn txn_legs_cover_the_miss_path_only() {
        let req = Msg::ReadReq {
            item: item(),
            requester: NodeId::new(3),
        };
        assert_eq!(req.txn_leg(), Some(TxnLeg::DirLookup));
        assert_eq!(req.requester(), Some(NodeId::new(3)));
        assert_eq!(
            Msg::WriteFwd {
                item: item(),
                requester: NodeId::new(3)
            }
            .txn_leg(),
            Some(TxnLeg::HomeFwd)
        );
        assert_eq!(
            Msg::InitGrant {
                item: item(),
                state: ItemState::Exclusive
            }
            .txn_leg(),
            Some(TxnLeg::DataReply)
        );
        // Side-band traffic is not part of the transaction decomposition.
        assert_eq!(Msg::TxnDone { item: item() }.txn_leg(), None);
        assert_eq!(
            Msg::Inval {
                item: item(),
                ack_to: NodeId::new(1)
            }
            .txn_leg(),
            None
        );
        assert_eq!(Msg::InvalAck { item: item() }.requester(), None);
    }

    #[test]
    fn inject_cause_classification() {
        assert!(InjectCause::Replacement.is_move());
        assert!(!InjectCause::CkptReplication.is_move());
    }
}
