//! Handler context: how the engine talks back to the simulator.

use ftcoma_mem::ItemId;
use ftcoma_net::LogicalRing;
use ftcoma_protocol::msg::{InjectCause, Msg, Outgoing};
use ftcoma_sim::Cycles;

use ftcoma_mem::NodeId;

/// Machine-visible side effects of a protocol handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// The node's stalled processor access completed; resume the processor
    /// `latency` cycles from now.
    Resume {
        /// Cycles until the processor may continue.
        latency: Cycles,
    },
    /// The node finished its create phase (all modified items replicated).
    CreateDone,
    /// The node finished re-replicating recovery copies orphaned by a
    /// permanent failure.
    ReconfigDone,
    /// A runtime injection started at this node (statistics for Table 1
    /// and Figs. 6 / 11).
    InjectionStarted {
        /// Why the injection happened.
        cause: InjectCause,
    },
    /// Recovery data physically transferred (create phase / reconfiguration
    /// replication traffic, for the throughput figures).
    ReplicationBytes {
        /// Bytes moved.
        bytes: u64,
    },
    /// One modified item was secured during the create phase.
    ItemCheckpointed {
        /// `true` when an existing `Shared` replica was re-labelled instead
        /// of transferring the item (the paper's create-phase optimisation).
        reused_existing: bool,
    },
    /// The injection ring walk failed to find space — the
    /// four-irreplaceable-pages capacity guarantee was violated by the
    /// configuration. The machine treats this as a fatal setup error.
    FatalNoSpace {
        /// Item that could not be placed.
        item: ItemId,
    },
}

/// Per-invocation context handed to every engine handler.
///
/// Handlers read the ring and the current time, and push outgoing messages
/// and effects; the machine drains both after the handler returns.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Logical ring (injection walks, liveness, home migration).
    pub ring: &'a LogicalRing,
    /// Current simulation time.
    pub now: Cycles,
    out: Vec<Outgoing>,
    effects: Vec<Effect>,
}

impl<'a> Ctx<'a> {
    /// Creates a context for one handler invocation.
    pub fn new(ring: &'a LogicalRing, now: Cycles) -> Self {
        Self {
            ring,
            now,
            out: Vec::new(),
            effects: Vec::new(),
        }
    }

    /// Queues `msg` for `to`, leaving the node immediately.
    pub fn send(&mut self, to: NodeId, msg: Msg) {
        self.out.push(Outgoing::now(to, msg));
    }

    /// Queues `msg` for `to` after `delay` local processing cycles.
    pub fn send_after(&mut self, to: NodeId, msg: Msg, delay: Cycles) {
        self.out.push(Outgoing::after(to, msg, delay));
    }

    /// Records a machine-visible effect.
    pub fn effect(&mut self, e: Effect) {
        self.effects.push(e);
    }

    /// Drains the queued messages and effects.
    pub fn finish(self) -> (Vec<Outgoing>, Vec<Effect>) {
        (self.out, self.effects)
    }

    /// Messages queued so far (test helper).
    pub fn queued_messages(&self) -> &[Outgoing] {
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_messages_and_effects() {
        let ring = LogicalRing::new(2);
        let mut ctx = Ctx::new(&ring, 5);
        ctx.send(
            NodeId::new(1),
            Msg::TxnDone {
                item: ItemId::new(3),
            },
        );
        ctx.send_after(
            NodeId::new(0),
            Msg::InvalAck {
                item: ItemId::new(3),
            },
            7,
        );
        ctx.effect(Effect::Resume { latency: 18 });
        assert_eq!(ctx.queued_messages().len(), 2);
        let (out, eff) = ctx.finish();
        assert_eq!(out[1].delay, 7);
        assert_eq!(eff[0], Effect::Resume { latency: 18 });
    }
}
