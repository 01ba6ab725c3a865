//! Hand-placed protocol scenarios, and the Table 1 and Table 2 probes
//! built on them.
//!
//! [`Rig`] drives the coherence engine over real `NodeState`s, the mesh and
//! the logical ring with one private event loop and no workload: place
//! copies by hand, issue single processor accesses, and observe every state
//! transition and effect of a transaction. The protocol-conformance tests
//! use it, and so do the two probes here:
//! - [`read_miss_latencies`] measures Table 2; with the default timing
//!   parameters the results are exactly the paper's 1 / 18 / 116 / 124
//!   cycles;
//! - [`force_replacement_injection`] demonstrates Table 1's replacement
//!   rows.

use ftcoma_core::{AccessOutcome, AccessReq, Ctx, Effect, Engine, FtConfig};
use ftcoma_mem::{AmGeometry, CacheGeometry, ItemId, ItemState, NodeId, PageId};
use ftcoma_net::{LogicalRing, Mesh, MeshGeometry, NetConfig};
use ftcoma_protocol::msg::Msg;
use ftcoma_protocol::{home_of, MemTiming, NodeState};
use ftcoma_sim::{Cycles, EventQueue};

/// A small machine with manual control over every copy.
pub struct Rig {
    /// Node states, indexable for assertions.
    pub nodes: Vec<NodeState>,
    /// The coherence engine under test.
    pub engine: Engine,
    /// Liveness view.
    pub ring: LogicalRing,
    mesh: Mesh,
    queue: EventQueue<(NodeId, Msg)>,
    /// Effects of every engine call so far, in order, with the node that
    /// raised them.
    pub effects: Vec<(NodeId, Effect)>,
}

impl Rig {
    /// A rig with `n` full-size nodes and the standard protocol.
    pub fn new(n: usize) -> Self {
        Self::with_config(n, FtConfig::disabled())
    }

    /// A rig with `n` full-size nodes and the given protocol config.
    pub fn with_config(n: usize, ft: FtConfig) -> Self {
        Self::build(n, ft, AmGeometry::ksr1())
    }

    /// A rig with tiny AMs (2 frames, 1-way) to force replacements.
    pub fn tiny_am(n: usize) -> Self {
        let geo = AmGeometry {
            capacity_bytes: 2 * 16 * 1024,
            ways: 1,
        };
        Self::build(n, FtConfig::disabled(), geo)
    }

    fn build(n: usize, ft: FtConfig, am: AmGeometry) -> Self {
        Self {
            nodes: (0..n as u16)
                .map(|i| NodeState::new(NodeId::new(i), am, CacheGeometry::ksr1()))
                .collect(),
            engine: Engine::new(ft, MemTiming::ksr1(), n),
            ring: LogicalRing::new(n),
            mesh: Mesh::new(MeshGeometry::for_nodes(n), NetConfig::default()),
            queue: EventQueue::new(),
            effects: Vec::new(),
        }
    }

    /// Installs a copy and (for owner states) the directory entry and the
    /// localization pointer at the item's home.
    pub fn place(&mut self, node: u16, item: ItemId, state: ItemState, value: u64) {
        let ns = &mut self.nodes[node as usize];
        if !ns.am.has_page(item.page()) {
            ns.am.allocate_page(item.page()).expect("rig AM has room");
        }
        ns.am.install(item, state, value, None);
        if state.is_owner() {
            ns.dir.create(item, Vec::new());
            let home = home_of(item, &self.ring).index();
            self.nodes[home].home.set_owner(item, NodeId::new(node));
        }
    }

    /// Registers `sharer` in the owner's directory entry.
    pub fn add_sharer(&mut self, owner: u16, item: ItemId, sharer: u16) {
        self.nodes[owner as usize]
            .dir
            .add_sharer(item, NodeId::new(sharer));
    }

    /// Links two recovery copies as partners with the given generation.
    pub fn link_partners(&mut self, item: ItemId, a: u16, b: u16, gen: u64) {
        for (at, partner) in [(a, b), (b, a)] {
            let slot = self.nodes[at as usize]
                .am
                .slot_mut(item)
                .expect("copy placed");
            slot.partner = Some(NodeId::new(partner));
            slot.ckpt_gen = gen;
        }
    }

    /// Runs one engine call for `node` at `now`: collects its effects, sends
    /// each outgoing message on the mesh and queues its arrival.
    fn step<R>(
        &mut self,
        node: NodeId,
        now: Cycles,
        call: impl FnOnce(&mut Engine, &mut NodeState, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut ctx = Ctx::new(&self.ring, now);
        let result = call(&mut self.engine, &mut self.nodes[node.index()], &mut ctx);
        let (out, effects) = ctx.finish();
        self.effects.extend(effects.into_iter().map(|e| (node, e)));
        for o in out {
            let depart = now + o.delay;
            let arrival = self
                .mesh
                .send(depart, node, o.to, o.msg.class(), o.msg.payload_bytes())
                .expect("rig mesh is healthy");
            self.queue.schedule(arrival, (o.to, o.msg));
        }
        result
    }

    /// Issues one processor access on `node` and drives the machine until
    /// quiescent. Returns the completion time (cycles from issue).
    pub fn access(&mut self, node: u16, addr: u64, is_write: bool, value: u64) -> Cycles {
        let req = AccessReq {
            addr: addr.into(),
            is_write,
            write_value: value,
        };
        let now = self.queue.now();
        let outcome = self.step(NodeId::new(node), now, |engine, ns, ctx| {
            engine.access(ns, req, ctx)
        });
        match outcome {
            AccessOutcome::Complete { latency, .. } => now + latency,
            AccessOutcome::Stalled => self
                .drain()
                .unwrap_or_else(|| panic!("access on n{node} never completed")),
        }
    }

    /// Processes queued messages to quiescence; returns the time of the
    /// last `Resume` effect, if any.
    pub fn drain(&mut self) -> Option<Cycles> {
        let mut resumed = None;
        while let Some((now, (to, msg))) = self.queue.pop() {
            if !self.nodes[to.index()].alive {
                continue;
            }
            let first = self.effects.len();
            self.step(to, now, |engine, ns, ctx| engine.handle(ns, msg, ctx));
            for (_, e) in &self.effects[first..] {
                if let Effect::Resume { latency } = e {
                    resumed = Some(now + latency);
                }
            }
        }
        resumed
    }

    /// Runs the create phase on every node for generation `gen`, then
    /// drains; panics unless every node reports `CreateDone`.
    pub fn create_all(&mut self, gen: u64) {
        let n = self.nodes.len();
        for i in 0..n as u16 {
            let now = self.queue.now();
            self.step(NodeId::new(i), now, |engine, ns, ctx| {
                engine.begin_create(ns, gen, ctx)
            });
        }
        self.drain();
        let done = self.count_effects(|e| matches!(e, Effect::CreateDone));
        assert_eq!(done, n, "every node must finish its create phase");
    }

    /// State of `item` at `node`.
    pub fn state(&self, node: u16, item: ItemId) -> ItemState {
        self.nodes[node as usize].am.state(item)
    }

    /// All nodes holding a copy of `item`, with their states.
    pub fn copies(&self, item: ItemId) -> Vec<(u16, ItemState)> {
        self.nodes
            .iter()
            .filter(|n| n.am.state(item).is_present())
            .map(|n| (n.id.index() as u16, n.am.state(item)))
            .collect()
    }

    /// Count of collected effects matching `pred`.
    pub fn count_effects(&self, pred: impl Fn(&Effect) -> bool) -> usize {
        self.effects.iter().filter(|(_, e)| pred(e)).count()
    }
}

/// Measured read-miss latencies, one per Table 2 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Latencies {
    /// Fill from cache.
    pub cache: Cycles,
    /// Fill from the local AM.
    pub local_am: Cycles,
    /// Fill from a remote AM one hop away.
    pub remote_1hop: Cycles,
    /// Fill from a remote AM two hops away.
    pub remote_2hop: Cycles,
}

/// Measures all four Table 2 rows: one read at node 0 of a 16-node rig.
pub fn read_miss_latencies() -> Table2Latencies {
    // Item `owner` has its home at node `owner` too, so the master and the
    // localization pointer sit together, as in the paper's measurement,
    // which counts no extra localization hop. Node 1 is at (1,0) and node 2
    // at (2,0), one and two hops from the requester at (0,0).
    let read = |owner: u16, cached: bool| {
        let item = ItemId::new(owner.into());
        let mut rig = Rig::new(16);
        rig.place(owner, item, ItemState::MasterShared, 42);
        if cached {
            rig.nodes[0].cache.fill(item.base_addr().line(), false);
        }
        rig.access(0, item.base_addr().raw(), false, 0)
    };
    Table2Latencies {
        cache: read(0, true),
        local_am: read(0, false),
        remote_1hop: read(1, false),
        remote_2hop: read(2, false),
    }
}

/// Outcome of the deterministic replacement-injection scenario
/// (Table 1's first two rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplacementDemo {
    /// Replacement injections observed.
    pub replacement_injections: u64,
    /// Total latency of the access that triggered the eviction.
    pub access_latency: Cycles,
    /// Where the displaced master copy ended up.
    pub new_host: NodeId,
}

/// Forces a page replacement: node 0's single-way AM set holds a page with
/// a master copy when the processor touches another page of the same set.
/// The master must be *injected* into another AM before the page can be
/// replaced — the paper's replacement rows of Table 1.
pub fn force_replacement_injection() -> ReplacementDemo {
    // 2 page frames, 1 way => 2 sets: pages 0 and 2 collide in set 0.
    let mut rig = Rig::tiny_am(4);
    let victim = PageId::new(0).items().next().expect("page has items");
    rig.place(0, victim, ItemState::MasterShared, 42);
    // `wanted`'s home must know it exists somewhere, else this is a plain
    // first touch; its owner is node 1.
    let wanted = PageId::new(2).items().next().expect("page has items");
    rig.place(1, wanted, ItemState::MasterShared, 42);

    let access_latency = rig.access(0, wanted.base_addr().raw(), false, 0);
    let new_host = rig
        .copies(victim)
        .into_iter()
        .find(|(_, st)| st.is_owner())
        .map(|(n, _)| NodeId::new(n))
        .expect("displaced master survives somewhere");
    assert_ne!(
        new_host,
        NodeId::new(0),
        "master must have left the evicting node"
    );
    let injections = rig.count_effects(|e| matches!(e, Effect::InjectionStarted { .. }));
    ReplacementDemo {
        replacement_injections: injections as u64,
        access_latency,
        new_host,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replacement_injection_is_forced() {
        assert_eq!(
            force_replacement_injection(),
            ReplacementDemo {
                replacement_injections: 1,
                access_latency: 256,
                new_host: NodeId::new(2),
            }
        );
    }

    #[test]
    fn reproduces_table2_exactly() {
        let t = read_miss_latencies();
        assert_eq!(t.cache, 1, "fill from cache");
        assert_eq!(t.local_am, 18, "fill from local AM");
        assert_eq!(t.remote_1hop, 116, "fill from remote AM, 1 hop");
        assert_eq!(t.remote_2hop, 124, "fill from remote AM, 2 hops");
    }
}
