//! 2-D mesh with XY routing, two sub-networks and per-link contention.
//!
//! The mesh is a fault domain: links and routers can be failed at runtime
//! ([`Mesh::fail_link`], [`Mesh::fail_router`]), after which routing
//! detours around the damage (XY with a deterministic breadth-first
//! misroute fallback) and destinations with no healthy path are reported
//! as a typed [`RouteError`] instead of a phantom arrival.
//!
//! Link and fault state live in flat arrays indexed by grid position,
//! direction and sub-network. A send on a healthy mesh walks its XY path
//! into buffers the mesh reuses, so it allocates nothing; on a damaged
//! mesh each (source, destination) route is computed once and cached
//! until the next fault or repair.

use std::collections::VecDeque;

use ftcoma_mem::NodeId;
use ftcoma_sim::{Cycles, FxHashMap};

// Hop directions, in the fixed `+x, -x, +y, -y` order that keeps detours
// deterministic. A grid position is `y * cols + x`, so node `i` sits at
// position `i`, and the directed link leaving position `p` in direction
// `d` is numbered `p * DIRS + d`.
const PLUS_X: usize = 0;
const MINUS_X: usize = 1;
const PLUS_Y: usize = 2;
const MINUS_Y: usize = 3;
const DIRS: usize = 4;

/// The sub-networks in index order.
const CLASSES: [NetClass; 2] = [NetClass::Request, NetClass::Reply];

/// Where the state of a directed link on one sub-network sits in the
/// mesh's per-link arrays.
fn slot(link: usize, class: NetClass) -> usize {
    link * CLASSES.len() + class as usize
}

/// Which physical sub-network a message travels on.
///
/// The simulated machine uses two independent sub-networks so replies can
/// never be blocked behind requests (the classic protocol-deadlock
/// avoidance the paper inherits from the KSR1/DASH generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NetClass {
    /// Requests and forwarded requests.
    Request,
    /// Replies, data transfers and acknowledgements.
    Reply,
}

impl NetClass {
    /// Stable lowercase name, used by the metrics exporters.
    pub fn name(&self) -> &'static str {
        match self {
            NetClass::Request => "request",
            NetClass::Reply => "reply",
        }
    }
}

/// How link occupancy is modelled under contention.
///
/// Zero-load latency is identical for both models; they differ only in how
/// long a message holds the links of its path when traffic collides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SwitchingModel {
    /// Virtual cut-through approximation: each link is held only for the
    /// message's own serialization time; a blocked worm is assumed to be
    /// buffered at the blocking router. Cheapest and the default.
    #[default]
    VirtualCutThrough,
    /// Wormhole switching: a worm whose header stalls downstream keeps
    /// *holding every upstream link it spans* until its tail drains —
    /// head-of-line blocking propagates backwards, exactly like the
    /// paper's "worm-hole routed synchronous mesh".
    Wormhole,
}

/// Timing parameters of the network and its interfaces.
///
/// Defaults are calibrated against Table 2 of the paper: with the memory
/// timings of `ftcoma-machine`, a remote read miss costs 116 cycles at one
/// hop and 124 at two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Flit width in bytes (32-bit flits in the paper).
    pub flit_bytes: u64,
    /// Per-hop router latency in cycles (covers fall-through plus switching).
    pub router_delay: Cycles,
    /// Network-interface overhead charged once per message at injection.
    pub ni_overhead: Cycles,
    /// Minimum message length in flits (header-only control messages).
    pub header_flits: u64,
    /// Latency of a message a node sends to itself (no network traversal).
    pub local_delay: Cycles,
    /// Link-occupancy model under contention.
    pub switching: SwitchingModel,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            flit_bytes: 4,
            router_delay: 4,
            ni_overhead: 8,
            header_flits: 4,
            local_delay: 1,
            switching: SwitchingModel::default(),
        }
    }
}

impl NetConfig {
    /// The default configuration with true wormhole link holding.
    pub fn wormhole() -> Self {
        Self {
            switching: SwitchingModel::Wormhole,
            ..Self::default()
        }
    }
}

impl NetConfig {
    /// Length in flits of a message carrying `payload_bytes` of data.
    ///
    /// The header is pipelined with the payload, so a message occupies the
    /// wire for `max(header, payload)` flit times; control messages are
    /// header-only.
    pub fn flits(&self, payload_bytes: u64) -> u64 {
        self.header_flits
            .max(payload_bytes.div_ceil(self.flit_bytes))
    }

    /// Zero-load latency of a message over `hops` hops.
    pub fn zero_load_latency(&self, hops: u64, payload_bytes: u64) -> Cycles {
        if hops == 0 {
            self.local_delay
        } else {
            self.ni_overhead + hops * self.router_delay + self.flits(payload_bytes)
        }
    }
}

/// Why a message could not be routed.
///
/// Returned by [`Mesh::send`] when the mesh's fault state leaves no healthy
/// path between two routers — the caller sees a typed error instead of a
/// phantom arrival on dead hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No healthy path exists between the two nodes: an endpoint router
    /// failed, or every route between them is severed.
    Unreachable {
        /// Sending node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Unreachable { from, to } => {
                write!(f, "no healthy route from {from} to {to}")
            }
        }
    }
}

/// Shape of the mesh and the node → coordinate mapping.
///
/// # Example
///
/// ```
/// use ftcoma_net::MeshGeometry;
/// use ftcoma_mem::NodeId;
///
/// let g = MeshGeometry::for_nodes(16); // 4x4, as in the paper
/// assert_eq!((g.cols(), g.rows()), (4, 4));
/// assert_eq!(g.hops(NodeId::new(0), NodeId::new(5)), 2); // (0,0) -> (1,1)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshGeometry {
    cols: usize,
    rows: usize,
    nodes: usize,
}

impl MeshGeometry {
    /// A `cols × rows` mesh fully populated with `cols * rows` nodes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be positive");
        Self {
            cols,
            rows,
            nodes: cols * rows,
        }
    }

    /// The most-square mesh holding exactly `n` nodes.
    ///
    /// All machine sizes evaluated in the paper factor into near-square
    /// rectangles (9 = 3×3, 16 = 4×4, 30 = 5×6, 42 = 6×7, 56 = 7×8). For
    /// sizes with no balanced factorisation (e.g. primes), the smallest
    /// near-square grid with at least `n` positions is used and trailing
    /// positions are left empty.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn for_nodes(n: usize) -> Self {
        assert!(n > 0, "at least one node required");
        let mut best: Option<(usize, usize)> = None;
        for c in 1..=n {
            if n.is_multiple_of(c) {
                let r = n / c;
                // Prefer the factorisation with the smallest aspect skew.
                let skew = c.abs_diff(r);
                if best.is_none_or(|(bc, br)| skew < bc.abs_diff(br)) {
                    best = Some((c, r));
                }
            }
        }
        let (c, r) = best.expect("n has at least the trivial factorisation");
        // Reject degenerate 1×n strips for non-tiny n: use a near-square
        // grid with empty positions instead.
        if c.min(r) == 1 && n > 3 {
            let side = (n as f64).sqrt().ceil() as usize;
            let rows = n.div_ceil(side);
            Self {
                cols: side,
                rows,
                nodes: n,
            }
        } else {
            Self {
                cols: c.max(r),
                rows: c.min(r),
                nodes: n,
            }
        }
    }

    /// Mesh width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mesh height.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node index is out of range.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        let i = node.index();
        assert!(
            i < self.nodes,
            "node {node} outside mesh of {} nodes",
            self.nodes
        );
        (i % self.cols, i / self.cols)
    }

    /// The nodes one hop from `node`, in ascending id order. Grid
    /// positions past the last node are empty and list nothing.
    ///
    /// # Panics
    ///
    /// Panics if the node index is out of range.
    pub fn neighbours(&self, node: NodeId) -> impl Iterator<Item = NodeId> {
        let (x, y) = self.coords(node);
        let (i, cols, nodes) = (node.index(), self.cols, self.nodes);
        [
            (y > 0).then(|| i - cols),
            (x > 0).then(|| i - 1),
            (x + 1 < cols).then_some(i + 1),
            Some(i + cols),
        ]
        .into_iter()
        .flatten()
        .filter(move |&j| j < nodes)
        .map(|j| NodeId::new(j as u16))
    }

    /// Every link of the mesh: one `(low, high)` pair per two neighbouring
    /// nodes, in ascending order.
    pub fn links(&self) -> Vec<(NodeId, NodeId)> {
        (0..self.nodes as u16)
            .map(NodeId::new)
            .flat_map(|a| {
                self.neighbours(a)
                    .filter(move |&b| b > a)
                    .map(move |b| (a, b))
            })
            .collect()
    }

    /// Whether the nodes `up` selects form one piece of the grid, joined
    /// by neighbour hops between selected nodes only; `false` when `up`
    /// selects nothing. Link and router health are the [`Mesh`]'s
    /// business, not the geometry's, so they play no part here.
    pub fn connected(&self, up: impl Fn(NodeId) -> bool) -> bool {
        let mut nodes = (0..self.nodes as u16).map(NodeId::new).filter(|&a| up(a));
        let Some(start) = nodes.next() else {
            return false;
        };
        let mut seen = vec![false; self.nodes];
        seen[start.index()] = true;
        let mut stack = vec![start];
        while let Some(a) = stack.pop() {
            for b in self.neighbours(a) {
                if !seen[b.index()] && up(b) {
                    seen[b.index()] = true;
                    stack.push(b);
                }
            }
        }
        nodes.all(|a| seen[a.index()])
    }

    /// Manhattan distance between two nodes (XY routing path length).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }

    /// Grid positions, empty ones included.
    fn positions(&self) -> usize {
        self.cols * self.rows
    }

    /// The grid position of `node` (see [`MeshGeometry::coords`]).
    fn position(&self, node: NodeId) -> usize {
        let (x, y) = self.coords(node);
        y * self.cols + x
    }

    /// The position one hop from `p` in direction `dir`, if it is on the
    /// grid.
    fn step(&self, p: usize, dir: usize) -> Option<usize> {
        let (x, y) = (p % self.cols, p / self.cols);
        match dir {
            PLUS_X => (x + 1 < self.cols).then_some(p + 1),
            MINUS_X => (x > 0).then(|| p - 1),
            PLUS_Y => (y + 1 < self.rows).then_some(p + self.cols),
            _ => (y > 0).then(|| p - self.cols),
        }
    }

    /// The position a directed link on the grid leads to.
    fn head(&self, link: usize) -> usize {
        let p = link / DIRS;
        match link % DIRS {
            PLUS_X => p + 1,
            MINUS_X => p - 1,
            PLUS_Y => p + self.cols,
            _ => p - self.cols,
        }
    }

    /// The coordinates a directed link leaves and enters.
    fn ends(&self, link: usize) -> ((usize, usize), (usize, usize)) {
        let at = |p: usize| (p % self.cols, p / self.cols);
        (at(link / DIRS), at(self.head(link)))
    }

    /// Appends the XY-routing path from `a` to `b` to `links`: first all X
    /// movement, then all Y movement.
    fn xy_links(&self, a: NodeId, b: NodeId, links: &mut Vec<usize>) {
        let ((ax, ay), (bx, by)) = (self.coords(a), self.coords(b));
        let mut p = a.index();
        for (dir, len) in [
            (if bx > ax { PLUS_X } else { MINUS_X }, ax.abs_diff(bx)),
            (if by > ay { PLUS_Y } else { MINUS_Y }, ay.abs_diff(by)),
        ] {
            for _ in 0..len {
                let link = p * DIRS + dir;
                links.push(link);
                p = self.head(link);
            }
        }
    }
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages sent (including node-local ones).
    pub messages: u64,
    /// Total payload bytes carried.
    pub payload_bytes: u64,
    /// Total cycles messages spent queued waiting for busy links.
    pub contention_cycles: Cycles,
    /// Total link-occupancy cycles (utilisation numerator).
    pub link_busy_cycles: Cycles,
    /// Extra hops (beyond the Manhattan distance) taken by messages
    /// detouring around failed links or routers.
    pub detour_hops: u64,
}

/// Per-link accumulated statistics (one directed link on one sub-network).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages whose path crossed this link.
    pub messages: u64,
    /// Cycles this link was held by traversing messages.
    pub busy_cycles: Cycles,
    /// Cycles message headers waited for this link to free up.
    pub contention_cycles: Cycles,
}

/// One row of [`Mesh::link_report`]: a directed link, its sub-network and
/// its accumulated statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkReport {
    /// Source router coordinates `(x, y)`.
    pub from: (usize, usize),
    /// Destination router coordinates `(x, y)`.
    pub to: (usize, usize),
    /// Which sub-network.
    pub class: NetClass,
    /// Is the link usable — neither it nor its endpoint routers failed?
    pub alive: bool,
    /// Accumulated statistics.
    pub stats: LinkStats,
}

impl LinkReport {
    /// Link utilization over an observation window of `total_cycles`
    /// (busy / total, 0.0 for an empty window).
    pub fn utilization(&self, total_cycles: Cycles) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.stats.busy_cycles as f64 / total_cycles as f64
        }
    }
}

/// The mesh network: computes message arrival times under contention.
///
/// # Example
///
/// ```
/// use ftcoma_net::{Mesh, MeshGeometry, NetClass, NetConfig};
/// use ftcoma_mem::NodeId;
///
/// let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
/// // 1-hop header-only message at zero load: 8 + 4 + 4 = 16 cycles.
/// let arrival = mesh.send(0, NodeId::new(0), NodeId::new(1), NetClass::Request, 0);
/// assert_eq!(arrival, Ok(16));
/// ```
#[derive(Debug, Clone)]
pub struct Mesh {
    geo: MeshGeometry,
    cfg: NetConfig,
    /// Each directed link on each sub-network, at its [`slot`].
    links: Vec<LinkState>,
    stats: NetStats,
    /// Severed directed links (a cut severs both directions).
    cut: Vec<bool>,
    /// Failed routers by grid position; no message may traverse or
    /// terminate at a failed router.
    dead: Vec<bool>,
    /// Cut links (each counted once) plus failed routers, so
    /// [`Mesh::healthy`] need not scan.
    faults: usize,
    /// The route of every (source, destination) pair sent between since
    /// the last fault or repair; only consulted while the mesh is damaged.
    routes: FxHashMap<(NodeId, NodeId), Result<Route, RouteError>>,
    /// When set, [`Mesh::send`] records the per-hop occupancy segments of
    /// the last routed message for the span exporter. Pure observation:
    /// arrival times and statistics are identical either way.
    hop_trace: bool,
    /// The last traced message's hops (see [`Mesh::last_hops`]).
    last_hops: Vec<HopSegment>,
    /// The links of the message being sent, reused from send to send.
    path: Vec<usize>,
    /// The cycle the header claims each link of `path`, reused likewise.
    claims: Vec<Cycles>,
}

/// One directed link on one sub-network.
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    /// When the link is next free; 0 for a link never claimed.
    free: Cycles,
    /// This link's share of the aggregate statistics; a link that never
    /// carried a message has `messages == 0`.
    stats: LinkStats,
}

/// A route through a damaged mesh: its links and the extra hops they take
/// beyond the Manhattan distance.
#[derive(Debug, Clone)]
struct Route {
    links: Box<[usize]>,
    detour: u64,
}

/// One traversed hop of a traced message: the directed link plus the
/// interval during which the message's header held it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopSegment {
    /// Source router coordinates.
    pub from: (usize, usize),
    /// Destination router coordinates.
    pub to: (usize, usize),
    /// Cycle the header claimed the link (after any contention wait).
    pub start: Cycles,
    /// Cycle the message cleared this hop (the next hop's claim, or the
    /// final arrival for the last hop).
    pub end: Cycles,
}

impl Mesh {
    /// Creates an idle, fully healthy mesh.
    pub fn new(geo: MeshGeometry, cfg: NetConfig) -> Self {
        let positions = geo.positions();
        let directed = positions * DIRS;
        Self {
            geo,
            cfg,
            links: vec![LinkState::default(); directed * CLASSES.len()],
            stats: NetStats::default(),
            cut: vec![false; directed],
            dead: vec![false; positions],
            faults: 0,
            routes: FxHashMap::default(),
            hop_trace: false,
            last_hops: Vec::new(),
            // No route is longer than a walk through every grid position.
            path: Vec::with_capacity(positions),
            claims: Vec::with_capacity(positions),
        }
    }

    /// Enables or disables per-hop recording for subsequent sends. Off by
    /// default; enabling it changes no timing and no statistics.
    pub fn set_hop_trace(&mut self, on: bool) {
        self.hop_trace = on;
        if !on {
            self.last_hops.clear();
        }
    }

    /// The hop segments of the most recent [`Mesh::send`] while hop
    /// tracing is on (empty for node-local sends or when tracing is off).
    pub fn last_hops(&self) -> &[HopSegment] {
        &self.last_hops
    }

    /// The mesh geometry.
    pub fn geometry(&self) -> &MeshGeometry {
        &self.geo
    }

    /// The timing configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Severs the bidirectional link between the routers of `a` and `b`;
    /// later traffic detours around it.
    ///
    /// # Panics
    ///
    /// Panics if the two nodes are not mesh-adjacent.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        self.set_cut(a, b, true, "fail_link");
    }

    /// Restores a severed link between the routers of `a` and `b` (both
    /// directions); later traffic takes it again. Repairing a link that
    /// was never cut is a no-op, so repair schedules may race failures.
    ///
    /// # Panics
    ///
    /// Panics if the two nodes are not mesh-adjacent.
    pub fn repair_link(&mut self, a: NodeId, b: NodeId) {
        self.set_cut(a, b, false, "repair_link");
    }

    /// Cuts (`cut`) or restores both directions of the link between the
    /// routers of `a` and `b`, and forgets every cached route; `op` names
    /// the caller in the panic when the two are not neighbours.
    fn set_cut(&mut self, a: NodeId, b: NodeId, cut: bool, op: &str) {
        let (ca, cb) = (self.geo.coords(a), self.geo.coords(b));
        let (pa, pb) = (a.index(), b.index());
        let Some(dir) = (0..DIRS).find(|&d| self.geo.step(pa, d) == Some(pb)) else {
            panic!("{op} needs mesh-adjacent nodes, got {a} at {ca:?} and {b} at {cb:?}");
        };
        // `dir ^ 1` is the opposite direction: +x/-x and +y/-y pair up.
        let (ab, ba) = (pa * DIRS + dir, pb * DIRS + (dir ^ 1));
        if self.cut[ab] != cut {
            self.cut[ab] = cut;
            self.cut[ba] = cut;
            if cut {
                self.faults += 1;
            } else {
                self.faults -= 1;
            }
        }
        self.routes.clear();
    }

    /// Marks `node`'s router failed: no message may traverse or terminate
    /// at it until [`Mesh::repair_router`].
    pub fn fail_router(&mut self, node: NodeId) {
        self.set_dead(node, true);
    }

    /// Restores `node`'s router (a repaired node rejoins the mesh).
    pub fn repair_router(&mut self, node: NodeId) {
        self.set_dead(node, false);
    }

    /// Fails (`dead`) or restores `node`'s router, and forgets every
    /// cached route.
    fn set_dead(&mut self, node: NodeId, dead: bool) {
        let p = self.geo.position(node);
        if self.dead[p] != dead {
            self.dead[p] = dead;
            if dead {
                self.faults += 1;
            } else {
                self.faults -= 1;
            }
        }
        self.routes.clear();
    }

    /// Is `node`'s router currently failed?
    pub fn router_failed(&self, node: NodeId) -> bool {
        self.dead[self.geo.position(node)]
    }

    /// Has neither a link nor a router failed?
    pub fn healthy(&self) -> bool {
        self.faults == 0
    }

    /// Is there a healthy route from `from` to `to`?
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        from == to || self.route(from, to).is_ok()
    }

    /// The connected pieces of the mesh as it stands: for each node, the
    /// lowest-id node it can reach, so two nodes share an entry exactly
    /// when [`Mesh::reachable`] joins them. Routes may pass the routers of
    /// dead nodes that still switch and empty grid positions; a node whose
    /// router failed is a piece of its own. One labelling pass over the
    /// grid answers every pair at once.
    pub fn components(&self) -> Vec<NodeId> {
        // Nodes hold the lowest grid positions, so the position a fill
        // starts from is the lowest node of its piece (if it has any).
        let mut label = vec![usize::MAX; self.geo.positions()];
        for start in 0..label.len() {
            if label[start] != usize::MAX || self.dead[start] {
                continue;
            }
            label[start] = start;
            let mut stack = vec![start];
            while let Some(p) = stack.pop() {
                for q in (0..DIRS).filter_map(|dir| self.live_step(p, dir)) {
                    if label[q] == usize::MAX {
                        label[q] = start;
                        stack.push(q);
                    }
                }
            }
        }
        (0..self.geo.nodes())
            .map(|i| NodeId::new(if label[i] == usize::MAX { i } else { label[i] } as u16))
            .collect()
    }

    /// May a message cross this directed link: is it intact, and is the
    /// router it leads to alive?
    fn live(&self, link: usize) -> bool {
        !self.cut[link] && !self.dead[self.geo.head(link)]
    }

    /// The position one live hop from `p` in direction `dir`, if any.
    fn live_step(&self, p: usize, dir: usize) -> Option<usize> {
        let q = self.geo.step(p, dir)?;
        self.live(p * DIRS + dir).then_some(q)
    }

    /// The healthy route from `from` to `to`: the XY path when it is
    /// intact, otherwise the shortest detour over healthy links and
    /// routers (breadth-first misroute with a fixed `+x, -x, +y, -y`
    /// neighbour order, so the chosen detour is deterministic).
    fn route(&self, from: NodeId, to: NodeId) -> Result<Route, RouteError> {
        let unreachable = Err(RouteError::Unreachable { from, to });
        let (src, dst) = (self.geo.position(from), self.geo.position(to));
        if self.dead[src] || self.dead[dst] {
            return unreachable;
        }
        let mut links = Vec::new();
        self.geo.xy_links(from, to, &mut links);
        if links.iter().all(|&link| self.live(link)) {
            return Ok(Route {
                links: links.into(),
                detour: 0,
            });
        }
        // The link each reached position was first reached over.
        let mut parent = vec![usize::MAX; self.geo.positions()];
        let mut seen = vec![false; self.geo.positions()];
        let mut queue = VecDeque::new();
        seen[src] = true;
        queue.push_back(src);
        'bfs: while let Some(p) = queue.pop_front() {
            for dir in 0..DIRS {
                let Some(q) = self.live_step(p, dir) else {
                    continue;
                };
                if !seen[q] {
                    seen[q] = true;
                    parent[q] = p * DIRS + dir;
                    if q == dst {
                        break 'bfs;
                    }
                    queue.push_back(q);
                }
            }
        }
        if !seen[dst] {
            return unreachable;
        }
        links.clear();
        let mut at = dst;
        while at != src {
            links.push(parent[at]);
            at = parent[at] / DIRS;
        }
        links.reverse();
        let detour = links.len() as u64 - self.geo.hops(from, to);
        Ok(Route {
            links: links.into(),
            detour,
        })
    }

    /// Loads the route from `from` to `to` into `self.path` and returns
    /// its detour hops: the XY path on a healthy mesh, otherwise the
    /// current fault epoch's route, computed on its first use.
    fn load_path(&mut self, from: NodeId, to: NodeId) -> Result<u64, RouteError> {
        self.path.clear();
        if self.healthy() {
            self.geo.xy_links(from, to, &mut self.path);
            return Ok(0);
        }
        let route = match self.routes.get(&(from, to)) {
            Some(route) => route,
            None => {
                let route = self.route(from, to);
                self.routes.entry((from, to)).or_insert(route)
            }
        };
        let route = route.as_ref().map_err(|&e| e)?;
        self.path.extend_from_slice(&route.links);
        Ok(route.detour)
    }

    /// Sends a message at time `now`; returns its arrival time at `to`, or
    /// a [`RouteError`] when mesh faults leave no healthy path (in which
    /// case nothing is sent and no statistics change).
    ///
    /// The message reserves every link of its path for its serialization
    /// time on the given sub-network; waiting for busy links is accounted in
    /// [`NetStats::contention_cycles`]. The path is the XY route while it is
    /// healthy, or the shortest deterministic detour otherwise (extra hops
    /// accounted in [`NetStats::detour_hops`]). Node-local messages bypass
    /// the network entirely and arrive after `local_delay`.
    pub fn send(
        &mut self,
        now: Cycles,
        from: NodeId,
        to: NodeId,
        class: NetClass,
        payload_bytes: u64,
    ) -> Result<Cycles, RouteError> {
        if self.hop_trace {
            self.last_hops.clear();
        }
        if from == to {
            self.stats.messages += 1;
            self.stats.payload_bytes += payload_bytes;
            return Ok(now + self.cfg.local_delay);
        }
        let detour = self.load_path(from, to)?;
        self.stats.messages += 1;
        self.stats.payload_bytes += payload_bytes;
        self.stats.detour_hops += detour;
        let flits = self.cfg.flits(payload_bytes);
        // Forward pass: when does the header claim each link?
        self.claims.clear();
        let mut head = now + self.cfg.ni_overhead;
        for &link in &self.path {
            let state = &mut self.links[slot(link, class)];
            let start = head.max(state.free);
            self.stats.contention_cycles += start - head;
            state.stats.messages += 1;
            state.stats.contention_cycles += start - head;
            self.claims.push(start);
            head = start + self.cfg.router_delay;
        }
        let arrival = head + flits;
        if self.hop_trace {
            for (i, (&link, &start)) in self.path.iter().zip(&self.claims).enumerate() {
                let (from, to) = self.geo.ends(link);
                let end = self.claims.get(i + 1).copied().unwrap_or(arrival);
                self.last_hops.push(HopSegment {
                    from,
                    to,
                    start,
                    end,
                });
            }
        }
        match self.cfg.switching {
            SwitchingModel::VirtualCutThrough => {
                // Each link is held for the serialization time only.
                for (&link, &start) in self.path.iter().zip(&self.claims) {
                    let state = &mut self.links[slot(link, class)];
                    state.free = start + flits;
                    state.stats.busy_cycles += flits;
                    self.stats.link_busy_cycles += flits;
                }
            }
            SwitchingModel::Wormhole => {
                // Backward pass: a stalled header keeps the worm stretched
                // over its upstream links; link i is released only when the
                // tail clears it, which cannot precede the downstream
                // claim. The tail clears the last link `flits` after its
                // claim.
                let starts = &self.claims;
                let last = starts.len() - 1;
                let mut release = starts[last] + flits;
                for (i, &link) in self.path.iter().enumerate().rev() {
                    if i < last {
                        // Held from our claim until the tail drains into
                        // the next link (which it can enter only once that
                        // link was claimed).
                        release = (starts[i + 1] + flits).max(starts[i] + flits);
                    }
                    let state = &mut self.links[slot(link, class)];
                    state.free = release;
                    state.stats.busy_cycles += release - starts[i];
                    self.stats.link_busy_cycles += release - starts[i];
                }
            }
        }
        Ok(arrival)
    }

    /// Arrival time a message *would* have at zero load (no reservation,
    /// assuming a healthy XY path).
    pub fn probe_latency(&self, from: NodeId, to: NodeId, payload_bytes: u64) -> Cycles {
        self.cfg
            .zero_load_latency(self.geo.hops(from, to), payload_bytes)
    }

    /// Per-link breakdown of the traffic seen so far, sorted by
    /// `(from, to, class)` so the report order is deterministic. Links that
    /// never carried a message are omitted.
    pub fn link_report(&self) -> Vec<LinkReport> {
        let mut rows: Vec<LinkReport> = self
            .links
            .iter()
            .enumerate()
            .filter(|(_, state)| state.stats.messages > 0)
            .map(|(i, state)| {
                let (link, class) = (i / CLASSES.len(), CLASSES[i % CLASSES.len()]);
                let (from, to) = self.geo.ends(link);
                LinkReport {
                    from,
                    to,
                    class,
                    alive: self.live(link) && !self.dead[link / DIRS],
                    stats: state.stats,
                }
            })
            .collect();
        rows.sort_by_key(|r| (r.from, r.to, r.class));
        rows
    }
}

/// The map-based mesh this file held before its state moved into flat
/// arrays, kept compiled under `cfg(test)` as the differential-testing
/// oracle: the flat mesh must return the same arrivals, statistics, hop
/// segments, link report and components for every sequence of sends,
/// faults and repairs.
#[cfg(test)]
pub(crate) mod legacy {
    use std::collections::{BTreeSet, VecDeque};

    use ftcoma_mem::NodeId;
    use ftcoma_sim::{Cycles, FxHashMap};

    use super::{
        HopSegment, LinkReport, LinkStats, MeshGeometry, NetClass, NetConfig, NetStats, RouteError,
        SwitchingModel,
    };

    type Link = ((usize, usize), (usize, usize));

    /// The XY-routing path from `a` to `b` as a list of directed unit links
    /// `((x, y), (x', y'))`: first all X movement, then all Y movement.
    fn xy_path(geo: &MeshGeometry, a: NodeId, b: NodeId) -> Vec<Link> {
        let (mut x, mut y) = geo.coords(a);
        let (bx, by) = geo.coords(b);
        let mut links = Vec::with_capacity(geo.hops(a, b) as usize);
        while x != bx {
            let nx = if bx > x { x + 1 } else { x - 1 };
            links.push(((x, y), (nx, y)));
            x = nx;
        }
        while y != by {
            let ny = if by > y { y + 1 } else { y - 1 };
            links.push(((x, y), (x, ny)));
            y = ny;
        }
        links
    }

    #[derive(Debug, Clone)]
    pub(crate) struct LegacyMesh {
        geo: MeshGeometry,
        cfg: NetConfig,
        /// Next-free time of each directed link, per sub-network.
        link_free: FxHashMap<(Link, NetClass), Cycles>,
        stats: NetStats,
        /// Per-link breakdown of the aggregate statistics.
        link_stats: FxHashMap<(Link, NetClass), LinkStats>,
        /// Severed links (both directions of a cut are inserted). `BTreeSet`
        /// keeps iteration — and therefore any derived output — deterministic.
        failed_links: BTreeSet<Link>,
        /// Failed routers by coordinate; no message may traverse or terminate
        /// at a failed router.
        failed_routers: BTreeSet<(usize, usize)>,
        /// When set, `send` records the per-hop occupancy segments of
        /// the last routed message for the span exporter. Pure observation:
        /// arrival times and statistics are identical either way.
        hop_trace: bool,
        /// The last traced message's hops (see `last_hops`).
        last_hops: Vec<HopSegment>,
    }

    impl LegacyMesh {
        /// Creates an idle, fully healthy mesh.
        pub(crate) fn new(geo: MeshGeometry, cfg: NetConfig) -> Self {
            Self {
                geo,
                cfg,
                link_free: FxHashMap::default(),
                stats: NetStats::default(),
                link_stats: FxHashMap::default(),
                failed_links: BTreeSet::new(),
                failed_routers: BTreeSet::new(),
                hop_trace: false,
                last_hops: Vec::new(),
            }
        }

        /// Enables or disables per-hop recording for subsequent sends. Off by
        /// default; enabling it changes no timing and no statistics.
        pub(crate) fn set_hop_trace(&mut self, on: bool) {
            self.hop_trace = on;
            if !on {
                self.last_hops.clear();
            }
        }

        /// The hop segments of the most recent `send` while hop
        /// tracing is on (empty for node-local sends or when tracing is off).
        pub(crate) fn last_hops(&self) -> &[HopSegment] {
            &self.last_hops
        }

        /// Accumulated statistics.
        pub(crate) fn stats(&self) -> &NetStats {
            &self.stats
        }

        /// Severs the bidirectional link between the routers of `a` and `b`;
        /// later traffic detours around it.
        ///
        /// # Panics
        ///
        /// Panics if the two nodes are not mesh-adjacent.
        pub(crate) fn fail_link(&mut self, a: NodeId, b: NodeId) {
            let (ca, cb) = self.link_between(a, b, "fail_link");
            self.failed_links.insert((ca, cb));
            self.failed_links.insert((cb, ca));
        }

        /// Restores a severed link between the routers of `a` and `b` (both
        /// directions); later traffic takes it again. Repairing a link that
        /// was never cut is a no-op, so repair schedules may race failures.
        ///
        /// # Panics
        ///
        /// Panics if the two nodes are not mesh-adjacent.
        pub(crate) fn repair_link(&mut self, a: NodeId, b: NodeId) {
            let (ca, cb) = self.link_between(a, b, "repair_link");
            self.failed_links.remove(&(ca, cb));
            self.failed_links.remove(&(cb, ca));
        }

        /// The link from `a`'s router to `b`'s; `op` names the caller in the
        /// panic when the two are not neighbours.
        fn link_between(&self, a: NodeId, b: NodeId, op: &str) -> Link {
            let (ca, cb) = (self.geo.coords(a), self.geo.coords(b));
            assert!(
                self.geo.neighbours(a).any(|n| n == b),
                "{op} needs mesh-adjacent nodes, got {a} at {ca:?} and {b} at {cb:?}"
            );
            (ca, cb)
        }

        /// Marks `node`'s router failed: no message may traverse or terminate
        /// at it until `repair_router`.
        pub(crate) fn fail_router(&mut self, node: NodeId) {
            self.failed_routers.insert(self.geo.coords(node));
        }

        /// Restores `node`'s router (a repaired node rejoins the mesh).
        pub(crate) fn repair_router(&mut self, node: NodeId) {
            self.failed_routers.remove(&self.geo.coords(node));
        }

        /// Has neither a link nor a router failed?
        pub(crate) fn healthy(&self) -> bool {
            self.failed_links.is_empty() && self.failed_routers.is_empty()
        }

        /// Is there a healthy route from `from` to `to`?
        pub(crate) fn reachable(&self, from: NodeId, to: NodeId) -> bool {
            from == to || self.route(from, to).is_ok()
        }

        /// The connected pieces of the mesh as it stands: for each node, the
        /// lowest-id node it can reach, so two nodes share an entry exactly
        /// when `reachable` joins them. Routes may pass the routers of
        /// dead nodes that still switch and empty grid positions; a node whose
        /// router failed is a piece of its own. One labelling pass over the
        /// grid answers every pair at once.
        pub(crate) fn components(&self) -> Vec<NodeId> {
            let cols = self.geo.cols();
            let at = |p: usize| (p % cols, p / cols);
            let index = |(x, y): (usize, usize)| y * cols + x;
            // Nodes hold the lowest grid positions, so the position a fill
            // starts from is the lowest node of its piece (if it has any).
            let mut label = vec![usize::MAX; cols * self.geo.rows()];
            for start in 0..label.len() {
                if label[start] != usize::MAX || self.failed_routers.contains(&at(start)) {
                    continue;
                }
                label[start] = start;
                let mut stack = vec![start];
                while let Some(p) = stack.pop() {
                    for q in self.grid_neighbours(at(p)) {
                        if label[index(q)] == usize::MAX && self.hop_ok(at(p), q) {
                            label[index(q)] = start;
                            stack.push(index(q));
                        }
                    }
                }
            }
            (0..self.geo.nodes())
                .map(|i| NodeId::new(if label[i] == usize::MAX { i } else { label[i] } as u16))
                .collect()
        }

        /// May a message hop from router `a` to the adjacent router `b`?
        fn hop_ok(&self, a: (usize, usize), b: (usize, usize)) -> bool {
            !self.failed_routers.contains(&b) && !self.failed_links.contains(&(a, b))
        }

        /// The grid positions (empty ones included) one hop from `(x, y)`, in
        /// the fixed `+x, -x, +y, -y` order that keeps detours deterministic.
        fn grid_neighbours(&self, (x, y): (usize, usize)) -> impl Iterator<Item = (usize, usize)> {
            [
                (x + 1 < self.geo.cols()).then_some((x + 1, y)),
                (x > 0).then(|| (x - 1, y)),
                (y + 1 < self.geo.rows()).then_some((x, y + 1)),
                (y > 0).then(|| (x, y - 1)),
            ]
            .into_iter()
            .flatten()
        }

        /// The healthy route from `from` to `to`: the XY path when it is
        /// intact, otherwise the shortest detour over healthy links and
        /// routers (breadth-first misroute with a fixed `+x, -x, +y, -y`
        /// neighbour order, so the chosen detour is deterministic). Returns
        /// the links and the extra hops relative to the Manhattan distance.
        fn route(&self, from: NodeId, to: NodeId) -> Result<(Vec<Link>, u64), RouteError> {
            let xy = xy_path(&self.geo, from, to);
            if self.healthy() {
                return Ok((xy, 0));
            }
            let src = self.geo.coords(from);
            let dst = self.geo.coords(to);
            if self.failed_routers.contains(&src) || self.failed_routers.contains(&dst) {
                return Err(RouteError::Unreachable { from, to });
            }
            if xy.iter().all(|&(a, b)| self.hop_ok(a, b)) {
                return Ok((xy, 0));
            }
            let (cols, rows) = (self.geo.cols(), self.geo.rows());
            let idx = |(x, y): (usize, usize)| y * cols + x;
            let mut parent: Vec<Option<(usize, usize)>> = vec![None; cols * rows];
            let mut seen = vec![false; cols * rows];
            let mut queue = VecDeque::new();
            seen[idx(src)] = true;
            queue.push_back(src);
            'bfs: while let Some(at) = queue.pop_front() {
                for nb in self.grid_neighbours(at) {
                    if !seen[idx(nb)] && self.hop_ok(at, nb) {
                        seen[idx(nb)] = true;
                        parent[idx(nb)] = Some(at);
                        if nb == dst {
                            break 'bfs;
                        }
                        queue.push_back(nb);
                    }
                }
            }
            if !seen[idx(dst)] {
                return Err(RouteError::Unreachable { from, to });
            }
            let mut links = Vec::new();
            let mut cur = dst;
            while cur != src {
                let prev = parent[idx(cur)].expect("reached routers have parents");
                links.push((prev, cur));
                cur = prev;
            }
            links.reverse();
            let detour = links.len() as u64 - self.geo.hops(from, to);
            Ok((links, detour))
        }

        /// Sends a message at time `now`; returns its arrival time at `to`, or
        /// a `RouteError` when mesh faults leave no healthy path (in which
        /// case nothing is sent and no statistics change).
        ///
        /// The message reserves every link of its path for its serialization
        /// time on the given sub-network; waiting for busy links is accounted in
        /// `NetStats::contention_cycles`. The path is the XY route while it is
        /// healthy, or the shortest deterministic detour otherwise (extra hops
        /// accounted in `NetStats::detour_hops`). Node-local messages bypass
        /// the network entirely and arrive after `local_delay`.
        pub(crate) fn send(
            &mut self,
            now: Cycles,
            from: NodeId,
            to: NodeId,
            class: NetClass,
            payload_bytes: u64,
        ) -> Result<Cycles, RouteError> {
            if self.hop_trace {
                self.last_hops.clear();
            }
            if from == to {
                self.stats.messages += 1;
                self.stats.payload_bytes += payload_bytes;
                return Ok(now + self.cfg.local_delay);
            }
            let (path, detour) = self.route(from, to)?;
            self.stats.messages += 1;
            self.stats.payload_bytes += payload_bytes;
            self.stats.detour_hops += detour;
            let flits = self.cfg.flits(payload_bytes);
            // Forward pass: when does the header claim each link?
            let mut starts = Vec::with_capacity(path.len());
            let mut head = now + self.cfg.ni_overhead;
            for &link in &path {
                let free = self.link_free.get(&(link, class)).copied().unwrap_or(0);
                let start = head.max(free);
                self.stats.contention_cycles += start - head;
                let per = self.link_stats.entry((link, class)).or_default();
                per.messages += 1;
                per.contention_cycles += start - head;
                starts.push(start);
                head = start + self.cfg.router_delay;
            }
            let arrival = head + flits;
            if self.hop_trace {
                for (i, (&(a, b), &start)) in path.iter().zip(&starts).enumerate() {
                    let end = starts.get(i + 1).copied().unwrap_or(arrival);
                    self.last_hops.push(HopSegment {
                        from: a,
                        to: b,
                        start,
                        end,
                    });
                }
            }
            match self.cfg.switching {
                SwitchingModel::VirtualCutThrough => {
                    // Each link is held for the serialization time only.
                    for (&link, &start) in path.iter().zip(&starts) {
                        self.link_free.insert((link, class), start + flits);
                        self.stats.link_busy_cycles += flits;
                        self.link_stats
                            .entry((link, class))
                            .or_default()
                            .busy_cycles += flits;
                    }
                }
                SwitchingModel::Wormhole => {
                    // Backward pass: a stalled header keeps the worm stretched
                    // over its upstream links; link i is released only when the
                    // tail clears it, which cannot precede the downstream
                    // claim. The tail clears the last link `flits` after its
                    // claim.
                    let mut release = *starts.last().expect("non-empty path") + flits;
                    for (i, &link) in path.iter().enumerate().rev() {
                        if i < path.len() - 1 {
                            // Held from our claim until the tail drains into
                            // the next link (which it can enter only once that
                            // link was claimed).
                            release = (starts[i + 1] + flits).max(starts[i] + flits);
                        }
                        self.link_free.insert((link, class), release);
                        self.stats.link_busy_cycles += release - starts[i];
                        self.link_stats
                            .entry((link, class))
                            .or_default()
                            .busy_cycles += release - starts[i];
                    }
                }
            }
            Ok(arrival)
        }

        /// Per-link breakdown of the traffic seen so far, sorted by
        /// `(from, to, class)` so the report order is deterministic. Links that
        /// never carried a message are omitted.
        pub(crate) fn link_report(&self) -> Vec<LinkReport> {
            let mut rows: Vec<LinkReport> = self
                .link_stats
                .iter()
                .map(|(&((from, to), class), &stats)| LinkReport {
                    from,
                    to,
                    class,
                    alive: !self.failed_links.contains(&(from, to))
                        && !self.failed_routers.contains(&from)
                        && !self.failed_routers.contains(&to),
                    stats,
                })
                .collect();
            rows.sort_by_key(|r| (r.from, r.to, r.class));
            rows
        }
    }
}

#[cfg(test)]
mod tests {
    use super::legacy::LegacyMesh;
    use super::*;
    use ftcoma_sim::DetRng;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn geometry_for_paper_sizes() {
        for (nodes, dims) in [
            (9, (3, 3)),
            (16, (4, 4)),
            (30, (6, 5)),
            (42, (7, 6)),
            (56, (8, 7)),
        ] {
            let g = MeshGeometry::for_nodes(nodes);
            assert_eq!((g.cols(), g.rows()), dims, "for {nodes} nodes");
        }
    }

    #[test]
    fn geometry_prime_fallback() {
        let g = MeshGeometry::for_nodes(13);
        assert!(g.cols() * g.rows() >= 13);
        assert!(g.cols().abs_diff(g.rows()) <= 1);
        // All 13 nodes must have valid coordinates.
        for i in 0..13 {
            let _ = g.coords(n(i));
        }
    }

    #[test]
    fn path_length_matches_hops() {
        let g = MeshGeometry::for_nodes(16);
        let mut links = Vec::new();
        for a in 0..16u16 {
            for b in 0..16u16 {
                links.clear();
                g.xy_links(n(a), n(b), &mut links);
                assert_eq!(links.len() as u64, g.hops(n(a), n(b)));
                // The links chain from a's position to b's.
                let mut at = usize::from(a);
                for &link in &links {
                    assert_eq!(link / DIRS, at, "{a} -> {b}");
                    at = g.head(link);
                }
                assert_eq!(at, usize::from(b));
            }
        }
    }

    #[test]
    fn zero_load_latency_formula() {
        let cfg = NetConfig::default();
        // 1 hop, header-only: 8 + 4 + 4.
        assert_eq!(cfg.zero_load_latency(1, 0), 16);
        // 2 hops, 128-byte item: 8 + 8 + 32.
        assert_eq!(cfg.zero_load_latency(2, 128), 48);
        // Each extra hop adds exactly router_delay.
        assert_eq!(
            cfg.zero_load_latency(3, 128) - cfg.zero_load_latency(2, 128),
            4
        );
    }

    #[test]
    fn send_matches_zero_load_when_idle() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        let t = mesh.send(100, n(0), n(2), NetClass::Reply, 128).unwrap();
        assert_eq!(t, 100 + mesh.probe_latency(n(0), n(2), 128));
        assert_eq!(mesh.stats().contention_cycles, 0);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        // Two 128-byte messages over the same link at the same instant.
        let t1 = mesh.send(0, n(0), n(1), NetClass::Reply, 128).unwrap();
        let t2 = mesh.send(0, n(0), n(1), NetClass::Reply, 128).unwrap();
        assert_eq!(t1, 44); // 8 + 4 + 32
                            // Second message waits 32 flit-cycles for the link.
        assert_eq!(t2, t1 + 32);
        assert_eq!(mesh.stats().contention_cycles, 32);
    }

    #[test]
    fn subnetworks_do_not_interfere() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        let t1 = mesh.send(0, n(0), n(1), NetClass::Request, 128).unwrap();
        let t2 = mesh.send(0, n(0), n(1), NetClass::Reply, 128).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn local_messages_bypass_network() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        assert_eq!(mesh.send(10, n(3), n(3), NetClass::Request, 128), Ok(11));
        assert_eq!(mesh.stats().link_busy_cycles, 0);
    }

    #[test]
    fn flit_count_has_header_floor() {
        let cfg = NetConfig::default();
        assert_eq!(cfg.flits(0), 4);
        assert_eq!(cfg.flits(3), 4);
        assert_eq!(cfg.flits(128), 32);
        assert_eq!(cfg.flits(129), 33);
    }

    #[test]
    fn wormhole_zero_load_latency_matches_vct() {
        for (a, b, bytes) in [(0u16, 3u16, 0u64), (0, 15, 128), (5, 6, 128)] {
            // Fresh meshes: at zero load the models are identical.
            let mut vct = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
            let mut wh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::wormhole());
            assert_eq!(
                vct.send(0, n(a), n(b), NetClass::Reply, bytes).unwrap(),
                wh.send(0, n(a), n(b), NetClass::Reply, bytes).unwrap(),
            );
        }
    }

    #[test]
    fn wormhole_holds_upstream_links_when_blocked() {
        // Saturate link (2,0)->(3,0); then send a long worm 0->3 whose head
        // blocks there. Under wormhole switching the worm keeps holding
        // (0,0)->(1,0), delaying an unrelated 0->1 message; under VCT the
        // blocked worm releases its upstream links.
        let setup = |cfg: NetConfig| {
            let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), cfg);
            mesh.send(0, n(2), n(3), NetClass::Reply, 1024).unwrap(); // busy last link
            mesh.send(0, n(0), n(3), NetClass::Reply, 1024).unwrap(); // the blocked worm
            mesh.send(1, n(0), n(1), NetClass::Reply, 0).unwrap() // the bystander
        };
        let vct = setup(NetConfig::default());
        let wh = setup(NetConfig::wormhole());
        assert!(
            wh > vct,
            "wormhole HOL blocking must delay the bystander ({wh} vs {vct})"
        );
    }

    #[test]
    fn wormhole_busy_accounting_exceeds_serialization_under_blocking() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::wormhole());
        mesh.send(0, n(2), n(3), NetClass::Reply, 2048).unwrap();
        mesh.send(0, n(0), n(3), NetClass::Reply, 2048).unwrap();
        // 2048B = 512 flits; two messages over 1 and 3 links respectively
        // would occupy 4 * 512 link-cycles without blocking; the stalled
        // worm holds its upstream links longer.
        assert!(mesh.stats().link_busy_cycles > 4 * 512);
    }

    #[test]
    fn link_report_matches_aggregate_stats() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        mesh.send(0, n(0), n(1), NetClass::Reply, 128).unwrap();
        mesh.send(0, n(0), n(1), NetClass::Reply, 128).unwrap(); // contends on (0,0)->(1,0)
        mesh.send(0, n(0), n(1), NetClass::Request, 0).unwrap();
        mesh.send(5, n(3), n(3), NetClass::Request, 64).unwrap(); // local: no links

        let report = mesh.link_report();
        // One link on each sub-network, sorted Request before Reply.
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].from, (0, 0));
        assert_eq!(report[0].to, (1, 0));
        assert_eq!(report[0].class, NetClass::Request);
        assert_eq!(report[1].class, NetClass::Reply);
        assert_eq!(report[1].stats.messages, 2);

        // Per-link rows sum back to the aggregate counters.
        let busy: Cycles = report.iter().map(|r| r.stats.busy_cycles).sum();
        let cont: Cycles = report.iter().map(|r| r.stats.contention_cycles).sum();
        assert_eq!(busy, mesh.stats().link_busy_cycles);
        assert_eq!(cont, mesh.stats().contention_cycles);
        assert!(report[1].utilization(1000) > 0.0);
        assert_eq!(report[1].utilization(0), 0.0);
    }

    #[test]
    fn hop_trace_records_contiguous_segments_without_changing_timing() {
        let mut plain = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        let mut traced = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        traced.set_hop_trace(true);
        // Two-hop message: (0,0) -> (1,0) -> (2,0).
        let a = plain.send(100, n(0), n(2), NetClass::Request, 128).unwrap();
        let b = traced
            .send(100, n(0), n(2), NetClass::Request, 128)
            .unwrap();
        assert_eq!(a, b, "hop tracing must not perturb arrival times");
        assert_eq!(plain.stats(), traced.stats());

        let hops = traced.last_hops().to_vec();
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].from, (0, 0));
        assert_eq!(hops[1].to, (2, 0));
        // Segments are contiguous and end at the arrival time.
        assert_eq!(hops[0].end, hops[1].start);
        assert_eq!(hops[1].end, b);
        assert_eq!(hops[0].start, 100 + NetConfig::default().ni_overhead);

        // Local sends and disabled tracing leave no hops behind.
        traced.send(200, n(5), n(5), NetClass::Request, 0).unwrap();
        assert!(traced.last_hops().is_empty());
        traced.set_hop_trace(false);
        traced.send(300, n(0), n(2), NetClass::Request, 0).unwrap();
        assert!(traced.last_hops().is_empty());
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        let t1 = mesh.send(0, n(0), n(1), NetClass::Reply, 128).unwrap();
        let t2 = mesh.send(0, n(14), n(15), NetClass::Reply, 128).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(mesh.stats().contention_cycles, 0);
    }

    // Regression for the phantom-arrival bug: before the mesh knew about
    // failed hardware, XY routing happily traversed a permanently failed
    // node's router and a send *to* a dead node returned a normal arrival.
    #[test]
    fn send_to_failed_node_is_a_route_error_not_a_phantom_arrival() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        mesh.fail_router(n(5));
        assert!(mesh.router_failed(n(5)));
        assert_eq!(
            mesh.send(0, n(0), n(5), NetClass::Request, 0),
            Err(RouteError::Unreachable {
                from: n(0),
                to: n(5),
            })
        );
        // A refused message is not accounted as traffic.
        assert_eq!(mesh.stats().messages, 0);
        assert!(!mesh.reachable(n(0), n(5)));
    }

    // Regression pinning the post-failure route: node 1 at (1,0) dies; the
    // XY path 0 -> 2 ran straight through its router and must now detour
    // via row 1 — (0,0) (0,1) (1,1) (2,1) (2,0) — two extra hops.
    #[test]
    fn traffic_detours_around_a_permanently_failed_node() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        mesh.fail_router(n(1));
        let t = mesh.send(0, n(0), n(2), NetClass::Request, 0).unwrap();
        // 4-hop detour at zero load: 8 + 4*4 + 4 = 28 cycles.
        assert_eq!(t, 28);
        assert_eq!(mesh.stats().detour_hops, 2);
        // The survivors still reach each other.
        assert!(mesh.reachable(n(0), n(2)));
        assert!(mesh.reachable(n(2), n(0)));
    }

    #[test]
    fn repairing_a_router_restores_the_xy_route() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        mesh.fail_router(n(1));
        assert!(mesh.send(0, n(0), n(1), NetClass::Request, 0).is_err());
        mesh.repair_router(n(1));
        assert!(mesh.healthy());
        assert_eq!(mesh.send(0, n(0), n(2), NetClass::Request, 0), Ok(20));
        assert_eq!(mesh.stats().detour_hops, 0);
    }

    #[test]
    fn repairing_a_cut_link_restores_the_direct_route() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        mesh.fail_link(n(0), n(1));
        // Detoured while cut: 3 hops instead of 1.
        assert_eq!(mesh.send(0, n(0), n(1), NetClass::Request, 0), Ok(24));
        mesh.repair_link(n(0), n(1));
        assert!(mesh.healthy());
        // Direct again — and both directions were restored.
        assert_eq!(mesh.send(100, n(0), n(1), NetClass::Request, 0), Ok(116));
        assert_eq!(mesh.send(200, n(1), n(0), NetClass::Request, 0), Ok(216));
        // Repairing an intact link is a no-op, so schedules may race.
        mesh.repair_link(n(0), n(1));
        assert!(mesh.healthy());
    }

    #[test]
    fn severed_corner_is_unreachable() {
        // 2x2 mesh: cutting both of node 0's links isolates it entirely.
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(4), NetConfig::default());
        mesh.fail_link(n(0), n(1));
        mesh.fail_link(n(0), n(2));
        assert!(!mesh.reachable(n(0), n(3)));
        assert!(mesh.send(0, n(3), n(0), NetClass::Reply, 0).is_err());
        // The other three nodes still form a connected component.
        assert!(mesh.reachable(n(1), n(2)));
        // A node always reaches itself (local delivery needs no router).
        assert!(mesh.reachable(n(0), n(0)));
    }

    #[test]
    fn cut_link_detours_but_stays_connected() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        mesh.fail_link(n(0), n(1));
        // Both directions of the cut are severed; the grid stays connected.
        let t = mesh.send(0, n(0), n(1), NetClass::Request, 0).unwrap();
        // Shortest healthy path is 3 hops: (0,0) (0,1) (1,1) (1,0).
        assert_eq!(t, 8 + 3 * 4 + 4);
        assert_eq!(mesh.stats().detour_hops, 2);
        for a in 0..16u16 {
            for b in 0..16u16 {
                assert!(mesh.reachable(n(a), n(b)), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn link_report_flags_failed_links_and_routers() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        mesh.send(0, n(0), n(1), NetClass::Request, 0).unwrap(); // (0,0)->(1,0)
        mesh.send(0, n(4), n(5), NetClass::Request, 0).unwrap(); // (0,1)->(1,1)
        mesh.send(0, n(8), n(9), NetClass::Request, 0).unwrap(); // (0,2)->(1,2)
        mesh.fail_link(n(0), n(1));
        mesh.fail_router(n(4));
        let report = mesh.link_report();
        assert_eq!(report.len(), 3);
        assert!(!report[0].alive, "cut link must report dead");
        assert!(
            !report[1].alive,
            "link out of a failed router must report dead"
        );
        assert!(report[2].alive);
    }

    #[test]
    fn neighbours_and_links_are_the_grid_pairs_in_ascending_order() {
        // 13 nodes fill a 4x4 grid with three empty positions.
        for nodes in [1u16, 2, 4, 9, 13, 16] {
            let g = MeshGeometry::for_nodes(usize::from(nodes));
            for a in (0..nodes).map(n) {
                let near = (0..nodes).map(n).filter(|&b| g.hops(a, b) == 1);
                assert!(g.neighbours(a).eq(near), "{a} of {nodes}");
            }
            let pairs = (0..nodes).flat_map(|a| (a + 1..nodes).map(move |b| (n(a), n(b))));
            let links = pairs.filter(|&(a, b)| g.hops(a, b) == 1);
            assert!(g.links().into_iter().eq(links), "{nodes} nodes");
        }
        // Node 9 of 13 sits at (1, 2), above an empty position.
        let below_empty = MeshGeometry::for_nodes(13).neighbours(n(9));
        assert!(below_empty.eq([n(5), n(8), n(10)]));
    }

    #[test]
    fn connected_joins_only_neighbouring_selected_nodes() {
        let g = MeshGeometry::for_nodes(9); // 3x3
        let without = |down: &[usize]| g.connected(|a| !down.contains(&a.index()));
        assert!(without(&[]) && without(&[4]), "the ring around the middle");
        assert!(
            !without(&[1, 4, 7]) && !without(&[1, 3]),
            "a split, a lone corner"
        );
        assert!(!without(&[0, 1, 2, 3, 4, 5, 6, 7, 8]), "nothing selected");
        assert!(g.connected(|a| a == n(8)));
        assert!(
            !g.connected(|a| a == n(0) || a == n(4)),
            "diagonals do not touch"
        );
        // Empty positions carry nothing: node 12 of 13 touches only node 8.
        assert!(!MeshGeometry::for_nodes(13).connected(|a| a != n(8)));
    }

    #[test]
    fn components_agree_with_reachable_for_every_pair() {
        let check = |mesh: &Mesh| {
            let nodes = (0..mesh.geometry().nodes() as u16).map(n);
            let comp = mesh.components();
            for a in nodes.clone() {
                let lowest = nodes.clone().find(|&b| mesh.reachable(a, b));
                assert_eq!(Some(comp[a.index()]), lowest, "{a}");
                for b in nodes.clone() {
                    let joined = comp[a.index()] == comp[b.index()];
                    assert_eq!(joined, mesh.reachable(a, b), "{a} -> {b}");
                }
            }
        };
        // Every failed router alone, and every pair of cut links with and
        // without a failed router, on a full grid and one with gaps.
        for nodes in [9, 13] {
            let g = MeshGeometry::for_nodes(nodes);
            let fresh = || Mesh::new(g, NetConfig::default());
            check(&fresh());
            for r in 0..nodes as u16 {
                let mut mesh = fresh();
                mesh.fail_router(n(r));
                check(&mesh);
            }
            let links = g.links();
            for (i, &(a, b)) in links.iter().enumerate() {
                for &(c, d) in &links[i + 1..] {
                    let mut mesh = fresh();
                    mesh.fail_link(a, b);
                    mesh.fail_link(c, d);
                    check(&mesh);
                    mesh.fail_router(n(4));
                    check(&mesh);
                }
            }
        }
        // Node 12 of 13 still reaches the rest through the empty position
        // to its right once its one link to a node is cut.
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(13), NetConfig::default());
        mesh.fail_link(n(12), n(8));
        assert_eq!(mesh.components()[12], n(0));
        // Isolating two corners of a 3x3 leaves three pieces.
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(9), NetConfig::default());
        for (a, b) in [(0, 1), (0, 3), (8, 7), (8, 5)] {
            mesh.fail_link(n(a), n(b));
        }
        assert_eq!(mesh.components(), [0, 1, 1, 1, 1, 1, 1, 1, 8].map(n));
    }

    // Satellite: wormhole switching under contention *and* a failed link —
    // detoured worms still exhibit head-of-line blocking on their (longer)
    // path, and blocking accounting still exceeds pure serialization.
    #[test]
    fn wormhole_contention_with_a_failed_link() {
        let mut mesh = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::wormhole());
        mesh.fail_link(n(2), n(3)); // severs (2,0)<->(3,0)
                                    // Saturate the detour's final link (3,1)->(3,0) with a long worm.
        let t_block = mesh.send(0, n(7), n(3), NetClass::Reply, 2048).unwrap();
        // 0 -> 3 detours (2,0) (2,1) (3,1) (3,0) and queues behind it.
        let t = mesh.send(0, n(0), n(3), NetClass::Reply, 2048).unwrap();
        assert!(t > t_block, "detoured worm must queue behind the blocker");
        assert_eq!(mesh.stats().detour_hops, 2);
        assert!(mesh.stats().contention_cycles > 0);
        // 2048B = 512 flits over 1 + 5 links: blocking must hold links
        // beyond the 6 * 512 serialization cycles.
        assert!(mesh.stats().link_busy_cycles > 6 * 512);
        // The detour is identical under VCT (routing is switching-agnostic)
        // but the wormhole worm holds its upstream links while stalled.
        let mut vct = Mesh::new(MeshGeometry::for_nodes(16), NetConfig::default());
        vct.fail_link(n(2), n(3));
        vct.send(0, n(7), n(3), NetClass::Reply, 2048).unwrap();
        vct.send(0, n(0), n(3), NetClass::Reply, 2048).unwrap();
        assert_eq!(vct.stats().detour_hops, mesh.stats().detour_hops);
        assert!(mesh.stats().link_busy_cycles > vct.stats().link_busy_cycles);
    }

    /// Drives the flat mesh and the map-based one it replaced through the
    /// same seeded sequences of sends, link cuts and repairs, and router
    /// failures and repairs, on full grids and one with empty positions,
    /// under both switching models with hop tracing on. Every answer must
    /// match after every step; a copy of the flat mesh taken mid-sequence
    /// (cache and all) carries on in its place.
    #[test]
    fn flat_mesh_matches_the_map_based_mesh() {
        let mut rng = DetRng::seeded(0xF1A7_3E5B);
        let mut pick = |bound: usize| rng.below(bound as u64) as usize;
        // Sends on a damaged mesh, and how many of them were refused.
        let (mut damaged, mut refused, mut total) = (0, 0, 0);
        for nodes in [4u16, 9, 13, 16] {
            let geo = MeshGeometry::for_nodes(usize::from(nodes));
            let links = geo.links();
            for cfg in [NetConfig::default(), NetConfig::wormhole()] {
                for run in 0..12 {
                    let mut flat = Mesh::new(geo, cfg);
                    let mut old = LegacyMesh::new(geo, cfg);
                    flat.set_hop_trace(true);
                    old.set_hop_trace(true);
                    let (mut cut, mut dead) = (Vec::new(), Vec::new());
                    let mut now = 0;
                    for step in 0..1_500 {
                        let at = || format!("{nodes} nodes, {cfg:?}, run {run}, step {step}");
                        match pick(100) {
                            0..=87 => {
                                // Times mostly advance and sometimes repeat.
                                now += [0, 0, 1, 7, 40, 300][pick(6)];
                                let from = n(pick(usize::from(nodes)) as u16);
                                let to = match pick(10) {
                                    0 => from,
                                    _ => n(pick(usize::from(nodes)) as u16),
                                };
                                let class = CLASSES[pick(2)];
                                let bytes = [0, 128, 2048][pick(3)];
                                let got = flat.send(now, from, to, class, bytes);
                                assert_eq!(got, old.send(now, from, to, class, bytes), "{}", at());
                                total += 1;
                                damaged += u64::from(!flat.healthy());
                                refused += u64::from(got.is_err());
                            }
                            88..=90 if !links.is_empty() => {
                                let (a, b) = links[pick(links.len())];
                                flat.fail_link(a, b);
                                old.fail_link(a, b);
                                cut.push((a, b));
                            }
                            91..=95 if !links.is_empty() => {
                                // Mostly a cut link; sometimes an intact one.
                                let (a, b) = match pick(4) {
                                    0 => links[pick(links.len())],
                                    _ if !cut.is_empty() => cut.swap_remove(pick(cut.len())),
                                    _ => links[pick(links.len())],
                                };
                                flat.repair_link(a, b);
                                old.repair_link(a, b);
                            }
                            96 => {
                                let r = n(pick(usize::from(nodes)) as u16);
                                flat.fail_router(r);
                                old.fail_router(r);
                                dead.push(r);
                            }
                            _ => {
                                let r = match dead.is_empty() {
                                    false => dead.swap_remove(pick(dead.len())),
                                    true => n(pick(usize::from(nodes)) as u16),
                                };
                                flat.repair_router(r);
                                old.repair_router(r);
                            }
                        }
                        assert_eq!(flat.stats(), old.stats(), "{}", at());
                        assert_eq!(flat.last_hops(), old.last_hops(), "{}", at());
                        assert_eq!(flat.healthy(), old.healthy(), "{}", at());
                        if step == 750 {
                            flat = flat.clone();
                        }
                    }
                    assert_eq!(flat.link_report(), old.link_report(), "run {run}");
                    assert_eq!(flat.components(), old.components(), "run {run}");
                    for a in (0..nodes).map(n) {
                        for b in (0..nodes).map(n) {
                            assert_eq!(flat.reachable(a, b), old.reachable(a, b), "{a} -> {b}");
                        }
                    }
                }
            }
        }
        // Both regimes, and refusals, make up a real share of the sends.
        assert!(
            total / 5 < damaged && damaged < total * 9 / 10,
            "{damaged} of {total}"
        );
        assert!(refused > total / 20, "{refused} of {total}");
    }
}
