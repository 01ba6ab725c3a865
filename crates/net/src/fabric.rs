//! Interconnect abstraction: mesh or bus.

use ftcoma_mem::NodeId;
use ftcoma_sim::Cycles;

use crate::bus::{Bus, BusConfig};
use crate::mesh::{
    HopSegment, LinkReport, Mesh, MeshGeometry, NetClass, NetConfig, NetStats, RouteError,
};

/// Which interconnect to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricConfig {
    /// The paper's 2-D wormhole mesh.
    Mesh(NetConfig),
    /// A split-transaction shared bus (snooping-style fabric).
    Bus(BusConfig),
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig::Mesh(NetConfig::default())
    }
}

/// A constructed interconnect.
///
/// # Example
///
/// ```
/// use ftcoma_net::{Fabric, FabricConfig, NetClass};
/// use ftcoma_mem::NodeId;
///
/// let mut f = Fabric::new(FabricConfig::default(), 16);
/// let arrival = f.send(0, NodeId::new(0), NodeId::new(1), NetClass::Request, 0);
/// assert_eq!(arrival, Ok(16)); // mesh zero-load latency at 1 hop
/// ```
#[derive(Debug, Clone)]
pub enum Fabric {
    /// A mesh instance.
    Mesh(Mesh),
    /// A bus instance.
    Bus(Bus),
}

impl Fabric {
    /// Builds the configured interconnect for `nodes` nodes.
    pub fn new(cfg: FabricConfig, nodes: usize) -> Self {
        match cfg {
            FabricConfig::Mesh(net) => Fabric::Mesh(Mesh::new(MeshGeometry::for_nodes(nodes), net)),
            FabricConfig::Bus(bus) => Fabric::Bus(Bus::new(bus)),
        }
    }

    /// Sends a message; returns its arrival time (see the concrete types),
    /// or a [`RouteError`] when mesh faults leave no healthy path. A bus is
    /// a single shared fault-free medium and never fails a send.
    pub fn send(
        &mut self,
        now: Cycles,
        from: NodeId,
        to: NodeId,
        class: NetClass,
        payload_bytes: u64,
    ) -> Result<Cycles, RouteError> {
        match self {
            Fabric::Mesh(m) => m.send(now, from, to, class, payload_bytes),
            Fabric::Bus(b) => Ok(b.send(now, from, to, class, payload_bytes)),
        }
    }

    /// Severs a mesh link between two adjacent nodes (bus: no-op).
    ///
    /// # Panics
    ///
    /// Panics if the fabric is a mesh and the nodes are not mesh-adjacent.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        if let Fabric::Mesh(m) = self {
            m.fail_link(a, b);
        }
    }

    /// Fails a mesh router (bus: no-op).
    pub fn fail_router(&mut self, node: NodeId) {
        if let Fabric::Mesh(m) = self {
            m.fail_router(node);
        }
    }

    /// Restores a repaired node's router (bus: no-op).
    pub fn repair_node(&mut self, node: NodeId) {
        if let Fabric::Mesh(m) = self {
            m.repair_router(node);
        }
    }

    /// Restores a severed mesh link between two adjacent nodes (bus:
    /// no-op). Repairing an intact link is a no-op on the mesh too.
    ///
    /// # Panics
    ///
    /// Panics if the fabric is a mesh and the nodes are not mesh-adjacent.
    pub fn repair_link(&mut self, a: NodeId, b: NodeId) {
        if let Fabric::Mesh(m) = self {
            m.repair_link(a, b);
        }
    }

    /// For each of the `nodes` nodes, the lowest-id node it can reach
    /// ([`Mesh::components`]), so two nodes share an entry exactly when a
    /// healthy route joins them. A bus is one component.
    pub fn components(&self, nodes: usize) -> Vec<NodeId> {
        match self {
            Fabric::Mesh(m) => m.components(),
            Fabric::Bus(_) => vec![NodeId::new(0); nodes],
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        match self {
            Fabric::Mesh(m) => m.stats(),
            Fabric::Bus(b) => b.stats(),
        }
    }

    /// Per-link traffic breakdown. A bus has no point-to-point links, so it
    /// reports an empty list; callers should fall back to the aggregate
    /// [`NetStats`].
    pub fn link_report(&self) -> Vec<LinkReport> {
        match self {
            Fabric::Mesh(m) => m.link_report(),
            Fabric::Bus(_) => Vec::new(),
        }
    }

    /// Enables per-hop recording for the span exporter (mesh only; a bus
    /// has no hops). Pure observation — timing and statistics are
    /// unchanged.
    pub fn set_hop_trace(&mut self, on: bool) {
        if let Fabric::Mesh(m) = self {
            m.set_hop_trace(on);
        }
    }

    /// Hop segments of the most recent send while hop tracing is on
    /// (always empty for a bus).
    pub fn last_hops(&self) -> &[HopSegment] {
        match self {
            Fabric::Mesh(m) => m.last_hops(),
            Fabric::Bus(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_both_kinds() {
        let mut mesh = Fabric::new(FabricConfig::default(), 9);
        let mut bus = Fabric::new(FabricConfig::Bus(BusConfig::default()), 9);
        let a = mesh
            .send(0, NodeId::new(0), NodeId::new(8), NetClass::Reply, 128)
            .unwrap();
        let b = bus
            .send(0, NodeId::new(0), NodeId::new(8), NetClass::Reply, 128)
            .unwrap();
        assert!(a > 0 && b > 0);
        assert_eq!(mesh.stats().messages, 1);
        assert_eq!(bus.stats().messages, 1);
    }

    #[test]
    fn mesh_faults_pass_through_while_a_bus_stays_fault_free() {
        let one_piece = [NodeId::new(0); 16];
        let mut mesh = Fabric::new(FabricConfig::default(), 16);
        mesh.fail_router(NodeId::new(1));
        let comp = mesh.components(16);
        assert_eq!(
            (comp[0], comp[1], comp[15]),
            (one_piece[0], NodeId::new(1), one_piece[0])
        );
        assert!(mesh
            .send(0, NodeId::new(0), NodeId::new(1), NetClass::Request, 0)
            .is_err());
        mesh.repair_node(NodeId::new(1));
        assert_eq!(mesh.components(16), one_piece);

        let mut bus = Fabric::new(FabricConfig::Bus(BusConfig::default()), 4);
        bus.fail_router(NodeId::new(1));
        assert_eq!(bus.components(4), one_piece[..4]);
        assert!(bus
            .send(0, NodeId::new(0), NodeId::new(1), NetClass::Request, 0)
            .is_ok());
    }
}
