//! Interconnection-network model for the ft-coma simulator.
//!
//! The paper's machine connects nodes "through a worm-hole routed synchronous
//! mesh using a flit size of 32 bits. The network is made of two
//! sub-networks, one used for requests, the other used for replies. The
//! network fall-through time is one cycle (50 ns) resulting in a transfer
//! rate of 76 Mbytes/s between two nodes."
//!
//! [`mesh::Mesh`] models a 2-D mesh with XY dimension-order routing and two
//! independent sub-networks ([`NetClass`]). Contention is modelled per link:
//! a message reserves each link on its path for its serialization time, so
//! concurrent traffic queues exactly where it collides. Within a message,
//! switching is pipelined (virtual-cut-through approximation of wormhole —
//! see DESIGN.md §4): zero-load latency is
//! `ni_overhead + hops × router_delay + flits`.
//!
//! The default [`mesh::NetConfig`] is calibrated so a remote read miss costs
//! 116 cycles at one hop and 124 cycles at two hops, matching Table 2 of the
//! paper (the calibration test lives in `ftcoma-machine`).
//!
//! [`ring::LogicalRing`] implements the logical ring "mapped onto the
//! physical interconnection network" that the injection mechanism walks to
//! find a victim AM, including its reconfiguration when a node fails.
//!
//! The mesh is also a fault domain (see docs/NETWORK.md): links and routers
//! can fail at runtime, routing detours around the damage, and unreachable
//! destinations surface as [`mesh::RouteError`]. The crate owns the
//! topology those faults act on: [`MeshGeometry`] lists each node's
//! neighbours and the mesh's links and tells whether a set of nodes is
//! grid-connected, and [`Mesh::components`] labels what the damaged mesh
//! still joins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod fabric;
pub mod mesh;
pub mod ring;

pub use bus::{Bus, BusConfig};
pub use fabric::{Fabric, FabricConfig};
pub use mesh::{
    HopSegment, LinkReport, LinkStats, Mesh, MeshGeometry, NetClass, NetConfig, NetStats,
    RouteError, SwitchingModel,
};
pub use ring::LogicalRing;
