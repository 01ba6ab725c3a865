//! `Mesh::send` allocates nothing once its buffers are warm: on a healthy
//! mesh it walks the XY path into buffers the mesh keeps, and on a damaged
//! one it copies the route it cached for the pair on the pair's first
//! send. This binary's global allocator counts the allocations each
//! thread makes, so the test sees only its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ftcoma_mem::NodeId;
use ftcoma_net::{Mesh, MeshGeometry, NetClass, NetConfig};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// thread-local counter is const-initialised, so counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Sends 10 000 messages between every ordered pair of a 56-node mesh's
/// corners and the ends of its middle row, round robin, and returns how many allocations they
/// made after one warm-up pass over the pairs.
fn steady_state_allocations(mesh: &mut Mesh) -> u64 {
    let ends = [0, 7, 24, 31, 48, 55].map(NodeId::new);
    let pairs: Vec<(NodeId, NodeId)> = ends
        .iter()
        .flat_map(|&a| ends.iter().map(move |&b| (a, b)))
        .collect();
    let mut now = 0;
    let mut send = |mesh: &mut Mesh, (from, to): (NodeId, NodeId)| {
        now += 3;
        mesh.send(now, from, to, NetClass::Reply, 128).unwrap();
    };
    for &pair in &pairs {
        send(mesh, pair);
    }
    let before = allocations();
    for i in 0..10_000 {
        send(mesh, pairs[i % pairs.len()]);
    }
    allocations() - before
}

#[test]
fn sends_allocate_nothing_once_warm() {
    for cfg in [NetConfig::default(), NetConfig::wormhole()] {
        for trace in [false, true] {
            let mut mesh = Mesh::new(MeshGeometry::for_nodes(56), cfg);
            mesh.set_hop_trace(trace);
            assert_eq!(steady_state_allocations(&mut mesh), 0, "healthy");
            // Node 28 sits on the straight path from node 24 to node 31.
            mesh.fail_router(NodeId::new(28));
            assert_eq!(steady_state_allocations(&mut mesh), 0, "damaged");
            assert!(mesh.stats().detour_hops > 0);
        }
    }
}
