//! Micro-benchmarks of the simulator's hot paths: cache and AM probes,
//! mesh message accounting, workload generation, the JSON row writer,
//! and a small end-to-end machine run per protocol mode.
//!
//! Formerly a criterion harness; the workspace is dependency-free, so this
//! is now a plain `harness = false` bench with a minimal timing loop
//! (median of repeated batches, like criterion's default but simpler).

use std::hint::black_box;
use std::time::Instant;

use ftcoma_core::FtConfig;
use ftcoma_machine::{Machine, MachineConfig};
use ftcoma_mem::addr::LineId;
use ftcoma_mem::{AttractionMemory, Cache, ItemId, ItemState, NodeId};
use ftcoma_net::{Mesh, MeshGeometry, NetClass, NetConfig};
use ftcoma_sim::json::write_object;
use ftcoma_sim::{DetRng, EventQueue};
use ftcoma_workloads::{presets, NodeStream, RefStream};

/// Times `iters` calls of `f` per batch over `batches` batches and prints
/// the median per-call time.
fn bench(name: &str, batches: usize, iters: u64, mut f: impl FnMut()) {
    let mut per_call: Vec<f64> = Vec::with_capacity(batches);
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_call.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_call.sort_by(|a, b| a.total_cmp(b));
    let median = per_call[per_call.len() / 2];
    println!("{name:<28} {median:>12.1} ns/iter  (median of {batches} x {iters})");
}

fn bench_cache() {
    let mut cache = Cache::ksr1();
    for i in 0..512u64 {
        cache.fill(LineId::new(i * 3), i % 2 == 0);
    }
    let mut i = 0u64;
    bench("cache_probe", 15, 100_000, || {
        i = (i + 1) % 512;
        black_box(cache.probe(LineId::new(i * 3)));
    });
    let mut i = 0u64;
    bench("cache_fill", 15, 100_000, || {
        i += 7;
        black_box(cache.fill(LineId::new(i % 40_000), false));
    });
}

fn bench_am() {
    let mut am = AttractionMemory::ksr1();
    for p in 0..64u64 {
        am.allocate_page(ftcoma_mem::PageId::new(p)).unwrap();
    }
    for i in 0..4096u64 {
        am.install(ItemId::new(i * 2), ItemState::Shared, i, None);
    }
    let mut i = 0u64;
    bench("am_state_lookup", 15, 100_000, || {
        i = (i + 1) % 4096;
        black_box(am.state(ItemId::new(i * 2)));
    });
    let mut i = 0u64;
    bench("am_injection_acceptance", 15, 100_000, || {
        i = (i + 1) % 8192;
        black_box(am.injection_acceptance(ItemId::new(i)));
    });
}

fn bench_queue() {
    // Near-future churn: the protocol's small constant delays land in the
    // calendar's per-cycle lanes. Steady state ~64 pending events.
    let mut q: EventQueue<u64> = EventQueue::new();
    for k in 0..64 {
        q.schedule_in(k % 40, k);
    }
    let mut i = 0u64;
    bench("queue_push_pop_near", 15, 100_000, || {
        i += 1;
        q.schedule_in(1 + (i % 40), i);
        black_box(q.pop());
    });

    // Far-future churn: delays beyond the lane window exercise the
    // spill-over heap (checkpoint timers, retransmission backoffs).
    let mut q: EventQueue<u64> = EventQueue::new();
    for k in 0..64 {
        q.schedule_in(2_000 + k, k);
    }
    let mut i = 0u64;
    bench("queue_push_pop_far", 15, 100_000, || {
        i += 1;
        q.schedule_in(2_000 + (i % 512), i);
        black_box(q.pop());
    });

    // The machine's actual mix: mostly near with an occasional far event.
    let mut q: EventQueue<u64> = EventQueue::new();
    for k in 0..64 {
        q.schedule_in(k % 40, k);
    }
    let mut i = 0u64;
    bench("queue_push_pop_mixed", 15, 100_000, || {
        i += 1;
        let delay = if i.is_multiple_of(16) {
            50_000
        } else {
            1 + (i % 40)
        };
        q.schedule_in(delay, i);
        black_box(q.pop());
    });
}

fn bench_mesh() {
    let mut mesh = Mesh::new(MeshGeometry::for_nodes(56), NetConfig::default());
    let mut t = 0u64;
    bench("mesh_send_item", 15, 100_000, || {
        t += 10;
        black_box(mesh.send(t, NodeId::new(3), NodeId::new(52), NetClass::Reply, 128)).unwrap();
    });
    // Same traffic on a degraded mesh: the XY path crosses a failed router,
    // so every send detours. The first send finds the detour breadth-first
    // and the rest reuse it from the mesh's route cache.
    let mut mesh = Mesh::new(MeshGeometry::for_nodes(56), NetConfig::default());
    mesh.fail_router(NodeId::new(28));
    let mut t = 0u64;
    bench("mesh_send_item_detoured", 15, 100_000, || {
        t += 10;
        black_box(mesh.send(t, NodeId::new(3), NodeId::new(52), NetClass::Reply, 128)).unwrap();
    });
    // The detoured traffic while the link from node 4 to node 12, also on
    // the XY path, is cut and repaired in turn every 64 sends. Each change
    // empties the route cache, so the first send after it pays for the
    // breadth-first search again.
    let mut mesh = Mesh::new(MeshGeometry::for_nodes(56), NetConfig::default());
    mesh.fail_router(NodeId::new(28));
    let (mut t, mut sends) = (0u64, 0u64);
    bench("mesh_send_link_churn", 15, 100_000, || {
        match sends % 128 {
            0 => mesh.fail_link(NodeId::new(4), NodeId::new(12)),
            64 => mesh.repair_link(NodeId::new(4), NodeId::new(12)),
            _ => {}
        }
        sends += 1;
        t += 10;
        black_box(mesh.send(t, NodeId::new(3), NodeId::new(52), NetClass::Reply, 128)).unwrap();
    });
}

fn bench_workload() {
    for cfg in presets::all() {
        let mut stream = NodeStream::new(&cfg, 0, 16, 1);
        bench(
            &format!("workload_next_ref/{}", cfg.name),
            15,
            100_000,
            || {
                black_box(stream.next_ref());
            },
        );
    }
    let zipf = ftcoma_workloads::zipf::Zipf::new(4608, 0.8);
    let mut rng = DetRng::seeded(1);
    bench("zipf_sample_4608", 15, 100_000, || {
        black_box(zipf.sample(&mut rng));
    });
    let mut rng = DetRng::seeded(1);
    bench("rng_geometric", 15, 100_000, || {
        black_box(rng.geometric(0.3, 10_000));
    });
    let mut rng = DetRng::seeded(1);
    let t = DetRng::threshold(0.3);
    bench("rng_geometric_threshold", 15, 100_000, || {
        black_box(rng.geometric_with(t, 10_000));
    });
    let mut rng = DetRng::seeded(1);
    bench("rng_next", 15, 1_000_000, || {
        black_box(rng.next_u64());
    });
}

/// One call writes 100 000 rows shaped like the Chrome trace's complete
/// slices through `write_object`, so the per-row cost of the export
/// writer shows apart from the exporter's bookkeeping.
fn bench_json() {
    let us = |c: u64| c as f64 * 1e6 / 20_000_000.0;
    let mut out = String::new();
    bench("json_chrome_rows", 15, 1, || {
        out.clear();
        for i in 0..100_000u64 {
            let at = 400_000 + i * 37;
            write_object(&mut out, |r| {
                r.str("name", "commit scan")
                    .str("ph", "X")
                    .num("ts", us(at))
                    .num("dur", us(i % 500))
                    .uint("pid", 0)
                    .uint("tid", i % 17)
                    .object("args", |a| {
                        a.uint("span", i + 1).uint("parent", i / 8);
                    });
            });
            out.push(',');
        }
        black_box(&out);
    });
}

fn bench_machine() {
    for (name, ft) in [
        ("standard", FtConfig::disabled()),
        ("ecp_400rps", FtConfig::enabled(400.0)),
    ] {
        bench(&format!("machine/{name}"), 10, 1, || {
            let cfg = MachineConfig {
                nodes: 9,
                refs_per_node: 5_000,
                workload: presets::water(),
                ft,
                ..MachineConfig::default()
            };
            black_box(Machine::new(cfg).run());
        });
    }
}

fn main() {
    println!("== criterion_micro: simulator hot paths ==");
    bench_cache();
    bench_am();
    bench_queue();
    bench_mesh();
    bench_workload();
    bench_json();
    bench_machine();
}
