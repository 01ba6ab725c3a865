//! Per-layer metrics that do not come from timing one workload op: the
//! simulated-model counters behind each end-to-end metric, the paper's
//! Table 2 check, and isolated drivers for the kernel layers.

use std::hint::black_box;

use ftcoma_machine::{probe, PhaseLatency, RunMetrics};
use ftcoma_mem::{AttractionMemory, Cache, NodeId};
use ftcoma_net::{Fabric, FabricConfig, NetClass};
use ftcoma_sim::EventQueue;
use ftcoma_workloads::{presets, MemRef, NodeStream, RefStream};

use crate::paper16;
use crate::report::Report;
use crate::tracer::Tracer;

/// Sets `ecp_overhead_pct` and its `core.*_pct` split (Fig. 3's
/// decomposition) over standard/ECP twins, in percent of the summed
/// standard execution time.
pub fn set_overhead(report: &mut Report, twins: &[(RunMetrics, RunMetrics)]) {
    let sum =
        |f: &dyn Fn(&(RunMetrics, RunMetrics)) -> u64| twins.iter().map(f).sum::<u64>() as f64;
    let t_std = sum(&|t| t.0.total_cycles);
    let total = (sum(&|t| t.1.total_cycles) / t_std - 1.0) * 100.0;
    let create = sum(&|t| t.1.t_create) / t_std * 100.0;
    let commit = sum(&|t| t.1.t_commit) / t_std * 100.0;
    report.set("ecp_overhead_pct", total);
    report.set("core.t_create_pct", create);
    report.set("core.t_commit_pct", commit);
    report.set("core.pollution_pct", total - create - commit);
}

/// Sets the `core`, `mem`, `net` and `protocol` counters summed over the
/// ECP runs a workload made.
pub fn set_model_counters(report: &mut Report, runs: &[&RunMetrics]) {
    let sum = |f: fn(&RunMetrics) -> u64| runs.iter().map(|m| f(m)).sum::<u64>() as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let refs = sum(|m| m.refs);
    let reads = sum(|m| m.reads);
    let msgs = sum(|m| m.net_messages);
    let items = sum(|m| m.items_checkpointed);
    report.set("core.checkpoints", sum(|m| m.checkpoints));
    report.set("core.items_checkpointed", items);
    report.set("core.reuse_ratio", ratio(sum(|m| m.reused_replicas), items));
    report.set("core.t_recovery_cycles", sum(|m| m.t_recovery));
    report.set("core.recovery_restarts", sum(|m| m.recovery_restarts));
    report.set("core.faults_survived", sum(|m| m.faults_survived));
    report.set("mem.read_miss_ratio", ratio(sum(|m| m.read_misses), reads));
    report.set(
        "mem.write_miss_ratio",
        ratio(sum(|m| m.write_misses), sum(|m| m.writes)),
    );
    report.set(
        "mem.cache_read_hit_ratio",
        ratio(sum(|m| m.cache_read_hits), reads),
    );
    report.set(
        "mem.injections_per_10k_refs",
        ratio(sum(|m| m.injections_total()) * 1e4, refs),
    );
    report.set("mem.pages_peak", sum(|m| m.pages_peak));
    report.set("net.messages_per_ref", ratio(msgs, refs));
    report.set(
        "net.contention_cycles_per_msg",
        ratio(sum(|m| m.net_contention_cycles), msgs),
    );
    report.set("net.retries", sum(|m| m.net_retries));
    report.set("net.timeouts", sum(|m| m.net_timeouts));
    report.set("net.dropped_msgs", sum(|m| m.net_dropped_msgs));
    report.set("net.detour_hops", sum(|m| m.net_detour_hops));
    let mut phases = PhaseLatency::default();
    for m in runs {
        phases.merge(&m.phases);
    }
    report.set(
        "protocol.dir_lookup_p50_cycles",
        phases.dir_lookup.quantile(0.5),
    );
    report.set(
        "protocol.data_reply_p50_cycles",
        phases.data_reply.quantile(0.5),
    );
}

/// Sets `protocol.table2_err_cycles`: the summed distance of the probed
/// read-miss latencies from the paper's Table 2 (1/18/116/124 cycles).
pub fn set_table2(report: &mut Report) {
    let t = probe::read_miss_latencies();
    let err: u64 = [
        (t.cache, 1),
        (t.local_am, 18),
        (t.remote_1hop, 116),
        (t.remote_2hop, 124),
    ]
    .iter()
    .map(|&(got, want)| got.abs_diff(want))
    .sum();
    report.set("protocol.table2_err_cycles", err as f64);
}

/// Isolated drivers for the `workloads`, `sim`, `mem` and `net` layers on
/// `paper16`'s own inputs: every preset's 16 node streams with the seeds
/// `paper16` derives, replayed for `refs_per_node` references each. They
/// measure each layer alone; they are not shares of `Machine::run`.
pub fn kernel_drivers(report: &mut Report, tr: &mut Tracer, seed: u64, refs_per_node: usize) {
    let nodes = paper16::NODES;
    let (mut gen, mut queue, mut probe, mut send) =
        ([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]);
    for (p, workload) in presets::all().iter().enumerate() {
        let mseed = paper16::machine_seed(seed, p);
        let mut streams: Vec<Vec<MemRef>> = Vec::with_capacity(nodes as usize);
        for node in 0..nodes {
            let mut s = NodeStream::new(workload, node, nodes, mseed);
            let mut refs = Vec::with_capacity(refs_per_node);
            let n = refs_per_node as u64;
            let ((), secs) = tr.span_n("workloads.next_ref", n, |_| {
                for _ in 0..refs_per_node {
                    refs.push(black_box(s.next_ref()));
                }
            });
            gen[0] += secs;
            gen[1] += refs_per_node as f64;
            streams.push(refs);
        }
        let (ops, secs) = drive_queue(tr, &streams);
        queue[0] += secs;
        queue[1] += ops as f64;
        for refs in &streams {
            let (ops, secs) = drive_mem(tr, refs);
            probe[0] += secs;
            probe[1] += ops as f64;
        }
        let (ops, secs) = drive_net(tr, &streams);
        send[0] += secs;
        send[1] += ops as f64;
    }
    let ns = |[secs, ops]: [f64; 2]| secs * 1e9 / ops.max(1.0);
    report.set("workloads.gen_ns_per_ref", ns(gen));
    report.set("sim.queue_ns_per_op", ns(queue));
    report.set("mem.probe_ns", ns(probe));
    report.set("net.send_ns", ns(send));
}

/// Hold model on the event calendar: each node keeps four events in
/// flight; every pop reschedules the node after its next reference's
/// compute gap plus an item-dependent delay. Returns (pops + schedules).
fn drive_queue(tr: &mut Tracer, streams: &[Vec<MemRef>]) -> (u64, f64) {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut cursor = vec![0usize; streams.len()];
    for node in 0..streams.len() as u32 {
        for k in 0..4 {
            q.schedule(k, node);
        }
    }
    q.seal();
    let total: usize = streams.iter().map(Vec::len).sum();
    let ops = 2 * total as u64;
    let ((), secs) = tr.span_n("sim.queue", ops, |_| {
        for _ in 0..total {
            let (_, node) = q.pop().expect("the hold model keeps events queued");
            let n = node as usize;
            let r = streams[n][cursor[n] % streams[n].len()];
            cursor[n] += 1;
            let delay = u64::from(r.pre_cycles) + 1 + r.addr.item().index() % 128;
            q.schedule_in(delay, black_box(node));
        }
    });
    (ops, secs)
}

/// Replays one node's references through a processor cache and an
/// attraction memory: probe (fill on miss), allocate the page (evicting
/// the LRU victim of a full set) and touch it. Returns references done.
fn drive_mem(tr: &mut Tracer, refs: &[MemRef]) -> (u64, f64) {
    let mut cache = Cache::ksr1();
    let mut am = AttractionMemory::ksr1();
    let n = refs.len() as u64;
    let ((), secs) = tr.span_n("mem.probe", n, |_| {
        for r in refs {
            let line = r.addr.line();
            if !black_box(cache.probe(line)) {
                cache.fill(line, r.is_write);
            }
            let page = r.addr.page();
            if let Err(full) = am.allocate_page(page) {
                am.evict_page(full.victim);
                am.allocate_page(page).expect("a frame was just freed");
            }
            am.touch(page);
        }
    });
    (n, secs)
}

/// Sends each reference's request to the item's home node on the 4×4
/// mesh and the 128-byte reply back, nodes interleaved round-robin.
/// Returns sends made.
fn drive_net(tr: &mut Tracer, streams: &[Vec<MemRef>]) -> (u64, f64) {
    let nodes = streams.len();
    let mut fabric = Fabric::new(FabricConfig::default(), nodes);
    let per_node = streams.iter().map(Vec::len).min().unwrap_or(0);
    let mut sends = 0u64;
    let mut now = 0u64;
    let ((), secs) = tr.span("net.send", |_| {
        for i in 0..per_node {
            for (node, refs) in streams.iter().enumerate() {
                let r = refs[i];
                let home = (r.addr.item().index() % nodes as u64) as usize;
                now += u64::from(r.pre_cycles) / nodes as u64 + 1;
                if home == node {
                    continue;
                }
                let (from, to) = (NodeId::new(node as u16), NodeId::new(home as u16));
                let at = fabric
                    .send(now, from, to, NetClass::Request, 0)
                    .expect("a fault-free mesh routes every send");
                black_box(fabric.send(at, to, from, NetClass::Reply, 128).ok());
                sends += 2;
            }
        }
    });
    (sends, secs)
}
