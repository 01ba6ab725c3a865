//! Structured exporters: run metrics as versioned JSON, protocol traces as
//! JSONL and as Chrome trace-event files.
//!
//! Every export carries [`SCHEMA_VERSION`] so downstream tooling can detect
//! incompatible changes. Documents are built as the order-stable
//! [`Json`](ftcoma_sim::Json) tree; exports with one row per record (the
//! Chrome trace and the JSONL logs) write each row straight into their
//! output with [`write_object`](ftcoma_sim::json::write_object), which
//! shares the tree's string and number writers. Either way exports are
//! byte-for-byte deterministic for a given run.
//!
//! # Example
//!
//! ```
//! use ftcoma_machine::{export, Machine, MachineConfig};
//! use ftcoma_core::FtConfig;
//! use ftcoma_workloads::presets;
//!
//! let mut m = Machine::new(MachineConfig {
//!     nodes: 4,
//!     refs_per_node: 5_000,
//!     workload: presets::water(),
//!     ft: FtConfig::enabled(400.0),
//!     trace_capacity: 100_000,
//!     ..MachineConfig::default()
//! });
//! let metrics = m.run();
//! let doc = export::metrics_json(&metrics, &m.link_report());
//! assert_eq!(doc.get("schema_version").and_then(|v| v.as_u64()), Some(7));
//! // Row-per-record exports are written straight to text.
//! let trace = export::chrome_trace_with_spans(&m.trace(), &m.spans(), 20_000_000.0);
//! let text = trace.to_string_compact();
//! let parsed = ftcoma_sim::Json::parse(&text).unwrap();
//! assert!(!parsed.get("traceEvents").unwrap().as_array().unwrap().is_empty());
//! ```

use ftcoma_mem::NodeId;
use ftcoma_net::LinkReport;
use ftcoma_sim::fxhash::FxHashMap;
use ftcoma_sim::json::{write_object, ArrayWriter, Json, ObjectWriter};
use ftcoma_sim::span::{SpanPhase, SpanRecord};
use ftcoma_sim::Cycles;

use crate::metrics::{NodeMetrics, RunMetrics, TsSample};
use crate::tracelog::TraceEvent;

/// Version of the exported JSON schemas. Bump on any breaking change to
/// the key set or meaning of [`metrics_json`], [`trace_jsonl`], or the
/// campaign report produced by `ftcoma-campaign`.
///
/// Version history:
/// * 1 — per-run metrics document, JSONL trace, bench documents.
/// * 2 — adds the campaign document (`"kind": "campaign"`, per-cell
///   embedded metrics documents with derived seeds and decompositions);
///   the per-run document keys are unchanged.
/// * 3 — adds structured recovery outcomes: campaign cells gain an
///   `"outcome"` object ([`outcome_json`]), the chaos report
///   (`"kind": "chaos"`) and its counterexample artifacts are introduced,
///   and `ftcoma run --json` gains a top-level `"outcome"` field.
/// * 4 — interconnect fault tolerance: the machine `"net"` object gains
///   `retries`, `timeouts`, `detour_hops` and `dropped_msgs`; per-link rows
///   gain `"alive"`; traces gain `link_cut`/`router_down` events; outcomes
///   gain the `partitioned_network` status.
/// * 5 — causal observability: the per-run document gains `"phases"`
///   (per-phase latency percentiles of the transaction and recovery paths)
///   and `"availability"` (per-node up intervals, MTTR, availability
///   fraction); span ([`spans_jsonl`]) and time-series
///   ([`timeseries_jsonl`]) JSONL exports and Chrome-trace flow events
///   ([`chrome_trace_with_spans`]) are introduced; wall-clock timing moves
///   out of campaign/chaos documents into a `*.timing.json` sidecar, so
///   every document is byte-deterministic without post-processing.
/// * 6 — continuous fault model: the `"availability"` section gains
///   `steady_mttr_cycles` (mean of closed down intervals only) and
///   `curve` (bucketed availability-vs-time rows `{"to", "availability"}`);
///   the `"machine"` section gains `faults_survived` and
///   `faults_unsurvivable`; per-node rows gain `repairs`; traces gain
///   `link_repaired` events; the `continuous` campaign scenario and the
///   chaos report's `"soak"` config flag are introduced.
/// * 7 — restartable recovery: the `unrecoverable_second_fault` outcome is
///   replaced by `unrecoverable_data_loss` (fields `at`/`item`, certified
///   by the per-item copy audit); the `"machine"` section gains
///   `recovery_restarts` and `recovery_max_depth`; the `"phases"` section
///   gains the `restart` histogram (abandoned recovery windows); traces
///   gain `recovery_restarted` events; the `nested` campaign scenario and
///   the chaos report's `"nested"` config flag are introduced.
pub const SCHEMA_VERSION: u64 = 7;

/// Serializes a [`RecoveryOutcome`](ftcoma_core::RecoveryOutcome) as a JSON
/// object: `{"status": <label>}` plus the variant's fields (`at`/`item` for
/// a certified data loss, `at`/`problems` for a violation).
pub fn outcome_json(o: &ftcoma_core::RecoveryOutcome) -> Json {
    use ftcoma_core::RecoveryOutcome;
    let mut pairs = vec![("status".to_string(), Json::from(o.label()))];
    match o {
        RecoveryOutcome::Recovered => {}
        RecoveryOutcome::UnrecoverableDataLoss { at, item } => {
            pairs.push(("at".to_string(), Json::from(*at)));
            pairs.push(("item".to_string(), Json::from(item.index())));
        }
        RecoveryOutcome::InvariantViolation { at, problems } => {
            pairs.push(("at".to_string(), Json::from(*at)));
            pairs.push((
                "problems".to_string(),
                Json::arr(problems.iter().map(|p| Json::from(p.as_str()))),
            ));
        }
        RecoveryOutcome::PartitionedNetwork { at, from, to } => {
            pairs.push(("at".to_string(), Json::from(*at)));
            pairs.push(("from".to_string(), Json::from(from.index())));
            pairs.push(("to".to_string(), Json::from(to.index())));
        }
    }
    Json::Obj(pairs)
}

/// Serializes a full run as one versioned JSON document with machine-wide,
/// per-node and per-link sections.
///
/// `links` comes from [`Machine::link_report`](crate::Machine::link_report)
/// (pass `&[]` when only aggregate network stats are wanted — e.g. for bus
/// fabrics, which have no per-link breakdown).
pub fn metrics_json(m: &RunMetrics, links: &[LinkReport]) -> Json {
    Json::obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("machine", machine_section(m)),
        ("access_latency", latency_section(m)),
        ("phases", phases_section(m)),
        ("availability", availability_section(m)),
        (
            "per_node",
            Json::arr(m.per_node.iter().enumerate().map(|(i, n)| node_row(i, n))),
        ),
        (
            "per_link",
            Json::arr(links.iter().map(|l| link_row(l, m.total_cycles))),
        ),
    ])
}

/// Per-phase latency summaries (p50/p90/p99/mean/max per causal phase).
fn phases_section(m: &RunMetrics) -> Json {
    Json::obj(
        m.phases
            .named()
            .into_iter()
            .map(|(name, h)| (name, h.summary().to_json())),
    )
}

/// The availability timeline: machine-wide MTTR/availability plus per-node
/// up intervals derived from the recorded down intervals.
fn availability_section(m: &RunMetrics) -> Json {
    let down_cycles: u64 = m.per_node.iter().map(|n| n.down_cycles).sum();
    let down_count: u64 = m.per_node.iter().map(|n| n.down_count).sum();
    let per_node = m.per_node.iter().enumerate().map(|(i, n)| {
        let empty = Vec::new();
        let down = m.down_intervals.get(i).unwrap_or(&empty);
        let mut up: Vec<Json> = Vec::new();
        let mut cursor: Cycles = 0;
        for &(from, to) in down {
            if from > cursor {
                up.push(Json::arr([Json::from(cursor), Json::from(from)]));
            }
            cursor = cursor.max(to);
        }
        if cursor < m.total_cycles || down.is_empty() {
            up.push(Json::arr([Json::from(cursor), Json::from(m.total_cycles)]));
        }
        let avail = if m.total_cycles == 0 {
            1.0
        } else {
            1.0 - n.down_cycles as f64 / m.total_cycles as f64
        };
        Json::obj([
            ("node", Json::from(i)),
            ("down_count", Json::from(n.down_count)),
            ("down_cycles", Json::from(n.down_cycles)),
            ("availability", Json::from(avail)),
            ("up", Json::arr(up)),
        ])
    });
    Json::obj([
        ("availability", Json::from(m.availability())),
        ("mttr_cycles", Json::from(m.mttr_cycles())),
        ("steady_mttr_cycles", Json::from(m.steady_mttr_cycles())),
        ("down_count", Json::from(down_count)),
        ("down_cycles", Json::from(down_cycles)),
        (
            "curve",
            Json::arr(
                m.availability_curve(AVAILABILITY_CURVE_BUCKETS)
                    .into_iter()
                    .map(|(to, a)| {
                        Json::obj([("to", Json::from(to)), ("availability", Json::from(a))])
                    }),
            ),
        ),
        ("per_node", Json::arr(per_node)),
    ])
}

/// Windows in the exported availability-vs-time curve. Fixed rather than
/// configurable so documents from different runs line up row-for-row.
const AVAILABILITY_CURVE_BUCKETS: usize = 16;

fn machine_section(m: &RunMetrics) -> Json {
    Json::obj([
        ("nodes", Json::from(m.nodes)),
        ("total_cycles", Json::from(m.total_cycles)),
        ("instructions", Json::from(m.instructions)),
        ("refs", Json::from(m.refs)),
        ("reads", Json::from(m.reads)),
        ("read_misses", Json::from(m.read_misses)),
        ("writes", Json::from(m.writes)),
        ("write_misses", Json::from(m.write_misses)),
        ("cache_read_hits", Json::from(m.cache_read_hits)),
        ("shared_ck_reads", Json::from(m.shared_ck_reads)),
        ("read_miss_rate", Json::from(m.read_miss_rate())),
        ("write_miss_rate", Json::from(m.write_miss_rate())),
        ("checkpoints", Json::from(m.checkpoints)),
        ("t_create", Json::from(m.t_create)),
        ("t_commit", Json::from(m.t_commit)),
        ("t_recovery", Json::from(m.t_recovery)),
        ("failures", Json::from(m.failures)),
        ("repairs", Json::from(m.repairs)),
        ("faults_survived", Json::from(m.faults_survived)),
        ("faults_unsurvivable", Json::from(m.faults_unsurvivable)),
        ("recovery_restarts", Json::from(m.recovery_restarts)),
        ("recovery_max_depth", Json::from(m.recovery_max_depth)),
        ("items_checkpointed", Json::from(m.items_checkpointed)),
        ("reused_replicas", Json::from(m.reused_replicas)),
        ("replication_bytes", Json::from(m.replication_bytes)),
        (
            "injections",
            Json::obj([
                ("replacement", Json::from(m.injections_replacement)),
                ("on_read", Json::from(m.injections_on_read)),
                ("write_inv_ck", Json::from(m.injections_write_inv_ck)),
                ("write_shared_ck", Json::from(m.injections_write_shared_ck)),
                ("total", Json::from(m.injections_total())),
            ]),
        ),
        ("pages_allocated", Json::from(m.pages_allocated)),
        ("pages_peak", Json::from(m.pages_peak)),
        (
            "net",
            Json::obj([
                ("messages", Json::from(m.net_messages)),
                ("contention_cycles", Json::from(m.net_contention_cycles)),
                ("retries", Json::from(m.net_retries)),
                ("timeouts", Json::from(m.net_timeouts)),
                ("detour_hops", Json::from(m.net_detour_hops)),
                ("dropped_msgs", Json::from(m.net_dropped_msgs)),
            ]),
        ),
    ])
}

fn latency_section(m: &RunMetrics) -> Json {
    let mut doc = m.access_latency.summary().to_json();
    if let Json::Obj(pairs) = &mut doc {
        pairs.push((
            "buckets".to_string(),
            Json::arr(
                m.access_latency
                    .nonzero_buckets()
                    .into_iter()
                    .map(|(ub, n)| Json::arr([Json::from(ub), Json::from(n)])),
            ),
        ));
    }
    doc
}

fn node_row(i: usize, n: &NodeMetrics) -> Json {
    Json::obj([
        ("node", Json::from(i)),
        ("refs", Json::from(n.refs)),
        ("read_misses", Json::from(n.read_misses)),
        ("write_misses", Json::from(n.write_misses)),
        ("injections", Json::from(n.injections)),
        ("items_checkpointed", Json::from(n.items_checkpointed)),
        ("replication_bytes", Json::from(n.replication_bytes)),
        ("ckpt_stall_cycles", Json::from(n.ckpt_stall_cycles)),
        ("rollback_cycles", Json::from(n.rollback_cycles)),
        ("pages_allocated", Json::from(n.pages_allocated)),
        ("pages_peak", Json::from(n.pages_peak)),
        ("down_cycles", Json::from(n.down_cycles)),
        ("down_count", Json::from(n.down_count)),
        ("repairs", Json::from(n.repairs)),
    ])
}

fn link_row(l: &LinkReport, total_cycles: Cycles) -> Json {
    Json::obj([
        (
            "from",
            Json::arr([Json::from(l.from.0), Json::from(l.from.1)]),
        ),
        ("to", Json::arr([Json::from(l.to.0), Json::from(l.to.1)])),
        ("class", Json::from(l.class.name())),
        ("alive", Json::from(l.alive)),
        ("messages", Json::from(l.stats.messages)),
        ("busy_cycles", Json::from(l.stats.busy_cycles)),
        ("contention_cycles", Json::from(l.stats.contention_cycles)),
        ("utilization", Json::from(l.utilization(total_cycles))),
    ])
}

/// Renders a trace as JSON Lines: a `meta` header line carrying
/// [`SCHEMA_VERSION`], then one compact object per event (`type` + `at` +
/// the variant's fields).
pub fn trace_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(JSONL_HEADER_BYTES + events.len() * TRACE_ROW_BYTES);
    jsonl_header(&mut out, "events", events.len());
    for e in events {
        write_object(&mut out, |o| {
            o.str("type", e.kind_tag()).uint("at", e.at());
            match *e {
                TraceEvent::Delivery { to, kind, item, .. } => {
                    o.uint("to", to.index() as u64)
                        .str("kind", kind)
                        .uint("item", item.index());
                }
                TraceEvent::CheckpointBegun { gen, .. }
                | TraceEvent::CheckpointCommitted { gen, .. } => {
                    o.uint("gen", gen);
                }
                TraceEvent::NodeCommit { node, dur, .. }
                | TraceEvent::NodeRollback { node, dur, .. } => {
                    o.uint("node", node.index() as u64).uint("dur", dur);
                }
                TraceEvent::LinkCut { a, b, .. } | TraceEvent::LinkRepaired { a, b, .. } => {
                    o.uint("a", a.index() as u64).uint("b", b.index() as u64);
                }
                TraceEvent::RouterDown { node, .. } | TraceEvent::Repaired { node, .. } => {
                    o.uint("node", node.index() as u64);
                }
                TraceEvent::Failure {
                    node, permanent, ..
                } => {
                    o.uint("node", node.index() as u64)
                        .bool("permanent", permanent);
                }
                TraceEvent::RecoveryRestarted { node, depth, .. } => {
                    o.uint("node", node.index() as u64).uint("depth", depth);
                }
                TraceEvent::Recovered { .. } => {}
            }
        });
        out.push('\n');
    }
    out
}

/// One span record as a flat JSON object.
pub fn span_json(s: &SpanRecord) -> Json {
    Json::obj([
        ("id", Json::from(s.id)),
        ("parent", Json::from(s.parent)),
        ("phase", Json::from(s.phase.name())),
        ("node", Json::from(s.node as u64)),
        ("start", Json::from(s.start)),
        ("end", Json::from(s.end)),
    ])
}

/// Parses one [`span_json`] row back into a span record; `None` when a
/// field is missing or out of range, or the span ends before it starts
/// ([`SpanRecord::duration`] relies on `end >= start`).
pub fn span_from_json(row: &Json) -> Option<SpanRecord> {
    Some(SpanRecord {
        id: row.get("id").and_then(Json::as_u64)?,
        parent: row.get("parent").and_then(Json::as_u64)?,
        phase: SpanPhase::from_name(row.get("phase").and_then(Json::as_str)?)?,
        node: u16::try_from(row.get("node").and_then(Json::as_u64)?).ok()?,
        start: row.get("start").and_then(Json::as_u64)?,
        end: row.get("end").and_then(Json::as_u64)?,
    })
    .filter(|s| s.end >= s.start)
}

/// Renders causal span records as JSON Lines: a `meta` header carrying
/// [`SCHEMA_VERSION`], then one compact object per span, each the text of
/// its [`span_json`]. This is the input format of `ftcoma trace
/// summarize`.
pub fn spans_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(JSONL_HEADER_BYTES + spans.len() * SPAN_ROW_BYTES);
    jsonl_header(&mut out, "spans", spans.len());
    for s in spans {
        write_object(&mut out, |o| {
            o.uint("id", s.id)
                .uint("parent", s.parent)
                .str("phase", s.phase.name())
                .uint("node", s.node as u64)
                .uint("start", s.start)
                .uint("end", s.end);
        });
        out.push('\n');
    }
    out
}

/// Renders time-series samples as JSON Lines: a `meta` header carrying
/// [`SCHEMA_VERSION`], then one compact row per sample.
pub fn timeseries_jsonl(rows: &[TsSample]) -> String {
    let mut out = String::with_capacity(JSONL_HEADER_BYTES + rows.len() * TS_ROW_BYTES);
    jsonl_header(&mut out, "rows", rows.len());
    for r in rows {
        write_object(&mut out, |o| {
            o.uint("cycle", r.cycle)
                .uint("refs", r.refs)
                .uint("refs_delta", r.refs_delta)
                .uint("read_misses", r.read_misses)
                .uint("write_misses", r.write_misses)
                .uint("in_flight", r.in_flight)
                .uint("queue_depth", r.queue_depth)
                .uint("nodes_up", r.nodes_up)
                .array("nodes_down", |a| {
                    for &n in &r.nodes_down {
                        a.uint(n as u64);
                    }
                })
                .uint("checkpoints", r.checkpoints)
                .uint("failures", r.failures)
                .uint("ckpt_stall_cycles", r.ckpt_stall_cycles)
                .uint("rollback_cycles", r.rollback_cycles);
        });
        out.push('\n');
    }
    out
}

/// Writes a JSONL `meta` header line: the schema version and the number
/// of rows that follow, under `count_key`.
fn jsonl_header(out: &mut String, count_key: &str, count: usize) {
    write_object(out, |o| {
        o.str("type", "meta")
            .uint("schema_version", SCHEMA_VERSION)
            .uint(count_key, count as u64);
    });
    out.push('\n');
}

// Bytes reserved per row, so each export is written into one allocation
// that is seldom outgrown: about 12% above the mean row of a 16-node Mp3d
// run with a permanent failure (71 trace, 85 span, 229 time-series and 99
// Chrome bytes). Pages reserved but never written take no memory.
const JSONL_HEADER_BYTES: usize = 64;
const TRACE_ROW_BYTES: usize = 80;
const SPAN_ROW_BYTES: usize = 96;
const TS_ROW_BYTES: usize = 256;
const CHROME_ROW_BYTES: usize = 112;

/// The `tid` of the machine-wide coordinator track.
const MACHINE_TID: u64 = 0;

/// The `tid` of the synthetic "network" track carrying per-hop spans.
const NET_TID: u64 = 1_000_000;

/// A rendered Chrome trace-event document: the compact JSON text that
/// [`chrome_trace_with_spans`] writes.
#[derive(Debug)]
pub struct ChromeTrace(String);

impl ChromeTrace {
    /// The document's text, handed over without a copy.
    pub fn to_string_compact(self) -> String {
        self.0
    }
}

/// Converts a trace and its causal span records into the Chrome
/// trace-event format (the JSON object form, `{"traceEvents": [...]}`),
/// viewable in Perfetto or `chrome://tracing`.
///
/// Track layout: one process (`pid` 0) with `tid` 0 as the machine-wide
/// coordinator track and `tid` *n*+1 as node *n*'s track. Timestamps are
/// microseconds of simulated time (`cycles / clock_hz * 1e6`). Create and
/// recovery phases become complete (`"X"`) spans by pairing their begin /
/// end events; per-node commit and rollback scans become `"X"` spans on
/// the node tracks; deliveries, failures and repairs are instants (`"i"`).
///
/// Each span record becomes a complete (`"X"`) slice — roots on their
/// node's track, network hops on a synthetic "network" track — and every
/// root span additionally emits a flow (`"s"`/`"t"`/`"f"` rows sharing the
/// span id), so Perfetto draws end-to-end arrows from a transaction's
/// start through each leg to its completion (and likewise across a
/// recovery's phases). Pass `&[]` for `spans` to export the trace alone.
///
/// The cost is linear in `events.len() + spans.len()`: one pass indexes
/// each span under its parent, and every row is written straight into
/// the one output string.
pub fn chrome_trace_with_spans(
    events: &[TraceEvent],
    spans: &[SpanRecord],
    clock_hz: f64,
) -> ChromeTrace {
    let us = |c: Cycles| c as f64 * 1e6 / clock_hz;
    // Parent id → children in span order. Roots are the children of 0,
    // which is never a span id; a child whose root was evicted from the
    // ring sits under an id no root has, so it gets no flow row.
    let mut children: FxHashMap<u64, Vec<&SpanRecord>> = FxHashMap::default();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let children_of = |id: u64| children.get(&id).map_or(&[][..], Vec::as_slice);
    let mut tracks = Tracks::default();
    for tid in events.iter().filter_map(event_tid) {
        tracks.insert(tid);
    }
    for s in spans {
        tracks.insert(span_tid(s));
    }
    let flow_rows: usize = children_of(0)
        .iter()
        .map(|root| 2 + children_of(root.id).len())
        .sum();
    let row_count = 1 + tracks.ascending().count() + events.len() + spans.len() + flow_rows;
    let mut out = String::with_capacity(row_count * CHROME_ROW_BYTES);
    write_object(&mut out, |doc| {
        doc.array("traceEvents", |rows| {
            // Metadata rows name the tracks; emitted first so viewers
            // label every track before its first event.
            rows.object(|r| {
                r.str("name", "process_name")
                    .str("ph", "M")
                    .uint("pid", 0)
                    .object("args", |a| {
                        a.str("name", "ftcoma");
                    });
            });
            for tid in tracks.ascending() {
                rows.object(|r| {
                    r.str("name", "thread_name")
                        .str("ph", "M")
                        .uint("pid", 0)
                        .uint("tid", tid)
                        .object("args", |a| {
                            match tid {
                                MACHINE_TID => a.str("name", "machine"),
                                NET_TID => a.str("name", "network"),
                                _ => a.str("name", &format!("node {}", tid - 1)),
                            };
                        });
                });
            }
            event_rows(rows, events, us);
            // Causal spans: one complete slice per record, plus a flow per
            // root span so viewers draw arrows across the decomposition.
            for s in spans {
                complete(
                    rows,
                    s.phase.name(),
                    us(s.start),
                    us(s.end - s.start),
                    span_tid(s),
                    |a| {
                        a.uint("span", s.id).uint("parent", s.parent);
                    },
                );
            }
            for root in children_of(0) {
                let name = root.phase.name();
                let root_tid = span_tid(root);
                flow(rows, "s", name, root.id, us(root.start), root_tid);
                for child in children_of(root.id) {
                    flow(rows, "t", name, root.id, us(child.end), span_tid(child));
                }
                flow(rows, "f", name, root.id, us(root.end), root_tid);
            }
        });
        doc.str("displayTimeUnit", "ms").object("otherData", |o| {
            o.uint("schema_version", SCHEMA_VERSION);
        });
    });
    ChromeTrace(out)
}

/// Writes one Chrome row per trace event. Open create/recovery spans are
/// closed by their matching end events; a begin whose end fell outside the
/// ring buffer degrades to nothing, an end without a begin degrades to an
/// instant.
fn event_rows(rows: &mut ArrayWriter<'_>, events: &[TraceEvent], us: impl Fn(Cycles) -> f64) {
    let mut open_create: Option<(f64, u64)> = None;
    let mut open_recovery: Option<f64> = None;
    for e in events {
        // Only `CheckpointBegun` has no track, and it writes no row.
        let tid = event_tid(e).unwrap_or(MACHINE_TID);
        match *e {
            TraceEvent::Delivery { at, kind, item, .. } => {
                instant(rows, kind, us(at), tid, |a| {
                    a.uint("item", item.index());
                });
            }
            TraceEvent::CheckpointBegun { at, gen } => {
                open_create = Some((us(at), gen));
            }
            TraceEvent::CheckpointCommitted { at, gen } => {
                let args = |a: &mut ObjectWriter<'_>| {
                    a.uint("gen", gen);
                };
                match open_create.take() {
                    Some((ts, g)) if g == gen => {
                        complete(rows, "checkpoint create", ts, us(at) - ts, tid, args);
                    }
                    _ => instant(rows, "checkpoint committed", us(at), tid, args),
                }
            }
            TraceEvent::NodeCommit { at, dur, .. } => {
                complete(rows, "commit scan", us(at), us(dur), tid, |_| {});
            }
            TraceEvent::NodeRollback { at, dur, .. } => {
                complete(rows, "rollback scan", us(at), us(dur), tid, |_| {});
            }
            TraceEvent::LinkCut { at, a, b } => {
                instant(rows, "link cut", us(at), tid, |o| {
                    o.uint("a", a.index() as u64).uint("b", b.index() as u64);
                });
            }
            TraceEvent::RouterDown { at, .. } => {
                instant(rows, "router down", us(at), tid, |_| {});
            }
            TraceEvent::Failure {
                at,
                node,
                permanent,
            } => {
                // A failure with a recovery window still open is a nested
                // fault: the in-flight recovery is abandoned here and the
                // follow-up `RecoveryRestarted` event opens a fresh window.
                if let Some(ts) = open_recovery.take() {
                    complete(rows, "recovery (abandoned)", ts, us(at) - ts, tid, |_| {});
                }
                open_recovery = Some(us(at));
                instant(rows, "failure", us(at), tid, |a| {
                    a.uint("node", node.index() as u64)
                        .bool("permanent", permanent);
                });
            }
            TraceEvent::RecoveryRestarted { at, node, depth } => {
                instant(rows, "recovery restarted", us(at), tid, |a| {
                    a.uint("node", node.index() as u64).uint("depth", depth);
                });
            }
            TraceEvent::Recovered { at } => match open_recovery.take() {
                Some(ts) => complete(rows, "recovery", ts, us(at) - ts, tid, |_| {}),
                None => instant(rows, "recovered", us(at), tid, |_| {}),
            },
            TraceEvent::Repaired { at, .. } => {
                instant(rows, "repaired", us(at), tid, |_| {});
            }
            TraceEvent::LinkRepaired { at, a, b } => {
                instant(rows, "link repaired", us(at), tid, |o| {
                    o.uint("a", a.index() as u64).uint("b", b.index() as u64);
                });
            }
        }
    }
}

/// The track of an event's Chrome row: [`MACHINE_TID`] for machine-wide
/// events, *n*+1 for node *n*'s; `None` for `CheckpointBegun`, which only
/// opens a create window.
fn event_tid(e: &TraceEvent) -> Option<u64> {
    let node = |n: NodeId| Some(n.index() as u64 + 1);
    match *e {
        TraceEvent::Delivery { to, .. } => node(to),
        TraceEvent::NodeCommit { node: n, .. }
        | TraceEvent::NodeRollback { node: n, .. }
        | TraceEvent::RouterDown { node: n, .. }
        | TraceEvent::Repaired { node: n, .. } => node(n),
        TraceEvent::CheckpointBegun { .. } => None,
        TraceEvent::CheckpointCommitted { .. }
        | TraceEvent::LinkCut { .. }
        | TraceEvent::Failure { .. }
        | TraceEvent::RecoveryRestarted { .. }
        | TraceEvent::Recovered { .. }
        | TraceEvent::LinkRepaired { .. } => Some(MACHINE_TID),
    }
}

/// The track of a span's slice: network hops on [`NET_TID`], every other
/// phase on its node's track.
fn span_tid(s: &SpanRecord) -> u64 {
    if s.phase == SpanPhase::NetHop {
        NET_TID
    } else {
        s.node as u64 + 1
    }
}

/// The tracks a Chrome trace uses, as a set with O(1) inserts: one flag
/// per machine or node `tid` (node ids are `u16`, so every one of them is
/// below [`NET_TID`]) and one for the network track.
#[derive(Default)]
struct Tracks {
    seen: Vec<bool>,
    network: bool,
}

impl Tracks {
    fn insert(&mut self, tid: u64) {
        if tid == NET_TID {
            self.network = true;
            return;
        }
        let i = tid as usize;
        if i >= self.seen.len() {
            self.seen.resize(i + 1, false);
        }
        self.seen[i] = true;
    }

    /// The tids in use, ascending.
    fn ascending(&self) -> impl Iterator<Item = u64> + '_ {
        self.seen
            .iter()
            .enumerate()
            .filter(|&(_, &seen)| seen)
            .map(|(tid, _)| tid as u64)
            .chain(self.network.then_some(NET_TID))
    }
}

/// A complete (`"X"`) slice.
fn complete(
    rows: &mut ArrayWriter<'_>,
    name: &str,
    ts: f64,
    dur: f64,
    tid: u64,
    args: impl FnOnce(&mut ObjectWriter<'_>),
) {
    rows.object(|r| {
        r.str("name", name)
            .str("ph", "X")
            .num("ts", ts)
            .num("dur", dur)
            .uint("pid", 0)
            .uint("tid", tid)
            .object("args", args);
    });
}

/// A thread-scoped instant (`"i"`).
fn instant(
    rows: &mut ArrayWriter<'_>,
    name: &str,
    ts: f64,
    tid: u64,
    args: impl FnOnce(&mut ObjectWriter<'_>),
) {
    rows.object(|r| {
        r.str("name", name)
            .str("ph", "i")
            .num("ts", ts)
            .str("s", "t")
            .uint("pid", 0)
            .uint("tid", tid)
            .object("args", args);
    });
}

/// One step of a root span's flow: start (`"s"`), step (`"t"`) or finish
/// (`"f"`).
fn flow(rows: &mut ArrayWriter<'_>, ph: &str, name: &str, id: u64, ts: f64, tid: u64) {
    rows.object(|r| {
        r.str("name", name)
            .str("cat", name)
            .str("ph", ph)
            .uint("id", id)
            .num("ts", ts)
            .uint("pid", 0)
            .uint("tid", tid);
        if ph == "f" {
            // Bind the arrow to the enclosing slice's end.
            r.str("bp", "e");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcoma_mem::{ItemId, NodeId};

    fn sample_metrics() -> RunMetrics {
        let mut m = RunMetrics {
            total_cycles: 10_000,
            refs: 5_000,
            reads: 3_000,
            read_misses: 300,
            writes: 2_000,
            write_misses: 100,
            checkpoints: 4,
            nodes: 2,
            per_node: vec![
                NodeMetrics {
                    refs: 2_500,
                    read_misses: 150,
                    ..Default::default()
                },
                NodeMetrics {
                    refs: 2_500,
                    read_misses: 150,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        for v in [1, 10, 100, 1000] {
            m.access_latency.record(v);
        }
        m
    }

    #[test]
    fn metrics_json_has_versioned_sections() {
        let doc = metrics_json(&sample_metrics(), &[]);
        assert_eq!(
            doc.get("schema_version").and_then(|v| v.as_u64()),
            Some(SCHEMA_VERSION)
        );
        let machine = doc.get("machine").unwrap();
        assert_eq!(machine.get("refs").and_then(|v| v.as_u64()), Some(5_000));
        assert!(
            machine
                .get("read_miss_rate")
                .and_then(|v| v.as_f64())
                .unwrap()
                > 0.0
        );
        assert_eq!(doc.get("per_node").unwrap().as_array().unwrap().len(), 2);
        assert!(doc.get("per_link").unwrap().as_array().unwrap().is_empty());
        let lat = doc.get("access_latency").unwrap();
        for k in ["count", "mean", "p50", "p90", "p99", "max", "buckets"] {
            assert!(lat.get(k).is_some(), "missing latency key {k}");
        }
        // Round-trips through the parser.
        let parsed = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(|v| v.as_u64()),
            Some(SCHEMA_VERSION)
        );
    }

    #[test]
    fn trace_jsonl_is_one_object_per_line() {
        let events = vec![
            TraceEvent::Delivery {
                at: 5,
                to: NodeId::new(1),
                kind: "ReadReq",
                item: ItemId::new(7),
            },
            TraceEvent::CheckpointCommitted { at: 9, gen: 1 },
        ];
        let text = trace_jsonl(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // meta header + 2 events
        for line in &lines {
            let obj = Json::parse(line).unwrap();
            assert!(obj.get("type").is_some());
        }
        assert_eq!(
            Json::parse(lines[0])
                .unwrap()
                .get("schema_version")
                .and_then(|v| v.as_u64()),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(
            Json::parse(lines[1])
                .unwrap()
                .get("to")
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    /// The Chrome trace of `events` and `spans` at 20 MHz, parsed back
    /// from its text.
    fn chrome_doc(events: &[TraceEvent], spans: &[SpanRecord]) -> Json {
        let text = chrome_trace_with_spans(events, spans, 20_000_000.0).to_string_compact();
        Json::parse(&text).unwrap()
    }

    #[test]
    fn chrome_trace_pairs_phase_spans() {
        let events = vec![
            TraceEvent::CheckpointBegun { at: 100, gen: 1 },
            TraceEvent::NodeCommit {
                at: 140,
                node: NodeId::new(0),
                dur: 20,
            },
            TraceEvent::CheckpointCommitted { at: 140, gen: 1 },
            TraceEvent::Failure {
                at: 500,
                node: NodeId::new(1),
                permanent: false,
            },
            TraceEvent::Recovered { at: 900 },
        ];
        let doc = chrome_doc(&events, &[]);
        let rows = doc.get("traceEvents").unwrap().as_array().unwrap();
        // Every row has the mandatory keys.
        for r in rows {
            assert!(r.get("ph").is_some() && r.get("pid").is_some());
        }
        let spans: Vec<_> = rows
            .iter()
            .filter(|r| r.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .collect();
        let names: Vec<_> = spans
            .iter()
            .map(|r| r.get("name").and_then(|v| v.as_str()).unwrap())
            .collect();
        assert!(names.contains(&"checkpoint create"));
        assert!(names.contains(&"commit scan"));
        assert!(names.contains(&"recovery"));
        // 100 cycles at 20 MHz = 5 µs.
        let create = spans
            .iter()
            .find(|r| r.get("name").and_then(|v| v.as_str()) == Some("checkpoint create"))
            .unwrap();
        assert_eq!(create.get("ts").and_then(|v| v.as_f64()), Some(5.0));
        assert_eq!(create.get("dur").and_then(|v| v.as_f64()), Some(2.0));
        // Metadata names both tracks.
        assert!(rows.iter().any(|r| {
            r.get("ph").and_then(|v| v.as_str()) == Some("M")
                && r.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    == Some("node 0")
        }));
    }

    fn sample_spans() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                id: 1,
                parent: 0,
                phase: SpanPhase::Transaction,
                node: 0,
                start: 100,
                end: 300,
            },
            SpanRecord {
                id: 2,
                parent: 1,
                phase: SpanPhase::DirLookup,
                node: 1,
                start: 100,
                end: 180,
            },
            SpanRecord {
                id: 3,
                parent: 1,
                phase: SpanPhase::NetHop,
                node: 1,
                start: 105,
                end: 120,
            },
            SpanRecord {
                id: 4,
                parent: 1,
                phase: SpanPhase::DataReply,
                node: 0,
                start: 180,
                end: 300,
            },
        ]
    }

    #[test]
    fn metrics_json_reports_phases_and_availability() {
        let mut m = sample_metrics();
        m.phases.dir_lookup.record(80);
        m.phases.data_reply.record(120);
        m.per_node[1].down_cycles = 2_000;
        m.per_node[1].down_count = 1;
        m.down_intervals = vec![Vec::new(), vec![(3_000, 5_000)]];
        let doc = metrics_json(&m, &[]);
        let phases = doc.get("phases").unwrap();
        for k in [
            "dir_lookup",
            "home_fwd",
            "data_reply",
            "detection",
            "rollback",
            "reconfiguration",
            "replay",
            "restart",
        ] {
            let p = phases.get(k).unwrap_or_else(|| panic!("missing phase {k}"));
            for stat in ["count", "p50", "p90", "p99", "max"] {
                assert!(p.get(stat).is_some(), "phase {k} missing {stat}");
            }
        }
        assert_eq!(
            phases
                .get("dir_lookup")
                .and_then(|p| p.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        let avail = doc.get("availability").unwrap();
        assert_eq!(avail.get("down_count").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            avail.get("mttr_cycles").and_then(|v| v.as_f64()),
            Some(2_000.0)
        );
        let rows = avail.get("per_node").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        // Node 1 was down in [3000, 5000): two up intervals around it.
        let ups = rows[1].get("up").unwrap().as_array().unwrap();
        assert_eq!(ups.len(), 2);
        assert_eq!(ups[0].as_array().unwrap()[1].as_u64(), Some(3_000));
        assert_eq!(ups[1].as_array().unwrap()[0].as_u64(), Some(5_000));
        // Node 0 never went down: one full-run up interval.
        let ups0 = rows[0].get("up").unwrap().as_array().unwrap();
        assert_eq!(ups0.len(), 1);
        assert_eq!(ups0[0].as_array().unwrap()[0].as_u64(), Some(0));
        assert_eq!(ups0[0].as_array().unwrap()[1].as_u64(), Some(10_000));
    }

    #[test]
    fn spans_jsonl_round_trips() {
        let text = spans_jsonl(&sample_spans());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5); // meta + 4 spans
        let meta = Json::parse(lines[0]).unwrap();
        assert_eq!(
            meta.get("schema_version").and_then(|v| v.as_u64()),
            Some(SCHEMA_VERSION)
        );
        let first = Json::parse(lines[1]).unwrap();
        assert_eq!(
            first.get("phase").and_then(|v| v.as_str()),
            Some("transaction")
        );
        assert_eq!(first.get("id").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(first.get("parent").and_then(|v| v.as_u64()), Some(0));
        // Every row parses back into the span it was written from.
        let parsed: Vec<SpanRecord> = lines[1..]
            .iter()
            .map(|l| span_from_json(&Json::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(parsed, sample_spans());
        // A span that ends before it starts is malformed.
        let inverted = SpanRecord {
            end: 0,
            start: 9,
            ..sample_spans()[0]
        };
        assert_eq!(span_from_json(&span_json(&inverted)), None);
    }

    #[test]
    fn timeseries_jsonl_emits_one_row_per_sample() {
        let rows = vec![
            TsSample {
                cycle: 5_000,
                refs: 120,
                refs_delta: 120,
                nodes_up: 4,
                ..Default::default()
            },
            TsSample {
                cycle: 10_000,
                refs: 260,
                refs_delta: 140,
                nodes_up: 3,
                nodes_down: vec![2],
                failures: 1,
                ..Default::default()
            },
        ];
        let text = timeseries_jsonl(&rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let second = Json::parse(lines[2]).unwrap();
        assert_eq!(second.get("refs_delta").and_then(|v| v.as_u64()), Some(140));
        assert_eq!(
            second.get("nodes_down").unwrap().as_array().unwrap()[0].as_u64(),
            Some(2)
        );
    }

    #[test]
    fn chrome_trace_with_spans_emits_slices_and_flows() {
        let doc = chrome_doc(&[], &sample_spans());
        let rows = doc.get("traceEvents").unwrap().as_array().unwrap();
        let slices: Vec<_> = rows
            .iter()
            .filter(|r| r.get("ph").and_then(|v| v.as_str()) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 4, "one slice per span");
        // The NetHop slice lands on the synthetic network track.
        let hop = slices
            .iter()
            .find(|r| r.get("name").and_then(|v| v.as_str()) == Some("net_hop"))
            .unwrap();
        assert_eq!(hop.get("tid").and_then(|v| v.as_u64()), Some(NET_TID));
        // One flow per root: start + one step per child + finish.
        let phs = |p: &str| {
            rows.iter()
                .filter(|r| r.get("ph").and_then(|v| v.as_str()) == Some(p))
                .count()
        };
        assert_eq!(phs("s"), 1);
        assert_eq!(phs("t"), 3);
        assert_eq!(phs("f"), 1);
        let finish = rows
            .iter()
            .find(|r| r.get("ph").and_then(|v| v.as_str()) == Some("f"))
            .unwrap();
        assert_eq!(finish.get("bp").and_then(|v| v.as_str()), Some("e"));
        assert_eq!(finish.get("id").and_then(|v| v.as_u64()), Some(1));
        // The network track is named.
        assert!(rows.iter().any(|r| {
            r.get("ph").and_then(|v| v.as_str()) == Some("M")
                && r.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
                    == Some("network")
        }));
    }

    #[test]
    fn chrome_trace_unpaired_end_degrades_to_instant() {
        let events = vec![TraceEvent::CheckpointCommitted { at: 200, gen: 3 }];
        let doc = chrome_doc(&events, &[]);
        let rows = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(rows.iter().any(|r| {
            r.get("ph").and_then(|v| v.as_str()) == Some("i")
                && r.get("name").and_then(|v| v.as_str()) == Some("checkpoint committed")
        }));
    }
}
