//! Golden bytes for the row-per-record exports.
//!
//! Hand-made traces, span logs and time series cover every rule the
//! exporters have: every `TraceEvent` variant, unpaired create and
//! recovery windows, a fault inside an open recovery window, roots whose
//! children come before them or were evicted, grandchildren, and track
//! sets of two and three nodes. The files under `tests/golden/` pin the
//! exact text each exporter writes for them, so a rewrite of an exporter
//! or of the JSON writer must reproduce it byte for byte. Two of them pin
//! timestamps that the number writer leaves to `core::fmt`: the two-node
//! inputs at a 33 MHz clock, and records past 2^40 µs.

use ftcoma_machine::export;
use ftcoma_machine::tracelog::TraceEvent;
use ftcoma_machine::TsSample;
use ftcoma_mem::{ItemId, NodeId};
use ftcoma_sim::span::{SpanPhase, SpanRecord};

/// The KSR1's 20 MHz clock: one cycle is 0.05 µs, so most timestamps
/// are fractional.
const HZ: f64 = 20_000_000.0;

/// A 33 MHz clock: one cycle is 1/33 µs, so every fractional timestamp
/// has more than two decimals.
const HZ_33: f64 = 33_000_000.0;

fn n(i: u16) -> NodeId {
    NodeId::new(i)
}

/// Every event variant on a two-node machine, with the Chrome exporter's
/// pairing rules exercised: a commit without a begin, a generation
/// mismatch, a `Recovered` without a failure, a failure inside an open
/// recovery window, and a final begin that never commits.
fn two_node_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Delivery {
            at: 101,
            to: n(1),
            kind: "ReadReq",
            item: ItemId::new(7),
        },
        TraceEvent::Delivery {
            at: 102,
            to: n(0),
            kind: "Tab\tQuote\"Back\\slash",
            item: ItemId::new(8),
        },
        TraceEvent::CheckpointCommitted { at: 150, gen: 0 },
        TraceEvent::CheckpointBegun { at: 200, gen: 1 },
        TraceEvent::NodeCommit {
            at: 230,
            node: n(0),
            dur: 15,
        },
        TraceEvent::CheckpointCommitted { at: 245, gen: 1 },
        TraceEvent::CheckpointBegun { at: 300, gen: 2 },
        TraceEvent::CheckpointCommitted { at: 333, gen: 3 },
        TraceEvent::Recovered { at: 420 },
        TraceEvent::LinkCut {
            at: 450,
            a: n(0),
            b: n(1),
        },
        TraceEvent::RouterDown {
            at: 460,
            node: n(1),
        },
        TraceEvent::Failure {
            at: 500,
            node: n(1),
            permanent: false,
        },
        TraceEvent::NodeRollback {
            at: 500,
            node: n(0),
            dur: 37,
        },
        TraceEvent::Failure {
            at: 555,
            node: n(0),
            permanent: true,
        },
        TraceEvent::RecoveryRestarted {
            at: 555,
            node: n(0),
            depth: 2,
        },
        TraceEvent::Recovered { at: 901 },
        TraceEvent::Repaired {
            at: 950,
            node: n(1),
        },
        TraceEvent::LinkRepaired {
            at: 975,
            a: n(0),
            b: n(1),
        },
        TraceEvent::NodeCommit {
            at: 12_345_678_901,
            node: n(1),
            dur: 3,
        },
        TraceEvent::CheckpointBegun {
            at: 12_345_679_000,
            gen: 5,
        },
    ]
}

fn span(id: u64, parent: u64, phase: SpanPhase, node: u16, start: u64, end: u64) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        phase,
        node,
        start,
        end,
    }
}

/// Spans on the same two nodes: a transaction whose first leg is listed
/// before it, with a network hop and a grandchild hop; a leg whose root
/// was evicted; a recovery with all four phases; a root with no retained
/// children; and a root whose id is above 2^53.
fn two_node_spans() -> Vec<SpanRecord> {
    const BIG: u64 = 9_007_199_254_740_993;
    vec![
        span(12, 10, SpanPhase::DirLookup, 1, 100, 180),
        span(10, 0, SpanPhase::Transaction, 0, 100, 300),
        span(13, 10, SpanPhase::NetHop, 1, 105, 121),
        span(14, 13, SpanPhase::NetHop, 0, 121, 133),
        span(15, 10, SpanPhase::DataReply, 0, 180, 300),
        span(20, 99, SpanPhase::HomeFwd, 1, 150, 170),
        span(30, 0, SpanPhase::Recovery, 1, 500, 901),
        span(31, 30, SpanPhase::Detection, 1, 500, 500),
        span(32, 30, SpanPhase::Rollback, 0, 500, 537),
        span(33, 30, SpanPhase::Reconfiguration, 0, 537, 600),
        span(34, 30, SpanPhase::Replay, 1, 600, 901),
        span(40, 0, SpanPhase::Transaction, 1, 1001, 1003),
        span(
            BIG,
            0,
            SpanPhase::Transaction,
            0,
            12_345_678_901,
            12_345_679_017,
        ),
        span(
            BIG + 2,
            BIG,
            SpanPhase::DataReply,
            1,
            12_345_678_950,
            12_345_679_017,
        ),
    ]
}

/// Events on three nodes with gaps in their ids and no machine-track row.
fn three_node_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Delivery {
            at: 7,
            to: n(5),
            kind: "WriteReq",
            item: ItemId::new(3),
        },
        TraceEvent::Delivery {
            at: 9,
            to: n(0),
            kind: "Data",
            item: ItemId::new(3),
        },
        TraceEvent::RouterDown { at: 11, node: n(2) },
        TraceEvent::CheckpointBegun { at: 13, gen: 1 },
    ]
}

fn three_node_spans() -> Vec<SpanRecord> {
    vec![
        span(1, 0, SpanPhase::Transaction, 2, 7, 40),
        span(2, 1, SpanPhase::NetHop, 5, 8, 19),
        span(3, 1, SpanPhase::DataReply, 0, 19, 40),
    ]
}

/// A commit scan and a root span past cycle 2.2 × 10^13: at 20 MHz their
/// timestamps lie above 2^40 µs, even those with two decimals.
fn far_events() -> Vec<TraceEvent> {
    vec![TraceEvent::NodeCommit {
        at: 22_000_000_000_001,
        node: n(1),
        dur: 3,
    }]
}

fn far_spans() -> Vec<SpanRecord> {
    vec![span(
        1,
        0,
        SpanPhase::Transaction,
        0,
        22_000_000_000_007,
        22_000_000_000_013,
    )]
}

fn samples() -> Vec<TsSample> {
    vec![
        TsSample {
            cycle: 10_000,
            refs: 120,
            refs_delta: 120,
            read_misses: 9,
            write_misses: 4,
            in_flight: 3,
            queue_depth: 17,
            nodes_up: 4,
            ..Default::default()
        },
        TsSample {
            cycle: 20_000,
            refs: 260,
            refs_delta: 140,
            read_misses: 20,
            write_misses: 9,
            in_flight: 1,
            queue_depth: 11,
            nodes_up: 2,
            nodes_down: vec![3, 1],
            checkpoints: 1,
            failures: 2,
            ckpt_stall_cycles: 640,
            rollback_cycles: 9_007_199_254_740_993,
        },
    ]
}

/// The text each exporter wrote for these inputs before its rewrite.
fn golden(name: &str) -> &'static str {
    match name {
        "chrome-two-node.json" => include_str!("../golden/chrome-two-node.json"),
        "chrome-two-node-33mhz.json" => include_str!("../golden/chrome-two-node-33mhz.json"),
        "chrome-three-node.json" => include_str!("../golden/chrome-three-node.json"),
        "chrome-far.json" => include_str!("../golden/chrome-far.json"),
        "chrome-empty.json" => include_str!("../golden/chrome-empty.json"),
        "trace-two-node.jsonl" => include_str!("../golden/trace-two-node.jsonl"),
        "trace-three-node.jsonl" => include_str!("../golden/trace-three-node.jsonl"),
        "spans-two-node.jsonl" => include_str!("../golden/spans-two-node.jsonl"),
        "timeseries.jsonl" => include_str!("../golden/timeseries.jsonl"),
        _ => panic!("no golden file {name}"),
    }
}

/// Every export of the hand-made inputs, by golden file name.
fn exports() -> Vec<(&'static str, String)> {
    vec![
        (
            "chrome-two-node.json",
            export::chrome_trace_with_spans(&two_node_events(), &two_node_spans(), HZ)
                .to_string_compact(),
        ),
        (
            "chrome-two-node-33mhz.json",
            export::chrome_trace_with_spans(&two_node_events(), &two_node_spans(), HZ_33)
                .to_string_compact(),
        ),
        (
            "chrome-three-node.json",
            export::chrome_trace_with_spans(&three_node_events(), &three_node_spans(), HZ)
                .to_string_compact(),
        ),
        (
            "chrome-far.json",
            export::chrome_trace_with_spans(&far_events(), &far_spans(), HZ).to_string_compact(),
        ),
        (
            "chrome-empty.json",
            export::chrome_trace_with_spans(&[], &[], HZ).to_string_compact(),
        ),
        (
            "trace-two-node.jsonl",
            export::trace_jsonl(&two_node_events()),
        ),
        (
            "trace-three-node.jsonl",
            export::trace_jsonl(&three_node_events()),
        ),
        (
            "spans-two-node.jsonl",
            export::spans_jsonl(&two_node_spans()),
        ),
        ("timeseries.jsonl", export::timeseries_jsonl(&samples())),
    ]
}

#[test]
fn exports_match_their_golden_bytes() {
    for (name, text) in exports() {
        assert!(
            text == golden(name),
            "{name} differs from tests/golden/{name}:\n{text}"
        );
    }
}

#[test]
fn spans_jsonl_rows_are_span_json() {
    let spans = two_node_spans();
    let text = export::spans_jsonl(&spans);
    let rows: Vec<&str> = text.lines().skip(1).collect();
    assert_eq!(rows.len(), spans.len());
    for (row, s) in rows.iter().zip(&spans) {
        assert_eq!(*row, export::span_json(s).to_string_compact());
    }
}
