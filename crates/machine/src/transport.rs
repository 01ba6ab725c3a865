//! The reliable transport.
//!
//! A machine sends fire-and-forget until it learns of its first
//! interconnect fault. From then on every inter-node message is numbered,
//! kept until acknowledged, retransmitted on timeout and handed to its
//! receiver exactly once; [`Transport`] makes each of those decisions, and
//! rolls the seeded loss plan that drops copies during a message-loss
//! episode. The switch is one-way: once on, the reliable path stays on for
//! the rest of the run.

use std::ops::Range;

use ftcoma_mem::NodeId;
use ftcoma_protocol::msg::Msg;
use ftcoma_sim::{derive_seed, Cycles, FxHashMap};

/// First retransmission timeout in cycles.
///
/// Comfortably above the worst zero-load round trip of the default mesh
/// (two ~50-cycle message latencies plus service time), so a healthy but
/// congested network does not trigger spurious retransmissions at once.
const RTO_BASE: Cycles = 1_000;

/// Ceiling of the exponential backoff, in cycles.
const RTO_CAP: Cycles = 32_000;

/// Retransmissions after which the transport gives up on a peer and
/// escalates to the machine's failure handling.
const MAX_RETRIES: u32 = 10;

/// How long a message-loss window stays open. Bounded so a lossy episode
/// behaves like a transient network fault rather than a permanently
/// degraded mesh (which would escalate into node failures with probability
/// approaching 1 as the run grows).
const LOSS_WINDOW: Cycles = 16_000;

/// Seed stream for the loss plan (decorrelates it from workload streams).
const NET_PLAN_STREAM: u64 = 0xD1A5_7E2C_0FF3_1D07;

/// Retransmission timeout for the given attempt number (0 = the initial
/// transmission): `min(RTO_BASE << attempt, RTO_CAP)`.
pub(crate) fn backoff(attempt: u32) -> Cycles {
    // Clamp the exponent before shifting: past log2(cap/base) doublings
    // the cap wins anyway, and an unclamped shift would wrap bits out.
    let exp = attempt.min((RTO_CAP / RTO_BASE).ilog2());
    (RTO_BASE << exp).min(RTO_CAP)
}

/// A packet awaiting its ack or its next retry.
#[derive(Debug, Clone)]
struct Packet {
    msg: Msg,
    attempts: u32,
    /// Original departure time of the logical message (retransmissions keep
    /// it, so the measured leg latency includes retry delays).
    sent: Cycles,
    /// Whether a copy already reached the receiver.
    delivered: bool,
}

/// What a packet's retransmission timer decides.
#[derive(Debug)]
pub(crate) enum Retry {
    /// The ack came back in time: nothing to do.
    Acked,
    /// Send another copy of `msg`; `attempt` counts the retransmissions.
    Resend { attempt: u32, msg: Msg },
    /// The retry budget is spent: the packet is dropped and the machine
    /// must decide what the silent peer means.
    GiveUp,
}

/// The state of the reliable send path.
#[derive(Debug, Clone)]
pub(crate) struct Transport {
    /// Loss-plan seed.
    seed: u64,
    /// Loss rate in per-mille: 0 on standby, until a message-loss episode
    /// arms the plan in place.
    loss_per_mille: u32,
    /// The cycles in which the plan may drop copies (empty on standby).
    loss_window: Range<Cycles>,
    /// Copies rolled so far: each roll's ordinal, so decisions depend on
    /// the send sequence, not on simulated time.
    ordinal: u64,
    /// The next sequence number. Numbers only key `in_flight`, so one
    /// counter serves every pair of nodes.
    next_seq: u64,
    /// Unacked packets by `(src, dst, seq)`.
    in_flight: FxHashMap<(NodeId, NodeId, u64), Packet>,
}

impl Transport {
    /// A transport with a standby loss plan seeded from the machine's
    /// seed.
    pub(crate) fn new(machine_seed: u64) -> Self {
        Self {
            seed: derive_seed(machine_seed, NET_PLAN_STREAM),
            loss_per_mille: 0,
            loss_window: 0..0,
            ordinal: 0,
            next_seq: 0,
            in_flight: FxHashMap::default(),
        }
    }

    /// Numbers a message from `src` to `dst` that departs at `sent` and
    /// keeps it until acknowledged. Returns its sequence number.
    pub(crate) fn open(&mut self, src: NodeId, dst: NodeId, msg: Msg, sent: Cycles) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let packet = Packet {
            msg,
            attempts: 0,
            sent,
            delivered: false,
        };
        self.in_flight.insert((src, dst, seq), packet);
        seq
    }

    /// Rolls the loss plan for one physical copy (data or ack) sent at
    /// `now`: `true` drops it. Every roll advances the ordinal, inside the
    /// window or not, so an episode drops the same copies whenever it is
    /// armed.
    pub(crate) fn drops(&mut self, now: Cycles) -> bool {
        let ordinal = self.ordinal;
        self.ordinal += 1;
        self.loss_window.contains(&now)
            && derive_seed(self.seed, ordinal) % 1000 < u64::from(self.loss_per_mille)
    }

    /// A copy of packet `(src, dst, seq)` reached `dst`. Returns the
    /// packet's departure time if this is its first arrival, and `None`
    /// for a duplicate. Copies may arrive in any order; a copy with no
    /// packet left is a duplicate too, since a packet leaves only on an
    /// ack, which follows its delivery, or on a give-up, whose failure
    /// purges the copies still in flight.
    pub(crate) fn first_delivery(&mut self, src: NodeId, dst: NodeId, seq: u64) -> Option<Cycles> {
        let p = self.in_flight.get_mut(&(src, dst, seq))?;
        (!std::mem::replace(&mut p.delivered, true)).then_some(p.sent)
    }

    /// The ack for `(src, dst, seq)` reached `src`: the packet is done.
    pub(crate) fn acked(&mut self, src: NodeId, dst: NodeId, seq: u64) {
        self.in_flight.remove(&(src, dst, seq));
    }

    /// The retransmission timer of `(src, dst, seq)` fired.
    pub(crate) fn retry(&mut self, src: NodeId, dst: NodeId, seq: u64) -> Retry {
        let Some(p) = self.in_flight.get_mut(&(src, dst, seq)) else {
            return Retry::Acked;
        };
        if p.attempts >= MAX_RETRIES {
            self.in_flight.remove(&(src, dst, seq));
            return Retry::GiveUp;
        }
        p.attempts += 1;
        Retry::Resend {
            attempt: p.attempts,
            msg: p.msg.clone(),
        }
    }

    /// Arms the standby loss plan *in place* to drop `per_mille`/1000 of
    /// the copies sent in the [`LOSS_WINDOW`] cycles from `at`, keeping its
    /// seed and ordinal. A plan that stood by during a shared run prefix
    /// then rolls exactly the dice of one armed before the prefix, which
    /// is what lets a network-fault case fork from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the plan is already armed, `per_mille > 1000`, or the
    /// window would run past the last cycle.
    pub(crate) fn arm_loss(&mut self, per_mille: u32, at: Cycles) {
        assert!(!self.loss_armed(), "plan is already armed");
        assert!(per_mille <= 1000, "rate is per-mille");
        let end = at.checked_add(LOSS_WINDOW);
        self.loss_window = at..end.expect("fault window must be non-empty");
        self.loss_per_mille = per_mille;
    }

    /// Whether a message-loss episode armed the plan.
    pub(crate) fn loss_armed(&self) -> bool {
        self.loss_per_mille > 0
    }

    /// Forgets every packet: a node failure purges the network, so the
    /// transport loses all its packets with it. The loss plan keeps its
    /// ordinal.
    pub(crate) fn reset(&mut self) {
        self.in_flight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcoma_mem::ItemId;

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn msg() -> Msg {
        let (item, requester) = (ItemId::new(7), n(1));
        Msg::ReadReq { item, requester }
    }

    fn armed(seed: u64, per_mille: u32, at: Cycles) -> Transport {
        let mut t = Transport::new(seed);
        t.arm_loss(per_mille, at);
        t
    }

    #[test]
    fn backoff_doubles_up_to_the_cap() {
        let timeouts = [0, 1, 4, 5, 6, 63, 64].map(backoff);
        // Shift overflow (attempt 64) is still capped.
        assert_eq!(
            timeouts,
            [1_000, 2_000, 16_000, 32_000, 32_000, 32_000, 32_000]
        );
        assert_eq!((backoff(0), backoff(99)), (RTO_BASE, RTO_CAP));
    }

    #[test]
    fn sequence_numbers_are_unique_among_packets_in_flight() {
        let mut t = Transport::new(1);
        let pairs = [(0, 1), (0, 1), (0, 2), (2, 1)];
        let seqs = pairs.map(|(a, b)| t.open(n(a), n(b), msg(), 0));
        for (i, a) in seqs.iter().enumerate() {
            assert!(!seqs[i + 1..].contains(a), "{seqs:?}");
        }
        // Each packet answers to its own number: an ack ends one, the
        // other keeps its timer until the retry budget is spent.
        t.acked(n(0), n(1), seqs[0]);
        assert!(matches!(t.retry(n(0), n(1), seqs[0]), Retry::Acked));
        for want in 1..=MAX_RETRIES {
            let Retry::Resend { attempt, msg: m } = t.retry(n(0), n(1), seqs[1]) else {
                panic!("attempt {want} was not resent");
            };
            assert_eq!((attempt, m), (want, msg()));
        }
        assert!(matches!(t.retry(n(0), n(1), seqs[1]), Retry::GiveUp));
        assert!(matches!(t.retry(n(0), n(1), seqs[1]), Retry::Acked));
    }

    #[test]
    fn dedup_suppresses_retransmitted_deliveries_out_of_order() {
        let mut t = Transport::new(1);
        let [first, second, third] = [10, 20, 30].map(|sent| t.open(n(3), n(0), msg(), sent));
        // Out of order: the later packet arrives first, both are new, and
        // a second copy of either is a duplicate.
        let mut arrive = |seq| t.first_delivery(n(3), n(0), seq);
        assert_eq!([arrive(second), arrive(first)], [Some(20), Some(10)]);
        assert_eq!([arrive(second), arrive(first)], [None, None]);
        // So is a copy that arrives after the ack, or after a failure
        // purged its packet.
        t.acked(n(3), n(0), first);
        t.reset();
        assert_eq!(t.first_delivery(n(3), n(0), first), None);
        assert_eq!(t.first_delivery(n(3), n(0), third), None);
    }

    #[test]
    fn clones_produce_identical_decision_streams() {
        let mut a = armed(0xDEAD, 300, 0);
        let mut b = a.clone();
        assert!((0..500).all(|c| a.drops(c) == b.drops(c)));
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let mut t = armed(42, 500, 0);
        let drops = (0..2000).filter(|&c| t.drops(c % LOSS_WINDOW)).count();
        assert!(
            (800..1200).contains(&drops),
            "{drops} drops at 500 per-mille"
        );
    }

    #[test]
    fn window_gates_the_burst_without_desyncing_ordinals() {
        let mut windowed = armed(9, 1000, 100);
        let cycles = [99, 100, 100 + LOSS_WINDOW - 1, 100 + LOSS_WINDOW];
        assert_eq!(
            cycles.map(|c| windowed.drops(c)),
            [false, true, true, false]
        );
        // Ordinals advance outside the window too: once the window opens,
        // a gated plan decides like an open one at the same ordinal.
        let (mut gated, mut open) = (armed(11, 500, 32), armed(11, 500, 0));
        for c in 0..64 {
            let (g, o) = (gated.drops(c), open.drops(c));
            assert_eq!(g, c >= 32 && o);
        }
    }

    #[test]
    fn arming_a_standby_plan_matches_a_fresh_plan_with_shifted_ordinals() {
        // A standby plan burns 100 ordinals delivering, then arms. From
        // then on it must decide exactly like a plan armed up front that
        // saw the same 100 sends before its window.
        let (mut standby, mut fresh) = (Transport::new(77), armed(77, 500, 100));
        assert!((0..100).all(|c| [standby.drops(c), fresh.drops(c)] == [false; 2]));
        standby.arm_loss(500, 100);
        assert!((100..1_000).all(|c| standby.drops(c) == fresh.drops(c)));
    }

    #[test]
    #[should_panic(expected = "already armed")]
    fn arming_twice_panics() {
        armed(1, 10, 0).arm_loss(10, 0);
    }

    #[test]
    fn zero_rate_plan_always_delivers() {
        let (mut standby, mut zero) = (Transport::new(1), armed(1, 0, 0));
        assert!(!standby.loss_armed());
        assert!((0..100).all(|c| [standby.drops(c), zero.drops(c)] == [false; 2]));
    }
}
