//! Deterministic per-message network fault plans.
//!
//! A [`NetFaultPlan`] decides, message by message, whether the network
//! delivers or drops a packet. Decisions are a pure function of the plan's
//! seed and the *ordinal* of the message (its position in the send
//! sequence), not of simulated time or of any shared generator state — so
//! a faulted run replays byte-identically at any job count, and two clones
//! of a plan produce identical decision streams.

use ftcoma_sim::{derive_seed, Cycles};

/// A seeded plan that drops individual messages deterministically.
///
/// A new plan drops nothing; [`NetFaultPlan::arm_message_loss`] gives it
/// a rate in integer per-mille (so the plan stays `Eq` and replayable),
/// applied against one roll per message, and a `[start, end)` cycle
/// window that limits it to a burst: outside the window every packet is
/// delivered (the ordinal still advances, keeping decisions independent
/// of when the window opens).
///
/// # Example
///
/// ```
/// use ftcoma_net::NetFaultPlan;
///
/// let mut plan = NetFaultPlan::new(7);
/// assert!(!plan.decide(0)); // a new plan delivers everything
/// plan.arm_message_loss(1000, 100, 200); // drop everything in [100, 200)
/// assert!(!plan.decide(50)); // before the burst
/// assert!(plan.decide(150)); // inside it
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetFaultPlan {
    seed: u64,
    drop_per_mille: u32,
    window: Option<(Cycles, Cycles)>,
    sent: u64,
}

impl NetFaultPlan {
    /// A zero-rate plan: it delivers everything until armed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_per_mille: 0,
            window: None,
            sent: 0,
        }
    }

    /// Loss rate in per-mille (0 = the plan never drops).
    pub fn rate_per_mille(&self) -> u32 {
        self.drop_per_mille
    }

    /// Arms an inert (zero-rate) plan as a message-loss episode dropping
    /// `per_mille`/1000 of the packets sent in `[start, end)`, *in place*,
    /// keeping its seed and send ordinal. A plan that stood by delivering
    /// everything during a shared run prefix before `start` then rolls
    /// exactly the dice a plan armed before the prefix would have rolled
    /// for the same send sequence — the key to forking a network-fault
    /// case from a snapshot byte-identically.
    ///
    /// # Panics
    ///
    /// Panics if the plan already has a non-zero rate, `per_mille > 1000`,
    /// or the window is empty.
    pub fn arm_message_loss(&mut self, per_mille: u32, start: Cycles, end: Cycles) {
        assert!(self.rate_per_mille() == 0, "plan is already armed");
        assert!(per_mille <= 1000, "rate is per-mille");
        assert!(start < end, "fault window must be non-empty");
        self.drop_per_mille = per_mille;
        self.window = Some((start, end));
    }

    /// Decides the fate of the next packet, sent at time `now`: `true`
    /// drops it, `false` delivers it. Only an armed plan inside its window
    /// rolls the dice.
    pub fn decide(&mut self, now: Cycles) -> bool {
        let ordinal = self.sent;
        self.sent += 1;
        match self.window {
            Some((start, end)) if (start..end).contains(&now) => {
                ((derive_seed(self.seed, ordinal) % 1000) as u32) < self.drop_per_mille
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed(seed: u64, per_mille: u32, start: Cycles, end: Cycles) -> NetFaultPlan {
        let mut plan = NetFaultPlan::new(seed);
        plan.arm_message_loss(per_mille, start, end);
        plan
    }

    #[test]
    fn clones_produce_identical_decision_streams() {
        let mut a = armed(0xDEAD, 300, 0, 1_000_000);
        let mut b = a.clone();
        for t in 0..500 {
            assert_eq!(a.decide(t), b.decide(t));
        }
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let mut plan = armed(42, 500, 0, Cycles::MAX);
        let drops = (0..2000).filter(|&t| plan.decide(t)).count();
        assert!(
            (800..1200).contains(&drops),
            "expected ~1000 drops at 500 per-mille, got {drops}"
        );
    }

    #[test]
    fn window_gates_the_burst_without_desyncing_ordinals() {
        let mut windowed = armed(9, 1000, 100, 200);
        assert!(!windowed.decide(99));
        assert!(windowed.decide(100));
        assert!(windowed.decide(199));
        assert!(!windowed.decide(200));
        // Ordinals advance outside the window too: once the window opens,
        // a gated plan decides like an always-open one at the same ordinal.
        let mut gated = armed(11, 500, 32, Cycles::MAX);
        let mut open = armed(11, 500, 0, Cycles::MAX);
        for t in 0..64 {
            let (g, o) = (gated.decide(t), open.decide(t));
            assert_eq!(g, t >= 32 && o);
        }
    }

    #[test]
    fn arming_a_standby_plan_matches_a_fresh_plan_with_shifted_ordinals() {
        // A standby plan burns 100 ordinals delivering, then arms. From
        // that point it must decide exactly like a plan armed up front
        // whose ordinal counter was advanced by the same 100 sends.
        let mut standby = NetFaultPlan::new(77);
        for t in 0..100 {
            assert!(!standby.decide(t));
        }
        standby.arm_message_loss(500, 100, 10_000);
        let mut fresh = armed(77, 500, 100, 10_000);
        for t in 0..100 {
            assert!(!fresh.decide(t)); // the prefix lies before the window
        }
        for t in 100..1_000 {
            assert_eq!(standby.decide(t), fresh.decide(t));
        }
    }

    #[test]
    #[should_panic(expected = "already armed")]
    fn arming_twice_panics() {
        let mut plan = NetFaultPlan::new(1);
        plan.arm_message_loss(10, 0, 100);
        plan.arm_message_loss(10, 0, 100);
    }

    #[test]
    fn zero_rate_plan_always_delivers() {
        let mut plan = NetFaultPlan::new(1);
        assert_eq!(plan.rate_per_mille(), 0);
        for t in 0..100 {
            assert!(!plan.decide(t));
        }
    }
}
