//! Discrete-event simulation kernel for the ft-coma simulator suite.
//!
//! The paper evaluates the Extended Coherence Protocol with an
//! execution-driven simulator built on the SPAM kernel and a CSIM-style
//! discrete-event library. This crate is our equivalent substrate: a small,
//! deterministic, single-threaded discrete-event kernel plus the utilities
//! every other crate needs:
//!
//! * [`EventQueue`] — a time-ordered event calendar with deterministic
//!   FIFO tie-breaking, the heart of the simulator;
//! * [`Clock`] — cycle/wall-clock conversions for the 20 MHz machine;
//! * [`rng`] — seeded, splittable random-number generation so that every
//!   simulation run is exactly reproducible;
//! * [`stats`] — the log₂ latency histogram behind the access-latency and
//!   per-phase percentiles of `ftcoma-machine`'s metrics;
//! * [`span`] — causal span records (typed phases, parent links) for the
//!   transaction- and recovery-time decompositions;
//! * [`ring`] — the bounded ring that holds the machine's spans and
//!   protocol trace.
//!
//! # Example
//!
//! ```
//! use ftcoma_sim::EventQueue;
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule_in(10, "b");
//! q.schedule_in(5, "a");
//! q.schedule_in(10, "c"); // same time as "b": FIFO order preserved
//!
//! assert_eq!(q.pop(), Some((5, "a")));
//! assert_eq!(q.pop(), Some((10, "b")));
//! assert_eq!(q.pop(), Some((10, "c")));
//! assert_eq!(q.pop(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
pub mod json;
pub mod queue;
pub mod ring;
pub mod rng;
pub mod span;
pub mod stats;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use json::Json;
pub use queue::EventQueue;
pub use rng::{derive_seed, DetRng};

/// Simulation time, measured in processor clock cycles.
///
/// The simulated machine follows the KSR1 parameters of the paper: a 20 MHz
/// clock, so one cycle is 50 ns. Use [`Clock`] to convert to wall-clock
/// quantities such as "recovery points per second".
pub type Cycles = u64;

/// Converts between simulated cycles and wall-clock time.
///
/// # Example
///
/// ```
/// use ftcoma_sim::Clock;
///
/// let clock = Clock::ksr1();
/// // 400 recovery points per second on a 20 MHz machine: one every 50k cycles.
/// assert_eq!(clock.period_for_rate_hz(400.0), 50_000);
/// assert!((clock.cycles_to_secs(20_000_000) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    hz: f64,
}

impl Clock {
    /// Creates a clock with the given frequency in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    pub fn new(hz: f64) -> Self {
        assert!(
            hz.is_finite() && hz > 0.0,
            "clock frequency must be positive"
        );
        Self { hz }
    }

    /// The 20 MHz clock of the simulated KSR1-like node used in the paper.
    pub fn ksr1() -> Self {
        Self::new(20_000_000.0)
    }

    /// Clock frequency in hertz.
    pub fn hz(&self) -> f64 {
        self.hz
    }

    /// Converts a cycle count to seconds of simulated time.
    pub fn cycles_to_secs(&self, cycles: Cycles) -> f64 {
        cycles as f64 / self.hz
    }

    /// Cycle period of an event recurring `rate_hz` times per simulated
    /// second — e.g. the recovery-point establishment period.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not strictly positive and finite.
    pub fn period_for_rate_hz(&self, rate_hz: f64) -> Cycles {
        assert!(
            rate_hz.is_finite() && rate_hz > 0.0,
            "rate must be positive"
        );
        (self.hz / rate_hz).round() as Cycles
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::ksr1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_rate_round_trip() {
        let c = Clock::ksr1();
        assert_eq!(c.period_for_rate_hz(5.0), 4_000_000);
        assert_eq!(c.period_for_rate_hz(400.0), 50_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn clock_rejects_zero() {
        let _ = Clock::new(0.0);
    }
}
