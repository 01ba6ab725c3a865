//! Fault-tolerance configuration.

use ftcoma_sim::Clock;

use crate::capacity::COPIES_REQUIRED;

/// The fewest live nodes on which the ECP can establish a recovery point.
/// "Four copies are necessary during the create phase" (§4.1): a modified
/// item's two old `Inv-CK` copies, its `Pre-Commit1` original and its
/// `Pre-Commit2` replica need four distinct copy holders, because an AM
/// holds at most one copy of an item. A machine that may lose a node for
/// good therefore needs one node more.
pub const ECP_MIN_LIVE_NODES: u16 = COPIES_REQUIRED as u16;

/// Whether the Extended Coherence Protocol is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FtMode {
    /// Standard COMA-F protocol — the paper's baseline simulator. No
    /// recovery states are ever created and no checkpoints are taken.
    #[default]
    Disabled,
    /// The ECP: recovery data managed in the AMs, periodic recovery
    /// points, rollback on failure.
    Enabled,
}

impl FtMode {
    /// Is the ECP active?
    pub fn is_enabled(self) -> bool {
        self == FtMode::Enabled
    }
}

/// How the commit phase finds the copies whose state must flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitStrategy {
    /// Scan the AM ("each node scans its memory"), optionally restricted
    /// to allocated pages — the paper's implemented scheme; its cost is
    /// `T_commit`.
    #[default]
    Scan,
    /// The paper's proposed improvement: "a node recovery point counter,
    /// incremented each time a new recovery point is confirmed, and
    /// recovery point counters associated with each memory item could be
    /// used to avoid scanning the AMs during the commit phase and would
    /// nullify T_commit". State transitions resolve lazily against the
    /// counters; committing costs one counter increment.
    GenerationCounters,
}

/// Configuration of the fault-tolerance machinery.
///
/// # Example
///
/// ```
/// use ftcoma_core::FtConfig;
///
/// let cfg = FtConfig::enabled(100.0); // 100 recovery points per second
/// assert!(cfg.mode.is_enabled());
/// assert_eq!(cfg.ckpt_period_cycles(), Some(200_000)); // 20 MHz clock
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtConfig {
    /// Protocol mode.
    pub mode: FtMode,
    /// Recovery points per simulated second of the paper's 20 MHz clock
    /// ([`Clock::ksr1`]; ignored when disabled).
    pub ckpt_rate_hz: f64,
    /// Create-phase optimisation: re-label an existing `Shared` replica as
    /// the second recovery copy instead of transferring the item. On by
    /// default; switchable for the ablation benches.
    pub reuse_shared_replica: bool,
    /// Commit-phase optimisation: scan only allocated pages instead of the
    /// whole AM. On by default; switchable for the ablation benches.
    /// Ignored under [`CommitStrategy::GenerationCounters`].
    pub optimized_commit_scan: bool,
    /// How the commit phase is implemented.
    pub commit_strategy: CommitStrategy,
}

impl FtConfig {
    /// Standard protocol, no fault tolerance.
    pub fn disabled() -> Self {
        Self {
            mode: FtMode::Disabled,
            ckpt_rate_hz: 0.0,
            reuse_shared_replica: true,
            optimized_commit_scan: true,
            commit_strategy: CommitStrategy::Scan,
        }
    }

    /// ECP with the given recovery-point frequency (per simulated second).
    ///
    /// # Panics
    ///
    /// Panics if [`FtConfig::try_enabled`] rejects the rate.
    pub fn enabled(rate_hz: f64) -> Self {
        Self::try_enabled(rate_hz).unwrap_or_else(|e| panic!("{e}"))
    }

    /// ECP with the given recovery-point frequency (per simulated second),
    /// if the machine can establish recovery points that often.
    ///
    /// # Errors
    ///
    /// Rejects a rate that is not strictly positive and finite, and one
    /// above twice the clock frequency, whose period rounds to 0 cycles.
    pub fn try_enabled(rate_hz: f64) -> Result<Self, String> {
        if !(rate_hz.is_finite() && rate_hz > 0.0) {
            return Err(format!(
                "checkpoint rate must be a positive number of recovery points per second, got {rate_hz}"
            ));
        }
        let cfg = Self {
            mode: FtMode::Enabled,
            ckpt_rate_hz: rate_hz,
            ..Self::disabled()
        };
        if cfg.ckpt_period_cycles() == Some(0) {
            return Err(format!(
                "checkpoint rate {rate_hz} is above {} recovery points per second: \
                 its period rounds to 0 cycles",
                2.0 * Clock::ksr1().hz()
            ));
        }
        Ok(cfg)
    }

    /// Cycles between recovery-point establishments, if enabled.
    ///
    /// # Panics
    ///
    /// Panics if an enabled configuration's rate is not positive and
    /// finite, which [`FtConfig::try_enabled`] rules out.
    pub fn ckpt_period_cycles(&self) -> Option<u64> {
        match self.mode {
            FtMode::Disabled => None,
            FtMode::Enabled => Some(Clock::ksr1().period_for_rate_hz(self.ckpt_rate_hz)),
        }
    }
}

impl Default for FtConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_commit_strategy_is_scan() {
        assert_eq!(FtConfig::disabled().commit_strategy, CommitStrategy::Scan);
    }

    #[test]
    fn disabled_has_no_period() {
        assert_eq!(FtConfig::disabled().ckpt_period_cycles(), None);
    }

    #[test]
    fn paper_frequencies() {
        assert_eq!(FtConfig::enabled(400.0).ckpt_period_cycles(), Some(50_000));
        assert_eq!(FtConfig::enabled(5.0).ckpt_period_cycles(), Some(4_000_000));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = FtConfig::enabled(0.0);
    }

    #[test]
    fn rates_whose_period_rounds_to_zero_are_rejected() {
        assert_eq!(FtConfig::enabled(4e7).ckpt_period_cycles(), Some(1));
        assert!(FtConfig::try_enabled(4.1e7).is_err());
        assert!(FtConfig::try_enabled(f64::NAN).is_err());
    }
}
