//! Machine configuration.

use ftcoma_core::{FtConfig, ECP_MIN_LIVE_NODES};
use ftcoma_mem::{AmGeometry, CacheGeometry};
use ftcoma_net::FabricConfig;
use ftcoma_protocol::MemTiming;
use ftcoma_workloads::{presets, SplashConfig};

/// Kind of injected node failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The node stops, loses its running computation, and rejoins after
    /// the global rollback with its memory contents intact.
    Transient,
    /// The node is lost for good: memory gone, removed from the ring;
    /// recovery additionally reconfigures (re-replicates orphaned recovery
    /// copies) and the node's work is adopted by its ring successor.
    Permanent,
}

/// Full configuration of a simulated machine run.
///
/// The defaults are the paper's: KSR1-like node (20 MHz, 256 KB cache,
/// 8 MB AM), 4×4-capable mesh parameters, standard protocol, Water
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of nodes (the paper evaluates 9–56; default 16 = 4×4).
    pub nodes: u16,
    /// Memory references each node must complete.
    pub refs_per_node: u64,
    /// The synthetic application driving each node.
    pub workload: SplashConfig,
    /// Fault-tolerance mode and checkpoint frequency.
    pub ft: FtConfig,
    /// Node-local memory timings.
    pub timing: MemTiming,
    /// The interconnect: the paper's mesh with its network timings (the
    /// default), or a split-transaction shared bus (snooping-style fabric;
    /// see `ftcoma_net::bus`).
    pub fabric: FabricConfig,
    /// Attraction-memory geometry.
    pub am: AmGeometry,
    /// Cache geometry.
    pub cache: CacheGeometry,
    /// References per node executed before measurement starts. The paper
    /// collects statistics "during the parallel phase" only; warmup skips
    /// the cold-start where every access is a machine-wide first touch.
    pub warmup_refs_per_node: u64,
    /// Master RNG seed; paired standard/ECP runs must share it.
    pub seed: u64,
    /// Track a committed-value oracle and verify every recovery against it
    /// (costs memory; on by default in tests, off in benches).
    pub verify: bool,
    /// Retain the last N protocol events for post-mortem inspection
    /// (`0` = tracing off; see [`crate::tracelog`]). Also bounds the causal
    /// span ring (see `ftcoma_sim::span`).
    pub trace_capacity: usize,
    /// Emit one time-series sample row every N cycles (`0` = off). Sampling
    /// is pure observation: it never schedules events and cannot perturb
    /// the simulation.
    pub timeseries_every: ftcoma_sim::Cycles,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            nodes: 16,
            refs_per_node: 10_000,
            workload: presets::water(),
            ft: FtConfig::disabled(),
            timing: MemTiming::ksr1(),
            fabric: FabricConfig::default(),
            am: AmGeometry::ksr1(),
            cache: CacheGeometry::ksr1(),
            warmup_refs_per_node: 0,
            seed: 0xF7C0_3A11,
            verify: false,
            trace_capacity: 0,
            timeseries_every: 0,
        }
    }
}

impl MachineConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if there are fewer than two nodes (the ECP needs a
    /// second AM for every recovery copy), fewer than four with the ECP on,
    /// or no references to run.
    ///
    /// # Panics
    ///
    /// Panics if the workload, timing, AM or cache sub-configuration is
    /// inconsistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes < 2 {
            return Err("the machine needs at least two nodes".into());
        }
        if self.ft.mode.is_enabled() && self.nodes < ECP_MIN_LIVE_NODES {
            return Err(
                "the ECP needs at least four nodes (four copies per modified \
                 item during establishment)"
                    .into(),
            );
        }
        if self.refs_per_node == 0 {
            return Err("refs_per_node must be positive".into());
        }
        self.workload.validate();
        self.timing.validate();
        self.am.validate();
        self.cache.validate();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert_eq!(MachineConfig::default().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn rejects_single_node() {
        let cfg = MachineConfig {
            nodes: 1,
            ..Default::default()
        };
        assert!(cfg.validate().is_err_and(|e| e.contains("two nodes")));
        // `Machine::new` keeps its documented panic on an invalid config.
        crate::Machine::new(cfg);
    }
}
