//! The full-system ft-coma machine simulator.
//!
//! This crate assembles every substrate into the machine the paper
//! evaluates: processors driving synthetic SPLASH-like reference streams,
//! sectored caches, attraction memories, the COMA-F coherence engine (in
//! standard or ECP mode), a wormhole-mesh interconnect and the checkpoint /
//! failure machinery — all advanced by one deterministic discrete-event
//! loop.
//!
//! # Quick start
//!
//! ```
//! use ftcoma_machine::{Machine, MachineConfig};
//! use ftcoma_core::FtConfig;
//! use ftcoma_workloads::presets;
//!
//! let cfg = MachineConfig {
//!     nodes: 4,
//!     refs_per_node: 20_000,
//!     workload: presets::water(),
//!     ft: FtConfig::enabled(400.0),
//!     ..MachineConfig::default()
//! };
//! let mut machine = Machine::new(cfg);
//! let metrics = machine.run();
//! assert!(metrics.total_cycles > 0);
//! assert!(metrics.checkpoints > 0);
//! machine.assert_invariants();
//! ```
//!
//! The same configuration with [`FtConfig::disabled`] is the paper's
//! baseline. [`Decomposition::of`] splits an ECP run's overhead against
//! its baseline twin (same seed and run length) into `T_create`,
//! `T_commit` and `T_pollution` exactly as Fig. 3 does; `ftcoma-campaign`
//! pairs the twins as cells of one baseline group.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
mod coordinator;
mod episode;
pub mod export;
pub mod faultproc;
pub mod machine;
pub mod metrics;
mod observer;
pub mod probe;
mod processors;
pub mod tracelog;
mod transport;

pub use config::{FailureKind, MachineConfig};
pub use faultproc::{FaultProcess, FaultProcessConfig};
pub use machine::{Machine, Snapshot};
pub use metrics::{Decomposition, NodeMetrics, PhaseLatency, RunMetrics, TsSample};
