//! The Extended Coherence Protocol (ECP): the paper's contribution.
//!
//! This crate implements the complete coherence engine of the simulated
//! COMA-F machine in *two* modes selected by [`FtMode`]:
//!
//! * [`FtMode::Disabled`] — the standard COMA-F protocol (the paper's
//!   baseline simulator): four stable states, master copies, injections on
//!   master replacement;
//! * [`FtMode::Enabled`] — the ECP: the same protocol extended with six
//!   recovery states (`Shared-CK1/2`, `Inv-CK1/2`, `Pre-Commit1/2`), the
//!   two-phase `create`/`commit` recovery-point establishment, the rollback
//!   algorithm, and post-failure reconfiguration.
//!
//! The engine is a message-driven state machine: the full-system simulator
//! in `ftcoma-machine` delivers processor accesses and network messages to
//! [`engine::Engine`] and interprets the [`ctx::Effect`]s it emits (resume
//! the processor, record an injection, finish a checkpoint phase, …). All
//! protocol decisions use only the handling node's own state plus message
//! contents, so the engine behaves like the distributed AM controllers it
//! models.
//!
//! Module map:
//!
//! * [`config`] — fault-tolerance mode, checkpoint schedule, ablations;
//! * [`engine`] — transaction handlers (read/write misses, upgrades,
//!   invalidations, injections, page eviction) for both modes;
//! * [`ckpt`] — the `create`/`commit` two-phase establishment;
//! * [`recovery`] — rollback scans and permanent-failure reconfiguration;
//! * [`invariants`] — machine-wide consistency checks used by the test
//!   suite (exactly one owner per item, CK copies come in valid pairs, …).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod ckpt;
pub mod config;
pub mod ctx;
pub mod engine;
pub mod invariants;
pub mod recovery;

pub use config::{CommitStrategy, FtConfig, FtMode, ECP_MIN_LIVE_NODES};
pub use ctx::{Ctx, Effect};
pub use engine::{AccessOutcome, AccessReq, Engine, HitSource};
pub use recovery::RecoveryOutcome;
