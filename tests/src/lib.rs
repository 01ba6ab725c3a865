//! Integration-test support for the cross-crate tests.
//!
//! The protocol-conformance tests place copies by hand and drive single
//! transactions through [`Rig`], the same driver with which
//! `ftcoma_machine::probe` measures the paper's Tables 1 and 2.

pub use ftcoma_machine::probe::Rig;
