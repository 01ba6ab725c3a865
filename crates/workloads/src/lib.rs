//! Synthetic SPLASH-like shared-memory reference generators.
//!
//! The paper drives its simulator with execution-driven traces of four
//! SPLASH applications (Barnes-Hut, Cholesky, Mp3d, Water) instrumented
//! with Abstract Execution. We cannot re-run those 1996 binaries, so this
//! crate substitutes statistically matched generators (see DESIGN.md §4):
//! each preset reproduces the application's Table 3 characteristics —
//! instruction/read/write mix, shared-access fractions, relative
//! working-set size — and its qualitative sharing style:
//!
//! * **Barnes-Hut** — mostly-read shared tree data, small working set;
//! * **Cholesky** — blocked panel reuse, large working set;
//! * **Mp3d** — migratory molecule records, high shared-write rate, the
//!   largest working set (≈9× Barnes);
//! * **Water** — partitioned molecules with neighbour exchange, very low
//!   shared-write rate.
//!
//! Each per-node stream implements [`RefStream`], whose
//! [`snapshot`](RefStream::snapshot)/[`restore`](RefStream::restore) pair is
//! what lets the machine model true backward error recovery: the stream
//! state is saved with every recovery point and re-wound on rollback, so the
//! node genuinely re-executes from the checkpoint.
//!
//! # Example
//!
//! ```
//! use ftcoma_workloads::{presets, NodeStream, RefStream};
//!
//! let cfg = presets::barnes();
//! let mut stream = NodeStream::new(&cfg, 0, 16, 42);
//! let r = stream.next_ref();
//! assert!(r.pre_cycles < 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod presets;
pub mod stream;
pub mod zipf;

pub use presets::{SharingStyle, SplashConfig};
pub use stream::{MemRef, NodeStream, RefStream, StreamSnapshot};
