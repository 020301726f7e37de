//! # The Battle of the Schedulers — FreeBSD ULE vs. Linux CFS, in Rust
//!
//! A reproduction of Bouron et al., *"The Battle of the Schedulers: FreeBSD
//! ULE vs. Linux CFS"* (USENIX ATC 2018), built as a deterministic
//! discrete-event multicore simulator with faithful implementations of both
//! schedulers behind the same scheduling-class interface (the paper's
//! Table 1).
//!
//! This crate is the umbrella: it re-exports every workspace crate.
//! Start with [`experiments::make_kernel`] (a [`kernel::Kernel`] on a
//! [`topology::Topology`] preset, driven by any [`scenario::Sched`]),
//! [`experiments`] for the figure/table drivers, and the `battle` binary
//! to regenerate the paper's results:
//!
//! ```text
//! cargo run --release -p experiments --bin battle -- all --scale 0.3
//! ```

pub use cfs;
pub use experiments;
pub use kernel;
pub use metrics;
pub use scenario;
pub use sched_api;
pub use simcore;
pub use topology;
pub use ule;
pub use workloads;
