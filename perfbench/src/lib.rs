//! Closed-loop host-time benchmark of the scheduler simulator.
//!
//! One single-threaded process runs a workload's list of scenario ×
//! scheduler runs back to back, each starting when the previous one ends,
//! and times the simulator's public entry points from outside. Traced runs
//! wrap the scheduler in [`timed::Timed`] to attribute time to each
//! `Scheduler` hook. `README.md` next to this crate explains the workloads
//! and metrics.

pub mod engine;
pub mod report;
pub mod ruler;
pub mod runner;
pub mod stats;
pub mod timed;
pub mod workloads;
