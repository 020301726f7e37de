//! The scheduling-class API shared by CFS and ULE.
//!
//! The Linux kernel lets multiple scheduling classes coexist behind a single
//! function-pointer interface; the paper's Table 1 lists the functions a
//! class must implement and their FreeBSD equivalents. This crate defines
//! that interface as the [`Scheduler`] trait (each method's documentation
//! reproduces the Table 1 mapping), together with the task model
//! ([`task::Task`], [`task::TaskTable`]), Linux's nice→weight table
//! ([`weights`]), and the introspection types the experiments use to sample
//! scheduler-internal state (vruntime, interactivity penalty, ...).
//!
//! The simulated kernel (`kernel` crate) is generic over `dyn Scheduler`,
//! exactly like Linux's core scheduler is generic over its classes — that is
//! what makes the paper's "same kernel, different scheduler" methodology
//! reproducible here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ids;
pub mod params;
pub mod sched;
pub mod scx;
pub mod task;
pub mod weights;

pub use ids::{GroupId, Tid};
pub use params::{Dim, DimScale, ParamSpace, ParamVector};
pub use sched::{
    DequeueKind, EnqueueKind, Preempt, PreemptCause, Scheduler, SelectError, SelectStats,
    TaskSnapshot, WakeKind,
};
pub use task::{Migration, Task, TaskState, TaskTable};
pub use topology::{CpuMask, MAX_CPUS};
