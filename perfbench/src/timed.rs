//! A scheduling class that forwards every [`Scheduler`] method to the class
//! it wraps and charges the call's host time to that method.
//!
//! The kernel owns its scheduler, so the wrapper shares its tallies with
//! the harness through an `Rc<HookStats>`. The harness reads the tallies
//! at step boundaries; hook calls are summed, never recorded one by one.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use sched_api::{
    DequeueKind, EnqueueKind, Preempt, Scheduler, SelectError, SelectStats, TaskSnapshot,
    TaskTable, Tid, WakeKind,
};
use simcore::Time;
use topology::CpuId;

/// The timed trait methods, in report order. `name` is not timed, and
/// `queued_tids` is charged to `queued_tids_into`, its primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hook {
    SelectTaskRq,
    EnqueueTask,
    DequeueTask,
    YieldTask,
    PickNextTask,
    PutPrevTask,
    TaskTick,
    TaskFork,
    TaskDead,
    BalanceTick,
    IdleBalance,
    NrQueued,
    QueuedTidsInto,
    Snapshot,
    Audit,
    CpuOffline,
    CpuOnline,
}

/// Number of timed hooks.
pub const NHOOKS: usize = 17;

impl Hook {
    /// Every hook, in report order (`Hook::ALL[h as usize] == h`).
    pub const ALL: [Hook; NHOOKS] = [
        Hook::SelectTaskRq,
        Hook::EnqueueTask,
        Hook::DequeueTask,
        Hook::YieldTask,
        Hook::PickNextTask,
        Hook::PutPrevTask,
        Hook::TaskTick,
        Hook::TaskFork,
        Hook::TaskDead,
        Hook::BalanceTick,
        Hook::IdleBalance,
        Hook::NrQueued,
        Hook::QueuedTidsInto,
        Hook::Snapshot,
        Hook::Audit,
        Hook::CpuOffline,
        Hook::CpuOnline,
    ];

    /// The trait method's name, as used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Hook::SelectTaskRq => "select_task_rq",
            Hook::EnqueueTask => "enqueue_task",
            Hook::DequeueTask => "dequeue_task",
            Hook::YieldTask => "yield_task",
            Hook::PickNextTask => "pick_next_task",
            Hook::PutPrevTask => "put_prev_task",
            Hook::TaskTick => "task_tick",
            Hook::TaskFork => "task_fork",
            Hook::TaskDead => "task_dead",
            Hook::BalanceTick => "balance_tick",
            Hook::IdleBalance => "idle_balance",
            Hook::NrQueued => "nr_queued",
            Hook::QueuedTidsInto => "queued_tids_into",
            Hook::Snapshot => "snapshot",
            Hook::Audit => "audit",
            Hook::CpuOffline => "cpu_offline",
            Hook::CpuOnline => "cpu_online",
        }
    }
}

/// Running tallies written by [`Timed`] and read by the harness.
#[derive(Debug, Default)]
pub struct HookStats {
    calls: [Cell<u64>; NHOOKS],
    nanos: [Cell<u64>; NHOOKS],
    cpus_scanned: Cell<u64>,
    idle_pulled: Cell<u64>,
    enqueue_preempts: Cell<u64>,
    tick_preempts: Cell<u64>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

impl HookStats {
    fn record(&self, hook: Hook, start: Instant) {
        let i = hook as usize;
        bump(&self.calls[i], 1);
        bump(&self.nanos[i], start.elapsed().as_nanos() as u64);
    }

    /// The tallies so far, as plain numbers.
    pub fn totals(&self) -> HookTotals {
        HookTotals {
            calls: std::array::from_fn(|i| self.calls[i].get()),
            nanos: std::array::from_fn(|i| self.nanos[i].get()),
            cpus_scanned: self.cpus_scanned.get(),
            idle_pulled: self.idle_pulled.get(),
            enqueue_preempts: self.enqueue_preempts.get(),
            tick_preempts: self.tick_preempts.get(),
        }
    }
}

/// A copy of [`HookStats`]: per-hook call counts and host nanoseconds, and
/// the outcome counts the derived ratios need.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookTotals {
    /// Calls per hook, indexed by `Hook as usize`.
    pub calls: [u64; NHOOKS],
    /// Host nanoseconds per hook.
    pub nanos: [u64; NHOOKS],
    /// CPUs examined by `select_task_rq` (its `SelectStats` increments).
    pub cpus_scanned: u64,
    /// `idle_balance` calls that pulled at least one task.
    pub idle_pulled: u64,
    /// `enqueue_task` calls that asked for a preemption.
    pub enqueue_preempts: u64,
    /// `task_tick` calls that asked for a preemption.
    pub tick_preempts: u64,
}

impl HookTotals {
    /// Host nanoseconds across every hook.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Element-wise `self - earlier`.
    pub fn since(&self, earlier: &HookTotals) -> HookTotals {
        HookTotals {
            calls: std::array::from_fn(|i| self.calls[i] - earlier.calls[i]),
            nanos: std::array::from_fn(|i| self.nanos[i] - earlier.nanos[i]),
            cpus_scanned: self.cpus_scanned - earlier.cpus_scanned,
            idle_pulled: self.idle_pulled - earlier.idle_pulled,
            enqueue_preempts: self.enqueue_preempts - earlier.enqueue_preempts,
            tick_preempts: self.tick_preempts - earlier.tick_preempts,
        }
    }

    /// Element-wise `self += other`.
    pub fn add(&mut self, other: &HookTotals) {
        for i in 0..NHOOKS {
            self.calls[i] += other.calls[i];
            self.nanos[i] += other.nanos[i];
        }
        self.cpus_scanned += other.cpus_scanned;
        self.idle_pulled += other.idle_pulled;
        self.enqueue_preempts += other.enqueue_preempts;
        self.tick_preempts += other.tick_preempts;
    }
}

/// The timing wrapper the kernel receives in traced runs.
pub struct Timed {
    inner: Box<dyn Scheduler>,
    stats: Rc<HookStats>,
}

impl Timed {
    /// Wrap `inner`, tallying into `stats`.
    pub fn new(inner: Box<dyn Scheduler>, stats: Rc<HookStats>) -> Timed {
        Timed { inner, stats }
    }
}

fn timed<R>(stats: &HookStats, hook: Hook, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    stats.record(hook, start);
    r
}

impl Scheduler for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select_task_rq(
        &mut self,
        tasks: &TaskTable,
        tid: Tid,
        kind: WakeKind,
        waking_cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        let before = stats.cpus_scanned;
        let r = timed(&self.stats, Hook::SelectTaskRq, || {
            self.inner
                .select_task_rq(tasks, tid, kind, waking_cpu, now, stats)
        });
        bump(
            &self.stats.cpus_scanned,
            u64::from(stats.cpus_scanned.wrapping_sub(before)),
        );
        r
    }

    fn enqueue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: EnqueueKind,
        now: Time,
    ) -> Preempt {
        let r = timed(&self.stats, Hook::EnqueueTask, || {
            self.inner.enqueue_task(tasks, cpu, tid, kind, now)
        });
        if r != Preempt::No {
            bump(&self.stats.enqueue_preempts, 1);
        }
        r
    }

    fn dequeue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: DequeueKind,
        now: Time,
    ) {
        timed(&self.stats, Hook::DequeueTask, || {
            self.inner.dequeue_task(tasks, cpu, tid, kind, now)
        })
    }

    fn yield_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) {
        timed(&self.stats, Hook::YieldTask, || {
            self.inner.yield_task(tasks, cpu, now)
        })
    }

    fn pick_next_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        timed(&self.stats, Hook::PickNextTask, || {
            self.inner.pick_next_task(tasks, cpu, now)
        })
    }

    fn put_prev_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, tid: Tid, now: Time) {
        timed(&self.stats, Hook::PutPrevTask, || {
            self.inner.put_prev_task(tasks, cpu, tid, now)
        })
    }

    fn task_tick(&mut self, tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) -> Preempt {
        let r = timed(&self.stats, Hook::TaskTick, || {
            self.inner.task_tick(tasks, cpu, curr, now)
        });
        if r != Preempt::No {
            bump(&self.stats.tick_preempts, 1);
        }
        r
    }

    fn task_fork(&mut self, tasks: &TaskTable, child: Tid, parent: Option<Tid>, now: Time) {
        timed(&self.stats, Hook::TaskFork, || {
            self.inner.task_fork(tasks, child, parent, now)
        })
    }

    fn task_dead(&mut self, tasks: &TaskTable, tid: Tid, now: Time) {
        timed(&self.stats, Hook::TaskDead, || {
            self.inner.task_dead(tasks, tid, now)
        })
    }

    fn balance_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        targets: &mut Vec<CpuId>,
    ) {
        timed(&self.stats, Hook::BalanceTick, || {
            self.inner.balance_tick(tasks, cpu, now, targets)
        })
    }

    fn idle_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> bool {
        let pulled = timed(&self.stats, Hook::IdleBalance, || {
            self.inner.idle_balance(tasks, cpu, now, stats)
        });
        if pulled {
            bump(&self.stats.idle_pulled, 1);
        }
        pulled
    }

    fn nr_queued(&self, cpu: CpuId) -> usize {
        timed(&self.stats, Hook::NrQueued, || self.inner.nr_queued(cpu))
    }

    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>) {
        timed(&self.stats, Hook::QueuedTidsInto, || {
            self.inner.queued_tids_into(cpu, out)
        })
    }

    fn queued_tids(&self, cpu: CpuId) -> Vec<Tid> {
        timed(&self.stats, Hook::QueuedTidsInto, || {
            self.inner.queued_tids(cpu)
        })
    }

    fn snapshot(&self, tasks: &TaskTable, tid: Tid) -> TaskSnapshot {
        timed(&self.stats, Hook::Snapshot, || {
            self.inner.snapshot(tasks, tid)
        })
    }

    fn audit(&mut self, tasks: &TaskTable, cpu: CpuId, now: Time) -> Result<(), String> {
        timed(&self.stats, Hook::Audit, || {
            self.inner.audit(tasks, cpu, now)
        })
    }

    fn cpu_offline(&mut self, cpu: CpuId) {
        timed(&self.stats, Hook::CpuOffline, || {
            self.inner.cpu_offline(cpu)
        })
    }

    fn cpu_online(&mut self, cpu: CpuId) {
        timed(&self.stats, Hook::CpuOnline, || self.inner.cpu_online(cpu))
    }
}
