//! The task (thread) model and the task table.
//!
//! A [`Task`] carries only scheduler-*independent* state: identity, nice
//! value, cgroup, CPU placement, lifecycle state and generic accounting.
//! Scheduler-specific per-task state (vruntime for CFS, sleep/run history
//! for ULE) lives in side tables owned by the scheduler crates, mirroring
//! how Linux embeds `sched_entity` in `task_struct` per class.

use simcore::{Dur, Time};
use topology::{CpuId, CpuMask};

use crate::ids::{GroupId, Tid};

/// Lifecycle state of a task, as the kernel sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Created, not yet enqueued anywhere.
    New,
    /// On a runqueue, waiting for a CPU.
    Runnable,
    /// Currently executing on `Task::cpu`.
    Running,
    /// Voluntarily sleeping (timer, I/O, lock, condition, barrier, pipe).
    Sleeping,
    /// Exited; slot may be reused.
    Dead,
}

/// One thread.
#[derive(Debug, Clone)]
pub struct Task {
    /// Identity; stable for the lifetime of the task.
    pub tid: Tid,
    /// Debug name, e.g. `"fibo"` or `"sysbench-worker-17"`.
    pub name: String,
    /// Nice value in `[-20, 19]`; 0 for almost all paper workloads.
    pub nice: i32,
    /// The application (cgroup) this task belongs to. CFS arbitrates
    /// fairness between groups; ULE ignores this field.
    pub group: GroupId,
    /// Lifecycle state.
    pub state: TaskState,
    /// The CPU whose runqueue currently holds the task (or ran it last).
    pub cpu: CpuId,
    /// The CPU the task last actually executed on (for cache affinity).
    pub last_cpu: CpuId,
    /// Optional hard affinity mask; `None` means "any CPU". The Figure 6
    /// experiment pins 512 threads to core 0 and then clears the mask.
    /// A dense bitset so `allowed_on` is an O(1) word test on the dispatch
    /// path instead of a linear id scan.
    pub affinity: Option<CpuMask>,
    /// Parent task, if any (ULE's fork inheritance needs it).
    pub parent: Option<Tid>,
    /// Synthetic fork history `(runtime, sleeptime)` for tasks whose parent
    /// lives outside the simulation (e.g. a master thread forked from
    /// `bash`). Consulted by ULE's `task_fork` when `parent` is `None`.
    pub inherit_history: Option<(Dur, Dur)>,
    /// Total CPU time consumed so far.
    pub sum_exec: Dur,
    /// When the task last started/stopped being accounted on a CPU.
    pub last_ran: Time,
    /// When the task last went to sleep (for sleep-duration accounting).
    pub sleep_start: Time,
    /// When the task was last woken.
    pub last_wakeup: Time,
    /// Whether the scheduler currently holds this task in a runqueue
    /// (including "running with the rq-resident convention", see §3).
    pub on_rq: bool,
    /// Marks per-cpu kernel/idle-priority tasks; these are the only tasks
    /// allowed to preempt under ULE's "full preemption disabled" policy.
    pub kernel_thread: bool,
}

impl Task {
    /// A fresh task in the `New` state.
    pub fn new(tid: Tid, name: impl Into<String>, group: GroupId) -> Task {
        Task {
            tid,
            name: name.into(),
            nice: 0,
            group,
            state: TaskState::New,
            cpu: CpuId(0),
            last_cpu: CpuId(0),
            affinity: None,
            parent: None,
            inherit_history: None,
            sum_exec: Dur::ZERO,
            last_ran: Time::ZERO,
            sleep_start: Time::ZERO,
            last_wakeup: Time::ZERO,
            on_rq: false,
            kernel_thread: false,
        }
    }

    /// `true` if this task may run on `cpu` under its affinity mask.
    #[inline]
    pub fn allowed_on(&self, cpu: CpuId) -> bool {
        match &self.affinity {
            None => true,
            Some(mask) => mask.contains(cpu),
        }
    }

    /// The CPUs this task may run on, intersected with `online`. The
    /// placement fallback every scheduler shares: when the preferred pick
    /// is gone (hotplug, affinity), the lowest-id CPU in this mask is the
    /// deterministic last resort.
    #[inline]
    pub fn allowed_online(&self, online: &CpuMask) -> CpuMask {
        match &self.affinity {
            None => *online,
            Some(mask) => mask.and(online),
        }
    }

    /// `true` if the task is runnable or running.
    pub fn is_active(&self) -> bool {
        matches!(self.state, TaskState::Runnable | TaskState::Running)
    }
}

/// One scheduler-internal move recorded by [`TaskTable::migrate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// The task that moved.
    pub tid: Tid,
    /// Its `cpu` before the move.
    pub src: CpuId,
    /// Its `cpu` after the move.
    pub dst: CpuId,
}

/// Slab of tasks indexed by [`Tid`]. Slots of dead tasks are reused.
#[derive(Debug, Default)]
pub struct TaskTable {
    slots: Vec<Option<Task>>,
    free: Vec<u32>,
    live: usize,
    /// Moves made through [`TaskTable::migrate`] since the last
    /// [`TaskTable::drain_migrations`]; recorded only while
    /// `log_migrations` is set (the kernel's strict checking), so
    /// unchecked runs keep no log.
    migrations: Vec<Migration>,
    log_migrations: bool,
}

impl TaskTable {
    /// Empty table.
    pub fn new() -> TaskTable {
        TaskTable::default()
    }

    /// Allocate a slot and build the task with the assigned tid.
    pub fn insert_with(&mut self, f: impl FnOnce(Tid) -> Task) -> Tid {
        let tid = match self.free.pop() {
            Some(i) => Tid(i),
            None => {
                self.slots.push(None);
                Tid(self.slots.len() as u32 - 1)
            }
        };
        let task = f(tid);
        debug_assert_eq!(task.tid, tid, "task must carry the assigned tid");
        self.slots[tid.index()] = Some(task);
        self.live += 1;
        tid
    }

    /// Remove a task, freeing its slot for reuse.
    pub fn remove(&mut self, tid: Tid) -> Option<Task> {
        let t = self.slots.get_mut(tid.index())?.take();
        if t.is_some() {
            self.free.push(tid.0);
            self.live -= 1;
        }
        t
    }

    /// Shared access to a live task.
    #[inline]
    pub fn get(&self, tid: Tid) -> &Task {
        self.slots[tid.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("no such task: {tid}"))
    }

    /// Exclusive access to a live task.
    #[inline]
    pub fn get_mut(&mut self, tid: Tid) -> &mut Task {
        self.slots[tid.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("no such task: {tid}"))
    }

    /// `true` if `tid` names a live task.
    pub fn contains(&self, tid: Tid) -> bool {
        self.slots
            .get(tid.index())
            .map(|s| s.is_some())
            .unwrap_or(false)
    }

    /// Number of live tasks.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no live tasks.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate over live tasks.
    pub fn iter(&self) -> impl Iterator<Item = &Task> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Iterate mutably over live tasks.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Task> {
        self.slots.iter_mut().filter_map(|s| s.as_mut())
    }

    /// Capacity of the underlying slab (max tid ever + 1); useful for
    /// sizing scheduler side tables.
    pub fn slab_len(&self) -> usize {
        self.slots.len()
    }

    /// Move a queued task's home to `dst`: the one way a scheduler
    /// rehomes a task (load balancing, idle stealing). The caller has
    /// already taken it off the source runqueue and puts it on `dst`'s.
    /// With logging on, the move is recorded so the kernel's invariant
    /// checker audits both CPUs and keeps its per-CPU task counts exact.
    pub fn migrate(&mut self, tid: Tid, dst: CpuId) {
        let t = self.get_mut(tid);
        let src = std::mem::replace(&mut t.cpu, dst);
        if self.log_migrations {
            self.migrations.push(Migration { tid, src, dst });
        }
    }

    /// Turn recording of [`TaskTable::migrate`] moves on or off.
    pub fn set_migration_log(&mut self, on: bool) {
        self.log_migrations = on;
        self.migrations.clear();
    }

    /// Take the moves recorded since the last drain, oldest first, leaving
    /// the (reused) log empty.
    pub fn drain_migrations(&mut self) -> std::vec::Drain<'_, Migration> {
        self.migrations.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(table: &mut TaskTable, name: &str) -> Tid {
        table.insert_with(|tid| Task::new(tid, name, GroupId::ROOT))
    }

    #[test]
    fn insert_get_remove() {
        let mut t = TaskTable::new();
        let a = mk(&mut t, "a");
        let b = mk(&mut t, "b");
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).name, "a");
        assert_eq!(t.get(b).name, "b");
        assert!(t.remove(a).is_some());
        assert_eq!(t.len(), 1);
        assert!(!t.contains(a));
    }

    #[test]
    fn slots_are_reused() {
        let mut t = TaskTable::new();
        let a = mk(&mut t, "a");
        t.remove(a);
        let c = mk(&mut t, "c");
        assert_eq!(a, c, "slot should be recycled");
        assert_eq!(t.get(c).name, "c");
    }

    #[test]
    fn double_remove_is_none() {
        let mut t = TaskTable::new();
        let a = mk(&mut t, "a");
        assert!(t.remove(a).is_some());
        assert!(t.remove(a).is_none());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn affinity_mask() {
        let mut t = TaskTable::new();
        let a = mk(&mut t, "a");
        assert!(t.get(a).allowed_on(CpuId(5)));
        t.get_mut(a).affinity = Some(CpuMask::single(CpuId(0)));
        assert!(t.get(a).allowed_on(CpuId(0)));
        assert!(!t.get(a).allowed_on(CpuId(5)));
    }

    #[test]
    fn migrate_moves_and_logs_only_when_asked() {
        let mut t = TaskTable::new();
        let a = mk(&mut t, "a");
        t.migrate(a, CpuId(3));
        assert_eq!(t.get(a).cpu, CpuId(3));
        assert_eq!(t.drain_migrations().count(), 0, "logging is off by default");
        t.set_migration_log(true);
        t.migrate(a, CpuId(1));
        let log: Vec<_> = t.drain_migrations().collect();
        assert_eq!(
            log,
            vec![Migration {
                tid: a,
                src: CpuId(3),
                dst: CpuId(1)
            }]
        );
        assert_eq!(t.drain_migrations().count(), 0, "drained");
    }

    #[test]
    fn iter_sees_only_live() {
        let mut t = TaskTable::new();
        let a = mk(&mut t, "a");
        let _b = mk(&mut t, "b");
        t.remove(a);
        let names: Vec<_> = t.iter().map(|x| x.name.clone()).collect();
        assert_eq!(names, vec!["b"]);
    }
}
