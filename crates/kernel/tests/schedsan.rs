//! SchedSan end-to-end: a buggy scheduler is caught by the invariant
//! checker at the event that corrupts state, surfaces as a `SimError`
//! (no panic), and yields an actionable crash report. Also pins down the
//! bounded-starvation check and clean strict-mode runs under hotplug.

use std::cell::Cell;
use std::rc::Rc;

use kernel::check::FULL_SWEEP_EVERY;
use kernel::{
    cpu_hog, AppSpec, CheckMode, FaultPlan, Kernel, RunBudget, SimConfig, SimError, ThreadSpec,
};
use sched_api::scx::{FifoPolicy, ScxCtx, ScxPolicy, ScxSched};
use sched_api::{
    DequeueKind, EnqueueKind, Preempt, PreemptCause, Scheduler, SelectError, SelectStats,
    TaskSnapshot, TaskTable, Tid, WakeKind,
};
use simcore::{Dur, Time};
use topology::{CpuId, CpuMask, Topology};

/// A single-queue FIFO that silently *drops* the Nth enqueue: the task
/// stays Runnable in the kernel's eyes but sits in no runqueue — the
/// classic lost-task bug SchedSan's conservation sweep exists to catch.
struct LossySched {
    queue: Vec<Tid>,
    curr: Option<Tid>,
    enqueues: u32,
    drop_nth: u32,
}

impl LossySched {
    fn new(drop_nth: u32) -> LossySched {
        LossySched {
            queue: Vec::new(),
            curr: None,
            enqueues: 0,
            drop_nth,
        }
    }
}

impl Scheduler for LossySched {
    fn name(&self) -> &'static str {
        "lossy"
    }
    fn select_task_rq(
        &mut self,
        _tasks: &TaskTable,
        _tid: Tid,
        _kind: WakeKind,
        _waking_cpu: CpuId,
        _now: Time,
        _stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        Ok(CpuId(0))
    }
    fn enqueue_task(
        &mut self,
        _tasks: &mut TaskTable,
        _cpu: CpuId,
        tid: Tid,
        _kind: EnqueueKind,
        _now: Time,
    ) -> Preempt {
        self.enqueues += 1;
        if self.enqueues != self.drop_nth {
            self.queue.push(tid);
        }
        Preempt::No
    }
    fn dequeue_task(
        &mut self,
        _tasks: &mut TaskTable,
        _cpu: CpuId,
        tid: Tid,
        _kind: DequeueKind,
        _now: Time,
    ) {
        if self.curr == Some(tid) {
            self.curr = None;
        } else {
            self.queue.retain(|&t| t != tid);
        }
    }
    fn yield_task(&mut self, _tasks: &mut TaskTable, _cpu: CpuId, _now: Time) {
        if let Some(c) = self.curr.take() {
            self.queue.push(c);
        }
    }
    fn pick_next_task(&mut self, _tasks: &mut TaskTable, _cpu: CpuId, _now: Time) -> Option<Tid> {
        if self.queue.is_empty() {
            return None;
        }
        let next = self.queue.remove(0);
        self.curr = Some(next);
        Some(next)
    }
    fn put_prev_task(&mut self, _tasks: &mut TaskTable, _cpu: CpuId, tid: Tid, _now: Time) {
        self.curr = None;
        self.queue.push(tid);
    }
    fn task_tick(
        &mut self,
        _tasks: &mut TaskTable,
        _cpu: CpuId,
        _curr: Tid,
        _now: Time,
    ) -> Preempt {
        if self.queue.is_empty() {
            Preempt::No
        } else {
            Preempt::Yes(PreemptCause::SliceExpired)
        }
    }
    fn task_fork(&mut self, _tasks: &TaskTable, _child: Tid, _parent: Option<Tid>, _now: Time) {}
    fn task_dead(&mut self, _tasks: &TaskTable, _tid: Tid, _now: Time) {}
    fn balance_tick(
        &mut self,
        _tasks: &mut TaskTable,
        _cpu: CpuId,
        _now: Time,
        _targets: &mut Vec<CpuId>,
    ) {
    }
    fn idle_balance(
        &mut self,
        _tasks: &mut TaskTable,
        _cpu: CpuId,
        _now: Time,
        _stats: &mut SelectStats,
    ) -> bool {
        false
    }
    fn nr_queued(&self, _cpu: CpuId) -> usize {
        self.queue.len() + usize::from(self.curr.is_some())
    }
    fn queued_tids_into(&self, _cpu: CpuId, out: &mut Vec<Tid>) {
        out.extend(self.queue.iter().copied());
    }
    fn snapshot(&self, _tasks: &TaskTable, _tid: Tid) -> TaskSnapshot {
        TaskSnapshot::default()
    }
}

fn strict_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::with_seed(seed);
    cfg.check = CheckMode::Strict;
    cfg.trace_capacity = 64;
    cfg
}

fn sleepy_app(n: usize) -> AppSpec {
    AppSpec::new(
        "sleepy",
        (0..n)
            .map(|i| {
                let mut run = true;
                ThreadSpec::new(
                    format!("t{i}"),
                    kernel::from_fn(move |_ctx| {
                        // Alternate run/sleep forever: the wakeup enqueue
                        // traffic is what trips the lossy scheduler.
                        run = !run;
                        if run {
                            kernel::Action::Run(Dur::micros(500))
                        } else {
                            kernel::Action::Sleep(Dur::micros(800))
                        }
                    }),
                )
            })
            .collect(),
    )
}

/// The lost task is reported as a structured error, not a panic, and the
/// crash report carries everything a bug report needs.
#[test]
fn lost_task_is_caught_with_crash_report() {
    let topo = Topology::single_core();
    // Drop the 20th enqueue: the run has real history by then, so the
    // crash report's trace tail has content.
    let mut k = Kernel::new(topo, strict_cfg(99), Box::new(LossySched::new(20)));
    k.queue_app(Time::ZERO, sleepy_app(4));
    let err = k
        .try_run_until(Time::ZERO + Dur::secs(1))
        .expect_err("SchedSan must catch the dropped enqueue");
    let msg = err.to_string();
    assert!(
        msg.contains("lost task") || msg.contains("runqueue"),
        "unexpected error: {msg}"
    );

    let report = k.crash_report(&err);
    assert!(report.contains("SchedSan crash report"));
    assert!(report.contains(&msg), "report repeats the error");
    assert!(report.contains("scheduler: lossy"));
    assert!(report.contains("seed:      99"), "seed is the replay key");
    assert!(report.contains("per-CPU state:"));
    assert!(report.contains("live tasks:"));
    assert!(report.contains("trace tail"), "flight recorder included");
}

/// Without strict mode the same bug silently degrades instead of erroring:
/// SchedSan's job is detection, the kernel itself stays permissive.
#[test]
fn checks_off_means_no_error() {
    let topo = Topology::single_core();
    let mut cfg = strict_cfg(99);
    cfg.check = CheckMode::Off;
    let mut k = Kernel::new(topo, cfg, Box::new(LossySched::new(20)));
    k.queue_app(Time::ZERO, sleepy_app(4));
    assert!(k.try_run_until(Time::ZERO + Dur::secs(1)).is_ok());
}

/// Bounded starvation: a scheduler that keeps a runnable task queued
/// forever trips the starvation check once the configured limit passes.
#[test]
fn starvation_limit_is_enforced() {
    // LossySched with drop_nth = 0 never drops, but its FIFO + the
    // always-preempt tick gives round-robin; to starve, pin the limit
    // below the natural wait of the last of many tasks on one core.
    let topo = Topology::single_core();
    let mut cfg = strict_cfg(7);
    cfg.starvation_limit = Dur::micros(50);
    let mut k = Kernel::new(topo, cfg, Box::new(LossySched::new(0)));
    k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hogs",
            (0..8)
                .map(|i| ThreadSpec::new(format!("h{i}"), cpu_hog(Dur::secs(2), Dur::millis(5))))
                .collect(),
        ),
    );
    let err = k
        .try_run_until(Time::ZERO + Dur::secs(1))
        .expect_err("an 8-deep queue cannot meet a 50us latency bound");
    assert!(
        matches!(&err, SimError::Invariant { detail, .. } if detail.contains("runnable-but-unscheduled")),
        "unexpected error: {err}"
    );
}

/// Clean strict-mode run under the full fault storm (spurious wakes,
/// jitter, hotplug) for the reference scheduler: faults must perturb, not
/// corrupt.
#[test]
fn reference_scheduler_clean_under_fault_storm() {
    let topo = Topology::flat(4);
    let mut cfg = strict_cfg(21);
    cfg.faults = FaultPlan {
        spurious_wake_period: Some(Dur::micros(300)),
        tick_jitter: Dur::micros(200),
        missed_tick_pct: 15,
        hotplug_period: Some(Dur::millis(3)),
        hotplug_down: Dur::millis(1),
    };
    let sched = Box::new(kernel::SimpleRR::new(&topo));
    let mut k = Kernel::new(topo, cfg, sched);
    let mut threads: Vec<ThreadSpec> = (0..6)
        .map(|i| ThreadSpec::new(format!("w{i}"), cpu_hog(Dur::millis(40), Dur::millis(1))))
        .collect();
    // Sleepers give the spurious-wake injector targets.
    threads.extend((0..3).map(|i| {
        let mut left = 60u32;
        let mut run = true;
        ThreadSpec::new(
            format!("s{i}"),
            kernel::from_fn(move |_ctx| {
                run = !run;
                if run {
                    kernel::Action::Run(Dur::micros(200))
                } else {
                    if left == 0 {
                        return kernel::Action::Exit;
                    }
                    left -= 1;
                    kernel::Action::Sleep(Dur::micros(900))
                }
            }),
        )
    }));
    k.queue_app(Time::ZERO, AppSpec::new("mix", threads));
    let done = k
        .try_run_until_apps_done(Time::ZERO + Dur::secs(10))
        .expect("faults must never corrupt scheduler state");
    assert!(done, "workload finishes despite hotplug");
    assert!(k.counters().hotplug_events > 0, "hotplug fired");
    assert!(k.counters().spurious_wakes > 0, "spurious wakes fired");
}

/// How a [`Saboteur`] corrupts its inner [`SimpleRR`] once its trigger
/// has fired `nth` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sabotage {
    /// On a `balance_tick`, dequeue the last task queued on the ticking
    /// CPU: a task the kernel never touched this event disappears, and the
    /// scheduler's own `nr_queued` agrees with the loss.
    DropFromTicker,
    /// On an enqueue onto CPU 0, dequeue the last task queued on CPU 1,
    /// which no hook of the event is handed.
    DropFromOther,
    /// On a `balance_tick` of CPU 2, move the last task queued on CPU 1 to
    /// CPU 0 through `TaskTable::migrate`, ignoring its affinity.
    MigrateOutsideAffinity,
}

/// When and to which task a [`Saboteur`] struck, shared with the test.
type Strike = Rc<Cell<Option<(Time, Tid)>>>;

/// [`SimpleRR`] with one deliberate bug, recording its strike.
struct Saboteur {
    inner: kernel::SimpleRR,
    how: Sabotage,
    nth: u32,
    struck: Strike,
}

impl Saboteur {
    fn boxed(topo: &Topology, how: Sabotage, nth: u32) -> (Box<Saboteur>, Strike) {
        let struck = Rc::new(Cell::new(None));
        let s = Saboteur {
            inner: kernel::SimpleRR::new(topo),
            how,
            nth,
            struck: Rc::clone(&struck),
        };
        (Box::new(s), struck)
    }

    /// Count a trigger that finds a victim on `victim_cpu`; on the `nth`
    /// one, record the strike and return the victim.
    fn fire(&mut self, now: Time, victim_cpu: CpuId) -> Option<Tid> {
        if self.struck.get().is_some() {
            return None;
        }
        let tid = *self.inner.queued_tids(victim_cpu).last()?;
        self.nth -= 1;
        if self.nth > 0 {
            return None;
        }
        self.struck.set(Some((now, tid)));
        Some(tid)
    }
}

impl Scheduler for Saboteur {
    fn name(&self) -> &'static str {
        "saboteur"
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
        self.inner
            .select_task_rq(tasks, tid, kind, waking_cpu, now, stats)
    }
    fn enqueue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: EnqueueKind,
        now: Time,
    ) -> Preempt {
        let p = self.inner.enqueue_task(tasks, cpu, tid, kind, now);
        if self.how == Sabotage::DropFromOther && cpu == CpuId(0) {
            if let Some(victim) = self.fire(now, CpuId(1)) {
                self.inner
                    .dequeue_task(tasks, CpuId(1), victim, DequeueKind::Migrate, now);
            }
        }
        p
    }
    fn dequeue_task(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        kind: DequeueKind,
        now: Time,
    ) {
        self.inner.dequeue_task(tasks, cpu, tid, kind, now);
    }
    fn yield_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) {
        self.inner.yield_task(tasks, cpu, now);
    }
    fn pick_next_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        self.inner.pick_next_task(tasks, cpu, now)
    }
    fn put_prev_task(&mut self, tasks: &mut TaskTable, cpu: CpuId, tid: Tid, now: Time) {
        self.inner.put_prev_task(tasks, cpu, tid, now);
    }
    fn task_tick(&mut self, tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) -> Preempt {
        self.inner.task_tick(tasks, cpu, curr, now)
    }
    fn task_fork(&mut self, tasks: &TaskTable, child: Tid, parent: Option<Tid>, now: Time) {
        self.inner.task_fork(tasks, child, parent, now);
    }
    fn task_dead(&mut self, tasks: &TaskTable, tid: Tid, now: Time) {
        self.inner.task_dead(tasks, tid, now);
    }
    fn balance_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        targets: &mut Vec<CpuId>,
    ) {
        self.inner.balance_tick(tasks, cpu, now, targets);
        match self.how {
            Sabotage::DropFromTicker => {
                if let Some(victim) = self.fire(now, cpu) {
                    self.inner
                        .dequeue_task(tasks, cpu, victim, DequeueKind::Migrate, now);
                }
            }
            Sabotage::MigrateOutsideAffinity if cpu == CpuId(2) => {
                if let Some(victim) = self.fire(now, CpuId(1)) {
                    self.inner
                        .dequeue_task(tasks, CpuId(1), victim, DequeueKind::Migrate, now);
                    tasks.migrate(victim, CpuId(0));
                    self.inner
                        .enqueue_task(tasks, CpuId(0), victim, EnqueueKind::Migrate, now);
                }
            }
            _ => {}
        }
    }
    fn idle_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> bool {
        self.inner.idle_balance(tasks, cpu, now, stats)
    }
    fn nr_queued(&self, cpu: CpuId) -> usize {
        self.inner.nr_queued(cpu)
    }
    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>) {
        self.inner.queued_tids_into(cpu, out);
    }
    fn snapshot(&self, tasks: &TaskTable, tid: Tid) -> TaskSnapshot {
        self.inner.snapshot(tasks, tid)
    }
}

/// `n` threads pinned to `cpu` that each run `run` once and exit.
fn pinned_runners(name: &str, n: usize, cpu: u32, run: Dur) -> AppSpec {
    AppSpec::new(
        name,
        (0..n)
            .map(|i| {
                ThreadSpec::new(
                    format!("{name}{i}"),
                    Box::new(kernel::Script::new(vec![kernel::Action::Run(run)])),
                )
                .pinned(vec![CpuId(cpu)])
            })
            .collect(),
    )
}

fn lost(tid: Tid) -> String {
    format!("{tid} is Runnable but sits in no runqueue (lost task)")
}

/// A task dropped from the ticking CPU's queue, which the kernel did not
/// touch during the event and whose loss the scheduler's own `nr_queued`
/// hides, is reported at that very event: the kernel's count of tasks
/// homed on the CPU no longer matches what the CPU holds.
#[test]
fn untouched_task_dropped_by_balance_tick_is_caught_at_that_event() {
    let topo = Topology::flat(2);
    let (sched, struck) = Saboteur::boxed(&topo, Sabotage::DropFromTicker, 5);
    let mut k = Kernel::new(topo, strict_cfg(3), sched);
    k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hogs",
            (0..6)
                .map(|i| ThreadSpec::new(format!("h{i}"), cpu_hog(Dur::secs(1), Dur::millis(3))))
                .collect(),
        ),
    );
    let err = k
        .try_run_until(Time::ZERO + Dur::secs(1))
        .expect_err("the dropped task must be reported");
    let (when, victim) = struck.get().expect("the sabotage fired");
    match &err {
        SimError::Invariant { at, detail } => {
            assert_eq!(*at, when, "reported at the event that dropped it: {err}");
            assert_eq!(*detail, lost(victim));
        }
        other => panic!("unexpected error: {other}"),
    }
}

/// Corruption of a CPU no hook of the event was handed escapes the
/// per-event check, and the periodic full sweep reports it within
/// `FULL_SWEEP_EVERY` events. A long tick keeps CPU 1 untouched: its
/// tasks run one long segment each while CPU 0's sleepers make the events.
#[test]
fn corruption_of_an_untouched_cpu_is_caught_within_a_sweep_period() {
    let run = |cfg: SimConfig| {
        let topo = Topology::flat(2);
        let (sched, struck) = Saboteur::boxed(&topo, Sabotage::DropFromOther, 20);
        let mut cfg = cfg;
        cfg.tick = Dur::secs(5);
        let mut k = Kernel::new(topo, cfg, sched);
        k.queue_app(Time::ZERO, pinned_runners("hog", 2, 1, Dur::secs(2)));
        let mut sleepers = sleepy_app(2);
        for t in &mut sleepers.threads {
            t.affinity = Some(CpuMask::single(CpuId(0)));
        }
        k.queue_app(Time::ZERO, sleepers);
        let res = k.try_run_until(Time::ZERO + Dur::secs(1));
        (res, k.counters().events, struck.get())
    };

    let (res, reported_at, struck) = run(strict_cfg(5));
    let (_, victim) = struck.expect("the sabotage fired");
    match res {
        Err(SimError::Invariant { detail, .. }) => assert_eq!(detail, lost(victim)),
        other => panic!("expected the lost task to be reported, got {other:?}"),
    }
    assert_eq!(
        reported_at % FULL_SWEEP_EVERY,
        0,
        "a periodic sweep caught it"
    );

    // Replays (checks off, same decisions) cut by an event budget locate
    // the corrupting event: after it, before the report, and at most one
    // sweep period earlier.
    let replay = |events: u64| {
        let mut cfg = SimConfig::with_seed(5);
        cfg.budget = RunBudget {
            max_events: Some(events),
            ..RunBudget::default()
        };
        let (res, _, struck) = run(cfg);
        assert!(
            matches!(res, Err(SimError::BudgetExceeded { .. })),
            "{res:?}"
        );
        struck
    };
    assert!(
        replay(reported_at - 1).is_some(),
        "corrupted before the report"
    );
    assert!(
        replay(reported_at - FULL_SWEEP_EVERY).is_none(),
        "corrupted less than FULL_SWEEP_EVERY events before the report"
    );
}

/// A `TaskTable::migrate` onto a CPU outside the task's affinity is
/// reported at that event, although the hook that made it (CPU 2's
/// balance tick) was handed neither end of the move: the migration log
/// marks both.
#[test]
fn migration_outside_affinity_is_caught_at_that_event() {
    let topo = Topology::flat(3);
    let (sched, struck) = Saboteur::boxed(&topo, Sabotage::MigrateOutsideAffinity, 3);
    let mut k = Kernel::new(topo, strict_cfg(11), sched);
    k.queue_app(Time::ZERO, pinned_runners("hog", 2, 1, Dur::secs(1)));
    let err = k
        .try_run_until(Time::ZERO + Dur::secs(1))
        .expect_err("the misplaced task must be reported");
    let (when, victim) = struck.get().expect("the sabotage fired");
    match err {
        SimError::AffinityViolated { tid, cpu, at } => {
            assert_eq!((tid, cpu), (victim, CpuId(0)));
            assert_eq!(at, when, "reported at the event that migrated it");
        }
        other => panic!("unexpected error: {other}"),
    }
}

/// An scx policy that picks a CPU outside the task's affinity once, on
/// its `nth` placement, recording when.
struct BadPickOnce {
    nth: u32,
    at: Rc<Cell<Option<Time>>>,
}

impl ScxPolicy for BadPickOnce {
    fn name(&self) -> &'static str {
        "bad-pick-once"
    }
    fn select_cpu(
        &mut self,
        ctx: &ScxCtx<'_>,
        tid: Tid,
        prev_cpu: CpuId,
        stats: &mut SelectStats,
    ) -> CpuId {
        self.nth = self.nth.saturating_sub(1);
        if self.nth == 0 && self.at.get().is_none() {
            self.at.set(Some(ctx.now));
            return CpuId(1);
        }
        FifoPolicy.select_cpu(ctx, tid, prev_cpu, stats)
    }
    fn enqueue(&mut self, ctx: &ScxCtx<'_>, tid: Tid, kind: EnqueueKind) -> u64 {
        FifoPolicy.enqueue(ctx, tid, kind)
    }
}

/// `ScxSched` latches a bad policy pick for its audit; whichever CPU's
/// audit runs first in the event takes the latch, so the pick is still
/// reported at the event that made it.
#[test]
fn scx_bad_pick_is_reported_at_the_event_that_made_it() {
    let topo = Topology::flat(2);
    let at = Rc::new(Cell::new(None));
    let policy = BadPickOnce {
        nth: 12,
        at: Rc::clone(&at),
    };
    let sched = Box::new(ScxSched::new(policy, topo.nr_cpus()));
    let mut k = Kernel::new(topo, strict_cfg(2), sched);
    let mut sleepers = sleepy_app(2);
    for t in &mut sleepers.threads {
        t.affinity = Some(CpuMask::single(CpuId(0)));
    }
    k.queue_app(Time::ZERO, sleepers);
    let err = k
        .try_run_until(Time::ZERO + Dur::secs(1))
        .expect_err("the bad pick must be reported");
    match err {
        SimError::Invariant { at: when, detail } => {
            assert_eq!(Some(when), at.get(), "reported at the event of the pick");
            assert!(detail.contains("policy picked"), "{detail}");
        }
        other => panic!("unexpected error: {other}"),
    }
}
