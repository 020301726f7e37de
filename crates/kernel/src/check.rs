//! SchedSan: the runtime invariant checker.
//!
//! With [`crate::CheckMode::Strict`] the kernel checks its scheduler after
//! every event, so the first event that corrupts the state it touched is
//! the one that reports it, not a mysterious crash a million events later.
//!
//! # Invariant catalog
//!
//! 1. **Task conservation**: every live task is in exactly one of the
//!    states {running on exactly one CPU, queued on exactly one runqueue,
//!    sleeping off all runqueues}; no task is lost or double-booked.
//! 2. **Runqueue-count consistency**: [`sched_api::Scheduler::nr_queued`]
//!    equals the tasks actually enumerated by
//!    [`sched_api::Scheduler::queued_tids_into`] plus the running task.
//! 3. **Affinity**: every queued or running task is on a CPU its hard
//!    affinity mask allows.
//! 4. **Hotplug**: an offline CPU runs nothing and queues nothing.
//! 5. **Bounded starvation**: no queued task has waited longer than
//!    [`crate::SimConfig::starvation_limit`] for a CPU.
//! 6. **Scheduler self-audit**: class-specific invariants via
//!    [`sched_api::Scheduler::audit`] (CFS vruntime monotonicity, ULE
//!    priority-range validity and runqueue occupancy bits, EEVDF lag
//!    conservation (Σ lag ≈ 0) and deadline ordering, scx policy/queue
//!    slot agreement, internal accounting).
//!
//! # What runs when
//!
//! **Per event, over the dirty set.** During an event the kernel marks
//! every CPU it hands to a [`sched_api::Scheduler`] hook and every task
//! whose `state` or `cpu` it writes. Scheduler-internal moves go through
//! [`sched_api::TaskTable::migrate`], which logs `(tid, src, dst)`. After
//! the event the checker drains that log, marks both ends of every move
//! and the home CPU (`Task::cpu`) of every marked task, and runs the
//! per-CPU catalog on the marked CPUs only: current and queued tasks
//! (items 1–5, starvation included, per queued task), `nr_queued`, and the
//! scheduler's `audit`. Conservation is exact per CPU and costs nothing
//! beyond the walk: the kernel keeps a count of Runnable + Running tasks
//! homed on each CPU, updated at its own `state`/`cpu` writes and at every
//! logged move, and a checked CPU must hold exactly that many distinct
//! tasks, each homed there. A task lost from a checked CPU, or a CPU the
//! scheduler emptied behind the kernel's back while handling it, is
//! reported at that event. The cost is O(touched state), independent of
//! the machine size and the task count.
//!
//! **Full sweep.** Every [`FULL_SWEEP_EVERY`] events, and when every
//! `try_run_until*` returns (before the clock moves to the limit, so it
//! sees the state the last event left), the per-CPU catalog runs on every
//! CPU and the home counts are recounted from the task table. This bounds
//! how long corruption of state no event touched can hide: a hook that
//! damages another CPU without migrating is reported within
//! [`FULL_SWEEP_EVERY`] events, at the latest when the step returns.
//!
//! **Starvation** is therefore detected at the first check of the
//! starving task's CPU after the limit passes: the next event that
//! touches that CPU (its tick, every `tick` of simulated time, is one)
//! or the next full sweep, whichever comes first.
//!
//! The checker allocates nothing in steady state: its scratch buffers live
//! in the kernel and are reused. When checking is off ([`crate::CheckMode::Off`],
//! the default) nothing is marked, no move is logged, and the per-event
//! cost is a single predicted-not-taken branch.

use sched_api::{TaskState, Tid};
use topology::{CpuId, CpuMask};

use crate::error::SimError;
use crate::kernel::Kernel;

/// Events between two full sweeps of the catalog in strict mode.
pub const FULL_SWEEP_EVERY: u64 = 256;

/// The checker's bookkeeping: what the current event touched, and the
/// per-CPU home counts that make conservation exact. Maintained only in
/// strict mode.
#[derive(Default)]
pub(crate) struct Dirty {
    /// CPUs handed to a scheduler hook during the current event.
    cpus: CpuMask,
    /// Tasks whose `state` or `cpu` the kernel wrote during the event.
    tids: Vec<Tid>,
    /// Runnable + Running tasks whose `Task::cpu` is each CPU.
    home: Vec<i64>,
    /// Per-task stamp of the last check pass that found it on a CPU.
    seen: Vec<u32>,
    /// Current check pass (the stamp `seen` is compared with).
    pass: u32,
    /// Scratch for queued tids and the sweep's recount.
    queued: Vec<Tid>,
    recount: Vec<i64>,
}

impl Dirty {
    pub(crate) fn new(ncpu: usize) -> Dirty {
        Dirty {
            home: vec![0; ncpu],
            recount: vec![0; ncpu],
            ..Dirty::default()
        }
    }
}

impl Kernel {
    /// Mark `cpu` as handed to a scheduler hook during this event.
    #[inline]
    pub(crate) fn touch(&mut self, cpu: CpuId) {
        if self.check_on {
            self.dirty.cpus.set(cpu);
        }
    }

    /// Write a task's lifecycle state. In strict mode the task is marked
    /// and its home CPU's count follows it into or out of Runnable/Running.
    #[inline]
    pub(crate) fn set_state(&mut self, tid: Tid, state: TaskState) {
        let t = self.tasks.get_mut(tid);
        let was = t.is_active();
        t.state = state;
        if self.check_on {
            let d = &mut self.dirty;
            d.home[t.cpu.index()] += i64::from(t.is_active()) - i64::from(was);
            d.tids.push(tid);
        }
    }

    /// Per-event check: the catalog over the dirty set, or a full sweep
    /// every [`FULL_SWEEP_EVERY`] events.
    pub(crate) fn check_event(&mut self) -> Result<(), SimError> {
        if self.counters.events.is_multiple_of(FULL_SWEEP_EVERY) {
            return self.check_sweep();
        }
        self.settle();
        let cpus = std::mem::take(&mut self.dirty.cpus);
        let mut queued = std::mem::take(&mut self.dirty.queued);
        let res = cpus
            .iter()
            .try_for_each(|cpu| self.check_cpu(cpu, &mut queued));
        self.dirty.queued = queued;
        res
    }

    /// The full catalog: every CPU, plus a recount of the home counts from
    /// the task table.
    pub(crate) fn check_sweep(&mut self) -> Result<(), SimError> {
        self.settle();
        self.dirty.cpus = CpuMask::empty();
        let mut queued = std::mem::take(&mut self.dirty.queued);
        let res =
            (0..self.cpus.len()).try_for_each(|i| self.check_cpu(CpuId(i as u32), &mut queued));
        self.dirty.queued = queued;
        res?;
        let mut recount = std::mem::take(&mut self.dirty.recount);
        recount.fill(0);
        for t in self.tasks.iter().filter(|t| t.is_active()) {
            recount[t.cpu.index()] += 1;
        }
        let drift = (0..recount.len()).find(|&i| recount[i] != self.dirty.home[i]);
        self.dirty.recount = recount;
        match drift {
            None => Ok(()),
            Some(i) => Err(self.invariant(format!(
                "cpu{i} home count is {} but {} Runnable/Running task(s) are homed there",
                self.dirty.home[i], self.dirty.recount[i]
            ))),
        }
    }

    /// Fold the event's scheduler-internal moves into the home counts and
    /// the dirty set, mark the home CPU of every task the kernel wrote, and
    /// open a new check pass.
    fn settle(&mut self) {
        let d = &mut self.dirty;
        for m in self.tasks.drain_migrations() {
            d.home[m.src.index()] -= 1;
            d.home[m.dst.index()] += 1;
            d.cpus.set(m.src);
            d.cpus.set(m.dst);
        }
        for tid in d.tids.drain(..) {
            if self.tasks.contains(tid) {
                d.cpus.set(self.tasks.get(tid).cpu);
            }
        }
        d.pass = d.pass.wrapping_add(1);
        if d.pass == 0 {
            d.seen.fill(0);
            d.pass = 1;
        }
        if d.seen.len() < self.tasks.slab_len() {
            d.seen.resize(self.tasks.slab_len(), 0);
        }
    }

    fn invariant(&self, detail: String) -> SimError {
        SimError::Invariant {
            at: self.now,
            detail,
        }
    }

    /// Stamp `tid` as found on a CPU in this pass; `false` if it already was.
    fn mark_seen(&mut self, tid: Tid) -> bool {
        let stamp = &mut self.dirty.seen[tid.index()];
        let fresh = *stamp != self.dirty.pass;
        *stamp = self.dirty.pass;
        fresh
    }

    /// The per-CPU catalog: current-task sanity, queued-task sanity and
    /// starvation, nr_queued agreement, exact conservation against the
    /// home count, and the scheduler self-audit.
    fn check_cpu(&mut self, cpu: CpuId, queued: &mut Vec<Tid>) -> Result<(), SimError> {
        let i = cpu.index();
        let online = self.cpus[i].online;
        let current = self.cpus[i].current;

        if let Some(tid) = current {
            if !online {
                return Err(self.invariant(format!("offline {cpu} is running {tid}")));
            }
            let t = self.tasks.get(tid);
            if t.state != TaskState::Running {
                return Err(
                    self.invariant(format!("{cpu} current {tid} is {:?}, not Running", t.state))
                );
            }
            if t.cpu != cpu {
                return Err(
                    self.invariant(format!("{cpu} current {tid} thinks it is on {}", t.cpu))
                );
            }
            if !t.allowed_on(cpu) {
                return Err(SimError::AffinityViolated {
                    tid,
                    cpu,
                    at: self.now,
                });
            }
            self.mark_seen(tid);
        }

        queued.clear();
        self.sched.queued_tids_into(cpu, queued);
        if !online && !queued.is_empty() {
            return Err(self.invariant(format!(
                "offline {cpu} still queues {} task(s)",
                queued.len()
            )));
        }
        let limit = self.cfg.starvation_limit;
        for &tid in queued.iter() {
            let t = self.tasks.get(tid);
            if t.state != TaskState::Runnable {
                return Err(self.invariant(format!(
                    "{cpu} queues {tid} in state {:?}, not Runnable",
                    t.state
                )));
            }
            if !t.on_rq {
                return Err(
                    self.invariant(format!("{cpu} queues {tid} but its on_rq flag is clear"))
                );
            }
            if t.cpu != cpu {
                return Err(self.invariant(format!(
                    "{cpu} queues {tid} but the task thinks it is on {}",
                    t.cpu
                )));
            }
            if !t.allowed_on(cpu) {
                return Err(SimError::AffinityViolated {
                    tid,
                    cpu,
                    at: self.now,
                });
            }
            let waited_since = t.last_ran.max(t.last_wakeup);
            let wait = self.now.saturating_since(waited_since);
            if wait > limit {
                return Err(self.invariant(format!(
                    "{tid} runnable-but-unscheduled for {wait} (limit {limit})"
                )));
            }
            if !self.mark_seen(tid) {
                return Err(self.invariant(format!("{tid} is queued twice on {cpu}")));
            }
        }

        let held = queued.len() + usize::from(current.is_some());
        let reported = self.sched.nr_queued(cpu);
        if reported != held {
            return Err(self.invariant(format!(
                "{cpu} nr_queued reports {reported} but {held} task(s) are accounted \
                     ({} queued + {} running)",
                queued.len(),
                usize::from(current.is_some())
            )));
        }
        if held as i64 != self.dirty.home[i] {
            return Err(self.conservation_error(cpu, held));
        }

        self.sched
            .audit(&self.tasks, cpu, self.now)
            .map_err(|detail| self.invariant(format!("{cpu} audit: {detail}")))?;
        Ok(())
    }

    /// Name what broke conservation on `cpu`, which holds `held` distinct
    /// tasks against a different home count. Runs only on failure, so it
    /// may scan the task table.
    fn conservation_error(&self, cpu: CpuId, held: usize) -> SimError {
        let missing = self.tasks.iter().find(|t| {
            t.cpu == cpu && t.is_active() && self.dirty.seen[t.tid.index()] != self.dirty.pass
        });
        match missing {
            Some(t) if t.state == TaskState::Running => {
                self.invariant(format!("{} is Running but no CPU is executing it", t.tid))
            }
            Some(t) => self.invariant(format!(
                "{} is Runnable but sits in no runqueue (lost task)",
                t.tid
            )),
            None => self.invariant(format!(
                "{cpu} holds {held} task(s) but {} Runnable/Running task(s) are homed there",
                self.dirty.home[cpu.index()]
            )),
        }
    }

    /// Render a human-readable crash bundle: the error, the run's identity
    /// (scheduler, seed, time), global counters, per-CPU scheduler state,
    /// the live task table, and the tail of the flight-recorder trace.
    /// Drivers write this next to a replay command when a
    /// [`SimError`] escapes the event loop.
    pub fn crash_report(&self, err: &SimError) -> String {
        use std::fmt::Write as _;
        let mut r = String::new();
        let _ = writeln!(r, "SchedSan crash report");
        let _ = writeln!(r, "=====================");
        let _ = writeln!(r, "error:     {err}");
        let _ = writeln!(r, "scheduler: {}", self.sched.name());
        let _ = writeln!(r, "seed:      {}", self.cfg.seed);
        let _ = writeln!(r, "sim time:  {}", self.now);
        let c = &self.counters;
        let _ = writeln!(
            r,
            "counters:  events={} ctx_switches={} preemptions={} wakeups={} migrations={} \
             spurious_wakes={} hotplug_events={} max_runnable_wait={}",
            c.events,
            c.ctx_switches,
            c.preemptions,
            c.wakeups,
            c.migrations,
            c.spurious_wakes,
            c.hotplug_events,
            c.max_runnable_wait
        );
        let _ = writeln!(r, "\nper-CPU state:");
        for i in 0..self.cpus.len() {
            let cpu = topology::CpuId(i as u32);
            let cs = &self.cpus[i];
            let queued = self.sched.queued_tids(cpu);
            let _ = writeln!(
                r,
                "  {cpu}: {} current={} nr_queued={} queued={:?}",
                if cs.online { "online" } else { "OFFLINE" },
                cs.current.map_or("-".into(), |t| t.to_string()),
                self.sched.nr_queued(cpu),
                queued
            );
        }
        let _ = writeln!(r, "\nlive tasks:");
        for t in self.tasks.iter() {
            if t.state == TaskState::Dead {
                continue;
            }
            let _ = writeln!(
                r,
                "  {} {:?} cpu={} last_cpu={} on_rq={} nice={} affinity={:?} name={}",
                t.tid, t.state, t.cpu, t.last_cpu, t.on_rq, t.nice, t.affinity, t.name
            );
        }
        if !self.trace.is_empty() {
            let _ = writeln!(
                r,
                "\ntrace tail ({} events, {} dropped):",
                self.trace.len(),
                self.trace.dropped()
            );
            for ev in self.trace.iter() {
                let _ = writeln!(r, "  {ev:?}");
            }
        }
        r
    }
}
