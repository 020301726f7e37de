//! A deliberately simple round-robin scheduling class.
//!
//! This is *not* one of the paper's schedulers. It exists to (a) test the
//! kernel's event machinery independently of CFS/ULE, and (b) demonstrate
//! how to implement a custom scheduling class against the Table 1 trait
//! (see `examples/custom_scheduler.rs`).
//!
//! Policy: per-CPU FIFO runqueues, fixed 10 ms timeslices, least-loaded
//! placement, single-task idle stealing, no periodic balancing.

use std::collections::VecDeque;

use sched_api::{
    DequeueKind, EnqueueKind, Preempt, PreemptCause, Scheduler, SelectError, SelectStats,
    TaskSnapshot, TaskTable, Tid, WakeKind,
};
use simcore::{Dur, Time};
use topology::{CpuId, Topology};

/// Fixed round-robin timeslice.
const SLICE: Dur = Dur::millis(10);

#[derive(Debug)]
struct Rq {
    queue: VecDeque<Tid>,
    curr: Option<Tid>,
    slice_start: Time,
    /// `false` while the CPU is hotplugged out.
    online: bool,
}

impl Default for Rq {
    fn default() -> Rq {
        Rq {
            queue: VecDeque::new(),
            curr: None,
            slice_start: Time::ZERO,
            online: true,
        }
    }
}

/// Round-robin scheduler; see module docs.
pub struct SimpleRR {
    rqs: Vec<Rq>,
}

impl SimpleRR {
    /// One runqueue per CPU of `topo`.
    pub fn new(topo: &Topology) -> SimpleRR {
        SimpleRR {
            rqs: (0..topo.nr_cpus()).map(|_| Rq::default()).collect(),
        }
    }

    fn rq(&mut self, cpu: CpuId) -> &mut Rq {
        &mut self.rqs[cpu.index()]
    }
}

impl Scheduler for SimpleRR {
    fn name(&self) -> &'static str {
        "simple-rr"
    }

    fn select_task_rq(
        &mut self,
        tasks: &TaskTable,
        tid: Tid,
        _kind: WakeKind,
        _waking_cpu: CpuId,
        _now: Time,
        stats: &mut SelectStats,
    ) -> Result<CpuId, SelectError> {
        let task = tasks.get(tid);
        let mut best = None;
        for (i, rq) in self.rqs.iter().enumerate() {
            let cpu = CpuId(i as u32);
            if !rq.online || !task.allowed_on(cpu) {
                continue;
            }
            stats.cpus_scanned += 1;
            let load = rq.queue.len() + usize::from(rq.curr.is_some());
            match best {
                None => best = Some((cpu, load)),
                Some((_, b)) if load < b => best = Some((cpu, load)),
                _ => {}
            }
        }
        best.map(|(c, _)| c).ok_or(SelectError { tid })
    }

    fn enqueue_task(
        &mut self,
        _tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        _kind: EnqueueKind,
        _now: Time,
    ) -> Preempt {
        self.rq(cpu).queue.push_back(tid);
        Preempt::No
    }

    fn dequeue_task(
        &mut self,
        _tasks: &mut TaskTable,
        cpu: CpuId,
        tid: Tid,
        _kind: DequeueKind,
        _now: Time,
    ) {
        let rq = self.rq(cpu);
        if rq.curr == Some(tid) {
            rq.curr = None;
        } else if let Some(i) = rq.queue.iter().position(|&t| t == tid) {
            rq.queue.remove(i);
        }
    }

    fn yield_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, _now: Time) {
        let rq = self.rq(cpu);
        if let Some(curr) = rq.curr.take() {
            rq.queue.push_back(curr);
        }
    }

    fn pick_next_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, now: Time) -> Option<Tid> {
        let rq = self.rq(cpu);
        debug_assert!(rq.curr.is_none(), "pick with a current task");
        let next = rq.queue.pop_front()?;
        rq.curr = Some(next);
        rq.slice_start = now;
        Some(next)
    }

    fn put_prev_task(&mut self, _tasks: &mut TaskTable, cpu: CpuId, tid: Tid, _now: Time) {
        let rq = self.rq(cpu);
        debug_assert_eq!(rq.curr, Some(tid));
        rq.curr = None;
        rq.queue.push_back(tid);
    }

    fn task_tick(&mut self, _tasks: &mut TaskTable, cpu: CpuId, curr: Tid, now: Time) -> Preempt {
        let rq = self.rq(cpu);
        debug_assert_eq!(rq.curr, Some(curr));
        if !rq.queue.is_empty() && now.saturating_since(rq.slice_start) >= SLICE {
            Preempt::Yes(PreemptCause::SliceExpired)
        } else {
            Preempt::No
        }
    }

    fn task_fork(&mut self, _tasks: &TaskTable, _child: Tid, _parent: Option<Tid>, _now: Time) {}

    fn task_dead(&mut self, _tasks: &TaskTable, _tid: Tid, _now: Time) {}

    fn balance_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        targets: &mut Vec<CpuId>,
    ) {
        // An idle CPU re-attempts a steal on every tick, so work unpinned
        // after the CPU went idle is still picked up.
        if self.nr_queued(cpu) == 0 {
            let mut stats = SelectStats::default();
            if self.idle_balance(tasks, cpu, now, &mut stats) {
                targets.push(cpu);
            }
        }
    }

    fn idle_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        _now: Time,
        stats: &mut SelectStats,
    ) -> bool {
        // Steal one waiting task from the most loaded CPU.
        let mut busiest: Option<(usize, usize)> = None;
        for (i, rq) in self.rqs.iter().enumerate() {
            stats.cpus_scanned += 1;
            if i == cpu.index() || !rq.online {
                continue;
            }
            if rq.queue.is_empty() {
                continue;
            }
            match busiest {
                None => busiest = Some((i, rq.queue.len())),
                Some((_, b)) if rq.queue.len() > b => busiest = Some((i, rq.queue.len())),
                _ => {}
            }
        }
        let Some((victim, _)) = busiest else {
            return false;
        };
        let pos = self.rqs[victim]
            .queue
            .iter()
            .position(|&t| tasks.get(t).allowed_on(cpu));
        let Some(pos) = pos else { return false };
        let tid = self.rqs[victim].queue.remove(pos).expect("present");
        tasks.migrate(tid, cpu);
        self.rq(cpu).queue.push_back(tid);
        true
    }

    fn nr_queued(&self, cpu: CpuId) -> usize {
        let rq = &self.rqs[cpu.index()];
        rq.queue.len() + usize::from(rq.curr.is_some())
    }

    fn queued_tids_into(&self, cpu: CpuId, out: &mut Vec<Tid>) {
        out.extend(self.rqs[cpu.index()].queue.iter().copied());
    }

    fn snapshot(&self, _tasks: &TaskTable, _tid: Tid) -> TaskSnapshot {
        TaskSnapshot::default()
    }

    fn audit(&mut self, tasks: &TaskTable, cpu: CpuId, _now: Time) -> Result<(), String> {
        let rq = &self.rqs[cpu.index()];
        for (i, &t) in rq.queue.iter().enumerate() {
            if rq.curr == Some(t) {
                return Err(format!("{t} is both current and queued"));
            }
            if rq.queue.iter().skip(i + 1).any(|&u| u == t) {
                return Err(format!("{t} queued twice"));
            }
            if !tasks.contains(t) {
                return Err(format!("queued {t} does not exist"));
            }
        }
        Ok(())
    }

    fn cpu_offline(&mut self, cpu: CpuId) {
        self.rq(cpu).online = false;
    }

    fn cpu_online(&mut self, cpu: CpuId) {
        self.rq(cpu).online = true;
    }
}
