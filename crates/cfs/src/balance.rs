//! Hierarchical load balancing.
//!
//! §2.1: "Load balancing also happens periodically. Every 4ms every core
//! tries to steal work from other cores. This load balancing takes into
//! account the topology of the machine (...). When a core decides to steal
//! work from another core, it tries to even out the load between the two
//! cores by stealing as many as 32 threads. Cores also immediately call the
//! periodic load balancer when they become idle." Between NUMA nodes, "if
//! the load difference between the nodes is small (less than 25% in
//! practice), then no load balancing is performed."

use sched_api::{DequeueKind, EnqueueKind, Scheduler, SelectStats, TaskTable};
use simcore::Time;
use topology::{CpuId, CpuMask};

use crate::Cfs;

impl Cfs {
    /// Periodic balancing opportunity on `cpu`'s tick: walk its domains,
    /// balance each whose interval expired (if this CPU is the designated
    /// balancer of its group). Appends the destination CPU to `out` once
    /// per task migrated, so the kernel can reschedule it.
    pub(crate) fn periodic_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        out: &mut Vec<CpuId>,
    ) {
        for di in 0..self.domains[cpu.index()].len() {
            {
                let ds = &mut self.domains[cpu.index()][di];
                if now < ds.next_balance {
                    continue;
                }
                ds.next_balance = now + ds.interval;
            }
            if !self.should_we_balance(cpu, di) {
                continue;
            }
            let moved = self.load_balance(tasks, cpu, di, now);
            for _ in 0..moved {
                out.push(cpu);
            }
        }
    }

    /// Newidle balancing: the CPU just went idle and tries to pull work
    /// immediately, walking its domains from closest to farthest.
    pub(crate) fn newidle_balance(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CpuId,
        now: Time,
        stats: &mut SelectStats,
    ) -> bool {
        for di in 0..self.domains[cpu.index()].len() {
            // Linux does not set SD_BALANCE_NEWIDLE on NUMA domains: a
            // newly idle CPU only pulls from within its node; cross-node
            // imbalance is left to the (25%-tolerant) periodic balancer.
            if self.domains[cpu.index()][di].dom.level == topology::Level::Machine
                && self.topo.nr_nodes() > 1
            {
                break;
            }
            // Charge the *modeled* cost of the full-span scan (a real
            // kernel walks every rq); the host-side walk below only
            // touches active CPUs.
            stats.cpus_scanned += self.domains[cpu.index()][di].dom.span.count() as u32;
            if self.load_balance(tasks, cpu, di, now) > 0 {
                return true;
            }
        }
        false
    }

    /// Only one CPU per group balances a domain: the first idle CPU of the
    /// local group, or the group's first CPU if none is idle
    /// (`should_we_balance`).
    fn should_we_balance(&self, cpu: CpuId, di: usize) -> bool {
        let dom = &self.domains[cpu.index()][di].dom;
        let Some(local) = dom.groups.iter().find(|g| g.contains(cpu)) else {
            return false; // structurally impossible: cpu is in its own domain
        };
        // Offline CPUs neither balance nor count as idle candidates. This
        // scan must see idle CPUs, so it walks the whole (small, local)
        // group rather than the active mask.
        for c in local.iter() {
            if !self.cpus[c.index()].online {
                continue;
            }
            if self.cpus[c.index()].h_nr == 0 {
                return c == cpu;
            }
        }
        local.iter().find(|c| self.cpus[c.index()].online) == Some(cpu)
    }

    /// One balancing pass of domain `di` with `dst` as the pulling CPU.
    /// Returns the number of tasks migrated.
    ///
    /// The domain's group list is detached for the duration of the pass so
    /// the body can walk it while mutating per-CPU state; nothing below
    /// reads `dom.groups`, and it goes straight back, so the detour is
    /// invisible outside this function. (The alternative — cloning the
    /// nested group vectors on every pass — dominated the tick path.)
    fn load_balance(&mut self, tasks: &mut TaskTable, dst: CpuId, di: usize, now: Time) -> usize {
        let groups = std::mem::take(&mut self.domains[dst.index()][di].dom.groups);
        let moved = self.load_balance_groups(tasks, dst, di, now, &groups);
        self.domains[dst.index()][di].dom.groups = groups;
        moved
    }

    fn load_balance_groups(
        &mut self,
        tasks: &mut TaskTable,
        dst: CpuId,
        di: usize,
        now: Time,
        groups: &[CpuMask],
    ) -> usize {
        let (pct, nr_failed) = {
            let ds = &self.domains[dst.index()][di];
            (ds.imbalance_pct, ds.nr_failed)
        };
        // Bring every involved CPU's load average up to date and gather the
        // per-group statistics in the same sweep (each CPU's refresh only
        // affects its own load, so fusing the passes is exact). This runs
        // on the tick path, so it must not allocate.
        //
        // O(active), not O(cores): a CPU outside the active mask has
        // h_nr == 0, zero queued weight, and a fully decayed load average,
        // so refreshing it is a no-op and its contribution to every group
        // statistic is exactly (load 0, nr 0) — skipping it cannot change
        // any balancing decision. At 512 cores with a handful busy, the
        // sweep touches a handful of CPUs instead of all of them.
        let mut local_avg = 0u64;
        let mut busiest: Option<(usize, u64)> = None;
        for (i, g) in groups.iter().enumerate() {
            let mut load = 0u64;
            let mut nr = 0usize;
            for c in g.and(&self.active).iter() {
                self.refresh_load(c, now);
                load += self.cpu_load(c);
                nr += self.cpus[c.index()].h_nr;
            }
            let avg = load * 1024 / g.count() as u64;
            // Groups partition the domain span, so `dst` names the local
            // group exactly once; the rest compete for busiest.
            if g.contains(dst) {
                local_avg = avg;
            } else if nr > 0 {
                match busiest {
                    Some((_, b)) if avg <= b => {}
                    _ => busiest = Some((i, avg)),
                }
            }
        }
        let Some((bi, busiest_avg)) = busiest else {
            return 0;
        };
        // The imbalance threshold: e.g. 125 between NUMA nodes means the
        // busiest group must exceed the local group by 25 % to bother.
        if busiest_avg * 100 <= local_avg * pct {
            return 0;
        }
        // Busiest CPU inside the busiest group, preferring load then queue
        // length (a spinner-storm CPU wins both ways). Restricted to the
        // active mask: the winner carries runnable tasks (the group had
        // nr > 0), and every skipped CPU's key is exactly (0, 0), so it
        // can never be maximal — and `max_by_key` keeps the *last* maximum,
        // which skipped CPUs could only have reached by tying at (0, 0).
        let Some(src) = groups[bi]
            .and(&self.active)
            .iter()
            .max_by_key(|c| (self.cpu_load(*c), self.cpus[c.index()].h_nr))
        else {
            return 0;
        };
        if self.cpus[src.index()].h_nr <= 1 {
            self.domains[dst.index()][di].nr_failed += 1;
            return 0;
        }

        // Even out the pair: move up to half the load difference, capped at
        // 32 tasks per pass.
        let imbalance = self.cpu_load(src).saturating_sub(self.cpu_load(dst)) / 2;
        let mut moved = 0usize;
        let mut moved_load = 0u64;
        // Steal from the tail of the source rq (largest vruntime first);
        // the candidate list lives in a reused scratch buffer because this
        // runs on the tick path.
        let mut candidates = std::mem::take(&mut self.scratch_tids);
        candidates.clear();
        self.queued_tids_into(src, &mut candidates);
        candidates.reverse();
        for tid in candidates.drain(..) {
            if moved >= self.p.max_migrate || moved_load >= imbalance {
                break;
            }
            // Never more tasks than would invert the queue-length balance.
            if self.cpus[src.index()].h_nr <= self.cpus[dst.index()].h_nr + 1 {
                break;
            }
            let task = tasks.get(tid);
            if !task.allowed_on(dst) {
                continue;
            }
            // Cache-hot tasks resist migration until balancing has failed
            // repeatedly (`task_hot` + `cache_nice_tries`).
            let hot = now.saturating_since(task.last_ran) < self.p.migration_cost;
            if hot && nr_failed <= self.p.cache_nice_tries {
                continue;
            }
            let w_moved = self.tent(tid).ent.weight;
            self.dequeue_task(tasks, src, tid, DequeueKind::Migrate, now);
            tasks.migrate(tid, dst);
            self.enqueue_task(tasks, dst, tid, EnqueueKind::Migrate, now);
            moved += 1;
            moved_load += w_moved;
        }
        self.scratch_tids = candidates;
        let ds = &mut self.domains[dst.index()][di];
        if moved == 0 {
            ds.nr_failed += 1;
        } else {
            ds.nr_failed = 0;
        }
        moved
    }
}
