//! Workspace-level integration tests: the paper's headline qualitative
//! results, exercised on a kernel from the scheduler registry
//! (`experiments::make_kernel`) with scaled-down workloads (the full-size
//! regenerations live in the `battle` binary).

use experiments::make_kernel;
use kernel::{cpu_hog, AppSpec, CheckMode, Kernel, ThreadSpec};
use scenario::Sched;
use simcore::{Dur, Time};
use topology::{CpuId, Topology};
use workloads::sysbench::{sysbench, SysbenchCfg};

fn kernel(topo: Topology, sched: Sched) -> Kernel {
    make_kernel(&topo, sched, 42, CheckMode::Off)
}

/// §5.1: ULE starves a CPU hog under a mostly-sleeping database; CFS
/// shares the core between the two applications.
#[test]
fn starvation_contrast_between_schedulers() {
    let run = |sched| {
        let mut k = kernel(Topology::single_core(), sched);
        let fibo = k.queue_app(Time::ZERO, workloads::synthetic::fibo(Dur::secs(20)));
        let spec = sysbench(
            &mut k,
            SysbenchCfg {
                threads: 80,
                total_tx: 40_000,
                ..Default::default()
            },
        );
        let _db = k.queue_app(Time::ZERO + Dur::millis(200), spec);
        // Sample fibo's progress over the window where the db runs.
        k.run_until(Time::ZERO + Dur::secs(4));
        let fibo_tid = k.app_tasks(fibo)[0];
        let at4 = k.task_runtime(fibo_tid);
        k.run_until(Time::ZERO + Dur::secs(10));
        let at10 = k.task_runtime(fibo_tid);
        (at10 - at4).as_secs_f64()
    };
    let cfs_gain = run(Sched::Cfs);
    let ule_gain = run(Sched::Ule);
    assert!(
        cfs_gain > 1.5,
        "CFS must keep fibo running (~50% share), got {cfs_gain:.2}s of 6s"
    );
    assert!(
        ule_gain < 1.2,
        "ULE must starve fibo under interactive load, got {ule_gain:.2}s of 6s"
    );
}

/// §5.3 (apache): CFS's wakeup preemption fires constantly on the
/// server/injector pattern; ULE never preempts.
#[test]
fn apache_preemption_contrast() {
    let run = |sched| {
        let mut k = kernel(Topology::single_core(), sched);
        let p = workloads::P::scaled(1, 0.05);
        let spec = workloads::apache::apache(&mut k, &p);
        let app = k.queue_app(Time::ZERO, spec);
        assert!(
            k.run_until_apps_done(Time::ZERO + Dur::secs(120)),
            "{sched:?} apache hung"
        );
        (k.counters().preemptions, k.app(app).ops_per_sec(k.now()))
    };
    let (cfs_preempt, cfs_rps) = run(Sched::Cfs);
    let (ule_preempt, ule_rps) = run(Sched::Ule);
    assert!(
        cfs_preempt > 100 * (ule_preempt + 1),
        "CFS preempts ab constantly ({cfs_preempt}), ULE never ({ule_preempt})"
    );
    assert!(
        ule_rps > cfs_rps * 1.1,
        "apache should be faster on ULE: {ule_rps:.0} vs {cfs_rps:.0} req/s"
    );
}

/// §6.1: after unpinning a thread pile, CFS converges within ~a second
/// while ULE takes its one-migration-per-period pace.
#[test]
fn rebalancing_speed_contrast() {
    let spread_after = |sched, wait: Dur| {
        let mut k = kernel(Topology::flat(8), sched);
        let app = k.queue_app(Time::ZERO, workloads::synthetic::pinned_spinners(40));
        let unpin_at = Time::ZERO + Dur::millis(200);
        k.run_until(unpin_at);
        k.queue_unpin(unpin_at, app);
        k.run_until(unpin_at + wait);
        let c: Vec<usize> = (0..8).map(|c| k.nr_queued(CpuId(c))).collect();
        *c.iter().max().unwrap() - *c.iter().min().unwrap()
    };
    // One second after the unpin CFS is roughly even; ULE still has almost
    // everything on core 0 (idle steals took one each).
    assert!(spread_after(Sched::Cfs, Dur::secs(1)) <= 4);
    assert!(spread_after(Sched::Ule, Dur::secs(1)) >= 20);
}

/// §6.3 (HPC): ULE places one thread per core and never migrates them.
#[test]
fn ule_stable_hpc_placement() {
    let mut k = kernel(Topology::flat(8), Sched::Ule);
    let _app = k.queue_app(
        Time::ZERO,
        AppSpec::new(
            "hpc",
            (0..8)
                .map(|i| ThreadSpec::new(format!("t{i}"), cpu_hog(Dur::secs(1), Dur::millis(10))))
                .collect(),
        ),
    );
    k.run_until(Time::ZERO + Dur::millis(500));
    for c in 0..8 {
        assert_eq!(k.nr_queued(CpuId(c)), 1);
    }
    assert_eq!(k.counters().migrations, 0);
}

/// Determinism across the full stack: identical seeds give identical
/// decision digests for both schedulers.
#[test]
fn determinism_end_to_end() {
    for sched in Sched::BOTH {
        let digest = |seed| {
            let mut k = make_kernel(&Topology::flat(4), sched, seed, CheckMode::Off);
            let p = workloads::P::scaled(4, 0.05);
            let spec = workloads::sysbench::sysbench_default(&mut k, &p);
            k.queue_app(Time::ZERO, spec);
            // Long enough that the seed-jittered transaction phase runs.
            k.run_until(Time::ZERO + Dur::secs(6));
            k.decision_digest()
        };
        assert_eq!(digest(7), digest(7), "{sched:?} must be deterministic");
        assert_ne!(digest(7), digest(8), "{sched:?} seeds must matter");
    }
}

/// Cgroup fairness is CFS-only: one single-threaded app against a
/// four-threaded app gets ~50% under CFS; ULE has no cgroups, so the lone
/// batch thread gets ~1/5.
#[test]
fn cgroup_fairness_is_cfs_specific() {
    let share = |sched| {
        let mut k = kernel(Topology::single_core(), sched);
        let solo = k.queue_app(
            Time::ZERO,
            AppSpec::new(
                "solo",
                vec![ThreadSpec::new("s", cpu_hog(Dur::secs(5), Dur::millis(20)))],
            ),
        );
        let _many = k.queue_app(
            Time::ZERO,
            AppSpec::new(
                "many",
                (0..4)
                    .map(|i| {
                        ThreadSpec::new(format!("m{i}"), cpu_hog(Dur::secs(5), Dur::millis(20)))
                    })
                    .collect(),
            ),
        );
        k.run_until(Time::ZERO + Dur::secs(2));
        let solo_ns: u64 = k
            .app_tasks(solo)
            .iter()
            .map(|&t| k.task_runtime(t).as_nanos())
            .sum();
        solo_ns as f64 / 1e9 / 2.0
    };
    let cfs = share(Sched::Cfs);
    let ule = share(Sched::Ule);
    assert!(
        (0.4..=0.6).contains(&cfs),
        "CFS app share ≈ 50%, got {cfs:.2}"
    );
    assert!(
        (0.1..=0.3).contains(&ule),
        "ULE thread share ≈ 20%, got {ule:.2}"
    );
}
