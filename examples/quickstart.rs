//! Quickstart: run the same workload under CFS and ULE and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use experiments::make_kernel;
use kernel::{cpu_hog, AppId, AppSpec, CheckMode, Kernel, ThreadSpec};
use scenario::Sched;
use simcore::{Dur, Time};
use topology::Topology;

/// Total CPU time consumed by an app's threads, seconds.
fn app_cpu_s(k: &Kernel, app: AppId) -> f64 {
    let ns: u64 = k
        .app_tasks(app)
        .iter()
        .map(|&t| k.task_runtime(t).as_nanos())
        .sum();
    ns as f64 / 1e9
}

fn main() {
    println!("A 4-core machine runs a 4-thread compute job plus one extra hog.\n");

    for sched in Sched::BOTH {
        let mut k = make_kernel(&Topology::flat(4), sched, 42, CheckMode::Off);

        // A parallel compute app: 4 threads × 2s of work.
        let compute = k.queue_app(
            Time::ZERO,
            AppSpec::new(
                "compute",
                (0..4)
                    .map(|i| {
                        ThreadSpec::new(format!("w{i}"), cpu_hog(Dur::secs(2), Dur::millis(10)))
                    })
                    .collect(),
            ),
        );
        // A competing single-threaded hog in its own application (cgroup).
        let hog = k.queue_app(
            Time::ZERO,
            AppSpec::new(
                "hog",
                vec![ThreadSpec::new(
                    "hog",
                    cpu_hog(Dur::secs(2), Dur::millis(10)),
                )],
            ),
        );

        k.run_until_apps_done(Time::ZERO + Dur::secs(60));
        println!("{sched:?}:");
        println!(
            "  compute finished in {:.2}s (CPU {:.2}s)",
            k.app(compute).elapsed().unwrap().as_secs_f64(),
            app_cpu_s(&k, compute)
        );
        println!(
            "  hog     finished in {:.2}s (CPU {:.2}s)",
            k.app(hog).elapsed().unwrap().as_secs_f64(),
            app_cpu_s(&k, hog)
        );
        println!(
            "  context switches: {}, migrations: {}, preemptions: {}\n",
            k.counters().ctx_switches,
            k.counters().migrations,
            k.counters().preemptions
        );
    }
    println!("Try `cargo run --release -p experiments --bin battle -- fig1` next.");
}
