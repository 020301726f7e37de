//! The paper's §5.1 starvation demo: a CPU hog (fibo) shares one core with
//! a mostly-sleeping database (sysbench). Under CFS both make progress;
//! under ULE the hog is starved while the database runs — and the database
//! is ~2× faster for it.
//!
//! ```text
//! cargo run --release --example starvation
//! ```

use experiments::make_kernel;
use kernel::CheckMode;
use scenario::Sched;
use simcore::{Dur, Time};
use topology::Topology;
use workloads::sysbench::{sysbench, SysbenchCfg};

fn main() {
    for sched in Sched::BOTH {
        let mut k = make_kernel(&Topology::single_core(), sched, 42, CheckMode::Off);

        let fibo = k.queue_app(Time::ZERO, workloads::synthetic::fibo(Dur::secs(8)));
        let spec = sysbench(
            &mut k,
            SysbenchCfg {
                threads: 80,
                total_tx: 12_000,
                ..Default::default()
            },
        );
        let db = k.queue_app(Time::ZERO + Dur::millis(500), spec);

        println!("{sched:?}: sampling fibo's cumulative runtime every second");
        let start = Time::ZERO + Dur::millis(1);
        k.run_until(start);
        let fibo_tid = k.app_tasks(fibo)[0];
        for s in 1..=10 {
            k.run_until(start + Dur::secs(s));
            let rt = k.task_runtime(fibo_tid);
            let pen = k.snapshot(fibo_tid).ule_penalty;
            let db_ops = k.app(db).ops;
            println!(
                "  t={s:>2}s fibo runtime {:>5.2}s{}  sysbench tx {}",
                rt.as_secs_f64(),
                pen.map(|p| format!(" (penalty {p})")).unwrap_or_default(),
                db_ops
            );
        }
        k.run_until_apps_done(k.now() + Dur::secs(600));
        println!(
            "  sysbench: {:.0} tx/s, avg latency {:?}",
            k.app(db).ops_per_sec(k.now()),
            k.app(db).avg_latency()
        );
        println!(
            "  fibo finished at t={:.1}s\n",
            k.app(fibo).finished.unwrap().as_secs_f64()
        );
    }
}
