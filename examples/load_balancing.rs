//! The paper's §6.1 load-balancing race (Figure 6), miniature edition:
//! spinners pinned to core 0 are unpinned, and the two balancers react very
//! differently — CFS bulk-migrates within milliseconds but tolerates
//! imbalance; ULE's idle steal takes one thread per core and its periodic
//! balancer then moves *one thread per 0.5–1.5s*, eventually reaching an
//! exactly even spread.
//!
//! ```text
//! cargo run --release --example load_balancing
//! ```

use experiments::make_kernel;
use kernel::{CheckMode, Kernel};
use scenario::Sched;
use simcore::{Dur, Time};
use topology::{CpuId, Topology};
use workloads::synthetic::pinned_spinners;

const NCORES: u32 = 8;
const NTHREADS: usize = 64;

fn counts(k: &Kernel) -> Vec<usize> {
    (0..NCORES).map(|c| k.nr_queued(CpuId(c))).collect()
}

fn main() {
    for sched in Sched::BOTH {
        let mut k = make_kernel(&Topology::flat(NCORES), sched, 42, CheckMode::Off);
        let app = k.queue_app(Time::ZERO, pinned_spinners(NTHREADS));
        let unpin_at = Time::ZERO + Dur::secs(1);
        k.run_until(unpin_at);
        println!("{sched:?}: pinned  {:?}", counts(&k));

        k.queue_unpin(unpin_at, app);
        for (label, since_unpin) in [
            ("+200ms", Dur::millis(200)),
            ("+1s   ", Dur::secs(1)),
            ("+5s   ", Dur::secs(5)),
            ("+20s  ", Dur::secs(20)),
        ] {
            k.run_until(unpin_at + since_unpin);
            println!("{sched:?}: {label} {:?}", counts(&k));
        }
        println!();
    }
    println!("(8 cores / 64 spinners; 8 per core is the even spread)");
}
