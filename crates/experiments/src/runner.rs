//! Parallel execution of independent simulations.
//!
//! Every driver in this crate decomposes into independent single-kernel
//! simulations — one per (experiment, scheduler, workload, seed) tuple.
//! Each simulation is deterministic, shares nothing with its siblings, and
//! takes from milliseconds to minutes, so the obvious way to use a
//! multicore host is to run them side by side.
//!
//! The one pool entry point is [`par_map`]. Its worker count is a plain
//! argument (drivers pass [`crate::RunCfg::threads`], which `battle
//! --threads N` sets); there is no process-global pool setting.
//!
//! The contract that makes this safe to rely on is **result-order
//! stability**: [`par_map`] returns results in *item order*, no matter how
//! many worker threads ran them or how they interleaved. Since every
//! simulation is itself deterministic (a seeded [`kernel::Kernel`] with no
//! wall-clock or thread-id inputs), the output of any driver — tables,
//! charts, JSON — is byte-identical for `--threads 1` and `--threads 32`.
//! The cross-thread determinism test in `tests/determinism.rs` pins this
//! down.
//!
//! **Panic isolation (SchedGuard).** Every job runs under
//! [`std::panic::catch_unwind`]: one panicking simulation never takes down
//! its siblings or the pool. The panic surfaces as a
//! [`JobOutcome::Panicked`] value in the job's result slot; drivers with
//! no use for partial sweeps pass the outcomes through [`unwrap_all`],
//! which panics with the first job's message only after every sibling has
//! finished. Mutex poisoning cannot occur: a panic is caught before it can
//! poison a cell/slot lock, and the locks are taken through a
//! poison-tolerant helper regardless.
//!
//! The pool is a std-only work-stealing-free design: a shared atomic job
//! index hands each worker the next unclaimed job (scoped threads, no
//! channels needed because each job writes to its own result slot). This
//! crate deliberately avoids external thread-pool dependencies so the
//! workspace builds offline.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How one supervised job ended.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Done(T),
    /// The job panicked; the payload is rendered to a message. Sibling
    /// jobs and the pool were unaffected.
    Panicked(String),
}

impl<T> JobOutcome<T> {
    /// The result, if the job completed.
    pub fn ok(self) -> Option<T> {
        match self {
            JobOutcome::Done(v) => Some(v),
            JobOutcome::Panicked(_) => None,
        }
    }

    /// The panic message, if the job panicked.
    pub fn panic_message(&self) -> Option<&str> {
        match self {
            JobOutcome::Done(_) => None,
            JobOutcome::Panicked(m) => Some(m),
        }
    }
}

/// Render a caught panic payload (the `&str`/`String` cases `panic!`
/// produces; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Lock a mutex, tolerating poisoning (a poisoned lock only means some
/// other job panicked; the data — an `Option` slot — is still valid).
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Run `f` on one item under `catch_unwind`.
fn run_one<I, T>(f: &(impl Fn(I) -> T + Sync), item: I) -> JobOutcome<T> {
    match catch_unwind(AssertUnwindSafe(|| f(item))) {
        Ok(v) => JobOutcome::Done(v),
        Err(p) => JobOutcome::Panicked(panic_message(p.as_ref())),
    }
}

/// Apply `f` to every item on a pool of up to `threads` workers and return
/// how each job ended, **in input order** regardless of execution
/// interleaving. A panicking job becomes [`JobOutcome::Panicked`] while
/// the rest of the sweep completes.
///
/// With one worker (or one item) everything runs inline on the caller's
/// thread — no spawning, identical code path to the sequential version.
pub fn par_map<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<JobOutcome<T>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Send + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items.into_iter().map(|it| run_one(&f, it)).collect();
    }

    // Each item sits in its own cell; workers claim cells through a shared
    // atomic cursor and write each result into the slot with the same
    // index, so collection order never depends on scheduling.
    let cells: Vec<Mutex<Option<I>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let slots: Vec<Mutex<Option<JobOutcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let Some(it) = lock_clean(&cells[i]).take() else {
                    continue; // cursor hands indices out once; defensive
                };
                let out = run_one(&f, it);
                *lock_clean(&slots[i]) = Some(out);
            });
        }
    });

    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                // A claimed job always writes its slot (the write is after
                // catch_unwind); an empty slot would mean a worker died
                // outside the catch, which we surface instead of hiding.
                .unwrap_or_else(|| JobOutcome::Panicked("job result slot empty".to_string()))
        })
        .collect()
}

/// The results of a finished [`par_map`] sweep, for drivers that cannot
/// use a partial one: panics with the first panicked job's message. Since
/// [`par_map`] returns only once every job has ended, every sibling has
/// run to completion by then.
pub fn unwrap_all<T>(outcomes: Vec<JobOutcome<T>>) -> Vec<T> {
    outcomes
        .into_iter()
        .map(|o| match o {
            JobOutcome::Done(v) => v,
            JobOutcome::Panicked(msg) => panic!("{msg}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let out = par_map(4, (0..64usize).collect(), |i| {
            // Stagger finish times so out-of-order completion is
            // actually exercised.
            std::thread::sleep(std::time::Duration::from_micros(((i * 7) % 13) as u64));
            i * 10
        });
        assert_eq!(unwrap_all(out), (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    /// Two sweeps in flight at once each keep the worker count they asked
    /// for. A rendezvous holds the one-worker sweep's first job and all
    /// four jobs of the four-worker sweep until all five are running, so
    /// the sweeps overlap and the four jobs run on four threads at once.
    #[test]
    fn concurrent_calls_keep_their_own_worker_count() {
        let arrived = AtomicUsize::new(0);
        let rendezvous = || {
            arrived.fetch_add(1, Ordering::SeqCst);
            let start = std::time::Instant::now();
            // The deadline turns a pool that cannot overlap the five jobs
            // into an assertion failure below instead of a hang.
            while arrived.load(Ordering::SeqCst) < 5
                && start.elapsed() < std::time::Duration::from_secs(10)
            {
                std::thread::yield_now();
            }
        };
        let sweep = |threads: usize, meet: Vec<bool>| {
            let ids = par_map(threads, meet, |meet| {
                if meet {
                    rendezvous();
                }
                std::thread::current().id()
            });
            (std::thread::current().id(), unwrap_all(ids))
        };
        std::thread::scope(|s| {
            let one = s.spawn(|| sweep(1, vec![true, false, false]));
            let four = s.spawn(|| sweep(4, vec![true; 4]));
            let (caller, ids) = one.join().expect("one-worker sweep");
            assert!(
                ids.iter().all(|&id| id == caller),
                "threads = 1 ran off its caller's thread"
            );
            let (caller, ids) = four.join().expect("four-worker sweep");
            let workers: std::collections::HashSet<_> = ids.into_iter().collect();
            assert!(!workers.contains(&caller), "threads = 4 ran inline");
            assert_eq!(workers.len(), 4, "the four jobs did not overlap");
        });
        assert_eq!(arrived.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn panic_is_isolated_per_slot() {
        for workers in [1, 4] {
            let out = par_map(workers, vec![1, 2, 3, 4], |x| {
                if x == 2 {
                    panic!("boom on {x}");
                }
                x * 10
            });
            assert!(matches!(out[0], JobOutcome::Done(10)));
            assert_eq!(out[1].panic_message(), Some("boom on 2"));
            assert!(matches!(out[2], JobOutcome::Done(30)));
            assert!(matches!(out[3], JobOutcome::Done(40)));
        }
    }

    #[test]
    fn unwrap_all_panics_after_finishing_siblings() {
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            unwrap_all(par_map(2, vec![1, 2, 3], |x| {
                if x == 2 {
                    panic!("first failure");
                }
                ran.fetch_add(1, Ordering::Relaxed);
                x
            }))
        }));
        let msg = caught.expect_err("unwrap_all propagates the panic");
        assert_eq!(panic_message(msg.as_ref()), "first failure");
        assert_eq!(ran.load(Ordering::Relaxed), 2, "siblings ran to completion");
    }
}
