//! The host's speed at the moment, read from a fixed reference computation.
//!
//! On a shared host, other tenants slow this process down by up to 2x, in
//! phases that last from a fraction of a second to minutes (`README.md`
//! has the measurements). A [`Ruler`] times two small discrete-event
//! simulations of its own between the simulator's slices. [`Ruler::factor`]
//! turns the latest reading into the factor that scales host time measured
//! now towards the speed of a quiet reference host. The reference computation
//! belongs to the benchmark and does not change with the program, so a
//! change to the simulator moves the scaled times and leaves the ruler
//! alone.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time between two readings, at least.
const INTERVAL: Duration = Duration::from_millis(8);

/// How strongly host time follows the ruler: the factor is
/// `(REFERENCE_NS / reading)^SENSITIVITY`. Between 30-second invocations on
/// a shared VM, the simulator's slowdown followed the ruler's with an
/// exponent anywhere from 0 to 1.5, depending on the workload and on the
/// kind of contention. Full correction (1) halved the spread of `dc-512c`
/// and `paper-32c` but doubled that of `strict-corpus` in a calm phase;
/// half of it in log terms gave the lowest worst case (`README.md` has the
/// figures).
pub const SENSITIVITY: f64 = 0.5;

/// Events of each toy simulation per reading (about 0.2 ms of host time
/// together).
const SMALL_EVENTS: u32 = 600;
const BIG_EVENTS: u32 = 300;

/// A reading, in nanoseconds per toy event, close to those of the quiet
/// phases of the VM the benchmark was defined on (Intel Xeon, 2 vCPUs,
/// 2 MiB of L2 per core). Scaled times then read like host times measured
/// there. The value only sets the unit: any fixed value ranks two versions
/// of the program the same way.
pub const REFERENCE_NS: f64 = 175.0;

/// One task of a toy simulation: a virtual runtime, a weight and some
/// payload, so the working set resembles a real task table.
struct ToyTask {
    vruntime: u64,
    weight: u64,
    payload: [u64; 14],
}

/// A toy scheduler simulation: an event heap feeding per-CPU ordered run
/// queues, driven by a fixed-seed generator. It has the simulator's mix of
/// heap, tree and table accesses and data-dependent branches, and none of
/// its code.
struct Toy {
    events: BinaryHeap<Reverse<(u64, u32)>>,
    queues: Vec<BTreeMap<(u64, u32), ()>>,
    tasks: Vec<ToyTask>,
    rng: u64,
    now: u64,
}

impl Toy {
    fn new(cpus: usize, tasks: u32) -> Toy {
        let mut toy = Toy {
            events: BinaryHeap::new(),
            queues: vec![BTreeMap::new(); cpus],
            tasks: (0..tasks)
                .map(|i| ToyTask {
                    vruntime: 0,
                    weight: 1024 + u64::from(i % 7),
                    payload: [0; 14],
                })
                .collect(),
            rng: 11,
            now: 0,
        };
        for t in 0..tasks {
            let at = toy.next_random() >> 40;
            toy.events.push(Reverse((at, t)));
        }
        toy
    }

    fn next_random(&mut self) -> u64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.rng
    }

    /// Process `n` events; the return value only defeats dead-code
    /// elimination.
    fn run(&mut self, n: u32) -> u64 {
        let mut acc = 0u64;
        let cpus = self.queues.len() as u64;
        for _ in 0..n {
            let Reverse((at, t)) = self.events.pop().expect("every task has an event");
            self.now = self.now.max(at);
            let x = self.next_random();
            let task = &mut self.tasks[t as usize];
            task.vruntime += (x >> 54) * 1024 / task.weight;
            task.payload[(x >> 60) as usize % 14] += 1;
            let queue = &mut self.queues[((x >> 20) % cpus) as usize];
            queue.insert((task.vruntime, t), ());
            if queue.len() > 8 {
                let ((_, first), ()) = queue.pop_first().expect("queue is not empty");
                acc = acc.wrapping_add(self.tasks[first as usize].payload[0]);
            }
            self.events.push(Reverse((self.now + (x >> 48) + 1, t)));
        }
        acc
    }
}

/// Reads the host's speed now and then; see the module docs.
pub struct Ruler {
    small: Toy,
    big: Toy,
    last: Instant,
    factor: f64,
    factors: Vec<f64>,
    spent_ns: u64,
}

impl Default for Ruler {
    fn default() -> Ruler {
        Ruler::new()
    }
}

impl Ruler {
    /// A ruler with one reading taken.
    pub fn new() -> Ruler {
        let mut r = Ruler {
            // A 32-CPU machine that fits in L2, and a 512-CPU one that
            // does not.
            small: Toy::new(32, 512),
            big: Toy::new(512, 4096),
            last: Instant::now(),
            factor: 1.0,
            factors: Vec::new(),
            spent_ns: 0,
        };
        r.read();
        r
    }

    /// Host time measured now × this factor = host time scaled towards the
    /// reference speed.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Take a reading if the last one is [`INTERVAL`] old.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.read();
        }
    }

    /// Host nanoseconds spent taking readings so far. Callers subtract it
    /// from intervals that contain a [`Ruler::tick`].
    pub fn spent_ns(&self) -> u64 {
        self.spent_ns
    }

    /// Every factor read so far, in order.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }

    /// Time both toys and set the factor from the geometric mean of their
    /// nanoseconds per event.
    fn read(&mut self) {
        let start = Instant::now();
        black_box(self.small.run(black_box(SMALL_EVENTS)));
        let small = start.elapsed().as_nanos() as f64 / f64::from(SMALL_EVENTS);
        let t = Instant::now();
        black_box(self.big.run(black_box(BIG_EVENTS)));
        let big = t.elapsed().as_nanos() as f64 / f64::from(BIG_EVENTS);
        self.factor = (REFERENCE_NS / (small * big).sqrt()).powf(SENSITIVITY);
        self.factors.push(self.factor);
        self.last = Instant::now();
        self.spent_ns += self.last.duration_since(start).as_nanos() as u64;
    }
}
