//! Batched per-CPU tick delivery.
//!
//! Ticks are by far the most common event in a simulation (one per CPU per
//! millisecond), and they are perfectly periodic: pushing each one through
//! the general event queue made the queue do most of its work just to
//! re-discover "the next tick is one tick after the last one". The
//! [`TickLane`] keeps the next tick deadline of every CPU in a min-tree
//! (tournament tree) instead, and the kernel's event loop merges its root
//! with the event queue by the same `(time, seq)` key the queue orders by.
//!
//! The tree is stored heap-style in one array: the N per-CPU `(deadline,
//! seq)` keys are its leaves, in the back half, and each of the N − 1
//! inner nodes holds the smaller of its two children (any N works, not
//! just powers of two). `peek` reads the root in O(1), and `arm`/`disarm`
//! replay the matches on one leaf-to-root path in O(log N), stopping early
//! once a node's winner is unchanged. At 512 CPUs a fired tick therefore
//! costs two walks of at most nine nodes rather than a rescan of every CPU.
//!
//! Determinism: each armed tick reserves a sequence number from the event
//! queue's counter ([`simcore::EventQueue::alloc_seq`]) at exactly the
//! point where the old code pushed an `Event::Tick` — so the merged
//! ordering (and therefore every decision digest) is byte-identical to the
//! queue-per-tick implementation, including the per-CPU tick stagger and
//! fault-injected jitter. Armed keys never tie (seqs are unique), so the
//! order is time first, then seq.

use simcore::Time;
use topology::CpuId;

/// Sentinel key for an unarmed CPU; compares after every real deadline.
const UNARMED: (Time, u64) = (Time::MAX, u64::MAX);

/// One tree node: the winning `(deadline, seq)` key of its subtree and the
/// CPU that holds it.
type Node = (Time, u64, u32);

/// The per-CPU next-tick min-tree. See the module docs.
#[derive(Debug)]
pub(crate) struct TickLane {
    /// Heap-ordered nodes: `tree[1]` is the root, `tree[2n]`/`tree[2n + 1]`
    /// are the children of `n`, and leaf `cpu` sits at `leaves + cpu`.
    /// `tree[0]` is unused.
    tree: Vec<Node>,
    /// Number of leaves (one per CPU).
    leaves: usize,
}

impl TickLane {
    /// A lane with every CPU unarmed.
    pub(crate) fn new(ncpu: usize) -> TickLane {
        let leaves = ncpu.max(1);
        let mut tree = vec![(UNARMED.0, UNARMED.1, 0); 2 * leaves];
        for (cpu, leaf) in tree[leaves..].iter_mut().enumerate() {
            leaf.2 = cpu as u32;
        }
        for n in (1..leaves).rev() {
            tree[n] = tree[2 * n];
        }
        TickLane { tree, leaves }
    }

    /// Arm `cpu`'s next tick at `at` with an order key of `seq`. The CPU
    /// must not already be armed.
    pub(crate) fn arm(&mut self, cpu: usize, at: Time, seq: u64) {
        let leaf = self.leaves + cpu;
        debug_assert_eq!(
            (self.tree[leaf].0, self.tree[leaf].1),
            UNARMED,
            "tick double-armed"
        );
        self.set(leaf, (at, seq));
    }

    /// Clear `cpu`'s pending tick (because it fired, or on hotplug-off).
    pub(crate) fn disarm(&mut self, cpu: usize) {
        self.set(self.leaves + cpu, UNARMED);
    }

    /// The earliest armed tick, if any, as `(deadline, seq, cpu)`.
    pub(crate) fn peek(&self) -> Option<(Time, u64, CpuId)> {
        let (t, s, c) = self.tree[1];
        ((t, s) != UNARMED).then_some((t, s, CpuId(c)))
    }

    /// Store `key` at `leaf` and replay the matches up to the root.
    fn set(&mut self, leaf: usize, (t, s): (Time, u64)) {
        self.tree[leaf].0 = t;
        self.tree[leaf].1 = s;
        let mut n = leaf / 2;
        while n > 0 {
            let (l, r) = (self.tree[2 * n], self.tree[2 * n + 1]);
            let win = if (r.0, r.1) < (l.0, l.1) { r } else { l };
            if self.tree[n] == win {
                break; // ancestors saw this winner already
            }
            self.tree[n] = win;
            n /= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn peek_returns_earliest_by_time_then_seq() {
        let mut lane = TickLane::new(3);
        lane.arm(0, Time(100), 7);
        lane.arm(1, Time(50), 9);
        lane.arm(2, Time(50), 8);
        assert_eq!(lane.peek(), Some((Time(50), 8, CpuId(2))));
        lane.disarm(2);
        assert_eq!(lane.peek(), Some((Time(50), 9, CpuId(1))));
        lane.disarm(1);
        assert_eq!(lane.peek(), Some((Time(100), 7, CpuId(0))));
        lane.disarm(0);
        assert_eq!(lane.peek(), None);
    }

    #[test]
    fn rearm_cycles_keep_the_tree_honest() {
        let mut lane = TickLane::new(2);
        lane.arm(0, Time(10), 0);
        lane.arm(1, Time(11), 1);
        for round in 0..100u64 {
            let (t, _, cpu) = lane.peek().expect("armed");
            lane.disarm(cpu.index());
            // Re-arm one tick later, like the kernel's on_tick does.
            lane.arm(cpu.index(), t + simcore::Dur(10), 2 + round);
            let (t2, _, _) = lane.peek().expect("armed");
            assert!(t2 >= t, "lane went backwards");
        }
    }

    #[test]
    fn disarming_a_non_minimum_cpu_keeps_the_minimum() {
        let mut lane = TickLane::new(3);
        lane.arm(0, Time(5), 0);
        lane.arm(1, Time(6), 1);
        lane.arm(2, Time(7), 2);
        lane.disarm(1);
        assert_eq!(lane.peek(), Some((Time(5), 0, CpuId(0))));
    }

    /// One step of a random lane workload.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Arm a CPU (re-arming it if already armed) at a deadline drawn
        /// from a narrow range, so equal deadlines are common.
        Arm { cpu: usize, at: u64 },
        /// Disarm a CPU (a no-op on an unarmed one).
        Disarm { cpu: usize },
        /// Fire the earliest tick and re-arm its CPU later, like `on_tick`.
        Fire { gap: u64 },
    }

    /// Linear-scan reference lane: the minimum over every armed CPU.
    fn reference_peek(next: &[Option<(Time, u64)>]) -> Option<(Time, u64, CpuId)> {
        next.iter()
            .enumerate()
            .filter_map(|(cpu, k)| k.map(|(t, s)| (t, s, CpuId(cpu as u32))))
            .min_by_key(|&(t, s, _)| (t, s))
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (0usize..512, 0u64..8).prop_map(|(cpu, at)| Op::Arm { cpu, at }),
            2 => (0usize..512).prop_map(|cpu| Op::Disarm { cpu }),
            3 => (0u64..4).prop_map(|gap| Op::Fire { gap }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn lane_matches_linear_scan_reference(
            size in 0usize..6,
            ops in prop::collection::vec(op(), 1..400),
        ) {
            let ncpu = [1, 2, 3, 31, 64, 512][size];
            let mut lane = TickLane::new(ncpu);
            let mut model: Vec<Option<(Time, u64)>> = vec![None; ncpu];
            let mut seq = 0u64;
            let mut arm = |lane: &mut TickLane, model: &mut [Option<(Time, u64)>], cpu: usize, at: u64| {
                if model[cpu].take().is_some() {
                    lane.disarm(cpu);
                }
                lane.arm(cpu, Time(at), seq);
                model[cpu] = Some((Time(at), seq));
                seq += 1;
            };
            for op in ops {
                match op {
                    Op::Arm { cpu, at } => arm(&mut lane, &mut model, cpu % ncpu, at),
                    Op::Disarm { cpu } => {
                        lane.disarm(cpu % ncpu);
                        model[cpu % ncpu] = None;
                    }
                    Op::Fire { gap } => {
                        if let Some((t, _, cpu)) = lane.peek() {
                            lane.disarm(cpu.index());
                            model[cpu.index()] = None;
                            arm(&mut lane, &mut model, cpu.index(), t.0 + gap);
                        }
                    }
                }
                prop_assert_eq!(lane.peek(), reference_peek(&model));
            }
        }
    }
}
