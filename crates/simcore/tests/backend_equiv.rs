//! Differential tests: the timer-wheel [`EventQueue`] must be observably
//! identical to a plain binary-heap reference model — same pop sequence,
//! same lengths, same peeked keys — under arbitrary interleavings of
//! pushes (near-term and far-future), pops, cancellations, sequence
//! burns, and peeks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use proptest::prelude::*;
use simcore::{EventId, EventQueue, SimRng, Time};

/// Span of the wheel's top level (64^7 ns); farther events overflow.
const WHEEL_SPAN: u64 = 1 << 42;

/// The reference model: a min-heap on (time, seq) with lazy cancellation
/// through a set of cancelled seqs. An event's id is its seq.
#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<Reverse<(Time, u64, u64)>>,
    cancelled: HashSet<u64>,
    next_seq: u64,
}

impl RefQueue {
    fn alloc_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn push(&mut self, at: Time, payload: u64) -> u64 {
        let seq = self.alloc_seq();
        self.heap.push(Reverse((at, seq, payload)));
        seq
    }

    /// Cancelling a fired or already-cancelled event is a no-op.
    fn cancel(&mut self, seq: u64) {
        if self.heap.iter().any(|Reverse((_, s, _))| *s == seq) {
            self.cancelled.insert(seq);
        }
    }

    fn peek_key(&mut self) -> Option<(Time, u64)> {
        while let Some(&Reverse((at, seq, _))) = self.heap.peek() {
            if !self.cancelled.remove(&seq) {
                return Some((at, seq));
            }
            self.heap.pop();
        }
        None
    }

    fn pop(&mut self) -> Option<(Time, u64)> {
        self.peek_key()?;
        self.heap
            .pop()
            .map(|Reverse((at, _, payload))| (at, payload))
    }

    fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }
}

/// One step of the differential driver.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `now + delta`. Zero and tiny deltas join an instant being
    /// drained; near-term deltas exercise the level-0/1 lanes; far-future
    /// ones land in the overflow heap and come back through cursor leaps.
    Push(u64),
    /// Pop one event from both queues; advances `now` to the popped time.
    Pop,
    /// Cancel the id at index `i % ids.len()` in both queues (no-op when
    /// nothing was pushed; fired ids exercise generation checks).
    Cancel(usize),
    /// Burn a sequence number, as the kernel's batched tick lane does.
    AllocSeq,
    /// Peek the head key — forces wheel cascades without consuming, and
    /// can strand the cursor ahead of later same-time pushes.
    Peek,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0u64..3).prop_map(Op::Push),
        5 => (0u64..200_000).prop_map(Op::Push),
        1 => (0u64..(1 << 44)).prop_map(Op::Push),
        4 => Just(Op::Pop),
        2 => any::<usize>().prop_map(Op::Cancel),
        1 => Just(Op::AllocSeq),
        2 => Just(Op::Peek),
    ]
}

proptest! {
    /// Whatever the op sequence, the wheel and the model agree step for step.
    #[test]
    fn wheel_and_heap_are_observably_identical(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut model = RefQueue::default();
        let mut wheel = EventQueue::new();

        let mut now = 0u64;
        let mut ids: Vec<(u64, EventId)> = Vec::new();
        let mut payload = 0u64;
        for op in ops {
            match op {
                Op::Push(delta) => {
                    let at = Time(now.saturating_add(delta));
                    ids.push((model.push(at, payload), wheel.push(at, payload)));
                    payload += 1;
                }
                Op::Pop => {
                    let a = model.pop();
                    prop_assert_eq!(a, wheel.pop(), "pop mismatch");
                    if let Some((at, _)) = a {
                        now = at.0;
                    }
                }
                Op::Cancel(i) => {
                    if !ids.is_empty() {
                        let (a, b) = ids.swap_remove(i % ids.len());
                        model.cancel(a);
                        wheel.cancel(b);
                    }
                }
                Op::AllocSeq => {
                    prop_assert_eq!(model.alloc_seq(), wheel.alloc_seq());
                }
                Op::Peek => {
                    prop_assert_eq!(model.peek_key(), wheel.peek_key());
                }
            }
            prop_assert_eq!(model.len(), wheel.len(), "live count diverged");
            prop_assert_eq!(model.len() == 0, wheel.is_empty());
        }

        // Drain to the end: the tails must match event for event.
        loop {
            let a = model.pop();
            prop_assert_eq!(a, wheel.pop(), "drain mismatch");
            if a.is_none() {
                break;
            }
        }
    }
}

/// A fixed-seed messy interleaving of pushes at mixed horizons, random
/// cancels and pops: the wheel must reproduce the model's pop sequence.
#[test]
fn wheel_matches_heap_on_interleaved_mix() {
    let mut model = RefQueue::default();
    let mut wheel = EventQueue::new();
    let mut rng = SimRng::new(0xD1FF);
    let mut ids = Vec::new();
    let mut now = 0u64;
    for step in 0..5_000u64 {
        match rng.gen_below(10) {
            0..=5 => {
                let horizon = match rng.gen_below(4) {
                    0 => 64,             // same few ns
                    1 => 1_000_000,      // within a tick
                    2 => 50_000_000,     // tens of ms
                    _ => WHEEL_SPAN * 2, // overflow territory
                };
                let at = Time(now + rng.gen_below(horizon));
                ids.push((model.push(at, step), wheel.push(at, step)));
            }
            6..=7 => {
                if !ids.is_empty() {
                    let (a, b) = ids[rng.gen_below(ids.len() as u64) as usize];
                    model.cancel(a);
                    wheel.cancel(b);
                }
            }
            _ => {
                let h = model.pop();
                assert_eq!(h, wheel.pop(), "wheel diverged at step {step}");
                if let Some((at, _)) = h {
                    now = at.0;
                }
            }
        }
        assert_eq!(model.len(), wheel.len());
    }
    loop {
        let h = model.pop();
        assert_eq!(h, wheel.pop());
        if h.is_none() {
            break;
        }
    }
}
