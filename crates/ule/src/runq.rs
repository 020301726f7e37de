//! ULE's runqueues.
//!
//! §2.2: "Inside the interactive and batch runqueues, threads are further
//! sorted by priority. (...) there is one FIFO per priority. To add a
//! thread, the scheduler inserts it at the end of the FIFO indexed by the
//! thread's priority. Picking a thread is simply done by taking the first
//! thread in the highest-priority non-empty FIFO."
//!
//! The batch runqueue additionally uses FreeBSD's *calendar* rotation
//! (`tdq_idx`/`tdq_ridx`): insertion indices rotate over time so that every
//! batch thread periodically reaches the head regardless of priority —
//! "ULE tries to be fair among batch threads by minimizing the difference
//! of runtime between threads".
//!
//! Both keep FreeBSD's occupancy bitmap (`rqb_bits`): one bit per FIFO,
//! set while it is non-empty, so finding the next thread is a
//! `trailing_zeros` (`runq_findbit`, rotated to start at `ridx` for the
//! calendar's `runq_findbit_from`) and every walk visits only non-empty
//! FIFOs. Pick order is exactly the linear scan's.

use std::collections::VecDeque;

use sched_api::Tid;

use crate::params::RQ_NQS;

/// One occupancy word covers every FIFO of a runqueue: bit `i` is set iff
/// FIFO `i` is non-empty (FreeBSD's `rqb_bits`, one word on 64-bit).
const _: () = assert!(RQ_NQS == u64::BITS as usize, "the calendar rotates one u64");

/// Indices of the set bits of `bits`, lowest first (`runq_findbit` over a
/// whole status word).
fn set_bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let i = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(i)
    })
}

/// Indices of the set bits of `bits` in circular order starting at
/// `from` (`runq_findbit_from`): rotating the word puts `from` at bit 0.
fn set_bits_from(bits: u64, from: usize) -> impl Iterator<Item = usize> {
    set_bits(bits.rotate_right(from as u32)).map(move |off| (from + off) % RQ_NQS)
}

/// Check that `bits` marks exactly the non-empty FIFOs among the ones it
/// names and that they hold `len` tasks; O(queued), the empty FIFOs are
/// never visited. A FIFO that is non-empty but unmarked hides its tasks
/// from every operation, which the `len` comparison catches.
fn check_bits(queues: &[VecDeque<Tid>], bits: u64, len: usize) -> Result<(), String> {
    let mut seen = 0;
    for i in set_bits(bits) {
        match queues.get(i) {
            Some(q) if !q.is_empty() => seen += q.len(),
            _ => return Err(format!("occupancy bit {i} set for an empty FIFO")),
        }
    }
    if seen != len {
        return Err(format!(
            "marked FIFOs hold {seen} task(s), length says {len}"
        ));
    }
    Ok(())
}

/// A strict priority-FIFO runqueue (the interactive queue).
#[derive(Debug)]
pub struct PrioRunq {
    queues: Vec<VecDeque<Tid>>,
    /// Occupancy: bit `p` set iff `queues[p]` is non-empty.
    bits: u64,
    len: usize,
}

impl PrioRunq {
    /// Runqueue with `levels` priority FIFOs (0 = most urgent); at most
    /// 64, the width of the occupancy word.
    pub fn new(levels: usize) -> PrioRunq {
        assert!(
            levels <= u64::BITS as usize,
            "{levels} levels exceed one status word"
        );
        PrioRunq {
            queues: (0..levels).map(|_| VecDeque::new()).collect(),
            bits: 0,
            len: 0,
        }
    }

    /// Append at the tail of the FIFO for `prio`.
    pub fn push(&mut self, prio: usize, tid: Tid) {
        self.queues[prio].push_back(tid);
        self.bits |= 1 << prio;
        self.len += 1;
    }

    /// Pop from the highest-priority (lowest index) non-empty FIFO.
    pub fn pop(&mut self) -> Option<Tid> {
        let prio = self.min_prio()?;
        Some(self.take(prio, 0))
    }

    /// Peek without removing.
    pub fn peek(&self) -> Option<Tid> {
        self.queues[self.min_prio()?].front().copied()
    }

    /// The most urgent priority present.
    pub fn min_prio(&self) -> Option<usize> {
        set_bits(self.bits).next()
    }

    /// Remove a specific task queued at `prio`. Returns `true` if found.
    pub fn remove(&mut self, prio: usize, tid: Tid) -> bool {
        if let Some(i) = self.queues[prio].iter().position(|&t| t == tid) {
            self.take(prio, i);
            true
        } else {
            false
        }
    }

    /// The first task that satisfies `pred`, searching in pick order;
    /// removes and returns it (used for stealing, which must skip pinned
    /// threads).
    pub fn steal(&mut self, mut pred: impl FnMut(Tid) -> bool) -> Option<Tid> {
        for prio in set_bits(self.bits) {
            if let Some(i) = self.queues[prio].iter().position(|&t| pred(t)) {
                return Some(self.take(prio, i));
            }
        }
        None
    }

    /// Remove the `i`-th task of FIFO `prio`, keeping the occupancy word.
    fn take(&mut self, prio: usize, i: usize) -> Tid {
        let q = &mut self.queues[prio];
        let t = q.remove(i).expect("present");
        if q.is_empty() {
            self.bits &= !(1 << prio);
        }
        self.len -= 1;
        t
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over queued tids, in pick order.
    pub fn iter(&self) -> impl Iterator<Item = Tid> + '_ {
        set_bits(self.bits).flat_map(move |p| self.queues[p].iter().copied())
    }

    /// Self-check of the occupancy word against the FIFOs it marks.
    pub fn check(&self) -> Result<(), String> {
        check_bits(&self.queues, self.bits, self.len)
    }
}

/// The batch calendar runqueue (`tdq_timeshare` + `tdq_idx`/`tdq_ridx`).
#[derive(Debug)]
pub struct BatchRunq {
    queues: Vec<VecDeque<Tid>>,
    /// Occupancy: bit `i` set iff bucket `i` is non-empty.
    bits: u64,
    /// Insertion rotation index (`tdq_idx`).
    idx: usize,
    /// Removal index — the oldest non-drained queue (`tdq_ridx`).
    ridx: usize,
    len: usize,
}

impl Default for BatchRunq {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunq {
    /// Empty calendar with `RQ_NQS` buckets.
    pub fn new() -> BatchRunq {
        BatchRunq {
            queues: (0..RQ_NQS).map(|_| VecDeque::new()).collect(),
            bits: 0,
            idx: 0,
            ridx: 0,
            len: 0,
        }
    }

    /// Insert a batch thread whose priority maps to `scaled` ∈
    /// `[0, RQ_NQS)`: lower-priority threads land further from the head
    /// (`tdq_runq_add` for the timeshare queue).
    pub fn push(&mut self, scaled: usize, tid: Tid) {
        debug_assert!(scaled < RQ_NQS);
        let mut pos = (scaled + self.idx) % RQ_NQS;
        // "This queue contains only priorities between MIN and MAX
        // realtime. Use the whole queue to represent these values."
        // Avoid landing exactly on ridx from behind, which would make the
        // thread wait a full rotation.
        if self.ridx != self.idx && pos == self.ridx {
            pos = pos.checked_sub(1).unwrap_or(RQ_NQS - 1);
        }
        self.queues[pos].push_back(tid);
        self.bits |= 1 << pos;
        self.len += 1;
    }

    /// Pop the next batch thread: the first non-empty bucket at or after
    /// `ridx`, circularly (`runq_choose_from`).
    pub fn pop(&mut self) -> Option<Tid> {
        let i = set_bits_from(self.bits, self.ridx).next()?;
        Some(self.take(i, 0))
    }

    /// Calendar clock (`sched_clock`): once per scheduler tick, advance the
    /// insertion index when it has caught up with the removal index, and
    /// let the removal index follow when its bucket drained.
    pub fn clock(&mut self) {
        if self.idx == self.ridx {
            self.idx = (self.idx + 1) % RQ_NQS;
            if self.bits & (1 << self.ridx) == 0 {
                self.ridx = self.idx;
            }
        }
    }

    /// Remove a specific task. Returns `true` if found.
    pub fn remove(&mut self, tid: Tid) -> bool {
        for b in set_bits(self.bits) {
            if let Some(i) = self.queues[b].iter().position(|&t| t == tid) {
                self.take(b, i);
                return true;
            }
        }
        false
    }

    /// Steal the first matching task in pick order.
    pub fn steal(&mut self, mut pred: impl FnMut(Tid) -> bool) -> Option<Tid> {
        for b in set_bits_from(self.bits, self.ridx) {
            if let Some(i) = self.queues[b].iter().position(|&t| pred(t)) {
                return Some(self.take(b, i));
            }
        }
        None
    }

    /// Remove the `i`-th task of bucket `b`, keeping the occupancy word.
    fn take(&mut self, b: usize, i: usize) -> Tid {
        let q = &mut self.queues[b];
        let t = q.remove(i).expect("present");
        if q.is_empty() {
            self.bits &= !(1 << b);
        }
        self.len -= 1;
        t
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over queued tids in pick order.
    pub fn iter(&self) -> impl Iterator<Item = Tid> + '_ {
        set_bits_from(self.bits, self.ridx).flat_map(move |b| self.queues[b].iter().copied())
    }

    /// Self-check of the occupancy word against the buckets it marks.
    pub fn check(&self) -> Result<(), String> {
        check_bits(&self.queues, self.bits, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prio_runq_orders_by_priority_then_fifo() {
        let mut q = PrioRunq::new(8);
        q.push(3, Tid(1));
        q.push(1, Tid(2));
        q.push(3, Tid(3));
        q.push(1, Tid(4));
        assert_eq!(q.min_prio(), Some(1));
        assert_eq!(q.pop(), Some(Tid(2)));
        assert_eq!(q.pop(), Some(Tid(4)));
        assert_eq!(q.pop(), Some(Tid(1)));
        assert_eq!(q.pop(), Some(Tid(3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn prio_runq_remove_and_steal() {
        let mut q = PrioRunq::new(4);
        q.push(0, Tid(1));
        q.push(2, Tid(2));
        assert!(q.remove(0, Tid(1)));
        assert!(!q.remove(0, Tid(1)));
        assert_eq!(q.steal(|t| t == Tid(2)), Some(Tid(2)));
        assert!(q.is_empty());
    }

    #[test]
    fn batch_runq_round_trip() {
        let mut q = BatchRunq::new();
        q.push(0, Tid(1));
        q.push(0, Tid(2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(Tid(1)));
        assert_eq!(q.pop(), Some(Tid(2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn batch_calendar_gives_lower_priority_later() {
        let mut q = BatchRunq::new();
        q.push(10, Tid(1)); // lower priority → further out
        q.push(0, Tid(2)); // higher priority → at the head
        assert_eq!(q.pop(), Some(Tid(2)));
        assert_eq!(q.pop(), Some(Tid(1)));
    }

    #[test]
    fn batch_calendar_rotation_prevents_starvation() {
        // A low-priority thread queued once must be reachable even while
        // high-priority threads keep being requeued, because the rotation
        // eventually brings its bucket to the removal index.
        let mut q = BatchRunq::new();
        q.push(RQ_NQS - 1, Tid(99)); // worst batch priority
        let mut popped_low = false;
        for _tick in 0..(4 * RQ_NQS) {
            q.push(0, Tid(1));
            let t = q.pop().unwrap();
            if t == Tid(99) {
                popped_low = true;
                break;
            }
            // Requeue the high-priority thread (it "ran"), tick the clock.
            q.clock();
        }
        assert!(popped_low, "calendar rotation must reach the low-prio task");
    }

    #[test]
    fn batch_remove_and_steal() {
        let mut q = BatchRunq::new();
        q.push(5, Tid(7));
        q.push(6, Tid(8));
        assert!(q.remove(Tid(7)));
        assert!(!q.remove(Tid(7)));
        assert_eq!(q.steal(|_| true), Some(Tid(8)));
        assert!(q.is_empty());
    }

    #[test]
    fn iter_matches_pick_order() {
        let mut q = BatchRunq::new();
        q.push(2, Tid(1));
        q.push(1, Tid(2));
        q.push(2, Tid(3));
        let order: Vec<Tid> = q.iter().collect();
        let mut popped = Vec::new();
        while let Some(t) = q.pop() {
            popped.push(t);
        }
        assert_eq!(order, popped);
    }

    /// The linear-scan runqueues the bitmap versions replaced, kept as the
    /// reference model: every operation walks all FIFOs in pick order.
    mod reference {
        use std::collections::VecDeque;

        use sched_api::Tid;

        use crate::params::RQ_NQS;

        pub struct LinearPrioRunq {
            pub queues: Vec<VecDeque<Tid>>,
        }

        impl LinearPrioRunq {
            pub fn new(levels: usize) -> Self {
                LinearPrioRunq {
                    queues: (0..levels).map(|_| VecDeque::new()).collect(),
                }
            }
            pub fn push(&mut self, prio: usize, tid: Tid) {
                self.queues[prio].push_back(tid);
            }
            pub fn pop(&mut self) -> Option<Tid> {
                self.queues.iter_mut().find_map(|q| q.pop_front())
            }
            pub fn peek(&self) -> Option<Tid> {
                self.queues.iter().find_map(|q| q.front().copied())
            }
            pub fn min_prio(&self) -> Option<usize> {
                self.queues.iter().position(|q| !q.is_empty())
            }
            pub fn remove(&mut self, prio: usize, tid: Tid) -> bool {
                let q = &mut self.queues[prio];
                match q.iter().position(|&t| t == tid) {
                    Some(i) => q.remove(i).is_some(),
                    None => false,
                }
            }
            pub fn steal(&mut self, mut pred: impl FnMut(Tid) -> bool) -> Option<Tid> {
                for q in &mut self.queues {
                    if let Some(i) = q.iter().position(|&t| pred(t)) {
                        return q.remove(i);
                    }
                }
                None
            }
            pub fn len(&self) -> usize {
                self.queues.iter().map(VecDeque::len).sum()
            }
            pub fn iter(&self) -> impl Iterator<Item = Tid> + '_ {
                self.queues.iter().flat_map(|q| q.iter().copied())
            }
        }

        pub struct LinearBatchRunq {
            pub queues: Vec<VecDeque<Tid>>,
            pub idx: usize,
            pub ridx: usize,
        }

        impl LinearBatchRunq {
            pub fn new() -> Self {
                LinearBatchRunq {
                    queues: (0..RQ_NQS).map(|_| VecDeque::new()).collect(),
                    idx: 0,
                    ridx: 0,
                }
            }
            pub fn push(&mut self, scaled: usize, tid: Tid) {
                let mut pos = (scaled + self.idx) % RQ_NQS;
                if self.ridx != self.idx && pos == self.ridx {
                    pos = pos.checked_sub(1).unwrap_or(RQ_NQS - 1);
                }
                self.queues[pos].push_back(tid);
            }
            pub fn pop(&mut self) -> Option<Tid> {
                (0..RQ_NQS).find_map(|off| self.queues[(self.ridx + off) % RQ_NQS].pop_front())
            }
            pub fn clock(&mut self) {
                if self.idx == self.ridx {
                    self.idx = (self.idx + 1) % RQ_NQS;
                    if self.queues[self.ridx].is_empty() {
                        self.ridx = self.idx;
                    }
                }
            }
            pub fn remove(&mut self, tid: Tid) -> bool {
                for q in &mut self.queues {
                    if let Some(i) = q.iter().position(|&t| t == tid) {
                        return q.remove(i).is_some();
                    }
                }
                false
            }
            pub fn steal(&mut self, mut pred: impl FnMut(Tid) -> bool) -> Option<Tid> {
                for off in 0..RQ_NQS {
                    let q = &mut self.queues[(self.ridx + off) % RQ_NQS];
                    if let Some(i) = q.iter().position(|&t| pred(t)) {
                        return q.remove(i);
                    }
                }
                None
            }
            pub fn len(&self) -> usize {
                self.queues.iter().map(VecDeque::len).sum()
            }
            pub fn iter(&self) -> impl Iterator<Item = Tid> + '_ {
                (0..RQ_NQS)
                    .flat_map(move |off| self.queues[(self.ridx + off) % RQ_NQS].iter().copied())
            }
        }
    }

    use reference::{LinearBatchRunq, LinearPrioRunq};

    /// One step of a random runqueue workload. `Remove` names a task by
    /// its push ordinal (possibly one already gone) and may give a wrong
    /// priority; `Steal` accepts tids `≡ 0 (mod m)`.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(usize),
        Pop,
        Remove { nth: usize, wrong_prio: bool },
        Steal(u32),
        Clock(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (0usize..RQ_NQS).prop_map(Op::Push),
            3 => Just(Op::Pop),
            2 => (0usize..64, 0u32..4).prop_map(|(nth, w)| Op::Remove { nth, wrong_prio: w == 0 }),
            1 => (1u32..4).prop_map(Op::Steal),
            3 => (1usize..3).prop_map(Op::Clock),
            1 => (60usize..70).prop_map(Op::Clock),
        ]
    }

    /// Apply `ops` to the bitmap runqueues and the linear references side
    /// by side, comparing every result, the observers and the pick order
    /// after each step. Returns how often the batch calendar wrapped and
    /// how many pushes landed while `ridx != idx`.
    fn drive(levels: usize, ops: &[Op]) -> (usize, usize) {
        let mut prio = PrioRunq::new(levels);
        let mut prio_ref = LinearPrioRunq::new(levels);
        let mut batch = BatchRunq::new();
        let mut batch_ref = LinearBatchRunq::new();
        let mut pushed: Vec<(Tid, usize)> = Vec::new();
        let (mut wraps, mut split_pushes) = (0, 0);
        for &op in ops {
            match op {
                Op::Push(level) => {
                    let tid = Tid(pushed.len() as u32);
                    pushed.push((tid, level));
                    prio.push(level % levels, tid);
                    prio_ref.push(level % levels, tid);
                    if batch_ref.ridx != batch_ref.idx {
                        split_pushes += 1;
                    }
                    batch.push(level, tid);
                    batch_ref.push(level, tid);
                }
                Op::Pop => {
                    assert_eq!(prio.pop(), prio_ref.pop());
                    assert_eq!(batch.pop(), batch_ref.pop());
                }
                Op::Remove { nth, wrong_prio } => {
                    if let Some(&(tid, level)) = pushed.get(nth % pushed.len().max(1)) {
                        let p = (level + usize::from(wrong_prio)) % levels;
                        assert_eq!(prio.remove(p, tid), prio_ref.remove(p, tid));
                        assert_eq!(batch.remove(tid), batch_ref.remove(tid));
                    }
                }
                Op::Steal(m) => {
                    let pred = |t: Tid| t.0.is_multiple_of(m);
                    assert_eq!(prio.steal(pred), prio_ref.steal(pred));
                    assert_eq!(batch.steal(pred), batch_ref.steal(pred));
                }
                Op::Clock(n) => {
                    for _ in 0..n {
                        let before = batch_ref.idx;
                        batch.clock();
                        batch_ref.clock();
                        if batch_ref.idx < before {
                            wraps += 1;
                        }
                    }
                }
            }
            assert_eq!(prio.peek(), prio_ref.peek());
            assert_eq!(prio.min_prio(), prio_ref.min_prio());
            assert_eq!(prio.len(), prio_ref.len());
            assert!(prio.iter().eq(prio_ref.iter()), "interactive pick order");
            assert_eq!(prio.check(), Ok(()));
            assert_eq!((batch.idx, batch.ridx), (batch_ref.idx, batch_ref.ridx));
            assert_eq!(batch.len(), batch_ref.len());
            assert!(batch.iter().eq(batch_ref.iter()), "batch pick order");
            assert_eq!(batch.check(), Ok(()));
        }
        (wraps, split_pushes)
    }

    /// A directed run through the calendar's edge cases: clocks over an
    /// empty calendar wrap `idx`/`ridx` past bucket 63, then a bucket left
    /// behind at `ridx` while `idx` moves on makes pushes see
    /// `ridx != idx`, one of them aimed exactly at `ridx` (it must dodge).
    #[test]
    fn bitmap_runqs_match_reference_across_calendar_wrap() {
        let mut ops = vec![Op::Clock(70), Op::Push(0), Op::Push(5), Op::Clock(1)];
        ops.extend([Op::Push(RQ_NQS - 1), Op::Push(0), Op::Push(2)]);
        ops.extend((0..RQ_NQS).map(Op::Push));
        ops.extend([Op::Steal(3), Op::Pop, Op::Clock(2), Op::Pop]);
        ops.extend((0..RQ_NQS + 4).map(|_| Op::Pop));
        ops.extend([Op::Push(63), Op::Push(1), Op::Pop, Op::Pop]);
        let (wraps, split_pushes) = drive(48, &ops);
        assert!(wraps >= 1, "the calendar must wrap");
        assert!(split_pushes >= 1, "some push must land while ridx != idx");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn bitmap_runqs_match_linear_reference(
            levels in prop_oneof![1 => Just(1usize), 1 => Just(8usize), 4 => Just(48usize), 2 => Just(64usize)],
            ops in prop::collection::vec(op(), 1..400),
        ) {
            drive(levels, &ops);
        }
    }

    #[test]
    fn check_flags_a_stale_occupancy_bit() {
        let mut q = PrioRunq::new(8);
        q.push(2, Tid(1));
        assert_eq!(q.check(), Ok(()));
        q.bits |= 1 << 5;
        assert!(q.check().is_err(), "bit for an empty FIFO");
        q.bits = 0;
        assert!(q.check().is_err(), "non-empty FIFO without its bit");
    }
}
