//! The event calendar: a time-ordered priority queue with FIFO tie-breaking.
//!
//! [`EventQueue`] pops in exactly ascending `(time, seq)` order — events
//! scheduled at the same instant pop in insertion order, which keeps
//! simulations deterministic. Times are monotone: a push earlier than the
//! last pop panics, in every build, which is the contract `Outbox::at` and
//! `Simulation::schedule` already enforce against the clock. That makes the
//! queue a monotone radix heap (Ahuja, Mehlhorn, Orlin, Tarjan 1990) keyed
//! on the last popped time `last`:
//!
//! * **the lane** is a plain FIFO of the entries at exactly `last`; events
//!   pushed at the instant just popped (`Outbox::immediately`: two fifths
//!   or more of all pushes) join it and store no key;
//! * **bucket `b`** holds the entries whose time first differs from `last`
//!   in bit `b`, in push order, with its minimum time kept at push. Every
//!   entry of a lower bucket is earlier than every entry of a higher one, and
//!   `FAR_FUTURE` (`u64::MAX`) lands in bucket 63.
//!
//! A push is one `ilog2` and one `Vec::push`. A pop serves the lane; when
//! it is empty, the lowest non-empty bucket is emptied: `last` moves to its
//! minimum, whose entries open the lane, and the rest drop into the buckets
//! below, which are all empty. No sequence number is stored: a
//! redistribution only fills empty buckets and keeps relative order, and
//! every later push is a later sequence number, so every bucket and the
//! lane stay in push order. `proptests::matches_heap_oracle` checks every
//! operation against a plain `BinaryHeap` over `(time, seq)` (DESIGN.md
//! §4.1).

use crate::time::SimTime;
use std::collections::VecDeque;

/// A bucket emptied by a redistribution keeps its buffer only up to this
/// capacity (in entries). Small buckets — a few timers and wake-ups — refill
/// at once and would reallocate every time; a task wave's buffer would sit
/// idle beside the lane that now holds the same wave. Keeping every buffer
/// raised the benchmark's `peak_heap_mb` by 8 % on `scale_1k_100k`; freeing
/// every one made the queue about 1.5× slower on recorded simulator traffic
/// (DESIGN.md §4.1).
const KEEP_CAPACITY: usize = 64;

/// Time-ordered event queue. Invariants:
///
/// * every `lane` entry's time is `last`, the lane is in push order, and
///   its first `moved` entries came out of a redistribution;
/// * every entry of `buckets[b]` is later than `last` and first differs
///   from it in bit `b`; `mins[b]` is its smallest time (`u64::MAX` while
///   empty), and bit `b` of `mask` is set iff it holds entries;
/// * `last` is the time of the last pop (zero before the first).
pub struct EventQueue<E> {
    lane: VecDeque<E>,
    moved: usize,
    buckets: [Vec<(u64, E)>; 64],
    mins: [u64; 64],
    mask: u64,
    bucketed: usize,
    last: u64,
    /// Entries taken out of a bucket by a redistribution (lane pushes never
    /// count). Public as a test hook in the style of `FlowNet::next_scans`.
    pub redistributed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            lane: VecDeque::new(),
            moved: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            mins: [u64::MAX; 64],
            mask: 0,
            bucketed: 0,
            last: 0,
            redistributed: 0,
        }
    }

    /// Queue `event` at `time`, which must not precede the last pop.
    pub fn push(&mut self, time: SimTime, event: E) {
        assert!(
            time.0 >= self.last,
            "event pushed before the last pop: {time:?} precedes {:?}",
            SimTime(self.last)
        );
        if time.0 == self.last {
            self.lane.push_back(event);
        } else {
            self.file(time.0, event);
        }
    }

    /// Append a later-than-`last` entry to its bucket.
    fn file(&mut self, t: u64, event: E) {
        let b = (t ^ self.last).ilog2() as usize;
        self.buckets[b].push((t, event));
        self.mins[b] = self.mins[b].min(t);
        self.mask |= 1 << b;
        self.bucketed += 1;
    }

    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.lane.is_empty() {
            self.redistribute()?;
        }
        self.moved = self.moved.saturating_sub(1);
        self.lane.pop_front().map(|e| (SimTime(self.last), e))
    }

    /// Empty the lowest non-empty bucket into the empty lane and the empty
    /// buckets below it; `None` if every bucket is empty.
    fn redistribute(&mut self) -> Option<()> {
        if self.mask == 0 {
            return None;
        }
        let b = self.mask.trailing_zeros() as usize;
        let last = std::mem::replace(&mut self.mins[b], u64::MAX);
        self.last = last;
        self.mask &= !(1 << b);
        let mut entries = std::mem::take(&mut self.buckets[b]);
        self.bucketed -= entries.len();
        self.redistributed += entries.len() as u64;
        for (t, event) in entries.drain(..) {
            if t == last {
                self.lane.push_back(event);
            } else {
                self.file(t, event);
            }
        }
        self.moved = self.lane.len();
        if entries.capacity() <= KEEP_CAPACITY {
            self.buckets[b] = entries;
        }
        Some(())
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.lane.is_empty() {
            return Some(SimTime(self.last));
        }
        (self.mask != 0).then(|| SimTime(self.mins[self.mask.trailing_zeros() as usize]))
    }

    pub fn len(&self) -> usize {
        self.lane.len() + self.bucketed
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Give back the capacity a past peak left behind (between jobs: a
    /// handful of timers in buffers sized for the last job's widest wave).
    pub fn shrink_to_fit(&mut self) {
        self.lane.shrink_to_fit();
        self.buckets.iter_mut().for_each(Vec::shrink_to_fit);
    }

    /// How the buffered events split at the current instant (DESIGN.md
    /// §4.16).
    pub fn stats(&self) -> QueueStats {
        let lane = self.lane.len() - self.moved;
        QueueStats {
            lane,
            ordered: self.len() - lane,
        }
    }

    /// The largest buffer a bucket holds (the lane aside).
    #[cfg(test)]
    fn max_bucket_capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).max().unwrap_or(0)
    }
}

/// Events waiting (`lane + ordered == len()`): `lane` counts those pushed at
/// the instant of the last pop after the clock reached it, `ordered` the
/// rest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    pub lane: usize,
    pub ordered: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime(7), ());
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_sentinels_pop_last() {
        let mut q = EventQueue::new();
        q.push(SimTime::FAR_FUTURE, u32::MAX);
        for i in 0..1000u32 {
            q.push(SimTime(i as u64 * 1_000_000), i);
        }
        for i in 0..1000u32 {
            assert_eq!(q.pop(), Some((SimTime(i as u64 * 1_000_000), i)));
        }
        assert_eq!(q.pop(), Some((SimTime::FAR_FUTURE, u32::MAX)));
        // The clock may stand at the end of time; the instant still queues.
        q.push(SimTime::FAR_FUTURE, 7);
        assert_eq!(q.pop(), Some((SimTime::FAR_FUTURE, 7)));
    }

    #[test]
    fn stays_ordered_through_load() {
        let mut q = EventQueue::new();
        for i in 0..50_000u64 {
            q.push(SimTime(i * 7919 % 65_536), i);
        }
        let mut last = (SimTime(0), 0u64);
        let mut n = 0;
        while let Some((t, v)) = q.pop() {
            assert!((t, v) >= last || t > last.0, "order break at {n}");
            last = (t, v);
            n += 1;
        }
        assert_eq!(n, 50_000);
    }

    #[test]
    #[should_panic(expected = "event pushed before the last pop")]
    fn backward_push_is_rejected() {
        let mut q = EventQueue::new();
        q.push(SimTime(100), "first");
        assert_eq!(q.pop(), Some((SimTime(100), "first")));
        q.push(SimTime(99), "early");
    }

    #[test]
    fn same_instant_pushes_do_no_bucket_work() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 0u32);
        q.push(SimTime(20), 1);
        assert_eq!(q.pop(), Some((SimTime(10), 0)));
        assert_eq!(q.redistributed, 1);
        // `Outbox::immediately` traffic: pushed at exactly the instant just
        // popped, drained before the clock moves.
        for i in 100..1_100 {
            q.push(SimTime(10), i);
        }
        assert_eq!(q.len(), 1_001);
        assert_eq!(
            q.stats(),
            QueueStats {
                lane: 1_000,
                ordered: 1
            }
        );
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        for i in 100..1_100 {
            assert_eq!(q.pop(), Some((SimTime(10), i)));
            // A handler scheduling its follow-up at once: still the lane.
            if i % 100 == 0 {
                q.push(SimTime(10), i + 10_000);
            }
        }
        for i in (100..1_100).filter(|i| i % 100 == 0) {
            assert_eq!(q.pop(), Some((SimTime(10), i + 10_000)));
        }
        let ordered = QueueStats {
            lane: 0,
            ordered: 1,
        };
        assert_eq!(
            (q.redistributed, q.stats()),
            (1, ordered),
            "the lane touched a bucket"
        );
        assert_eq!(q.pop(), Some((SimTime(20), 1)));
        assert_eq!(q.redistributed, 2);
    }

    #[test]
    fn lane_yields_to_older_ordered_entries_of_the_same_instant() {
        let mut q = EventQueue::new();
        for tag in ["a", "b", "c"] {
            q.push(SimTime(5), tag);
        }
        assert_eq!(q.pop(), Some((SimTime(5), "a")));
        // Pushed at the instant just popped, but after "b" and "c".
        q.push(SimTime(5), "d");
        assert_eq!(
            q.stats(),
            QueueStats {
                lane: 1,
                ordered: 2
            }
        );
        assert_eq!(q.pop(), Some((SimTime(5), "b")));
        q.push(SimTime(5), "e");
        assert_eq!(q.pop(), Some((SimTime(5), "c")));
        assert_eq!(q.pop(), Some((SimTime(5), "d")));
        assert_eq!(q.pop(), Some((SimTime(5), "e")));
        assert_eq!(q.pop(), None);
    }

    /// A 16 k-entry wave at spread future times fills buckets of thousands;
    /// once it has drained, none of them keeps a buffer above the policy's.
    #[test]
    fn drained_buckets_keep_no_wave_sized_buffer() {
        const WAVE: u64 = 16_384;
        let mut q = EventQueue::new();
        for i in 0..WAVE {
            q.push(SimTime(1 + i * 7919 % (1 << 20)), i);
        }
        assert!(q.max_bucket_capacity() >= WAVE as usize / 4);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, WAVE);
        assert!(
            q.max_bucket_capacity() <= KEEP_CAPACITY,
            "a drained bucket kept {} entries of capacity",
            q.max_bucket_capacity()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The reference the queue is differentially tested against: a plain
    /// `BinaryHeap` over `(time, seq)`, no buckets. Each entry also records
    /// whether it was pushed at the instant of the last pop, which is what
    /// `QueueStats::lane` counts.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<(SimTime, u64, bool, u64)>>,
        seq: u64,
        last_pop: SimTime,
        lane: usize,
    }

    impl HeapOracle {
        fn push(&mut self, time: SimTime, event: u64) {
            let in_lane = time == self.last_pop;
            self.lane += usize::from(in_lane);
            self.heap.push(Reverse((time, self.seq, in_lane, event)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let Reverse((time, _, in_lane, event)) = self.heap.pop()?;
            self.lane -= usize::from(in_lane);
            self.last_pop = time;
            Some((time, event))
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse(e)| e.0)
        }
    }

    /// The queue under test and the oracle, fed the same operations; every
    /// operation checks that they still agree on `len`, `peek_time` and
    /// `stats`.
    #[derive(Default)]
    struct Pair {
        q: EventQueue<u64>,
        oracle: HeapOracle,
        tag: u64,
    }

    impl Pair {
        fn agree(&self) -> Result<(), String> {
            let (q, oracle) = (&self.q, &self.oracle);
            let s = q.stats();
            let len = oracle.heap.len();
            if q.len() != len
                || q.is_empty() != (len == 0)
                || s.lane + s.ordered != len
                || s.lane != oracle.lane
            {
                return Err(format!(
                    "len {} ({s:?}) vs {len} (lane {})",
                    q.len(),
                    oracle.lane
                ));
            }
            if q.peek_time() != oracle.peek_time() {
                return Err(format!(
                    "peek {:?} vs {:?}",
                    q.peek_time(),
                    oracle.peek_time()
                ));
            }
            Ok(())
        }

        fn push(&mut self, t: SimTime) -> Result<(), String> {
            self.q.push(t, self.tag);
            self.oracle.push(t, self.tag);
            self.tag += 1;
            self.agree()
        }

        fn pop(&mut self) -> Result<(), String> {
            let (got, want) = (self.q.pop(), self.oracle.pop());
            if got != want {
                return Err(format!("popped {got:?}, the oracle {want:?}"));
            }
            self.agree()
        }

        /// One generated operation: the traffic a simulation produces. Every
        /// push is at or after the last pop, as the queue's contract asks.
        fn apply(&mut self, kind: u8, a: u64, b: u64) -> Result<(), String> {
            let last = self.oracle.last_pop.as_nanos();
            let after = |d: u64| SimTime(last.saturating_add(d));
            match kind {
                // A handler's `immediately` burst at the instant just popped
                // (into an empty lane, or behind one that is not).
                0 | 1 => (0..1 + b % 6).try_for_each(|_| self.push(SimTime(last))),
                // A task wave: thousands of completions at one future time.
                2 => (0..b).try_for_each(|_| self.push(after(1 + a * 1_000))),
                // Drain to near-empty; the operations after it refill.
                3 => {
                    while self.q.len() > (b % 17) as usize {
                        self.pop()?;
                    }
                    Ok(())
                }
                // A nanosecond or two after the last pop: the lowest buckets.
                4 => self.push(after(a % 3)),
                5 => self.push(SimTime::FAR_FUTURE),
                // Times across regimes: same-instant storms, microsecond
                // clusters, far-future outliers.
                6 => self.push(after(a / 100)),
                7 => self.push(after(a * 1_000_003)),
                8 => self.push(after(a.saturating_mul(u64::MAX / 5_000))),
                _ => (0..1 + b % 4).try_for_each(|_| self.pop()),
            }
        }
    }

    proptest! {
        /// Popped times are a non-decreasing sequence, and every pushed
        /// element comes back exactly once.
        #[test]
        fn total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime(t), i);
            }
            let mut last = SimTime(0);
            let mut seen = vec![false; times.len()];
            while let Some((t, idx)) = q.pop() {
                prop_assert!(t >= last);
                prop_assert_eq!(t, SimTime(times[idx]));
                prop_assert!(!seen[idx]);
                seen[idx] = true;
                last = t;
            }
            prop_assert!(seen.into_iter().all(|s| s));
        }

        /// Differential: the queue pops in exactly the order of the
        /// `BinaryHeap` oracle, with `len`, `peek_time` and `stats().lane`
        /// agreeing after every operation, on interleaved streams of
        /// [`Pair::apply`]'s operations.
        #[test]
        fn matches_heap_oracle(
            ops in proptest::collection::vec((0u8..10, 0u64..5_000, 0u64..4_000), 1..120)
        ) {
            let mut pair = Pair::default();
            for (i, &(kind, a, b)) in ops.iter().enumerate() {
                let r = pair.apply(kind, a, b);
                prop_assert!(r.is_ok(), "op {i} {:?}: {r:?}", (kind, a, b));
            }
            while !pair.q.is_empty() {
                let r = pair.pop();
                prop_assert!(r.is_ok(), "final drain: {r:?}");
            }
            prop_assert_eq!(pair.q.pop(), None);
            prop_assert!(pair.oracle.heap.is_empty());
        }
    }
}
