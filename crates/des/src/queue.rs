//! The event calendar: a time-ordered priority queue with FIFO tie-breaking.
//!
//! [`EventQueue`] pops in exactly ascending `(time, seq)` order — events
//! scheduled at the same instant pop in insertion order, which keeps
//! simulations deterministic — from two tiers sized to the traffic a
//! simulation produces. The **same-instant lane** is a plain FIFO of events
//! pushed at exactly the time of the last pop (`Outbox::immediately`: two
//! fifths or more of all pushes), which need no ordering structure and
//! store no key; the **ordered tier**, a `BinaryHeap` keyed on
//! `(time, seq)`, takes the rest. A heap, not a bucketed calendar queue,
//! whose O(1) is for evenly spread times: this traffic comes in task waves
//! that swing the length by three orders of magnitude, and on recorded
//! push/pop sequences the heap behind the lane costs half of what a
//! self-resizing calendar does (DESIGN.md §4.1).
//!
//! Times need not be monotone: a push earlier than the last pop is legal
//! (the simulation loop clamps to `now`; the queue does not rely on it).
//! `proptests::matches_heap_oracle` checks every operation against a plain
//! heap without a lane.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Time-ordered event queue. Invariants:
///
/// * every `lane` entry's time is `lane_time`, and the lane is in push
///   order;
/// * every `ordered` entry at `lane_time` was pushed before the lane's
///   first entry (an empty lane may open at any time — nothing already
///   buffered can be younger than it — and while it holds entries a push at
///   `lane_time` can only join it), so on a tie the ordered tier pops first;
/// * while the lane is empty, `lane_time` is the time of the last pop.
pub struct EventQueue<E> {
    ordered: BinaryHeap<Entry<E>>,
    lane: VecDeque<E>,
    lane_time: SimTime,
    /// Pushes that went through the ordered tier (the lane served the rest),
    /// which makes it the FIFO tie-break of the next one. Public as a test
    /// hook in the style of `FlowNet::next_scans`.
    pub ordered_pushes: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            ordered: BinaryHeap::new(),
            lane: VecDeque::new(),
            lane_time: SimTime::ZERO,
            ordered_pushes: 0,
        }
    }

    pub fn push(&mut self, time: SimTime, event: E) {
        if time == self.lane_time {
            self.lane.push_back(event);
            return;
        }
        self.ordered.push(Entry {
            time,
            seq: self.ordered_pushes,
            event,
        });
        self.ordered_pushes += 1;
    }

    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // On a tie the ordered tier goes first: its entry is the older push.
        let ordered_first = |e: &Entry<E>| e.time <= self.lane_time;
        if !self.lane.is_empty() && !self.ordered.peek().is_some_and(ordered_first) {
            return self.lane.pop_front().map(|e| (self.lane_time, e));
        }
        let e = self.ordered.pop()?;
        if self.lane.is_empty() {
            self.lane_time = e.time;
        }
        Some((e.time, e.event))
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = (!self.lane.is_empty()).then_some(self.lane_time);
        lane.into_iter()
            .chain(self.ordered.peek().map(|e| e.time))
            .min()
    }

    pub fn len(&self) -> usize {
        self.ordered.len() + self.lane.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty() && self.lane.is_empty()
    }

    /// Give back the capacity a past peak left behind (between jobs: a
    /// handful of timers in buffers sized for the last job's widest wave).
    pub fn shrink_to_fit(&mut self) {
        self.ordered.shrink_to_fit();
        self.lane.shrink_to_fit();
    }

    /// How the buffered events split between the tiers (DESIGN.md §4.16).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            lane: self.lane.len(),
            ordered: self.ordered.len(),
        }
    }
}

/// Events waiting in each tier (`lane + ordered == len()`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    pub lane: usize,
    pub ordered: usize,
}

/// The reference the queue is differentially tested against: a plain
/// `BinaryHeap` over `(time, seq)`-ordered entries, no lane.
#[cfg(test)]
struct HeapOracle<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[cfg(test)]
impl<E> HeapOracle<E> {
    fn new() -> Self {
        HeapOracle {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
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
    fn backward_push_after_pops_still_orders() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(SimTime(1_000_000 + i), i);
        }
        for _ in 0..50 {
            q.pop();
        }
        // Earlier than everything popped so far (legal per the contract).
        q.push(SimTime(3), 999);
        assert_eq!(q.pop(), Some((SimTime(3), 999)));
        assert_eq!(q.pop(), Some((SimTime(1_000_050), 50)));
    }

    #[test]
    fn same_instant_pushes_do_no_ordered_tier_work() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 0u32);
        q.push(SimTime(20), 1);
        assert_eq!(q.pop(), Some((SimTime(10), 0)));
        assert_eq!(q.ordered_pushes, 2);
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
            (q.ordered_pushes, q.stats()),
            (2, ordered),
            "the lane touched the ordered tier"
        );
        assert_eq!(q.pop(), Some((SimTime(20), 1)));
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

    #[test]
    fn backward_push_while_the_lane_holds_entries() {
        let mut q = EventQueue::new();
        q.push(SimTime(100), "first");
        assert_eq!(q.pop(), Some((SimTime(100), "first")));
        q.push(SimTime(100), "lane-1");
        // Earlier than the last pop, with the lane occupied: it must come
        // out first, and the lane must keep collecting its own instant
        // afterwards (not the earlier one) or "late" would overtake "lane-2".
        q.push(SimTime(40), "early");
        assert_eq!(q.peek_time(), Some(SimTime(40)));
        assert_eq!(q.pop(), Some((SimTime(40), "early")));
        q.push(SimTime(100), "lane-2");
        q.push(SimTime(40), "late");
        assert_eq!(q.pop(), Some((SimTime(40), "late")));
        assert_eq!(q.pop(), Some((SimTime(100), "lane-1")));
        assert_eq!(q.pop(), Some((SimTime(100), "lane-2")));
        assert_eq!(q.pop(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The queue under test and the oracle, fed the same operations; every
    /// operation checks that they still agree on `len` and `peek_time`.
    struct Pair {
        q: EventQueue<u64>,
        oracle: HeapOracle<u64>,
        tag: u64,
        last_pop: SimTime,
    }

    impl Pair {
        fn agree(&self) -> Result<(), String> {
            let (q, oracle) = (&self.q, &self.oracle);
            let s = q.stats();
            if q.len() != oracle.len()
                || q.is_empty() != (oracle.len() == 0)
                || s.lane + s.ordered != oracle.len()
            {
                return Err(format!("len {} ({s:?}) vs {}", q.len(), oracle.len()));
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
            if let Some((t, _)) = got {
                self.last_pop = t;
            }
            self.agree()
        }

        /// One generated operation: the traffic a simulation produces.
        fn apply(&mut self, kind: u8, a: u64, b: u64) -> Result<(), String> {
            let last = self.last_pop.as_nanos();
            match kind {
                // A handler's `immediately` burst at the instant just popped
                // (into an empty lane, or behind one that is not).
                0 | 1 => (0..1 + b % 6).try_for_each(|_| self.push(SimTime(last))),
                // A task wave: thousands of completions at one future time.
                2 => {
                    let at = SimTime(last.saturating_add(1 + a * 1_000));
                    (0..b).try_for_each(|_| self.push(at))
                }
                // Drain to near-empty; the operations after it refill.
                3 => {
                    while self.q.len() > (b % 17) as usize {
                        self.pop()?;
                    }
                    Ok(())
                }
                // Earlier than the last pop: legal per the queue contract,
                // also while the lane holds entries.
                4 => self.push(SimTime(last.saturating_sub(1 + a))),
                5 => self.push(SimTime::FAR_FUTURE),
                // Random times across regimes: same-instant storms,
                // microsecond clusters, far-future outliers.
                6 => self.push(SimTime(a / 100)),
                7 => self.push(SimTime(a * 1_000_003)),
                8 => self.push(SimTime(a.saturating_mul(u64::MAX / 5_000))),
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
        /// `BinaryHeap` oracle, with `len` and `peek_time` agreeing after
        /// every operation, on interleaved streams of [`Pair::apply`]'s
        /// operations.
        #[test]
        fn matches_heap_oracle(
            ops in proptest::collection::vec((0u8..10, 0u64..5_000, 0u64..4_000), 1..120)
        ) {
            let mut pair = Pair {
                q: EventQueue::new(),
                oracle: HeapOracle::new(),
                tag: 0,
                last_pop: SimTime::ZERO,
            };
            for (i, &(kind, a, b)) in ops.iter().enumerate() {
                let r = pair.apply(kind, a, b);
                prop_assert!(r.is_ok(), "op {i} {:?}: {r:?}", (kind, a, b));
            }
            while !pair.q.is_empty() {
                let r = pair.pop();
                prop_assert!(r.is_ok(), "final drain: {r:?}");
            }
            prop_assert_eq!(pair.q.pop(), None);
            prop_assert_eq!(pair.oracle.len(), 0);
        }
    }
}
