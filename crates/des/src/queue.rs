//! The event calendar: a time-ordered priority queue with FIFO tie-breaking.
//!
//! [`EventQueue`] is a bucketed calendar queue: fixed-width time buckets
//! spanning one "year" of `nbuckets` slots, each bucket an ascending
//! `(time, seq)` run popped from the front, with a sorted overflow tier
//! (binary heap) for events beyond the current year. The structure resizes
//! itself on load factor and re-estimates its bucket width from the
//! inter-quartile spread of buffered event times, so both dense
//! same-instant storms and sparse far-future timers stay O(1)-ish.
//!
//! It pops in exactly ascending `(time, seq)` order; events scheduled at
//! the same instant pop in insertion order, which keeps simulations
//! deterministic. A plain `BinaryHeap` over the same entries is the
//! test-only oracle the calendar is differentially checked against
//! (`calendar_matches_heap`).

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

/// Smallest and largest bucket counts the calendar will resize between.
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1 << 20;

/// Time-ordered event queue. Events scheduled at the same instant pop in
/// insertion order, which keeps simulations deterministic. Invariants:
///
/// * every buffered entry has `slot(time) >= base_slot`;
/// * entries with `slot(time) < year_limit` live in `buckets[slot & mask]`,
///   the rest in `overflow`;
/// * `year_limit - base-of-year == nbuckets`, so each bucket holds at most
///   one distinct slot and its deque is ascending in `(time, seq)`.
pub struct EventQueue<E> {
    buckets: Vec<VecDeque<Entry<E>>>,
    mask: u64,
    /// Nanoseconds per slot (>= 1).
    width: u64,
    /// Cursor: no buffered entry is earlier than this slot.
    base_slot: u64,
    /// First slot beyond the current year; fixed until the year drains.
    year_limit: u64,
    /// Entries currently in `buckets` (the rest are in `overflow`).
    in_year: usize,
    overflow: BinaryHeap<Entry<E>>,
    len: usize,
    /// Insertion counter: the FIFO tie-break among equal times.
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            width: 1 << 10,
            base_slot: 0,
            year_limit: MIN_BUCKETS as u64,
            in_year: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
        }
    }

    #[inline]
    fn slot_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.width
    }

    pub fn push(&mut self, time: SimTime, event: E) {
        let entry = Entry {
            time,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        let s = self.slot_of(time);
        if self.len == 0 {
            // Re-anchor an empty calendar on the incoming event: cheap, and
            // it makes backward time jumps after a full drain free.
            self.base_slot = s;
            self.year_limit = s + self.buckets.len() as u64;
        }
        self.len += 1;
        if s < self.base_slot {
            // An event earlier than the cursor (never produced by the
            // simulation loop, which clamps to `now`, but the queue contract
            // allows it). Re-anchor and redistribute everything.
            self.insert(entry);
            self.rebuild(self.buckets.len());
            return;
        }
        self.insert(entry);
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    /// Place one entry in its tier. Requires `len` already counted.
    fn insert(&mut self, entry: Entry<E>) {
        let s = self.slot_of(entry.time);
        if s < self.base_slot || s >= self.year_limit {
            self.overflow.push(entry);
            return;
        }
        let b = &mut self.buckets[(s & self.mask) as usize];
        let key = (entry.time, entry.seq);
        // Monotone (time, seq) pushes — the common case — land at the back.
        if b.back().is_none_or(|e| (e.time, e.seq) < key) {
            b.push_back(entry);
        } else {
            let at = b.partition_point(|e| (e.time, e.seq) < key);
            b.insert(at, entry);
        }
        self.in_year += 1;
    }

    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if self.in_year == 0 {
            self.start_year_at_overflow_min();
        }
        loop {
            let b = &mut self.buckets[(self.base_slot & self.mask) as usize];
            if let Some(e) = b.pop_front() {
                self.in_year -= 1;
                self.len -= 1;
                if self.len * 8 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
                    // Popping never reorders, so rebuilding after the pop is
                    // safe; it also re-estimates the width for the survivors.
                    self.rebuild(self.buckets.len() / 2);
                }
                return Some((e.time, e.event));
            }
            // Empty bucket: advance the cursor. `in_year > 0` guarantees a
            // nonempty bucket strictly before `year_limit`.
            self.base_slot += 1;
            debug_assert!(self.base_slot < self.year_limit, "year lost entries");
        }
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.in_year == 0 {
            return self.overflow.peek().map(|e| e.time);
        }
        let mut s = self.base_slot;
        while s < self.year_limit {
            if let Some(e) = self.buckets[(s & self.mask) as usize].front() {
                return Some(e.time);
            }
            s += 1;
        }
        unreachable!("in_year > 0 but no bucket holds an entry");
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Calendar health for engine self-stats (DESIGN.md §4.16).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            buckets: self.buckets.len(),
            width_nanos: self.width,
            in_year: self.in_year,
            overflow: self.overflow.len(),
        }
    }

    /// All buckets drained: begin a new year at the earliest overflow event
    /// and migrate everything that falls inside it.
    fn start_year_at_overflow_min(&mut self) {
        let first = self
            .overflow
            .peek()
            .map(|e| self.slot_of(e.time))
            .expect("len > 0 with empty buckets implies overflow entries");
        self.base_slot = first;
        self.year_limit = first + self.buckets.len() as u64;
        while let Some(e) = self.overflow.peek() {
            if self.slot_of(e.time) >= self.year_limit {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry exists");
            // Heap pops ascend in (time, seq), so these land at bucket backs.
            self.insert(e);
        }
    }

    /// Redistribute everything across `new_nbuckets` buckets, re-anchoring
    /// the cursor at the earliest entry and re-estimating the slot width
    /// from the inter-quartile spread of buffered times.
    fn rebuild(&mut self, new_nbuckets: usize) {
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            all.extend(b.drain(..));
        }
        all.extend(std::mem::take(&mut self.overflow).into_vec());
        all.sort_unstable_by_key(|e| (e.time, e.seq));

        let n = new_nbuckets.clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != n {
            self.buckets = (0..n).map(|_| VecDeque::new()).collect();
            self.mask = (n - 1) as u64;
        }
        self.width = estimate_width(&all);
        self.in_year = 0;
        self.base_slot = all.first().map_or(0, |e| self.slot_of(e.time));
        self.year_limit = self.base_slot + n as u64;
        for e in all {
            // Sorted order: in-bucket inserts are all back-pushes.
            self.insert(e);
        }
    }
}

/// Fallback slot width when the buffered times carry no usable spread:
/// fewer than four samples, or an inter-quartile span of ~0 (a same-instant
/// event storm). Matches the width a fresh calendar starts with.
const DEFAULT_WIDTH: u64 = 1 << 10;

/// Slot width from the inter-quartile time spread: the central half of the
/// events should occupy about half the buckets, leaving the rest of the year
/// for the tails. Far-future sentinels (e.g. `SimTime::FAR_FUTURE` timers)
/// sit outside the quartiles and fall to the overflow tier instead of
/// stretching the width.
///
/// When the quartiles coincide (all times clustered in one instant — common
/// right after a shrink rebuild from a near-empty queue), the spread carries
/// no information; `span / k` would pin the width to 1 ns and every later
/// push lands years ahead of the cursor, forcing worst-case bucket scans and
/// overflow churn until the next rebuild. Fall back to the default width
/// instead — the width only affects scan cost, never pop order, so the
/// clamp is behavior-neutral (see the `calendar_matches_heap` proptest).
fn estimate_width<E>(sorted: &[Entry<E>]) -> u64 {
    let n = sorted.len();
    if n < 4 {
        return DEFAULT_WIDTH;
    }
    let q1 = sorted[n / 4].time.as_nanos();
    let q3 = sorted[(3 * n) / 4].time.as_nanos();
    let span = q3.saturating_sub(q1);
    if span == 0 {
        return DEFAULT_WIDTH;
    }
    (span / (n as u64 / 2).max(1)).max(1)
}

/// Calendar-queue health snapshot: bucket count, slot width, and how the
/// buffered events split between the in-year buckets and the overflow heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    pub buckets: usize,
    pub width_nanos: u64,
    pub in_year: usize,
    pub overflow: usize,
}

/// The reference the calendar is differentially tested against: a plain
/// `BinaryHeap` over the same `(time, seq)`-ordered entries.
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
    fn far_future_sentinels_stay_in_overflow() {
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
    fn grows_and_shrinks_through_load() {
        let mut q = EventQueue::new();
        // Enough events to force several calendar rebuilds both ways.
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
    fn clustered_times_fall_back_to_default_width() {
        // All samples in one instant: the inter-quartile span is 0 and the
        // estimator must return the default width, not degenerate to 1 ns.
        let entries: Vec<Entry<u32>> = (0..64)
            .map(|i| Entry {
                time: SimTime(5_000),
                seq: i,
                event: 0,
            })
            .collect();
        assert_eq!(estimate_width(&entries), DEFAULT_WIDTH);
        // A genuine spread still estimates from the quartiles.
        let spread: Vec<Entry<u32>> = (0..64)
            .map(|i| Entry {
                time: SimTime(i * 1_000_000),
                seq: i,
                event: 0,
            })
            .collect();
        let w = estimate_width(&spread);
        assert!(w > 1, "spread times should not pin the width to 1");
        assert_ne!(w, DEFAULT_WIDTH, "estimator should use the real spread");
    }

    #[test]
    fn shrink_on_clustered_survivors_then_grow_stays_ordered() {
        // Fill well past a grow rebuild, then drain until the shrink rebuild
        // fires with only same-instant survivors — the case that used to
        // re-estimate width = 1. Then grow again with spread times and check
        // the queue still pops in exact (time, seq) order against the heap.
        let mut cal = EventQueue::new();
        let mut heap = HeapOracle::new();
        for i in 0..4_096u64 {
            // Most events early and spread; a cluster of late stragglers.
            let t = if i % 16 == 0 { 9_999_999 } else { i * 631 };
            cal.push(SimTime(t), i);
            heap.push(SimTime(t), i);
        }
        // Drain down to the same-instant cluster: forces shrink rebuilds
        // whose survivors all share t = 9_999_999.
        for _ in 0..3_840 {
            assert_eq!(cal.pop(), heap.pop());
        }
        // Grow again from the degenerate state with spread times.
        for i in 0..4_096u64 {
            let t = 10_000_000 + i * 977;
            cal.push(SimTime(t), 100_000 + i);
            heap.push(SimTime(t), 100_000 + i);
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if b.is_none() {
                break;
            }
        }
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
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

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

        /// Differential: the calendar queue pops in exactly the same order
        /// as the `BinaryHeap` oracle on interleaved push/pop streams mixing
        /// clustered, spread, and far-future times.
        #[test]
        fn calendar_matches_heap(
            ops in proptest::collection::vec(
                (0u64..5_000, 0u8..4, any::<bool>()), 1..400)
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapOracle::new();
            for (i, &(t, scale, pop)) in ops.iter().enumerate() {
                // Scale stretches times across regimes: same-instant storms,
                // microsecond clusters, and far-future outliers.
                let t = match scale {
                    0 => t / 100,
                    1 => t,
                    2 => t * 1_000_003,
                    _ => t.saturating_mul(u64::MAX / 5_000),
                };
                cal.push(SimTime(t), i);
                heap.push(SimTime(t), i);
                if pop {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if b.is_none() {
                    break;
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
    }
}
