//! Processor-sharing resource.
//!
//! Models a server of capacity `C` work-units/second shared equally among all
//! in-flight jobs — the standard fluid approximation for a disk, an SSD
//! channel, or a metadata server handling many concurrent requests. Used by
//! the storage devices, the Lustre OSS pool and MDS, and CPU-ish servers.
//!
//! Ownership pattern: the resource is passive. After any mutating call
//! (`add`, `cancel`, `set_capacity`, `poll`), the owner re-reads
//! `next_completion()` + `gen()` and schedules a wake event; stale wakes are
//! dropped by comparing generations.
//!
//! Eager and dense (DESIGN.md §4.1): a clock move subtracts the drained work
//! from every job in one pass per completion step; a call at the instant the
//! server already stands at touches no job, so a same-instant storm is O(1)
//! per call.

use crate::sim::Gen;
use crate::time::{SimTime, NANOS_PER_SEC};

/// Handle to a job inside a [`PsResource`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(pub u64);

struct Job<T> {
    key: u64,
    remaining: f64,
    tag: T,
}

/// A remainder at or below this is finished, whatever step left it there.
const DONE: f64 = 1e-9;

pub struct PsResource<T> {
    capacity: f64,
    /// In-flight jobs in ascending key order: keys only ascend, so `add` is
    /// a push.
    jobs: Vec<Job<T>>,
    /// Smallest `remaining` in `jobs` (`INFINITY` when empty); `f64::min` is
    /// exact, so kept incrementally it has the bits a fold would give.
    min_remaining: f64,
    /// A job at or below [`DONE`] may sit in `jobs`: every pass harvests
    /// those, so only an `add` of `0 < work <= DONE` leaves one behind.
    unharvested: bool,
    next_key: u64,
    last: SimTime,
    gen: Gen,
    completed: Vec<(JobKey, T)>,
    /// Total work completed since construction (for utilization accounting).
    pub work_done: f64,
    /// Passes over the job list so far (for perf assertions in tests): one
    /// per completion step or partial drain, none at an unchanged instant.
    pub sweeps: u64,
}

impl<T> PsResource<T> {
    pub fn new(capacity: f64) -> Self {
        assert!(capacity >= 0.0 && capacity.is_finite());
        PsResource {
            capacity,
            jobs: Vec::new(),
            min_remaining: f64::INFINITY,
            unharvested: false,
            next_key: 0,
            last: SimTime::ZERO,
            gen: Gen::default(),
            completed: Vec::new(),
            work_done: 0.0,
            sweeps: 0,
        }
    }

    pub fn gen(&self) -> Gen {
        self.gen
    }

    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of in-flight jobs.
    pub fn load(&self) -> usize {
        self.jobs.len()
    }

    /// Outstanding (unfinished) work across all jobs.
    pub fn backlog(&self) -> f64 {
        // Ascending key order: a fixed accumulation order.
        self.jobs.iter().map(|j| j.remaining).sum()
    }

    /// The one pass, in key order: drain `drained` from every job and account
    /// it, move the jobs left at or below `limit` to the completed list, note
    /// the smallest remainder among the rest. A completion step (`residue`)
    /// also credits a finished job's rounding leftover as work done.
    fn sweep(&mut self, drained: f64, limit: f64, residue: bool) {
        self.sweeps += 1;
        let work_done = &mut self.work_done;
        let mut min = f64::INFINITY;
        let done = self.jobs.extract_if(.., |j| {
            j.remaining -= drained;
            let done = j.remaining <= limit;
            *work_done += if done && residue {
                drained + j.remaining.max(0.0)
            } else {
                drained
            };
            if !done {
                min = min.min(j.remaining);
            }
            done
        });
        self.completed.extend(done.map(|j| (JobKey(j.key), j.tag)));
        self.min_remaining = min;
    }

    /// Advance the fluid state to `now`, moving finished jobs to the
    /// completed list. Completions within the interval are processed exactly,
    /// in shortest-remaining order. Leaves no job at or below [`DONE`] (one
    /// at exactly 0.0 would pin `next_completion` to the same instant
    /// forever): a completion step's survivors are above its larger
    /// tolerance, a partial drain harvests as it goes.
    fn advance(&mut self, now: SimTime) {
        assert!(now >= self.last, "PsResource clock went backwards");
        if self.unharvested {
            self.unharvested = false;
            self.sweep(0.0, DONE, false);
        }
        let mut cur = self.last;
        while cur < now && !self.jobs.is_empty() && self.capacity > 0.0 {
            let per_job_rate = self.capacity / self.jobs.len() as f64;
            let min_rem = self.min_remaining;
            let dt_to_first = min_rem / per_job_rate; // seconds
            let avail = now.since(cur).as_secs_f64();
            if dt_to_first <= avail {
                // Drain min_rem from every job; harvest the finished ones.
                cur = add_secs(cur, dt_to_first).min(now);
                self.sweep(min_rem, min_rem * 1e-9 + 1e-6, true);
            } else {
                // No completion before `now`: drain partially and stop.
                self.sweep(per_job_rate * avail, DONE, false);
                cur = now;
            }
        }
        self.last = now;
    }

    /// Submit `work` units. Zero-work jobs complete immediately.
    pub fn add(&mut self, now: SimTime, work: f64, tag: T) -> JobKey {
        assert!(work >= 0.0 && work.is_finite());
        self.advance(now);
        self.gen.bump();
        let key = JobKey(self.next_key);
        self.next_key += 1;
        if work == 0.0 {
            self.completed.push((key, tag));
        } else {
            self.unharvested |= work <= DONE;
            self.min_remaining = self.min_remaining.min(work);
            self.jobs.push(Job {
                key: key.0,
                remaining: work,
                tag,
            });
        }
        key
    }

    /// Remove a job before completion; returns its tag if it was in flight.
    pub fn cancel(&mut self, now: SimTime, key: JobKey) -> Option<T> {
        self.advance(now);
        let at = self.jobs.binary_search_by_key(&key.0, |j| j.key).ok()?;
        let j = self.jobs.remove(at);
        if j.remaining <= self.min_remaining {
            self.sweep(0.0, DONE, false); // drains nothing: finds the new minimum
        }
        self.gen.bump();
        Some(j.tag)
    }

    /// Change the shared capacity (e.g. SSD entering garbage collection).
    pub fn set_capacity(&mut self, now: SimTime, capacity: f64) {
        assert!(capacity >= 0.0 && capacity.is_finite());
        self.advance(now);
        if (capacity - self.capacity).abs() > f64::EPSILON {
            self.capacity = capacity;
            self.gen.bump();
        }
    }

    /// Advance to `now` and drain the completions that are due.
    pub fn poll(&mut self, now: SimTime) -> Vec<(JobKey, T)> {
        self.advance(now);
        if !self.completed.is_empty() {
            self.gen.bump();
        }
        std::mem::take(&mut self.completed)
    }

    /// Instant at which [`PsResource::poll`] will next return something:
    /// the already-due completions' harvest time when any are pending,
    /// otherwise the next in-flight completion. `None` when idle or stalled.
    pub fn next_completion(&self) -> Option<SimTime> {
        if !self.completed.is_empty() {
            return Some(self.last);
        }
        if self.jobs.is_empty() || self.capacity <= 0.0 {
            return None;
        }
        let n = self.jobs.len() as f64;
        Some(add_secs(self.last, self.min_remaining * n / self.capacity))
    }
}

fn add_secs(t: SimTime, secs: f64) -> SimTime {
    let ns = secs * NANOS_PER_SEC as f64;
    if !ns.is_finite() || ns >= (u64::MAX - t.as_nanos()) as f64 {
        SimTime::FAR_FUTURE
    } else {
        SimTime::from_nanos(t.as_nanos() + ns.ceil() as u64)
    }
}

#[cfg(test)]
mod oracle {
    //! The `BTreeMap` server the dense one replaced, kept verbatim as the
    //! differential oracle of `dense_ps_matches_btreemap_oracle`: a harvest
    //! sweep before and after every advance, a `min` fold per step and per
    //! `next_completion`, a key `Vec` and a `get_mut`/`remove` per job.
    use super::{add_secs, Gen, JobKey, SimTime};
    use std::collections::BTreeMap;

    struct Job<T> {
        remaining: f64,
        tag: T,
    }

    pub struct BTreePs<T> {
        capacity: f64,
        jobs: BTreeMap<u64, Job<T>>,
        next_key: u64,
        last: SimTime,
        gen: Gen,
        pub completed: Vec<(JobKey, T)>,
        /// Total work completed since construction (for utilization accounting).
        pub work_done: f64,
    }

    impl<T> BTreePs<T> {
        pub fn new(capacity: f64) -> Self {
            assert!(capacity >= 0.0 && capacity.is_finite());
            BTreePs {
                capacity,
                jobs: BTreeMap::new(),
                next_key: 0,
                last: SimTime::ZERO,
                gen: Gen::default(),
                completed: Vec::new(),
                work_done: 0.0,
            }
        }

        pub fn gen(&self) -> Gen {
            self.gen
        }

        /// Number of in-flight jobs.
        pub fn load(&self) -> usize {
            self.jobs.len()
        }

        /// Outstanding (unfinished) work across all jobs.
        pub fn backlog(&self) -> f64 {
            self.jobs.values().map(|j| j.remaining).sum()
        }

        /// Move any numerically finished jobs (remaining ~ 0 after float
        /// subtraction) to the completed list. Without this sweep a job that hits
        /// exactly 0.0 in the partial-drain branch would never be harvested and
        /// `next_completion` would return the same instant forever.
        fn harvest_zero(&mut self) {
            let done: Vec<u64> = self
                .jobs
                .iter()
                .filter(|(_, j)| j.remaining <= 1e-9)
                .map(|(&k, _)| k)
                .collect();
            for k in done {
                let j = self.jobs.remove(&k).expect("job vanished");
                self.completed.push((JobKey(k), j.tag));
            }
        }

        /// Advance the fluid state to `now`, moving finished jobs to the
        /// completed list. Completions within the interval are processed exactly,
        /// in shortest-remaining order.
        fn advance(&mut self, now: SimTime) {
            debug_assert!(now >= self.last, "BTreePs clock went backwards");
            self.harvest_zero();
            let mut cur = self.last;
            while cur < now && !self.jobs.is_empty() && self.capacity > 0.0 {
                let n = self.jobs.len() as f64;
                let per_job_rate = self.capacity / n;
                let min_rem = self
                    .jobs
                    .values()
                    .map(|j| j.remaining)
                    .fold(f64::INFINITY, f64::min);
                let dt_to_first = min_rem / per_job_rate; // seconds
                let avail = now.since(cur).as_secs_f64();
                if dt_to_first <= avail {
                    // Drain min_rem from every job; harvest the finished ones.
                    let drained = min_rem;
                    cur = add_secs(cur, dt_to_first).min(now);
                    let keys: Vec<u64> = self.jobs.keys().copied().collect();
                    for k in keys {
                        let done = {
                            let j = self.jobs.get_mut(&k).unwrap();
                            j.remaining -= drained;
                            j.remaining <= drained * 1e-9 + 1e-6
                        };
                        if done {
                            let j = self.jobs.remove(&k).unwrap();
                            self.work_done += drained + j.remaining.max(0.0);
                            self.completed.push((JobKey(k), j.tag));
                        } else {
                            self.work_done += drained;
                        }
                    }
                } else {
                    // No completion before `now`: drain partially and stop.
                    let drained = per_job_rate * avail;
                    for j in self.jobs.values_mut() {
                        j.remaining -= drained;
                        self.work_done += drained;
                    }
                    cur = now;
                }
            }
            self.last = now;
            self.harvest_zero();
        }

        /// Submit `work` units. Zero-work jobs complete immediately.
        pub fn add(&mut self, now: SimTime, work: f64, tag: T) -> JobKey {
            assert!(work >= 0.0 && work.is_finite());
            self.advance(now);
            self.gen.bump();
            let key = JobKey(self.next_key);
            self.next_key += 1;
            if work == 0.0 {
                self.completed.push((key, tag));
            } else {
                self.jobs.insert(
                    key.0,
                    Job {
                        remaining: work,
                        tag,
                    },
                );
            }
            key
        }

        /// Remove a job before completion; returns its tag if it was in flight.
        pub fn cancel(&mut self, now: SimTime, key: JobKey) -> Option<T> {
            self.advance(now);
            let j = self.jobs.remove(&key.0)?;
            self.gen.bump();
            Some(j.tag)
        }

        /// Change the shared capacity (e.g. SSD entering garbage collection).
        pub fn set_capacity(&mut self, now: SimTime, capacity: f64) {
            assert!(capacity >= 0.0 && capacity.is_finite());
            self.advance(now);
            if (capacity - self.capacity).abs() > f64::EPSILON {
                self.capacity = capacity;
                self.gen.bump();
            }
        }

        /// Advance to `now` and drain the completions that are due.
        pub fn poll(&mut self, now: SimTime) -> Vec<(JobKey, T)> {
            self.advance(now);
            if !self.completed.is_empty() {
                self.gen.bump();
            }
            std::mem::take(&mut self.completed)
        }

        /// Instant at which [`BTreePs::poll`] will next return something:
        /// the already-due completions' harvest time when any are pending,
        /// otherwise the next in-flight completion. `None` when idle or stalled.
        pub fn next_completion(&self) -> Option<SimTime> {
            if !self.completed.is_empty() {
                return Some(self.last);
            }
            if self.jobs.is_empty() || self.capacity <= 0.0 {
                return None;
            }
            let n = self.jobs.len() as f64;
            let min_rem = self
                .jobs
                .values()
                .map(|j| j.remaining)
                .fold(f64::INFINITY, f64::min);
            Some(add_secs(self.last, min_rem * n / self.capacity))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_until_empty(ps: &mut PsResource<u32>) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        while let Some(t) = ps.next_completion() {
            for (_, tag) in ps.poll(t) {
                out.push((t, tag));
            }
        }
        out
    }

    #[test]
    fn single_job_takes_work_over_capacity() {
        let mut ps = PsResource::new(100.0);
        ps.add(SimTime::ZERO, 50.0, 1u32);
        let done = drain_until_empty(&mut ps);
        assert_eq!(done.len(), 1);
        assert!((done[0].0.as_secs_f64() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn two_equal_jobs_share_capacity() {
        let mut ps = PsResource::new(100.0);
        ps.add(SimTime::ZERO, 50.0, 1u32);
        ps.add(SimTime::ZERO, 50.0, 2u32);
        let done = drain_until_empty(&mut ps);
        // Each gets 50 units at 50/s -> both complete at t=1.0.
        assert_eq!(done.len(), 2);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "got {t}");
        }
    }

    #[test]
    fn short_job_finishes_first_then_rate_rises() {
        let mut ps = PsResource::new(100.0);
        ps.add(SimTime::ZERO, 10.0, 1u32); // done at t=0.2 (rate 50 while shared)
        ps.add(SimTime::ZERO, 100.0, 2u32); // 10 done by 0.2, then 90 at 100/s -> t=1.1
        let done = drain_until_empty(&mut ps);
        assert_eq!(done[0].1, 1);
        assert!((done[0].0.as_secs_f64() - 0.2).abs() < 1e-6);
        assert_eq!(done[1].1, 2);
        assert!((done[1].0.as_secs_f64() - 1.1).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_slows_existing_job() {
        let mut ps = PsResource::new(100.0);
        ps.add(SimTime::ZERO, 100.0, 1u32);
        // At t=0.5 the first job has 50 left; the newcomer halves its rate.
        ps.add(SimTime::from_secs_f64(0.5), 50.0, 2u32);
        let done = drain_until_empty(&mut ps);
        // Both have 50 remaining at t=0.5 sharing 100 -> done at t=1.5.
        assert_eq!(done.len(), 2);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 1.5).abs() < 1e-6, "got {t}");
        }
    }

    #[test]
    fn capacity_change_mid_flight() {
        let mut ps = PsResource::new(100.0);
        ps.add(SimTime::ZERO, 100.0, 1u32);
        // Half done at t=0.5, then capacity drops 4x: 50 left at 25/s -> +2.0s.
        ps.set_capacity(SimTime::from_secs_f64(0.5), 25.0);
        let done = drain_until_empty(&mut ps);
        assert!((done[0].0.as_secs_f64() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_stalls() {
        let mut ps = PsResource::new(0.0);
        ps.add(SimTime::ZERO, 10.0, 1u32);
        assert_eq!(ps.next_completion(), None);
        ps.set_capacity(SimTime::from_secs_f64(1.0), 10.0);
        let done = drain_until_empty(&mut ps);
        assert!((done[0].0.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut ps = PsResource::new(10.0);
        ps.add(SimTime::ZERO, 0.0, 7u32);
        let got = ps.poll(SimTime::ZERO);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 7);
    }

    #[test]
    fn cancel_removes_job_and_speeds_up_other() {
        let mut ps = PsResource::new(100.0);
        let a = ps.add(SimTime::ZERO, 100.0, 1u32);
        ps.add(SimTime::ZERO, 100.0, 2u32);
        // Cancel job 1 at t=0.5 (each has 75 left); job 2 then runs at 100/s.
        assert_eq!(ps.cancel(SimTime::from_secs_f64(0.5), a), Some(1));
        let done = drain_until_empty(&mut ps);
        assert_eq!(done.len(), 1);
        assert!((done[0].0.as_secs_f64() - 1.25).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "PsResource clock went backwards")]
    fn past_submit_is_rejected() {
        let mut ps = PsResource::new(100.0);
        ps.add(SimTime::from_secs_f64(1.0), 50.0, 1u32);
        ps.add(SimTime::from_secs_f64(0.5), 50.0, 2u32);
    }

    #[test]
    fn gen_bumps_on_mutation() {
        let mut ps = PsResource::new(1.0);
        let g0 = ps.gen();
        ps.add(SimTime::ZERO, 1.0, 0u32);
        assert_ne!(ps.gen(), g0);
    }

    #[test]
    fn same_instant_storm_performs_no_sweep() {
        // The storing phase of a Lustre-local job lands 1,600 MDS requests
        // on one instant; none of them may walk the job list.
        let mut ps = PsResource::new(1e6);
        let t = SimTime::from_secs_f64(1.0);
        ps.add(t, 1e3, 0u32);
        let before = ps.sweeps;
        for i in 1..=10_000u32 {
            ps.add(t, 1e3 + i as f64, i);
            assert!(ps.next_completion().is_some());
        }
        assert!(ps.poll(t).is_empty());
        assert_eq!(ps.sweeps, before, "a same-instant call swept the jobs");
        // One pass per completion step once time moves.
        let at = ps.next_completion().unwrap();
        assert_eq!(ps.poll(at).len(), 1);
        assert_eq!(ps.sweeps, before + 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The dense server is the `BTreeMap` one, to the bit: after EVERY op
        /// of a random add / cancel / set_capacity (0 and back) / poll /
        /// next_completion sequence — repeated instants, equal works, zero
        /// works, works in `(0, 1e-9]`, polls at and just before the announced
        /// completion — both hold the same undelivered completions in the
        /// same order, announce the same next completion, and agree on `gen`,
        /// `load`, `backlog` and `work_done`.
        #[test]
        fn dense_ps_matches_btreemap_oracle(
            cap0 in 1.0f64..50.0,
            ops in proptest::collection::vec(
                (0u8..12, 0u8..8, 1e-3f64..100.0, 0.0f64..2.0, any::<proptest::sample::Index>()),
                1..80,
            ),
        ) {
            let mut ps = PsResource::new(cap0);
            let mut oracle = super::oracle::BTreePs::new(cap0);
            let mut now = SimTime::ZERO;
            let mut keys = 0u64;
            for (kind, shape, x, dt, pick) in &ops {
                // Two ops in three land on the instant of the one before.
                if shape % 3 == 0 {
                    now += crate::time::SimDuration::from_secs_f64(*dt);
                }
                match kind {
                    0..=4 => {
                        let work = match shape {
                            0 => 0.0,
                            1 => x * 1e-11, // (0, 1e-9]
                            2 | 3 => 10.0,  // ties
                            _ => *x,
                        };
                        prop_assert_eq!(ps.add(now, work, keys), oracle.add(now, work, keys));
                        keys += 1;
                    }
                    5 | 6 if keys > 0 => {
                        let key = JobKey(pick.index(keys as usize) as u64);
                        prop_assert_eq!(ps.cancel(now, key), oracle.cancel(now, key));
                    }
                    7 | 8 => {
                        let cap = if *shape < 3 { 0.0 } else { *x };
                        ps.set_capacity(now, cap);
                        oracle.set_capacity(now, cap);
                    }
                    9 => prop_assert_eq!(ps.poll(now), oracle.poll(now)),
                    _ => {
                        // Step to the announced completion, as the owner's
                        // wake event does — or one nanosecond short of it,
                        // where a partial drain leaves a remainder below the
                        // harvest threshold.
                        if let Some(at) = ps.next_completion() {
                            let short = SimTime::from_nanos(at.as_nanos().saturating_sub(1));
                            now = if *kind == 11 { short.max(now) } else { at };
                            prop_assert_eq!(ps.poll(now), oracle.poll(now));
                        }
                    }
                }
                prop_assert_eq!(&ps.completed, &oracle.completed);
                prop_assert_eq!(ps.next_completion(), oracle.next_completion());
                prop_assert_eq!(ps.gen(), oracle.gen());
                prop_assert_eq!(ps.load(), oracle.load());
                prop_assert_eq!(ps.backlog().to_bits(), oracle.backlog().to_bits());
                prop_assert_eq!(ps.work_done.to_bits(), oracle.work_done.to_bits());
            }
        }

        /// Work conservation: with constant capacity and no idle periods the
        /// total completion time of a batch equals total_work / capacity.
        #[test]
        fn batch_drains_in_total_work_time(
            works in proptest::collection::vec(1.0f64..100.0, 1..20),
            cap in 1.0f64..50.0,
        ) {
            let mut ps = PsResource::new(cap);
            let total: f64 = works.iter().sum();
            for (i, &w) in works.iter().enumerate() {
                ps.add(SimTime::ZERO, w, i as u32);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some(t) = ps.next_completion() {
                let done = ps.poll(t);
                count += done.len();
                last = t;
            }
            prop_assert_eq!(count, works.len());
            let expect = total / cap;
            prop_assert!((last.as_secs_f64() - expect).abs() < expect * 1e-6 + 1e-6,
                "last={} expect={}", last.as_secs_f64(), expect);
        }

        /// Jobs submitted at the same instant finish in non-decreasing order
        /// of their work (processor sharing preserves size order).
        #[test]
        fn size_order_for_simultaneous_jobs(
            works in proptest::collection::vec(1.0f64..100.0, 2..20),
        ) {
            let mut ps = PsResource::new(10.0);
            for (i, &w) in works.iter().enumerate() {
                ps.add(SimTime::ZERO, w, i as u32);
            }
            let mut finished: Vec<u32> = Vec::new();
            while let Some(t) = ps.next_completion() {
                finished.extend(ps.poll(t).into_iter().map(|(_, tag)| tag));
            }
            prop_assert_eq!(finished.len(), works.len());
            for pair in finished.windows(2) {
                let (a, b) = (works[pair[0] as usize], works[pair[1] as usize]);
                prop_assert!(a <= b + 1e-6, "finished {a} after {b}");
            }
        }
    }
}
