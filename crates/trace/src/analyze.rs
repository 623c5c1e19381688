//! Critical-path attribution over a trace (DESIGN.md §4.11).
//!
//! The job window `[job_start, job_end]` is partitioned into elementary
//! integer-nanosecond segments at every interval boundary; each segment is
//! assigned to exactly one bucket by a fixed priority rule:
//!
//! `lock-wait > gc-stall > fetch > store > compute > retry-waste > other`
//!
//! Because the segments partition the window and the rule is total, the
//! buckets sum to the job time *exactly* (integer arithmetic, no float
//! accumulation) — the acceptance bar for `repro explain`.

use crate::{TaskClass, TimedEvent, TraceEvent};
use memres_des::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One task attempt reconstructed from launch/finish/retry events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attempt {
    pub task: u32,
    pub class: TaskClass,
    pub node: u32,
    pub attempt: u32,
    pub start: SimTime,
    pub end: SimTime,
    pub outcome: Outcome,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Finished and its output was used.
    Completed,
    /// Failed (fault-doomed, crashed node, failed fetch): pure waste.
    Failed,
    /// Ghost recompute: recovery work redoing lost output.
    Ghost,
}

impl Attempt {
    pub fn dur(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// Reconstruct every task attempt interval from the event log. Attempts
/// still open at the end of the log are closed at the last event time.
pub fn attempts(events: &[TimedEvent]) -> Vec<Attempt> {
    let mut open = OpenAttempts::new(events.len());
    let mut done: Vec<Attempt> = Vec::new();
    let mut last = SimTime::ZERO;
    for e in events {
        last = last.max(e.at);
        let (task, attempt, outcome) = match e.ev {
            TraceEvent::TaskLaunched {
                task,
                node,
                class,
                attempt,
                ..
            } => {
                open.insert(task, attempt, (e.at, node, class));
                continue;
            }
            TraceEvent::TaskFinished {
                task,
                attempt,
                ghost: true,
                ..
            } => (task, attempt, Outcome::Ghost),
            TraceEvent::TaskFinished { task, attempt, .. } => (task, attempt, Outcome::Completed),
            TraceEvent::TaskRetried { task, attempt, .. } => (task, attempt, Outcome::Failed),
            _ => continue,
        };
        if let Some((start, node, class)) = open.remove(task, attempt) {
            done.push(Attempt {
                task,
                class,
                node,
                attempt,
                start,
                end: e.at,
                outcome,
            });
        }
    }
    // Still-open keys are distinct, so the stable sort below orders them
    // whatever order they come in; pushed after `done`, they still follow a
    // closed attempt of the same key and start.
    for ((task, attempt), (start, node, class)) in open.drain() {
        done.push(Attempt {
            task,
            class,
            node,
            attempt,
            start,
            end: last.max(start),
            outcome: Outcome::Completed,
        });
    }
    done.sort_by_key(|a| (a.start, a.task, a.attempt));
    done
}

/// An open attempt's launch: instant, node and class.
type Launch = (SimTime, u32, TaskClass);

/// The launched, not yet closed attempts, keyed `(task, attempt)` with a
/// map's semantics (a launch of an open key replaces it). A task has one
/// attempt open at a time, bar a recovery relaunch, so the first sits in a
/// slot indexed by task id and any other in `rest`. Task ids are dense
/// arena indices, below the event count in a real trace; an id at or past
/// it goes to `rest` too, so a stray id costs no table.
struct OpenAttempts {
    slots: Vec<Option<(u32, Launch)>>,
    rest: BTreeMap<(u32, u32), Launch>,
    dense: usize,
}

impl OpenAttempts {
    fn new(events: usize) -> Self {
        OpenAttempts {
            slots: Vec::new(),
            rest: BTreeMap::new(),
            dense: events,
        }
    }

    fn slot(&mut self, task: u32) -> Option<&mut Option<(u32, Launch)>> {
        let i = task as usize;
        if i >= self.dense {
            return None;
        }
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots.get_mut(i)
    }

    fn insert(&mut self, task: u32, attempt: u32, launch: Launch) {
        if let Some(held) = self.rest.get_mut(&(task, attempt)) {
            *held = launch;
            return;
        }
        match self.slot(task) {
            Some(slot @ None) => *slot = Some((attempt, launch)),
            Some(Some((a, held))) if *a == attempt => *held = launch,
            _ => {
                self.rest.insert((task, attempt), launch);
            }
        }
    }

    fn remove(&mut self, task: u32, attempt: u32) -> Option<Launch> {
        if let Some(slot) = self.slot(task) {
            if let Some((a, launch)) = *slot {
                if a == attempt {
                    *slot = None;
                    return Some(launch);
                }
            }
        }
        self.rest.remove(&(task, attempt))
    }

    fn drain(self) -> impl Iterator<Item = ((u32, u32), Launch)> {
        let slotted = self
            .slots
            .into_iter()
            .enumerate()
            .filter_map(|(task, slot)| {
                slot.map(|(attempt, launch)| ((task as u32, attempt), launch))
            });
        slotted.chain(self.rest)
    }
}

/// End-to-end job-time attribution. All values are integer-nanosecond
/// [`SimDuration`]s; the buckets partition `job` exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Attribution {
    pub job: SimDuration,
    pub compute: SimDuration,
    pub store: SimDuration,
    pub fetch: SimDuration,
    pub lock_wait: SimDuration,
    pub gc_stall: SimDuration,
    pub retry_waste: SimDuration,
    pub other: SimDuration,
}

impl Attribution {
    pub fn buckets(&self) -> [(&'static str, SimDuration); 7] {
        [
            ("compute", self.compute),
            ("store", self.store),
            ("fetch", self.fetch),
            ("lock-wait", self.lock_wait),
            ("gc-stall", self.gc_stall),
            ("retry-waste", self.retry_waste),
            ("other", self.other),
        ]
    }

    /// Sum of all buckets — equals `job` by construction (exact integer
    /// addition over a fixed-size array, so order is immaterial).
    pub fn sum(&self) -> SimDuration {
        self.buckets()
            .iter()
            .fold(SimDuration::ZERO, |acc, &(_, v)| acc + v)
    }
}

/// Sweep-line counter categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Cat {
    Lock,
    GcDevice,
    Fetch,
    Store,
    Compute,
    Waste,
}

pub fn attribute(events: &[TimedEvent]) -> Attribution {
    let Some((job_start, job_end)) = job_window(events) else {
        return Attribution::default();
    };
    let mut deltas: Vec<(u64, Cat, i64)> = Vec::new();
    let mut span = |s: u64, e: u64, cat: Cat| {
        let (s, e) = (s.clamp(job_start, job_end), e.clamp(job_start, job_end));
        if e > s {
            deltas.push((s, cat, 1));
            deltas.push((e, cat, -1));
        }
    };

    // Task attempts: successful ones count toward their phase; failed and
    // ghost attempts are retry-waste. A retry backoff window is waste too.
    for a in attempts(events) {
        let cat = match a.outcome {
            Outcome::Completed => match a.class {
                TaskClass::Compute => Cat::Compute,
                TaskClass::Store => Cat::Store,
                TaskClass::Fetch => Cat::Fetch,
            },
            Outcome::Failed | Outcome::Ghost => Cat::Waste,
        };
        span(a.start.as_nanos(), a.end.as_nanos(), cat);
    }

    // Lock waits, retry backoffs, and SSD device stalls.
    let mut lock_open: BTreeMap<u32, u64> = BTreeMap::new();
    let mut gc_open: BTreeMap<u32, u64> = BTreeMap::new();
    let mut buf_open: BTreeMap<u32, u64> = BTreeMap::new();
    for e in events {
        let t = e.at.as_nanos();
        match e.ev {
            TraceEvent::TaskRetried { backoff, .. } if backoff > SimDuration::ZERO => {
                span(t, t.saturating_add(backoff.as_nanos()), Cat::Waste);
            }
            TraceEvent::LockWaitStart { task } => {
                lock_open.insert(task, t);
            }
            TraceEvent::LockWaitEnd { task } => {
                if let Some(s) = lock_open.remove(&task) {
                    span(s, t, Cat::Lock);
                }
            }
            TraceEvent::LockWaitFor { dur, .. } => {
                span(t, t.saturating_add(dur.as_nanos()), Cat::Lock);
            }
            TraceEvent::GcStart { node } => {
                gc_open.entry(node).or_insert(t);
            }
            TraceEvent::GcEnd { node } => {
                if let Some(s) = gc_open.remove(&node) {
                    span(s, t, Cat::GcDevice);
                }
            }
            TraceEvent::BufFull { node } => {
                buf_open.entry(node).or_insert(t);
            }
            TraceEvent::BufDrained { node } => {
                if let Some(s) = buf_open.remove(&node) {
                    span(s, t, Cat::GcDevice);
                }
            }
            _ => {}
        }
    }
    for (_, s) in lock_open {
        span(s, job_end, Cat::Lock);
    }
    for (_, s) in gc_open {
        span(s, job_end, Cat::GcDevice);
    }
    for (_, s) in buf_open {
        span(s, job_end, Cat::GcDevice);
    }

    // Sweep the elementary segments between boundary points.
    let mut bounds: Vec<u64> = deltas.iter().map(|&(t, _, _)| t).collect();
    bounds.push(job_start);
    bounds.push(job_end);
    bounds.sort_unstable();
    bounds.dedup();
    deltas.sort_by_key(|&(t, cat, d)| (t, cat, d));

    // Per-bucket integer accumulators (lock, gc-stall, fetch, store,
    // compute, waste, other); wrapped into `SimDuration`s at the end.
    let mut acc = [0u64; 7];
    let mut counts = [0i64; 6]; // indexed by Cat order
    let mut di = 0usize;
    for w in bounds.windows(2) {
        let (a, b) = (w[0], w[1]);
        while di < deltas.len() && deltas[di].0 <= a {
            let (_, cat, d) = deltas[di];
            counts[cat as usize] += d;
            di += 1;
        }
        let len = b - a;
        let active = |c: Cat| counts[c as usize] > 0;
        let bucket = if active(Cat::Lock) {
            0
        } else if active(Cat::GcDevice) && active(Cat::Store) {
            1
        } else if active(Cat::Fetch) {
            2
        } else if active(Cat::Store) {
            3
        } else if active(Cat::Compute) {
            4
        } else if active(Cat::Waste) {
            5
        } else {
            6
        };
        acc[bucket] += len;
    }
    Attribution {
        job: SimDuration::from_nanos(job_end - job_start),
        lock_wait: SimDuration::from_nanos(acc[0]),
        gc_stall: SimDuration::from_nanos(acc[1]),
        fetch: SimDuration::from_nanos(acc[2]),
        store: SimDuration::from_nanos(acc[3]),
        compute: SimDuration::from_nanos(acc[4]),
        retry_waste: SimDuration::from_nanos(acc[5]),
        other: SimDuration::from_nanos(acc[6]),
    }
}

/// `[first JobStart, last JobEnd]`, falling back to the full event span.
fn job_window(events: &[TimedEvent]) -> Option<(u64, u64)> {
    if events.is_empty() {
        return None;
    }
    let mut start = None;
    let mut end = None;
    for e in events {
        match e.ev {
            TraceEvent::JobStart { .. } if start.is_none() => start = Some(e.at.as_nanos()),
            TraceEvent::JobEnd { .. } => end = Some(e.at.as_nanos()),
            _ => {}
        }
    }
    let lo = start.unwrap_or_else(|| events.iter().map(|e| e.at.as_nanos()).min().unwrap_or(0));
    let hi = end.unwrap_or_else(|| events.iter().map(|e| e.at.as_nanos()).max().unwrap_or(0));
    (hi >= lo).then_some((lo, hi))
}

/// Top-K straggler attempts: the longest successfully-completed attempts,
/// ties broken by (task, attempt) for determinism.
pub fn stragglers(events: &[TimedEvent], k: usize) -> Vec<Attempt> {
    let mut good: Vec<Attempt> = attempts(events)
        .into_iter()
        .filter(|a| a.outcome == Outcome::Completed)
        .collect();
    good.sort_by(|x, y| {
        y.dur()
            .cmp(&x.dur())
            .then(x.task.cmp(&y.task))
            .then(x.attempt.cmp(&y.attempt))
    });
    good.truncate(k);
    good
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ns: u64, seq: u64, ev: TraceEvent) -> TimedEvent {
        TimedEvent {
            at: SimTime::from_nanos(at_ns),
            seq,
            ev,
        }
    }

    fn launch(at: u64, seq: u64, task: u32, class: TaskClass, attempt: u32) -> TimedEvent {
        ev(
            at,
            seq,
            TraceEvent::TaskLaunched {
                task,
                node: 0,
                class,
                attempt,
                queue_delay: SimDuration::ZERO,
                speculative: false,
            },
        )
    }

    fn finish(at: u64, seq: u64, task: u32, class: TaskClass, attempt: u32) -> TimedEvent {
        ev(
            at,
            seq,
            TraceEvent::TaskFinished {
                task,
                node: 0,
                class,
                attempt,
                ghost: false,
            },
        )
    }

    #[test]
    fn buckets_partition_job_time_exactly() {
        // Job 0..100. Compute 10..40, store 40..60 with GC 50..70 on the
        // store's node, fetch 60..90, lock wait 85..95.
        let evs = vec![
            ev(0, 0, TraceEvent::JobStart { job: 0 }),
            launch(10, 1, 1, TaskClass::Compute, 0),
            finish(40, 2, 1, TaskClass::Compute, 0),
            launch(40, 3, 2, TaskClass::Store, 0),
            ev(50, 4, TraceEvent::GcStart { node: 0 }),
            finish(60, 5, 2, TaskClass::Store, 0),
            launch(60, 6, 3, TaskClass::Fetch, 0),
            ev(70, 7, TraceEvent::GcEnd { node: 0 }),
            ev(85, 8, TraceEvent::LockWaitStart { task: 3 }),
            finish(90, 9, 3, TaskClass::Fetch, 0),
            ev(95, 10, TraceEvent::LockWaitEnd { task: 3 }),
            ev(
                100,
                11,
                TraceEvent::JobEnd {
                    job: 0,
                    aborted: false,
                },
            ),
        ];
        let att = attribute(&evs);
        let ns = SimDuration::from_nanos;
        assert_eq!(att.job, ns(100));
        assert_eq!(att.sum(), att.job, "buckets must partition the job");
        assert_eq!(att.compute, ns(30));
        assert_eq!(att.store, ns(10)); // 40..50 (GC takes 50..60)
        assert_eq!(att.gc_stall, ns(10)); // GC active while store runs
        assert_eq!(att.fetch, ns(25)); // 60..85 (lock wait takes 85..90)
        assert_eq!(att.lock_wait, ns(10)); // 85..95
        assert_eq!(att.retry_waste, SimDuration::ZERO);
        assert_eq!(att.other, ns(15)); // 0..10 and 95..100
    }

    #[test]
    fn failed_attempts_and_backoff_are_waste() {
        let evs = vec![
            ev(0, 0, TraceEvent::JobStart { job: 0 }),
            launch(0, 1, 1, TaskClass::Fetch, 0),
            ev(
                20,
                2,
                TraceEvent::TaskRetried {
                    task: 1,
                    node: 0,
                    attempt: 0,
                    wasted: SimDuration::from_nanos(20),
                    backoff: SimDuration::from_nanos(10),
                },
            ),
            launch(30, 3, 1, TaskClass::Fetch, 1),
            finish(50, 4, 1, TaskClass::Fetch, 1),
            ev(
                50,
                5,
                TraceEvent::JobEnd {
                    job: 0,
                    aborted: false,
                },
            ),
        ];
        let att = attribute(&evs);
        assert_eq!(att.sum(), att.job);
        assert_eq!(att.retry_waste, SimDuration::from_nanos(30)); // failed attempt + backoff
        assert_eq!(att.fetch, SimDuration::from_nanos(20));
        assert_eq!(att.other, SimDuration::ZERO);
    }

    #[test]
    fn stragglers_are_longest_completed_attempts() {
        let evs = vec![
            launch(0, 0, 1, TaskClass::Compute, 0),
            launch(0, 1, 2, TaskClass::Compute, 0),
            launch(0, 2, 3, TaskClass::Compute, 0),
            finish(30, 3, 2, TaskClass::Compute, 0),
            finish(10, 4, 1, TaskClass::Compute, 0),
            finish(20, 5, 3, TaskClass::Compute, 0),
        ];
        let top = stragglers(&evs, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].task, 2);
        assert_eq!(top[1].task, 3);
    }

    #[test]
    fn empty_trace_attributes_nothing() {
        let att = attribute(&[]);
        assert_eq!(att.job, SimDuration::ZERO);
        assert_eq!(att.sum(), SimDuration::ZERO);
    }

    /// `attempts` as it was written on one `BTreeMap`: the reference for
    /// the slot table's order and overwrite-on-relaunch semantics.
    fn attempts_by_map(events: &[TimedEvent]) -> Vec<Attempt> {
        let mut open: BTreeMap<(u32, u32), (SimTime, u32, TaskClass)> = BTreeMap::new();
        let mut done: Vec<Attempt> = Vec::new();
        let mut last = SimTime::ZERO;
        for e in events {
            last = last.max(e.at);
            let (task, attempt, outcome) = match e.ev {
                TraceEvent::TaskLaunched {
                    task,
                    node,
                    class,
                    attempt,
                    ..
                } => {
                    open.insert((task, attempt), (e.at, node, class));
                    continue;
                }
                TraceEvent::TaskFinished {
                    task,
                    attempt,
                    ghost,
                    ..
                } => (
                    task,
                    attempt,
                    if ghost {
                        Outcome::Ghost
                    } else {
                        Outcome::Completed
                    },
                ),
                TraceEvent::TaskRetried { task, attempt, .. } => (task, attempt, Outcome::Failed),
                _ => continue,
            };
            if let Some((start, node, class)) = open.remove(&(task, attempt)) {
                let end = e.at;
                done.push(Attempt {
                    task,
                    class,
                    node,
                    attempt,
                    start,
                    end,
                    outcome,
                });
            }
        }
        for ((task, attempt), (start, node, class)) in open {
            let (end, outcome) = (last.max(start), Outcome::Completed);
            done.push(Attempt {
                task,
                class,
                node,
                attempt,
                start,
                end,
                outcome,
            });
        }
        done.sort_by_key(|a| (a.start, a.task, a.attempt));
        done
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 1024,
            ..Default::default()
        })]

        /// Few tasks, attempts and instants, so relaunches of an open key,
        /// a second open attempt of one task, closes of nothing and ties
        /// all happen; ids past the event count take the overflow path.
        #[test]
        fn attempts_match_the_map_version(
            rows in proptest::collection::vec((0u8..4, 0u32..8, 0u32..3, 0u64..6, 0u32..3), 0..64),
        ) {
            let events: Vec<TimedEvent> = rows
                .iter()
                .enumerate()
                .map(|(seq, &(kind, task, attempt, at, node))| {
                    let task = match task {
                        6 => u32::MAX,
                        7 => 64,
                        t => t,
                    };
                    let class = [TaskClass::Compute, TaskClass::Store, TaskClass::Fetch][node as usize];
                    let event = match kind {
                        0 => TraceEvent::TaskLaunched {
                            task,
                            node,
                            class,
                            attempt,
                            queue_delay: SimDuration::ZERO,
                            speculative: false,
                        },
                        1 => TraceEvent::TaskFinished {
                            task,
                            node,
                            class,
                            attempt,
                            ghost: node == 2,
                        },
                        2 => TraceEvent::TaskRetried {
                            task,
                            node,
                            attempt,
                            wasted: SimDuration::ZERO,
                            backoff: SimDuration::ZERO,
                        },
                        _ => TraceEvent::GcStart { node },
                    };
                    ev(at * 10, seq as u64, event)
                })
                .collect();
            proptest::prop_assert_eq!(attempts(&events), attempts_by_map(&events));
        }
    }
}
