//! Tasks: what one is ([`TaskKind`], [`TState`]), the push-site record
//! ([`Task`]) and the struct-of-arrays arena every task lives in
//! ([`TaskArena`], DESIGN.md §4.12).

use crate::executor::RealOut;
use crate::metrics::{Phase, TaskLocality, TaskMetric};
use memres_des::time::{SimDuration, SimTime};
use memres_trace::TaskClass;
use std::collections::BTreeMap;
use std::mem::size_of;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum TaskKind {
    Compute { part: u32 },
    Store { producer: u32 },
    Fetch { reducer: u32 },
}

impl TaskKind {
    /// The pipeline phase a task of this kind runs in (§IV, Fig 4a).
    pub(super) fn phase(self) -> Phase {
        match self {
            TaskKind::Compute { .. } => Phase::Compute,
            TaskKind::Store { .. } => Phase::Storing,
            TaskKind::Fetch { .. } => Phase::Shuffling,
        }
    }

    /// The partition, producer or reducer this task stands for.
    pub(super) fn index(self) -> u32 {
        match self {
            TaskKind::Compute { part } => part,
            TaskKind::Store { producer } => producer,
            TaskKind::Fetch { reducer } => reducer,
        }
    }

    /// The trace's name for this kind.
    pub(super) fn class(self) -> TaskClass {
        match self {
            TaskKind::Compute { .. } => TaskClass::Compute,
            TaskKind::Store { .. } => TaskClass::Store,
            TaskKind::Fetch { .. } => TaskClass::Fetch,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum TState {
    Pending,
    Running,
    Done,
}

/// [`Task::pin`] of a task that may run anywhere.
pub(super) const UNPINNED: u32 = u32::MAX;

/// [`Task::twin`] of a task that was never speculated.
pub(super) const NO_TWIN: u32 = u32::MAX;

/// The per-task fields, written once, each with the value a freshly queued
/// task has: [`Task`] holds one of each, and [`TaskArena`] a flat `Vec` of
/// each with the whole-arena operations that must touch every array
/// (`reserve`, `push`, `clear`, `heap_bytes`).
macro_rules! task_fields {
    (
        fn new($($arg:ident: $argty:ty),*);
        $($(#[$doc:meta])* $field:ident: $ty:ty = $fresh:expr,)*
    ) => {
        pub(super) struct Task {
            $($(#[$doc])* pub(super) $field: $ty,)*
        }

        impl Task {
            /// A freshly queued task of `kind`: pending, unplaced, first
            /// attempt, no placement preference. The one `Task` literal —
            /// push sites set only the fields their flavour changes
            /// (prefs/pin, twin, ghost).
            pub(super) fn new($($arg: $argty),*) -> Task {
                Task { $($field: $fresh,)* }
            }
        }

        /// SoA task arena (DESIGN.md, scale-out engine): every per-task field lives
        /// in its own flat `Vec` indexed by task id. The hot scheduling scans
        /// (dispatch, crash handling, stale-completion filtering) each touch one or
        /// two fields of many tasks, so at 10⁶ tasks they walk dense homogeneous
        /// arrays instead of striding over task structs. [`Task`] survives as the
        /// push-site constructor — the arena scatters it on insert. A column costs
        /// every task its width, so what few tasks have lives beside the columns:
        /// placement preferences in `prefs_pool`, real-record payloads in
        /// `real_out`. The byte table is DESIGN.md §4.12; [`TASK_BYTES`] pins its sum.
        #[derive(Default)]
        pub(super) struct TaskArena {
            $(pub(super) $field: Vec<$ty>,)*
            /// The preferred nodes of the tasks that have any, back to back: each
            /// entry is its length, then that many node ids. A task's `prefs` is
            /// the index of its entry's first id — never 0, where the first
            /// entry's length sits.
            prefs_pool: Vec<u32>,
            /// Real output of an evaluated chain, from its commit to the task's
            /// finish. Only real-record runs put anything here.
            pub(super) real_out: BTreeMap<u32, RealOut>,
            /// Tasks currently in `TState::Pending` — dispatch early-exits on zero.
            pending: usize,
            /// Tasks currently in `TState::Running`, by owning job id (job ids are
            /// minted densely) — what the fair-share order reads per dispatch.
            running: Vec<u32>,
        }

        impl TaskArena {
            /// Make room for `n` more tasks: a stage grows each array once, to
            /// exactly what it needs, instead of doubling its way there.
            pub(super) fn reserve(&mut self, n: usize) {
                $(self.$field.reserve_exact(n);)*
            }

            pub(super) fn push(&mut self, t: Task) {
                debug_assert_eq!(t.state, TState::Pending, "tasks are born pending");
                if self.running.len() <= t.job as usize {
                    self.running.resize(t.job as usize + 1, 0);
                }
                $(self.$field.push(t.$field);)*
                self.pending += 1;
            }

            pub(super) fn clear(&mut self) {
                $(self.$field.clear();)*
                self.prefs_pool.clear();
                self.real_out.clear();
                self.pending = 0;
                self.running.clear();
            }

            /// Heap charged to the arena's flat arrays (self-profiling).
            pub(super) fn heap_bytes(&self) -> usize {
                (self.prefs_pool.capacity() + self.running.capacity()) * size_of::<u32>()
                    $(+ self.$field.capacity() * size_of::<$ty>())*
            }
        }

        /// What one more task costs the arena, whatever its flavour.
        pub(super) const TASK_BYTES: usize = 0 $(+ size_of::<$ty>())*;
    };
}

task_fields! {
    fn new(job: u32, stage: u32, kind: TaskKind, now: SimTime);
    /// Owning job id (multi-tenant streams keep several jobs resident).
    job: u32 = job,
    stage: u32 = stage,
    kind: TaskKind = kind,
    state: TState = TState::Pending,
    node: u32 = u32::MAX,
    queued_at: SimTime = now,
    launched_at: SimTime = now,
    compute_dur: SimDuration = SimDuration::ZERO,
    pending_io: u32 = 0,
    finish_scheduled: bool = false,
    input_bytes: f64 = 0.0,
    output_bytes: f64 = 0.0,
    records_est: u64 = 0,
    locality: TaskLocality = TaskLocality::Any,
    /// Handle of the preferred nodes (HDFS replicas / cache location) from
    /// [`TaskArena::add_prefs`]; read through [`TaskArena::prefs_of`]. 0 = any.
    prefs: u32 = 0,
    /// The only node a pinned task may run on (storing phase: a flush runs
    /// where its producer ran), [`UNPINNED`] otherwise.
    pin: u32 = UNPINNED,
    /// Speculative-execution twin (LATE baseline): the other copy's id, or
    /// [`NO_TWIN`].
    twin: u32 = NO_TWIN,
    /// True for the duplicate copy of a speculated task.
    is_speculative: bool = false,
    /// Attempt number; bumped on every failure so stale completion events
    /// from an earlier attempt are dropped.
    attempt: u32 = 0,
    /// The injected-fault engine marked the running attempt to fail at the
    /// moment it would have finished (the whole duration becomes wasted
    /// work). Set at launch, cleared when the attempt fails; completions of
    /// earlier attempts never get as far as reading it.
    doomed: bool = false,
    /// Recovery ghost: charges compute/IO time for redone work after a node
    /// crash but deposits nothing (the lost rows were already re-hosted).
    ghost: bool = false,
}

// The per-task footprint moves only on purpose (DESIGN.md §4.12 has the
// table); so does the 64-byte metric record each finished task leaves.
const _: () = assert!(TASK_BYTES == 94);
const _: () = assert!(size_of::<TaskMetric>() == 64);

impl TaskArena {
    /// The record task `id` leaves when it finishes at `now`.
    pub(super) fn metric(&self, id: u32, now: SimTime) -> TaskMetric {
        let i = id as usize;
        TaskMetric {
            job: self.job[i],
            stage: self.stage[i],
            phase: self.kind[i].phase(),
            index: self.kind[i].index(),
            node: self.node[i],
            queued_at: self.queued_at[i].as_secs_f64(),
            launched_at: self.launched_at[i].as_secs_f64(),
            finished_at: now.as_secs_f64(),
            input_bytes: self.input_bytes[i],
            output_bytes: self.output_bytes[i],
            locality: self.locality[i],
        }
    }

    /// Record `nodes` as a placement preference; the handle goes in a
    /// task's `prefs`. No nodes, no entry.
    pub(super) fn add_prefs(&mut self, nodes: impl ExactSizeIterator<Item = u32>) -> u32 {
        if nodes.len() == 0 {
            return 0;
        }
        self.prefs_pool.push(nodes.len() as u32);
        let handle = self.prefs_pool.len() as u32;
        self.prefs_pool.extend(nodes);
        handle
    }

    /// The nodes task `id` prefers; empty = any.
    pub(super) fn prefs_of(&self, id: u32) -> &[u32] {
        match self.prefs[id as usize] as usize {
            0 => &[],
            h => &self.prefs_pool[h..h + self.prefs_pool[h - 1] as usize],
        }
    }

    /// Drop the nodes `keep` rejects from task `id`'s preferences, in place
    /// and in order.
    pub(super) fn retain_prefs(&mut self, id: u32, keep: impl Fn(u32) -> bool) {
        let h = self.prefs[id as usize] as usize;
        if h == 0 {
            return;
        }
        let mut kept = 0;
        for i in h..h + self.prefs_pool[h - 1] as usize {
            let n = self.prefs_pool[i];
            if keep(n) {
                self.prefs_pool[h + kept] = n;
                kept += 1;
            }
        }
        self.prefs_pool[h - 1] = kept as u32;
    }

    #[inline]
    pub(super) fn len(&self) -> usize {
        self.state.len()
    }

    #[inline]
    pub(super) fn contains(&self, id: u32) -> bool {
        (id as usize) < self.state.len()
    }

    /// Tasks currently pending, over every resident job.
    #[inline]
    pub(super) fn pending(&self) -> usize {
        self.pending
    }

    /// Tasks of `job` currently running.
    #[inline]
    pub(super) fn running(&self, job: u32) -> u32 {
        self.running[job as usize]
    }

    /// The only state-transition path: keeps the pending count and the
    /// per-job running counts exact.
    #[inline]
    pub(super) fn set_state(&mut self, id: u32, s: TState) {
        let cur = &mut self.state[id as usize];
        self.pending -= (*cur == TState::Pending) as usize;
        self.pending += (s == TState::Pending) as usize;
        let running = &mut self.running[self.job[id as usize] as usize];
        *running -= (*cur == TState::Running) as u32;
        *running += (s == TState::Running) as u32;
        *cur = s;
    }

    /// Check one job's running count against an arena scan.
    pub(super) fn audit_running(&self, job: u32) -> Result<(), String> {
        let scanned = (0..self.len())
            .filter(|&i| self.job[i] == job && self.state[i] == TState::Running)
            .count() as u32;
        let kept = self.running[job as usize];
        if kept != scanned {
            return Err(format!(
                "job {job}: running count {kept}, the arena holds {scanned}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_scatters_a_task_and_keeps_its_counts() {
        // One array per `Task` field, each grown by a push; `set_state` keeps
        // the pending and per-job running counts; the heap estimate is the
        // arrays' capacities times their element sizes.
        let mut a = TaskArena::default();
        assert_eq!(a.heap_bytes(), 0);
        a.reserve(2);
        let mut t = Task::new(3, 1, TaskKind::Compute { part: 7 }, SimTime::ZERO);
        t.prefs = a.add_prefs([4, 5].into_iter());
        a.push(t);
        a.push(Task::new(
            3,
            1,
            TaskKind::Fetch { reducer: 0 },
            SimTime::ZERO,
        ));
        assert_eq!((a.len(), a.pending(), a.running(3)), (2, 2, 0));
        assert_eq!(a.kind[0], TaskKind::Compute { part: 7 });
        assert_eq!((a.pin[0], a.twin[0]), (UNPINNED, NO_TWIN));
        assert_eq!((a.prefs_of(0), a.prefs_of(1)), (&[4, 5][..], &[][..]));
        a.set_state(0, TState::Running);
        assert_eq!((a.pending(), a.running(3)), (1, 1));
        a.audit_running(3).expect("count matches the scan");
        // 2 tasks × 94 bytes over the 21 arrays, the one preference (its
        // length and two nodes) and the running counts of jobs 0..=3.
        let pool = a.prefs_pool.capacity();
        assert!(pool >= 3);
        assert_eq!(a.heap_bytes(), 2 * 94 + pool * 4 + 4 * 4);
        // Preferences shrink in place, in order, down to "any node".
        a.retain_prefs(0, |n| n != 4);
        assert_eq!(a.prefs_of(0), [5]);
        a.retain_prefs(0, |_| false);
        a.retain_prefs(1, |_| false);
        assert_eq!((a.prefs_of(0), a.prefs_of(1)), (&[][..], &[][..]));
        assert_eq!(a.add_prefs([].into_iter()), 0, "no nodes, no entry");
        a.clear();
        assert_eq!((a.len(), a.pending()), (0, 0));
        assert_eq!(
            a.add_prefs([9].into_iter()),
            1,
            "the pool restarts with the arena"
        );
    }
}
