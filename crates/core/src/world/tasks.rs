//! Tasks: what one is ([`TaskKind`], [`TState`]), the push-site record
//! ([`Task`]), the struct-of-arrays arena every task lives in ([`TaskArena`],
//! DESIGN.md §4.12) and the table of records a departing job takes out of it
//! ([`TaskTable`]).

use crate::executor::RealOut;
use crate::metrics::{Phase, TaskLocality, TaskMetric};
use memres_des::time::{SimDuration, SimTime};
use memres_trace::TaskClass;
use std::collections::BTreeMap;
use std::fmt;
use std::mem::size_of;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum TaskKind {
    Compute { part: u32 },
    Store { producer: u32 },
    Fetch { reducer: u32 },
}

impl TaskKind {
    /// The kind of a task of `phase` standing for `index` (the inverse of
    /// [`TaskKind::phase`] and [`TaskKind::index`]).
    pub(super) fn new(phase: Phase, index: u32) -> TaskKind {
        match phase {
            Phase::Compute => TaskKind::Compute { part: index },
            Phase::Storing => TaskKind::Store { producer: index },
            Phase::Shuffling => TaskKind::Fetch { reducer: index },
        }
    }

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

/// One bit of a task's `flags` byte, read and written through
/// [`TaskArena::flag`] and [`TaskArena::set_flag`].
#[derive(Clone, Copy)]
pub(super) enum Flag {
    /// The attempt's `TaskFinish` is in the calendar.
    FinishScheduled = 1,
    /// The duplicate copy of a speculated task (LATE baseline).
    Speculative = 2,
    /// The injected-fault engine marked the running attempt to fail at the
    /// moment it would have finished (the whole duration becomes wasted
    /// work). Set at launch, cleared when the attempt fails; completions of
    /// earlier attempts never get as far as reading it.
    Doomed = 4,
    /// Recovery ghost: charges compute/IO time for redone work after a node
    /// crash but deposits nothing (the lost rows were already re-hosted).
    Ghost = 8,
}

/// The per-task fields, written once, each with the value a freshly queued
/// task has: [`Task`] holds one of each, and [`TaskArena`] a flat `Vec` of
/// each with the whole-arena operations that must touch every array
/// (`reserve`, `push`, `heap_bytes`). The `record` fields are also what a
/// finished task leaves: [`TaskTable`] holds those columns alone, and a
/// departing job takes them out of the arena (`into_records`,
/// `gather_records`).
macro_rules! task_fields {
    (
        fn new($($arg:ident: $argty:ty),*);
        record {
            $($(#[$rdoc:meta])* $rfield:ident: $rty:ty = $rfresh:expr,)*
        }
        run {
            $($(#[$doc:meta])* $field:ident: $ty:ty = $fresh:expr,)*
        }
    ) => {
        pub(super) struct Task {
            $($(#[$rdoc])* pub(super) $rfield: $rty,)*
            $($(#[$doc])* pub(super) $field: $ty,)*
        }

        impl Task {
            /// A freshly queued task of `kind`: pending, unplaced, first
            /// attempt, no placement preference. The one `Task` literal —
            /// push sites set only the fields their flavour changes
            /// (prefs/pin, twin, flags).
            pub(super) fn new($($arg: $argty),*) -> Task {
                Task { $($rfield: $rfresh,)* $($field: $fresh,)* }
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
        /// `real_out`, the sizes of real reducers' aggregations in
        /// `reduced_bytes` and speculation's pairs in `twins` (a final stage's
        /// record counts are the job's, `JobRun::final_records`). The byte
        /// table is DESIGN.md §4.12; [`TASK_BYTES`] pins its sum.
        #[derive(Default)]
        pub(super) struct TaskArena {
            $(pub(super) $rfield: Vec<$rty>,)*
            $(pub(super) $field: Vec<$ty>,)*
            /// The preferred nodes of the tasks that have any, back to back: each
            /// entry is its length, then that many node ids. A task's `prefs` is
            /// the index of its entry's first id — never 0, where the first
            /// entry's length sits.
            prefs_pool: Vec<u32>,
            /// Real output of an evaluated chain or reduce that has a reader,
            /// committed by the dispatch round's flush: a producer's buckets,
            /// until `producer_finished` deposits them at its finish; a final
            /// task's rows for a `Collect` or `Reduce` action, until its job
            /// departs and `finish_job` takes them. Only real-record runs put
            /// anything here, and a `Count` job's final stage puts nothing.
            /// A departing job takes every entry of its tasks with it
            /// ([`TaskArena::forget_outputs`]).
            pub(super) real_out: BTreeMap<u32, RealOut>,
            /// The size of a real reducer's aggregation, committed by the
            /// flush after its fetch task's first launch and kept across its
            /// retries: what the reducer deposits and its flush stores, read
            /// through [`TaskArena::out_bytes`]. The task's record keeps the
            /// launch-time estimate in `output_bytes`. Gone with its job.
            pub(super) reduced_bytes: BTreeMap<u32, f64>,
            /// Speculative-execution twins (LATE baseline): each copy of a
            /// speculated pair maps to the other. Read through
            /// [`TaskArena::twin`].
            twins: BTreeMap<u32, u32>,
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
                $(self.$rfield.reserve_exact(n);)*
                $(self.$field.reserve_exact(n);)*
            }

            pub(super) fn push(&mut self, t: Task) {
                debug_assert_eq!(t.state, TState::Pending, "tasks are born pending");
                // Id `u32::MAX` is the task bits of a flush tag (`FLUSH_TASK`).
                assert!(self.state.len() < u32::MAX as usize, "task arena full");
                if self.running.len() <= t.job as usize {
                    self.running.resize(t.job as usize + 1, 0);
                }
                $(self.$rfield.push(t.$rfield);)*
                $(self.$field.push(t.$field);)*
                self.pending += 1;
            }

            /// Heap charged to the arena's flat arrays and twin pairs
            /// (self-profiling).
            pub(super) fn heap_bytes(&self) -> usize {
                (self.prefs_pool.capacity() + self.running.capacity() + 2 * self.twins.len())
                    * size_of::<u32>()
                    $(+ self.$rfield.capacity() * size_of::<$rty>())*
                    $(+ self.$field.capacity() * size_of::<$ty>())*
            }

            /// The whole arena's record columns, moved out without a copy, with
            /// `order` (task ids, in finish order) saying which rows are
            /// records; the run-time columns are dropped.
            pub(super) fn into_records(self, order: Vec<u32>) -> TaskTable {
                TaskTable {
                    $($rfield: self.$rfield,)*
                    order: Some(order),
                }
            }

            /// Copies of the record rows of tasks `order`, in that order.
            pub(super) fn gather_records(&self, order: &[u32]) -> TaskTable {
                TaskTable {
                    $($rfield: order.iter().map(|&i| self.$rfield[i as usize]).collect(),)*
                    order: None,
                }
            }
        }

        /// A departed job's task records, one row per finished attempt, as
        /// struct-of-arrays columns of the arena's own types. Read as
        /// [`TaskMetric`] rows ([`TaskTable::rows`]); `Debug` prints that list
        /// of rows, the form a `Vec<TaskMetric>` had.
        #[derive(Clone, Default)]
        pub(crate) struct TaskTable {
            $($rfield: Vec<$rty>,)*
            /// Row `k` is column entry `order[k]` when the columns are a whole
            /// arena ([`TaskArena::into_records`]); `None` when they hold the
            /// rows in finish order themselves.
            order: Option<Vec<u32>>,
        }

        /// What one more task costs the arena, whatever its flavour.
        pub(super) const TASK_BYTES: usize = 0
            $(+ size_of::<$rty>())*
            $(+ size_of::<$ty>())*;
    };
}

task_fields! {
    fn new(job: u32, stage: u32, kind: TaskKind, now: SimTime);
    record {
        /// Owning job id (multi-tenant streams keep several jobs resident).
        job: u32 = job,
        stage: u32 = stage,
        /// The two halves of the task's [`TaskKind`], read whole through
        /// [`TaskArena::kind`].
        phase: Phase = kind.phase(),
        index: u32 = kind.index(),
        node: u32 = u32::MAX,
        queued_at: SimTime = now,
        launched_at: SimTime = now,
        /// Written once, when the attempt that counts finishes.
        finished_at: SimTime = now,
        input_bytes: f64 = 0.0,
        /// The size model's output at launch (a real reducer's aggregated
        /// size is in `reduced_bytes`).
        output_bytes: f64 = 0.0,
        locality: TaskLocality = TaskLocality::Any,
    }
    run {
        state: TState = TState::Pending,
        compute_dur: SimDuration = SimDuration::ZERO,
        pending_io: u32 = 0,
        /// Handle of the preferred nodes (HDFS replicas / cache location) from
        /// [`TaskArena::add_prefs`]; read through [`TaskArena::prefs_of`]. 0 = any.
        prefs: u32 = 0,
        /// The only node a pinned task may run on (storing phase: a flush runs
        /// where its producer ran), [`UNPINNED`] otherwise.
        pin: u32 = UNPINNED,
        /// Attempt number; bumped on every failure so stale completion events
        /// from an earlier attempt are dropped. A task that reaches
        /// `MAX_TASK_ATTEMPTS` aborts its job, so a byte holds it.
        attempt: u8 = 0,
        /// [`Flag`] bits.
        flags: u8 = 0,
    }
}

// The per-task footprint moves only on purpose (DESIGN.md §4.12 has the
// table).
const _: () = assert!(TASK_BYTES == 81);

impl TaskTable {
    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.order.as_ref().map_or(self.job.len(), Vec::len)
    }

    /// The records, in finish order.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = TaskMetric> + '_ {
        (0..self.len()).map(|k| {
            let i = self.order.as_ref().map_or(k, |o| o[k] as usize);
            TaskMetric {
                job: self.job[i],
                stage: self.stage[i],
                phase: self.phase[i],
                index: self.index[i],
                node: self.node[i],
                queued_at: self.queued_at[i].as_secs_f64(),
                launched_at: self.launched_at[i].as_secs_f64(),
                finished_at: self.finished_at[i].as_secs_f64(),
                input_bytes: self.input_bytes[i],
                output_bytes: self.output_bytes[i],
                locality: self.locality[i],
            }
        })
    }

    /// A table holding `rows`, in order (the inverse of [`TaskTable::rows`]).
    #[cfg(test)]
    pub(crate) fn from_rows(rows: impl IntoIterator<Item = TaskMetric>) -> TaskTable {
        let mut arena = TaskArena::default();
        for r in rows {
            let at = SimTime::from_secs_f64;
            let kind = TaskKind::new(r.phase, r.index);
            let mut t = Task::new(r.job, r.stage, kind, at(r.queued_at));
            t.node = r.node;
            t.launched_at = at(r.launched_at);
            t.finished_at = at(r.finished_at);
            t.input_bytes = r.input_bytes;
            t.output_bytes = r.output_bytes;
            t.locality = r.locality;
            arena.push(t);
        }
        let all: Vec<u32> = (0..arena.len() as u32).collect();
        arena.gather_records(&all)
    }
}

impl fmt::Debug for TaskTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.rows()).finish()
    }
}

impl TaskArena {
    #[inline]
    pub(super) fn flag(&self, id: u32, f: Flag) -> bool {
        self.flags[id as usize] & f as u8 != 0
    }

    #[inline]
    pub(super) fn set_flag(&mut self, id: u32, f: Flag, on: bool) {
        let bits = &mut self.flags[id as usize];
        *bits = if on {
            *bits | f as u8
        } else {
            *bits & !(f as u8)
        };
    }

    /// Task `id`'s kind, rebuilt from its `phase` and `index` columns.
    #[inline]
    pub(super) fn kind(&self, id: u32) -> TaskKind {
        TaskKind::new(self.phase[id as usize], self.index[id as usize])
    }

    /// The other copy of task `id` if it was speculated (LATE baseline).
    #[inline]
    pub(super) fn twin(&self, id: u32) -> Option<u32> {
        if self.twins.is_empty() {
            return None;
        }
        self.twins.get(&id).copied()
    }

    /// Record `a` and `b` as the two copies of one speculated task.
    pub(super) fn set_twins(&mut self, a: u32, b: u32) {
        self.twins.insert(a, b);
        self.twins.insert(b, a);
    }

    /// The bytes task `id` produced: a real reducer's aggregated size, else
    /// its `output_bytes`.
    pub(super) fn out_bytes(&self, id: u32) -> f64 {
        let reduced = self.reduced_bytes.get(&id).copied();
        reduced.unwrap_or(self.output_bytes[id as usize])
    }

    /// Drop job `job`'s entries in the output side tables (`real_out`,
    /// `reduced_bytes`) — whatever a finished, failed or losing speculative
    /// attempt left there — as the job departs.
    pub(super) fn forget_outputs(&mut self, job: u32) {
        let of_job = |t: &u32| self.job[*t as usize] == job;
        self.real_out.retain(|t, _| !of_job(t));
        self.reduced_bytes.retain(|t, _| !of_job(t));
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
        assert_eq!(a.pin[0], UNPINNED);
        // A kind is stored as its phase and index, and read back whole.
        for kind in [
            TaskKind::Compute { part: 7 },
            TaskKind::Store { producer: 8 },
            TaskKind::Fetch { reducer: u32::MAX },
        ] {
            let mut k = TaskArena::default();
            k.push(Task::new(0, 0, kind, SimTime::ZERO));
            assert_eq!((k.phase[0], k.index[0]), (kind.phase(), kind.index()));
            assert_eq!(k.kind(0), kind);
        }
        assert_eq!((a.prefs_of(0), a.prefs_of(1)), (&[4, 5][..], &[][..]));
        a.set_state(0, TState::Running);
        assert_eq!((a.pending(), a.running(3)), (1, 1));
        a.audit_running(3).expect("count matches the scan");
        // 2 tasks × 81 bytes over the 18 arrays, the one preference (its
        // length and two nodes) and the running counts of jobs 0..=3.
        let pool = a.prefs_pool.capacity();
        assert!(pool >= 3);
        assert_eq!(a.heap_bytes(), 2 * 81 + pool * 4 + 4 * 4);
        // A speculated pair reads its twin both ways and charges the arena
        // two entries of two ids; every other task has none.
        assert_eq!((a.twin(0), a.twin(1)), (None, None));
        a.push(Task::new(3, 1, a.kind(0), SimTime::ZERO));
        let unpaired = a.heap_bytes();
        a.set_twins(0, 2);
        assert_eq!((a.twin(0), a.twin(1), a.twin(2)), (Some(2), None, Some(0)));
        assert_eq!(a.heap_bytes(), unpaired + 2 * 2 * 4);
        // Preferences shrink in place, in order, down to "any node".
        a.retain_prefs(0, |n| n != 4);
        assert_eq!(a.prefs_of(0), [5]);
        a.retain_prefs(0, |_| false);
        a.retain_prefs(1, |_| false);
        assert_eq!((a.prefs_of(0), a.prefs_of(1)), (&[][..], &[][..]));
        assert_eq!(a.add_prefs([].into_iter()), 0, "no nodes, no entry");
        // The flags are four independent bits of one byte.
        a.set_flag(1, Flag::Ghost, true);
        a.set_flag(1, Flag::Doomed, true);
        a.set_flag(1, Flag::Ghost, false);
        assert!(a.flag(1, Flag::Doomed) && !a.flag(1, Flag::Ghost));
        assert!(!a.flag(0, Flag::Doomed), "a neighbour's bits stay put");
        // A real reducer's adopted size shadows its estimate for the readers
        // of what it produced, not in its record.
        a.output_bytes[1] = 10.0;
        a.reduced_bytes.insert(1, 4.0);
        assert_eq!((a.out_bytes(0), a.out_bytes(1)), (0.0, 4.0));
        // The records leave in finish order, gathered or moved out whole.
        a.finished_at[1] = SimTime::from_nanos(5);
        let gathered = format!("{:?}", a.gather_records(&[1]));
        assert!(gathered.starts_with("[TaskMetric { job: 3, stage: 1, phase: Shuffling,"));
        assert!(gathered.contains("finished_at: 5e-9, input_bytes: 0.0, output_bytes: 10.0,"));
        let moved = a.into_records(vec![1]);
        assert_eq!(moved.len(), 1);
        assert_eq!(format!("{moved:?}"), gathered);
    }
}
