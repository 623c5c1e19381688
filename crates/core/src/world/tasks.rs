//! Task states and the SoA task arena.

#![allow(clippy::indexing_slicing)]

use super::*;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum TaskKind {
    Compute { part: u32 },
    Store { producer: u32 },
    Fetch { reducer: u32 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum TState {
    Pending,
    Running,
    Done,
}

/// [`Task::pin`] of a task that may run anywhere.
pub(super) const UNPINNED: u32 = u32::MAX;

pub(super) struct Task {
    /// Owning job id (multi-tenant streams keep several jobs resident).
    pub(super) job: u32,
    pub(super) stage: u32,
    pub(super) kind: TaskKind,
    pub(super) state: TState,
    pub(super) node: u32,
    pub(super) queued_at: SimTime,
    pub(super) launched_at: SimTime,
    pub(super) compute_dur: SimDuration,
    /// Pipelined tasks finish at max(io_done, launch+compute); non-pipelined
    /// (fetch) tasks start computing only after all their data lands.
    pub(super) pipelined: bool,
    pub(super) pending_io: u32,
    pub(super) finish_scheduled: bool,
    pub(super) input_bytes: f64,
    pub(super) output_bytes: f64,
    pub(super) records_est: u64,
    pub(super) records_out: Option<Box<RealOut>>,
    pub(super) locality: TaskLocality,
    /// Preferred nodes (HDFS replicas / cache location). Empty = any.
    pub(super) prefs: Vec<u32>,
    /// The only node a pinned task may run on (storing phase: a flush runs
    /// where its producer ran), [`UNPINNED`] otherwise. Kept beside `prefs`
    /// (empty for a pinned task) so the storing phase's one task per
    /// producer costs no allocation each.
    pub(super) pin: u32,
    /// Speculative-execution twin (LATE baseline): the other copy's id.
    pub(super) twin: Option<u32>,
    /// True for the duplicate copy of a speculated task.
    pub(super) is_speculative: bool,
    /// Attempt number; bumped on every failure so stale completion events
    /// from an earlier attempt are dropped.
    pub(super) attempt: u32,
    /// The injected-fault engine marked the running attempt to fail at the
    /// moment it would have finished (the whole duration becomes wasted
    /// work). Set at launch, cleared when the attempt fails; completions of
    /// earlier attempts never get as far as reading it.
    pub(super) doomed: bool,
    /// Recovery ghost: charges compute/IO time for redone work after a node
    /// crash but deposits nothing (the lost rows were already re-hosted).
    pub(super) ghost: bool,
}

impl Task {
    /// A freshly queued task of `kind`: pending, unplaced, first attempt, no
    /// placement preference. The one `Task` literal — push sites set only
    /// the fields their flavour changes (prefs/pin, twin, ghost).
    pub(super) fn new(job: u32, stage: u32, kind: TaskKind, now: SimTime) -> Task {
        Task {
            job,
            stage,
            kind,
            state: TState::Pending,
            node: u32::MAX,
            queued_at: now,
            launched_at: now,
            compute_dur: SimDuration::ZERO,
            pipelined: !matches!(kind, TaskKind::Fetch { .. }),
            pending_io: 0,
            finish_scheduled: false,
            input_bytes: 0.0,
            output_bytes: 0.0,
            records_est: 0,
            records_out: None,
            locality: TaskLocality::Any,
            prefs: Vec::new(),
            pin: UNPINNED,
            twin: None,
            is_speculative: false,
            attempt: 0,
            doomed: false,
            ghost: false,
        }
    }
}

/// SoA task arena (DESIGN.md, scale-out engine): every per-task field lives
/// in its own flat `Vec` indexed by task id. The hot scheduling scans
/// (dispatch, crash handling, stale-completion filtering) each touch one or
/// two fields of many tasks, so at 10⁶ tasks they walk dense homogeneous
/// arrays instead of striding over ~130-byte task structs. [`Task`] survives
/// as the push-site constructor — the arena scatters it on insert — and
/// real-record payloads ([`RealOut`]) are moved, never copied.
#[derive(Default)]
pub(super) struct TaskArena {
    pub(super) job: Vec<u32>,
    pub(super) stage: Vec<u32>,
    pub(super) kind: Vec<TaskKind>,
    pub(super) state: Vec<TState>,
    pub(super) node: Vec<u32>,
    pub(super) queued_at: Vec<SimTime>,
    pub(super) launched_at: Vec<SimTime>,
    pub(super) compute_dur: Vec<SimDuration>,
    pub(super) pipelined: Vec<bool>,
    pub(super) pending_io: Vec<u32>,
    pub(super) finish_scheduled: Vec<bool>,
    pub(super) input_bytes: Vec<f64>,
    pub(super) output_bytes: Vec<f64>,
    pub(super) records_est: Vec<u64>,
    /// Real output of an evaluated chain, from its commit to the task's
    /// finish (boxed: synthetic tasks pay one null pointer).
    pub(super) records_out: Vec<Option<Box<RealOut>>>,
    pub(super) locality: Vec<TaskLocality>,
    pub(super) prefs: Vec<Vec<u32>>,
    pub(super) pin: Vec<u32>,
    pub(super) twin: Vec<Option<u32>>,
    pub(super) is_speculative: Vec<bool>,
    pub(super) attempt: Vec<u32>,
    pub(super) doomed: Vec<bool>,
    pub(super) ghost: Vec<bool>,
    /// Tasks currently in `TState::Pending` — dispatch early-exits on zero.
    pub(super) pending: usize,
    /// Tasks currently in `TState::Running`, by owning job id (job ids are
    /// minted densely) — what the fair-share order reads per dispatch.
    pub(super) running: Vec<u32>,
}

/// Make the same `Vec` call on every per-task array of a [`TaskArena`].
macro_rules! each_task_array {
    ($arena:expr, $call:ident($($arg:expr),*)) => {
        $arena.job.$call($($arg),*);
        $arena.stage.$call($($arg),*);
        $arena.kind.$call($($arg),*);
        $arena.state.$call($($arg),*);
        $arena.node.$call($($arg),*);
        $arena.queued_at.$call($($arg),*);
        $arena.launched_at.$call($($arg),*);
        $arena.compute_dur.$call($($arg),*);
        $arena.pipelined.$call($($arg),*);
        $arena.pending_io.$call($($arg),*);
        $arena.finish_scheduled.$call($($arg),*);
        $arena.input_bytes.$call($($arg),*);
        $arena.output_bytes.$call($($arg),*);
        $arena.records_est.$call($($arg),*);
        $arena.records_out.$call($($arg),*);
        $arena.locality.$call($($arg),*);
        $arena.prefs.$call($($arg),*);
        $arena.pin.$call($($arg),*);
        $arena.twin.$call($($arg),*);
        $arena.is_speculative.$call($($arg),*);
        $arena.attempt.$call($($arg),*);
        $arena.doomed.$call($($arg),*);
        $arena.ghost.$call($($arg),*);
    };
}

impl TaskArena {
    pub(super) fn len(&self) -> usize {
        self.state.len()
    }

    pub(super) fn contains(&self, id: u32) -> bool {
        (id as usize) < self.state.len()
    }

    /// Make room for `n` more tasks: a stage grows each array once, to
    /// exactly what it needs, instead of doubling its way there.
    pub(super) fn reserve(&mut self, n: usize) {
        each_task_array!(self, reserve_exact(n));
    }

    pub(super) fn push(&mut self, t: Task) {
        debug_assert_eq!(t.state, TState::Pending, "tasks are born pending");
        if self.running.len() <= t.job as usize {
            self.running.resize(t.job as usize + 1, 0);
        }
        self.job.push(t.job);
        self.stage.push(t.stage);
        self.kind.push(t.kind);
        self.state.push(t.state);
        self.node.push(t.node);
        self.queued_at.push(t.queued_at);
        self.launched_at.push(t.launched_at);
        self.compute_dur.push(t.compute_dur);
        self.pipelined.push(t.pipelined);
        self.pending_io.push(t.pending_io);
        self.finish_scheduled.push(t.finish_scheduled);
        self.input_bytes.push(t.input_bytes);
        self.output_bytes.push(t.output_bytes);
        self.records_est.push(t.records_est);
        self.records_out.push(t.records_out);
        self.locality.push(t.locality);
        self.prefs.push(t.prefs);
        self.pin.push(t.pin);
        self.twin.push(t.twin);
        self.is_speculative.push(t.is_speculative);
        self.attempt.push(t.attempt);
        self.doomed.push(t.doomed);
        self.ghost.push(t.ghost);
        self.pending += 1;
    }

    /// The only state-transition path: keeps the pending count and the
    /// per-job running counts exact.
    pub(super) fn set_state(&mut self, id: u32, s: TState) {
        let cur = &mut self.state[id as usize];
        self.pending -= (*cur == TState::Pending) as usize;
        self.pending += (s == TState::Pending) as usize;
        let running = &mut self.running[self.job[id as usize] as usize];
        *running -= (*cur == TState::Running) as u32;
        *running += (s == TState::Running) as u32;
        *cur = s;
    }

    /// Check one job's [`TaskArena::running`] count against an arena scan.
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

    pub(super) fn clear(&mut self) {
        each_task_array!(self, clear());
        self.pending = 0;
        self.running.clear();
    }

    /// Heap charged to the arena's flat arrays (self-profiling).
    pub(super) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.job.capacity() * size_of::<u32>()
            + self.stage.capacity() * size_of::<u32>()
            + self.kind.capacity() * size_of::<TaskKind>()
            + self.state.capacity() * size_of::<TState>()
            + self.node.capacity() * size_of::<u32>()
            + self.queued_at.capacity() * size_of::<SimTime>()
            + self.launched_at.capacity() * size_of::<SimTime>()
            + self.compute_dur.capacity() * size_of::<SimDuration>()
            + self.pipelined.capacity()
            + self.pending_io.capacity() * size_of::<u32>()
            + self.finish_scheduled.capacity()
            + self.input_bytes.capacity() * size_of::<f64>()
            + self.output_bytes.capacity() * size_of::<f64>()
            + self.records_est.capacity() * size_of::<u64>()
            + self.records_out.capacity() * size_of::<Option<Box<RealOut>>>()
            + self.locality.capacity() * size_of::<TaskLocality>()
            + self.prefs.capacity() * size_of::<Vec<u32>>()
            + self
                .prefs
                .iter()
                .map(|p| p.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self.pin.capacity() * size_of::<u32>()
            + self.twin.capacity() * size_of::<Option<u32>>()
            + self.is_speculative.capacity()
            + self.attempt.capacity() * size_of::<u32>()
            + self.doomed.capacity()
            + self.ghost.capacity()
            + self.running.capacity() * size_of::<u32>()
    }
}
