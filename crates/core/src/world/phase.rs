//! The phase machine: a job's run through the paper's three-phase pipeline
//! (Fig 4a), stage by stage — compute (or fetch), then store, then the next
//! stage's fetch — each phase holding the shuffles it reads and writes.
//!
//! A phase owns its shuffles, so a transition moves them: `start_stage`
//! puts the shuffle a stage writes into the stage's phase, `start_storing`
//! moves it into `Storing`, and the next fetch stage takes it as the one it
//! reads. What the shuffles hold, and every branch on where the data lives,
//! stay in `world/shuffle.rs`.

use super::shuffle::ShuffleState;
use super::tasks::{Task, TaskKind};
use super::{Ev, JobOutput, JobRun, SimWorld};
use crate::dag::StageInput;
use crate::executor::RealOut;
use crate::metrics::TaskLocality;
use crate::rdd::Action;
use crate::value::{Record, Value};
use memres_des::sim::Outbox;
use memres_des::time::SimTime;
use memres_trace::TraceEvent as TE;
use std::sync::Arc;

/// Where a job is in its pipeline, with the shuffles that phase works on.
pub(super) enum RunPhase {
    /// The job's stage runs. A fetch stage reads `reading`, the shuffle the
    /// stage before it stored; a stage that feeds a shuffle deposits its
    /// tasks' output into `writing`.
    Stage {
        reading: Option<ShuffleState>,
        writing: Option<ShuffleState>,
    },
    /// The stage's outputs flush into `writing`. `spent` is the shuffle the
    /// stage read: nothing reads it again, and its fetch flows close when
    /// the next fetch stage begins.
    Storing {
        writing: ShuffleState,
        spent: Option<ShuffleState>,
    },
}

impl RunPhase {
    /// A stage with no shuffle in place yet, for a transition to overwrite.
    pub(super) const BARE: RunPhase = RunPhase::Stage {
        reading: None,
        writing: None,
    };

    /// The shuffle this phase's fetch tasks read: a fetch stage's.
    pub(super) fn reading(&self) -> Option<&ShuffleState> {
        let RunPhase::Stage { reading, .. } = self else {
            return None;
        };
        reading.as_ref()
    }

    pub(super) fn reading_mut(&mut self) -> Option<&mut ShuffleState> {
        let RunPhase::Stage { reading, .. } = self else {
            return None;
        };
        reading.as_mut()
    }

    /// The shuffle this phase writes, if it writes one.
    pub(super) fn writing(&self) -> Option<&ShuffleState> {
        match self {
            RunPhase::Stage { writing, .. } => writing.as_ref(),
            RunPhase::Storing { writing, .. } => Some(writing),
        }
    }

    pub(super) fn writing_mut(&mut self) -> Option<&mut ShuffleState> {
        match self {
            RunPhase::Stage { writing, .. } => writing.as_mut(),
            RunPhase::Storing { writing, .. } => Some(writing),
        }
    }
}

impl SimWorld {
    /// Start stage `idx` of job `ji`. A fetch stage reads `reading`, the
    /// shuffle its predecessor stored, already readied by
    /// `begin_fetch_stage`; the first stage reads its dataset or cache.
    pub(super) fn start_stage(
        &mut self,
        now: SimTime,
        ji: usize,
        idx: usize,
        reading: Option<ShuffleState>,
        out: &mut Outbox<Ev>,
    ) {
        let plan = self.jobs[ji].plan.clone();
        let stage = &plan.stages[idx];
        let is_last = idx + 1 == plan.stages.len();

        // Resolve the partition count and whether the input holds real
        // records (the shuffle it writes does then), placing datasets. A
        // fetch stage has a partition per reducer of the shuffle it reads.
        let (nparts, real) = match (&reading, &stage.input) {
            (Some(sh), _) => (sh.reducers() as usize, sh.is_real()),
            (None, StageInput::Dataset { rdd, dataset }) => {
                let n = self.ensure_placed(*rdd, dataset);
                (n, self.inputs.is_real(*rdd))
            }
            (None, StageInput::Cached { rdd }) => (
                self.blockmgr.partition_count(*rdd),
                self.blockmgr.is_real(*rdd),
            ),
            // The planner starts a job at a dataset or a cache, and every
            // later stage is entered from a storing phase with its shuffle.
            (None, StageInput::Shuffle) => (0, false),
        };
        assert!(nparts > 0, "stage with zero partitions");

        // Open the shuffle this stage writes, if it writes one. It is
        // followed by one store task per task of this stage and then by the
        // shuffle's reducers.
        let writing =
            (stage.shuffle_out.as_ref()).map(|spec| self.open_shuffle(spec, nparts, real));
        let follow = |sh: &ShuffleState| nparts + sh.reducers() as usize;
        let followers = writing.as_ref().map_or(0, follow);

        // Declare cache points so partially-cached RDDs are not reused.
        for (_, rdd) in &stage.cache_points {
            self.blockmgr.declare(*rdd, nparts as u32);
        }

        // Create the stage's tasks. Room for the followers too, now, while
        // the arrays are small, is one growth instead of three that each
        // copy everything before them.
        self.reserve_tasks(ji, nparts + followers);
        let first = self.tasks.len() as u32;
        for i in 0..nparts {
            let kind = if reading.is_some() {
                TaskKind::Fetch { reducer: i as u32 }
            } else {
                TaskKind::Compute { part: i as u32 }
            };
            let mut t = Task::new(self.jobs[ji].id, idx as u32, kind, now);
            t.prefs = self.compute_prefs(stage, i as u32);
            self.tasks.push(t);
        }
        let created = first..self.tasks.len() as u32;
        self.trace(
            now,
            TE::StageStart {
                stage: idx as u32,
                tasks: created.len() as u32,
            },
        );
        {
            let job = &mut self.jobs[ji];
            (job.stage, job.phase) = (idx, RunPhase::Stage { reading, writing });
            job.remaining = created.len();
            job.stage_tasks = created.clone().collect();
            if is_last {
                job.final_records = vec![0; created.len()];
            }
            job.queues.begin_stage(now, self.cfg.speculation);
        }
        self.queue_tasks(now, ji, created);
        self.sched.rotate();
        out.immediately(Ev::Dispatch);
    }

    /// Make room for the `n` tasks job `ji` is about to create, in the
    /// arena and in the job's finish-order list: each array grows once, to
    /// exactly what it needs, instead of doubling its way there.
    pub(super) fn reserve_tasks(&mut self, ji: usize, n: usize) {
        self.tasks.reserve(n);
        self.jobs[ji].finish_order.reserve_exact(n);
    }

    /// Job `ji`'s current phase has finished its last task: a stage that
    /// writes a shuffle stores it, a storing phase hands it to the next
    /// (fetch) stage, and a stage that writes none was the job's last.
    pub(super) fn advance_phase(&mut self, now: SimTime, ji: usize, out: &mut Outbox<Ev>) {
        let job = &mut self.jobs[ji];
        match std::mem::replace(&mut job.phase, RunPhase::BARE) {
            RunPhase::Stage {
                reading: spent,
                writing: Some(writing),
            } => {
                job.phase = RunPhase::Storing { writing, spent };
                self.start_storing(now, ji, out);
            }
            last @ RunPhase::Stage { writing: None, .. } => {
                // The departing job gives back what its phase holds.
                job.phase = last;
                self.finish_job(now, ji, out);
            }
            RunPhase::Storing { mut writing, spent } => {
                let (id, next) = (job.id, job.stage + 1);
                self.begin_fetch_stage(now, id, &mut writing, spent, out);
                self.start_stage(now, ji, next, Some(writing), out);
            }
        }
    }

    fn start_storing(&mut self, now: SimTime, ji: usize, out: &mut Outbox<Ev>) {
        let job = &self.jobs[ji];
        let (producers, job_id, idx) = (job.stage_tasks.clone(), job.id, job.stage);
        self.reserve_tasks(ji, producers.len());
        let first = self.tasks.len() as u32;
        for &p in &producers {
            // A flush is pinned to its producer's node; if that node died or
            // was blacklisted since, the re-hosted rows flush at the
            // replacement instead.
            let mut node = self.tasks.node[p as usize];
            if !self.nodes.usable(node) {
                let Some(repl) = self.nodes.replacement() else {
                    self.abort_job(now, ji, out);
                    return;
                };
                node = repl;
            }
            let kind = TaskKind::Store { producer: p };
            let mut t = Task::new(job_id, idx as u32, kind, now);
            t.locality = TaskLocality::NodeLocal;
            t.pin = node;
            self.tasks.push(t);
        }
        let job = &mut self.jobs[ji];
        job.remaining = producers.len();
        job.queues.shrink();
        self.queue_tasks(now, ji, first..self.tasks.len() as u32);
        out.immediately(Ev::Dispatch);
    }

    /// Take the final tasks' shared output slices out of `real_out`, in task
    /// order, when every one kept real rows (only the final stage of a job
    /// whose action reads rows keeps any). `job` is departing: its current
    /// stage is the final one.
    fn take_final_rows(&mut self, job: &JobRun) -> Option<Vec<Arc<[Record]>>> {
        let rows = |t| match self.tasks.real_out.remove(t) {
            Some(RealOut::Rows(r)) => Some(r),
            _ => None,
        };
        job.stage_tasks.iter().map(rows).collect()
    }

    fn finish_job(&mut self, now: SimTime, ji: usize, out: &mut Outbox<Ev>) {
        let job = self.jobs.remove(ji);
        if self.tasks.running(job.id) > 0 {
            self.faults.abandon_io();
        }
        self.release_shuffles(now, &job, out);
        self.trace(
            now,
            TE::JobEnd {
                job: job.id,
                aborted: false,
            },
        );
        // The output count is the final partitions' record counts, real or
        // not; only an action that reads rows looks at them.
        let count: u64 = job.final_records.iter().sum();
        let (records, reduced) = match &job.plan.action {
            Action::Count => (None, None),
            Action::Collect => (self.take_final_rows(&job).map(|s| s.concat()), None),
            Action::Reduce(f) => {
                let fold = |slices: Vec<Arc<[Record]>>| {
                    let values = slices.iter().flat_map(|s| s.iter()).map(|(_, v)| v.clone());
                    values.reduce(|a, b| f(a, b)).unwrap_or(Value::Null)
                };
                (None, self.take_final_rows(&job).map(fold))
            }
        };
        let output = JobOutput {
            count,
            records,
            reduced,
            aborted: false,
        };
        self.job_departed(now, job, output, out);
    }
}
