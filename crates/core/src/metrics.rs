//! Metrics: per-task records and per-phase rollups.
//!
//! Every figure in the paper's evaluation is a view over these records:
//! job execution times (Figs 5, 7a, 8a, 9, 13a, 14a), phase dissections
//! (Figs 7b, 8b, 13, 14b), task-time spreads (Figs 8c, 8d, 10), and
//! per-node distributions (Fig 12).

use memres_des::time::SimTime;

/// Which phase of the MapReduce pipeline a task belongs to (§IV/Fig 4a).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Stage computation tasks (map/filter/flatMap pipelines).
    Compute,
    /// ShuffleMapTasks flushing in-memory output to the shuffle store.
    Storing,
    /// Fetch tasks moving intermediate data and aggregating it.
    Shuffling,
}

/// How local a task's input was (mirrors `memres-hdfs::Locality`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskLocality {
    NodeLocal,
    RackLocal,
    Remote,
    /// No placement preference existed (generators, Lustre input, fetches).
    Any,
}

/// One task attempt; the `*_at` instants are simulated seconds.
#[derive(Clone, Debug)]
pub struct TaskMetric {
    pub job: u32,
    pub stage: u32,
    pub phase: Phase,
    pub index: u32,
    pub node: u32,
    pub queued_at: f64,
    pub launched_at: f64,
    pub finished_at: f64,
    pub input_bytes: f64,
    pub output_bytes: f64,
    pub locality: TaskLocality,
}

impl TaskMetric {
    pub fn duration(&self) -> f64 {
        self.finished_at - self.launched_at
    }
}

/// What the recovery engine did during a job (DESIGN.md §4.9). All zeros on
/// a fault-free run; the `repro faults` cell and the fault tests key off
/// these.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RecoveryCounters {
    /// Node-crash fault events applied.
    pub node_crashes: u64,
    /// Crashed nodes that came back (transient crashes).
    pub node_restarts: u64,
    /// Task attempts that failed and were re-queued (any cause).
    pub tasks_retried: u64,
    /// Shuffle-fetch attempts that failed (network fault or source crash).
    pub failed_fetches: u64,
    /// Fetch retries scheduled with exponential backoff.
    pub fetch_retries: u64,
    /// Partitions recomputed from lineage (ghost recomputes after a crash
    /// plus cached partitions rebuilt from their recovery recipe).
    pub recomputed_partitions: u64,
    /// Cached partitions dropped by crashes / executor memory loss.
    pub blocks_lost: u64,
    /// Nodes blacklisted for repeated task-level failures.
    pub blacklisted_nodes: u64,
    /// SSD degradation fault events applied.
    pub ssd_degradations: u64,
    /// Simulated seconds of work thrown away by failed attempts.
    pub wasted_secs: f64,
    /// Jobs aborted after a task exhausted its attempt limit.
    pub aborted_jobs: u64,
}

impl RecoveryCounters {
    /// Any recovery activity at all? (Degradations alone don't count — they
    /// change timing, not correctness.)
    pub fn any(&self) -> bool {
        self.node_crashes
            + self.tasks_retried
            + self.failed_fetches
            + self.recomputed_partitions
            + self.blocks_lost
            + self.aborted_jobs
            > 0
    }
}

/// Completed-job metrics (the `*_at` instants in simulated seconds).
#[derive(Clone, Debug, Default)]
pub struct JobMetrics {
    pub job: u32,
    pub started_at: f64,
    pub finished_at: f64,
    pub tasks: Vec<TaskMetric>,
    /// Fault-recovery activity during this job.
    pub recovery: RecoveryCounters,
}

impl JobMetrics {
    pub fn job_time(&self) -> f64 {
        self.finished_at - self.started_at
    }

    pub fn tasks_in(&self, phase: Phase) -> impl Iterator<Item = &TaskMetric> {
        self.tasks.iter().filter(move |t| t.phase == phase)
    }

    /// Wall-clock span of a phase: first launch to last finish, summed over
    /// stages is unnecessary because phases of different stages don't
    /// overlap under serialized stage launch.
    pub fn phase_time(&self, phase: Phase) -> f64 {
        let mut start = f64::INFINITY;
        let mut end = f64::NEG_INFINITY;
        for t in self.tasks_in(phase) {
            start = start.min(t.launched_at);
            end = end.max(t.finished_at);
        }
        if end > start {
            end - start
        } else {
            0.0
        }
    }

    pub fn task_durations(&self, phase: Phase) -> Vec<f64> {
        self.tasks_in(phase).map(|t| t.duration()).collect()
    }

    /// (min, mean, max) task duration of a phase — Fig 8c / Fig 10 series.
    pub fn duration_spread(&self, phase: Phase) -> (f64, f64, f64) {
        let d = self.task_durations(phase);
        if d.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let min = d.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        (min, mean, max)
    }

    /// Tasks per node for a phase (Fig 12a). The returned vector has
    /// `workers + 1` entries: index `workers` is a trailing overflow bucket
    /// collecting any out-of-range node id, so bad records are visible in
    /// the rollup instead of silently dropped (and assert in debug builds).
    pub fn tasks_per_node(&self, phase: Phase, workers: u32) -> Vec<u32> {
        let mut v = vec![0u32; workers as usize + 1];
        for t in self.tasks_in(phase) {
            debug_assert!(
                (t.node as usize) < workers as usize,
                "task node {} out of range for {} workers",
                t.node,
                workers
            );
            let slot = (t.node as usize).min(workers as usize);
            if let Some(n) = v.get_mut(slot) {
                *n += 1;
            }
        }
        v
    }

    /// Intermediate bytes deposited per node by compute tasks (Fig 12b).
    /// Same shape as [`JobMetrics::tasks_per_node`]: trailing overflow
    /// bucket for out-of-range node ids.
    pub fn intermediate_per_node(&self, workers: u32) -> Vec<f64> {
        let mut v = vec![0.0; workers as usize + 1];
        for t in self.tasks_in(Phase::Compute) {
            debug_assert!(
                (t.node as usize) < workers as usize,
                "task node {} out of range for {} workers",
                t.node,
                workers
            );
            let slot = (t.node as usize).min(workers as usize);
            if let Some(n) = v.get_mut(slot) {
                *n += t.output_bytes;
            }
        }
        v
    }

    /// Fraction of compute tasks that ran node-local.
    pub fn locality_fraction(&self) -> f64 {
        let total = self.tasks_in(Phase::Compute).count();
        if total == 0 {
            return 0.0;
        }
        let local = self
            .tasks_in(Phase::Compute)
            .filter(|t| t.locality == TaskLocality::NodeLocal)
            .count();
        local as f64 / total as f64
    }
}

/// Collects task records during a run. Multi-job aware (DESIGN.md §4.14):
/// every concurrently resident job owns an in-progress [`JobMetrics`]; task
/// events route by job id, and cluster-wide faults broadcast to every active
/// job (each resident job experienced the crash). Events referring to a job
/// that already departed drop silently — the same observable behaviour the
/// old single-slot sink had between jobs.
#[derive(Default)]
pub struct MetricsSink {
    active: Vec<JobMetrics>,
}

impl MetricsSink {
    pub fn begin_job(&mut self, job: u32, now: SimTime) {
        self.active.push(JobMetrics {
            job,
            started_at: now.as_secs_f64(),
            finished_at: now.as_secs_f64(),
            tasks: Vec::new(),
            recovery: RecoveryCounters::default(),
        });
    }

    fn job_mut(&mut self, job: u32) -> Option<&mut JobMetrics> {
        self.active.iter_mut().find(|m| m.job == job)
    }

    /// Make room for `n` more task records of `job`: the engine creates a
    /// stage's tasks together, and each that finishes leaves one record.
    pub fn reserve(&mut self, job: u32, n: usize) {
        if let Some(jm) = self.job_mut(job) {
            jm.tasks.reserve_exact(n);
        }
    }

    /// Heap charged to the active jobs' task records (self-profiling).
    pub fn heap_bytes(&self) -> usize {
        let records: usize = self.active.iter().map(|m| m.tasks.capacity()).sum();
        records * std::mem::size_of::<TaskMetric>()
    }

    pub fn record(&mut self, m: TaskMetric) {
        if let Some(jm) = self.job_mut(m.job) {
            jm.tasks.push(m);
        }
    }

    /// Recovery counters of one active job, for task-attributed events
    /// (retries, blacklisting, recomputes). `None` if the job departed.
    pub fn recovery(&mut self, job: u32) -> Option<&mut RecoveryCounters> {
        self.job_mut(job).map(|m| &mut m.recovery)
    }

    /// Apply a cluster-wide recovery event (node crash/restart, block loss,
    /// SSD degradation) to every active job.
    pub fn recovery_all(&mut self, f: impl Fn(&mut RecoveryCounters)) {
        for m in self.active.iter_mut() {
            f(&mut m.recovery);
        }
    }

    /// Close out `job`'s metrics and remove it from the active set.
    pub fn finish_job(&mut self, job: u32, now: SimTime) -> JobMetrics {
        let mut m = match self.active.iter().position(|m| m.job == job) {
            Some(i) => self.active.remove(i),
            None => JobMetrics {
                job,
                ..JobMetrics::default()
            },
        };
        m.finished_at = now.as_secs_f64();
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(phase: Phase, node: u32, launch: f64, finish: f64, out: f64) -> TaskMetric {
        TaskMetric {
            job: 0,
            stage: 0,
            phase,
            index: 0,
            node,
            queued_at: launch,
            launched_at: launch,
            finished_at: finish,
            input_bytes: 0.0,
            output_bytes: out,
            locality: TaskLocality::Any,
        }
    }

    #[test]
    fn phase_time_spans_first_launch_to_last_finish() {
        let jm = JobMetrics {
            job: 0,
            started_at: 0.0,
            finished_at: 10.0,
            tasks: vec![
                mk(Phase::Compute, 0, 1.0, 3.0, 10.0),
                mk(Phase::Compute, 1, 2.0, 6.0, 20.0),
                mk(Phase::Storing, 0, 6.0, 9.0, 0.0),
            ],
            recovery: RecoveryCounters::default(),
        };
        assert!((jm.phase_time(Phase::Compute) - 5.0).abs() < 1e-12);
        assert!((jm.phase_time(Phase::Storing) - 3.0).abs() < 1e-12);
        assert_eq!(jm.phase_time(Phase::Shuffling), 0.0);
        assert!((jm.job_time() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn spreads_and_distributions() {
        let jm = JobMetrics {
            job: 0,
            started_at: 0.0,
            finished_at: 1.0,
            tasks: vec![
                mk(Phase::Compute, 0, 0.0, 1.0, 5.0),
                mk(Phase::Compute, 0, 0.0, 2.0, 5.0),
                mk(Phase::Compute, 1, 0.0, 4.0, 30.0),
            ],
            recovery: RecoveryCounters::default(),
        };
        let (min, mean, max) = jm.duration_spread(Phase::Compute);
        assert_eq!((min, max), (1.0, 4.0));
        assert!((mean - 7.0 / 3.0).abs() < 1e-12);
        // Trailing overflow bucket (empty here: all nodes in range).
        assert_eq!(jm.tasks_per_node(Phase::Compute, 2), vec![2, 1, 0]);
        assert_eq!(jm.intermediate_per_node(2), vec![10.0, 30.0, 0.0]);
    }

    #[test]
    fn locality_fraction_counts_compute_only() {
        let mut a = mk(Phase::Compute, 0, 0.0, 1.0, 0.0);
        a.locality = TaskLocality::NodeLocal;
        let b = mk(Phase::Compute, 0, 0.0, 1.0, 0.0);
        let mut c = mk(Phase::Shuffling, 0, 0.0, 1.0, 0.0);
        c.locality = TaskLocality::NodeLocal;
        let jm = JobMetrics {
            job: 0,
            started_at: 0.0,
            finished_at: 1.0,
            tasks: vec![a, b, c],
            recovery: RecoveryCounters::default(),
        };
        assert!((jm.locality_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sink_lifecycle() {
        let mut sink = MetricsSink::default();
        sink.begin_job(3, SimTime::from_secs_f64(1.0));
        let mut m = mk(Phase::Compute, 0, 1.0, 2.0, 0.0);
        m.job = 3;
        sink.record(m);
        let jm = sink.finish_job(3, SimTime::from_secs_f64(5.0));
        assert_eq!(jm.job, 3);
        assert_eq!(jm.tasks.len(), 1);
        assert!((jm.job_time() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn sink_routes_by_job_and_broadcasts_faults() {
        let mut sink = MetricsSink::default();
        sink.begin_job(1, SimTime::ZERO);
        sink.begin_job(2, SimTime::from_secs_f64(1.0));
        let mut m = mk(Phase::Compute, 0, 1.0, 2.0, 0.0);
        m.job = 2;
        sink.record(m);
        // Task event belonging to a departed job drops silently.
        let mut stale = mk(Phase::Compute, 0, 1.0, 2.0, 0.0);
        stale.job = 9;
        sink.record(stale);
        if let Some(rec) = sink.recovery(1) {
            rec.tasks_retried += 1;
        }
        sink.recovery_all(|r| r.node_crashes += 1);
        let a = sink.finish_job(1, SimTime::from_secs_f64(2.0));
        let b = sink.finish_job(2, SimTime::from_secs_f64(3.0));
        assert_eq!(a.tasks.len(), 0);
        assert_eq!(b.tasks.len(), 1);
        assert_eq!(a.recovery.tasks_retried, 1);
        assert_eq!(b.recovery.tasks_retried, 0);
        assert_eq!(a.recovery.node_crashes, 1);
        assert_eq!(b.recovery.node_crashes, 1);
        // Finishing an unknown job yields an empty record, not a panic.
        assert_eq!(sink.finish_job(9, SimTime::ZERO).tasks.len(), 0);
    }
}
