//! Metrics: per-task records and per-phase rollups.
//!
//! Every figure in the paper's evaluation is a view over these records:
//! job execution times (Figs 5, 7a, 8a, 9, 13a, 14a), phase dissections
//! (Figs 7b, 8b, 13, 14b), task-time spreads (Figs 8c, 8d, 10), and
//! per-node distributions (Fig 12). A task's record is its own row of the
//! task arena (`world/tasks.rs`), kept there while its job is resident, with
//! the job's finish-order list saying which rows are records; a departing
//! job takes its rows out as a `TaskTable` inside its [`JobMetrics`],
//! read back as [`TaskMetric`] rows.

use crate::world::TaskTable;

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

/// One task attempt, as [`JobMetrics::tasks`] yields it; the `*_at` instants
/// are simulated seconds.
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
    /// The finished task attempts' records, read through
    /// [`JobMetrics::tasks`]; `Debug` prints them as a list of
    /// [`TaskMetric`]s.
    pub(crate) tasks: TaskTable,
    /// Fault-recovery activity during this job.
    pub recovery: RecoveryCounters,
}

impl JobMetrics {
    pub fn job_time(&self) -> f64 {
        self.finished_at - self.started_at
    }

    /// The records of the job's finished task attempts, in finish order
    /// (a losing speculative twin leaves none).
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskMetric> + '_ {
        self.tasks.rows()
    }

    pub fn tasks_in(&self, phase: Phase) -> impl Iterator<Item = TaskMetric> + '_ {
        self.tasks().filter(move |t| t.phase == phase)
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
        self.per_node(phase, workers, |_| 1)
    }

    /// Intermediate bytes deposited per node by compute tasks (Fig 12b).
    /// Same shape as [`JobMetrics::tasks_per_node`]: trailing overflow
    /// bucket for out-of-range node ids.
    pub fn intermediate_per_node(&self, workers: u32) -> Vec<f64> {
        self.per_node(Phase::Compute, workers, |t| t.output_bytes)
    }

    /// `value` of each task of `phase` summed per node, in record order.
    fn per_node<T: Copy + Default + std::ops::AddAssign>(
        &self,
        phase: Phase,
        workers: u32,
        value: impl Fn(&TaskMetric) -> T,
    ) -> Vec<T> {
        let mut v = vec![T::default(); workers as usize + 1];
        for t in self.tasks_in(phase) {
            debug_assert!(
                (t.node as usize) < workers as usize,
                "task node {} out of range for {} workers",
                t.node,
                workers
            );
            let slot = (t.node as usize).min(workers as usize);
            if let Some(n) = v.get_mut(slot) {
                *n += value(&t);
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
            started_at: 0.0,
            finished_at: 10.0,
            tasks: TaskTable::from_rows([
                mk(Phase::Compute, 0, 1.0, 3.0, 10.0),
                mk(Phase::Compute, 1, 2.0, 6.0, 20.0),
                mk(Phase::Storing, 0, 6.0, 9.0, 0.0),
            ]),
            ..JobMetrics::default()
        };
        assert!((jm.phase_time(Phase::Compute) - 5.0).abs() < 1e-12);
        assert!((jm.phase_time(Phase::Storing) - 3.0).abs() < 1e-12);
        assert_eq!(jm.phase_time(Phase::Shuffling), 0.0);
        assert!((jm.job_time() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn spreads_and_distributions() {
        let jm = JobMetrics {
            started_at: 0.0,
            finished_at: 1.0,
            tasks: TaskTable::from_rows([
                mk(Phase::Compute, 0, 0.0, 1.0, 5.0),
                mk(Phase::Compute, 0, 0.0, 2.0, 5.0),
                mk(Phase::Compute, 1, 0.0, 4.0, 30.0),
            ]),
            ..JobMetrics::default()
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
            started_at: 0.0,
            finished_at: 1.0,
            tasks: TaskTable::from_rows([a, b, c]),
            ..JobMetrics::default()
        };
        assert!((jm.locality_fraction() - 0.5).abs() < 1e-12);
    }
}
