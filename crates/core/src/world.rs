//! The simulated world: cluster + substrates + engine state, as one
//! discrete-event [`Model`].
//!
//! Execution model (paper Fig 4a):
//! * A job is a serial chain of stages (see [`crate::dag`]).
//! * A stage reading a dataset/cache runs **computation tasks** placed by the
//!   scheduling policy (FIFO / delay scheduling, optionally wrapped by ELB).
//!   Input I/O is *pipelined* with computation: task time ≈ max(io, compute)
//!   — the §V-A observation that "Spark pipelines computation with data
//!   input, further diminishing any benefit of data locality".
//! * If the stage feeds a shuffle, **ShuffleMapTasks (storing phase)** flush
//!   each producing task's in-memory output to the shuffle store, pinned to
//!   the node that produced it. CAD throttles their dispatch.
//! * The next stage's **fetch tasks (shuffling phase)** move intermediate
//!   data according to the configured [`ShuffleStore`] strategy, then
//!   aggregate and run their own narrow chain.
//!
//! All byte movement is charged to the substrate models: the flow-level
//! fabric, per-node `LocalFs` mounts (RAMDisk and SSD), the Lustre model
//! with its DLM, and the HDFS block map.

// The engine state is a set of dense arenas (stages, tasks, flows, nodes)
// whose indices are minted by this module and never escape it; `arr[id]` is
// the idiom throughout and each out-of-range access would be an engine bug,
// not a recoverable condition. Bounds-checked alternatives at ~190 sites
// would bury the scheduling logic, so the crate-level `indexing_slicing`
// warning is waived for this file only.
#![allow(clippy::indexing_slicing)]

use crate::blockmgr::BlockMgr;
use crate::candidates::Candidates;
use crate::config::{Defect, EngineConfig, InputSource, SchedulerKind, ShuffleStore, StoreDevice};
use crate::dag::build_plan;
use crate::dag::{JobPlan, ShuffleInSpec, StageInput, StagePlan};
use crate::executor::{evaluate, run_narrow_chain, ChainOut, Pending, RealOut, Work};
use crate::faults::FaultKind;
use crate::metrics::{MetricsSink, Phase, TaskLocality, TaskMetric};
use crate::rdd::{Action, Dataset, RddId};
use crate::tenancy::{FinishedJob, InterJobPolicy, StreamSpec};
use crate::value::{Record, Value};
use memres_cluster::{ClusterSpec, NodeId, SpeedModel, SpeedSampler};
use memres_des::sim::{EngineStats, Gen, Model, Outbox};
use memres_des::stats::LogHistogram;
use memres_des::time::{SimDuration, SimTime};
use memres_des::{Bytes, DetMap};
use memres_hdfs::{BlockId, Hdfs, HdfsConfig, HdfsFile, Locality};
use memres_lustre::{Lustre, LustreConfig, LustreFile};
use memres_metrics::Recorder;
use memres_net::{inflate_for_requests, Endpoint, Fabric, FlowId, FlowNet, LinkId};
use memres_storage::{CacheConfig, FileId, LocalFs, RamDisk, Ssd, SsdConfig};
use memres_trace::TraceEvent as TE;
use std::collections::VecDeque;
use std::sync::Arc;

/// File-id name spaces on the per-node filesystems / Lustre.
const HDFS_BLOCK_BASE: u64 = 1 << 40;
const SHUFFLE_FILE_BASE: u64 = 1 << 41;
const LUSTRE_INPUT_BASE: u64 = 1 << 42;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskKind {
    Compute { part: u32 },
    Store { producer: u32 },
    Fetch { reducer: u32 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TState {
    Pending,
    Running,
    Done,
}

/// [`Task::pin`] of a task that may run anywhere.
const UNPINNED: u32 = u32::MAX;

struct Task {
    /// Owning job id (multi-tenant streams keep several jobs resident).
    job: u32,
    stage: u32,
    kind: TaskKind,
    state: TState,
    node: u32,
    queued_at: SimTime,
    launched_at: SimTime,
    compute_dur: SimDuration,
    /// Pipelined tasks finish at max(io_done, launch+compute); non-pipelined
    /// (fetch) tasks start computing only after all their data lands.
    pipelined: bool,
    pending_io: u32,
    finish_scheduled: bool,
    input_bytes: f64,
    output_bytes: f64,
    records_est: u64,
    records_out: Option<Box<RealOut>>,
    locality: TaskLocality,
    /// Preferred nodes (HDFS replicas / cache location). Empty = any.
    prefs: Vec<u32>,
    /// The only node a pinned task may run on (storing phase: a flush runs
    /// where its producer ran), [`UNPINNED`] otherwise. Kept beside `prefs`
    /// (empty for a pinned task) so the storing phase's one task per
    /// producer costs no allocation each.
    pin: u32,
    /// Speculative-execution twin (LATE baseline): the other copy's id.
    twin: Option<u32>,
    /// True for the duplicate copy of a speculated task.
    is_speculative: bool,
    /// Attempt number; bumped on every failure so stale completion events
    /// from an earlier attempt are dropped.
    attempt: u32,
    /// The injected-fault engine marked the running attempt to fail at the
    /// moment it would have finished (the whole duration becomes wasted
    /// work). Set at launch, cleared when the attempt fails; completions of
    /// earlier attempts never get as far as reading it.
    doomed: bool,
    /// Recovery ghost: charges compute/IO time for redone work after a node
    /// crash but deposits nothing (the lost rows were already re-hosted).
    ghost: bool,
}

impl Task {
    /// A freshly queued task of `kind`: pending, unplaced, first attempt, no
    /// placement preference. The one `Task` literal — push sites set only
    /// the fields their flavour changes (prefs/pin, twin, ghost).
    fn new(job: u32, stage: u32, kind: TaskKind, now: SimTime) -> Task {
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
struct TaskArena {
    job: Vec<u32>,
    stage: Vec<u32>,
    kind: Vec<TaskKind>,
    state: Vec<TState>,
    node: Vec<u32>,
    queued_at: Vec<SimTime>,
    launched_at: Vec<SimTime>,
    compute_dur: Vec<SimDuration>,
    pipelined: Vec<bool>,
    pending_io: Vec<u32>,
    finish_scheduled: Vec<bool>,
    input_bytes: Vec<f64>,
    output_bytes: Vec<f64>,
    records_est: Vec<u64>,
    /// Real output of an evaluated chain, from its commit to the task's
    /// finish (boxed: synthetic tasks pay one null pointer).
    records_out: Vec<Option<Box<RealOut>>>,
    locality: Vec<TaskLocality>,
    prefs: Vec<Vec<u32>>,
    pin: Vec<u32>,
    twin: Vec<Option<u32>>,
    is_speculative: Vec<bool>,
    attempt: Vec<u32>,
    doomed: Vec<bool>,
    ghost: Vec<bool>,
    /// Tasks currently in `TState::Pending` — dispatch early-exits on zero.
    pending: usize,
    /// Tasks currently in `TState::Running`, by owning job id (job ids are
    /// minted densely) — what the fair-share order reads per dispatch.
    running: Vec<u32>,
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
    fn len(&self) -> usize {
        self.state.len()
    }

    fn contains(&self, id: u32) -> bool {
        (id as usize) < self.state.len()
    }

    /// Make room for `n` more tasks: a stage grows each array once, to
    /// exactly what it needs, instead of doubling its way there.
    fn reserve(&mut self, n: usize) {
        each_task_array!(self, reserve_exact(n));
    }

    fn push(&mut self, t: Task) {
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
    fn set_state(&mut self, id: u32, s: TState) {
        let cur = &mut self.state[id as usize];
        self.pending -= (*cur == TState::Pending) as usize;
        self.pending += (s == TState::Pending) as usize;
        let running = &mut self.running[self.job[id as usize] as usize];
        *running -= (*cur == TState::Running) as u32;
        *running += (s == TState::Running) as u32;
        *cur = s;
    }

    /// Check one job's [`TaskArena::running`] count against an arena scan.
    fn audit_running(&self, job: u32) -> Result<(), String> {
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

    fn clear(&mut self) {
        each_task_array!(self, clear());
        self.pending = 0;
        self.running.clear();
    }

    /// Heap charged to the arena's flat arrays (self-profiling).
    fn heap_bytes(&self) -> usize {
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

/// Network transfer tags.
#[derive(Clone, Copy, Debug)]
pub enum NetTag {
    /// Transfer that counts toward a task's outstanding I/O. `attempt` and
    /// `job` let completions of failed attempts / finished jobs drain as
    /// no-ops instead of corrupting a relaunched task.
    TaskIo { task: u32, attempt: u32, job: u32 },
    /// Lustre-shared revocation flush chunk.
    Flush,
}

/// Events of the simulated world.
#[derive(Debug)]
pub enum Ev {
    NetWake(Gen),
    FsWake {
        node: u32,
        ssd: bool,
        gen: Gen,
    },
    LustreWake(Gen),
    TaskFinish {
        task: u32,
        attempt: u32,
        job: u32,
    },
    Dispatch,
    DispatchNode {
        node: u32,
    },
    SpeedResample,
    /// Re-enqueue a failed task after its retry backoff.
    Requeue {
        task: u32,
        job: u32,
    },
    /// Apply `cfg.faults.events[idx]`.
    Fault {
        idx: usize,
    },
    /// A transiently-crashed node comes back (empty memory, disk intact).
    NodeRestart {
        node: u32,
    },
    /// Stream mode: tenant `tenant`'s `k`-th job arrives.
    JobArrival {
        tenant: u32,
        k: u32,
    },
    /// Lustre-shared OSS read start, one revocation round trip after the
    /// task became transfer-eligible. Deferred via an event so the flow
    /// network is only ever mutated at the current sim time — opening the
    /// flow eagerly at `now + revoke_latency` would run its clock ahead of
    /// any other resident job's traffic in that window.
    LustreSharedRead {
        task: u32,
        attempt: u32,
        job: u32,
    },
    /// Periodic metrics sampler tick (DESIGN.md §4.16). Armed once at the
    /// first submission when `cfg.metrics` is set; each firing snapshots
    /// every layer's gauges into the recorder and chains the next tick.
    MetricsSample,
}

/// Deposited intermediate bytes, logically `[node][reducer]`. The dense
/// matrix is exact and is used whenever real records flow or the matrix is
/// small (paper cells: at most 2^20 entries, always dense, bit-identical to
/// the historical `Vec<Vec<f64>>`). Huge synthetic shuffles switch to the
/// uniform variant: hash partitioning spreads each producer's output evenly
/// across reducers, so a per-node total loses nothing while cutting
/// O(workers x reducers) heap to O(workers).
enum ShuffleBuckets {
    Dense {
        reducers: u32,
        m: Vec<Vec<f64>>,
    },
    Uniform {
        reducers: u32,
        node_totals: Vec<f64>,
    },
}

impl ShuffleBuckets {
    /// Largest node x reducer product that still gets the dense matrix.
    const DENSE_LIMIT: usize = 1 << 20;

    fn new(workers: usize, reducers: u32, real: bool) -> Self {
        if real || workers.saturating_mul(reducers as usize) <= Self::DENSE_LIMIT {
            ShuffleBuckets::Dense {
                reducers,
                m: vec![vec![0.0; reducers as usize]; workers],
            }
        } else {
            ShuffleBuckets::Uniform {
                reducers,
                node_totals: vec![0.0; workers],
            }
        }
    }

    fn get(&self, node: usize, reducer: usize) -> f64 {
        match self {
            ShuffleBuckets::Dense { m, .. } => m[node][reducer],
            ShuffleBuckets::Uniform {
                reducers,
                node_totals,
            } => node_totals[node] / *reducers as f64,
        }
    }

    /// Targeted deposit. Real-record hashing only happens in the dense arm
    /// (the constructor forces dense when `real`); the uniform arm folds the
    /// bytes into the node total, preserving conservation.
    fn add(&mut self, node: usize, reducer: usize, bytes: f64) {
        match self {
            ShuffleBuckets::Dense { m, .. } => m[node][reducer] += bytes,
            ShuffleBuckets::Uniform { node_totals, .. } => node_totals[node] += bytes,
        }
    }

    /// Deposit `total` bytes spread evenly over every reducer (synthetic
    /// producers model hash partitioning as a perfectly even split).
    fn add_uniform(&mut self, node: usize, total: f64) {
        match self {
            ShuffleBuckets::Dense { reducers, m } => {
                let per = total / *reducers as f64;
                for b in m[node].iter_mut() {
                    *b += per;
                }
            }
            ShuffleBuckets::Uniform { node_totals, .. } => node_totals[node] += total,
        }
    }

    /// Recovery re-hosting: move every deposited byte of `dead` onto `repl`.
    fn move_node(&mut self, dead: usize, repl: usize) {
        match self {
            ShuffleBuckets::Dense { reducers, m } => {
                let row = std::mem::replace(&mut m[dead], vec![0.0; *reducers as usize]);
                for (b, bytes) in row.into_iter().enumerate() {
                    m[repl][b] += bytes;
                }
            }
            ShuffleBuckets::Uniform { node_totals, .. } => {
                let moved = std::mem::take(&mut node_totals[dead]);
                node_totals[repl] += moved;
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            ShuffleBuckets::Dense { m, .. } => {
                m.iter().map(|r| r.capacity() * 8).sum::<usize>()
                    + m.capacity() * std::mem::size_of::<Vec<f64>>()
            }
            ShuffleBuckets::Uniform { node_totals, .. } => node_totals.capacity() * 8,
        }
    }
}

/// [`ShuffleState::fetch_flows`] entry of a `(src, dst, kind)` no fetch has
/// used yet.
const UNOPENED: FlowId = FlowId(u64::MAX);

/// Intermediate-data state between a producing stage and its fetch stage.
struct ShuffleState {
    reducers: u32,
    spec: ShuffleInSpec,
    /// [node][reducer] → intermediate bytes deposited.
    buckets: ShuffleBuckets,
    /// Fetches ride rack-pair aggregate flows instead of per-node flows
    /// (decided once at creation from `EngineConfig::rack_agg_threshold`).
    aggregated: bool,
    /// Materialized buckets (real-data jobs): node → reducer → the
    /// *segments* deposited there, one per finished producer, each still the
    /// producer's own bucket allocation. A reducer gathers them node
    /// ascending, deposit order within a node.
    node_real: Option<Vec<Vec<Vec<Vec<Record>>>>>,
    /// Real aggregation per reducer: evaluated once, at the reducer's first
    /// launch; consumed once, at its successful finish.
    reduced: Vec<Reduced>,
    /// Per-node aggregated store file ids.
    local_files: Vec<Option<FileId>>,
    lustre_files: Vec<Option<LustreFile>>,
    /// Cached fraction per source node file at fetch start (Lustre-local).
    cached_frac: Vec<f64>,
    /// Lustre-shared: outstanding revocation flushes gating all fetches.
    flush_pending: usize,
    flush_done: bool,
    /// Fetch tasks whose MDS op finished while flushes were outstanding.
    waiting_for_flush: Vec<u32>,
    /// Persistent fetch flows, directly indexed (a reducer launch looks one
    /// up per source and kind; nothing iterates them but the release at the
    /// shuffle's end): row `dst * 2 + kind` — kind 0 = store/cached, 1 = OSS
    /// path — holds one entry per source, endpoints being racks when
    /// `aggregated` and nodes otherwise. A row stays empty until the first
    /// reducer lands on `dst`, so the table grows with the destinations
    /// used, not with endpoints².
    fetch_flows: Vec<Vec<FlowId>>,
}

impl ShuffleState {
    /// `racks` is `Some` when fetches ride rack-pair aggregate flows.
    fn new(
        reducers: u32,
        spec: ShuffleInSpec,
        workers: usize,
        real: bool,
        racks: Option<usize>,
    ) -> Self {
        ShuffleState {
            reducers,
            spec,
            buckets: ShuffleBuckets::new(workers, reducers, real),
            aggregated: racks.is_some(),
            node_real: real.then(|| vec![vec![Vec::new(); reducers as usize]; workers]),
            reduced: (0..if real { reducers } else { 0 })
                .map(|_| Reduced::Unlaunched)
                .collect(),
            local_files: vec![None; workers],
            lustre_files: vec![None; workers],
            cached_frac: vec![0.0; workers],
            flush_pending: 0,
            flush_done: false,
            waiting_for_flush: Vec::new(),
            fetch_flows: vec![Vec::new(); 2 * racks.unwrap_or(workers)],
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RunPhase {
    Stage(usize),
    Storing(usize),
}

struct JobRun {
    /// Job id (minted from `job_seq` at arrival/submission).
    id: u32,
    /// Owning tenant (0 for single-job runs).
    tenant: u32,
    arrived: SimTime,
    admitted: SimTime,
    plan: Arc<JobPlan>,
    phase: RunPhase,
    remaining: usize,
    /// Tasks of the currently running stage (the storing phase flushes their
    /// outputs).
    stage_tasks: Vec<u32>,
    /// Shuffle feeding the current fetch stage.
    shuffle_in: Option<ShuffleState>,
    /// Shuffle being produced by the current stage.
    shuffle_out: Option<ShuffleState>,
    final_tasks: Vec<u32>,
    /// Delay scheduling state: instant of this job's last locality-preferred
    /// launch. Per-job so one tenant's local progress never suppresses (or
    /// unlocks) another tenant's steal decisions.
    last_local_launch: SimTime,
    /// Completed compute-task durations of this job's current stage
    /// (speculation baseline's straggler threshold is a multiple of their
    /// median). Bucket counts do not depend on recording order, so this is
    /// the histogram a rebuild from the list of durations would give. Kept
    /// only when speculation is on.
    stage_durs: Option<LogHistogram>,
    /// Per-node intermediate bytes deposited by this job (ELB signal).
    intermediate: Vec<f64>,
    /// Every Lustre shuffle file this job has written, deleted when it
    /// leaves (a consumed shuffle's state is dropped long before).
    lustre_files: Vec<LustreFile>,
    // Per-job pending-task queues: the inter-job scheduler picks which job a
    // free slot serves; these serve the intra-job pick exactly as before.
    prefs_q: Vec<VecDeque<u32>>,
    no_pref_q: VecDeque<u32>,
    waiting_q: VecDeque<u32>,
}

/// One arrived-but-not-yet-admitted job in a multi-tenant stream.
struct PendingAdmission {
    id: u32,
    tenant: u32,
    k: u32,
    arrived: SimTime,
}

/// Multi-tenant stream bookkeeping (DESIGN.md §4.14).
struct StreamState {
    spec: StreamSpec,
    /// Arrivals scheduled (or chained, for closed-loop) but not yet fired.
    outstanding_arrivals: usize,
    /// Arrived jobs waiting for an admission slot, FIFO.
    queued: VecDeque<PendingAdmission>,
    /// Per-tenant count of arrivals scheduled so far (closed-loop tenants
    /// chain the next one at job departure).
    fired: Vec<u32>,
}

struct PlacedPart {
    bytes: f64,
    records: u64,
    /// Shared view of the source partition's records — placing a dataset and
    /// launching tasks over it never copies record data.
    data: Option<Arc<[Record]>>,
    hdfs_block: Option<BlockId>,
    lustre: Option<LustreFile>,
}

/// Where one reducer's real aggregation stands (see `ShuffleState::reduced`).
enum Reduced {
    /// No attempt of this reducer has launched; its segments still sit in
    /// `node_real`.
    Unlaunched,
    /// Evaluation is queued for this round's flush — or the result has been
    /// consumed by the attempt that finished.
    Taken,
    /// Evaluated: (output bytes, output records, output rows), parked until
    /// an attempt finishes. A retry finds it here and reuses it.
    Parked(f64, u64, RealOut),
}

/// Completed-job result.
#[derive(Clone, Debug)]
pub struct JobOutput {
    pub count: u64,
    pub records: Option<Vec<Record>>,
    pub reduced: Option<Value>,
    /// True when the job was aborted after a task exhausted its attempt
    /// limit (or no live node remained); the other fields are empty.
    pub aborted: bool,
}

pub struct SimWorld {
    pub spec: ClusterSpec,
    pub cfg: EngineConfig,
    pub net: FlowNet<NetTag>,
    pub fabric: Fabric,
    store_read_links: Vec<LinkId>,
    /// Per-node RAMDisk mount (HDFS blocks + RAMDisk shuffle store).
    ram_fs: Vec<LocalFs>,
    /// Per-node SSD mount (SSD shuffle store).
    ssd_fs: Vec<LocalFs>,
    pub lustre: Lustre,
    pub hdfs: Hdfs,
    speeds: SpeedSampler,
    pub metrics: MetricsSink,

    tasks: TaskArena,
    /// Scratch of `launch_fetch`: the `(flow, wire bytes)` pairs of one
    /// reducer launch, handed to the network in one `push_chunks`.
    fetch_chunks: Vec<(FlowId, Bytes)>,
    /// An attempt was abandoned with I/O possibly in flight (failed attempt,
    /// aborted job, speculation copy outliving its job); it drains as stale
    /// completions, so an idle cluster may have busy substrates until an
    /// audit next finds them drained.
    abandoned_io: bool,
    /// Scratch of `dispatch`: the job order and the candidate nodes.
    dispatch_scratch: (Vec<usize>, Vec<u32>),
    /// Concurrently resident jobs, in admission order.
    jobs: Vec<JobRun>,
    job_seq: u32,
    pub job_done: bool,
    /// Multi-tenant stream state (`None` for single-job submissions).
    stream: Option<StreamState>,
    /// Completed/aborted jobs awaiting collection by the driver.
    finished: VecDeque<FinishedJob>,

    // Scheduling state.
    free_slots: Vec<u32>,
    /// Nodes currently able to accept a launch (up, not blacklisted, at
    /// least one free slot), kept in sync by `note_slot_change`, less the
    /// ones parked because a visit would find nothing they may run.
    /// `dispatch` walks the live ones, in rotation order, instead of
    /// scanning every worker — what makes 10k-node cells tractable.
    cands: Candidates,
    /// Nodes `dispatch` looked for work on, over the world's lifetime
    /// (visits cut short by a node being down, full or already blocked this
    /// round are not counted). A test hook in the style of
    /// `FlowNet::next_scans`: it must grow with launches and finishes, not
    /// with dispatches × idle nodes.
    pub dispatch_visits: u64,
    /// Per-node "blocked this pass" stamp; a node is blocked when its entry
    /// equals `dispatch_round`. Replaces a fresh `vec![false; workers]`
    /// allocation per dispatch phase.
    blocked_stamp: Vec<u64>,
    dispatch_round: u64,
    rotate: u32,
    /// True when the last dispatch pass found pending tasks but zero
    /// available nodes and no delay-retry wake scheduled; the next
    /// slot-freeing or node-recovery event must re-issue `Dispatch` or the
    /// job wedges (DESIGN.md §4.14 bugfix).
    dispatch_starved: bool,
    // CAD state.
    cad_interval: SimDuration,
    cad_allowed: Vec<SimTime>,
    /// Dedup guard: the DispatchNode wake already scheduled per node.
    cad_wake_at: Vec<SimTime>,
    cad_ref_avg: Option<f64>,
    cad_window: VecDeque<f64>,
    /// Dataset placements by source RDD id.
    placed: DetMap<RddId, Vec<PlacedPart>>,
    hdfs_files: DetMap<RddId, HdfsFile>,
    pub blockmgr: BlockMgr,
    next_shuffle_file: u64,
    /// Record-level work of the tasks launched this dispatch round,
    /// evaluated (maybe in parallel) and committed in launch order at the
    /// end of the round.
    pending: Vec<Pending>,
    /// Resolved host worker-thread count for evaluating `pending`.
    executor_threads: usize,

    // Fault & recovery state (DESIGN.md §4.9).
    /// Per-node liveness; crashed nodes get no dispatch and release no slots.
    node_up: Vec<bool>,
    /// Nodes excluded from scheduling after repeated task failures.
    blacklisted: Vec<bool>,
    /// Task-attributed failures per node (drives blacklisting).
    node_fail_counts: Vec<u32>,
    /// Global task-launch counter (the `TaskFail { nth_launch }` clock).
    launch_count: u64,
    /// Sorted launch ordinals doomed to fail (from the fault plan).
    doomed_launches: Vec<u64>,
    /// The fault plan is armed once, at the first job submission.
    faults_armed: bool,

    /// Structured event log (DESIGN.md §4.11). `None` when tracing is off,
    /// so every emission site costs one `Option` test and nothing else.
    tracer: Option<memres_trace::SharedSink>,

    // Time-series metrics plane (DESIGN.md §4.16).
    /// Sample accumulator; `None` when `cfg.metrics` is off, so the sampler
    /// event is never scheduled and gauge collection costs nothing.
    recorder: Option<Recorder>,
    /// The sampler chain is armed once, at the first submission (mirrors
    /// `faults_armed`); the leftover chained event survives back-to-back
    /// jobs on one world, and this guard prevents duplicate chains.
    metrics_armed: bool,
    /// Latest engine self-stats snapshot (pushed by `observe_engine`).
    engine_stats: EngineStats,
    /// Engine step count at the previous sample (events-per-sample delta).
    last_sample_steps: u64,
    /// Per-tenant cumulative finished-job latency, grown on demand (the
    /// `tenant_slo_burn_secs` base; resident/queued job ages are added at
    /// sample time).
    tenant_latency_acc: Vec<f64>,
}

/// Worker threads for real-partition execution: explicit config wins, then
/// `MEMRES_THREADS`, then the host's available parallelism.
fn resolve_executor_threads(cfg: &EngineConfig) -> usize {
    cfg.executor_threads
        .or_else(|| parse_threads(std::env::var("MEMRES_THREADS").ok().as_deref()))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
}

fn parse_threads(var: Option<&str>) -> Option<usize> {
    var.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

impl SimWorld {
    pub fn new(spec: ClusterSpec, cfg: EngineConfig) -> Self {
        spec.validate().expect("invalid cluster spec"); // lint:allow(panic): construction-time config validation; fails fast before any simulation starts
        let mut net = FlowNet::new();
        let fabric = Fabric::build(&mut net, &spec);
        let workers = spec.workers as usize;
        // Effective HDFS DataNode read throughput per node (tmpfs bandwidth
        // discounted by protocol/checksum/deserialization costs).
        let ram_read = 3.0e9;
        let store_read_links = (0..workers).map(|_| net.add_link(ram_read)).collect();
        let ram_fs = (0..workers)
            .map(|_| {
                LocalFs::new(
                    Box::new(RamDisk::new(ram_read, 4.0e9)),
                    // RAMDisk capacity plus headroom for preloaded inputs.
                    spec.ramdisk_capacity + 256.0e9,
                    None,
                )
            })
            .collect();
        let ssd_fs = (0..workers)
            .map(|_| {
                LocalFs::new(
                    Box::new(Ssd::new(SsdConfig::hyperion())),
                    spec.ssd_capacity,
                    // ~6 GB of page cache effectively absorbs shuffle writes:
                    // this is the paper's Fig 8a crossover (100 nodes x 6 GB
                    // = 600 GB of aggregate intermediate data ride the cache).
                    Some(CacheConfig {
                        capacity: 6.0 * 1024.0 * 1024.0 * 1024.0,
                        ..CacheConfig::hyperion()
                    }),
                )
            })
            .collect();
        let lustre = Lustre::new(LustreConfig {
            mds_ops_per_sec: spec.mds_ops_per_sec,
            oss_count: spec.lustre_oss_count,
            ..LustreConfig::hyperion()
        });
        let hdfs = Hdfs::new(
            HdfsConfig {
                replication: cfg.input_replication.max(1),
                ..HdfsConfig::default()
            },
            spec.clone(),
            spec.ramdisk_capacity + 256.0e9,
            cfg.seed,
        );
        let speed_model = if cfg.speed_sigma > 0.0 {
            SpeedModel::Fluctuating {
                sigma: cfg.speed_sigma,
                period_secs: cfg.speed_resample.as_secs_f64(),
            }
        } else {
            SpeedModel::Homogeneous
        };
        let speeds = SpeedSampler::new(speed_model, spec.workers, cfg.seed);
        let tracer = cfg.trace.enabled().then(|| memres_trace::shared(cfg.trace));
        let recorder = cfg.metrics.map(Recorder::new);
        let mut w = SimWorld {
            free_slots: vec![spec.cores_per_node; workers],
            cands: Candidates::all(spec.workers),
            dispatch_visits: 0,
            blocked_stamp: vec![0; workers],
            dispatch_round: 0,
            rotate: 0,
            dispatch_starved: false,
            cad_interval: SimDuration::ZERO,
            cad_allowed: vec![SimTime::ZERO; workers],
            cad_wake_at: vec![SimTime::ZERO; workers],
            cad_ref_avg: None,
            cad_window: VecDeque::new(),
            placed: DetMap::new(),
            hdfs_files: DetMap::new(),
            blockmgr: BlockMgr::default(),
            next_shuffle_file: SHUFFLE_FILE_BASE,
            pending: Vec::new(),
            executor_threads: resolve_executor_threads(&cfg),
            node_up: vec![true; workers],
            blacklisted: vec![false; workers],
            node_fail_counts: vec![0; workers],
            launch_count: 0,
            doomed_launches: Vec::new(),
            faults_armed: false,
            tracer,
            recorder,
            metrics_armed: false,
            engine_stats: EngineStats::default(),
            last_sample_steps: 0,
            tenant_latency_acc: Vec::new(),
            spec,
            cfg,
            net,
            fabric,
            store_read_links,
            ram_fs,
            ssd_fs,
            lustre,
            hdfs,
            speeds,
            metrics: MetricsSink::default(),
            tasks: TaskArena::default(),
            fetch_chunks: Vec::new(),
            abandoned_io: false,
            dispatch_scratch: Default::default(),
            jobs: Vec::new(),
            job_seq: 0,
            job_done: false,
            stream: None,
            finished: VecDeque::new(),
        };
        if let Some(t) = &w.tracer {
            w.net.set_tracer(t.clone());
            w.lustre.set_tracer(t.clone());
            for (n, fs) in w.ssd_fs.iter_mut().enumerate() {
                fs.set_tracer(n as u32, t.clone());
            }
        }
        w
    }

    // ---------------- tracing ----------------

    /// Emit one trace event; a single `Option` test when tracing is off.
    #[inline]
    fn trace(&self, at: SimTime, ev: memres_trace::TraceEvent) {
        if let Some(t) = &self.tracer {
            t.borrow_mut().emit(at, ev);
        }
    }

    fn trace_class(kind: TaskKind) -> memres_trace::TaskClass {
        match kind {
            TaskKind::Compute { .. } => memres_trace::TaskClass::Compute,
            TaskKind::Store { .. } => memres_trace::TaskClass::Store,
            TaskKind::Fetch { .. } => memres_trace::TaskClass::Fetch,
        }
    }

    /// Drain the recorded trace (empty when tracing is off).
    pub fn take_trace(&mut self) -> Vec<memres_trace::TimedEvent> {
        self.tracer
            .as_ref()
            .map(|t| t.borrow_mut().take())
            .unwrap_or_default()
    }

    /// Rough engine heap footprint: the dense arenas that grow with the job
    /// (tasks, trace log, shuffle bucket matrices, the flow network's slab
    /// and chunk queues). Self-profiling only — not a substitute for a real
    /// allocator hook.
    pub fn heap_estimate_bytes(&self) -> u64 {
        let tasks = self.tasks.heap_bytes();
        let net = self.net.heap_bytes();
        let trace = self
            .tracer
            .as_ref()
            .map(|t| t.borrow().len() * std::mem::size_of::<memres_trace::TimedEvent>())
            .unwrap_or(0);
        let shuffle: usize = self
            .jobs
            .iter()
            .filter_map(|j| j.shuffle_out.as_ref().or(j.shuffle_in.as_ref()))
            .map(|s| s.buckets.heap_bytes())
            .sum();
        (tasks + net + trace + shuffle) as u64
    }

    /// Pop the oldest completed job (stream mode collects these as they
    /// finish; single-job runs stash exactly one).
    pub fn take_finished(&mut self) -> Option<FinishedJob> {
        self.finished.pop_front()
    }

    /// Drain every completed job collected so far, in completion order.
    pub fn drain_finished(&mut self) -> Vec<FinishedJob> {
        self.finished.drain(..).collect()
    }

    /// Number of jobs currently resident (admitted, not finished).
    pub fn resident_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Cheap cross-checks of live engine state against independent
    /// reimplementations, for the differential-fuzz harness (DESIGN.md
    /// §4.13): the incremental water-filling allocation vs a from-scratch
    /// progressive-filling pass over the same active flows, the network's
    /// memoised next completion vs a fresh scan, its active indexes vs a
    /// rebuild from the slab, every resident job's running-task count vs an
    /// arena scan, and the dispatch candidate set vs the nodes and queues it
    /// summarises; with no job resident, the quiescence oracle.
    pub fn audit_invariants(&mut self) -> Result<(), String> {
        let tasks = &self.tasks;
        self.jobs
            .iter()
            .try_for_each(|j| tasks.audit_running(j.id))?;
        self.audit_candidates()?;
        self.net.audit_waterfill()?;
        if self.jobs.is_empty() {
            self.audit_departed()
                .map_err(|e| format!("no job resident, but {e}"))?;
            match self.audit_drained() {
                Ok(()) => self.abandoned_io = false,
                Err(e) if !self.abandoned_io => return Err(format!("no job resident, but {e}")),
                Err(_) => {}
            }
        }
        Ok(())
    }

    /// The candidate-set invariant (DESIGN.md §4.12): the live and the
    /// parked nodes are exactly the available ones, each in one set, and no
    /// parked node has a pending task it may run — one queued for it in some
    /// job's `prefs_q`, or one any node may take from a `no_pref_q` or (the
    /// runs that park are FIFO) a `waiting_q`. A parked node with work is a
    /// launch that never happens.
    fn audit_candidates(&self) -> Result<(), String> {
        let c = &self.cands;
        if c.parked() > 0 && !self.visits_are_pure() {
            return Err("nodes are parked in a run whose dispatch visits have effects".into());
        }
        let pending = |q: &VecDeque<u32>| {
            q.iter()
                .any(|&t| self.tasks.state[t as usize] == TState::Pending)
        };
        let any_job = |has: &dyn Fn(&JobRun) -> bool| self.jobs.iter().any(has);
        let for_any_node = any_job(&|j| pending(&j.no_pref_q) || pending(&j.waiting_q));
        for node in 0..self.spec.workers {
            let (live, parked, available) =
                (c.is_live(node), c.is_parked(node), self.is_available(node));
            if (live && parked) || (live || parked) != available {
                return Err(format!(
                    "node {node}: candidate {live}, parked {parked}, available {available}"
                ));
            }
            if parked && (for_any_node || any_job(&|j| pending(&j.prefs_q[node as usize]))) {
                return Err(format!(
                    "node {node} is parked with a pending task it may run"
                ));
            }
        }
        Ok(())
    }

    /// Quiescence oracle (DESIGN.md §4.13), what departed jobs must not hold
    /// even if an abandoned attempt's I/O is still in flight (which keeps
    /// flows *active*): an idle open flow, a DLM lock on a file they wrote.
    fn audit_departed(&self) -> Result<(), String> {
        let idle = self.net.open_flows() - self.net.active_flows();
        if idle != 0 {
            return Err(format!("{idle} idle flows are open"));
        }
        self.lustre.audit_unlocked()
    }

    /// Quiescence oracle, the rest: no flow carries bytes and no request is
    /// in or undelivered by the Lustre MDS, a memory channel or a device.
    /// Excused while `abandoned_io` is set; passing clears it.
    fn audit_drained(&self) -> Result<(), String> {
        let active = self.net.active_flows();
        if active != 0 {
            return Err(format!("{active} flows carry bytes"));
        }
        self.lustre.audit_idle()?;
        let mut mounts = self.ram_fs.iter().chain(&self.ssd_fs).enumerate();
        mounts.try_for_each(|(i, fs)| fs.audit_idle().map_err(|e| format!("mount {i}: {e}")))
    }

    fn speed(&self, node: u32) -> f64 {
        self.speeds.factor(NodeId(node))
    }

    /// Deterministic per-task compute jitter in [1-j, 1+j].
    fn jitter(&self, task: u32) -> f64 {
        let j = self.cfg.task_jitter;
        if j <= 0.0 {
            return 1.0;
        }
        let h = (task as u64 ^ self.cfg.seed)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x165_667b1)
            .wrapping_mul(0xd6e8_feb8_6659_fd93);
        let u = ((h >> 11) as f64) / ((1u64 << 53) as f64); // [0,1)
        1.0 - j + 2.0 * j * u
    }

    /// Resident-set index of the job owning `task`. Completions are
    /// stale-filtered (`completion_is_stale`) before dereferencing, so a
    /// live event implies the owning job is resident.
    fn job_index_of(&self, task: u32) -> usize {
        let id = self.tasks.job[task as usize];
        self.jobs
            .iter()
            .position(|j| j.id == id)
            .expect("task of non-resident job") // lint:allow(panic): stale-filtered above
    }

    fn job_of(&self, task: u32) -> &JobRun {
        &self.jobs[self.job_index_of(task)]
    }

    fn job_of_mut(&mut self, task: u32) -> &mut JobRun {
        let ji = self.job_index_of(task);
        &mut self.jobs[ji]
    }

    fn plan_of(&self, task: u32) -> Arc<JobPlan> {
        self.job_of(task).plan.clone()
    }

    // ---------------- wake plumbing ----------------

    fn arm_net(&mut self, out: &mut Outbox<Ev>) {
        if let Some(t) = self.net.next_event() {
            // lint:allow(event-past): FlowNet::next_event returns completions at/after the subsystem clock, which trails now
            out.at(t, Ev::NetWake(self.net.gen()));
        }
    }

    fn arm_fs(&self, node: u32, ssd: bool, out: &mut Outbox<Ev>) {
        let fs = if ssd {
            &self.ssd_fs[node as usize]
        } else {
            &self.ram_fs[node as usize]
        };
        if let Some(t) = fs.next_event() {
            // lint:allow(event-past): LocalFs::next_event returns device completions at/after the subsystem clock, which trails now
            out.at(
                t,
                Ev::FsWake {
                    node,
                    ssd,
                    gen: fs.gen(),
                },
            );
        }
    }

    fn arm_lustre(&self, out: &mut Outbox<Ev>) {
        if let Some(t) = self.lustre.next_event() {
            // lint:allow(event-past): Lustre::next_event returns MDS/OSS completions at/after the subsystem clock, which trails now
            out.at(t, Ev::LustreWake(self.lustre.gen()));
        }
    }

    // ---------------- completion-identity tags ----------------

    /// Pack (task, attempt, job) into an opaque device/Lustre tag. 16 bits
    /// each for attempt and job: enough to tell any live completion from a
    /// stale one (a tag only collides after 65536 wrapped attempts *while*
    /// the original request is still in flight, which cannot happen).
    fn io_tag(&self, task: u32) -> u64 {
        task as u64
            | ((self.tasks.attempt[task as usize] as u64 & 0xffff) << 32)
            | ((self.tasks.job[task as usize] as u64 & 0xffff) << 48)
    }

    fn unpack_io_tag(tag: u64) -> (u32, u32, u32) {
        (
            tag as u32,
            ((tag >> 32) & 0xffff) as u32,
            ((tag >> 48) & 0xffff) as u32,
        )
    }

    /// The network-side equivalent of [`SimWorld::io_tag`].
    fn net_tag(&self, task: u32) -> NetTag {
        NetTag::TaskIo {
            task,
            attempt: self.tasks.attempt[task as usize],
            job: self.tasks.job[task as usize],
        }
    }

    // ---------------- job lifecycle ----------------

    /// Begin executing a plan. Drive the simulation until `job_done`.
    pub fn submit_job(&mut self, now: SimTime, plan: JobPlan, out: &mut Outbox<Ev>) {
        assert!(self.jobs.is_empty(), "one job at a time (stages serialize)");
        self.job_seq += 1;
        let id = self.job_seq;
        self.admit_job(now, id, 0, now, Arc::new(plan), out);
    }

    /// Install a job into the resident set and start its first stage.
    /// Single-job submissions and stream admissions share this path.
    fn admit_job(
        &mut self,
        now: SimTime,
        id: u32,
        tenant: u32,
        arrived: SimTime,
        plan: Arc<JobPlan>,
        out: &mut Outbox<Ev>,
    ) {
        self.arm_faults(now, out);
        self.arm_metrics(out);
        self.job_done = false;
        self.metrics.begin_job(id, now);
        self.trace(now, TE::JobStart { job: id });
        if self.jobs.is_empty() {
            // CAD's congestion estimate is a cluster-wide signal; reset it
            // only when the cluster goes from idle to busy, not when a job
            // joins an already-loaded resident set.
            self.cad_interval = SimDuration::ZERO;
            self.cad_allowed.iter_mut().for_each(|t| *t = SimTime::ZERO);
            self.cad_ref_avg = None;
            self.cad_window.clear();
        }
        let workers = self.spec.workers as usize;
        self.jobs.push(JobRun {
            id,
            tenant,
            arrived,
            admitted: now,
            plan,
            phase: RunPhase::Stage(0),
            remaining: 0,
            stage_tasks: Vec::new(),
            shuffle_in: None,
            shuffle_out: None,
            final_tasks: Vec::new(),
            last_local_launch: now,
            stage_durs: None,
            lustre_files: Vec::new(),
            intermediate: vec![0.0; workers],
            prefs_q: (0..workers).map(|_| VecDeque::new()).collect(),
            no_pref_q: VecDeque::new(),
            waiting_q: VecDeque::new(),
        });
        let ji = self.jobs.len() - 1;
        self.start_stage(now, ji, 0, out);
    }

    // ---------------- multi-tenant streams (DESIGN.md §4.14) ----------------

    /// Begin a multi-tenant job stream. Open-loop and trace arrivals are
    /// scheduled upfront (cumulative gaps from `now`); closed-loop tenants
    /// fire their first arrival immediately and chain the next one `think`
    /// after each job departs. Admission is FIFO under `max_concurrent`;
    /// the configured [`InterJobPolicy`] orders *dispatch*, not admission.
    pub fn start_stream(&mut self, now: SimTime, spec: StreamSpec, out: &mut Outbox<Ev>) {
        assert!(
            self.jobs.is_empty() && self.stream.is_none(),
            "a stream starts on an idle world"
        );
        let mut outstanding = 0usize;
        let mut fired = vec![0u32; spec.tenants.len()];
        for (t, ts) in spec.tenants.iter().enumerate() {
            let tenant = t as u32;
            match &ts.arrival {
                crate::tenancy::ArrivalProcess::Trace(offsets) => {
                    let n = (ts.jobs as usize).min(offsets.len());
                    for k in 0..n {
                        let off = ts
                            .arrival
                            .trace_offset(k as u32)
                            .expect("trace offset in range"); // lint:allow(panic): k < trace length by construction
                        out.at(
                            now + off,
                            Ev::JobArrival {
                                tenant,
                                k: k as u32,
                            },
                        );
                    }
                    fired[t] = n as u32;
                    outstanding += n;
                }
                crate::tenancy::ArrivalProcess::Closed { .. } => {
                    if ts.jobs > 0 {
                        out.at(now, Ev::JobArrival { tenant, k: 0 });
                        fired[t] = 1;
                        outstanding += 1;
                    }
                }
                _ => {
                    let mut at = now;
                    for k in 0..ts.jobs {
                        let gap = ts
                            .arrival
                            .open_gap(spec.seed, tenant, k)
                            .expect("open-loop arrival gap"); // lint:allow(panic): open-loop arms always yield a gap
                        at += gap;
                        out.at(at, Ev::JobArrival { tenant, k });
                    }
                    fired[t] = ts.jobs;
                    outstanding += ts.jobs as usize;
                }
            }
        }
        self.job_done = outstanding == 0;
        if outstanding > 0 {
            // Sample across the whole stream, including pre-admission gaps.
            self.arm_metrics(out);
        }
        self.stream = Some(StreamState {
            spec,
            outstanding_arrivals: outstanding,
            queued: VecDeque::new(),
            fired,
        });
    }

    fn on_job_arrival(&mut self, now: SimTime, tenant: u32, k: u32, out: &mut Outbox<Ev>) {
        if self.stream.is_none() {
            return; // stale arrival after the stream was torn down
        }
        self.job_seq += 1;
        let id = self.job_seq;
        self.trace(now, TE::JobArrived { job: id, tenant });
        let stream = self.stream.as_mut().expect("stream checked above"); // lint:allow(panic): guarded at function entry
        stream.outstanding_arrivals = stream.outstanding_arrivals.saturating_sub(1);
        stream.queued.push_back(PendingAdmission {
            id,
            tenant,
            k,
            arrived: now,
        });
        self.try_admissions(now, out);
    }

    /// Admit queued jobs FIFO while under the concurrency cap. The job's
    /// plan is built at admission time so cached RDDs materialized by
    /// earlier jobs are visible, exactly as sequential submission sees them.
    fn try_admissions(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        loop {
            let Some(stream) = self.stream.as_ref() else {
                return;
            };
            let cap = stream.spec.max_concurrent.unwrap_or(usize::MAX);
            if self.jobs.len() >= cap || stream.queued.is_empty() {
                return;
            }
            let pa = self
                .stream
                .as_mut()
                .and_then(|s| s.queued.pop_front())
                .expect("non-empty admit queue"); // lint:allow(panic): emptiness checked above
            self.trace(
                now,
                TE::JobAdmitted {
                    job: pa.id,
                    tenant: pa.tenant,
                },
            );
            let make = self
                .stream
                .as_ref()
                .map(|s| s.spec.tenants[pa.tenant as usize].make.clone())
                .expect("stream present"); // lint:allow(panic): guarded at loop entry
            let (rdd, action) = make(pa.k);
            let plan = build_plan(&rdd, action, &self.blockmgr.materialized());
            self.admit_job(now, pa.id, pa.tenant, pa.arrived, Arc::new(plan), out);
        }
    }

    /// Stream bookkeeping when a job finishes or aborts: chain the owning
    /// tenant's next closed-loop arrival and pull in queued admissions.
    fn on_job_departure(&mut self, now: SimTime, tenant: u32, out: &mut Outbox<Ev>) {
        if let Some(stream) = self.stream.as_mut() {
            let ts = &stream.spec.tenants[tenant as usize];
            if let Some(think) = ts.arrival.think() {
                let k = stream.fired[tenant as usize];
                if k < ts.jobs {
                    stream.fired[tenant as usize] += 1;
                    stream.outstanding_arrivals += 1;
                    out.at(now + think, Ev::JobArrival { tenant, k });
                }
            }
        }
        self.try_admissions(now, out);
    }

    /// True when no further jobs can arrive or be admitted.
    fn stream_drained(&self) -> bool {
        self.stream
            .as_ref()
            .is_none_or(|s| s.outstanding_arrivals == 0 && s.queued.is_empty())
    }

    /// Schedule every fault of the configured plan, once, relative to the
    /// first job submission. `TaskFail` faults become doomed launch ordinals
    /// consumed by [`SimWorld::launch`]; everything else fires as an event.
    fn arm_faults(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        if self.faults_armed {
            return;
        }
        self.faults_armed = true;
        let Some(plan) = self.cfg.faults.clone() else {
            return;
        };
        for (idx, ev) in plan.events.iter().enumerate() {
            match ev.kind {
                FaultKind::TaskFail { nth_launch } => self.doomed_launches.push(nth_launch),
                _ => out.at(now + ev.after, Ev::Fault { idx }),
            }
        }
        self.doomed_launches.sort_unstable();
    }

    // ---------------- time-series metrics plane (DESIGN.md §4.16) ----------------

    /// Start the periodic sampler chain, once. The first sample fires
    /// immediately (t = submission time); each handler firing chains the
    /// next tick. The chain is never torn down — the driver stops stepping
    /// at `job_done`, so a leftover tick is harmless, and on back-to-back
    /// submissions the surviving chain keeps sampling (this guard prevents
    /// a duplicate chain from doubling the sample rate).
    fn arm_metrics(&mut self, out: &mut Outbox<Ev>) {
        if self.metrics_armed || self.recorder.is_none() {
            return;
        }
        self.metrics_armed = true;
        out.immediately(Ev::MetricsSample);
    }

    /// Fold one finished (or aborted) job's latency into its tenant's
    /// cumulative burn gauge.
    fn note_job_latency(&mut self, tenant: u32, arrived: SimTime, now: SimTime) {
        if self.recorder.is_none() {
            return;
        }
        let t = tenant as usize;
        if self.tenant_latency_acc.len() <= t {
            self.tenant_latency_acc.resize(t + 1, 0.0);
        }
        self.tenant_latency_acc[t] += now.since(arrived).as_secs_f64();
    }

    /// Snapshot every layer's gauges into the recorder. Called only from the
    /// `MetricsSample` event, so all reads happen at a deterministic sim
    /// time regardless of executor thread count.
    fn sample_metrics(&mut self, now: SimTime) {
        let Some(mut rec) = self.recorder.take() else {
            return;
        };
        // Engine self-stats (pushed by `observe_engine` after every step).
        let es = self.engine_stats;
        rec.sample("engine_events_total", None, now, es.steps as f64);
        rec.sample(
            "engine_events_per_sample",
            None,
            now,
            es.steps.saturating_sub(self.last_sample_steps) as f64,
        );
        self.last_sample_steps = es.steps;
        rec.sample("engine_queue_len", None, now, es.queue_len as f64);
        rec.sample("engine_queue_lane", None, now, es.queue.lane as f64);

        // Network: utilization = allocated max–min-fair rate / capacity.
        rec.sample(
            "net_active_flows",
            None,
            now,
            self.net.active_flows() as f64,
        );
        let util = |net: &mut FlowNet<NetTag>, link: LinkId| {
            let cap = net.link_capacity(link);
            if cap > 0.0 {
                net.link_rate(link) / cap
            } else {
                0.0
            }
        };
        for r in 0..self.spec.racks as usize {
            let up = self.fabric.rack_uplink(r);
            let down = self.fabric.rack_downlink(r);
            let u = util(&mut self.net, up);
            rec.sample("net_rack_up_util", Some(r as u32), now, u);
            let d = util(&mut self.net, down);
            rec.sample("net_rack_down_util", Some(r as u32), now, d);
        }
        let core = util(&mut self.net, self.fabric.core_link());
        rec.sample("net_core_util", None, now, core);
        let pipe = util(&mut self.net, self.fabric.lustre_pipe());
        rec.sample("net_lustre_pipe_util", None, now, pipe);

        // Storage: queue depths, page-cache pressure, GC state.
        let ram_q: usize = self.ram_fs.iter().map(|fs| fs.device_queue_depth()).sum();
        rec.sample("storage_ram_queue_depth", None, now, ram_q as f64);
        let ssd_q: usize = self.ssd_fs.iter().map(|fs| fs.device_queue_depth()).sum();
        rec.sample("storage_ssd_queue_depth", None, now, ssd_q as f64);
        let dirty: f64 = self.ssd_fs.iter().map(|fs| fs.dirty_bytes()).sum();
        rec.sample("storage_ssd_dirty_bytes", None, now, dirty);
        let gc_nodes = self
            .ssd_fs
            .iter()
            .filter(|fs| fs.device().gc_active())
            .count();
        rec.sample("storage_ssd_gc_nodes", None, now, gc_nodes as f64);
        let fill = self
            .ssd_fs
            .iter()
            .map(|fs| fs.device().buffer_fill())
            .fold(0.0f64, f64::max);
        rec.sample("storage_ssd_buffer_fill_max", None, now, fill);

        // Lustre.
        rec.sample("lustre_mds_backlog", None, now, self.lustre.mds_backlog());
        let client_dirty: f64 = (0..self.spec.workers)
            .map(|n| self.lustre.client_dirty(NodeId(n)))
            .sum();
        rec.sample("lustre_client_dirty_bytes", None, now, client_dirty);

        // Core engine occupancy.
        let resident_bytes: f64 = (0..self.spec.workers)
            .map(|n| self.blockmgr.bytes_on(n))
            .sum();
        rec.sample("core_resident_partition_bytes", None, now, resident_bytes);
        rec.sample("core_task_arena_tasks", None, now, self.tasks.len() as f64);
        rec.sample("core_tasks_pending", None, now, self.tasks.pending as f64);
        let busy: u32 = (0..self.spec.workers as usize)
            .filter(|&n| self.node_up[n])
            .map(|n| self.spec.cores_per_node - self.free_slots[n])
            .sum();
        rec.sample("core_busy_slots", None, now, busy as f64);
        rec.sample("core_resident_jobs", None, now, self.jobs.len() as f64);

        // Tenancy: per-tenant queue/occupancy/burn (single-job runs report
        // one tenant, 0, so the export shape is uniform).
        let tenants = self
            .stream
            .as_ref()
            .map(|s| s.spec.tenants.len())
            .unwrap_or(1);
        for t in 0..tenants as u32 {
            let queued = self
                .stream
                .as_ref()
                .map(|s| s.queued.iter().filter(|p| p.tenant == t).count())
                .unwrap_or(0);
            rec.sample("tenant_queued_jobs", Some(t), now, queued as f64);
            let running = self.jobs.iter().filter(|j| j.tenant == t).count();
            rec.sample("tenant_running_jobs", Some(t), now, running as f64);
            let mut burn = self
                .tenant_latency_acc
                .get(t as usize)
                .copied()
                .unwrap_or(0.0);
            burn += self
                .jobs
                .iter()
                .filter(|j| j.tenant == t)
                .map(|j| now.since(j.arrived).as_secs_f64())
                .sum::<f64>();
            if let Some(s) = self.stream.as_ref() {
                burn += s
                    .queued
                    .iter()
                    .filter(|p| p.tenant == t)
                    .map(|p| now.since(p.arrived).as_secs_f64())
                    .sum::<f64>();
            }
            rec.sample("tenant_slo_burn_secs", Some(t), now, burn);
        }
        rec.tick();
        self.recorder = Some(rec);
    }

    /// The sample accumulator (None when `cfg.metrics` is off).
    pub fn recorder(&self) -> Option<&Recorder> {
        self.recorder.as_ref()
    }

    fn ensure_placed(&mut self, rdd: RddId, dataset: &Arc<Dataset>) {
        if self.placed.contains_key(&rdd) {
            return;
        }
        if dataset.generated {
            // In-memory generated input: no storage backing at all.
            let parts = dataset
                .partitions
                .iter()
                .map(|p| PlacedPart {
                    bytes: p.bytes,
                    records: p.records,
                    data: p.data.clone(),
                    hdfs_block: None,
                    lustre: None,
                })
                .collect();
            self.placed.insert(rdd, parts);
            return;
        }
        let workers = self.spec.workers;
        let mut parts = Vec::with_capacity(dataset.partitions.len());
        let hdfs_file = match self.cfg.input {
            InputSource::HdfsRamDisk => {
                let f = self.hdfs.new_file();
                self.hdfs_files.insert(rdd, f);
                Some(f)
            }
            InputSource::Lustre => None,
        };
        for (i, p) in dataset.partitions.iter().enumerate() {
            let mut placed = PlacedPart {
                bytes: p.bytes,
                records: p.records,
                data: p.data.clone(),
                hdfs_block: None,
                lustre: None,
            };
            match self.cfg.input {
                InputSource::HdfsRamDisk => {
                    // Pseudo-random block placement (what an ingested corpus
                    // looks like): node block counts become Poisson-spread,
                    // which is what strict locality scheduling then amplifies.
                    let mut z = (i as u64 ^ self.cfg.seed.rotate_left(32))
                        .wrapping_add(0x9e37_79b9_7f4a_7c15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z ^= z >> 31;
                    let primary = NodeId((z % workers as u64) as u32);
                    let mut locs = vec![primary];
                    if self.hdfs.config().replication >= 2 && workers > 1 {
                        let mut r = primary.0;
                        while r == primary.0 {
                            z = (z ^ (z >> 29)).wrapping_mul(0xff51_afd7_ed55_8ccd);
                            r = (z % workers as u64) as u32;
                        }
                        locs.push(NodeId(r));
                    }
                    locs.dedup();
                    let b = self.hdfs.place_block_at(
                        hdfs_file.expect("hdfs file"), // lint:allow(panic): the HdfsRamDisk arm above created this file before placing blocks
                        Bytes(p.bytes),
                        locs.clone(),
                    );
                    for n in locs {
                        self.ram_fs[n.index()]
                            .preload(FileId(HDFS_BLOCK_BASE + b.0), Bytes(p.bytes));
                    }
                    placed.hdfs_block = Some(b);
                }
                InputSource::Lustre => {
                    let lf = LustreFile(LUSTRE_INPUT_BASE + ((rdd.0 as u64) << 24) + i as u64);
                    self.lustre.create_external(lf, p.bytes);
                    placed.lustre = Some(lf);
                }
            }
            parts.push(placed);
        }
        self.placed.insert(rdd, parts);
    }

    fn start_stage(&mut self, now: SimTime, ji: usize, idx: usize, out: &mut Outbox<Ev>) {
        let plan = self.jobs[ji].plan.clone();
        let stage = &plan.stages[idx];
        let is_last = idx + 1 == plan.stages.len();

        // Move the produced shuffle (if any) into consuming position; the
        // one consumed by the stage that produced it is done with.
        if matches!(stage.input, StageInput::Shuffle(_)) {
            let job = &mut self.jobs[ji];
            let produced = job.shuffle_out.take();
            assert!(produced.is_some(), "fetch stage without produced shuffle");
            if let Some(consumed) = std::mem::replace(&mut job.shuffle_in, produced) {
                self.release_fetch_flows(now, &consumed, out);
            }
        }

        // Resolve partition count + place datasets.
        let nparts = match &stage.input {
            StageInput::Dataset { rdd, dataset } => {
                self.ensure_placed(*rdd, dataset);
                self.placed[rdd].len()
            }
            StageInput::Cached { rdd } => self.blockmgr.partition_count(*rdd),
            StageInput::Shuffle(_) => {
                self.jobs[ji].shuffle_in.as_ref().unwrap().reducers as usize // lint:allow(panic): build_plan emits a Shuffle input only after a shuffle-out stage, which installed shuffle_in at the phase switch
            }
        };
        assert!(nparts > 0, "stage with zero partitions");

        // Create the produced-shuffle state if this stage writes one.
        if let Some(requested) = stage.shuffle_out {
            // Spark guidance: default reduce-side parallelism ~ total cores.
            let reducers = requested
                .or(self.cfg.spark.default_parallelism)
                .unwrap_or((nparts as u32).min(self.spec.total_slots()))
                .max(1);
            let spec = match &plan.stages[idx + 1].input {
                StageInput::Shuffle(s) => s.clone(),
                _ => unreachable!("stage after a shuffle output must consume it"),
            };
            let real = match &stage.input {
                StageInput::Dataset { rdd, .. } => {
                    self.placed[rdd].iter().all(|p| p.data.is_some())
                }
                StageInput::Cached { rdd } => self.blockmgr.is_real(*rdd),
                StageInput::Shuffle(_) => {
                    self.jobs[ji]
                        .shuffle_in
                        .as_ref()
                        // lint:allow(panic): build_plan emits a Shuffle input only after a shuffle-out stage, which installed shuffle_in at the phase switch
                        .unwrap()
                        .node_real
                        .is_some()
                }
            };
            let workers = self.spec.workers as usize;
            // Rack aggregation kicks in when the per-rack-pair concurrent
            // flow count (per_rack producers x per_rack consumers) exceeds
            // the threshold; u32::MAX disables it outright. Only the
            // store-served paths aggregate — LustreShared traffic already
            // funnels through one pipe.
            let aggregated = {
                let per_rack = workers as u64 / self.spec.racks.max(1) as u64;
                self.cfg.rack_agg_threshold != u32::MAX
                    && matches!(
                        self.cfg.shuffle,
                        ShuffleStore::Local(_) | ShuffleStore::LustreLocal
                    )
                    && per_rack * per_rack > self.cfg.rack_agg_threshold as u64
            };
            let racks = aggregated.then_some(self.spec.racks as usize);
            self.jobs[ji].shuffle_out =
                Some(ShuffleState::new(reducers, spec, workers, real, racks));
        }

        // Declare cache points so partially-cached RDDs are not reused.
        for (_, rdd) in &stage.cache_points {
            self.blockmgr.declare(*rdd, nparts as u32);
        }

        // Create the stage's tasks.
        let is_fetch = matches!(stage.input, StageInput::Shuffle(_));
        let mut created: Vec<u32> = Vec::with_capacity(nparts);
        // A stage that writes a shuffle is followed by one store task per
        // task of its own and then by the shuffle's reducers: room for all
        // three now, while the arrays are small, is one growth instead of
        // three that each copy everything before them.
        let job = &self.jobs[ji];
        let followers = job
            .shuffle_out
            .as_ref()
            .map_or(0, |sh| nparts + sh.reducers as usize);
        self.reserve_tasks(job.id, nparts + followers);
        for i in 0..nparts {
            let id = self.tasks.len() as u32;
            let kind = if is_fetch {
                TaskKind::Fetch { reducer: i as u32 }
            } else {
                TaskKind::Compute { part: i as u32 }
            };
            let mut t = Task::new(self.jobs[ji].id, idx as u32, kind, now);
            if !is_fetch {
                t.prefs = self.compute_prefs(stage, i as u32);
            }
            self.tasks.push(t);
            created.push(id);
        }
        self.trace(
            now,
            TE::StageStart {
                stage: idx as u32,
                tasks: created.len() as u32,
            },
        );
        for &id in &created {
            self.trace(
                now,
                TE::TaskQueued {
                    task: id,
                    stage: idx as u32,
                    class: Self::trace_class(self.tasks.kind[id as usize]),
                    attempt: 0,
                },
            );
        }
        {
            let job = &mut self.jobs[ji];
            job.phase = RunPhase::Stage(idx);
            job.remaining = created.len();
            job.stage_tasks = created.clone();
            if is_last {
                job.final_tasks = created.clone();
            }
            job.last_local_launch = now;
            job.stage_durs = self.cfg.speculation.map(|_| LogHistogram::new());
        }
        self.enqueue_pending(ji, &created);
        self.rotate = self.rotate.wrapping_add(1);
        out.immediately(Ev::Dispatch);
    }

    /// Make room for the `n` tasks `job` is about to create, in the arena
    /// and in the job's metrics: each array grows once, to exactly what it
    /// needs, instead of doubling its way there.
    fn reserve_tasks(&mut self, job: u32, n: usize) {
        self.tasks.reserve(n);
        self.metrics.reserve(job, n);
    }

    /// Preferred nodes for a compute task: HDFS replicas or the cache home.
    fn compute_prefs(&self, stage: &StagePlan, part: u32) -> Vec<u32> {
        match &stage.input {
            StageInput::Dataset { rdd, .. } => {
                let placed = &self.placed[rdd][part as usize];
                match placed.hdfs_block {
                    Some(b) => self.hdfs.locations(b).iter().map(|n| n.0).collect(),
                    // Lustre input: uniformly distant — no preference (§V-A).
                    None => Vec::new(),
                }
            }
            StageInput::Cached { rdd } => self
                .blockmgr
                .location(*rdd, part)
                .map(|n| vec![n])
                .unwrap_or_default(),
            StageInput::Shuffle(_) => Vec::new(),
        }
    }

    /// Make pending tasks runnable: the one way into a job's queues (but
    /// for `repin_pinned_off`), and so where parked nodes learn of new work.
    fn enqueue_pending(&mut self, ji: usize, ids: &[u32]) {
        let tasks = &self.tasks;
        let job = &mut self.jobs[ji];
        for &id in ids {
            let pin = tasks.pin[id as usize];
            if pin != UNPINNED {
                job.prefs_q[pin as usize].push_back(id);
                self.cands.unpark(pin);
                continue;
            }
            // Preferred or not, under FIFO any node may end up running it.
            self.cands.unpark_all();
            let prefs = &tasks.prefs[id as usize];
            if prefs.is_empty() {
                job.no_pref_q.push_back(id);
            } else {
                for &n in prefs {
                    job.prefs_q[n as usize].push_back(id);
                }
                job.waiting_q.push_back(id);
            }
        }
    }

    // ---------------- dispatch ----------------

    /// ELB (§VI-A): while a stage is depositing intermediate data, stop
    /// assigning tasks to nodes holding more than `threshold ×` the cluster
    /// average.
    fn elb_declines(&self, ji: usize, node: u32) -> bool {
        let Some(elb) = self.cfg.elb else {
            return false;
        };
        let job = &self.jobs[ji];
        let depositing = match job.phase {
            RunPhase::Stage(idx) => job.plan.stages[idx].has_shuffle_output(),
            _ => false,
        };
        if !depositing {
            return false;
        }
        let total: f64 = job.intermediate.iter().sum();
        if total <= 0.0 {
            return false;
        }
        let avg = total / self.spec.workers as f64;
        job.intermediate[node as usize] > avg * elb.threshold
    }

    /// Pick the next task for a free slot on `node`; `Err(retry)` when delay
    /// scheduling is holding tasks for locality. With `allow_steal = false`
    /// only locality-preferred (or preference-free) tasks are returned, so a
    /// dispatch round assigns local work before anything is stolen.
    fn pick(
        &mut self,
        now: SimTime,
        ji: usize,
        node: u32,
        allow_steal: bool,
    ) -> Result<Option<u32>, Option<SimTime>> {
        let tasks = &self.tasks;
        let job = &mut self.jobs[ji];
        while let Some(&cand) = job.prefs_q[node as usize].front() {
            job.prefs_q[node as usize].pop_front();
            if tasks.state[cand as usize] == TState::Pending {
                job.last_local_launch = now;
                return Ok(Some(cand));
            }
        }
        while let Some(&cand) = job.no_pref_q.front() {
            job.no_pref_q.pop_front();
            if tasks.state[cand as usize] == TState::Pending {
                return Ok(Some(cand));
            }
        }
        if !allow_steal {
            return Ok(None);
        }
        loop {
            let Some(&cand) = job.waiting_q.front() else {
                return Ok(None);
            };
            if tasks.state[cand as usize] != TState::Pending {
                job.waiting_q.pop_front();
                continue;
            }
            match self.cfg.scheduler {
                SchedulerKind::Fifo => {
                    job.waiting_q.pop_front();
                    return Ok(Some(cand));
                }
                SchedulerKind::Delay { wait } => {
                    // Spark semantics: go remote only after `wait` with no
                    // locality-preferred launch anywhere in this job's stage
                    // (per-job: another tenant's local launches must not
                    // reset this job's delay clock).
                    let expires = job.last_local_launch + wait;
                    if now >= expires {
                        job.waiting_q.pop_front();
                        return Ok(Some(cand));
                    }
                    return Err(Some(expires));
                }
            }
        }
    }

    /// Whether `node` can accept a launch: the membership rule of `cands`.
    fn is_available(&self, node: u32) -> bool {
        let i = node as usize;
        self.node_up[i] && !self.blacklisted[i] && self.free_slots[i] > 0
    }

    /// Re-index `node` in the candidate set after any change to its free
    /// slots, liveness, or blacklist status. Every mutation site of those
    /// three must call this, or `dispatch` will skip (or revisit) the node.
    fn note_slot_change(&mut self, node: u32) {
        self.cands.set_available(node, self.is_available(node));
    }

    /// Whether a dispatch visit that launches nothing has no other effect,
    /// so that a node may be parked instead of visited again. Four
    /// mechanisms act per visit, launch or no launch: an ELB decline and a
    /// CAD gate each emit a trace event (and CAD a `DispatchNode` wake-up),
    /// delay scheduling hands back the retry time that re-arms `Dispatch`,
    /// and whether speculation duplicates a straggler onto the node depends
    /// on the time of the visit. With all four off — a property of the run,
    /// not a setting — a visit is `pick` finding nothing, for every job.
    fn visits_are_pure(&self) -> bool {
        matches!(self.cfg.scheduler, SchedulerKind::Fifo)
            && self.cfg.elb.is_none()
            && self.cfg.cad.is_none()
            && self.cfg.speculation.is_none()
    }

    /// Inter-job dispatch order (DESIGN.md §4.14). Single-job runs and the
    /// FIFO policy serve jobs in admission order; fair-share orders by
    /// fewest running tasks; capacity first serves tenants still below
    /// their guaranteed slot count. The running-task counts are the arena's
    /// incremental ones, so a dispatch costs O(resident jobs), not O(tasks).
    fn job_order(&self, order: &mut Vec<usize>) {
        let n = self.jobs.len();
        order.clear();
        order.extend(0..n);
        if n <= 1 {
            return;
        }
        let Some(policy) = self.stream.as_ref().map(|s| &s.spec.policy) else {
            return;
        };
        let running = |ji: usize| self.tasks.running[self.jobs[ji].id as usize];
        debug_assert!(self
            .jobs
            .iter()
            .all(|j| self.tasks.audit_running(j.id).is_ok()));
        match policy {
            InterJobPolicy::Fifo => {}
            InterJobPolicy::FairShare => order.sort_by_key(|&ji| (running(ji), ji)),
            InterJobPolicy::Capacity { guarantees } => {
                let mut tenant_running: Vec<u32> = Vec::new();
                for (ji, j) in self.jobs.iter().enumerate() {
                    let t = j.tenant as usize;
                    if tenant_running.len() <= t {
                        tenant_running.resize(t + 1, 0);
                    }
                    tenant_running[t] += running(ji);
                }
                order.sort_by_key(|&ji| {
                    let t = self.jobs[ji].tenant as usize;
                    let g = guarantees.get(t).copied().unwrap_or(0);
                    let deficit = tenant_running.get(t).copied().unwrap_or(0) < g;
                    (!deficit, running(ji), ji)
                });
            }
        }
    }

    fn dispatch(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        if self.jobs.is_empty() {
            return;
        }
        // Fast exit: with nothing pending and speculation off, no pass can
        // launch anything (`pending` is always empty between rounds),
        // so the scan below would only re-derive "blocked" for every node.
        if self.tasks.pending == 0 && self.cfg.speculation.is_none() {
            return;
        }
        let workers = self.spec.workers;
        let cad_some = self.cfg.cad.is_some();
        let mut earliest_retry: Option<SimTime> = None;
        // The inter-job policy orders which resident job a free slot serves;
        // within a job, pick() is unchanged.
        let (mut order, mut cands) = std::mem::take(&mut self.dispatch_scratch);
        self.job_order(&mut order);
        // Two-phase rounds: first every node claims its locality-preferred
        // (or preference-free) tasks, one slot per pass; only then may the
        // FIFO path steal tasks that prefer other nodes.
        // Rotation-ordered snapshot of nodes that can accept a launch.
        // Availability only shrinks during a round (launches decrement
        // slots; completions never interleave with dispatch), so the
        // snapshot is a superset of what the full `0..workers` scan would
        // visit — in the same order — and the in-loop guards skip the rest.
        let start = self.rotate % workers;
        cands.clear();
        self.cands.live_rotated(start, &mut cands);
        // A parked node is available all the same (see `dispatch_starved`).
        let none_available = self.cands.available() == 0;
        let park = self.visits_are_pure();
        // Per job, its stragglers as of this dispatch (`maybe_speculate`).
        let speculating = self.cfg.speculation.is_some();
        let mut stragglers = vec![None; if speculating { order.len() } else { 0 }];
        for allow_steal in [false, true] {
            self.dispatch_round += 1;
            let round = self.dispatch_round;
            loop {
                let mut launched_any = false;
                for &node in &cands {
                    if !self.node_up[node as usize] || self.blacklisted[node as usize] {
                        continue;
                    }
                    if self.blocked_stamp[node as usize] == round
                        || self.free_slots[node as usize] == 0
                    {
                        continue;
                    }
                    self.dispatch_visits += 1;
                    let mut node_launched = false;
                    for &ji in &order {
                        let storing = matches!(self.jobs[ji].phase, RunPhase::Storing(_));
                        let cad_on = storing && cad_some;
                        if self.elb_declines(ji, node) {
                            self.trace(now, TE::ElbDecline { node });
                            continue; // another job may still use this node
                        }
                        if cad_on && self.cad_gates(node) {
                            let allowed = self.cad_allowed[node as usize];
                            if now < allowed {
                                if self.cad_wake_at[node as usize] != allowed {
                                    self.cad_wake_at[node as usize] = allowed;
                                    self.trace(
                                        now,
                                        TE::CadGate {
                                            node,
                                            until: allowed,
                                        },
                                    );
                                    out.at(allowed, Ev::DispatchNode { node });
                                }
                                continue;
                            }
                        }
                        match self.pick(now, ji, node, allow_steal) {
                            Ok(Some(task)) => {
                                self.launch(now, task, node, out);
                                node_launched = true;
                                if cad_on && self.cad_interval > SimDuration::ZERO {
                                    let allowed = now + self.cad_interval;
                                    self.cad_allowed[node as usize] = allowed;
                                    if self.cad_wake_at[node as usize] != allowed {
                                        self.cad_wake_at[node as usize] = allowed;
                                        out.at(allowed, Ev::DispatchNode { node });
                                    }
                                    self.blocked_stamp[node as usize] = round; // one per interval
                                }
                                break;
                            }
                            Ok(None) => {
                                if allow_steal
                                    && self.maybe_speculate(now, ji, node, &mut stragglers, out)
                                {
                                    node_launched = true;
                                    break;
                                }
                                // This job has nothing for the node; the next
                                // job in policy order may.
                            }
                            Err(retry) => {
                                if let Some(r) = retry {
                                    self.trace(now, TE::DelayWait { node, until: r });
                                    earliest_retry =
                                        Some(earliest_retry.map_or(r, |e: SimTime| e.min(r)));
                                }
                                // Delay scheduling holds only this job's
                                // steals; another job may still launch here.
                            }
                        }
                    }
                    if node_launched {
                        launched_any = true;
                    } else {
                        self.blocked_stamp[node as usize] = round;
                        if allow_steal && park {
                            // No job has anything this node may run, and
                            // until one does (or its slots change) a visit
                            // would only find that out again.
                            self.cands.park(node);
                        }
                    }
                }
                if !launched_any {
                    break;
                }
            }
        }
        self.flush_pending(now, out);
        if let Some(r) = earliest_retry {
            // lint:allow(event-past): delay-scheduling retry times are queued_at + wait, in the future of the dispatch that set them
            out.at(r, Ev::Dispatch);
        }
        // Bugfix (DESIGN.md §4.14): with pending work, no available node as
        // the pass began, and no delay-retry wake, nothing re-arms dispatch.
        // Flag it so the next slot-freeing or node-recovery event
        // re-dispatches.
        self.dispatch_starved =
            self.tasks.pending > 0 && none_available && earliest_retry.is_none();
        self.dispatch_scratch = (order, cands);
    }

    /// CAD only gates nodes whose store device actually shows congestion
    /// (a deep write queue); throttling healthy nodes would idle them.
    fn cad_gates(&self, node: u32) -> bool {
        match self.cfg.shuffle {
            ShuffleStore::Local(StoreDevice::Ssd) => {
                self.ssd_fs[node as usize].device_queue_depth() >= 4
            }
            ShuffleStore::Local(StoreDevice::RamDisk) => {
                self.ram_fs[node as usize].device_queue_depth() >= 4
            }
            _ => true,
        }
    }

    /// LATE-style speculation (baseline, §VIII related work): when a slot
    /// idles and a running compute task has exceeded `multiplier` × the
    /// median completed duration, launch a duplicate here; first copy wins.
    /// `stragglers[ji]` is the job's tasks past that threshold, found once
    /// per dispatch: nothing finishes during one, and a task it launches has
    /// run for no time at all.
    fn maybe_speculate(
        &mut self,
        now: SimTime,
        ji: usize,
        node: u32,
        stragglers: &mut [Option<Vec<(f64, u32)>>],
        out: &mut Outbox<Ev>,
    ) -> bool {
        let Some(spec) = self.cfg.speculation else {
            return false;
        };
        let job = &self.jobs[ji];
        if !matches!(job.phase, RunPhase::Stage(_)) {
            return false;
        }
        let Some(durs) = job.stage_durs.as_ref() else {
            return false;
        };
        if durs.count() < spec.min_completed as u64 {
            return false;
        }
        let tasks = &self.tasks;
        let late = stragglers[ji].get_or_insert_with(|| {
            let threshold = durs.median() * spec.multiplier;
            let elapsed = |tid: u32| now.since(tasks.launched_at[tid as usize]).as_secs_f64();
            job.stage_tasks
                .iter()
                .filter(|&&tid| {
                    tasks.state[tid as usize] == TState::Running
                        && matches!(tasks.kind[tid as usize], TaskKind::Compute { .. })
                })
                .map(|&tid| (elapsed(tid), tid))
                .filter(|&(elapsed, _)| elapsed > threshold)
                .collect()
        });
        // Longest-elapsed unduplicated one not on `node`; the first on ties.
        let mut best: Option<(f64, u32)> = None;
        for &(elapsed, tid) in late.iter() {
            if tasks.twin[tid as usize].is_none()
                && tasks.node[tid as usize] != node
                && best.is_none_or(|(e, _)| elapsed > e)
            {
                best = Some((elapsed, tid));
            }
        }
        let Some((_, straggler)) = best else {
            return false;
        };
        let dup = self.tasks.len() as u32;
        let kind = self.tasks.kind[straggler as usize];
        let stage = self.tasks.stage[straggler as usize];
        let mut t = Task::new(self.tasks.job[straggler as usize], stage, kind, now);
        t.twin = Some(straggler);
        t.is_speculative = true;
        self.tasks.push(t);
        self.tasks.twin[straggler as usize] = Some(dup);
        self.trace(
            now,
            TE::Speculate {
                task: straggler,
                twin: dup,
            },
        );
        self.trace(
            now,
            TE::TaskQueued {
                task: dup,
                stage,
                class: Self::trace_class(kind),
                attempt: 0,
            },
        );
        self.launch(now, dup, node, out);
        true
    }

    // ---------------- task launch ----------------

    fn launch(&mut self, now: SimTime, task: u32, node: u32, out: &mut Outbox<Ev>) {
        debug_assert_eq!(self.tasks.state[task as usize], TState::Pending);
        self.launch_count += 1;
        let doomed = self
            .doomed_launches
            .binary_search(&self.launch_count)
            .is_ok();
        self.free_slots[node as usize] -= 1;
        self.note_slot_change(node);
        {
            let i = task as usize;
            self.tasks.set_state(task, TState::Running);
            self.tasks.node[i] = node;
            self.tasks.launched_at[i] = now;
            self.tasks.doomed[i] = doomed;
        }
        {
            let i = task as usize;
            self.trace(
                now,
                TE::TaskLaunched {
                    task,
                    node,
                    class: Self::trace_class(self.tasks.kind[i]),
                    attempt: self.tasks.attempt[i],
                    queue_delay: now.since(self.tasks.queued_at[i]),
                    speculative: self.tasks.is_speculative[i],
                },
            );
        }
        match self.tasks.kind[task as usize] {
            TaskKind::Compute { part } => self.launch_compute(now, task, node, part, out),
            TaskKind::Store { producer } => self.launch_store(now, task, node, producer, out),
            TaskKind::Fetch { reducer } => self.launch_fetch(now, task, node, reducer, out),
        }
    }

    fn launch_compute(
        &mut self,
        now: SimTime,
        task: u32,
        node: u32,
        part: u32,
        out: &mut Outbox<Ev>,
    ) {
        let plan = self.plan_of(task);
        let stage_idx = self.tasks.stage[task as usize] as usize;
        let stage = &plan.stages[stage_idx];

        // Resolve input: bytes, records, data, the I/O to issue, locality.
        // A cached partition lost with its node is rebuilt from lineage: the
        // task reads the original dataset partition again and evaluates the
        // recovery stage in place of its own.
        let mut stage_override = None;
        let (in_bytes, in_records, data, io_plan, locality) = match &stage.input {
            StageInput::Dataset { rdd, .. } => self.dataset_input(*rdd, part, node),
            StageInput::Cached { rdd } => match self.blockmgr.try_partition(*rdd, part) {
                Some((bytes, records, data, home)) => {
                    let (io, locality) = if home == node {
                        (IoPlan::None, TaskLocality::NodeLocal)
                    } else {
                        (IoPlan::NetOnly { src: home, bytes }, TaskLocality::Remote)
                    };
                    (bytes, records, data, io, locality)
                }
                None => {
                    let (rec_stage, source) = self.recovery_stage(task, &plan, stage, *rdd, part);
                    stage_override = Some(rec_stage);
                    self.dataset_input(source, part, node)
                }
            },
            StageInput::Shuffle(_) => unreachable!("fetch tasks use launch_fetch"),
        };

        let speed = self.speed(node);
        let deferred = data.is_some();
        self.tasks.input_bytes[task as usize] = in_bytes;
        self.tasks.locality[task as usize] = locality;
        if let Some(data) = data {
            // Real partition: the UDF chain (and the partitioning of its
            // output) is a pure function of the shared input — defer it so
            // the dispatch round can evaluate all such work on the worker
            // pool, then commit in launch order.
            let partition = self.real_partitioning(task);
            self.pending.push(Pending {
                task,
                plan: plan.clone(),
                stage: stage_idx,
                partition,
                work: Work::Chain {
                    part,
                    node,
                    in_bytes,
                    in_records,
                    data,
                    speed,
                    stage_override,
                },
            });
        } else {
            // Synthetic partition: size-model arithmetic only, run inline.
            let stage = stage_override.as_deref().unwrap_or(stage);
            let chain = run_narrow_chain(stage, in_bytes, in_records, None, speed, None);
            self.commit_chain(task, part, node, chain);
        }

        self.issue_io_plan(now, task, node, in_bytes, io_plan, out);

        // A deferred chain has no compute duration yet; its commit in
        // `flush_pending` schedules the finish instead.
        if !deferred {
            self.maybe_schedule_finish(now, task, out);
        }
    }

    /// Input description for a dataset-rooted compute task (also used when
    /// rebuilding a lost cached partition from lineage).
    fn dataset_input(
        &self,
        rdd: RddId,
        part: u32,
        node: u32,
    ) -> (f64, u64, Option<Arc<[Record]>>, IoPlan, TaskLocality) {
        let placed = &self.placed[&rdd][part as usize];
        let bytes = placed.bytes;
        let records = placed.records;
        let data = placed.data.clone();
        match (placed.hdfs_block, placed.lustre) {
            (Some(b), _) => {
                let (mut src, loc) = self.hdfs.preferred_source(NodeId(node), b);
                let mut locality = match loc {
                    Locality::NodeLocal => TaskLocality::NodeLocal,
                    Locality::RackLocal => TaskLocality::RackLocal,
                    Locality::Remote => TaskLocality::Remote,
                };
                if !self.node_up[src.index()] {
                    // Preferred replica host is down: read any live replica.
                    // (With every replica down we still charge the read to
                    // the dead host's store — input durability is assumed.)
                    if let Some(up) = self
                        .hdfs
                        .locations(b)
                        .iter()
                        .copied()
                        .find(|n| self.node_up[n.index()])
                    {
                        src = up;
                        locality = if src.0 == node {
                            TaskLocality::NodeLocal
                        } else {
                            TaskLocality::Remote
                        };
                    }
                }
                (
                    bytes,
                    records,
                    data,
                    IoPlan::HdfsRead { block: b, src },
                    locality,
                )
            }
            (_, Some(lf)) => (
                bytes,
                records,
                data,
                IoPlan::LustreRead { file: lf },
                TaskLocality::Any,
            ),
            // Generated in memory: no input I/O.
            _ => (bytes, records, data, IoPlan::None, TaskLocality::Any),
        }
    }

    /// Issue the input I/O of a compute task against the substrates.
    fn issue_io_plan(
        &mut self,
        now: SimTime,
        task: u32,
        node: u32,
        in_bytes: f64,
        io_plan: IoPlan,
        out: &mut Outbox<Ev>,
    ) {
        match io_plan {
            IoPlan::None => {}
            IoPlan::HdfsRead { block, src } => {
                let file = FileId(HDFS_BLOCK_BASE + block.0);
                if src.0 == node {
                    let tag = self.io_tag(task);
                    self.tasks.pending_io[task as usize] += 1;
                    self.ram_fs[node as usize].read(now, file, Bytes(in_bytes), tag);
                    self.arm_fs(node, false, out);
                } else {
                    let tag = self.net_tag(task);
                    self.tasks.pending_io[task as usize] += 1;
                    let path = self
                        .fabric
                        .path(Endpoint::Node(src), Endpoint::Node(NodeId(node)));
                    let f = self.net.open_flow(now, path, true);
                    self.net.push_chunk(now, f, Bytes(in_bytes), tag);
                    self.arm_net(out);
                }
            }
            IoPlan::LustreRead { file } => {
                let tag = self.io_tag(task);
                let rplan = self.lustre.read(now, NodeId(node), file, Bytes(in_bytes));
                self.tasks.pending_io[task as usize] += 1;
                self.lustre.submit_mds(now, rplan.mds_ops, tag);
                self.arm_lustre(out);
                if rplan.oss_bytes > 0.0 {
                    let tag = self.net_tag(task);
                    self.tasks.pending_io[task as usize] += 1;
                    let path = self
                        .fabric
                        .path(Endpoint::Lustre, Endpoint::Node(NodeId(node)));
                    let f = self.net.open_flow(now, path, true);
                    let wire = rplan.oss_bytes + self.lustre.config().read_overhead_bytes;
                    self.net.push_chunk(now, f, Bytes(wire), tag);
                    self.arm_net(out);
                }
            }
            IoPlan::NetOnly { src, bytes } => {
                let tag = self.net_tag(task);
                self.tasks.pending_io[task as usize] += 1;
                let path = self
                    .fabric
                    .path(Endpoint::Node(NodeId(src)), Endpoint::Node(NodeId(node)));
                let f = self.net.open_flow(now, path, true);
                self.net.push_chunk(now, f, Bytes(bytes), tag);
                self.arm_net(out);
            }
        }
    }

    /// Lineage-based recovery (§II-C "lost partitions can be recovered by
    /// recomputing from the lineage"): a compute task found its cached input
    /// partition gone (node crash / executor memory loss). Synthesize the
    /// stage that re-derives it — the recorded source→cache recipe
    /// concatenated with the stage's own chain, rooted at the original
    /// dataset — and return it with the source RDD to read. The cache point
    /// inside the combined chain re-materializes the partition at the
    /// recomputing node.
    fn recovery_stage(
        &mut self,
        task: u32,
        plan: &JobPlan,
        stage: &StagePlan,
        rdd: RddId,
        part: u32,
    ) -> (Arc<StagePlan>, RddId) {
        let Some(spec) = plan.recovery.get(&rdd) else {
            // lint:allow(panic): unrecoverable by design: a cache below a shuffle has no per-partition lineage; dying loudly beats silently wrong output
            panic!(
                "cached partition {part} of {rdd:?} lost with no lineage recipe — \
                 a cache fed through a shuffle cannot be rebuilt in this model"
            );
        };
        if let Some(r) = self.metrics.recovery(self.tasks.job[task as usize]) {
            r.recomputed_partitions += 1;
        }
        // Combined chain: recipe steps, the cache point, then the stage's
        // own steps (stage cache points shift past the recipe prefix).
        let prefix = spec.steps.len();
        let mut steps = spec.steps.clone();
        steps.extend(stage.steps.iter().cloned());
        let mut cache_points = vec![(spec.cache_step, rdd)];
        cache_points.extend(stage.cache_points.iter().map(|&(i, r)| (i + prefix, r)));
        self.ensure_placed(spec.source, &spec.dataset);
        let rec_stage = StagePlan {
            input: StageInput::Dataset {
                rdd: spec.source,
                dataset: spec.dataset.clone(),
            },
            steps,
            cache_points,
            shuffle_out: stage.shuffle_out,
        };
        (Arc::new(rec_stage), spec.source)
    }

    /// Write one evaluated chain into the task arena and insert its cache
    /// snapshots: the single commit path for inline (synthetic) and deferred
    /// (real-partition) chains.
    fn commit_chain(&mut self, task: u32, part: u32, node: u32, chain: ChainOut) {
        let (dur, out_bytes, out_records, out_data, snaps) = chain;
        let i = task as usize;
        self.tasks.compute_dur[i] = dur.mul_f64(self.jitter(task)) + self.cfg.spark.task_overhead;
        self.tasks.output_bytes[i] = out_bytes;
        self.tasks.records_est[i] = out_records;
        self.tasks.records_out[i] = out_data.map(Box::new);
        for (rdd, bytes, records, snapshot) in snaps {
            self.blockmgr
                .insert(rdd, part, node, Bytes(bytes), records, snapshot);
        }
    }

    /// Reducer count to hash-partition `task`'s output over: set when its
    /// job is producing a shuffle that carries real rows.
    fn real_partitioning(&self, task: u32) -> Option<u32> {
        let sh = self.job_of(task).shuffle_out.as_ref()?;
        sh.node_real.is_some().then_some(sh.reducers)
    }

    /// Evaluate the record-level work captured this dispatch round and commit
    /// the results in launch order.
    ///
    /// Determinism does not depend on the thread count: placement decisions
    /// already happened sequentially, evaluating a [`Pending`] entry is a pure
    /// function of it, and commits (task fields, cache-snapshot inserts, parked
    /// reducer results, finish events) are applied in the exact order the
    /// tasks were launched. `MEMRES_THREADS=1` and a 16-thread pool produce
    /// byte-identical metrics.
    fn flush_pending(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        if self.pending.is_empty() {
            return;
        }
        let mut jobs = std::mem::take(&mut self.pending);
        let threads = self.executor_threads.min(jobs.len());
        let results = evaluate(&mut jobs, threads);
        for (job, chain) in jobs.into_iter().zip(results) {
            match job.work {
                Work::Chain { part, node, .. } => {
                    self.commit_chain(job.task, part, node, chain);
                    self.maybe_schedule_finish(now, job.task, out);
                }
                Work::Reduce { reducer, .. } => {
                    let (_, bytes, records, rows, _) = chain;
                    let rows = rows.expect("real reduce output"); // lint:allow(panic): Work::Reduce always evaluates to real rows
                    let sh = self.job_of_mut(job.task).shuffle_in.as_mut().unwrap(); // lint:allow(panic): a reduce is queued by a fetch launch, whose stage input is that shuffle
                    sh.reduced[reducer as usize] = Reduced::Parked(bytes, records, rows);
                }
            }
        }
    }

    fn launch_store(
        &mut self,
        now: SimTime,
        task: u32,
        node: u32,
        producer: u32,
        out: &mut Outbox<Ev>,
    ) {
        let bytes = self.tasks.output_bytes[producer as usize];
        let speed = self.speed(node);
        // Partition + Java-serialization cost of the flush (Spark 0.7 era).
        let cpu = SimDuration::from_secs_f64(bytes / (300.0e6 * speed)).mul_f64(self.jitter(task))
            + self.cfg.spark.task_overhead;
        {
            let i = task as usize;
            self.tasks.compute_dur[i] = cpu;
            self.tasks.input_bytes[i] = bytes;
            self.tasks.output_bytes[i] = bytes;
        }
        match self.cfg.shuffle {
            ShuffleStore::Local(dev) => {
                let file = self.node_store_file(task, node);
                if bytes > 0.0 {
                    let ssd = dev == StoreDevice::Ssd;
                    let tag = self.io_tag(task);
                    let fs = if ssd {
                        &mut self.ssd_fs[node as usize]
                    } else {
                        &mut self.ram_fs[node as usize]
                    };
                    assert!(
                        fs.free() >= bytes,
                        "shuffle store on node {node} out of space — the paper's \
                         RAMDisk-backed store tops out at ~1.2 TB aggregate"
                    );
                    self.tasks.pending_io[task as usize] += 1;
                    fs.write(now, file, Bytes(bytes), tag);
                    self.arm_fs(node, ssd, out);
                }
            }
            ShuffleStore::LustreLocal | ShuffleStore::LustreShared => {
                let file = self.node_lustre_file(task, node);
                let tag = self.io_tag(task);
                let wplan = self.lustre.append(now, NodeId(node), file, Bytes(bytes));
                self.tasks.pending_io[task as usize] += 1;
                self.lustre.submit_mds(now, wplan.mds_ops, tag);
                self.arm_lustre(out);
                if wplan.oss_bytes > 0.0 {
                    let tag = self.net_tag(task);
                    self.tasks.pending_io[task as usize] += 1;
                    let path = self
                        .fabric
                        .path(Endpoint::Node(NodeId(node)), Endpoint::Lustre);
                    let f = self.net.open_flow(now, path, true);
                    let wire = wplan.oss_bytes / self.lustre.config().write_efficiency;
                    self.net.push_chunk(now, f, Bytes(wire), tag);
                    self.arm_net(out);
                }
            }
        }
        self.maybe_schedule_finish(now, task, out);
    }

    fn node_store_file(&mut self, task: u32, node: u32) -> FileId {
        let ji = self.job_index_of(task);
        let next = &mut self.next_shuffle_file;
        let sh = self.jobs[ji]
            .shuffle_out
            .as_mut()
            .expect("store without produced shuffle"); // lint:allow(panic): a storing task exists only for a stage that produced a shuffle
        *sh.local_files[node as usize].get_or_insert_with(|| {
            let f = FileId(*next);
            *next += 1;
            f
        })
    }

    fn node_lustre_file(&mut self, task: u32, node: u32) -> LustreFile {
        let ji = self.job_index_of(task);
        let next = &mut self.next_shuffle_file;
        let job = &mut self.jobs[ji];
        let sh = job
            .shuffle_out
            .as_mut()
            .expect("store without produced shuffle"); // lint:allow(panic): a storing task exists only for a stage that produced a shuffle
        *sh.lustre_files[node as usize].get_or_insert_with(|| {
            let f = LustreFile(*next);
            *next += 1;
            job.lustre_files.push(f);
            f
        })
    }

    fn launch_fetch(
        &mut self,
        now: SimTime,
        task: u32,
        node: u32,
        reducer: u32,
        out: &mut Outbox<Ev>,
    ) {
        let workers = self.spec.workers;
        let req = self.cfg.spark.reducer_max_bytes_in_flight;
        let oh = self.cfg.spark.per_request_overhead_bytes;
        let compress = if self.cfg.spark.shuffle_compress {
            self.cfg.spark.shuffle_compress_ratio
        } else {
            1.0
        };
        let ji = self.job_index_of(task);
        let plan = self.jobs[ji].plan.clone();
        let stage_idx = self.tasks.stage[task as usize] as usize;
        let stage = &plan.stages[stage_idx];
        self.queue_reduce(task, reducer, &plan, stage_idx);

        // Bucket sizes and shuffle spec. Above the rack-aggregation
        // threshold, per-node deposits fold into per-source-rack totals and
        // the fetch rides one aggregate flow per rack pair (indexed by rack
        // in `per_source`); below it, exact per-node flows as always.
        let racks = self.spec.racks as usize;
        let sh = self.jobs[ji]
            .shuffle_in
            .as_ref()
            .expect("fetch without shuffle"); // lint:allow(panic): fetch tasks are launched from a stage whose input is that shuffle
        let per_source: Vec<f64> = if sh.aggregated {
            let mut rack_bytes = vec![0.0; racks];
            for i in 0..workers as usize {
                rack_bytes[i % racks] += sh.buckets.get(i, reducer as usize);
            }
            if self.cfg.defect == Some(Defect::DropAggBytes) {
                // Injected defect (fuzz-oracle demo, DESIGN.md §4.13):
                // lose the last rack's fold entirely.
                if let Some(b) = rack_bytes.last_mut() {
                    *b = 0.0;
                }
            }
            rack_bytes
        } else {
            (0..workers as usize)
                .map(|i| sh.buckets.get(i, reducer as usize))
                .collect()
        };
        let total: f64 = per_source.iter().sum();
        let (agg_rate, out_factor, aggregated) =
            (sh.spec.fetch_rate, sh.spec.out_factor, sh.aggregated);

        let speed = self.speed(node);
        let mut dur = SimDuration::from_secs_f64(total / (agg_rate * speed));
        let (chain_dur, out_bytes, out_records, _, _) = run_narrow_chain(
            stage,
            total * out_factor,
            ((total / 64.0).max(1.0)) as u64,
            None,
            speed,
            None,
        );
        dur += chain_dur;
        let dur = dur.mul_f64(self.jitter(task)) + self.cfg.spark.task_overhead;
        {
            let i = task as usize;
            self.tasks.compute_dur[i] = dur;
            self.tasks.input_bytes[i] = total;
            self.tasks.output_bytes[i] = out_bytes;
            self.tasks.records_est[i] = out_records;
        }

        match self.cfg.shuffle {
            ShuffleStore::Local(_) | ShuffleStore::LustreLocal => {
                let lustre_local = matches!(self.cfg.shuffle, ShuffleStore::LustreLocal);
                // Flow endpoints are racks when aggregated, nodes otherwise
                // (`per_source` is indexed the same way).
                let dst = if aggregated {
                    self.fabric.rack_index(NodeId(node)) as u32
                } else {
                    node
                };
                let tag = self.net_tag(task);
                let inflate = |raw: f64| inflate_for_requests(Bytes(raw * compress), req, oh);
                let mut chunks = std::mem::take(&mut self.fetch_chunks);
                chunks.clear();
                for (src, &b) in per_source.iter().enumerate() {
                    if b <= 0.0 {
                        continue;
                    }
                    // Wire bytes served from the source's store or server
                    // page cache (kind 0) and from the OSSes (kind 1).
                    let (cached, oss) = if !lustre_local {
                        (inflate(b), Bytes::ZERO)
                    } else {
                        let sh = self.jobs[ji].shuffle_in.as_ref().unwrap(); // lint:allow(panic): fetch tasks are launched from a stage whose input is that shuffle
                        if aggregated {
                            // Split the rack total by the byte-weighted
                            // cached share of its member nodes.
                            let cached_raw = (src..workers as usize)
                                .step_by(racks)
                                .map(|i| sh.buckets.get(i, reducer as usize) * sh.cached_frac[i])
                                .sum::<f64>();
                            (inflate(cached_raw), inflate(b - cached_raw))
                        } else {
                            let wire = inflate(b);
                            let cached = wire * sh.cached_frac[src];
                            (cached, wire - cached)
                        }
                    };
                    for (kind, wire) in [(0u8, cached), (1, oss)] {
                        if wire.is_positive() {
                            self.tasks.pending_io[task as usize] += 1;
                            chunks.push((self.fetch_flow(now, ji, src as u32, dst, kind), wire));
                        }
                    }
                }
                self.net.push_chunks(now, tag, &chunks);
                self.fetch_chunks = chunks;
                self.net.end_batch();
                self.arm_net(out);
            }
            ShuffleStore::LustreShared => {
                // Metadata storm: per-file lock ops at the MDS, plus the
                // revocation bookkeeping share; then an OSS read gated on the
                // mass flush (see `lustre_shared_transfer`).
                let ops = workers as f64 * self.lustre.config().ops_lock
                    + self.lustre.config().ops_revoke;
                let tag = self.io_tag(task);
                self.tasks.pending_io[task as usize] += 2; // mds + data
                self.lustre.submit_mds(now, ops, tag);
                self.arm_lustre(out);
            }
        }
        self.maybe_schedule_finish(now, task, out);
    }

    /// Real rows: the first launch of `reducer` takes its segments out of
    /// `node_real` in gather order (the shuffle barrier guarantees they are
    /// complete) and queues their aggregation for this round's flush. A
    /// retry finds the result parked and queues nothing, so the aggregation
    /// runs once per reducer however many attempts it takes.
    fn queue_reduce(&mut self, task: u32, reducer: u32, plan: &Arc<JobPlan>, stage: usize) {
        let sh = self
            .job_of_mut(task)
            .shuffle_in
            .as_mut()
            .expect("fetch without shuffle"); // lint:allow(panic): fetch tasks are launched from a stage whose input is that shuffle
        let Some(real) = sh.node_real.as_mut() else {
            return; // synthetic shuffle: sizes only
        };
        let slot = &mut sh.reduced[reducer as usize];
        if !matches!(slot, Reduced::Unlaunched) {
            return;
        }
        *slot = Reduced::Taken;
        let segments = real
            .iter_mut()
            .flat_map(|node| std::mem::take(&mut node[reducer as usize]))
            .collect();
        let agg = sh.spec.agg.clone();
        let partition = self.real_partitioning(task);
        self.pending.push(Pending {
            task,
            plan: plan.clone(),
            stage,
            partition,
            work: Work::Reduce {
                reducer,
                agg,
                segments,
            },
        });
    }

    /// Persistent fetch flow for `(src, dst, kind)` of the shuffle resident
    /// job `ji` is reading: one indexed load once opened, opened on first
    /// use. Kind 0 is served by the source's store (or Lustre server page
    /// cache), kind 1 by the OSSes through the Lustre pipe ("repetitive data
    /// movement"). In an aggregated shuffle `src` and `dst` are racks and the
    /// flow is processor-shared: concurrent reducers behind it split its
    /// bandwidth evenly — the split the collapsed per-node flows would
    /// converge to under water-filling. A shuffle is aggregated or not for
    /// its whole life, so its table is indexed one way throughout.
    fn fetch_flow(&mut self, now: SimTime, ji: usize, src: u32, dst: u32, kind: u8) -> FlowId {
        let sh = self.jobs[ji].shuffle_in.as_mut().unwrap(); // lint:allow(panic): fetch_flow is reached only from fetch paths, which require shuffle_in
        let endpoints = sh.fetch_flows.len() / 2;
        let row = &mut sh.fetch_flows[dst as usize * 2 + kind as usize];
        if row.is_empty() {
            row.resize(endpoints, UNOPENED);
        }
        let entry = &mut row[src as usize];
        if *entry != UNOPENED {
            return *entry;
        }
        *entry = if sh.aggregated {
            let mut path = self.fabric.rack_aggregate_path(src as usize, dst as usize);
            if kind == 1 {
                path.insert(0, self.fabric.lustre_pipe());
            }
            path.dedup();
            self.net.open_shared_flow(now, path, false)
        } else {
            // The serving side (store read bandwidth, or the Lustre pipe),
            // then the server and destination NICs across the fabric.
            let mut path = vec![if kind == 0 {
                self.store_read_links[src as usize]
            } else {
                self.fabric.lustre_pipe()
            }];
            path.extend(
                self.fabric
                    .path(Endpoint::Node(NodeId(src)), Endpoint::Node(NodeId(dst))),
            );
            path.dedup();
            let flow = self.net.open_flow(now, path, false);
            // A node-to-node flow queues one chunk per reducer running on
            // the destination node (a capacity hint: a retry can queue behind
            // a failed attempt's). Rack-aggregated flows serve a whole rack
            // and are left to grow.
            self.net
                .reserve_chunks(flow, self.spec.cores_per_node as usize);
            flow
        };
        *entry
    }

    /// Give back the persistent fetch flows of a shuffle nothing will read
    /// again: its fetch stage is over, or its job is leaving. They are idle
    /// unless a failed or aborted attempt left chunks in flight, and closing
    /// an idle flow only frees its slot; closing one that still carries
    /// chunks drops them and retires the armed `NetWake`, so the net is
    /// re-armed here.
    fn release_fetch_flows(&mut self, now: SimTime, sh: &ShuffleState, out: &mut Outbox<Ev>) {
        let armed = self.net.gen();
        for &f in sh.fetch_flows.iter().flatten().filter(|&&f| f != UNOPENED) {
            self.net.close_flow(now, f);
        }
        if self.net.gen() != armed {
            self.arm_net(out);
        }
    }

    /// A departing job gives back what its shuffles hold in the substrates:
    /// the fetch flows of the one it was reading, and every Lustre file it
    /// wrote — deleting one releases its writer's DLM lock and the client
    /// cache it pins. A delete retires the armed `LustreWake`, so the MDS is
    /// re-armed for the other residents.
    fn release_shuffle_state(&mut self, now: SimTime, job: &JobRun, out: &mut Outbox<Ev>) {
        if let Some(sh) = &job.shuffle_in {
            self.release_fetch_flows(now, sh, out);
        }
        if !job.lustre_files.is_empty() {
            for &f in &job.lustre_files {
                self.lustre.delete(f);
            }
            self.arm_lustre(out);
        }
    }

    // ---------------- completion plumbing ----------------

    /// Stale-completion filter shared by every completion path: drops events
    /// from finished jobs, failed (relaunched) attempts, and cleared tasks.
    fn completion_is_stale(&self, task: u32, attempt: u32, job: u32) -> bool {
        if !self.tasks.contains(task) {
            return true;
        }
        let i = task as usize;
        // A reused task id after `tasks.clear()` belongs to a different job;
        // the 16-bit job mask in the tag tells them apart.
        if job & 0xffff != self.tasks.job[i] & 0xffff {
            return true;
        }
        self.tasks.state[i] != TState::Running || self.tasks.attempt[i] & 0xffff != attempt & 0xffff
    }

    fn task_io_done(
        &mut self,
        now: SimTime,
        task: u32,
        attempt: u32,
        job: u32,
        out: &mut Outbox<Ev>,
    ) {
        if self.completion_is_stale(task, attempt, job) {
            return;
        }
        let i = task as usize;
        debug_assert!(
            self.tasks.pending_io[i] > 0,
            "io done for task without pending io"
        );
        self.tasks.pending_io[i] = self.tasks.pending_io[i].saturating_sub(1);
        if self.tasks.pending_io[i] == 0 {
            self.maybe_schedule_finish(now, task, out);
        }
    }

    fn maybe_schedule_finish(&mut self, now: SimTime, task: u32, out: &mut Outbox<Ev>) {
        let job = self.tasks.job[task as usize];
        let i = task as usize;
        if self.tasks.state[i] != TState::Running
            || self.tasks.finish_scheduled[i]
            || self.tasks.pending_io[i] > 0
        {
            return;
        }
        let finish = if self.tasks.pipelined[i] {
            (self.tasks.launched_at[i] + self.tasks.compute_dur[i]).max(now)
        } else {
            now + self.tasks.compute_dur[i]
        };
        self.tasks.finish_scheduled[i] = true;
        out.at(
            finish,
            Ev::TaskFinish {
                task,
                attempt: self.tasks.attempt[i],
                job,
            },
        );
    }

    fn on_task_finish(
        &mut self,
        now: SimTime,
        task: u32,
        attempt: u32,
        job: u32,
        out: &mut Outbox<Ev>,
    ) {
        if self.completion_is_stale(task, attempt, job) {
            return;
        }
        // Speculation: if this task's twin already finished, this copy lost —
        // just release the slot (the real Spark would have killed it).
        let lost = self.tasks.twin[task as usize]
            .map(|tw| self.tasks.state[tw as usize] == TState::Done)
            .unwrap_or(false);
        // An attempt doomed by the fault plan dies at the instant it would
        // have completed: the full duration becomes wasted work and the task
        // re-queues (or the job aborts at the attempt limit).
        if !lost && self.tasks.doomed[task as usize] {
            self.fail_task(now, task, SimDuration::ZERO, true, out);
            return;
        }
        let (node, stage, kind, ghost) = {
            let i = task as usize;
            self.tasks.set_state(task, TState::Done);
            (
                self.tasks.node[i],
                self.tasks.stage[i],
                self.tasks.kind[i],
                self.tasks.ghost[i],
            )
        };
        self.free_slots[node as usize] += 1;
        self.note_slot_change(node);
        if lost {
            // The losing speculation copy: its whole duration was duplicated
            // work, so the trace marks it ghost (retry-waste in attribution).
            self.trace(
                now,
                TE::TaskFinished {
                    task,
                    node,
                    class: Self::trace_class(kind),
                    attempt,
                    ghost: true,
                },
            );
            out.immediately(Ev::Dispatch);
            return;
        }
        self.trace(
            now,
            TE::TaskFinished {
                task,
                node,
                class: Self::trace_class(kind),
                attempt,
                ghost,
            },
        );
        // If a speculative copy won, it replaces the original everywhere the
        // job refers to it (storing pins, final-task outputs).
        if self.tasks.is_speculative[task as usize] {
            let orig = self.tasks.twin[task as usize].expect("duplicate without twin"); // lint:allow(panic): duplicate (speculative) tasks are always created with their twin recorded
            let job = self.job_of_mut(task);
            for slot in job.stage_tasks.iter_mut().chain(job.final_tasks.iter_mut()) {
                if *slot == orig {
                    *slot = task;
                }
            }
        }
        if matches!(kind, TaskKind::Compute { .. }) {
            let d = now
                .since(self.tasks.launched_at[task as usize])
                .as_secs_f64();
            if let Some(durs) = &mut self.job_of_mut(task).stage_durs {
                durs.record(d);
            }
        }

        let phase = match kind {
            TaskKind::Compute { .. } => Phase::Compute,
            TaskKind::Store { .. } => Phase::Storing,
            TaskKind::Fetch { .. } => Phase::Shuffling,
        };
        {
            let i = task as usize;
            let index = match kind {
                TaskKind::Compute { part } => part,
                TaskKind::Store { producer } => producer,
                TaskKind::Fetch { reducer } => reducer,
            };
            self.metrics.record(TaskMetric {
                job: self.tasks.job[i],
                stage,
                phase,
                index,
                node,
                queued_at: self.tasks.queued_at[i].as_secs_f64(),
                launched_at: self.tasks.launched_at[i].as_secs_f64(),
                finished_at: now.as_secs_f64(),
                input_bytes: self.tasks.input_bytes[i],
                output_bytes: self.tasks.output_bytes[i],
                locality: self.tasks.locality[i],
            });
        }

        // Ghosts charge time for redone work but deposit nothing — the lost
        // rows were already re-hosted when their node crashed.
        match kind {
            TaskKind::Compute { .. } if !ghost => self.producer_finished(task, node),
            TaskKind::Store { .. } => self.store_finished(now, task),
            TaskKind::Fetch { reducer } if !ghost => {
                self.adopt_reduced(task, reducer);
                self.producer_finished(task, node);
            }
            _ => {}
        }

        let ji = self.job_index_of(task);
        let job = &mut self.jobs[ji];
        job.remaining -= 1;
        if job.remaining == 0 {
            self.advance_phase(now, ji, out);
        } else {
            out.immediately(Ev::Dispatch);
        }
    }

    /// A task that may deposit intermediate data for a produced shuffle.
    fn producer_finished(&mut self, task: u32, node: u32) {
        let out_bytes = self.tasks.output_bytes[task as usize];
        let stage_idx = self.tasks.stage[task as usize] as usize;
        let has_shuffle = self.job_of(task).plan.stages[stage_idx].has_shuffle_output();
        if !has_shuffle {
            return;
        }
        let real_out = self.tasks.records_out[task as usize].take();
        let job = self.job_of_mut(task);
        job.intermediate[node as usize] += out_bytes;
        let sh = job.shuffle_out.as_mut().expect("producer without shuffle"); // lint:allow(panic): producer completions only arrive for stages with a produced shuffle
        match (real_out.map(|b| *b), &mut sh.node_real) {
            // O(reducers): each bucket — already partitioned, sized and
            // summed on the pool — lands as one segment, by handle. Its byte
            // total is an integer sum, so adding it once equals the
            // per-record `f64` accumulation it replaces bit for bit.
            (Some(RealOut::Buckets(buckets)), Some(real)) => {
                for (r, bucket) in buckets.into_iter().enumerate() {
                    sh.buckets.add(node as usize, r, bucket.bytes as f64);
                    if !bucket.rows.is_empty() {
                        real[node as usize][r].push(bucket.rows);
                    }
                }
            }
            _ => sh.buckets.add_uniform(node as usize, out_bytes),
        }
    }

    /// CAD feedback (§VI-B): watch the running average of completed
    /// ShuffleMapTask times against the *healthy baseline* (the first full
    /// window). While the average sits `jump_factor`× above the baseline,
    /// every further completion adds `step` to the dispatch interval —
    /// integral-controller behaviour that keeps throttling until the device
    /// recovers; when the average falls back toward the baseline the
    /// interval unwinds at the same rate.
    fn store_finished(&mut self, now: SimTime, task: u32) {
        let Some(cad) = self.cfg.cad else { return };
        let dur = now
            .since(self.tasks.launched_at[task as usize])
            .as_secs_f64();
        self.cad_window.push_back(dur);
        if self.cad_window.len() > cad.window {
            self.cad_window.pop_front();
        }
        if self.cad_window.len() < cad.window / 2 {
            return;
        }
        let avg = self.cad_window.iter().sum::<f64>() / self.cad_window.len() as f64;
        match self.cad_ref_avg {
            None => self.cad_ref_avg = Some(avg),
            Some(baseline) => {
                if avg > baseline * cad.jump_factor {
                    self.cad_interval += cad.step;
                    // Anti-windup: one healthy task-time of spacing already
                    // drops the write queue to a handful; wider gaps would
                    // idle the device instead of easing GC.
                    let cap = SimDuration::from_secs_f64(baseline);
                    self.cad_interval = self.cad_interval.min(cap);
                } else {
                    self.cad_interval = self.cad_interval - cad.step;
                }
            }
        }
    }

    /// Hand a finishing fetch task its reducer's parked aggregation. The
    /// three fields are written here, after the task's metric was recorded,
    /// because that record (and every export built on it) pins the
    /// size-model `output_bytes` set at launch.
    fn adopt_reduced(&mut self, task: u32, reducer: u32) {
        let Some(slot) = self
            .job_of_mut(task)
            .shuffle_in
            .as_mut()
            .and_then(|sh| sh.reduced.get_mut(reducer as usize))
        else {
            return; // synthetic shuffle: sizes only
        };
        let Reduced::Parked(bytes, records, rows) = std::mem::replace(slot, Reduced::Taken) else {
            unreachable!("fetch task finished before its reducer was evaluated");
        };
        let i = task as usize;
        self.tasks.output_bytes[i] = bytes;
        self.tasks.records_est[i] = records;
        self.tasks.records_out[i] = Some(Box::new(rows));
    }

    fn advance_phase(&mut self, now: SimTime, ji: usize, out: &mut Outbox<Ev>) {
        let phase = self.jobs[ji].phase;
        match phase {
            RunPhase::Stage(idx) => {
                let has_shuffle = self.jobs[ji].plan.stages[idx].has_shuffle_output();
                if has_shuffle {
                    self.start_storing(now, ji, idx, out);
                } else {
                    self.finish_job(now, ji, out);
                }
            }
            RunPhase::Storing(idx) => {
                self.prepare_fetch_serving(now, ji, out);
                self.start_stage(now, ji, idx + 1, out);
            }
        }
    }

    fn start_storing(&mut self, now: SimTime, ji: usize, stage_idx: usize, out: &mut Outbox<Ev>) {
        let producers = self.jobs[ji].stage_tasks.clone();
        let job_id = self.jobs[ji].id;
        let mut created = Vec::with_capacity(producers.len());
        self.reserve_tasks(job_id, producers.len());
        for &p in &producers {
            // A flush is pinned to its producer's node; if that node died or
            // was blacklisted since, the re-hosted rows flush at the
            // replacement instead.
            let mut node = self.tasks.node[p as usize];
            if !self.node_up[node as usize] || self.blacklisted[node as usize] {
                let Some(repl) = self.replacement_node() else {
                    self.abort_job(now, ji, out);
                    return;
                };
                node = repl;
            }
            let id = self.tasks.len() as u32;
            let kind = TaskKind::Store { producer: p };
            let mut t = Task::new(job_id, stage_idx as u32, kind, now);
            t.locality = TaskLocality::NodeLocal;
            t.pin = node;
            self.tasks.push(t);
            created.push(id);
        }
        for &id in &created {
            self.trace(
                now,
                TE::TaskQueued {
                    task: id,
                    stage: stage_idx as u32,
                    class: memres_trace::TaskClass::Store,
                    attempt: 0,
                },
            );
        }
        let job = &mut self.jobs[ji];
        job.phase = RunPhase::Storing(stage_idx);
        job.remaining = created.len();
        self.enqueue_pending(ji, &created);
        out.immediately(Ev::Dispatch);
    }

    /// Freeze serving-side state before the fetch stage starts: store
    /// read-link capacities (LocalStore), cached fractions (Lustre-local),
    /// and the mass revocation flush (Lustre-shared).
    fn prepare_fetch_serving(&mut self, now: SimTime, ji: usize, out: &mut Outbox<Ev>) {
        let workers = self.spec.workers as usize;
        match self.cfg.shuffle {
            ShuffleStore::Local(dev) => {
                for n in 0..workers {
                    let fs = if dev == StoreDevice::Ssd {
                        &self.ssd_fs[n]
                    } else {
                        &self.ram_fs[n]
                    };
                    let bw = effective_read_bw(fs, dev);
                    self.net
                        .set_link_capacity(now, self.store_read_links[n], bw.max(1.0));
                }
                self.net.end_batch();
                self.arm_net(out);
            }
            ShuffleStore::LustreLocal => {
                let files: Vec<Option<LustreFile>> = self.jobs[ji]
                    .shuffle_out
                    .as_ref()
                    .unwrap() // lint:allow(panic): the LustreLocal flush runs while the producing stage's shuffle_out exists
                    .lustre_files
                    .clone();
                for (n, f) in files.iter().enumerate() {
                    let frac = f.map(|lf| self.lustre.cached_fraction(lf)).unwrap_or(0.0);
                    // lint:allow(panic): the LustreLocal flush runs while the producing stage's shuffle_out exists
                    self.jobs[ji].shuffle_out.as_mut().unwrap().cached_frac[n] = frac;
                }
            }
            ShuffleStore::LustreShared => {
                // "Forcing all the intermediate data to be flushed to the
                // OSSes around the same time" — revoke every node file now.
                let files: Vec<(u32, LustreFile)> = self.jobs[ji]
                    .shuffle_out
                    .as_ref()
                    .unwrap() // lint:allow(panic): the LustreLocal flush runs while the producing stage's shuffle_out exists
                    .lustre_files
                    .iter()
                    .enumerate()
                    .filter_map(|(n, f)| f.map(|lf| (n as u32, lf)))
                    .collect();
                let mut pending = 0;
                for (n, lf) in files {
                    let dirty = self.lustre.revoke(now, lf);
                    if dirty > 0.0 {
                        pending += 1;
                        let path = self
                            .fabric
                            .path(Endpoint::Node(NodeId(n)), Endpoint::Lustre);
                        let f = self.net.open_flow(now, path, true);
                        let wire = dirty / self.lustre.config().write_efficiency;
                        self.net.push_chunk(now, f, Bytes(wire), NetTag::Flush);
                    }
                }
                let sh = self.jobs[ji].shuffle_out.as_mut().unwrap(); // lint:allow(panic): the LustreLocal flush runs while the producing stage's shuffle_out exists
                sh.flush_pending = pending;
                sh.flush_done = pending == 0;
                self.arm_net(out);
            }
        }
    }

    /// A Lustre-shared fetch task is transfer-eligible (its MDS ops are done
    /// AND the mass flush finished): schedule the OSS read one revocation
    /// round trip out. The flow itself opens when [`Ev::LustreSharedRead`]
    /// fires, so the flow network's clock never runs ahead of sim time
    /// (other resident jobs keep mutating it inside the latency window).
    fn lustre_shared_transfer(&mut self, now: SimTime, task: u32, out: &mut Outbox<Ev>) {
        let start = now + self.lustre.config().revoke_latency;
        self.trace(
            now,
            TE::LockWaitFor {
                task,
                dur: self.lustre.config().revoke_latency,
            },
        );
        out.at(
            start,
            Ev::LustreSharedRead {
                task,
                attempt: self.tasks.attempt[task as usize],
                job: self.tasks.job[task as usize],
            },
        );
    }

    /// The deferred OSS read of [`SimWorld::lustre_shared_transfer`].
    fn lustre_shared_read(&mut self, now: SimTime, task: u32, out: &mut Outbox<Ev>) {
        let node = self.tasks.node[task as usize];
        let total = self.tasks.input_bytes[task as usize];
        let compress = if self.cfg.spark.shuffle_compress {
            self.cfg.spark.shuffle_compress_ratio
        } else {
            1.0
        };
        let wire = inflate_for_requests(
            Bytes(total * compress),
            self.cfg.spark.reducer_max_bytes_in_flight,
            self.cfg.spark.per_request_overhead_bytes,
        );
        let path = self
            .fabric
            .path(Endpoint::Lustre, Endpoint::Node(NodeId(node)));
        let f = self.net.open_flow(now, path, true);
        let tag = self.net_tag(task);
        self.net.push_chunk(now, f, wire, tag);
        self.arm_net(out);
    }

    fn on_flush_progress(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        // Flush chunks carry no job identity; attribute the progress to the
        // first resident job (admission order) still waiting on a flush —
        // flush counts are per-job, so order within the set is immaterial.
        let Some(sh) = self.jobs.iter_mut().find_map(|job| {
            job.shuffle_in
                .as_mut()
                .or(job.shuffle_out.as_mut())
                .filter(|sh| sh.flush_pending > 0)
        }) else {
            return;
        };
        sh.flush_pending -= 1;
        if sh.flush_pending == 0 && !sh.flush_done {
            sh.flush_done = true;
            let waiting = std::mem::take(&mut sh.waiting_for_flush);
            for task in waiting {
                self.trace(now, TE::LockWaitEnd { task });
                self.lustre_shared_transfer(now, task, out);
            }
        }
    }

    // ---------------- fault handling & recovery ----------------

    /// First live, non-blacklisted node: the deterministic re-host target
    /// for pinned work and re-hosted shuffle rows.
    fn replacement_node(&self) -> Option<u32> {
        (0..self.spec.workers).find(|&n| self.node_up[n as usize] && !self.blacklisted[n as usize])
    }

    /// Fail a running attempt: account the wasted work, reset the task to
    /// Pending with a bumped attempt number (orphaning any in-flight I/O and
    /// finish events of the old attempt), then re-queue it — after `backoff`
    /// if nonzero. `attribute` counts the failure against the node for
    /// blacklisting; crash- and fetch-induced failures don't.
    fn fail_task(
        &mut self,
        now: SimTime,
        task: u32,
        backoff: SimDuration,
        attribute: bool,
        out: &mut Outbox<Ev>,
    ) {
        self.abandoned_io = true;
        let node = self.tasks.node[task as usize];
        let wasted = now
            .since(self.tasks.launched_at[task as usize])
            .as_secs_f64();
        if let Some(rec) = self.metrics.recovery(self.tasks.job[task as usize]) {
            rec.wasted_secs += wasted;
            rec.tasks_retried += 1;
        }
        self.trace(
            now,
            TE::TaskRetried {
                task,
                node,
                attempt: self.tasks.attempt[task as usize],
                wasted: now.since(self.tasks.launched_at[task as usize]),
                backoff,
            },
        );
        if self.node_up[node as usize] {
            self.free_slots[node as usize] += 1;
            self.note_slot_change(node);
            // A failed flush abandons its partial output: reclaim the space.
            if matches!(self.tasks.kind[task as usize], TaskKind::Store { .. }) {
                if let ShuffleStore::Local(dev) = self.cfg.shuffle {
                    let file = self
                        .job_of(task)
                        .shuffle_out
                        .as_ref()
                        .and_then(|sh| sh.local_files[node as usize]);
                    if let Some(file) = file {
                        let bytes = self.tasks.output_bytes[task as usize];
                        let fs = if dev == StoreDevice::Ssd {
                            &mut self.ssd_fs[node as usize]
                        } else {
                            &mut self.ram_fs[node as usize]
                        };
                        fs.truncate(file, Bytes(bytes));
                    }
                }
            }
        }
        {
            let i = task as usize;
            self.tasks.set_state(task, TState::Pending);
            // Pending again, it is runnable wherever a queue still holds an
            // entry of its earlier attempt — before any requeue.
            self.cands.unpark_all();
            self.tasks.node[i] = u32::MAX;
            self.tasks.attempt[i] += 1;
            self.tasks.doomed[i] = false;
            self.tasks.pending_io[i] = 0;
            self.tasks.finish_scheduled[i] = false;
            self.tasks.records_out[i] = None;
            self.tasks.compute_dur[i] = SimDuration::ZERO;
            self.tasks.queued_at[i] = now;
        }
        if self.tasks.attempt[task as usize] >= self.cfg.recovery.max_task_attempts {
            let ji = self.job_index_of(task);
            self.abort_job(now, ji, out);
            return;
        }
        if attribute && self.node_up[node as usize] && !self.blacklisted[node as usize] {
            self.node_fail_counts[node as usize] += 1;
            if self.node_fail_counts[node as usize] >= self.cfg.recovery.blacklist_after {
                self.blacklisted[node as usize] = true;
                self.note_slot_change(node);
                if let Some(rec) = self.metrics.recovery(self.tasks.job[task as usize]) {
                    rec.blacklisted_nodes += 1;
                }
                self.trace(now, TE::Blacklisted { node });
                self.repin_pinned_off(node);
            }
        }
        // Drop dead/blacklisted nodes from the task's preferences; a pinned
        // task left with nowhere to go re-pins to the replacement.
        let usable = |n: u32| self.node_up[n as usize] && !self.blacklisted[n as usize];
        let pin = self.tasks.pin[task as usize];
        if pin == UNPINNED {
            self.tasks.prefs[task as usize].retain(|&n| usable(n));
        } else if !usable(pin) {
            let Some(repl) = self.replacement_node() else {
                let ji = self.job_index_of(task);
                self.abort_job(now, ji, out);
                return;
            };
            self.tasks.pin[task as usize] = repl;
        }
        self.trace(
            now,
            TE::TaskQueued {
                task,
                stage: self.tasks.stage[task as usize],
                class: Self::trace_class(self.tasks.kind[task as usize]),
                attempt: self.tasks.attempt[task as usize],
            },
        );
        if backoff > SimDuration::ZERO {
            out.after(
                backoff,
                Ev::Requeue {
                    task,
                    job: self.tasks.job[task as usize],
                },
            );
            // Bugfix (DESIGN.md §4.14): the backoff requeue is the only
            // slot-freeing path that does not schedule a Dispatch. If the
            // last dispatch pass starved (no available node, no retry wake),
            // the freed slot must re-arm dispatch or pending work wedges
            // until an unrelated event happens along.
            if self.dispatch_starved && self.node_up[node as usize] {
                self.dispatch_starved = false;
                out.immediately(Ev::Dispatch);
            }
        } else {
            let ji = self.job_index_of(task);
            self.enqueue_pending(ji, &[task]);
            out.immediately(Ev::Dispatch);
        }
    }

    /// Re-pin pending pinned tasks away from a dead/blacklisted node. Their
    /// queue entries on the old node are left behind; dispatch never visits
    /// that node, and `pick` tolerates duplicates.
    fn repin_pinned_off(&mut self, node: u32) {
        let Some(repl) = self.replacement_node() else {
            return;
        };
        let mut moved = Vec::new();
        for i in 0..self.tasks.len() {
            if self.tasks.state[i] == TState::Pending && self.tasks.pin[i] == node {
                self.tasks.pin[i] = repl;
                moved.push(i as u32);
            }
        }
        for id in moved {
            let ji = self.job_index_of(id);
            self.jobs[ji].prefs_q[repl as usize].push_back(id);
            self.cands.unpark(repl);
        }
    }

    /// Give up on one job: a task exhausted its attempt budget or no live
    /// node remains. Mirrors Spark's job abort after repeated task failure.
    /// Other resident jobs keep running.
    fn abort_job(&mut self, now: SimTime, ji: usize, out: &mut Outbox<Ev>) {
        let id = self.jobs[ji].id;
        if let Some(rec) = self.metrics.recovery(id) {
            rec.aborted_jobs += 1;
        }
        self.trace(
            now,
            TE::JobEnd {
                job: id,
                aborted: true,
            },
        );
        self.abandoned_io = true;
        let job = self.jobs.remove(ji);
        self.release_shuffle_state(now, &job, out);
        // Retire the aborted job's tasks. Running ones hand their slot back
        // (the stale-completion filter drops their in-flight IO); queue
        // entries die with the JobRun.
        for i in 0..self.tasks.len() {
            if self.tasks.job[i] != id {
                continue;
            }
            match self.tasks.state[i] {
                TState::Pending => self.tasks.set_state(i as u32, TState::Done),
                TState::Running => {
                    let node = self.tasks.node[i];
                    self.tasks.set_state(i as u32, TState::Done);
                    if node != u32::MAX && self.node_up[node as usize] {
                        self.free_slots[node as usize] += 1;
                        self.note_slot_change(node);
                    }
                }
                TState::Done => {}
            }
        }
        {
            let tasks = &self.tasks;
            self.pending.retain(|c| tasks.job[c.task as usize] != id);
        }
        let output = JobOutput {
            count: 0,
            records: None,
            reduced: None,
            aborted: true,
        };
        let metrics = self.metrics.finish_job(id, now);
        self.note_job_latency(job.tenant, job.arrived, now);
        self.finished.push_back(FinishedJob {
            id,
            tenant: job.tenant,
            arrived: job.arrived,
            admitted: job.admitted,
            finished: now,
            output,
            metrics,
        });
        if self.jobs.is_empty() {
            self.tasks.clear();
        }
        self.on_job_departure(now, job.tenant, out);
        self.job_done = self.jobs.is_empty() && self.stream_drained();
        if self.job_done {
            // Tear the stream down so the driver can submit again later.
            self.stream = None;
        }
    }

    /// A node dies: its slots, running work, cached partitions and (for a
    /// node-local store) deposited intermediate rows are gone. Running tasks
    /// re-queue; lost rows are re-hosted at a replacement node and the work
    /// that produced them is redone as time-only ghost tasks, so the job's
    /// output matches a fault-free run while the recovery time is charged in
    /// full.
    fn node_crash(
        &mut self,
        now: SimTime,
        node: u32,
        restart: Option<SimDuration>,
        out: &mut Outbox<Ev>,
    ) {
        if !self.node_up[node as usize] {
            return;
        }
        self.metrics.recovery_all(|r| r.node_crashes += 1);
        self.node_up[node as usize] = false;
        self.trace(now, TE::NodeDown { node });
        let lost = self.blockmgr.drop_node(node);
        let n_lost = lost.len() as u64;
        self.metrics.recovery_all(|r| r.blocks_lost += n_lost);
        if !lost.is_empty() {
            self.trace(
                now,
                TE::BlocksLost {
                    node,
                    blocks: lost.len() as u64,
                },
            );
        }
        if let Some(d) = restart {
            out.after(d, Ev::NodeRestart { node });
        }
        // Fail everything running there (node_up is already false, so
        // fail_task won't hand slots back to the dead node).
        let running: Vec<u32> = (0..self.tasks.len())
            .filter(|&i| self.tasks.state[i] == TState::Running && self.tasks.node[i] == node)
            .map(|i| i as u32)
            .collect();
        for id in running {
            // A failure can abort the owning job, retiring its siblings (and,
            // when it was the last resident job, clearing the whole arena).
            if id as usize >= self.tasks.len() || self.tasks.state[id as usize] != TState::Running {
                continue;
            }
            self.fail_task(now, id, SimDuration::ZERO, false, out);
        }
        self.free_slots[node as usize] = 0;
        self.note_slot_change(node);
        if self.jobs.is_empty() {
            return;
        }
        let Some(repl) = self.replacement_node() else {
            // No live node left: every resident job dies with the cluster.
            while !self.jobs.is_empty() {
                self.abort_job(now, 0, out);
            }
            return;
        };
        self.repin_pinned_off(node);
        // Fetch tasks mid-pull from the dead node retry with backoff (the
        // shared Lustre store serves every byte from the OSSes — nothing to
        // retry there beyond the reducers that died with the node).
        if !matches!(self.cfg.shuffle, ShuffleStore::LustreShared) {
            self.fail_fetches_from(now, node, out);
            if self.jobs.is_empty() {
                return;
            }
        }
        let local_store = matches!(self.cfg.shuffle, ShuffleStore::Local(_));
        for job in &mut self.jobs {
            // Rows of the shuffle being produced live in executor memory or
            // the node-local store: re-host them. Rows already consumed from
            // Lustre survive the crash on the OSSes.
            if let Some(sh) = job.shuffle_out.as_mut() {
                Self::move_shuffle_rows(sh, node as usize, repl as usize);
            }
            if let Some(sh) = job.shuffle_in.as_mut() {
                if local_store {
                    Self::move_shuffle_rows(sh, node as usize, repl as usize);
                } else {
                    // Server page cache died with the node; refetches stream
                    // from the OSSes instead.
                    sh.cached_frac[node as usize] = 0.0;
                }
            }
            job.intermediate[repl as usize] += job.intermediate[node as usize];
            job.intermediate[node as usize] = 0.0;
        }
        self.trace(
            now,
            TE::Rehost {
                from: node,
                to: repl,
            },
        );
        for ji in 0..self.jobs.len() {
            self.spawn_crash_ghosts(now, ji, node, repl, local_store);
        }
        out.immediately(Ev::Dispatch);
    }

    /// Fail every running fetch task currently pulling rows from `src`.
    fn fail_fetches_from(&mut self, now: SimTime, src: u32, out: &mut Outbox<Ev>) {
        let victims: Vec<u32> = (0..self.tasks.len())
            .filter(|&i| {
                self.tasks.state[i] == TState::Running
                    && matches!(self.tasks.kind[i], TaskKind::Fetch { reducer }
                        if self
                            .jobs
                            .iter()
                            .find(|j| j.id == self.tasks.job[i])
                            .and_then(|j| j.shuffle_in.as_ref())
                            .map(|sh| sh.buckets.get(src as usize, reducer as usize) > 0.0)
                            .unwrap_or(false))
            })
            .map(|i| i as u32)
            .collect();
        for id in victims {
            // A prior failure may have aborted the owning job (or cleared
            // the arena entirely) — skip stale victims.
            if id as usize >= self.tasks.len() || self.tasks.state[id as usize] != TState::Running {
                continue;
            }
            let att = self.tasks.attempt[id as usize].min(8);
            let backoff = self
                .cfg
                .recovery
                .fetch_backoff
                .mul_f64(2f64.powi(att as i32));
            if let Some(rec) = self.metrics.recovery(self.tasks.job[id as usize]) {
                rec.failed_fetches += 1;
                rec.fetch_retries += 1;
            }
            self.fail_task(now, id, backoff, false, out);
        }
    }

    /// Move every deposited row of `dead` to `repl` in one shuffle state:
    /// recovery re-hosts the data, and ghost tasks recharge the time it took
    /// to produce it. The dead node's store file is forgotten, so relaunched
    /// fetches read from the replacement.
    fn move_shuffle_rows(sh: &mut ShuffleState, dead: usize, repl: usize) {
        sh.buckets.move_node(dead, repl);
        if let Some(real) = sh.node_real.as_mut() {
            let moved = std::mem::replace(&mut real[dead], vec![Vec::new(); sh.reducers as usize]);
            for (b, mut recs) in moved.into_iter().enumerate() {
                real[repl][b].append(&mut recs);
            }
        }
        sh.local_files[dead] = None;
        sh.cached_frac[dead] = 0.0;
    }

    /// Redo the dead node's finished producer work as time-only ghosts
    /// pinned to the replacement: recompute ghosts for its compute tasks of
    /// the stage feeding the live shuffle, and re-flush ghosts for its store
    /// tasks when the store died with the node.
    fn spawn_crash_ghosts(
        &mut self,
        now: SimTime,
        ji: usize,
        node: u32,
        repl: u32,
        local_store: bool,
    ) {
        let job_id = self.jobs[ji].id;
        let (producing_stage, has_shuffle_out) = {
            let job = &self.jobs[ji];
            let producing = match job.phase {
                RunPhase::Stage(idx) => {
                    if job.plan.stages[idx].has_shuffle_output() {
                        Some(idx as u32)
                    } else if matches!(job.plan.stages[idx].input, StageInput::Shuffle(_))
                        && idx > 0
                    {
                        // Fetch phase: the consumed rows came from stage idx-1.
                        Some(idx as u32 - 1)
                    } else {
                        None
                    }
                }
                RunPhase::Storing(idx) => Some(idx as u32),
            };
            (producing, job.shuffle_out.is_some())
        };
        let mut ghosts: Vec<(u32, TaskKind)> = Vec::new();
        for i in 0..self.tasks.len() {
            if self.tasks.state[i] != TState::Done
                || self.tasks.node[i] != node
                || self.tasks.job[i] != job_id
            {
                continue;
            }
            match self.tasks.kind[i] {
                TaskKind::Compute { .. } if Some(self.tasks.stage[i]) == producing_stage => {
                    ghosts.push((self.tasks.stage[i], self.tasks.kind[i]));
                }
                TaskKind::Store { .. } if has_shuffle_out && local_store => {
                    ghosts.push((self.tasks.stage[i], self.tasks.kind[i]));
                }
                _ => {}
            }
        }
        if ghosts.is_empty() {
            return;
        }
        let mut created = Vec::with_capacity(ghosts.len());
        self.reserve_tasks(job_id, ghosts.len());
        for (stage, kind) in ghosts {
            if matches!(kind, TaskKind::Compute { .. }) {
                if let Some(rec) = self.metrics.recovery(job_id) {
                    rec.recomputed_partitions += 1;
                }
            }
            let id = self.tasks.len() as u32;
            let mut t = Task::new(job_id, stage, kind, now);
            t.pin = repl;
            t.ghost = true;
            self.tasks.push(t);
            created.push(id);
        }
        self.trace(
            now,
            TE::GhostsSpawned {
                node,
                count: created.len() as u32,
            },
        );
        for &id in &created {
            self.trace(
                now,
                TE::TaskQueued {
                    task: id,
                    stage: self.tasks.stage[id as usize],
                    class: Self::trace_class(self.tasks.kind[id as usize]),
                    attempt: 0,
                },
            );
        }
        self.jobs[ji].remaining += created.len();
        self.enqueue_pending(ji, &created);
    }

    /// Apply a scheduled fault-plan event.
    fn apply_fault(&mut self, now: SimTime, idx: usize, out: &mut Outbox<Ev>) {
        let Some(kind) = self
            .cfg
            .faults
            .as_ref()
            .and_then(|p| p.events.get(idx))
            .map(|e| e.kind)
        else {
            return;
        };
        self.trace(
            now,
            TE::FaultInjected {
                kind: kind.label(),
                node: kind.node().unwrap_or(u32::MAX),
            },
        );
        match kind {
            FaultKind::NodeCrash { node, restart } => self.node_crash(now, node, restart, out),
            FaultKind::BlockLoss { node } => {
                // Executor memory loss: cached partitions evaporate, the
                // node itself keeps running. Lineage rebuilds them on demand.
                let lost = self.blockmgr.drop_node(node);
                let n_lost = lost.len() as u64;
                self.metrics.recovery_all(|r| r.blocks_lost += n_lost);
            }
            FaultKind::SsdDegrade { node, factor } => {
                self.metrics.recovery_all(|r| r.ssd_degradations += 1);
                self.ssd_fs[node as usize].degrade_device(now, factor);
                self.arm_fs(node, true, out);
                if let ShuffleStore::Local(StoreDevice::Ssd) = self.cfg.shuffle {
                    let bw = effective_read_bw(&self.ssd_fs[node as usize], StoreDevice::Ssd);
                    let link = self.store_read_links[node as usize];
                    self.net.set_link_capacity(now, link, bw.max(1.0));
                    self.arm_net(out);
                }
            }
            FaultKind::FetchFail { src } => self.fail_fetches_from(now, src, out),
            // Consumed at launch via `doomed_launches`.
            FaultKind::TaskFail { .. } => {}
        }
    }

    fn finish_job(&mut self, now: SimTime, ji: usize, out: &mut Outbox<Ev>) {
        let job = self.jobs.remove(ji);
        self.abandoned_io |= self.tasks.running[job.id as usize] > 0;
        self.release_shuffle_state(now, &job, out);
        self.trace(
            now,
            TE::JobEnd {
                job: job.id,
                aborted: false,
            },
        );
        // The final tasks' shared output slices, in task order; only
        // `Collect` copies records out of them.
        let mut count = 0u64;
        let mut slices: Vec<&[Record]> = Vec::new();
        for &t in &job.final_tasks {
            let i = t as usize;
            count += self.tasks.records_est[i];
            if let Some(RealOut::Rows(r)) = self.tasks.records_out[i].as_deref() {
                slices.push(r);
            }
        }
        let have_real = slices.len() == job.final_tasks.len();
        let real_count = slices.iter().map(|s| s.len() as u64).sum();
        let output = match &job.plan.action {
            Action::Count => JobOutput {
                count: if have_real { real_count } else { count },
                records: None,
                reduced: None,
                aborted: false,
            },
            Action::Collect => JobOutput {
                count: if have_real { real_count } else { count },
                records: have_real.then(|| slices.concat()),
                reduced: None,
                aborted: false,
            },
            Action::Reduce(f) => {
                let reduced = have_real.then(|| {
                    slices
                        .iter()
                        .flat_map(|s| s.iter())
                        .map(|(_, v)| v.clone())
                        .reduce(|a, b| f(a, b))
                        .unwrap_or(Value::Null)
                });
                JobOutput {
                    count,
                    records: None,
                    reduced,
                    aborted: false,
                }
            }
        };
        let metrics = self.metrics.finish_job(job.id, now);
        self.note_job_latency(job.tenant, job.arrived, now);
        self.finished.push_back(FinishedJob {
            id: job.id,
            tenant: job.tenant,
            arrived: job.arrived,
            admitted: job.admitted,
            finished: now,
            output,
            metrics,
        });
        if self.jobs.is_empty() {
            self.tasks.clear();
        }
        self.on_job_departure(now, job.tenant, out);
        self.job_done = self.jobs.is_empty() && self.stream_drained();
        if self.job_done {
            // Tear the stream down so the driver can submit again later.
            self.stream = None;
        }
    }
}

enum IoPlan {
    None,
    HdfsRead { block: BlockId, src: NodeId },
    LustreRead { file: LustreFile },
    NetOnly { src: u32, bytes: f64 },
}

/// Effective serving-read bandwidth of a shuffle store, mixing page-cache
/// hits with device reads (harmonic mean), GC-aware for SSDs.
fn effective_read_bw(fs: &LocalFs, dev: StoreDevice) -> f64 {
    let dev_bw = fs.device().current_read_bandwidth();
    if dev == StoreDevice::RamDisk {
        return dev_bw;
    }
    let stored = fs.used().max(1.0);
    const CACHE: f64 = 6.0 * 1024.0 * 1024.0 * 1024.0;
    let cache_frac = (CACHE / stored).clamp(0.0, 1.0);
    let mem_bw = 3.0e9;
    1.0 / (cache_frac / mem_bw + (1.0 - cache_frac) / dev_bw)
}

impl Model for SimWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, out: &mut Outbox<Ev>) {
        match event {
            Ev::NetWake(gen) => {
                if !gen.is_current(self.net.gen()) {
                    return;
                }
                let delivered = self.net.poll(now);
                let mut flushed = 0u32;
                for d in delivered {
                    match d.tag {
                        NetTag::TaskIo { task, attempt, job } => {
                            self.task_io_done(now, task, attempt, job, out)
                        }
                        NetTag::Flush => flushed += 1,
                    }
                }
                for _ in 0..flushed {
                    self.on_flush_progress(now, out);
                }
                self.arm_net(out);
            }
            Ev::FsWake { node, ssd, gen } => {
                let fs = if ssd {
                    &self.ssd_fs[node as usize]
                } else {
                    &self.ram_fs[node as usize]
                };
                if !gen.is_current(fs.gen()) {
                    return;
                }
                let fs = if ssd {
                    &mut self.ssd_fs[node as usize]
                } else {
                    &mut self.ram_fs[node as usize]
                };
                let done = fs.poll(now);
                for d in done {
                    let (task, attempt, job) = Self::unpack_io_tag(d.tag);
                    self.task_io_done(now, task, attempt, job, out);
                }
                self.arm_fs(node, ssd, out);
                // Keep the store-serving link in sync with SSD GC state.
                if ssd {
                    if let ShuffleStore::Local(StoreDevice::Ssd) = self.cfg.shuffle {
                        let bw = effective_read_bw(&self.ssd_fs[node as usize], StoreDevice::Ssd);
                        let link = self.store_read_links[node as usize];
                        let cur = self.net.link_capacity(link);
                        if (bw - cur).abs() / cur > 0.05 {
                            self.net.set_link_capacity(now, link, bw.max(1.0));
                            self.arm_net(out);
                        }
                    }
                }
            }
            Ev::LustreWake(gen) => {
                if !gen.is_current(self.lustre.gen()) {
                    return;
                }
                let done = self.lustre.poll(now);
                for tag in done {
                    let (task, attempt, job) = Self::unpack_io_tag(tag);
                    // Guard before indexing: a stale completion may refer to
                    // a task of an already-finished (or aborted) job.
                    if self.completion_is_stale(task, attempt, job) {
                        continue;
                    }
                    let is_shared_fetch = matches!(self.cfg.shuffle, ShuffleStore::LustreShared)
                        && matches!(self.tasks.kind[task as usize], TaskKind::Fetch { .. });
                    self.task_io_done(now, task, attempt, job, out);
                    if is_shared_fetch {
                        let ready = self
                            .job_of(task)
                            .shuffle_in
                            .as_ref()
                            .map(|sh| sh.flush_done)
                            .unwrap_or(true);
                        if ready {
                            self.lustre_shared_transfer(now, task, out);
                        } else {
                            self.trace(now, TE::LockWaitStart { task });
                            self.job_of_mut(task)
                                .shuffle_in
                                .as_mut()
                                .unwrap() // lint:allow(panic): flush gating runs only during a fetch stage, which has shuffle_in
                                .waiting_for_flush
                                .push(task);
                        }
                    }
                }
                self.arm_lustre(out);
            }
            Ev::TaskFinish { task, attempt, job } => {
                self.on_task_finish(now, task, attempt, job, out)
            }
            Ev::Requeue { task, job } => {
                // Job ids are never reused, so an id match proves the task
                // still belongs to a resident job (abort marks tasks Done).
                if (task as usize) < self.tasks.len()
                    && self.tasks.job[task as usize] == job
                    && self.tasks.state[task as usize] == TState::Pending
                {
                    let ji = self.job_index_of(task);
                    self.enqueue_pending(ji, &[task]);
                    out.immediately(Ev::Dispatch);
                }
            }
            Ev::Fault { idx } => self.apply_fault(now, idx, out),
            Ev::NodeRestart { node } => {
                if !self.node_up[node as usize] {
                    self.node_up[node as usize] = true;
                    self.free_slots[node as usize] = self.spec.cores_per_node;
                    self.note_slot_change(node);
                    self.node_fail_counts[node as usize] = 0;
                    self.metrics.recovery_all(|r| r.node_restarts += 1);
                    self.trace(now, TE::NodeUp { node });
                    self.dispatch_starved = false;
                    out.immediately(Ev::Dispatch);
                } else if self.blacklisted[node as usize] {
                    // Restarting a live-but-blacklisted executor clears the
                    // blacklist (the fresh process starts with a clean fault
                    // record); its slots become eligible again, so re-arm
                    // dispatch — without this, a fully-blacklisted cluster
                    // wedges even after every executor recovers.
                    self.blacklisted[node as usize] = false;
                    self.node_fail_counts[node as usize] = 0;
                    self.note_slot_change(node);
                    self.trace(now, TE::NodeUp { node });
                    self.dispatch_starved = false;
                    out.immediately(Ev::Dispatch);
                }
            }
            Ev::JobArrival { tenant, k } => self.on_job_arrival(now, tenant, k, out),
            Ev::LustreSharedRead { task, attempt, job } => {
                // The task may have failed or its job departed during the
                // revocation round trip; a stale read start is a no-op.
                if !self.completion_is_stale(task, attempt, job) {
                    self.lustre_shared_read(now, task, out);
                }
            }
            Ev::Dispatch | Ev::DispatchNode { .. } => self.dispatch(now, out),
            Ev::SpeedResample => {
                self.speeds.resample();
                if let Some(p) = self.speeds.resample_period() {
                    out.after(SimDuration::from_secs_f64(p), Ev::SpeedResample);
                }
            }
            Ev::MetricsSample => {
                if let Some(interval) = self.recorder.as_ref().map(|r| r.interval()) {
                    self.sample_metrics(now);
                    // Always chain: the driver stops stepping at job_done,
                    // so the tail tick dies with the run (or picks sampling
                    // back up if another job is submitted on this world).
                    out.after(interval, Ev::MetricsSample);
                }
            }
        }
    }

    fn wants_engine_stats(&self) -> bool {
        self.recorder.is_some()
    }

    fn observe_engine(&mut self, stats: EngineStats) {
        self.engine_stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use memres_cluster::tiny;

    fn world() -> SimWorld {
        SimWorld::new(tiny(4), EngineConfig::default())
    }

    #[test]
    fn executor_thread_resolution() {
        // Explicit config beats the environment; the env parser rejects junk
        // and zero (a pool of zero threads would deadlock the commit loop).
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(None), None);
        let cfg = EngineConfig::default().with_executor_threads(3);
        assert_eq!(resolve_executor_threads(&cfg), 3);
        assert!(resolve_executor_threads(&EngineConfig::default()) >= 1);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let w = world();
        let j = w.cfg.task_jitter;
        assert!(j > 0.0);
        for task in 0..500u32 {
            let a = w.jitter(task);
            let b = w.jitter(task);
            assert_eq!(a, b, "jitter must be a pure function of (task, seed)");
            assert!((1.0 - j..=1.0 + j).contains(&a), "out of range: {a}");
        }
        // Different tasks get different jitter (not a constant).
        assert_ne!(w.jitter(1), w.jitter(2));
    }

    #[test]
    fn jitter_disabled_when_zero() {
        let mut w = world();
        w.cfg.task_jitter = 0.0;
        assert_eq!(w.jitter(42), 1.0);
    }

    #[test]
    fn effective_read_bw_blends_cache_and_device() {
        use memres_storage::{CacheConfig, LocalFs, RamDisk};
        // RAMDisk store: always the device rate.
        let fs = LocalFs::new(Box::new(RamDisk::new(5e9, 4e9)), 1e12, None);
        assert_eq!(effective_read_bw(&fs, StoreDevice::RamDisk), 5e9);
        // SSD store with little data: cache-dominated (≈ mem speed).
        let mut ssd_fs = LocalFs::new(
            Box::new(Ssd::new(SsdConfig::hyperion())),
            1e12,
            Some(CacheConfig::hyperion()),
        );
        ssd_fs.preload(FileId(1), Bytes(1e9)); // 1 GB stored, fully cacheable
        let hot = effective_read_bw(&ssd_fs, StoreDevice::Ssd);
        assert!(hot > 2.0e9, "mostly cached: {hot}");
        // With far more data than cache: near device read speed.
        ssd_fs.preload(FileId(2), Bytes(500e9));
        let cold = effective_read_bw(&ssd_fs, StoreDevice::Ssd);
        assert!(cold < 700e6, "mostly device: {cold}");
        assert!(cold >= 500e6, "never below device rate: {cold}");
    }

    #[test]
    fn elb_declines_only_over_threshold_nodes() {
        let mut w = SimWorld::new(tiny(4), EngineConfig::default().with_elb());
        // Fake a depositing stage with skewed intermediate data.
        let plan = crate::dag::build_plan(
            &crate::rdd::Rdd::source(crate::rdd::Dataset::generated(1e6, 1e5, 10.0))
                .group_by_key(Some(2), 1e9),
            crate::rdd::Action::Count,
            &Default::default(),
        );
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, plan, &mut out);
        w.jobs[0].intermediate = vec![100.0, 10.0, 10.0, 10.0];
        assert!(w.elb_declines(0, 0), "node 0 holds >1.25x the average");
        assert!(!w.elb_declines(0, 1));
    }

    fn placed_plan(parts: usize) -> crate::dag::JobPlan {
        let recs: Vec<crate::value::Record> = (0..256)
            .map(|i| (crate::value::Value::I64(i), crate::value::Value::I64(i)))
            .collect();
        crate::dag::build_plan(
            &crate::rdd::Rdd::source(crate::rdd::Dataset::from_records(recs, parts)),
            crate::rdd::Action::Count,
            &Default::default(),
        )
    }

    #[test]
    fn real_producer_finish_moves_bucket_handles() {
        // The kernel thread never touches a record: once the dispatch round
        // has flushed, a running real compute task holds its output already
        // hash-partitioned, and finishing it hands those very allocations
        // to the shuffle as segments — O(reducers) moves, no copy.
        use crate::rdd::{Dataset, Rdd, SizeModel};
        let recs: Vec<Record> = (0..256).map(|i| (Value::I64(i), Value::I64(i))).collect();
        let rdd = Rdd::source(Dataset::from_records(recs, 4))
            .map("id", SizeModel::scan(), |r| r)
            .group_by_key(Some(3), 1e9);
        let plan = crate::dag::build_plan(&rdd, Action::Count, &Default::default());
        let mut w = world();
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, plan, &mut out);
        w.dispatch(SimTime::ZERO, &mut out);
        let task = (0..w.tasks.len())
            .find(|&i| w.tasks.state[i] == TState::Running)
            .expect("dispatch launched the computes");
        let node = w.tasks.node[task] as usize;
        let Some(RealOut::Buckets(buckets)) = w.tasks.records_out[task].as_deref() else {
            panic!("the flush must leave the output partitioned");
        };
        assert_eq!(buckets.len(), 3);
        let handles: Vec<(usize, *const Record)> = buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.rows.is_empty())
            .map(|(r, b)| (r, b.rows.as_ptr()))
            .collect();
        assert!(!handles.is_empty());
        w.producer_finished(task as u32, node as u32);
        assert!(w.tasks.records_out[task].is_none());
        let sh = w.jobs[0]
            .shuffle_out
            .as_ref()
            .expect("stage feeds a shuffle");
        let real = sh.node_real.as_ref().expect("real rows");
        for (r, ptr) in handles {
            let segment = real[node][r].last().expect("one segment per bucket");
            assert_eq!(segment.as_ptr(), ptr, "bucket {r} was copied, not moved");
        }
    }

    #[test]
    fn fetch_flow_rows_exist_only_for_destinations_that_launched_a_reducer() {
        // Aggregation off at 1,000 nodes: the table is indexed by node pairs
        // and must grow one `workers`-long row per (destination, kind) a
        // reducer actually lands on — never workers² entries up front.
        use crate::rdd::{Dataset, Rdd, SizeModel};
        let workers = 1000;
        let cfg = EngineConfig::default().with_rack_agg_threshold(u32::MAX);
        let mut w = SimWorld::new(tiny(workers), cfg);
        let recs: Vec<Record> = (0..64).map(|i| (Value::I64(i), Value::I64(i))).collect();
        let rdd = Rdd::source(Dataset::from_records(recs, 4))
            .map("id", SizeModel::scan(), |r| r)
            .group_by_key(Some(3), 1e9);
        let plan = crate::dag::build_plan(&rdd, Action::Count, &Default::default());
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, plan, &mut out);
        w.jobs[0].shuffle_in = w.jobs[0].shuffle_out.take();
        let table = |w: &SimWorld| {
            let rows = &w.jobs[0]
                .shuffle_in
                .as_ref()
                .expect("moved above")
                .fetch_flows;
            let entries: Vec<FlowId> = rows.iter().flatten().copied().collect();
            let opened = entries.iter().copied().filter(|&f| f != UNOPENED).collect();
            (entries.len(), opened)
        };
        assert_eq!(table(&w), (0, Vec::new()));
        let a = w.fetch_flow(SimTime::ZERO, 0, 3, 7, 0);
        let b = w.fetch_flow(SimTime::ZERO, 0, 5, 7, 0);
        let c = w.fetch_flow(SimTime::ZERO, 0, 3, 9, 1);
        assert_eq!(
            w.fetch_flow(SimTime::ZERO, 0, 3, 7, 0),
            a,
            "persistent: opened once"
        );
        assert_eq!(table(&w), (2 * workers as usize, vec![a, b, c]));
        assert_eq!(w.net.open_flows(), 3);
    }

    #[test]
    fn delay_clock_is_per_job_and_anchored_at_stage_start() {
        // Regression (delay-scheduler bugfix): the "last local launch"
        // instant that delay scheduling measures its wait from is per-JOB
        // state. A stage boundary re-anchors it at the stage-start instant,
        // and one tenant's local launches must not reset another's clock.
        let wait = SimDuration::from_secs_f64(10.0);
        let mut w = SimWorld::new(tiny(4), EngineConfig::default().with_delay_scheduling(wait));
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.admit_job(
            SimTime::ZERO,
            1,
            0,
            SimTime::ZERO,
            Arc::new(placed_plan(8)),
            &mut out,
        );
        assert_eq!(w.jobs[0].last_local_launch, SimTime::ZERO);
        // A locality-preferred pick for job 0 at t=2 advances its clock.
        let node = w.jobs[0]
            .prefs_q
            .iter()
            .position(|q| !q.is_empty())
            .expect("placed input yields locality prefs") as u32;
        let t2 = SimTime::from_secs_f64(2.0);
        assert!(matches!(w.pick(t2, 0, node, false), Ok(Some(_))));
        assert_eq!(w.jobs[0].last_local_launch, t2);
        // A second tenant admitted at t=5 anchors at ITS stage start.
        let t5 = SimTime::from_secs_f64(5.0);
        w.admit_job(t5, 2, 1, t5, Arc::new(placed_plan(8)), &mut out);
        assert_eq!(w.jobs[1].last_local_launch, t5);
        assert_eq!(
            w.jobs[0].last_local_launch, t2,
            "other job's clock untouched"
        );
        // Force both jobs onto the steal path: each reports its own expiry.
        for ji in 0..2 {
            w.jobs[ji].prefs_q.iter_mut().for_each(|q| q.clear());
            w.jobs[ji].no_pref_q.clear();
        }
        let t6 = SimTime::from_secs_f64(6.0);
        assert_eq!(w.pick(t6, 0, 0, true), Err(Some(t2 + wait)));
        assert_eq!(w.pick(t6, 1, 0, true), Err(Some(t5 + wait)));
    }

    #[test]
    fn starved_dispatch_rearms_when_backoff_frees_a_slot() {
        // Regression (dispatch wedge bugfix): with every slot busy and no
        // delay-retry wake, a dispatch pass records starvation; a failing
        // task's freed slot must then re-arm dispatch — the backoff requeue
        // path schedules no Dispatch of its own.
        let mut w = world();
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, placed_plan(64), &mut out);
        w.dispatch(SimTime::ZERO, &mut out);
        assert_eq!(w.free_slots.iter().sum::<u32>(), 0, "cluster saturated");
        assert!(w.tasks.pending > 0, "more tasks than slots");
        w.dispatch(SimTime::ZERO, &mut out);
        assert!(
            w.dispatch_starved,
            "empty availability + no retry = starved"
        );
        let victim = (0..w.tasks.len())
            .find(|&i| w.tasks.state[i] == TState::Running)
            .expect("saturated cluster has running tasks") as u32;
        let t1 = SimTime::from_secs_f64(1.0);
        let mut out2 = memres_des::Outbox::standalone(t1);
        w.fail_task(
            t1,
            victim,
            SimDuration::from_secs_f64(2.0),
            false,
            &mut out2,
        );
        assert!(!w.dispatch_starved);
        assert!(
            out2.into_items()
                .iter()
                .any(|(_, e)| matches!(e, Ev::Dispatch)),
            "freed slot must schedule a dispatch"
        );
    }

    /// A world whose one job has launched everything it has: both tasks of
    /// `placed_plan(2)` run, and every node with a slot left has been
    /// visited in the steal round, found nothing, and been parked.
    fn world_with_idle_nodes_parked() -> SimWorld {
        let mut w = world();
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, placed_plan(2), &mut out);
        w.dispatch(SimTime::ZERO, &mut out);
        assert_eq!(w.tasks.pending, 0, "both tasks launched");
        assert_eq!(
            w.cands.parked(),
            w.cands.available(),
            "every visited node launched or parked"
        );
        assert!(w.cands.parked() >= 2, "idle nodes are parked");
        w.audit_invariants().expect("parked with nothing to run");
        w
    }

    /// Queue one more store task of job 0, pinned to `node`.
    fn push_pinned_store(w: &mut SimWorld, node: u32) -> u32 {
        let id = w.tasks.len() as u32;
        let kind = TaskKind::Store { producer: 0 };
        let mut t = Task::new(w.jobs[0].id, 0, kind, SimTime::ZERO);
        t.pin = node;
        w.tasks.push(t);
        w.jobs[0].remaining += 1;
        w.enqueue_pending(0, &[id]);
        id
    }

    #[test]
    fn a_parked_node_is_visited_again_only_when_it_could_launch() {
        let mut w = world_with_idle_nodes_parked();
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        let parked: Vec<u32> = (0..4).filter(|&n| w.cands.is_parked(n)).collect();
        // More dispatches with nothing new: nobody is visited.
        let visits = w.dispatch_visits;
        w.tasks.pending += 1; // as if a task sat out a retry backoff
        w.dispatch(SimTime::ZERO, &mut out);
        w.dispatch(SimTime::ZERO, &mut out);
        w.tasks.pending -= 1;
        assert_eq!(w.dispatch_visits, visits, "parked nodes were rescanned");
        assert!(
            !w.dispatch_starved,
            "a parked node is available: pending work is not starved of nodes"
        );
        // A task pinned to one of them wakes that one alone ...
        let (first, second) = (parked[0], parked[1]);
        push_pinned_store(&mut w, first);
        assert!(w.cands.is_live(first) && w.cands.is_parked(second));
        w.audit_invariants()
            .expect("the pinned task's node is live");
        // ... a slot change wakes its own node ...
        w.note_slot_change(second);
        assert!(w.cands.is_live(second));
        // ... and a task anyone may run wakes them all.
        w.cands.park(second);
        let id = w.tasks.len() as u32;
        let kind = TaskKind::Compute { part: 0 };
        w.tasks
            .push(Task::new(w.jobs[0].id, 0, kind, SimTime::ZERO));
        w.enqueue_pending(0, &[id]);
        assert_eq!(w.cands.parked(), 0);
        w.audit_invariants().expect("nobody is parked");
    }

    #[test]
    fn work_repinned_onto_a_parked_node_unparks_it() {
        // `repin_pinned_off` is the second way into a `prefs_q`: a flush
        // pinned to a node that dies moves to the replacement node — node 0,
        // parked here — without passing through `enqueue_pending`. Without
        // the un-park there the flush sits on a node no dispatch visits.
        // (In a crash that also kills running attempts, `fail_task` happens
        // to wake everyone first; the audit holds this site to the rule on
        // its own.)
        let mut w = world_with_idle_nodes_parked();
        let victim = (1..4)
            .find(|&n| w.cands.is_parked(n))
            .expect("a parked node besides node 0");
        let id = push_pinned_store(&mut w, victim);
        w.cands.park(0);
        w.node_up[victim as usize] = false;
        w.free_slots[victim as usize] = 0;
        w.note_slot_change(victim);
        w.repin_pinned_off(victim);
        assert_eq!(w.tasks.pin[id as usize], 0, "re-pinned to the replacement");
        assert!(w.cands.is_live(0), "the replacement node must wake");
        w.audit_invariants().expect("no parked node has work");
        // Teeth: the same state with node 0 parked is what the audit is for.
        w.cands.park(0);
        let err = w.audit_invariants().expect_err("node 0 parked with work");
        assert!(
            err.contains("node 0 is parked with a pending task"),
            "{err}"
        );
    }

    #[test]
    fn runs_whose_visits_have_effects_park_nobody() {
        // ELB, CAD, delay scheduling and speculation each do something per
        // visit, launch or not; with any of them on, every available node
        // stays a candidate.
        let wait = SimDuration::from_secs_f64(10.0);
        for cfg in [
            EngineConfig::default().with_elb(),
            EngineConfig::default().with_cad(),
            EngineConfig::default().with_delay_scheduling(wait),
            EngineConfig::default().with_speculation(),
        ] {
            let mut w = SimWorld::new(tiny(4), cfg);
            assert!(!w.visits_are_pure());
            let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
            w.submit_job(SimTime::ZERO, placed_plan(2), &mut out);
            w.dispatch(SimTime::ZERO, &mut out);
            assert_eq!(w.cands.parked(), 0);
            w.audit_invariants().expect("nobody parked");
        }
    }

    #[test]
    fn blacklisted_node_restart_rejoins_and_redispatches() {
        // Regression (dispatch wedge bugfix, recovery side): a fully
        // blacklisted cluster starves dispatch; restarting a live-but-
        // blacklisted executor clears the blacklist and re-arms it.
        let mut w = world();
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, placed_plan(8), &mut out);
        for n in 0..w.spec.workers {
            w.blacklisted[n as usize] = true;
            w.note_slot_change(n);
        }
        w.dispatch(SimTime::ZERO, &mut out);
        assert!(w.dispatch_starved, "fully blacklisted cluster starves");
        let t1 = SimTime::from_secs_f64(1.0);
        let mut out2 = memres_des::Outbox::standalone(t1);
        Model::handle(&mut w, t1, Ev::NodeRestart { node: 2 }, &mut out2);
        assert!(!w.blacklisted[2]);
        assert!(!w.dispatch_starved);
        assert!(w.cands.is_live(2), "node 2 re-entered the candidate set");
        assert!(
            out2.into_items()
                .iter()
                .any(|(_, e)| matches!(e, Ev::Dispatch)),
            "blacklist clear must schedule a dispatch"
        );
    }
}
