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
//!   data according to the configured [`crate::config::ShuffleStore`]
//!   strategy, then aggregate and run their own narrow chain.
//!
//! All byte movement is charged to the substrate models: the flow-level
//! fabric, per-node `LocalFs` mounts (RAMDisk and SSD), the Lustre model
//! with its DLM, and the HDFS block map.
//!
//! This file holds the world itself — [`Ev`], [`NetTag`], `JobRun`,
//! [`SimWorld`] and its construction, the wake and transfer plumbing, a
//! job's admission, task launch and completion, the invariant audit and the
//! event dispatch (`handle`). Each decision the engine makes lives in a
//! child module that owns its state (DESIGN.md §3.1): `phase` (the phase
//! machine: a job's stages and storing phases, each holding the shuffles it
//! reads and writes), `tasks` (the task
//! arena), `sched` (which task a free slot gets: delay scheduling, ELB, CAD,
//! LATE, the inter-job order), `shuffle` (the §IV-B design space: where
//! intermediate data lives and how reducers get it), `recovery` (how a
//! failure is undone), `admission` and `sampler` (job streams, the metrics
//! plane) and `input` (placement and the compute-task launch). A child sees
//! this file's private items; this file cannot see a child's private fields,
//! so a seam's state is touched only in its own file.

// The engine state is a set of dense arenas (stages, tasks, flows, nodes)
// whose indices are minted by this module and never escape it; `arr[id]` is
// the idiom throughout and each out-of-range access would be an engine bug,
// not a recoverable condition. Bounds-checked alternatives at ~190 sites
// would bury the scheduling logic, so the crate-level `indexing_slicing`
// warning is waived for this file and its child modules only.
#![allow(
    clippy::indexing_slicing,
    reason = "dense arenas indexed by ids this module mints; a miss is an engine bug"
)]
// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::blockmgr::BlockMgr;
use crate::candidates::Nodes;
use crate::config::EngineConfig;
use crate::dag::{JobPlan, StageInput};
use crate::executor::{evaluate, ChainOut, Pending, Work};
use crate::metrics::{JobMetrics, RecoveryCounters};
use crate::tenancy::FinishedJob;
use crate::value::{Record, Value};
use memres_cluster::{ClusterSpec, NodeId, SpeedModel, SpeedSampler};
use memres_des::sim::{EngineStats, Gen, Model, Outbox};
use memres_des::time::{SimDuration, SimTime};
use memres_des::Bytes;
use memres_hdfs::{Hdfs, HdfsConfig};
use memres_lustre::{Lustre, LustreConfig};
use memres_net::{Endpoint, Fabric, FlowNet};
use memres_storage::{CacheConfig, LocalFs, RamDisk, Ssd, SsdConfig};
use memres_trace::TraceEvent as TE;
use std::collections::VecDeque;
use std::mem::size_of;
use std::sync::Arc;

mod admission;
mod input;
mod phase;
mod recovery;
mod sampler;
mod sched;
mod shuffle;
mod tasks;

use admission::StreamState;
use input::Inputs;
use phase::RunPhase;
use recovery::Faults;
use sampler::Sampler;
use sched::{Cad, DispatchState, JobQueues};
use shuffle::{JobShuffle, ShuffleService, ShuffleState};
pub(crate) use tasks::TaskTable;
use tasks::{Flag, TState, TaskArena, TaskKind};

/// Fixed per-task launch overhead (scheduling, serialization, JVM dispatch).
/// This is what makes 32 MB splits slower than 128 MB ones on the Lustre
/// configuration (Fig 5a: +15.9% from split-size alone).
const TASK_OVERHEAD: SimDuration = SimDuration::from_millis(8);

/// What a network chunk carries back: the packed I/O tag of the task that
/// waits for it (`SimWorld::io_tag`, the value `LocalFs` and Lustre carry
/// too), or `flush_tag` of a job's Lustre-shared revocation flush. Eight
/// bytes, so a queued chunk is 16 (DESIGN.md §4.3).
pub type NetTag = u64;

/// The task bits of a flush tag. No task has this id: the arena stops below
/// it (`TaskArena::push`), so no task's tag decodes as a flush.
const FLUSH_TASK: u32 = u32::MAX;

/// The net tag of job `job`'s mass-flush chunks: the task bits all ones and
/// the whole job id above them.
fn flush_tag(job: u32) -> NetTag {
    u64::from(FLUSH_TASK) | u64::from(job) << 32
}

/// The job whose flush `tag` is, or `None` for a task's I/O tag.
fn flushed_job(tag: NetTag) -> Option<u32> {
    (tag as u32 == FLUSH_TASK).then_some((tag >> 32) as u32)
}

/// Pack (task, attempt, job) into an I/O tag. 16 bits each for attempt and
/// job: enough to tell any live completion from a stale one (a tag only
/// collides after 65536 wrapped attempts *while* the original request is
/// still in flight, which cannot happen), and all `completion_is_stale`
/// compares.
fn pack_io_tag(task: u32, attempt: u32, job: u32) -> u64 {
    u64::from(task) | (u64::from(attempt) & 0xffff) << 32 | (u64::from(job) & 0xffff) << 48
}

/// `(task, attempt, job)` of an I/O tag, attempt and job to 16 bits.
fn unpack_io_tag(tag: u64) -> (u32, u32, u32) {
    (
        tag as u32,
        ((tag >> 32) & 0xffff) as u32,
        ((tag >> 48) & 0xffff) as u32,
    )
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

/// A substrate the world wakes: the key of its one live wake.
#[derive(Clone, Copy, Debug)]
enum Substrate {
    Net,
    Fs { node: u32, ssd: bool },
    Lustre,
}

impl Substrate {
    /// Its slot in `SimWorld::armed`: the net, Lustre, then two mounts a node.
    fn slot(self) -> usize {
        match self {
            Substrate::Net => 0,
            Substrate::Lustre => 1,
            Substrate::Fs { node, ssd } => 2 + 2 * node as usize + usize::from(ssd),
        }
    }
}

impl Ev {
    /// The substrate a wake event wakes and the generation it was armed at.
    #[inline]
    fn woken(&self) -> Option<(Substrate, Gen)> {
        match *self {
            Ev::NetWake(gen) => Some((Substrate::Net, gen)),
            Ev::FsWake { node, ssd, gen } => Some((Substrate::Fs { node, ssd }, gen)),
            Ev::LustreWake(gen) => Some((Substrate::Lustre, gen)),
            _ => None,
        }
    }
}

struct JobRun {
    /// Job id (minted from `job_seq` at arrival/submission).
    id: u32,
    /// Owning tenant (0 for single-job runs).
    tenant: u32,
    arrived: SimTime,
    admitted: SimTime,
    plan: Arc<JobPlan>,
    /// The stage running, or flushing its outputs.
    stage: usize,
    /// Where that stage is in its pipeline, with the shuffles it works on.
    phase: RunPhase,
    remaining: usize,
    /// Tasks of the currently running stage (the storing phase flushes their
    /// outputs).
    stage_tasks: Vec<u32>,
    /// What the job's shuffles deposited where, and the Lustre files they
    /// wrote (the shuffles themselves live in `phase`).
    shuffle: JobShuffle,
    /// The records each final-stage partition produced, by partition: the
    /// job's output count is their sum.
    final_records: Vec<u64>,
    /// Pending-task queues and scheduling clocks.
    queues: JobQueues,
    /// The tasks finished so far, in finish order: which arena rows are the
    /// job's task records, taken out with them when it departs.
    finish_order: Vec<u32>,
    /// The recovery counters, and the task records once the job departs,
    /// handed to the driver then.
    metrics: JobMetrics,
}

impl JobRun {
    /// Heap charged to this job's own tables and task id lists
    /// (self-profiling); its records are the arena's rows.
    fn heap_bytes(&self) -> usize {
        let lists = [&self.stage_tasks, &self.finish_order];
        let ids: usize = lists.iter().map(|l| l.capacity() * size_of::<u32>()).sum();
        let counts = self.final_records.capacity() * size_of::<u64>();
        // The live shuffle's byte accounting: the one being written, else
        // the one being read.
        let live = self.phase.writing().or(self.phase.reading());
        live.map_or(0, ShuffleState::heap_bytes) + self.queues.heap_bytes() + ids + counts
    }

    /// A speculative copy `task` won: it replaces its `twin` among the
    /// stage's tasks (storing pins, final-task outputs).
    fn replace_task(&mut self, twin: u32, task: u32) {
        for slot in &mut self.stage_tasks {
            if *slot == twin {
                *slot = task;
            }
        }
    }
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
    spec: ClusterSpec,
    pub cfg: EngineConfig,
    pub net: FlowNet<NetTag>,
    fabric: Fabric,
    /// Per-node RAMDisk mount (HDFS blocks + RAMDisk shuffle store).
    ram_fs: Vec<LocalFs>,
    /// Per-node SSD mount (SSD shuffle store).
    ssd_fs: Vec<LocalFs>,
    pub lustre: Lustre,
    /// The generation each substrate's last wake was armed at, by
    /// `Substrate::slot`; `audit_wakes` holds a busy substrate to it.
    armed: Vec<Gen>,
    hdfs: Hdfs,
    speeds: SpeedSampler,
    pub blockmgr: BlockMgr,

    tasks: TaskArena,
    /// Concurrently resident jobs, in admission order.
    jobs: Vec<JobRun>,
    job_seq: u32,
    pub job_done: bool,
    /// Completed/aborted jobs awaiting collection by the driver.
    finished: VecDeque<FinishedJob>,
    /// Record-level work of the tasks launched this dispatch round,
    /// evaluated (maybe in parallel) and committed in launch order at the
    /// end of the round.
    pending: Vec<Pending>,
    /// Resolved host worker-thread count for evaluating `pending`.
    executor_threads: usize,
    /// Structured event log (DESIGN.md §4.11). `None` when tracing is off,
    /// so every emission site costs one `Option` test and nothing else.
    tracer: Option<memres_trace::SharedSink>,

    // One field per seam; each type's fields are private to its module.
    /// Per-node slots, liveness and blacklist, with the dispatch candidate
    /// index they imply (`candidates.rs`).
    nodes: Nodes,
    /// `dispatch`'s rotation, stamps and starved flag (`world/sched.rs`).
    sched: DispatchState,
    /// The CAD controller (`world/sched.rs`).
    cad: Cad,
    /// Nodes `dispatch` looked for work on, over the world's lifetime
    /// (visits cut short by a node being down, full or already blocked this
    /// round are not counted). A test hook in the style of
    /// `FlowNet::next_scans`: it must grow with launches and finishes, not
    /// with dispatches × idle nodes.
    pub dispatch_visits: u64,
    /// Shuffle-service state: serving links, file-id mint, scratch
    /// (`world/shuffle.rs`).
    shuffle: ShuffleService,
    /// Dataset placements (`world/input.rs`).
    inputs: Inputs,
    /// The largest `heap_now` a departing job has seen.
    heap_high_water: u64,
    /// Fault-plan and abandoned-work bookkeeping (`world/recovery.rs`).
    faults: Faults,
    /// Multi-tenant stream state, `None` for single-job submissions
    /// (`world/admission.rs`).
    stream: Option<StreamState>,
    /// The time-series metrics plane's recorder and sampler state
    /// (`world/sampler.rs`).
    sampler: Sampler,
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
        #[expect(
            clippy::expect_used,
            reason = "construction-time config validation; fails fast before any simulation starts"
        )]
        spec.validate().expect("invalid cluster spec");
        let mut net = FlowNet::new();
        let fabric = Fabric::build(&mut net, &spec);
        let workers = spec.workers as usize;
        // Effective HDFS DataNode read throughput per node (tmpfs bandwidth
        // discounted by protocol/checksum/deserialization costs).
        let ram_read = 3.0e9;
        let shuffle = ShuffleService::new(&mut net, workers, ram_read);
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
        let tracer = cfg.trace.then(memres_trace::shared);
        let mut w = SimWorld {
            nodes: Nodes::new(spec.workers, spec.cores_per_node),
            sched: DispatchState::new(workers),
            cad: Cad::new(workers),
            dispatch_visits: 0,
            inputs: Inputs::default(),
            heap_high_water: 0,
            faults: Faults::default(),
            stream: None,
            sampler: Sampler::new(cfg.metrics),
            blockmgr: BlockMgr::default(),
            pending: Vec::new(),
            executor_threads: resolve_executor_threads(&cfg),
            tracer,
            spec,
            cfg,
            net,
            fabric,
            shuffle,
            ram_fs,
            ssd_fs,
            lustre,
            armed: vec![Gen::default(); 2 + 2 * workers],
            hdfs,
            speeds,
            tasks: TaskArena::default(),
            jobs: Vec::new(),
            job_seq: 0,
            job_done: false,
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

    /// Drain the recorded trace (empty when tracing is off).
    pub fn take_trace(&mut self) -> Vec<memres_trace::TimedEvent> {
        self.tracer
            .as_ref()
            .map(|t| t.borrow_mut().take())
            .unwrap_or_default()
    }

    /// Rough engine heap footprint at its fullest: the dense structures that
    /// grow with the job (the task arena, whose rows are the tasks' records,
    /// and each job's finish-order list, pending queues, trace log, shuffle
    /// bucket matrices, the flow network's slab and chunk queues), now or at
    /// the fullest job departure so far — a departed job's share is gone by
    /// the time its driver can ask.
    /// Self-profiling only — not a substitute for a real allocator hook.
    pub fn heap_estimate_bytes(&self) -> u64 {
        self.heap_high_water.max(self.heap_now())
    }

    fn heap_now(&self) -> u64 {
        let trace = self
            .tracer
            .as_ref()
            .map(|t| t.borrow().len() * size_of::<memres_trace::TimedEvent>())
            .unwrap_or(0);
        let jobs: usize = self.jobs.iter().map(JobRun::heap_bytes).sum();
        let arenas = self.tasks.heap_bytes() + self.net.heap_bytes();
        (arenas + trace + jobs) as u64
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

    /// Cheap cross-checks of live engine state against independent
    /// reimplementations, for the differential-fuzz harness (DESIGN.md
    /// §4.13): the incremental water-filling allocation vs a from-scratch
    /// progressive-filling pass over the same active flows, the network's
    /// memoised next completion vs a fresh scan, its active indexes vs a
    /// rebuild from the slab, every resident job's running-task count vs an
    /// arena scan, and the dispatch candidate set vs the nodes and queues it
    /// summarises; with no job resident, the quiescence oracle; last, one
    /// live wake per busy substrate.
    pub fn audit_invariants(&mut self) -> Result<(), String> {
        let tasks = &self.tasks;
        self.jobs
            .iter()
            .try_for_each(|j| tasks.audit_running(j.id))?;
        self.nodes.audit()?;
        self.audit_parked()?;
        self.net.audit_waterfill()?;
        if self.jobs.is_empty() {
            self.audit_departed()
                .map_err(|e| format!("no job resident, but {e}"))?;
            self.faults
                .judge_drained(self.audit_drained())
                .map_err(|e| format!("no job resident, but {e}"))?;
        }
        self.audit_wakes()
    }

    /// One live wake per woken substrate: one with a next completion was
    /// last armed at its current generation.
    fn audit_wakes(&self) -> Result<(), String> {
        let mounts = (0..self.ram_fs.len() as u32)
            .flat_map(|node| [false, true].map(|ssd| Substrate::Fs { node, ssd }));
        let mut subs = [Substrate::Net, Substrate::Lustre]
            .into_iter()
            .chain(mounts);
        subs.try_for_each(|sub| {
            let (gen, armed) = (self.gen_of(sub), self.armed[sub.slot()]);
            if self.wake_for(sub, gen).is_some() && !armed.is_current(gen) {
                return Err(format!(
                    "{sub:?} is busy at {gen:?} but its last wake was armed at {armed:?}"
                ));
            }
            Ok(())
        })
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
    /// Excused while abandoned I/O may be in flight (`Faults::judge_drained`).
    fn audit_drained(&self) -> Result<(), String> {
        let active = self.net.active_flows();
        if active != 0 {
            return Err(format!("{active} flows carry bytes"));
        }
        self.lustre.audit_idle()?;
        let mut mounts = self.ram_fs.iter().chain(&self.ssd_fs).enumerate();
        mounts.try_for_each(|(i, fs)| fs.audit_idle().map_err(|e| format!("mount {i}: {e}")))
    }

    #[inline]
    fn speed(&self, node: u32) -> f64 {
        self.speeds.factor(NodeId(node))
    }

    /// Deterministic per-task compute jitter in [1-j, 1+j].
    #[inline]
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
    #[inline]
    #[expect(clippy::expect_used, reason = "stale-filtered above")]
    fn job_index_of(&self, task: u32) -> usize {
        let id = self.tasks.job[task as usize];
        self.jobs
            .iter()
            .position(|j| j.id == id)
            .expect("task of non-resident job")
    }

    #[inline]
    fn job_of(&self, task: u32) -> &JobRun {
        &self.jobs[self.job_index_of(task)]
    }

    #[inline]
    fn job_of_mut(&mut self, task: u32) -> &mut JobRun {
        let ji = self.job_index_of(task);
        &mut self.jobs[ji]
    }

    /// Recovery counters of resident job `job`, for task-attributed events
    /// (retries, blacklisting, recomputes); `None` once it has departed.
    fn recovery_of(&mut self, job: u32) -> Option<&mut RecoveryCounters> {
        let run = self.jobs.iter_mut().find(|j| j.id == job)?;
        Some(&mut run.metrics.recovery)
    }

    /// Apply a cluster-wide recovery event (node crash or restart, block
    /// loss, SSD degradation) to every resident job: each experienced it.
    fn recovery_all(&mut self, f: impl Fn(&mut RecoveryCounters)) {
        self.jobs
            .iter_mut()
            .for_each(|j| f(&mut j.metrics.recovery));
    }

    // ---------------- wake plumbing ----------------
    //
    // One live wake per `Substrate`, the last `arm` recorded: a substrate
    // bumps only where its next completion can move. A completion is never
    // before `now`: one due earlier had its own wake, whose poll moved the
    // substrate's clock past it (`Outbox::at` asserts this).
    //
    // The net is the exception: its next completion depends on every
    // mutation of the turn, and answering it costs a water-fill, so its
    // wakes are deferred and the turn's end answers them all with one fill
    // (DESIGN.md §4.3). A wake a later mutation of the turn superseded is
    // still scheduled, so the event count stays what it was when each arm
    // filled on its own; its pop is a no-op.

    #[inline]
    fn gen_of(&self, sub: Substrate) -> Gen {
        match sub {
            Substrate::Net => self.net.gen(),
            Substrate::Fs { node, ssd } => self.fs(node, ssd).gen(),
            Substrate::Lustre => self.lustre.gen(),
        }
    }

    /// `sub`'s wake at `gen` and its instant (none for the net's, which the
    /// turn's end stamps), or `None` when `sub` has no next completion.
    #[inline]
    fn wake_for(&self, sub: Substrate, gen: Gen) -> Option<(Ev, Option<SimTime>)> {
        match sub {
            // Every active flow gets a positive rate, so this is
            // `next_event().is_some()` without the fill.
            Substrate::Net => (self.net.active_flows() > 0).then_some((Ev::NetWake(gen), None)),
            Substrate::Fs { node, ssd } => self
                .fs(node, ssd)
                .next_event()
                .map(|t| (Ev::FsWake { node, ssd, gen }, Some(t))),
            Substrate::Lustre => self
                .lustre
                .next_event()
                .map(|t| (Ev::LustreWake(gen), Some(t))),
        }
    }

    /// Schedule `sub`'s next completion, if it has one.
    #[inline]
    fn arm(&mut self, sub: Substrate, out: &mut Outbox<Ev>) {
        let gen = self.gen_of(sub);
        match self.wake_for(sub, gen) {
            Some((wake, Some(t))) => out.at(t, wake),
            Some((wake, None)) => out.defer(wake),
            None => return,
        }
        self.armed[sub.slot()] = gen;
    }

    /// Close an event turn: one `next_event` answers every `NetWake` the
    /// turn armed, superseded ones included (`now` if the net went idle).
    /// Every public entry point that takes an outbox ends here, before the
    /// outbox reaches the calendar.
    fn stamp_net_wakes(&mut self, now: SimTime, out: &mut Outbox<Ev>) {
        if out.deferred() > 0 {
            out.stamp_deferred(self.net.next_event().unwrap_or(now));
        }
    }

    /// `node`'s SSD mount, or its RAMDisk mount.
    #[inline]
    fn fs(&self, node: u32, ssd: bool) -> &LocalFs {
        let mounts = if ssd { &self.ssd_fs } else { &self.ram_fs };
        &mounts[node as usize]
    }

    #[inline]
    fn fs_mut(&mut self, node: u32, ssd: bool) -> &mut LocalFs {
        let mounts = if ssd {
            &mut self.ssd_fs
        } else {
            &mut self.ram_fs
        };
        &mut mounts[node as usize]
    }

    // ---------------- one-shot transfers ----------------

    /// A one-shot transfer: an auto-close flow from `src` to `dst` carrying
    /// `bytes`. The caller arms the net.
    fn send_once(&mut self, now: SimTime, src: Endpoint, dst: Endpoint, bytes: Bytes, tag: NetTag) {
        let flow = self.net.open_flow(now, self.fabric.path(src, dst), true);
        self.net.push_chunk(now, flow, bytes, tag);
    }

    /// A one-shot transfer that `task` waits for.
    fn task_transfer(
        &mut self,
        now: SimTime,
        task: u32,
        (src, dst): (Endpoint, Endpoint),
        bytes: Bytes,
        out: &mut Outbox<Ev>,
    ) {
        self.tasks.pending_io[task as usize] += 1;
        self.send_once(now, src, dst, bytes, self.io_tag(task));
        self.arm(Substrate::Net, out);
    }

    /// Metadata operations at the Lustre MDS that `task` waits for.
    fn submit_mds(&mut self, now: SimTime, task: u32, ops: f64, out: &mut Outbox<Ev>) {
        self.tasks.pending_io[task as usize] += 1;
        self.lustre.submit_mds(now, ops, self.io_tag(task));
        self.arm(Substrate::Lustre, out);
    }

    /// One Lustre read or write of `task`: its metadata ops at the MDS, then
    /// the `oss` transfer (endpoints, wire bytes) if any bytes go to or come
    /// from the OSSes rather than a client cache.
    fn lustre_io(
        &mut self,
        now: SimTime,
        task: u32,
        mds_ops: f64,
        oss: Option<((Endpoint, Endpoint), f64)>,
        out: &mut Outbox<Ev>,
    ) {
        self.submit_mds(now, task, mds_ops, out);
        if let Some((ends, wire)) = oss {
            self.task_transfer(now, task, ends, Bytes(wire), out);
        }
    }

    // ---------------- completion-identity tags ----------------

    /// The I/O tag of `task`'s current attempt: what its device, Lustre and
    /// network requests carry back (see [`pack_io_tag`]).
    #[inline]
    fn io_tag(&self, task: u32) -> u64 {
        let i = task as usize;
        pack_io_tag(task, u32::from(self.tasks.attempt[i]), self.tasks.job[i])
    }

    // ---------------- job lifecycle ----------------

    /// Begin executing a plan. Drive the simulation until `job_done`.
    pub fn submit_job(&mut self, now: SimTime, plan: JobPlan, out: &mut Outbox<Ev>) {
        assert!(self.jobs.is_empty(), "one job at a time (stages serialize)");
        self.job_seq += 1;
        let id = self.job_seq;
        self.admit_job(now, id, 0, now, Arc::new(plan), out);
        self.stamp_net_wakes(now, out);
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
        self.trace(now, TE::JobStart { job: id });
        if self.jobs.is_empty() {
            self.cad.reset();
        }
        let workers = self.spec.workers as usize;
        self.jobs.push(JobRun {
            id,
            tenant,
            arrived,
            admitted: now,
            plan,
            stage: 0,
            phase: RunPhase::BARE,
            remaining: 0,
            stage_tasks: Vec::new(),
            shuffle: JobShuffle::new(workers),
            final_records: Vec::new(),
            queues: JobQueues::new(workers, now),
            finish_order: Vec::new(),
            metrics: JobMetrics {
                job: id,
                started_at: now.as_secs_f64(),
                finished_at: now.as_secs_f64(),
                ..JobMetrics::default()
            },
        });
        let ji = self.jobs.len() - 1;
        self.start_stage(now, ji, 0, None, out);
    }

    // ---------------- task launch ----------------

    fn launch(&mut self, now: SimTime, task: u32, node: u32, out: &mut Outbox<Ev>) {
        debug_assert_eq!(self.tasks.state[task as usize], TState::Pending);
        let doomed = self.faults.next_launch_is_doomed();
        self.nodes.take_slot(node);
        let i = task as usize;
        self.tasks.set_state(task, TState::Running);
        self.tasks.node[i] = node;
        self.tasks.launched_at[i] = now;
        self.tasks.set_flag(task, Flag::Doomed, doomed);
        self.trace(
            now,
            TE::TaskLaunched {
                task,
                node,
                class: self.tasks.kind(task).class(),
                attempt: u32::from(self.tasks.attempt[i]),
                queue_delay: now.since(self.tasks.queued_at[i]),
                speculative: self.tasks.flag(task, Flag::Speculative),
            },
        );
        if let TaskKind::Store { producer } = self.tasks.kind(task) {
            self.launch_store(now, task, node, producer, out);
            return;
        }
        // A compute or fetch task: its stage's input says which, and what
        // a compute task reads.
        let plan = self.job_of(task).plan.clone();
        let stage = self.tasks.stage[i] as usize;
        let part = self.tasks.index[i];
        let input = match &plan.stages[stage].input {
            StageInput::Shuffle => return self.launch_fetch(now, task, node, (&plan, stage), out),
            StageInput::Dataset { rdd, .. } => (self.dataset_input(*rdd, part, node), None),
            StageInput::Cached { rdd } => self.cached_input(task, (&plan, stage), *rdd, part, node),
        };
        self.launch_compute(now, task, node, (&plan, stage), input, out);
    }

    /// Write one evaluated chain into the task arena and insert its cache
    /// snapshots: the single commit path for inline (synthetic) and deferred
    /// (real-partition) chains.
    fn commit_chain(&mut self, task: u32, part: u32, node: u32, chain: ChainOut) {
        let (dur, out_bytes, out_records, out_data, snaps) = chain;
        let i = task as usize;
        self.tasks.compute_dur[i] = dur.mul_f64(self.jitter(task)) + TASK_OVERHEAD;
        self.tasks.output_bytes[i] = out_bytes;
        self.note_final_records(task, out_records);
        if let Some(rows) = out_data {
            self.tasks.real_out.insert(task, rows);
        }
        for (rdd, bytes, records, snapshot) in snaps {
            self.blockmgr
                .insert(rdd, part, node, Bytes(bytes), records, snapshot);
        }
    }

    /// Keep the records task `task` produced when it belongs to its job's
    /// last stage: the job's output count is their sum. Speculation only
    /// copies compute tasks, and a copy computes its partition's count
    /// again, so the partition indexes the entry.
    fn note_final_records(&mut self, task: u32, records: u64) {
        let i = task as usize;
        let (stage, index) = (self.tasks.stage[i], self.tasks.index[i]);
        let job = self.job_of_mut(task);
        if stage as usize + 1 != job.plan.stages.len() {
            return;
        }
        let slot = &mut job.final_records[index as usize];
        debug_assert!(
            *slot == 0 || *slot == records,
            "task {task} rewrites partition {index}'s count {slot} as {records}"
        );
        *slot = records;
    }

    /// Evaluate the record-level work captured this dispatch round and commit
    /// the results in launch order.
    ///
    /// Determinism does not depend on the thread count: placement decisions
    /// already happened sequentially, evaluating a [`Pending`] entry is a pure
    /// function of it, and commits (task fields, cache-snapshot inserts,
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
                Work::Reduce { .. } => {
                    // The reducer's size goes beside its rows, not over
                    // `output_bytes`: the task's record (and every export
                    // built on it) pins the estimate set at launch.
                    let (_, bytes, records, rows, _) = chain;
                    self.tasks.reduced_bytes.insert(job.task, bytes);
                    self.note_final_records(job.task, records);
                    if let Some(rows) = rows {
                        self.tasks.real_out.insert(job.task, rows);
                    }
                }
            }
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
        self.tasks.state[i] != TState::Running
            || u32::from(self.tasks.attempt[i]) != attempt & 0xffff
    }

    /// Count one I/O completion of `task`: false, counting nothing, if stale.
    fn task_io_done(
        &mut self,
        now: SimTime,
        task: u32,
        attempt: u32,
        job: u32,
        out: &mut Outbox<Ev>,
    ) -> bool {
        if self.completion_is_stale(task, attempt, job) {
            return false;
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
        true
    }

    fn maybe_schedule_finish(&mut self, now: SimTime, task: u32, out: &mut Outbox<Ev>) {
        let job = self.tasks.job[task as usize];
        let i = task as usize;
        if self.tasks.state[i] != TState::Running
            || self.tasks.flag(task, Flag::FinishScheduled)
            || self.tasks.pending_io[i] > 0
        {
            return;
        }
        // Pipelined tasks finish at max(io_done, launch+compute); a fetch
        // task starts computing only after all its data has landed.
        let finish = match self.tasks.kind(task) {
            TaskKind::Fetch { .. } => now + self.tasks.compute_dur[i],
            _ => (self.tasks.launched_at[i] + self.tasks.compute_dur[i]).max(now),
        };
        self.tasks.set_flag(task, Flag::FinishScheduled, true);
        out.at(
            finish,
            Ev::TaskFinish {
                task,
                attempt: u32::from(self.tasks.attempt[i]),
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
        let i = task as usize;
        // Speculation: if this task's twin already finished, this copy lost —
        // just release the slot (the real Spark would have killed it).
        let twin = self.tasks.twin(task);
        let lost = twin.is_some_and(|t| self.tasks.state[t as usize] == TState::Done);
        // An attempt doomed by the fault plan dies at the instant it would
        // have completed: the full duration becomes wasted work and the task
        // re-queues (or the job aborts at the attempt limit).
        if !lost && self.tasks.flag(task, Flag::Doomed) {
            self.fail_task(now, task, SimDuration::ZERO, true, out);
            return;
        }
        let (node, kind) = (self.tasks.node[i], self.tasks.kind(task));
        let ghost = self.tasks.flag(task, Flag::Ghost);
        self.tasks.set_state(task, TState::Done);
        self.nodes.free_slot(node);
        // The losing speculation copy: its whole duration was duplicated
        // work, so the trace marks it ghost (retry-waste in attribution).
        self.trace(
            now,
            TE::TaskFinished {
                task,
                node,
                class: kind.class(),
                attempt,
                ghost: ghost || lost,
            },
        );
        if lost {
            out.immediately(Ev::Dispatch);
            return;
        }
        let ji = self.job_index_of(task);
        let ran = now.since(self.tasks.launched_at[i]);
        let job = &mut self.jobs[ji];
        if let Some(twin) = twin.filter(|_| self.tasks.flag(task, Flag::Speculative)) {
            job.replace_task(twin, task);
        }
        if matches!(kind, TaskKind::Compute { .. }) {
            job.queues.record_compute(ran.as_secs_f64());
        }
        self.tasks.finished_at[i] = now;
        job.finish_order.push(task);

        // Ghosts charge time for redone work but deposit nothing — the lost
        // rows were already re-hosted when their node crashed.
        match kind {
            TaskKind::Compute { .. } | TaskKind::Fetch { .. } if !ghost => {
                self.producer_finished(ji, task, node);
            }
            TaskKind::Store { .. } => {
                if let Some(cad) = &self.cfg.cad {
                    self.cad.observe_flush(cad, ran.as_secs_f64());
                }
            }
            _ => {}
        }

        let job = &mut self.jobs[ji];
        job.remaining -= 1;
        if job.remaining == 0 {
            self.advance_phase(now, ji, out);
        } else {
            out.immediately(Ev::Dispatch);
        }
    }

    /// What one event does, before its turn closes.
    // One `match` with no catch-all: a new `Ev` variant without an arm is a
    // compile error (E0004), and clippy (gate stage 3) rejects a `_` or
    // binding arm that would swallow one.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    fn on_event(&mut self, now: SimTime, event: Ev, out: &mut Outbox<Ev>) {
        // A superseded wake is a no-op: its substrate was re-armed since.
        if let Some((sub, gen)) = event.woken() {
            if !gen.is_current(self.gen_of(sub)) {
                return;
            }
        }
        match event {
            Ev::NetWake(_) => {
                let delivered = self.net.poll(now);
                // Flush chunks are credited after the task I/O of the same poll.
                let mut flushed = Vec::new();
                for d in delivered {
                    if let Some(job) = flushed_job(d.tag) {
                        flushed.push(job);
                    } else {
                        let (task, attempt, job) = unpack_io_tag(d.tag);
                        self.task_io_done(now, task, attempt, job, out);
                    }
                }
                for job in flushed {
                    self.on_flush_progress(now, job, out);
                }
                self.arm(Substrate::Net, out);
            }
            Ev::FsWake { node, ssd, .. } => {
                let done = self.fs_mut(node, ssd).poll(now);
                for d in done {
                    let (task, attempt, job) = unpack_io_tag(d.tag);
                    self.task_io_done(now, task, attempt, job, out);
                }
                self.arm(Substrate::Fs { node, ssd }, out);
                if ssd {
                    self.sync_ssd_read_link(now, node, false, out);
                }
            }
            Ev::LustreWake(_) => {
                let done = self.lustre.poll(now);
                for tag in done {
                    let (task, attempt, job) = unpack_io_tag(tag);
                    if self.task_io_done(now, task, attempt, job, out) {
                        self.lustre_shared_gate(now, task, out);
                    }
                }
                self.arm(Substrate::Lustre, out);
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
                    self.enqueue_pending(ji, [task]);
                    out.immediately(Ev::Dispatch);
                }
            }
            Ev::Fault { idx } => self.apply_fault(now, idx, out),
            Ev::NodeRestart { node } => self.node_restart(now, node, out),
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
            Ev::MetricsSample => self.sample_metrics(now, out),
        }
    }
}

impl Model for SimWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, out: &mut Outbox<Ev>) {
        self.on_event(now, event, out);
        self.stamp_net_wakes(now, out);
    }

    fn wants_engine_stats(&self) -> bool {
        self.recorder().is_some()
    }

    fn observe_engine(&mut self, stats: EngineStats) {
        self.sampler.observe_engine(stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use memres_cluster::tiny;

    pub(super) fn world() -> SimWorld {
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
    fn a_fetch_wave_fills_once_and_its_superseded_wakes_pop_as_no_ops() {
        // Every reducer launches in one turn, each queueing chunks towards
        // every source and arming a `NetWake`. The turn costs one water-fill
        // yet still schedules one wake per launch, so the event count is
        // what it was when each arm filled on its own; every wake but the
        // last launch's is superseded when it pops.
        use crate::rdd::{Dataset, Rdd};
        use crate::value::{Record, Value};
        use memres_des::EventQueue;
        let cfg = EngineConfig::default().with_rack_agg_threshold(u32::MAX);
        let mut w = SimWorld::new(tiny(4), cfg);
        let recs: Vec<Record> = (0..256).map(|i| (Value::I64(i), Value::I64(i))).collect();
        let rdd = Rdd::source(Dataset::from_records(recs, 4)).group_by_key(Some(8), 1e9);
        let plan = crate::dag::build_plan(&rdd, crate::rdd::Action::Count, &Default::default());
        let mut queue = EventQueue::new();
        let mut out = Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, plan, &mut out);
        out.into_items()
            .into_iter()
            .for_each(|(t, e)| queue.push(t, e));
        let fetching = |w: &SimWorld| {
            let running = |&t: &u32| w.tasks.state[t as usize] == TState::Running;
            let fetch = |&t: &u32| matches!(w.tasks.kind(t), TaskKind::Fetch { .. });
            (0..w.tasks.len() as u32)
                .filter(running)
                .filter(fetch)
                .count()
        };
        // The wave's wakes, and how many of them popped stale and live.
        let (mut wave, mut stale, mut live) = (Vec::new(), 0, 0);
        while !w.job_done {
            let (now, ev) = queue.pop().expect("the job finishes");
            match ev {
                Ev::NetWake(gen) if wave.contains(&gen) && gen.is_current(w.net.gen()) => live += 1,
                Ev::NetWake(gen) if wave.contains(&gen) => stale += 1,
                _ => {}
            }
            let (running, fills) = (fetching(&w), w.net.recomputes);
            let mut out = Outbox::standalone(now);
            w.handle(now, ev, &mut out);
            let items = out.into_items();
            let launched = fetching(&w).saturating_sub(running);
            if wave.is_empty() && launched > 1 {
                assert_eq!(launched, 8, "the whole stage launches in one turn");
                assert_eq!(w.net.recomputes - fills, 1, "one fill for the turn");
                let wake = |(_, e): &(SimTime, Ev)| match e {
                    Ev::NetWake(gen) => Some(*gen),
                    _ => None,
                };
                wave = items.iter().filter_map(wake).collect();
                assert_eq!(wave.len(), launched, "one wake per launch");
            }
            items.into_iter().for_each(|(t, e)| queue.push(t, e));
        }
        assert_eq!((stale, live), (7, 1), "only the last launch's wake is live");
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
    fn net_tags_pack_into_eight_bytes_and_decode_at_the_edges() {
        assert_eq!(size_of::<memres_net::flow::Delivered<NetTag>>(), 16);
        let tasks = [0, 1, 0xffff, 0x1_0000, u32::MAX - 1];
        let attempts = [0, 3, 0xffff, 0x1_0000, 0x1_0003];
        let jobs = [0, 1, 0xffff, 0x1_0000, 0x1_2345, u32::MAX - 1, u32::MAX];
        for task in tasks {
            for attempt in attempts {
                for job in jobs {
                    let tag = pack_io_tag(task, attempt, job);
                    // Attempt and job wrap at 16 bits; no task tag is a flush.
                    let want = (task, attempt & 0xffff, job & 0xffff);
                    assert_eq!(unpack_io_tag(tag), want);
                    assert_eq!(flushed_job(tag), None, "task {task} read as a flush");
                }
            }
        }
        for job in jobs {
            assert_eq!(flushed_job(flush_tag(job)), Some(job), "the whole job id");
        }
    }

    #[test]
    fn the_stale_check_reads_a_packed_tag_as_it_read_the_full_ids() {
        // The enum tag carried the attempt and the whole job id; the packed
        // tag keeps 16 bits of each, which is all the check compares.
        let mut w = world_with_idle_nodes_parked();
        let task = (0..w.tasks.len() as u32)
            .find(|&t| w.tasks.state[t as usize] == TState::Running)
            .expect("both tasks run");
        for job in [w.tasks.job[task as usize], 0x1_0001, u32::MAX - 1] {
            w.tasks.job[task as usize] = job;
            let attempt = u32::from(w.tasks.attempt[task as usize]);
            let unpacked = |(t, a, j)| w.completion_is_stale(t, a, j);
            for (t, a, j) in [
                (task, attempt, job),
                (task, attempt + 1, job),
                (task, attempt + 0x1_0000, job),
                (task, attempt, job.wrapping_add(1)),
                (task, attempt, job.wrapping_add(0x1_0000)),
                (task + 1_000, attempt, job),
            ] {
                let full = w.completion_is_stale(t, a, j);
                assert_eq!(unpacked(unpack_io_tag(pack_io_tag(t, a, j))), full);
            }
            assert!(!unpacked(unpack_io_tag(w.io_tag(task))), "the live tag");
        }
    }

    #[test]
    fn jitter_disabled_when_zero() {
        let mut w = world();
        w.cfg.task_jitter = 0.0;
        assert_eq!(w.jitter(42), 1.0);
    }

    pub(super) fn placed_plan(parts: usize) -> crate::dag::JobPlan {
        let recs: Vec<crate::value::Record> = (0..256)
            .map(|i| (crate::value::Value::I64(i), crate::value::Value::I64(i)))
            .collect();
        crate::dag::build_plan(
            &crate::rdd::Rdd::source(crate::rdd::Dataset::from_records(recs, parts)),
            crate::rdd::Action::Count,
            &Default::default(),
        )
    }

    /// A world whose one job has launched everything it has: both tasks of
    /// `placed_plan(2)` run, and every node with a slot left has been
    /// visited in the steal round, found nothing, and been parked.
    pub(super) fn world_with_idle_nodes_parked() -> SimWorld {
        let mut w = world();
        let mut out = memres_des::Outbox::standalone(SimTime::ZERO);
        w.submit_job(SimTime::ZERO, placed_plan(2), &mut out);
        w.dispatch(SimTime::ZERO, &mut out);
        assert_eq!(w.tasks.pending(), 0, "both tasks launched");
        assert_eq!(
            w.nodes.index().parked(),
            w.nodes.index().available(),
            "every visited node launched or parked"
        );
        assert!(w.nodes.index().parked() >= 2, "idle nodes are parked");
        w.audit_invariants().expect("parked with nothing to run");
        w
    }

    /// Queue one more store task of job 0, pinned to `node`.
    pub(super) fn push_pinned_store(w: &mut SimWorld, node: u32) -> u32 {
        let id = w.tasks.len() as u32;
        let kind = TaskKind::Store { producer: 0 };
        let mut t = tasks::Task::new(w.jobs[0].id, 0, kind, SimTime::ZERO);
        t.pin = node;
        w.tasks.push(t);
        w.jobs[0].remaining += 1;
        w.enqueue_pending(0, [id]);
        id
    }
}
