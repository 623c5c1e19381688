//! The seven workloads: what each one feeds the simulator and how one
//! untraced run of it is driven and checked.
//!
//! Every workload is a closed loop of one client: the next job (or stream)
//! starts only after the previous one has completed, in this process.
//!
//! The benchmark's `--seed` feeds what is generated *data*: `real_groupby`'s
//! records (and the probes' random streams). The simulated cluster's own
//! randomness — `EngineConfig.seed`, the stream's arrival seed — is part of
//! each workload's definition and stays at [`MODEL_SEED`]: it decides how
//! much work a run is (four arrival seeds put `tenant_stream` anywhere from
//! 1.25 s to 5.6 s of host time), so letting it vary would bury a 10 %
//! regression under the spread between seeds.

use memres_cluster::{hyperion, ClusterSpec};
use memres_core::{
    Action, ArrivalProcess, Dataset, Driver, EngineConfig, FinishedJob, InputSource,
    InterJobPolicy, JobMetrics, JobOutput, Rdd, SchedulerKind, ShuffleStore, SizeModel,
    StoreDevice, StreamSpec, TenantSpec,
};
use memres_des::units::{GB, MB};
use memres_workloads::{datagen, rates, Grep, GroupBy};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;

/// Seed of every simulated cluster; `expected.json` pins its results.
pub const MODEL_SEED: u64 = 1;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the set (also the `why` in `BENCHMARK.json`).
    pub why: &'static str,
    /// Timed repetitions when neither `--reps` nor `--seconds` is given.
    pub reps: usize,
    /// Whether `--seed` changes the inputs. Where it does not, every run at
    /// every seed must reproduce `expected.json`; where it does, only runs
    /// at seed 1 must (at other seeds, runs must agree with each other).
    pub seeded: bool,
    pub build: fn(seed: u64, threads: usize) -> Inputs,
}

pub enum Job {
    Single { rdd: Rdd, action: Action },
    Stream(StreamSpec),
}

/// Everything one run consumes; building it is what `setup_s` times.
pub struct Inputs {
    pub spec: ClusterSpec,
    pub cfg: EngineConfig,
    pub job: Job,
    /// Output record count the job must report (`real_groupby`: the distinct
    /// keys counted in the generated records).
    pub expect_count: Option<u64>,
}

impl Inputs {
    /// The observed workload records a trace and metrics and renders the
    /// four exports inside the timed region.
    pub fn observed(&self) -> bool {
        self.cfg.metrics.is_some()
    }
}

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "paper_ramdisk",
        why: "400 GB GroupBy, RAMDisk shuffle: host time is reducer-launch Dispatch opening fetch flows into net",
        reps: 9,
        seeded: false,
        build: |_, threads| paper(threads, 400.0, ShuffleStore::Local(StoreDevice::RamDisk)),
    },
    Workload {
        name: "paper_lustre_local",
        why: "same job on Lustre-local shuffle: 8% more events at 2.3x the wall and 11x the net recomputes (lustre x net)",
        reps: 7,
        seeded: false,
        build: |_, threads| paper(threads, 400.0, ShuffleStore::LustreLocal),
    },
    Workload {
        name: "paper_ssd",
        why: "600 GB GroupBy on SSD shuffle: half the events are FsWake, NetWake handling is costly, storage GC model busy",
        reps: 9,
        seeded: false,
        build: |_, threads| paper(threads, 600.0, ShuffleStore::Local(StoreDevice::Ssd)),
    },
    Workload {
        name: "scale_1k_100k",
        why: "1000 nodes, 98k synthetic tasks: des queue and task bookkeeping bound, net idle (a net change must not move it)",
        reps: 25,
        seeded: false,
        build: |_, threads| scale_1k_100k(threads),
    },
    Workload {
        name: "real_groupby",
        why: "4M real records through the UDF executor, rdd and value paths; simulated substrates do little",
        reps: 7,
        seeded: true,
        build: real_groupby,
    },
    Workload {
        name: "tenant_stream",
        why: "two tenants, four overlapping jobs under FairShare: job arena and inter-job policy, the multi-job path",
        reps: 7,
        seeded: false,
        build: |_, threads| tenant_stream(threads),
    },
    Workload {
        name: "paper_ramdisk_observed",
        why: "paper_ramdisk with trace, metrics and four exports in the timed region: the observability budget",
        reps: 9,
        seeded: false,
        build: |_, threads| {
            let mut inp = paper(threads, 400.0, ShuffleStore::Local(StoreDevice::RamDisk));
            inp.cfg = inp.cfg.with_trace().with_metrics();
            inp
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The Fig 7a / Fig 8a cell shape of `repro bench`: Hyperion's 100 workers,
/// Lustre input, FIFO, synthetic GroupBy of `gb` GB.
fn paper(threads: usize, gb: f64, shuffle: ShuffleStore) -> Inputs {
    let cfg = EngineConfig {
        input: InputSource::Lustre,
        shuffle,
        scheduler: SchedulerKind::Fifo,
        seed: MODEL_SEED,
        ..EngineConfig::default()
    }
    .with_executor_threads(threads);
    let job = GroupBy::new(gb * GB);
    Inputs {
        spec: hyperion(),
        cfg,
        job: Job::Single {
            rdd: job.build(),
            action: job.action(),
        },
        expect_count: None,
    }
}

/// The `scale_1k_100k` cell of `repro scale`: 90,000 producers of 256 MB,
/// 8,192 reducers, homogeneous nodes (no periodic speed resampling, so the
/// event count is the job's structure).
fn scale_1k_100k(threads: usize) -> Inputs {
    let cfg = EngineConfig {
        input: InputSource::Lustre,
        shuffle: ShuffleStore::Local(StoreDevice::RamDisk),
        scheduler: SchedulerKind::Fifo,
        seed: MODEL_SEED,
        ..EngineConfig::default()
    }
    .homogeneous()
    .with_executor_threads(threads);
    let job = GroupBy::new(90_000.0 * 256.0 * MB)
        .with_split(256.0 * MB)
        .with_reducers(8_192);
    Inputs {
        spec: hyperion().scaled_workers(1_000),
        cfg,
        job: Job::Single {
            rdd: job.build(),
            action: job.action(),
        },
        expect_count: None,
    }
}

const REAL_PAIRS: u64 = 4_000_000;
const REAL_KEYS: u64 = 80_000;
const REAL_MAP_PARTITIONS: usize = 64;
const REAL_REDUCERS: u32 = 32;

/// `GroupBy::build_real`'s lineage, spelled out so the generated records
/// pass through this function and their distinct keys can be counted.
fn real_groupby(seed: u64, threads: usize) -> Inputs {
    let cfg = EngineConfig {
        input: InputSource::HdfsRamDisk,
        shuffle: ShuffleStore::Local(StoreDevice::RamDisk),
        seed: MODEL_SEED,
        ..EngineConfig::default()
    }
    .with_executor_threads(threads);
    let records = datagen::kv_pairs(REAL_PAIRS, REAL_KEYS, seed);
    let distinct: HashSet<i64> = records.iter().map(|(k, _)| k.as_i64()).collect();
    let rdd = Rdd::source(Dataset::from_records(records, REAL_MAP_PARTITIONS))
        .map("genKV", SizeModel::new(1.0, 1.0, rates::GROUPBY_GEN), |r| r)
        .group_by_key(Some(REAL_REDUCERS), rates::GROUP_AGG);
    Inputs {
        spec: hyperion().scaled_workers(16),
        cfg,
        job: Job::Single {
            rdd,
            action: Action::Count,
        },
        expect_count: Some(distinct.len() as u64),
    }
}

/// Arrival constants of `tenant_stream`, in simulated seconds. Fixed (not
/// calibrated from an isolated run as `repro tenants` does) so set-up stays
/// cheap; sized so the GroupBy jobs are still resident when the Grep jobs
/// arrive. [`check`] asserts the overlap on every run.
const GROUPBY_PERIOD_S: f64 = 4.0;
const GREP_MEAN_GAP_S: f64 = 5.0;
const STREAM_JOBS: u32 = 2;

fn tenant_stream(threads: usize) -> Inputs {
    let cfg = EngineConfig {
        input: InputSource::Lustre,
        shuffle: ShuffleStore::Local(StoreDevice::Ssd),
        scheduler: SchedulerKind::Fifo,
        seed: MODEL_SEED,
        ..EngineConfig::default()
    }
    .with_executor_threads(threads);
    let tenants = vec![
        TenantSpec::new(
            "groupby",
            STREAM_JOBS,
            ArrivalProcess::Periodic {
                period_secs: GROUPBY_PERIOD_S,
            },
            Arc::new(|k| {
                let job = GroupBy::new((350.0 + 50.0 * k as f64) * GB);
                (job.build(), job.action())
            }),
        ),
        TenantSpec::new(
            "grep",
            STREAM_JOBS,
            ArrivalProcess::OpenExp {
                mean_secs: GREP_MEAN_GAP_S,
            },
            Arc::new(|k| {
                let job = Grep::new((32.0 + 8.0 * k as f64) * GB);
                (job.build(), job.action())
            }),
        ),
    ];
    let stream =
        StreamSpec::new(tenants, InterJobPolicy::FairShare, MODEL_SEED).with_max_concurrent(2);
    Inputs {
        spec: hyperion().scaled_workers(50),
        cfg,
        job: Job::Stream(stream),
        expect_count: None,
    }
}

/// What a run produced, traced or not; the two kinds must agree exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Simulated seconds from first submission to last completion.
    pub sim_job_s: f64,
    /// Events the kernel processed.
    pub events: u64,
    /// Records the (last) job reported.
    pub output_count: u64,
    pub aborted: bool,
    /// Stream only: jobs whose residency overlapped another job's.
    pub overlapping_jobs: usize,
    pub jobs: usize,
}

impl Outcome {
    pub fn of_single(output: &JobOutput, metrics: &JobMetrics, events: u64) -> Outcome {
        Outcome {
            sim_job_s: metrics.job_time(),
            events,
            output_count: output.count,
            aborted: output.aborted,
            overlapping_jobs: 0,
            jobs: 1,
        }
    }

    pub fn of_stream(jobs: &[FinishedJob], events: u64) -> Outcome {
        let overlapping_jobs = jobs
            .iter()
            .filter(|a| {
                jobs.iter()
                    .any(|b| b.id != a.id && b.admitted < a.finished && a.admitted < b.finished)
            })
            .count();
        let end = jobs.iter().map(|j| j.finished).max();
        Outcome {
            sim_job_s: end.map_or(0.0, |t| t.as_secs_f64()),
            events,
            output_count: jobs.last().map_or(0, |j| j.output.count),
            aborted: jobs.iter().any(|j| j.output.aborted),
            overlapping_jobs,
            jobs: jobs.len(),
        }
    }
}

/// The trace sink's two exports of the observed workload, rendered and
/// checked. Returns the number of trace events.
pub fn render_trace(events: &[memres_trace::TimedEvent]) -> u64 {
    let jsonl = memres_trace::export::events_jsonl(events);
    let chrome = memres_trace::export::chrome_trace_json(events);
    assert!(
        !jsonl.is_empty() && !chrome.is_empty(),
        "a trace export came back empty"
    );
    black_box((jsonl, chrome));
    events.len() as u64
}

/// The metrics sink's two exports, likewise. Returns the sampler's ticks.
pub fn render_metrics(recorder: &memres_metrics::Recorder) -> u64 {
    let om = memres_metrics::export::openmetrics(recorder);
    let csv = memres_metrics::export::timeseries_csv(recorder);
    assert!(
        om.ends_with("# EOF\n") && !csv.is_empty(),
        "a metrics export came back empty"
    );
    black_box((om, csv));
    recorder.ticks()
}

/// One untraced run through the product's own `Driver`: the timed region of
/// `wall_s` is exactly this function.
pub fn run_untraced(inp: &Inputs) -> Outcome {
    let mut d = Driver::new(inp.spec.clone(), inp.cfg.clone());
    let out = match &inp.job {
        Job::Single { rdd, action } => {
            let (output, metrics) = d.run(rdd, action.clone());
            Outcome::of_single(&output, &metrics, d.engine_steps())
        }
        Job::Stream(spec) => {
            let jobs = d.run_stream(spec.clone());
            Outcome::of_stream(&jobs, d.engine_steps())
        }
    };
    if inp.observed() {
        render_trace(&d.take_trace());
        render_metrics(d.recorder().expect("observed run has a recorder"));
    }
    out
}

/// Why `out` is not an acceptable result for `inp`, if it is not.
pub fn check(inp: &Inputs, out: &Outcome) -> Result<(), String> {
    if out.aborted {
        return Err("job aborted".into());
    }
    if !(out.sim_job_s.is_finite() && out.sim_job_s > 0.0) || out.events == 0 {
        return Err(format!(
            "degenerate run: sim_job_s={} events={}",
            out.sim_job_s, out.events
        ));
    }
    if let Some(want) = inp.expect_count {
        if out.output_count != want {
            return Err(format!(
                "output has {} records, the input has {want} distinct keys",
                out.output_count
            ));
        }
    }
    if let Job::Stream(spec) = &inp.job {
        let total = spec.total_jobs() as usize;
        if out.jobs != total || out.overlapping_jobs + 1 < total {
            return Err(format!(
                "stream finished {} of {total} jobs, {} overlapping (need {})",
                out.jobs,
                out.overlapping_jobs,
                total - 1
            ));
        }
    }
    Ok(())
}
