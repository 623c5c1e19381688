//! memres-fuzz — differential fuzzing of the simulator against independent
//! oracles (DESIGN.md §4.13).
//!
//! A [`FuzzSpec`] is a compact, text-encodable point in the engine's config
//! space: cluster topology, workload shape, store/scheduler choices, fault
//! plan and executor threading. [`FuzzSpec::generate`] derives one
//! deterministically from a seed; [`check`] runs it and holds the engine to
//! six cheap independently-implemented oracles:
//!
//! 1. **waterfill** — the incremental max–min solver's rates equal a
//!    from-scratch progressive-filling pass, and its memoised next
//!    completion equals a fresh scan, audited live during the run
//!    (`FlowNet::audit_waterfill` via `Driver::run_audited`).
//! 2. **conserve** — bytes are conserved across every shuffle: reduce-side
//!    fetch totals equal the producing stage's output bytes, including when
//!    fetches ride rack-aggregated flows.
//! 3. **attribution** — critical-path attribution buckets partition the job
//!    window exactly (`sum_ns == job_ns`).
//! 4. **fault-equiv** — a faulted run that completes produces output equal
//!    to the fault-free run (lineage recovery is lossless).
//! 5. **thread-determinism** — the clean run's `JobMetrics` render to the
//!    same `Debug` string across 1-vs-N executor threads (every field, each
//!    `f64` in its shortest round-trip form).
//! 6. **stream-isolation / stream-conserve** — a two-tenant job stream
//!    derived from the same spec (DESIGN.md §4.14) retires every arrival,
//!    each job's output equals its isolated single-job run (concurrent
//!    residency shares slots, never data), and bytes are conserved across
//!    every shuffle of every resident job.
//!
//! On failure, [`minimize`] greedily shrinks the spec (fewer nodes, rows,
//! faults; simpler store/scheduler/workload) while the same oracle keeps
//! failing, yielding a smallest reproducer whose `repro fuzz --replay`
//! line is self-contained. Failing specs are checked into
//! `crates/bench/fuzz_corpus/` and replayed by `cargo test`: specs with
//! `defect=0` must pass (fixed regressions stay fixed), specs with
//! `defect=1` carry a deliberately injected engine defect and must keep
//! *failing* (the oracles still catch that class of bug).

use memres_cluster::ClusterSpec;
use memres_core::prelude::*;
use memres_core::{
    ArrivalProcess, Defect, FinishedJob, InterJobPolicy, StreamSpec, TenantSpec, TimedEvent,
};
use memres_des::splitmix64;
use memres_des::time::SimDuration;
use memres_des::units::MB;
use memres_workloads::{Grep, GroupBy, WordCount};
use std::fmt::Write as _;

/// Jobs per tenant in the stream oracle's two-tenant mix.
const STREAM_JOBS: u32 = 2;

/// Data seed for tenant `t`, stream job `k`: distinct per job so every job
/// has a distinct correct answer, deterministic so isolated replays match.
fn stream_data_seed(seed: u64, t: u32, k: u32) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(((t as u64) << 32) | (k as u64 + 1))
}

/// Spec-encoding version; bump on any grammar change so stale corpus files
/// fail loudly instead of silently re-interpreting.
const SPEC_VERSION: &str = "v1";

/// The workload a spec runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    GroupBy,
    Grep,
    WordCount,
}

/// One enum axis of the spec: each value with its replay-line name, in the
/// order [`FuzzSpec::generate`] draws them. `generate`, `encode`, `parse`
/// and `config` all read the same table.
type Axis<T> = [(&'static str, T)];

const STORES: &Axis<ShuffleStore> = &[
    ("ram", ShuffleStore::Local(StoreDevice::RamDisk)),
    ("ssd", ShuffleStore::Local(StoreDevice::Ssd)),
    ("lustre-local", ShuffleStore::LustreLocal),
    ("lustre-shared", ShuffleStore::LustreShared),
];

const INPUTS: &Axis<InputSource> = &[
    ("hdfs", InputSource::HdfsRamDisk),
    ("lustre", InputSource::Lustre),
];

/// Drawn as "delay one time in three": index 1 when `next() % 3 == 0`.
const SCHEDS: &Axis<SchedulerKind> = &[
    ("fifo", SchedulerKind::Fifo),
    (
        "delay",
        SchedulerKind::Delay {
            wait: SimDuration::from_secs(1),
        },
    ),
];

const WORKLOADS: &Axis<WorkloadKind> = &[
    ("groupby", WorkloadKind::GroupBy),
    ("grep", WorkloadKind::Grep),
    ("wordcount", WorkloadKind::WordCount),
];

/// The value an axis draw selects (`draw` is taken modulo the axis length).
fn drawn<T: Copy>(axis: &Axis<T>, draw: u64) -> T {
    let (_, v) = axis[(draw % axis.len() as u64) as usize];
    v
}

/// The replay-line name of `v` (`?`, which no parse accepts, for a value
/// outside the axis).
fn name_of<T: PartialEq>(axis: &Axis<T>, v: &T) -> &'static str {
    axis.iter()
        .find(|(_, x)| x == v)
        .map_or("?", |&(name, _)| name)
}

/// The value named `name` on the axis `what`.
fn named<T: Copy>(axis: &Axis<T>, what: &str, name: &str) -> Result<T, String> {
    let found = axis.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v);
    found.ok_or_else(|| format!("unknown {what} '{name}'"))
}

/// One point in the engine's configuration space, plus the workload run on
/// it. Everything is plain data so the spec round-trips through a single
/// `key=value` line (the replay / corpus format).
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzSpec {
    pub seed: u64,
    pub workers: u32,
    pub racks: u16,
    pub cores: u32,
    pub store: ShuffleStore,
    pub input: InputSource,
    pub sched: SchedulerKind,
    /// `rack_agg_threshold` (`u32::MAX` encodes as `off`).
    pub agg: u32,
    pub threads: u32,
    pub trace: bool,
    pub elb: bool,
    pub cad: bool,
    /// Per-task compute jitter in [0, 1), ×100 so the spec stays integral.
    pub jitter_pct: u32,
    pub wl: WorkloadKind,
    pub rows: u64,
    pub keys: u64,
    pub parts: u32,
    pub reducers: u32,
    /// Number of seeded fault events composed into the plan (0 = fault-free).
    pub faults: u32,
    /// Deliberate engine defect (oracle demonstrations only).
    pub defect: bool,
}

impl FuzzSpec {
    /// Derive a spec from `seed` — deterministic, and constructed to always
    /// satisfy [`FuzzSpec::validate`].
    pub fn generate(seed: u64) -> FuzzSpec {
        let mut s = seed ^ 0x5bf0_3635_ded5_4f6b;
        let mut next = move || splitmix64(&mut s);
        let racks = 1 + (next() % 4) as u16;
        // Enough workers that every rack is populated and small shuffles
        // still cross racks.
        let workers = (racks as u32 * 2) + (next() % 16) as u32;
        let per_rack = (workers / racks as u32) as u64;
        let agg = match next() % 4 {
            // Force aggregation outright, sit just at/below the boundary,
            // keep the default, or disable — the PR 6 exactness boundary is
            // fuzzed from both sides.
            0 => 0,
            1 => (per_rack * per_rack).saturating_sub(next() % 3) as u32,
            2 => 4096,
            _ => u32::MAX,
        };
        FuzzSpec {
            seed,
            workers,
            racks,
            cores: 2 + (next() % 3) as u32,
            store: drawn(STORES, next()),
            input: drawn(INPUTS, next()),
            sched: drawn(SCHEDS, (next() % 3 == 0) as u64),
            agg,
            threads: {
                // One draw discarded: it fed the retired `legacy` queue axis,
                // and skipping it would shift every later field of every seed.
                next();
                1 + (next() % 3) as u32
            },
            trace: next() % 2 == 0,
            elb: next() % 4 == 0,
            cad: next() % 4 == 0,
            jitter_pct: (next() % 30) as u32,
            wl: drawn(WORKLOADS, next()),
            rows: 200 + next() % 1400,
            keys: 5 + next() % 90,
            parts: 2 + (next() % 12) as u32,
            reducers: 2 + (next() % 7) as u32,
            faults: (next() % 4).saturating_sub(1) as u32,
            defect: false,
        }
    }

    /// Structural sanity (what [`memres_core::Driver::try_new`] would reject,
    /// checked cheaply up front so shrink candidates never waste a run).
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 || self.racks == 0 || self.cores == 0 {
            return Err("workers, racks and cores must be positive".into());
        }
        if self.racks as u32 > self.workers {
            return Err("more racks than workers".into());
        }
        if self.threads == 0 {
            return Err("threads must be positive".into());
        }
        if self.jitter_pct >= 100 {
            return Err("jitter_pct must be < 100".into());
        }
        if self.rows == 0 || self.keys == 0 || self.parts == 0 || self.reducers == 0 {
            return Err("workload shape must be positive".into());
        }
        Ok(())
    }

    pub fn cluster(&self) -> ClusterSpec {
        let mut c = memres_cluster::tiny(self.workers);
        c.racks = self.racks;
        c.cores_per_node = self.cores;
        c
    }

    /// The engine configuration this spec describes (fault plan excluded —
    /// the harness attaches it only to the faulted comparison run).
    pub fn config(&self) -> EngineConfig {
        let mut cfg = EngineConfig {
            input: self.input,
            shuffle: self.store,
            scheduler: self.sched,
            task_jitter: self.jitter_pct as f64 / 100.0,
            seed: self.seed,
            rack_agg_threshold: self.agg,
            ..EngineConfig::default()
        }
        .homogeneous()
        .with_executor_threads(self.threads as usize);
        if self.trace {
            cfg = cfg.with_trace();
        }
        if self.elb {
            cfg = cfg.with_elb();
        }
        if self.cad {
            cfg = cfg.with_cad();
        }
        if self.defect {
            cfg = cfg.with_defect(Defect::DropAggBytes);
        }
        cfg
    }

    /// Build the workload's lineage graph. Rebuilt fresh for every run —
    /// shared `Rdd` handles would hide instance-keyed nondeterminism.
    pub fn build_rdd(&self) -> (Rdd, Action) {
        self.build_rdd_seeded(self.seed)
    }

    /// [`FuzzSpec::build_rdd`] with an explicit data seed: the stream
    /// oracle gives every job in a tenant's stream distinct data (and
    /// therefore a distinct correct answer).
    pub fn build_rdd_seeded(&self, seed: u64) -> (Rdd, Action) {
        match self.wl {
            WorkloadKind::GroupBy => {
                let g = GroupBy::new(self.parts as f64 * 256.0 * MB).with_reducers(self.reducers);
                (g.build_real(self.rows, self.keys, seed), Action::Count)
            }
            WorkloadKind::Grep => {
                let mut g = Grep::new(self.parts as f64 * 32.0 * MB);
                g.reducers = Some(self.reducers);
                (g.build_real(self.rows, "the", seed), Action::Count)
            }
            WorkloadKind::WordCount => {
                let mut w = WordCount::new(self.parts as f64 * 128.0 * MB);
                w.reducers = Some(self.reducers);
                (w.build_real(self.rows, seed), Action::Count)
            }
        }
    }

    /// The two tenant workload factories of the stream oracle: tenant 0
    /// replays the spec's own workload (data re-seeded per job), tenant 1
    /// runs a small fixed WordCount so the resident mix crosses workload
    /// shapes. Exposed so the oracle replays each job in isolation.
    pub fn stream_factories(&self) -> [memres_core::JobFactory; 2] {
        let own = self.clone();
        let tenant0: memres_core::JobFactory =
            std::sync::Arc::new(move |k| own.build_rdd_seeded(stream_data_seed(own.seed, 0, k)));
        let seed = self.seed;
        let tenant1: memres_core::JobFactory = std::sync::Arc::new(move |k| {
            let mut w = WordCount::new(2.0 * 128.0 * MB);
            w.reducers = Some(2);
            (
                w.build_real(120, stream_data_seed(seed, 1, k)),
                Action::Count,
            )
        });
        [tenant0, tenant1]
    }

    /// The two-tenant stream the multi-job oracle runs. Arrivals are
    /// near-simultaneous so residency genuinely overlaps; the inter-job
    /// policy is derived from the seed so the fuzzer sweeps all three.
    pub fn stream(&self) -> StreamSpec {
        let [tenant0, tenant1] = self.stream_factories();
        let policy = match self.seed % 3 {
            0 => InterJobPolicy::Fifo,
            1 => InterJobPolicy::FairShare,
            _ => InterJobPolicy::Capacity {
                guarantees: vec![1, 1],
            },
        };
        StreamSpec::new(
            vec![
                TenantSpec::new(
                    "own",
                    STREAM_JOBS,
                    ArrivalProcess::Periodic { period_secs: 0.05 },
                    tenant0,
                ),
                TenantSpec::new(
                    "wordcount",
                    STREAM_JOBS,
                    ArrivalProcess::OpenExp { mean_secs: 0.1 },
                    tenant1,
                ),
            ],
            policy,
            self.seed,
        )
    }

    /// One-line `key=value` encoding — the replay and corpus format.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{SPEC_VERSION} seed={} workers={} racks={} cores={} store={} input={} \
             sched={} agg={} threads={} trace={} elb={} cad={} jitter={} \
             wl={} rows={} keys={} parts={} reducers={} faults={} defect={}",
            self.seed,
            self.workers,
            self.racks,
            self.cores,
            name_of(STORES, &self.store),
            name_of(INPUTS, &self.input),
            name_of(SCHEDS, &self.sched),
            if self.agg == u32::MAX {
                "off".to_string()
            } else {
                self.agg.to_string()
            },
            self.threads,
            self.trace as u8,
            self.elb as u8,
            self.cad as u8,
            self.jitter_pct,
            name_of(WORKLOADS, &self.wl),
            self.rows,
            self.keys,
            self.parts,
            self.reducers,
            self.faults,
            self.defect as u8,
        );
        s
    }

    /// Parse the [`FuzzSpec::encode`] form. Unknown keys and missing fields
    /// are hard errors — a corpus line must mean exactly one spec.
    pub fn parse(line: &str) -> Result<FuzzSpec, String> {
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some(v) if v == SPEC_VERSION => {}
            Some(v) => return Err(format!("unsupported spec version '{v}'")),
            None => return Err("empty spec".into()),
        }
        // Start from a filler spec and require every field to be present.
        let mut spec = FuzzSpec::generate(0);
        let mut seen: Vec<&str> = Vec::new();
        for tok in tokens {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("malformed token '{tok}' (want key=value)"))?;
            let intval = || -> Result<u64, String> {
                val.parse::<u64>()
                    .map_err(|_| format!("{key} wants an integer, got '{val}'"))
            };
            let boolval = || -> Result<bool, String> {
                match val {
                    "0" => Ok(false),
                    "1" => Ok(true),
                    _ => Err(format!("{key} wants 0 or 1, got '{val}'")),
                }
            };
            match key {
                "seed" => spec.seed = intval()?,
                "workers" => spec.workers = intval()? as u32,
                "racks" => spec.racks = intval()? as u16,
                "cores" => spec.cores = intval()? as u32,
                "store" => spec.store = named(STORES, key, val)?,
                "input" => spec.input = named(INPUTS, key, val)?,
                "sched" => spec.sched = named(SCHEDS, key, val)?,
                "agg" => {
                    spec.agg = if val == "off" {
                        u32::MAX
                    } else {
                        intval()? as u32
                    }
                }
                "threads" => spec.threads = intval()? as u32,
                "trace" => spec.trace = boolval()?,
                "elb" => spec.elb = boolval()?,
                "cad" => spec.cad = boolval()?,
                "jitter" => spec.jitter_pct = intval()? as u32,
                "wl" => spec.wl = named(WORKLOADS, "workload", val)?,
                "rows" => spec.rows = intval()?,
                "keys" => spec.keys = intval()?,
                "parts" => spec.parts = intval()? as u32,
                "reducers" => spec.reducers = intval()? as u32,
                "faults" => spec.faults = intval()? as u32,
                "defect" => spec.defect = boolval()?,
                _ => return Err(format!("unknown key '{key}'")),
            }
            seen.push(key);
        }
        const REQUIRED: [&str; 20] = [
            "seed", "workers", "racks", "cores", "store", "input", "sched", "agg", "threads",
            "trace", "elb", "cad", "jitter", "wl", "rows", "keys", "parts", "reducers", "faults",
            "defect",
        ];
        for r in REQUIRED {
            if !seen.contains(&r) {
                return Err(format!("spec is missing '{r}'"));
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The self-contained reproducer command line.
    pub fn replay_line(&self) -> String {
        format!("repro fuzz --replay '{}'", self.encode())
    }
}

/// An oracle violation: which oracle, and what it saw.
#[derive(Clone, Debug)]
pub struct Failure {
    pub oracle: &'static str,
    pub message: String,
}

impl Failure {
    fn new(oracle: &'static str, message: impl Into<String>) -> Failure {
        Failure {
            oracle,
            message: message.into(),
        }
    }
}

/// How often `run_audited` cross-checks live engine state (oracle 1).
const AUDIT_EVERY: u64 = 2048;

fn run_spec(
    spec: &FuzzSpec,
    budget: u64,
    faults: Option<FaultPlan>,
) -> Result<(memres_core::world::JobOutput, JobMetrics, Vec<TimedEvent>), String> {
    let mut cfg = spec.config();
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    let mut d = Driver::try_new(spec.cluster(), cfg)?;
    d.set_max_steps(budget);
    let (rdd, action) = spec.build_rdd();
    let (out, metrics) = d.run_audited(&rdd, action, AUDIT_EVERY)?;
    Ok((out, metrics, d.take_trace()))
}

/// Oracle 2: bytes are conserved across every shuffle boundary — the
/// reduce side fetches exactly what the producing stage deposited, whether
/// the fetches ride per-node flows or rack-aggregated ones. Computed from
/// the public task metrics, independent of the engine's bucket accounting.
/// Valid for fault-free, speculation-off runs (ghost attempts and killed
/// speculative copies deposit partial bytes by design).
pub fn check_conservation(m: &JobMetrics) -> Result<(), String> {
    let max_stage = m.tasks().map(|t| t.stage).max().unwrap_or(0);
    for s in 1..=max_stage {
        let fetched: f64 = m
            .tasks()
            .filter(|t| t.stage == s && t.phase == Phase::Shuffling)
            .map(|t| t.input_bytes)
            .sum();
        let has_fetch = m
            .tasks()
            .any(|t| t.stage == s && t.phase == Phase::Shuffling);
        if !has_fetch {
            continue;
        }
        // Producers: compute tasks of the prior stage (and fetch tasks of
        // iterative jobs); Store tasks mirror their producer's bytes and
        // must not be double-counted.
        let produced: f64 = m
            .tasks()
            .filter(|t| t.stage + 1 == s && t.phase != Phase::Storing)
            .map(|t| t.output_bytes)
            .sum();
        let tol = 1e-6 * produced.max(1.0);
        if (fetched - produced).abs() > tol {
            return Err(format!(
                "stage {s}: fetched {fetched:.3} bytes but stage {} produced {produced:.3}",
                s - 1
            ));
        }
    }
    Ok(())
}

/// Run every oracle against `spec`. `budget` caps simulator events per run.
pub fn check(spec: &FuzzSpec, budget: u64) -> Result<(), Failure> {
    spec.validate().map_err(|e| Failure::new("validate", e))?;

    // Clean run, audited: oracle 1 fires inside `run_audited`; deadlocks
    // and event storms surface as errors here instead of panics.
    let (clean_out, clean_m, clean_trace) =
        run_spec(spec, budget, None).map_err(|e| Failure::new("waterfill", e))?;
    if clean_out.aborted {
        return Err(Failure::new("waterfill", "fault-free run aborted"));
    }

    // Oracle 2: byte conservation across the shuffle.
    check_conservation(&clean_m).map_err(|e| Failure::new("conserve", e))?;

    // Oracle 3: attribution buckets partition the job window exactly.
    if spec.trace {
        let att = memres_trace::analyze::attribute(&clean_trace);
        if att.sum() != att.job {
            return Err(Failure::new(
                "attribution",
                format!(
                    "buckets sum to {} ns but the job window is {} ns",
                    att.sum().as_nanos(),
                    att.job.as_nanos()
                ),
            ));
        }
    }

    // Oracle 4: a faulted run that completes matches the fault-free output.
    if spec.faults > 0 {
        let horizon = SimDuration::from_secs_f64(clean_m.job_time().max(1.0));
        let plan = FaultPlan::seeded(spec.seed, spec.workers, spec.faults as usize, horizon);
        let (fault_out, _, _) =
            run_spec(spec, budget, Some(plan)).map_err(|e| Failure::new("fault-equiv", e))?;
        if !fault_out.aborted && fault_out.count != clean_out.count {
            return Err(Failure::new(
                "fault-equiv",
                format!(
                    "faulted run output {} != fault-free output {}",
                    fault_out.count, clean_out.count
                ),
            ));
        }
    }

    // Oracle 5: the metrics are identical across executor-thread counts.
    let base = format!("{clean_m:?}");
    for (what, v) in thread_variants(spec) {
        let (_, m, _) = run_spec(&v, budget, None)
            .map_err(|e| Failure::new("thread-determinism", format!("{what}: {e}")))?;
        if format!("{m:?}") != base {
            return Err(Failure::new(
                "thread-determinism",
                format!("{what}: metrics differ"),
            ));
        }
    }

    // Oracle 6: a two-tenant stream derived from the spec retires every
    // arrival; each job's output equals the same job run alone on a fresh
    // cluster, and bytes are conserved across every shuffle of every
    // resident job (concurrent residency shares slots, never data).
    let mut d = Driver::try_new(spec.cluster(), spec.config())
        .map_err(|e| Failure::new("stream-isolation", e))?;
    d.set_max_steps(budget);
    let finished = d
        .run_stream_audited(spec.stream(), AUDIT_EVERY)
        .map_err(|e| Failure::new("stream-isolation", e))?;
    let want = 2 * STREAM_JOBS as usize;
    if finished.len() != want {
        return Err(Failure::new(
            "stream-isolation",
            format!("stream retired {} of {want} jobs", finished.len()),
        ));
    }
    // Per tenant, stream job `k` is the k-th admission (admission is FIFO
    // per tenant), so sort by admission to recover each job's factory index.
    let mut by_admission: Vec<&FinishedJob> = finished.iter().collect();
    by_admission.sort_by(|a, b| a.admitted.cmp(&b.admitted).then(a.id.cmp(&b.id)));
    let factories = spec.stream_factories();
    let mut seen = [0u32; 2];
    for j in by_admission {
        let t = j.tenant as usize;
        let k = seen[t];
        seen[t] += 1;
        if j.output.aborted {
            return Err(Failure::new(
                "stream-isolation",
                format!("tenant {t} job {k} aborted in a fault-free stream"),
            ));
        }
        check_conservation(&j.metrics)
            .map_err(|e| Failure::new("stream-conserve", format!("tenant {t} job {k}: {e}")))?;
        let (rdd, action) = factories[t](k);
        let mut iso = Driver::try_new(spec.cluster(), spec.config())
            .map_err(|e| Failure::new("stream-isolation", e))?;
        iso.set_max_steps(budget);
        let (iso_out, _) = iso
            .run_audited(&rdd, action, 0)
            .map_err(|e| Failure::new("stream-isolation", format!("isolated replay: {e}")))?;
        if format!("{:?}", j.output) != format!("{iso_out:?}") {
            return Err(Failure::new(
                "stream-isolation",
                format!(
                    "tenant {t} job {k}: stream output {:?} != isolated output {iso_out:?}",
                    j.output
                ),
            ));
        }
    }
    Ok(())
}

/// Oracle 5's re-runs of `spec`, each of which must reproduce the clean
/// run's metrics exactly. Never empty, or the oracle is vacuous: the
/// executor-thread count always has another side to flip to (1 → 4, N → 1).
fn thread_variants(spec: &FuzzSpec) -> Vec<(&'static str, FuzzSpec)> {
    let mut flipped = spec.clone();
    flipped.threads = if spec.threads == 1 { 4 } else { 1 };
    vec![("1-vs-N executor threads", flipped)]
}

/// Shrink candidates, most-impactful first. Each is one simplification of
/// `spec`; the minimizer keeps a candidate only when the same oracle still
/// fails on it.
fn shrink_candidates(spec: &FuzzSpec) -> Vec<FuzzSpec> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut FuzzSpec)| {
        let mut s = spec.clone();
        f(&mut s);
        if s != *spec && s.validate().is_ok() {
            out.push(s);
        }
    };
    push(&|s| s.rows = (s.rows / 2).max(50));
    push(&|s| s.workers = (s.workers / 2).max(s.racks as u32).max(2));
    push(&|s| s.faults = 0);
    push(&|s| s.faults /= 2);
    push(&|s| s.parts = (s.parts / 2).max(2));
    push(&|s| s.reducers = (s.reducers / 2).max(2));
    push(&|s| s.keys = (s.keys / 2).max(3));
    push(&|s| s.threads = 1);
    push(&|s| s.cores = 2);
    push(&|s| s.racks = (s.racks / 2).max(1));
    push(&|s| s.jitter_pct = 0);
    push(&|s| s.trace = false);
    push(&|s| s.elb = false);
    push(&|s| s.cad = false);
    push(&|s| s.sched = SchedulerKind::Fifo);
    push(&|s| s.store = ShuffleStore::Local(StoreDevice::RamDisk));
    push(&|s| s.input = InputSource::HdfsRamDisk);
    out
}

/// Greedily shrink a failing spec while the *same oracle* keeps failing.
/// Returns the smallest reproducer found and its failure, plus how many
/// candidate runs were spent. Bounded: at most `max_checks` re-runs.
pub fn minimize(
    spec: &FuzzSpec,
    failure: &Failure,
    budget: u64,
    max_checks: u32,
) -> (FuzzSpec, u32) {
    let mut best = spec.clone();
    let mut spent = 0u32;
    'outer: loop {
        for cand in shrink_candidates(&best) {
            if spent >= max_checks {
                break 'outer;
            }
            spent += 1;
            match check(&cand, budget) {
                Err(f) if f.oracle == failure.oracle => {
                    best = cand;
                    continue 'outer;
                }
                _ => {}
            }
        }
        break;
    }
    (best, spent)
}

/// Result of fuzzing one seed.
pub struct Outcome {
    pub seed: u64,
    pub spec: FuzzSpec,
    pub failure: Option<Failure>,
    /// Minimized reproducer when the seed failed.
    pub minimized: Option<FuzzSpec>,
}

/// Fuzz a contiguous seed range. `inject_defect` plants the deliberate
/// rack-aggregation byte-drop into every generated spec (oracle
/// demonstration mode). Failures are minimized before being reported.
pub fn run_range(
    start: u64,
    end: u64,
    budget: u64,
    inject_defect: bool,
    mut progress: impl FnMut(&Outcome),
) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    for seed in start..end {
        let mut spec = FuzzSpec::generate(seed);
        if inject_defect {
            spec.defect = true;
        }
        let outcome = match check(&spec, budget) {
            Ok(()) => Outcome {
                seed,
                spec,
                failure: None,
                minimized: None,
            },
            Err(failure) => {
                let (minimized, _) = minimize(&spec, &failure, budget, 64);
                Outcome {
                    seed,
                    spec,
                    failure: Some(failure),
                    minimized: Some(minimized),
                }
            }
        };
        progress(&outcome);
        outcomes.push(outcome);
    }
    outcomes
}

/// Machine-readable summary (written as `fuzz.json` by `repro fuzz --json`).
pub fn to_json(outcomes: &[Outcome], budget: u64) -> String {
    use memres_des::json::escape;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"budget\": {budget},");
    let _ = writeln!(out, "  \"seeds\": {},", outcomes.len());
    let failures: Vec<&Outcome> = outcomes.iter().filter(|o| o.failure.is_some()).collect();
    let _ = writeln!(out, "  \"failures\": {},", failures.len());
    out.push_str("  \"cases\": [");
    for (i, o) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let f = o.failure.as_ref().expect("filtered on is_some");
        let _ = write!(
            out,
            "\n    {{\"seed\": {}, \"oracle\": \"{}\", \"message\": \"{}\", \
             \"spec\": \"{}\", \"minimized\": \"{}\"}}",
            o.seed,
            escape(f.oracle),
            escape(&f.message),
            escape(&o.spec.encode()),
            escape(&o.minimized.as_ref().unwrap_or(&o.spec).encode()),
        );
    }
    if !failures.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrips_through_encoding() {
        for seed in 0..50 {
            let spec = FuzzSpec::generate(seed);
            spec.validate().expect("generated specs are valid");
            let parsed = FuzzSpec::parse(&spec.encode()).expect("parses");
            assert_eq!(parsed, spec, "seed {seed}");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FuzzSpec::parse("").is_err());
        assert!(FuzzSpec::parse("v0 seed=1").is_err());
        let spec = FuzzSpec::generate(1).encode();
        assert!(FuzzSpec::parse(&spec.replace("store=", "shop=")).is_err());
        assert!(FuzzSpec::parse(&spec.replace(" seed=1", "")).is_err());
        // Degenerate topology: parse applies structural validation.
        let mut degenerate = FuzzSpec::generate(1);
        degenerate.workers = 0;
        assert!(FuzzSpec::parse(&degenerate.encode()).is_err());
    }

    #[test]
    fn seeds_generate_the_same_points_as_before_the_legacy_axis_was_retired() {
        // The replay lines `FuzzSpec::generate` produced for these seeds
        // when the spec still carried a `legacy=` token, with that token
        // removed: every other field of every seed must be unchanged.
        for (seed, line) in [
            (0, "v1 seed=0 workers=8 racks=1 cores=3 store=lustre-shared input=hdfs sched=fifo agg=4096 threads=3 trace=1 elb=1 cad=0 jitter=18 wl=grep rows=1387 keys=26 parts=12 reducers=5 faults=2 defect=0"),
            (7, "v1 seed=7 workers=9 racks=2 cores=2 store=ram input=hdfs sched=fifo agg=16 threads=3 trace=0 elb=0 cad=0 jitter=22 wl=grep rows=314 keys=5 parts=4 reducers=5 faults=1 defect=0"),
            (42, "v1 seed=42 workers=18 racks=2 cores=2 store=ssd input=lustre sched=fifo agg=off threads=3 trace=1 elb=0 cad=0 jitter=27 wl=grep rows=323 keys=35 parts=8 reducers=2 faults=0 defect=0"),
        ] {
            assert_eq!(FuzzSpec::generate(seed).encode(), line);
        }
        // The retired key is rejected like any unknown key.
        let with_legacy = FuzzSpec::generate(0)
            .encode()
            .replace(" threads=", " legacy=0 threads=");
        assert!(FuzzSpec::parse(&with_legacy).is_err());
    }

    #[test]
    fn thread_determinism_always_has_a_variant_to_compare() {
        for threads in 1..=4 {
            let mut spec = FuzzSpec::generate(3);
            spec.threads = threads;
            let variants = thread_variants(&spec);
            assert!(
                !variants.is_empty(),
                "oracle 5 vacuous at threads={threads}"
            );
            for (_, v) in variants {
                assert_ne!(v.threads, threads);
                assert_eq!(v.threads == 1, threads != 1, "1 -> N, N -> 1");
                v.validate().expect("variant stays valid");
            }
        }
    }

    #[test]
    fn generated_specs_cover_the_config_space() {
        let specs: Vec<FuzzSpec> = (0..64).map(FuzzSpec::generate).collect();
        assert!(specs.iter().any(|s| s.agg == u32::MAX));
        assert!(specs.iter().any(|s| s.agg == 0));
        assert!(specs.iter().any(|s| s.faults > 0));
        assert!(specs.iter().any(|s| s.wl == WorkloadKind::GroupBy));
        assert!(specs.iter().any(|s| s.wl == WorkloadKind::Grep));
        assert!(specs.iter().any(|s| s.wl == WorkloadKind::WordCount));
        assert!(specs.iter().any(|s| s.store == ShuffleStore::LustreShared));
        assert!(specs.iter().any(|s| s.threads > 1));
    }
}
