//! Engine configuration.
//!
//! [`EngineConfig`] holds what some caller outside tests varies: input
//! source, shuffle-store strategy, scheduling policy, the ELB/CAD
//! optimizations and the FetchRequest size §VI-A shrinks. What no caller
//! varies is a constant beside the code that reads it (census: DESIGN.md
//! §4.7), Table I's other four rows among them ([`EngineConfig::table1`]).

use crate::faults::FaultPlan;
use memres_des::time::SimDuration;
use memres_des::units::{GB, MB};

/// Where stage-one tasks read their input from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputSource {
    /// Data-centric: HDFS DataNodes on per-node RAMDisk (Fig 2b).
    HdfsRamDisk,
    /// Compute-centric: the shared Lustre backend (Fig 2a).
    Lustre,
}

/// Which device backs the per-node shuffle store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreDevice {
    RamDisk,
    Ssd,
}

/// Where intermediate (shuffle) data is stored and how fetchers get it —
/// the §IV-B design space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShuffleStore {
    /// Data-centric: local per-node store; fetchers ask the *server* node,
    /// which reads locally and ships bytes over the fabric.
    Local(StoreDevice),
    /// Intermediate data in Lustre; fetchers still ask the writing server,
    /// which reads its own Lustre directory (usually cached) and ships the
    /// bytes — "repetitive data movement" but no lock conflicts.
    LustreLocal,
    /// Intermediate data in Lustre; fetchers read Lustre *directly*, forcing
    /// DLM write-lock revocations and dirty-page flushes (the §IV-B trap).
    LustreShared,
}

/// Base task-placement policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedulerKind {
    /// Launch pending tasks on any free slot immediately (compute-centric
    /// behaviour: "tasks can be immediately launched ... since there is no
    /// locality constraint").
    Fifo,
    /// Delay scheduling [Zaharia EuroSys'10]: hold a task up to `wait` for a
    /// slot on a node holding its data before accepting any node.
    Delay { wait: SimDuration },
}

/// Enhanced Load Balancer (§VI-A).
#[derive(Clone, Copy, Debug)]
pub struct ElbConfig {
    /// Stop assigning tasks to a node whose intermediate data exceeds the
    /// cluster average by this factor (paper: 25% ⇒ 1.25).
    pub threshold: f64,
}

impl Default for ElbConfig {
    fn default() -> Self {
        ElbConfig { threshold: 1.25 }
    }
}

/// Congestion-Aware task Dispatching (§VI-B).
#[derive(Clone, Copy, Debug)]
pub struct CadConfig {
    /// Increment added to the dispatch interval on a detected jump
    /// (paper: 50 ms).
    pub step: SimDuration,
}

impl Default for CadConfig {
    fn default() -> Self {
        CadConfig {
            step: SimDuration::from_millis(50),
        }
    }
}

/// A deliberately injectable engine defect. Each variant genuinely corrupts
/// one accounting path deep in the engine, so the differential-fuzz oracles
/// (DESIGN.md §4.13) can be demonstrated — in tests and in CI — to catch a
/// real bug, shrink it, and replay it. Never set outside fuzz harnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defect {
    /// Drop the last source rack's bytes when folding per-node shuffle
    /// buckets into rack-aggregated fetch totals: bytes vanish between map
    /// output and reduce input, tripping the conservation oracle (only in
    /// runs where the shuffle actually aggregates).
    DropAggBytes,
}

/// Everything a simulated run needs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// `spark.reducer.maxMbInFlight` — also the FetchRequest size; §VI-A
    /// shrinks this from 1 GB to 128 KB to manufacture a network bottleneck.
    pub reducer_max_bytes_in_flight: f64,
    pub input: InputSource,
    pub shuffle: ShuffleStore,
    pub scheduler: SchedulerKind,
    pub elb: Option<ElbConfig>,
    pub cad: Option<CadConfig>,
    /// LATE-style speculative execution [Zaharia OSDI'08] — the comparison
    /// baseline the paper's related work cites: it duplicates slow *tasks*,
    /// which cannot fix the *intermediate data* imbalance ELB targets ("none
    /// of them considers the imbalanced intermediate data distribution",
    /// §VIII).
    pub speculation: bool,
    /// HDFS replication for input datasets. The paper's data-centric
    /// configuration backs HDFS with 32 GB RAMDisks, so replication is kept
    /// at 1 for capacity (they observe a 1.2 TB ceiling); raise it to study
    /// replica-aware locality scheduling.
    pub input_replication: u32,
    /// Per-task compute-time jitter amplitude (uniform ±jitter): models
    /// record-size variation, JIT and GC noise. Deterministic per task.
    pub task_jitter: f64,
    /// Node speed-variation model (None = homogeneous).
    pub speed_sigma: f64,
    pub speed_resample: SimDuration,
    pub seed: u64,
    /// Host worker threads for real-partition UDF evaluation. `None` reads
    /// the `MEMRES_THREADS` environment variable, falling back to the host's
    /// available parallelism. Results are deterministic regardless of the
    /// thread count: placement stays sequential and chain results commit in
    /// launch order.
    pub executor_threads: Option<usize>,
    /// Deterministic fault schedule (DESIGN.md §4.9). `None` = happy path.
    pub faults: Option<FaultPlan>,
    /// Structured event tracing (DESIGN.md §4.11). Off by default: the
    /// engine then holds no sink at all and emission sites cost one
    /// `Option` test.
    pub trace: bool,
    /// Shuffle fetches between a rack pair collapse into one rack-level
    /// aggregate flow when `(workers / racks)^2` — the concurrent per-pair
    /// flow count of an all-to-all shuffle wave — exceeds this threshold
    /// (DESIGN.md, rack aggregation). Below it every fetch keeps its own
    /// max–min-fair flow, so paper-scale cells stay byte-identical.
    /// `u32::MAX` disables aggregation entirely.
    pub rack_agg_threshold: u32,
    /// Deliberate defect injection for fuzz-oracle demonstrations
    /// (DESIGN.md §4.13). `None` — always, outside fuzz harnesses.
    pub defect: Option<Defect>,
    /// Periodic sim-time metrics sampling (DESIGN.md §4.16). Off by
    /// default: the world then holds no recorder and the sampler event is
    /// never scheduled.
    pub metrics: Option<memres_metrics::MetricsConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            reducer_max_bytes_in_flight: 1.0 * GB,
            input: InputSource::HdfsRamDisk,
            shuffle: ShuffleStore::Local(StoreDevice::RamDisk),
            scheduler: SchedulerKind::Fifo,
            elb: None,
            cad: None,
            speculation: false,
            input_replication: 1,
            task_jitter: 0.15,
            speed_sigma: 0.25,
            speed_resample: SimDuration::from_secs(30),
            seed: 1,
            executor_threads: None,
            faults: None,
            trace: false,
            rack_agg_threshold: 4096,
            defect: None,
            metrics: None,
        }
    }
}

impl EngineConfig {
    pub fn homogeneous(mut self) -> Self {
        self.speed_sigma = 0.0;
        self
    }

    pub fn with_delay_scheduling(mut self, wait: SimDuration) -> Self {
        self.scheduler = SchedulerKind::Delay { wait };
        self
    }

    pub fn with_elb(mut self) -> Self {
        self.elb = Some(ElbConfig::default());
        self
    }

    pub fn with_cad(mut self) -> Self {
        self.cad = Some(CadConfig::default());
        self
    }

    pub fn with_speculation(mut self) -> Self {
        self.speculation = true;
        self
    }

    /// Pin the real-partition executor to `n` host threads (tests use this
    /// instead of mutating the process-global `MEMRES_THREADS`).
    pub fn with_executor_threads(mut self, n: usize) -> Self {
        self.executor_threads = Some(n);
        self
    }

    /// Attach a deterministic fault schedule to the run.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Record a full structured event trace of the run (DESIGN.md §4.11).
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Override the rack-aggregation trigger (`u32::MAX` disables it).
    pub fn with_rack_agg_threshold(mut self, threshold: u32) -> Self {
        self.rack_agg_threshold = threshold;
        self
    }

    /// Inject a deliberate engine defect (fuzz-oracle demonstrations only).
    pub fn with_defect(mut self, defect: Defect) -> Self {
        self.defect = Some(defect);
        self
    }

    /// Enable periodic sim-time metrics sampling at the default interval
    /// (DESIGN.md §4.16).
    pub fn with_metrics(mut self) -> Self {
        self.metrics = Some(memres_metrics::MetricsConfig::default());
        self
    }

    /// Validate the configuration against a cluster of `workers` nodes.
    /// Returns a descriptive error instead of letting a bad knob panic (or
    /// silently misbehave) deep inside the simulation.
    pub fn validate(&self, workers: u32) -> Result<(), String> {
        if workers == 0 {
            return Err("cluster has zero worker nodes".to_string());
        }
        if self.input_replication == 0 {
            return Err("input_replication must be at least 1".to_string());
        }
        if self.input_replication > workers {
            return Err(format!(
                "input_replication {} exceeds cluster size {workers}",
                self.input_replication
            ));
        }
        if !(0.0..1.0).contains(&self.task_jitter) {
            return Err(format!(
                "task_jitter must be in [0, 1), got {}",
                self.task_jitter
            ));
        }
        if !self.speed_sigma.is_finite() || self.speed_sigma < 0.0 {
            return Err(format!(
                "speed_sigma must be non-negative, got {}",
                self.speed_sigma
            ));
        }
        if self.speed_sigma > 0.0 && self.speed_resample.as_secs_f64() <= 0.0 {
            return Err("speed_resample must be positive when speed_sigma > 0".to_string());
        }
        if self.executor_threads == Some(0) {
            return Err("executor_threads must be at least 1".to_string());
        }
        if self.reducer_max_bytes_in_flight <= 0.0 || !self.reducer_max_bytes_in_flight.is_finite()
        {
            return Err(format!(
                "reducer_max_bytes_in_flight must be positive and finite, got {}",
                self.reducer_max_bytes_in_flight
            ));
        }
        if let Some(elb) = &self.elb {
            if elb.threshold <= 0.0 || !elb.threshold.is_finite() {
                return Err(format!(
                    "elb.threshold must be positive and finite, got {}",
                    elb.threshold
                ));
            }
        }
        if let Some(plan) = &self.faults {
            plan.validate(workers)?;
        }
        if let Some(metrics) = &self.metrics {
            metrics.validate()?;
        }
        Ok(())
    }

    /// Render Table I the way the paper prints it. Only the first row is
    /// read by the engine; the other four are the paper's fixed values.
    pub fn table1(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "spark.reducer.maxMbInFlight",
                format!("{:.0}MB", self.reducer_max_bytes_in_flight / MB),
            ),
            ("spark.rdd.compress", "false".to_string()),
            ("spark.shuffle.compress", "true".to_string()),
            ("spark.buffer.size", "8MB".to_string()),
            (
                "spark.default.parallelism",
                "application dependent".to_string(),
            ),
        ]
    }
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    reason = "terse literal indexing is fine in tests"
)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let cfg = EngineConfig::default();
        let t = cfg.table1();
        assert_eq!(t[0].1, "1024MB");
        assert_eq!(t[1].1, "false");
        assert_eq!(t[2].1, "true");
        assert_eq!(t[3].1, "8MB");
        assert_eq!(t[4].1, "application dependent");
    }

    #[test]
    fn builders_compose() {
        let cfg = EngineConfig::default()
            .homogeneous()
            .with_elb()
            .with_cad()
            .with_delay_scheduling(SimDuration::from_secs(3));
        assert_eq!(cfg.speed_sigma, 0.0);
        assert!(cfg.elb.is_some());
        assert!(cfg.cad.is_some());
        assert!(matches!(cfg.scheduler, SchedulerKind::Delay { .. }));
        assert!((cfg.elb.unwrap().threshold - 1.25).abs() < 1e-12);
        assert_eq!(cfg.cad.unwrap().step, SimDuration::from_millis(50));
    }

    #[test]
    fn validate_accepts_defaults() {
        EngineConfig::default().validate(4).expect("defaults valid");
        // Zero jitter / zero sigma are legal (homogeneous clusters).
        EngineConfig::default().homogeneous().validate(1).unwrap();
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let err = |cfg: EngineConfig, workers: u32| -> String {
            cfg.validate(workers).expect_err("should be rejected")
        };
        assert!(err(EngineConfig::default(), 0).contains("zero worker"));
        let cfg = EngineConfig {
            input_replication: 5,
            ..EngineConfig::default()
        };
        assert!(err(cfg, 4).contains("input_replication"));
        let cfg = EngineConfig {
            input_replication: 0,
            ..EngineConfig::default()
        };
        assert!(err(cfg, 4).contains("input_replication"));
        let cfg = EngineConfig {
            task_jitter: -0.1,
            ..EngineConfig::default()
        };
        assert!(err(cfg, 4).contains("task_jitter"));
        let cfg = EngineConfig {
            task_jitter: 1.0,
            ..EngineConfig::default()
        };
        assert!(err(cfg, 4).contains("task_jitter"));
        let cfg = EngineConfig {
            speed_sigma: -1.0,
            ..EngineConfig::default()
        };
        assert!(err(cfg, 4).contains("speed_sigma"));
        let cfg = EngineConfig::default().with_executor_threads(0);
        assert!(err(cfg, 4).contains("executor_threads"));
        for threshold in [0.0, f64::NAN] {
            let cfg = EngineConfig {
                elb: Some(ElbConfig { threshold }),
                ..EngineConfig::default()
            };
            assert!(err(cfg, 4).contains("elb.threshold"));
        }
        // Fault plans are validated against the cluster size too.
        let plan = FaultPlan::new().after(
            SimDuration::from_secs(1),
            crate::faults::FaultKind::BlockLoss { node: 9 },
        );
        let cfg = EngineConfig::default().with_faults(plan);
        assert!(err(cfg, 4).contains("out of range"));
        let cfg = EngineConfig {
            metrics: Some(memres_metrics::MetricsConfig {
                interval: SimDuration::ZERO,
                ..memres_metrics::MetricsConfig::default()
            }),
            ..EngineConfig::default()
        };
        assert!(err(cfg, 4).contains("metrics.interval"));
    }

    #[test]
    fn metrics_builders_enable_the_sampler() {
        assert!(EngineConfig::default().metrics.is_none());
        let cfg = EngineConfig::default().with_metrics();
        assert!(cfg.metrics.is_some());
        cfg.validate(4).expect("default metrics config is valid");
    }
}
