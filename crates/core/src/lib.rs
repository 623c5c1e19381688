//! # memres-core — the memory-resident MapReduce engine
//!
//! A working reproduction of the Spark-0.7-era engine the paper
//! characterizes: an [`rdd::Rdd`] lineage API over a dynamic record
//! model, a DAG scheduler that splits pipelined stages at shuffles, a block
//! manager for memory-resident caching, pluggable task scheduling (FIFO /
//! delay scheduling / ELB) and shuffle strategies (local store /
//! Lustre-local / Lustre-shared), plus the paper's two optimizations:
//! the **Enhanced Load Balancer** and **Congestion-Aware Dispatching**.
//!
//! Jobs execute inside a deterministic discrete-event simulation of an HPC
//! cluster (see the substrate crates); user-defined functions run for real
//! when datasets are materialized, so the engine is correctness-testable at
//! laptop scale and shape-faithful at the paper's TB scale.
//!
//! Quick start:
//!
//! ```
//! use memres_core::prelude::*;
//!
//! let spec = memres_cluster::tiny(4);
//! let cfg = EngineConfig::default().homogeneous();
//! let mut driver = Driver::new(spec, cfg);
//!
//! let data: Vec<Record> = (0..100)
//!     .map(|i| (Value::I64(i % 10), Value::I64(i)))
//!     .collect();
//! let rdd = Rdd::source(Dataset::from_records(data, 8));
//! let counts = rdd.group_by_key(Some(4), 1e9);
//! let (out, metrics) = driver.run(&counts, Action::Count);
//! assert_eq!(out.count, 10); // ten distinct keys
//! assert!(metrics.job_time() > 0.0);
//! ```

pub mod blockmgr;
mod candidates;
pub mod config;
pub mod dag;
pub mod driver;
mod executor;
pub mod faults;
pub mod metrics;
pub mod rdd;
pub mod tenancy;
pub mod value;
pub mod world;

pub use config::{
    CadConfig, Defect, ElbConfig, EngineConfig, InputSource, SchedulerKind, ShuffleStore,
    StoreDevice,
};
pub use driver::Driver;
pub use faults::{FaultEvent, FaultKind, FaultPlan, RecoveryConfig};
pub use metrics::{JobMetrics, Phase, RecoveryCounters, TaskLocality, TaskMetric};
pub use rdd::{Action, Dataset, Rdd, RddId, SizeModel};
pub use tenancy::{
    ArrivalProcess, FinishedJob, InterJobPolicy, JobFactory, StreamSpec, TenantSlo, TenantSpec,
};
pub use value::{Record, Value};
pub use world::{JobOutput, SimWorld};

// Re-exported so applications read a trace without naming the trace crate
// directly.
pub use memres_trace::{TimedEvent, TraceEvent};

/// Everything a typical application needs.
pub mod prelude {
    pub use crate::config::{EngineConfig, InputSource, SchedulerKind, ShuffleStore, StoreDevice};
    pub use crate::driver::Driver;
    pub use crate::faults::{FaultKind, FaultPlan, RecoveryConfig};
    pub use crate::metrics::{JobMetrics, Phase};
    pub use crate::rdd::{Action, Dataset, Rdd, SizeModel};
    pub use crate::value::{Record, Value};
    pub use crate::world::JobOutput;
}
