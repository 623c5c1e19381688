//! Multi-tenant job streams (DESIGN.md §4.14).
//!
//! A [`StreamSpec`] describes a set of tenants, each submitting a stream of
//! jobs under a deterministic, seed-driven [`ArrivalProcess`]. Arrivals feed
//! a per-stream admission queue; admitted jobs become concurrently resident
//! in the world and compete for slots under an [`InterJobPolicy`] that sits
//! *above* the existing intra-job dispatch path (locality, delay scheduling,
//! ELB, CAD all still apply within each job).
//!
//! Everything here is a pure function of `(spec, seed)` — no wall clock, no
//! global RNG — so a stream replays byte-identically across executor thread
//! counts and event-queue implementations, like every other part of the
//! engine.

use crate::metrics::JobMetrics;
use crate::rdd::{Action, Rdd};
use crate::world::JobOutput;
use memres_des::splitmix64;
use memres_des::time::{SimDuration, SimTime};
use std::sync::Arc;

/// How a tenant's jobs arrive. Both processes are open loop: every arrival
/// is a pure function of `(seed, tenant, k)`, independent of job
/// completions, so load keeps coming even when the cluster falls behind.
#[derive(Clone, Debug)]
pub enum ArrivalProcess {
    /// Exponential inter-arrival gaps with the given mean, drawn from the
    /// stream seed (a Poisson arrival stream).
    OpenExp { mean_secs: f64 },
    /// A fixed inter-arrival period.
    Periodic { period_secs: f64 },
}

/// Uniform draw in [0,1) from (seed, tenant, k) — the same hash-to-unit
/// construction the task jitter uses, so arrival streams are pure functions
/// of the stream seed.
fn unit(seed: u64, tenant: u32, k: u32) -> f64 {
    let mut state = seed ^ ((tenant as u64) << 40) ^ ((k as u64) << 8);
    let h = splitmix64(&mut state);
    ((h >> 11) as f64) / ((1u64 << 53) as f64)
}

impl ArrivalProcess {
    /// Gap between arrival `k-1` (stream start for `k == 0`) and arrival `k`.
    pub fn open_gap(&self, seed: u64, tenant: u32, k: u32) -> SimDuration {
        match self {
            ArrivalProcess::OpenExp { mean_secs } => {
                let u = unit(seed, tenant, k).min(1.0 - 1e-12);
                SimDuration::from_secs_f64(-mean_secs * (1.0 - u).ln())
            }
            ArrivalProcess::Periodic { period_secs } => SimDuration::from_secs_f64(*period_secs),
        }
    }

    /// Offsets from stream start of a tenant's `jobs` arrivals (cumulative
    /// gaps), in arrival order: all of them are known when the stream starts.
    pub fn upfront_offsets(&self, seed: u64, tenant: u32, jobs: u32) -> Vec<SimDuration> {
        let gaps = (0..jobs).map(|k| self.open_gap(seed, tenant, k));
        gaps.scan(SimDuration::ZERO, |at, gap| {
            *at += gap;
            Some(*at)
        })
        .collect()
    }
}

/// Builds the `k`-th job a tenant submits. Each call must mint fresh RDDs
/// (fresh ids), so concurrent jobs get disjoint partition namespaces and a
/// tenant's output can be compared byte-for-byte against an isolated run.
pub type JobFactory = Arc<dyn Fn(u32) -> (Rdd, Action)>;

/// One tenant of a job stream.
#[derive(Clone)]
pub struct TenantSpec {
    pub name: String,
    /// Number of jobs this tenant submits over the stream.
    pub jobs: u32,
    pub arrival: ArrivalProcess,
    pub make: JobFactory,
}

impl TenantSpec {
    pub fn new(
        name: impl Into<String>,
        jobs: u32,
        arrival: ArrivalProcess,
        make: JobFactory,
    ) -> Self {
        TenantSpec {
            name: name.into(),
            jobs,
            arrival,
            make,
        }
    }
}

/// Inter-job scheduling policy: the order in which concurrently resident
/// jobs are offered a freed slot. Intra-job placement (locality preference,
/// delay scheduling, ELB, CAD) is unchanged below this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterJobPolicy {
    /// Strict admission order — the head-of-line job takes every slot it
    /// can use before later jobs see any.
    Fifo,
    /// Max-min fair share over running task slots: the job currently
    /// holding the fewest slots is offered the next one (ties broken by
    /// admission order).
    FairShare,
    /// Per-tenant slot guarantees: jobs of tenants running below their
    /// guarantee are served first; beyond the guarantees, max-min fair
    /// share applies. `guarantees[t]` is tenant `t`'s slot floor (missing
    /// entries mean 0).
    Capacity { guarantees: Vec<u32> },
}

/// A complete multi-tenant stream: tenants, the inter-job policy, an
/// optional cap on concurrently resident jobs (arrivals beyond it wait in
/// the admission queue), and the seed driving every arrival draw.
#[derive(Clone)]
pub struct StreamSpec {
    pub tenants: Vec<TenantSpec>,
    pub policy: InterJobPolicy,
    /// `None` = every arrival is admitted immediately.
    pub max_concurrent: Option<usize>,
    pub seed: u64,
}

impl StreamSpec {
    pub fn new(tenants: Vec<TenantSpec>, policy: InterJobPolicy, seed: u64) -> Self {
        StreamSpec {
            tenants,
            policy,
            max_concurrent: None,
            seed,
        }
    }

    pub fn with_max_concurrent(mut self, m: usize) -> Self {
        self.max_concurrent = Some(m);
        self
    }

    pub fn total_jobs(&self) -> u32 {
        self.tenants.iter().map(|t| t.jobs).sum()
    }
}

/// A completed (or aborted) stream job: result, metrics, and the lifecycle
/// instants the SLO rollups are computed from.
#[derive(Clone, Debug)]
pub struct FinishedJob {
    pub id: u32,
    pub tenant: u32,
    pub arrived: SimTime,
    pub admitted: SimTime,
    pub finished: SimTime,
    pub output: JobOutput,
    pub metrics: JobMetrics,
}

impl FinishedJob {
    /// Admission-queue wait: arrival → admission.
    pub fn queue_delay(&self) -> f64 {
        self.admitted.since(self.arrived).as_secs_f64()
    }

    /// End-to-end latency: arrival → completion.
    pub fn latency(&self) -> f64 {
        self.finished.since(self.arrived).as_secs_f64()
    }
}

/// Per-tenant SLO rollup over a finished stream (DESIGN.md §4.14): admission
/// queueing delay and end-to-end job-latency percentiles. Slowdown vs the
/// isolated single-job run is computed by callers that also ran the isolated
/// baseline (see `repro tenants`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantSlo {
    pub tenant: u32,
    pub jobs: u32,
    pub aborted: u32,
    pub mean_queue_delay: f64,
    pub mean_latency: f64,
    pub p50_latency: f64,
    pub p99_latency: f64,
}

impl TenantSlo {
    /// Roll the finished jobs of a stream up into one record per tenant
    /// (tenants with no finished jobs get an all-zero record).
    pub fn compute(jobs: &[FinishedJob], tenants: usize) -> Vec<TenantSlo> {
        let mut out: Vec<TenantSlo> = (0..tenants)
            .map(|t| TenantSlo {
                tenant: t as u32,
                ..TenantSlo::default()
            })
            .collect();
        for t in out.iter_mut() {
            let mine: Vec<&FinishedJob> = jobs.iter().filter(|j| j.tenant == t.tenant).collect();
            t.jobs = mine.len() as u32;
            t.aborted = mine.iter().filter(|j| j.output.aborted).count() as u32;
            if mine.is_empty() {
                continue;
            }
            t.mean_queue_delay =
                mine.iter().map(|j| j.queue_delay()).sum::<f64>() / mine.len() as f64;
            let lats: Vec<f64> = mine.iter().map(|j| j.latency()).collect();
            t.mean_latency = lats.iter().sum::<f64>() / lats.len() as f64;
            // Shared log-bucketed nearest-rank quantiles (DESIGN.md §4.16):
            // within 1/32 relative error of the exact order statistic, which
            // is far inside the run-to-run spread SLO rollups feed into.
            let hist = memres_des::stats::LogHistogram::from_values(&lats);
            t.p50_latency = hist.quantile(0.50);
            t.p99_latency = hist.quantile(0.99);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_exp_gaps_are_deterministic_and_positive() {
        let p = ArrivalProcess::OpenExp { mean_secs: 10.0 };
        for k in 0..64 {
            let a = p.open_gap(7, 0, k);
            let b = p.open_gap(7, 0, k);
            assert_eq!(a, b, "gap must be a pure function of (seed, tenant, k)");
            assert!(a >= SimDuration::ZERO);
        }
        // Different seeds / tenants decorrelate the streams.
        assert_ne!(p.open_gap(7, 0, 3), p.open_gap(8, 0, 3));
        assert_ne!(p.open_gap(7, 0, 3), p.open_gap(7, 1, 3));
        // The empirical mean lands near the configured one.
        let n = 4096;
        let sum: f64 = (0..n).map(|k| p.open_gap(7, 0, k).as_secs_f64()).sum();
        let mean = sum / n as f64;
        assert!((5.0..20.0).contains(&mean), "mean {mean} far from 10");
    }

    #[test]
    fn upfront_offsets_are_the_cumulative_gaps() {
        let secs = SimDuration::from_secs_f64;
        let periodic = ArrivalProcess::Periodic { period_secs: 2.0 };
        assert_eq!(
            periodic.upfront_offsets(1, 0, 3),
            [secs(2.0), secs(4.0), secs(6.0)]
        );
        let open = ArrivalProcess::OpenExp { mean_secs: 10.0 };
        let gap = |k| open.open_gap(7, 1, k);
        assert_eq!(
            open.upfront_offsets(7, 1, 3),
            [gap(0), gap(0) + gap(1), gap(0) + gap(1) + gap(2)]
        );
        // Nothing for a tenant with no jobs.
        assert!(periodic.upfront_offsets(1, 0, 0).is_empty());
    }

    #[test]
    fn slo_rollup_groups_by_tenant() {
        use crate::metrics::JobMetrics;
        let fj = |tenant: u32, arrived: f64, admitted: f64, finished: f64| FinishedJob {
            id: 0,
            tenant,
            arrived: SimTime::from_secs_f64(arrived),
            admitted: SimTime::from_secs_f64(admitted),
            finished: SimTime::from_secs_f64(finished),
            output: JobOutput {
                count: 0,
                records: None,
                reduced: None,
                aborted: false,
            },
            metrics: JobMetrics::default(),
        };
        let slo = TenantSlo::compute(
            &[
                fj(0, 0.0, 1.0, 5.0),
                fj(0, 2.0, 2.0, 12.0),
                fj(1, 0.0, 0.0, 3.0),
            ],
            2,
        );
        let [t0, t1] = slo.as_slice() else {
            panic!("expected exactly two tenant rollups, got {}", slo.len());
        };
        assert_eq!(t0.jobs, 2);
        assert!((t0.mean_queue_delay - 0.5).abs() < 1e-9);
        // Quantiles come from the shared log-bucketed histogram: nearest
        // rank within 1/16 relative error (bucket width) of exact.
        assert!((t0.p50_latency - 5.0).abs() / 5.0 < 1.0 / 16.0);
        assert!((t0.p99_latency - 10.0).abs() / 10.0 < 1.0 / 16.0);
        assert_eq!(t1.jobs, 1);
        assert!((t1.mean_latency - 3.0).abs() < 1e-9);
    }
}
