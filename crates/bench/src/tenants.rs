//! `repro tenants` — the paper's questions re-asked under contention
//! (DESIGN.md §4.14).
//!
//! The single-job evaluation characterizes each optimization in isolation;
//! a long-lived resident engine serves a *stream* of jobs from several
//! tenants at once. These cells run two-tenant streams under a seeded
//! arrival process and report per-tenant SLOs (queueing delay, p50/p99
//! latency, slowdown vs the isolated run), then revisit two paper results:
//!
//! - **ELB under interleaving** — does shuffle-side load balancing still
//!   pay off for the shuffle-heavy tenant when a scan tenant competes for
//!   the same slots?
//! - **CAD and starvation** — CAD throttles the storing phase of the
//!   shuffle-heavy tenant; does the backpressure starve the other tenant
//!   (visible as inflated p99 / queueing delay) or free slots for it?
//!
//! Arrival rates are calibrated from the isolated run so the streams
//! genuinely overlap at every `--scale`: tenant A submits every quarter of an
//! isolated job time, tenant B with exponential gaps at 30% of it.

use crate::claims::paper;
use crate::{improvement_pct, ratio, Table};
use memres_cluster::ClusterSpec;
use memres_core::prelude::*;
use memres_core::{
    ArrivalProcess, FinishedJob, InterJobPolicy, JobFactory, StreamSpec, TenantSlo, TenantSpec,
};
use memres_workloads::cells::{Setup, SSD};
use memres_workloads::{Grep, GroupBy};

/// Jobs per tenant in each stream cell.
const JOBS: u32 = 2;

/// Tenant A: shuffle-heavy GroupBy at the sizes where Fig 13/14 show ELB
/// and CAD effects; `k` varies the input so jobs in the stream differ.
fn groupby_tenant(setup: Setup) -> JobFactory {
    std::sync::Arc::new(move |k| {
        let gb = GroupBy::new(setup.bytes(700.0 + 100.0 * k as f64));
        (gb.build(), gb.action())
    })
}

/// Tenant B: scan-dominated Grep — narrow, latency-sensitive, and the
/// natural victim if the inter-job scheduler lets tenant A hog slots.
fn grep_tenant(setup: Setup) -> JobFactory {
    std::sync::Arc::new(move |k| {
        let g = Grep::new(setup.bytes(64.0 + 16.0 * k as f64));
        (g.build(), g.action())
    })
}

/// What every table of the target shares: the cluster, the two tenants,
/// the base configuration (Lustre input, SSD shuffle store — where ELB and
/// CAD matter, Fig 13/14) and the isolated calibration under it.
struct Mix {
    spec: ClusterSpec,
    cfg: EngineConfig,
    tenants: [JobFactory; 2],
    /// Mean isolated job time per tenant under `cfg` — the slowdown
    /// denominator, and what the arrival rates are calibrated from. Taken
    /// once, so every stream sees identical arrival instants.
    iso: Vec<f64>,
    seed: u64,
}

impl Mix {
    fn new(setup: Setup) -> Mix {
        let spec = setup.cluster();
        let cfg = setup.cell_cfg(SSD);
        let tenants = [groupby_tenant(setup), grep_tenant(setup)];
        let iso = tenants
            .iter()
            .map(|make| {
                let mut sum = 0.0;
                for k in 0..JOBS {
                    let (rdd, action) = make(k);
                    let mut d = Driver::new(spec.clone(), cfg.clone());
                    sum += d.run_for_metrics(&rdd, action).job_time();
                }
                sum / JOBS as f64
            })
            .collect();
        Mix {
            spec,
            cfg,
            tenants,
            iso,
            seed: setup.seed,
        }
    }

    /// Run one two-tenant stream under `cfg`; arrivals outpace the isolated
    /// job time so residency overlaps regardless of `--scale`.
    fn stream(
        &self,
        cfg: &EngineConfig,
        policy: InterJobPolicy,
        cap: Option<usize>,
    ) -> Vec<FinishedJob> {
        // Both tenants are calibrated against the LONG tenant's isolated time:
        // grep jobs must land inside groupby's execution window, or the mix
        // never contends and every cell degenerates to back-to-back jobs.
        let ts = vec![
            TenantSpec::new(
                "groupby",
                JOBS,
                ArrivalProcess::Periodic {
                    period_secs: (self.iso[0] * 0.25).max(1e-3),
                },
                self.tenants[0].clone(),
            ),
            TenantSpec::new(
                "grep",
                JOBS,
                ArrivalProcess::OpenExp {
                    mean_secs: (self.iso[0] * 0.3).max(1e-3),
                },
                self.tenants[1].clone(),
            ),
        ];
        let mut stream = StreamSpec::new(ts, policy, self.seed);
        if let Some(m) = cap {
            stream = stream.with_max_concurrent(m);
        }
        let mut d = Driver::new(self.spec.clone(), cfg.clone());
        d.run_stream(stream)
    }
}

/// Fraction of jobs whose execution window overlapped another resident job.
fn overlap_fraction(jobs: &[FinishedJob]) -> f64 {
    let overlapping = jobs
        .iter()
        .filter(|a| {
            jobs.iter()
                .any(|b| b.id != a.id && b.admitted < a.finished && a.admitted < b.finished)
        })
        .count();
    ratio(overlapping as f64, jobs.len() as f64)
}

/// One row per tenant of `jobs`' SLOs, which it also returns.
fn slo_rows(t: &mut Table, prefix: &str, jobs: &[FinishedJob], iso: &[f64]) -> Vec<TenantSlo> {
    let slo = TenantSlo::compute(jobs, iso.len());
    for (name, s) in ["groupby", "grep"].iter().zip(&slo) {
        t.row(
            format!("{prefix}/{name}"),
            vec![
                s.jobs as f64,
                s.mean_queue_delay,
                s.p50_latency,
                s.p99_latency,
                ratio(s.mean_latency, iso[s.tenant as usize]),
                s.aborted as f64,
            ],
        );
    }
    slo
}

const SLO_COLUMNS: [&str; 6] = [
    "jobs",
    "mean-qdelay-s",
    "p50-lat-s",
    "p99-lat-s",
    "slowdown",
    "aborted_jobs",
];

/// The three `repro tenants` tables, from one calibration: per-tenant SLOs
/// under each inter-job policy, then ELB and CAD off vs on against one
/// shared FairShare baseline stream.
pub fn tables(setup: Setup) -> Vec<Table> {
    let mix = Mix::new(setup);
    let baseline = mix.stream(&mix.cfg, InterJobPolicy::FairShare, None);
    // Stream the same mix with one optimization off (the baseline) and on;
    // `note` reads the verdict off the two streams' SLOs.
    let on_off = |id: &'static str,
                  title: &str,
                  label: &str,
                  cfg: EngineConfig,
                  note: fn(&[TenantSlo], &[TenantSlo]) -> String| {
        let mut t = Table::new(id, title, &SLO_COLUMNS);
        let on = mix.stream(&cfg, InterJobPolicy::FairShare, None);
        let off = slo_rows(&mut t, "spark", &baseline, &mix.iso);
        let on = slo_rows(&mut t, label, &on, &mix.iso);
        t.note(note(&off, &on));
        t
    };
    vec![
        policies(&mix),
        // Does ELB still help the shuffle-heavy tenant when tenants
        // interleave? The isolated Fig 13 improvement is the reference.
        on_off(
            "tenants_elb",
            "ELB under tenant interleaving: per-tenant SLOs, ELB off vs on",
            "elb",
            mix.cfg.clone().with_elb(),
            |off, on| {
                format!(
                    "ELB changes the shuffle-heavy tenant's mean latency by {:.1}% under \
                     interleaving (Fig 13a isolated reference: ~{}%)",
                    improvement_pct(off[0].mean_latency, on[0].mean_latency),
                    paper("fig13a.elb-gain")
                )
            },
        ),
        // Does CAD on one tenant starve the other? CAD throttles tenant A's
        // storing phase; the grep tenant's p99 and queueing delay say whether
        // the freed device bandwidth helps it or the backpressure holds its
        // slots.
        on_off(
            "tenants_cad",
            "CAD under tenant interleaving: per-tenant SLOs, CAD off vs on",
            "cad",
            mix.cfg.clone().with_cad(),
            |off, on| {
                let p99_delta = improvement_pct(off[1].p99_latency, on[1].p99_latency);
                let (qd_off, qd_on) = (off[1].mean_queue_delay, on[1].mean_queue_delay);
                if p99_delta >= -5.0 {
                    format!(
                        "no starvation: CAD moves the grep tenant's p99 by {p99_delta:.1}% \
                         (queueing delay {qd_off:.2}s -> {qd_on:.2}s)"
                    )
                } else {
                    format!(
                        "starvation signal: CAD inflates the grep tenant's p99 by {:.1}% \
                         (queueing delay {qd_off:.2}s -> {qd_on:.2}s)",
                        -p99_delta
                    )
                }
            },
        ),
    ]
}

/// Main `repro tenants` table: per-tenant SLOs under each inter-job policy.
fn policies(mix: &Mix) -> Table {
    let mut t = Table::new(
        "tenants",
        "Two-tenant stream: per-tenant SLOs by inter-job policy",
        &SLO_COLUMNS,
    );
    let mut overlaps = Vec::new();
    for (label, policy) in [
        ("fifo", InterJobPolicy::Fifo),
        ("fair", InterJobPolicy::FairShare),
        (
            "capacity",
            InterJobPolicy::Capacity {
                guarantees: vec![1, 1],
            },
        ),
    ] {
        // Cap residency at the tenant count: both tenants can hold a job,
        // and a tenant's next arrival queues behind its running one — the
        // queueing-delay column measures real admission waits.
        let jobs = mix.stream(&mix.cfg, policy, Some(2));
        overlaps.push(overlap_fraction(&jobs));
        slo_rows(&mut t, label, &jobs, &mix.iso);
    }
    t.note(format!(
        "{:.0}% of jobs overlapped another resident job (arrivals calibrated \
         to 0.25x/0.3x the long tenant's isolated job time; residency capped at 2)",
        overlaps.iter().sum::<f64>() / overlaps.len() as f64 * 100.0
    ));
    t.note(format!(
        "isolated means: groupby {:.1}s, grep {:.1}s (slowdown denominator)",
        mix.iso[0], mix.iso[1]
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_report_all_slos_overlap_and_keep_both_tenants_running() {
        let tables = tables(Setup::smoke());
        let [t, on_off @ ..] = tables.as_slice() else {
            panic!("no tables");
        };
        // 3 policies x 2 tenants.
        assert_eq!(t.rows.len(), 6);
        assert_eq!(t.column("jobs"), vec![JOBS as f64; 6]);
        assert_eq!(t.column("aborted_jobs"), vec![0.0; 6]);
        for v in t.column("slowdown") {
            assert!(v > 0.95, "contended stream should not beat isolated: {v}");
        }
        for (p50, p99) in t.column("p50-lat-s").iter().zip(t.column("p99-lat-s")) {
            assert!(*p50 <= p99 + 1e-12);
        }
        // The calibrated arrival process must actually interleave.
        let overlap_note = &t.notes[0];
        assert!(
            !overlap_note.starts_with("0%"),
            "streams did not overlap: {overlap_note}"
        );
        assert_eq!(on_off.len(), 2);
        for t in on_off {
            assert_eq!(t.rows.len(), 4, "{}", t.id);
            assert_eq!(t.column("aborted_jobs"), vec![0.0; 4], "{}", t.id);
            assert!(t.column("p99-lat-s").iter().all(|&v| v > 0.0), "{}", t.id);
        }
    }
}
