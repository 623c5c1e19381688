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

/// Shared store/input shape: Lustre input, SSD shuffle store — the
/// configuration where ELB and CAD matter (Fig 13/14).
fn base_cfg(setup: Setup) -> EngineConfig {
    setup.cell_cfg(SSD)
}

/// Mean isolated job time per tenant under `cfg` — the slowdown
/// denominator, and what the arrival rates are calibrated from.
fn isolated_means(spec: &ClusterSpec, cfg: &EngineConfig, tenants: &[JobFactory]) -> Vec<f64> {
    tenants
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
        .collect()
}

/// Run one two-tenant stream; arrivals outpace the isolated job time so
/// residency overlaps regardless of `--scale`.
fn run_stream(
    spec: &ClusterSpec,
    cfg: &EngineConfig,
    tenants: &[JobFactory],
    iso: &[f64],
    policy: InterJobPolicy,
    seed: u64,
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
                period_secs: (iso[0] * 0.25).max(1e-3),
            },
            tenants[0].clone(),
        ),
        TenantSpec::new(
            "grep",
            JOBS,
            ArrivalProcess::OpenExp {
                mean_secs: (iso[0] * 0.3).max(1e-3),
            },
            tenants[1].clone(),
        ),
    ];
    let mut stream = StreamSpec::new(ts, policy, seed);
    if let Some(m) = cap {
        stream = stream.with_max_concurrent(m);
    }
    let mut d = Driver::new(spec.clone(), cfg.clone());
    d.run_stream(stream)
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

fn slo_rows(t: &mut Table, prefix: &str, jobs: &[FinishedJob], iso: &[f64]) {
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
}

const SLO_COLUMNS: [&str; 6] = [
    "jobs",
    "mean-qdelay-s",
    "p50-lat-s",
    "p99-lat-s",
    "slowdown",
    "aborted_jobs",
];

/// Main `repro tenants` table: per-tenant SLOs under each inter-job policy.
pub fn policies(setup: Setup) -> Table {
    let mut t = Table::new(
        "tenants",
        "Two-tenant stream: per-tenant SLOs by inter-job policy",
        &SLO_COLUMNS,
    );
    let spec = setup.cluster();
    let cfg = base_cfg(setup);
    let tenants = [groupby_tenant(setup), grep_tenant(setup)];
    let iso = isolated_means(&spec, &cfg, &tenants);
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
        let jobs = run_stream(&spec, &cfg, &tenants, &iso, policy, setup.seed, Some(2));
        overlaps.push(overlap_fraction(&jobs));
        slo_rows(&mut t, label, &jobs, &iso);
    }
    t.note(format!(
        "{:.0}% of jobs overlapped another resident job (arrivals calibrated \
         to 0.25x/0.3x the long tenant's isolated job time; residency capped at 2)",
        overlaps.iter().sum::<f64>() / overlaps.len() as f64 * 100.0
    ));
    t.note(format!(
        "isolated means: groupby {:.1}s, grep {:.1}s (slowdown denominator)",
        iso[0], iso[1]
    ));
    t
}

/// Does ELB still help when tenants interleave? Stream the same two-tenant
/// mix with ELB off/on and compare the shuffle-heavy tenant's latency; the
/// isolated Fig 13 improvement is the reference point.
pub fn elb_interleaved(setup: Setup) -> Table {
    let mut t = Table::new(
        "tenants_elb",
        "ELB under tenant interleaving: per-tenant SLOs, ELB off vs on",
        &SLO_COLUMNS,
    );
    let spec = setup.cluster();
    let tenants = [groupby_tenant(setup), grep_tenant(setup)];
    let base = base_cfg(setup);
    // Calibrate arrivals once, from the non-ELB isolated runs, so both
    // streams see identical arrival instants and differ only in ELB.
    let iso = isolated_means(&spec, &base, &tenants);
    let mut mean_gb = Vec::new();
    for (label, cfg) in [("spark", base.clone()), ("elb", base.with_elb())] {
        let jobs = run_stream(
            &spec,
            &cfg,
            &tenants,
            &iso,
            InterJobPolicy::FairShare,
            setup.seed,
            None,
        );
        let slo = TenantSlo::compute(&jobs, 2);
        mean_gb.push(slo[0].mean_latency);
        slo_rows(&mut t, label, &jobs, &iso);
    }
    t.note(format!(
        "ELB changes the shuffle-heavy tenant's mean latency by {:.1}% under \
         interleaving (Fig 13a isolated reference: ~26%)",
        improvement_pct(mean_gb[0], mean_gb[1])
    ));
    t
}

/// Does CAD on one tenant starve the other? CAD throttles tenant A's
/// storing phase; the grep tenant's p99 and queueing delay say whether the
/// freed device bandwidth helps it or the backpressure holds its slots.
pub fn cad_starvation(setup: Setup) -> Table {
    let mut t = Table::new(
        "tenants_cad",
        "CAD under tenant interleaving: per-tenant SLOs, CAD off vs on",
        &SLO_COLUMNS,
    );
    let spec = setup.cluster();
    let tenants = [groupby_tenant(setup), grep_tenant(setup)];
    let base = base_cfg(setup);
    let iso = isolated_means(&spec, &base, &tenants);
    let mut grep_p99 = Vec::new();
    let mut grep_qd = Vec::new();
    for (label, cfg) in [("spark", base.clone()), ("cad", base.with_cad())] {
        let jobs = run_stream(
            &spec,
            &cfg,
            &tenants,
            &iso,
            InterJobPolicy::FairShare,
            setup.seed,
            None,
        );
        let slo = TenantSlo::compute(&jobs, 2);
        grep_p99.push(slo[1].p99_latency);
        grep_qd.push(slo[1].mean_queue_delay);
        slo_rows(&mut t, label, &jobs, &iso);
    }
    let p99_delta = improvement_pct(grep_p99[0], grep_p99[1]);
    t.note(if p99_delta >= -5.0 {
        format!(
            "no starvation: CAD moves the grep tenant's p99 by {p99_delta:.1}% \
             (queueing delay {:.2}s -> {:.2}s)",
            grep_qd[0], grep_qd[1]
        )
    } else {
        format!(
            "starvation signal: CAD inflates the grep tenant's p99 by {:.1}% \
             (queueing delay {:.2}s -> {:.2}s)",
            -p99_delta, grep_qd[0], grep_qd[1]
        )
    });
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_cell_reports_all_slos_and_overlaps() {
        let t = policies(Setup::smoke());
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
    }

    #[test]
    fn elb_and_cad_cells_keep_both_tenants_running() {
        for t in [
            elb_interleaved(Setup::smoke()),
            cad_starvation(Setup::smoke()),
        ] {
            assert_eq!(t.rows.len(), 4, "{}", t.id);
            assert_eq!(t.column("aborted_jobs"), vec![0.0; 4], "{}", t.id);
            assert!(t.column("p99-lat-s").iter().all(|&v| v > 0.0), "{}", t.id);
        }
    }
}
