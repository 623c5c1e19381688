//! `repro report <cell>` / `repro diff <a> <b>`: run one benchmark cell
//! with the time-series metrics plane on, and export the sampled telemetry
//! as OpenMetrics text, a long-format `timeseries.csv`, a self-contained
//! HTML dashboard, and a `bucket,seconds` attribution CSV; then join two
//! such exports into a ranked regression report with per-layer attribution
//! (DESIGN.md §4.16).
//!
//! All report bytes are built here as strings; writing them to disk is the
//! `repro` binary's job — the workspace's designated I/O seam.

use memres_core::prelude::*;
use memres_des::time::SimDuration;
use memres_metrics::export;
use memres_trace::analyze::attribute;
use memres_workloads::cells::{self, Setup};
use std::fmt::Write as _;

/// One metered run of a benchmark cell: the four export artifacts plus the
/// cross-check scalars.
pub struct ReportRun {
    pub cell: String,
    /// OpenMetrics text exposition (ends in `# EOF`).
    pub openmetrics: String,
    /// Long-format `series,instance,t_s,value` CSV.
    pub timeseries_csv: String,
    /// Self-contained dashboard with inline SVG sparklines.
    pub dashboard_html: String,
    /// `bucket,seconds` critical-path attribution (includes a `job` row).
    pub attrib_csv: String,
    /// Simulated job time in seconds (from metrics, for cross-checking).
    pub job_s: f64,
    /// Sampler ticks taken over the run.
    pub ticks: u64,
}

/// Run `cell` with the periodic sampler and full tracing; `None` when the
/// name is not a known cell. `slow_ssd` injects an [`FaultKind::SsdDegrade`]
/// on every worker one simulated second in — the known-regression fixture
/// the `repro diff` acceptance check flags (storage-layer attribution).
pub fn run_cell(setup: Setup, cell: &str, slow_ssd: Option<f64>) -> Option<ReportRun> {
    let (spec, cfg, gb) = cells::find(cell)?.resolve(setup);
    let mut cfg = cfg.with_metrics().with_trace();
    if let Some(factor) = slow_ssd {
        let mut plan = FaultPlan::new();
        for node in 0..spec.workers {
            plan = plan.after(
                SimDuration::from_secs(1),
                FaultKind::SsdDegrade { node, factor },
            );
        }
        cfg = cfg.with_faults(plan);
    }
    let mut d = Driver::new(spec, cfg);
    let m = d.run_for_metrics(&gb.build(), gb.action());
    let events = d.take_trace();
    let attribution = attribute(&events);
    #[expect(clippy::expect_used, reason = "enabled two lines up")]
    let rec = d.recorder().expect("with_metrics() was set above");
    let attrib_pairs: Vec<(String, f64)> = attribution
        .buckets()
        .iter()
        .map(|(name, dur)| (name.to_string(), dur.as_secs_f64()))
        .collect();
    let mut attrib_csv = String::from("bucket,seconds\n");
    let _ = writeln!(attrib_csv, "job,{}", attribution.job.as_secs_f64());
    for (name, secs) in &attrib_pairs {
        let _ = writeln!(attrib_csv, "{name},{secs}");
    }
    let title = format!("memres report: {cell}");
    Some(ReportRun {
        cell: cell.to_string(),
        openmetrics: export::openmetrics(rec),
        timeseries_csv: export::timeseries_csv(rec),
        dashboard_html: export::dashboard_html(&title, rec, &attrib_pairs),
        attrib_csv,
        job_s: m.job_time(),
        ticks: rec.ticks(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memres_metrics::diff::diff_runs;

    #[test]
    fn unknown_cell_is_rejected() {
        assert!(run_cell(Setup::smoke(), "not_a_cell", None).is_none());
    }

    #[test]
    fn report_artifacts_are_structurally_sane() {
        let run = run_cell(Setup::smoke(), "fig7a_400gb_ramdisk", None).expect("known cell");
        assert!(run.ticks > 0, "sampler never fired");
        assert!(run.openmetrics.ends_with("# EOF\n"));
        assert!(run.openmetrics.contains("memres_core_busy_slots"));
        assert!(run
            .timeseries_csv
            .starts_with("series,instance,t_s,value\n"));
        assert!(run.dashboard_html.contains("fig7a_400gb_ramdisk"));
        assert!(run.dashboard_html.contains("<svg"));
        assert!(run.attrib_csv.starts_with("bucket,seconds\njob,"));
        assert!(run.attrib_csv.contains("\ncompute,"));
        assert!(run.job_s > 0.0);
    }

    #[test]
    fn self_diff_is_clean() {
        // A run diffed against itself: zero regressions, zero moved series.
        let run = run_cell(Setup::smoke(), "fig7a_400gb_ramdisk", None).expect("known cell");
        let d = diff_runs(
            "a",
            &run.timeseries_csv,
            &run.attrib_csv,
            "b",
            &run.timeseries_csv,
            &run.attrib_csv,
            0.05,
        );
        assert!(!d.regressed());
        assert!(d.series.iter().all(|s| s.first_divergence_s.is_none()));
        assert!(d.render().contains("verdict: ok"));
    }

    #[test]
    fn injected_ssd_degrade_is_flagged_with_storage_attribution() {
        // The acceptance fixture: slow every SSD 4x mid-run; the diff must
        // exit REGRESSED and the dominant attribution mover must land on
        // the storage layer (store or gc-stall bucket).
        let base = run_cell(Setup::smoke(), "fig8a_600gb_ssd", None).expect("known cell");
        let slow = run_cell(Setup::smoke(), "fig8a_600gb_ssd", Some(0.25)).expect("known cell");
        assert!(
            slow.job_s > base.job_s * 1.05,
            "degraded run must be measurably slower ({} vs {})",
            slow.job_s,
            base.job_s
        );
        let d = diff_runs(
            "base",
            &base.timeseries_csv,
            &base.attrib_csv,
            "slow-ssd",
            &slow.timeseries_csv,
            &slow.attrib_csv,
            0.05,
        );
        assert!(d.regressed(), "injected slowdown must be flagged");
        let dom = d.dominant_bucket().expect("some bucket must have grown");
        assert_eq!(dom.layer, "storage", "dominant mover: {}", dom.bucket);
        let text = d.render();
        assert!(text.contains("verdict: REGRESSED"));
        assert!(text.contains("layer storage"));
    }
}
