//! `repro trace | explain | report <cell>`: run one benchmark cell once with
//! the event tracer and the sim-time metrics sampler both on, and render
//! every artifact of that one run (DESIGN.md §4.11, §4.16):
//! - the critical-path attribution table plus the top straggler attempts
//!   (`explain`, also printed by `trace`);
//! - Perfetto-loadable timelines, `trace.json` and `events.jsonl` (`trace`);
//! - the sampled telemetry as OpenMetrics text, a long-format
//!   `timeseries.csv`, a self-contained HTML dashboard and a
//!   `bucket,seconds` attribution CSV (`report`; `repro diff` joins two).
//!
//! The sampler does not move the trace: the same cell gives the same event
//! log with it on or off (`core/tests/determinism.rs`), so one run serves
//! every command. The cells are the rows of `memres_workloads::cells::CELLS`,
//! resolved as the timed runs resolve them. All bytes are built here as
//! strings; writing them to disk is the `repro` binary's job — the
//! workspace's designated I/O seam.

use memres_core::prelude::*;
use memres_des::time::SimDuration;
use memres_metrics::{export as metrics_export, Recorder};
use memres_trace::analyze::{attribute, stragglers, Attribution};
use memres_trace::{export, TimedEvent};
use memres_workloads::cells::{self, Setup};
use std::fmt::Write as _;

/// One traced, sampled run of a benchmark cell.
pub struct Observed {
    cell: String,
    /// Full event log in emission order.
    pub events: Vec<TimedEvent>,
    /// Exact integer-nanosecond job-time attribution.
    attribution: Attribution,
    /// Simulated job time in seconds (from metrics, for cross-checking).
    job_s: f64,
    /// The sampled time series.
    rec: Recorder,
}

/// Run `cell` with full tracing and the periodic sampler under `faults`;
/// `None` when the name is not a known cell.
pub fn run_cell(setup: Setup, cell: &str, faults: FaultPlan) -> Option<Observed> {
    let (spec, cfg, gb) = cells::find(cell)?.resolve(setup);
    let cfg = cfg.with_faults(faults).with_metrics().with_trace();
    let mut d = Driver::new(spec, cfg);
    let (out, m) = d.run(&gb.build(), gb.action());
    assert!(!out.aborted, "{cell} aborted");
    let events = d.take_trace();
    let attribution = attribute(&events);
    // The analyzer's contract: buckets partition the job window exactly.
    assert_eq!(
        attribution.sum(),
        attribution.job,
        "attribution buckets must sum to the job time"
    );
    #[expect(clippy::expect_used, reason = "enabled with with_metrics() above")]
    let rec = d.recorder().expect("the sampler is on").clone();
    Some(Observed {
        cell: cell.to_string(),
        events,
        attribution,
        job_s: m.job_time(),
        rec,
    })
}

/// The known-regression fixture of `repro --slow-ssd F`: every worker of
/// `cell`'s cluster degrades its SSD to `factor` of its speed
/// ([`FaultKind::SsdDegrade`]) one simulated second in. `repro diff` flags
/// it and attributes it to the storage layer. `None` for an unknown cell.
pub fn slow_ssd(setup: Setup, cell: &str, factor: f64) -> Option<FaultPlan> {
    let workers = cells::find(cell)?.resolve(setup).0.workers;
    let degrade = |node| FaultKind::SsdDegrade { node, factor };
    let at = SimDuration::from_secs(1);
    Some((0..workers).fold(FaultPlan::new(), |plan, n| plan.after(at, degrade(n))))
}

impl Observed {
    /// What `repro <cmd> <cell>` prints (without the final newline), and
    /// the files it writes with `--json DIR`: `(suffix, bytes)` each, into
    /// `DIR/<cell>.<suffix>`.
    pub fn command(&self, cmd: &str) -> (String, Vec<(&'static str, String)>) {
        if cmd == "report" {
            let (att, rec) = (&self.attribution, &self.rec);
            let secs = |(name, dur): &(&str, SimDuration)| (name.to_string(), dur.as_secs_f64());
            let buckets: Vec<(String, f64)> = att.buckets().iter().map(secs).collect();
            let mut attrib_csv = format!("bucket,seconds\njob,{}\n", att.job.as_secs_f64());
            for (name, secs) in &buckets {
                let _ = writeln!(attrib_csv, "{name},{secs}");
            }
            let title = format!("memres report: {}", self.cell);
            let html = metrics_export::dashboard_html(&title, rec, &buckets);
            let line = format!(
                "report {}: {} sampler ticks over {:.3}s simulated job time",
                self.cell,
                rec.ticks(),
                self.job_s
            );
            let files = vec![
                ("openmetrics", metrics_export::openmetrics(rec)),
                ("timeseries.csv", metrics_export::timeseries_csv(rec)),
                ("dashboard.html", html),
                ("attrib.csv", attrib_csv),
            ];
            return (line, files);
        }
        let files = if cmd == "trace" {
            // `trace.json` is Chrome trace-event form: load it in Perfetto.
            vec![
                ("trace.json", export::chrome_trace_json(&self.events)),
                ("events.jsonl", export::events_jsonl(&self.events)),
            ]
        } else {
            Vec::new()
        };
        (self.explain(), files)
    }

    /// Human-readable attribution table plus the top five straggler
    /// attempts.
    fn explain(&self) -> String {
        let att = &self.attribution;
        let share = |dur: SimDuration| {
            if att.job > SimDuration::ZERO {
                dur.as_nanos() as f64 / att.job.as_nanos() as f64 * 100.0
            } else {
                0.0
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "== explain {} ==", self.cell);
        let _ = writeln!(
            out,
            "job time {:.3}s  ({} trace events)",
            att.job.as_secs_f64(),
            self.events.len()
        );
        let _ = writeln!(out, "{:>12} {:>12} {:>8}", "bucket", "seconds", "share");
        for (name, dur) in att.buckets() {
            let (secs, pct) = (dur.as_secs_f64(), share(dur));
            let _ = writeln!(out, "{name:>12} {secs:>12.3} {pct:>7.1}%");
        }
        let _ = writeln!(
            out,
            "{:>12} {:>12.3} {:>7.1}%  (buckets partition the job window exactly)",
            "sum",
            att.sum().as_secs_f64(),
            share(att.job)
        );
        let top = stragglers(&self.events, 5);
        if !top.is_empty() {
            let _ = writeln!(out, "top {} straggler attempts:", top.len());
            for a in &top {
                let _ = writeln!(
                    out,
                    "  task {:>5} attempt {} ({:>7}) on node {:>3}: {:.3}s  [start {:.3}s]",
                    a.task,
                    a.attempt,
                    a.class.name(),
                    a.node,
                    a.dur().as_secs_f64(),
                    a.start.as_secs_f64()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memres_metrics::diff::diff_runs;

    fn smoke(cell: &str, faults: FaultPlan) -> Observed {
        run_cell(Setup::smoke(), cell, faults).expect("known cell")
    }

    /// The files `cmd` writes, by suffix.
    fn file(run: &Observed, cmd: &str, suffix: &str) -> String {
        let (_, files) = run.command(cmd);
        let found = files
            .into_iter()
            .find_map(|(s, b)| (s == suffix).then_some(b));
        found.unwrap_or_else(|| panic!("{cmd} writes no {suffix}"))
    }

    #[test]
    fn unknown_cell_is_rejected() {
        assert!(run_cell(Setup::smoke(), "not_a_cell", FaultPlan::new()).is_none());
        assert!(slow_ssd(Setup::smoke(), "not_a_cell", 0.5).is_none());
    }

    #[test]
    fn every_cell_attributes_exactly() {
        // The acceptance bar: on every cell, the attribution buckets sum to
        // the job time (exactly, in integer nanoseconds — stronger than the
        // 1e-6-seconds requirement). `run_cell` itself asserts the equality;
        // this drives it through the five paper cells at smoke scale.
        let paper = |c: &&cells::Cell| matches!(c.size, cells::Size::Paper { .. });
        for name in cells::CELLS.iter().filter(paper).map(|c| c.name) {
            let run = smoke(name, FaultPlan::new());
            assert!(
                run.attribution.job > SimDuration::ZERO,
                "{name} job window empty"
            );
            assert!(!run.events.is_empty(), "{name} produced no events");
        }
    }

    #[test]
    fn one_run_renders_every_artifact() {
        let run = smoke("fig7a_400gb_ramdisk", FaultPlan::new());
        assert!(!run.events.is_empty(), "tracing must record events");
        let att = &run.attribution;
        assert_eq!(att.sum(), att.job);
        assert!(att.job > SimDuration::ZERO);
        // Metrics job time and trace job window agree (both simulated ns).
        assert!((att.job.as_secs_f64() - run.job_s).abs() < 1e-6);

        let (text, files) = run.command("explain");
        assert!(files.is_empty(), "explain writes nothing");
        assert!(text.contains("== explain fig7a_400gb_ramdisk =="));
        assert!(text.contains("compute"));
        assert!(text.contains("straggler"));
        assert_eq!(
            run.command("trace").0,
            text,
            "trace prints the explain text"
        );
        assert!(file(&run, "trace", "trace.json").starts_with("{\"traceEvents\":["));
        let jsonl = file(&run, "trace", "events.jsonl");
        assert_eq!(jsonl.lines().count(), run.events.len());

        assert!(run.rec.ticks() > 0, "sampler never fired");
        assert!(run.command("report").0.contains("sampler ticks"));
        let openmetrics = file(&run, "report", "openmetrics");
        assert!(openmetrics.ends_with("# EOF\n"));
        assert!(openmetrics.contains("memres_core_busy_slots"));
        let csv = file(&run, "report", "timeseries.csv");
        assert!(csv.starts_with("series,instance,t_s,value\n"));
        let html = file(&run, "report", "dashboard.html");
        assert!(html.contains("fig7a_400gb_ramdisk"));
        assert!(html.contains("<svg"));
        let attrib = file(&run, "report", "attrib.csv");
        assert!(attrib.starts_with("bucket,seconds\njob,"));
        assert!(attrib.contains("\ncompute,"));
    }

    #[test]
    fn self_diff_is_clean() {
        // A run diffed against itself: zero regressions, zero moved series.
        let run = smoke("fig7a_400gb_ramdisk", FaultPlan::new());
        let csv = file(&run, "report", "timeseries.csv");
        let attrib = file(&run, "report", "attrib.csv");
        let d = diff_runs("a", &csv, &attrib, "b", &csv, &attrib, 0.05);
        assert!(!d.regressed());
        assert!(d.series.iter().all(|s| s.first_divergence_s.is_none()));
        assert!(d.render().contains("verdict: ok"));
    }

    #[test]
    fn injected_ssd_degrade_is_flagged_with_storage_attribution() {
        // The acceptance fixture: slow every SSD 4x mid-run; the diff must
        // exit REGRESSED and the dominant attribution mover must land on
        // the storage layer (store or gc-stall bucket).
        let cell = "fig8a_600gb_ssd";
        let base = smoke(cell, FaultPlan::new());
        let slow = smoke(
            cell,
            slow_ssd(Setup::smoke(), cell, 0.25).expect("known cell"),
        );
        assert!(
            slow.job_s > base.job_s * 1.05,
            "degraded run must be measurably slower ({} vs {})",
            slow.job_s,
            base.job_s
        );
        let d = diff_runs(
            "base",
            &file(&base, "report", "timeseries.csv"),
            &file(&base, "report", "attrib.csv"),
            "slow-ssd",
            &file(&slow, "report", "timeseries.csv"),
            &file(&slow, "report", "attrib.csv"),
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
