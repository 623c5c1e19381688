//! `repro trace <cell>` / `repro explain <cell>`: run one benchmark cell
//! with full tracing on, and turn the event log into (a) Perfetto-loadable
//! timeline files and (b) a critical-path attribution report.
//!
//! The cells are the rows of `memres_workloads::cells::CELLS`, resolved as
//! the timed runs resolve them. All trace bytes are built here
//! as strings; writing them to disk is the `repro` binary's job — the
//! workspace's designated I/O seam (DESIGN.md §4.11).

use memres_core::prelude::*;
use memres_des::time::SimDuration;
use memres_trace::analyze::{attribute, stragglers, Attribution};
use memres_trace::{export, TimedEvent};
use memres_workloads::cells::{self, Setup};
use std::fmt::Write as _;

/// One traced run of a benchmark cell.
pub struct TraceRun {
    pub cell: String,
    /// Full event log in emission order.
    pub events: Vec<TimedEvent>,
    /// Exact integer-nanosecond job-time attribution.
    pub attribution: Attribution,
    /// Simulated job time in seconds (from metrics, for cross-checking).
    pub job_s: f64,
}

impl TraceRun {
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    pub fn chrome_json(&self) -> String {
        export::chrome_trace_json(&self.events)
    }

    /// Compact one-object-per-line event log.
    pub fn events_jsonl(&self) -> String {
        export::events_jsonl(&self.events)
    }
}

/// Run `cell` with full tracing; `None` when the name is not a known cell.
pub fn run_cell(setup: Setup, cell: &str) -> Option<TraceRun> {
    let (spec, cfg, gb) = cells::find(cell)?.resolve(setup);
    let cfg = cfg.with_trace();
    let mut d = Driver::new(spec, cfg);
    let m = d.run_for_metrics(&gb.build(), gb.action());
    let events = d.take_trace();
    let attribution = attribute(&events);
    // The analyzer's contract: buckets partition the job window exactly.
    assert_eq!(
        attribution.sum(),
        attribution.job,
        "attribution buckets must sum to the job time"
    );
    Some(TraceRun {
        cell: cell.to_string(),
        events,
        attribution,
        job_s: m.job_time(),
    })
}

/// Human-readable attribution table plus the top-`k` straggler attempts —
/// the output of `repro explain <cell>`.
pub fn report(run: &TraceRun, k: usize) -> String {
    let att = &run.attribution;
    let mut out = String::new();
    let _ = writeln!(out, "== explain {} ==", run.cell);
    let _ = writeln!(
        out,
        "job time {:.3}s  ({} trace events)",
        att.job.as_secs_f64(),
        run.events.len()
    );
    let _ = writeln!(out, "{:>12} {:>12} {:>8}", "bucket", "seconds", "share");
    for (name, dur) in att.buckets() {
        let share = if att.job > SimDuration::ZERO {
            dur.as_nanos() as f64 / att.job.as_nanos() as f64 * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:>12} {:>12.3} {:>7.1}%",
            name,
            dur.as_secs_f64(),
            share
        );
    }
    let _ = writeln!(
        out,
        "{:>12} {:>12.3} {:>7.1}%  (buckets partition the job window exactly)",
        "sum",
        att.sum().as_secs_f64(),
        if att.job > SimDuration::ZERO {
            100.0
        } else {
            0.0
        }
    );
    let top = stragglers(&run.events, k);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_cell_is_rejected() {
        assert!(run_cell(Setup::smoke(), "not_a_cell").is_none());
    }

    #[test]
    fn every_cell_attributes_exactly() {
        // The acceptance bar: on every cell, the attribution buckets sum to
        // the job time (exactly, in integer nanoseconds — stronger than the
        // 1e-6-seconds requirement). `run_cell` itself asserts the equality;
        // this drives it through the five paper cells at smoke scale.
        let paper = |c: &&cells::Cell| matches!(c.size, cells::Size::Paper { .. });
        for name in cells::CELLS.iter().filter(paper).map(|c| c.name) {
            let run = run_cell(Setup::smoke(), name).expect("suite cell");
            assert!(
                run.attribution.job > SimDuration::ZERO,
                "{name} job window empty"
            );
            assert!(!run.events.is_empty(), "{name} produced no events");
        }
    }

    #[test]
    fn traced_smoke_cell_attributes_exactly() {
        let run = run_cell(Setup::smoke(), "fig7a_400gb_ramdisk").expect("known cell");
        assert!(!run.events.is_empty(), "tracing must record events");
        let att = &run.attribution;
        assert_eq!(att.sum(), att.job);
        assert!(att.job > SimDuration::ZERO);
        // Metrics job time and trace job window agree (both simulated ns).
        assert!((att.job.as_secs_f64() - run.job_s).abs() < 1e-6);
        let text = report(&run, 5);
        assert!(text.contains("== explain fig7a_400gb_ramdisk =="));
        assert!(text.contains("compute"));
        assert!(text.contains("straggler"));
        // Exported forms are non-empty and structurally sane.
        assert!(run.chrome_json().starts_with("{\"traceEvents\":["));
        assert!(run.events_jsonl().lines().count() == run.events.len());
    }
}
