//! The metrics plane's determinism contract (DESIGN.md §4.16), from the
//! consumer's point of view: every export artifact of `repro report` is
//! byte-identical across executor thread counts and across repeated runs,
//! and the export formats themselves are golden-pinned — downstream
//! dashboards and the `repro diff` parser consume these bytes positionally,
//! so a format change must fail here, not in a user's monitoring stack.

#![allow(
    clippy::disallowed_methods,
    reason = "a test of the measurement layer reads the files it wrote (DESIGN.md 4.10)"
)]

use memres_bench::report;
use memres_des::time::{SimDuration, SimTime};
use memres_metrics::diff::diff_runs;
use memres_metrics::{export, MetricsConfig, Recorder};
use memres_workloads::cells::Setup;

const ARTIFACTS: [&str; 4] = [
    "openmetrics",
    "timeseries.csv",
    "dashboard.html",
    "attrib.csv",
];

/// The four artifacts `repro --smoke report <cell>` writes under
/// `MEMRES_THREADS=<threads>`.
fn artifacts_with_threads(cell: &str, threads: &str) -> [String; 4] {
    let dir = std::env::temp_dir().join(format!("memres-report-threads-test-{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("MEMRES_THREADS", threads)
        .args(["--smoke", "--json", dir.to_str().unwrap(), "report", cell])
        .output()
        .expect("spawn repro")
        .status;
    assert!(status.success());
    let read = |suffix| std::fs::read_to_string(dir.join(format!("{cell}.{suffix}")));
    let artifacts = ARTIFACTS.map(|suffix| read(suffix).expect(suffix));
    let _ = std::fs::remove_dir_all(&dir);
    artifacts
}

#[test]
fn exports_byte_identical_across_thread_counts() {
    // Executor threads only parallelize real-partition UDF wall-clock; the
    // simulated event sequence — and therefore every sampled gauge — must
    // not notice. 1 thread vs 4 threads: byte-equal artifacts, all four.
    let one = artifacts_with_threads("fig7a_400gb_ramdisk", "1");
    let four = artifacts_with_threads("fig7a_400gb_ramdisk", "4");
    for ((a, b), name) in one.iter().zip(&four).zip(ARTIFACTS) {
        assert!(!a.is_empty(), "{name} is empty");
        assert_eq!(a, b, "{name} bytes differ across thread counts");
    }
    assert!(one[0].ends_with("# EOF\n"));
}

#[test]
fn exports_byte_identical_across_double_runs() {
    // Same cell, two fresh processes' worth of state: all four artifacts
    // byte-equal.
    let a = report::run_cell(Setup::smoke(), "fig8a_600gb_ssd", None).expect("known cell");
    let b = report::run_cell(Setup::smoke(), "fig8a_600gb_ssd", None).expect("known cell");
    assert_eq!(a.openmetrics, b.openmetrics);
    assert_eq!(a.timeseries_csv, b.timeseries_csv);
    assert_eq!(a.dashboard_html, b.dashboard_html);
    assert_eq!(a.attrib_csv, b.attrib_csv);
}

/// A hand-fed recorder with two series (one labeled) — small enough to pin
/// the full export byte-for-byte.
fn sample_recorder() -> Recorder {
    let mut rec = Recorder::new(MetricsConfig {
        interval: SimDuration::from_millis(500),
        ring: 8,
    });
    for (i, t_ms) in [(0u32, 500u64), (1, 1000), (2, 1500)] {
        let t = SimTime::from_nanos(t_ms * 1_000_000);
        rec.sample("core_busy_slots", None, t, f64::from(i) * 2.0);
        rec.sample("net_rack_up_util", Some(0), t, 0.25 + f64::from(i) * 0.5);
        rec.tick();
    }
    rec
}

#[test]
fn openmetrics_golden() {
    let expected = "\
# HELP memres_net_rack_up_util Rack uplink utilization (allocated rate / capacity)\n\
# TYPE memres_net_rack_up_util gauge\n\
# UNIT memres_net_rack_up_util ratio\n\
memres_net_rack_up_util{rack=\"0\"} 0.25 0.5\n\
memres_net_rack_up_util{rack=\"0\"} 0.75 1\n\
memres_net_rack_up_util{rack=\"0\"} 1.25 1.5\n\
# HELP memres_core_busy_slots Occupied executor slots\n\
# TYPE memres_core_busy_slots gauge\n\
# UNIT memres_core_busy_slots slots\n\
memres_core_busy_slots 0 0.5\n\
memres_core_busy_slots 2 1\n\
memres_core_busy_slots 4 1.5\n\
# EOF\n";
    assert_eq!(
        export::openmetrics(&sample_recorder()),
        expected,
        "OpenMetrics exposition format changed"
    );
}

#[test]
fn timeseries_csv_golden() {
    let expected = "\
series,instance,t_s,value\n\
net_rack_up_util,0,0.5,0.25\n\
net_rack_up_util,0,1,0.75\n\
net_rack_up_util,0,1.5,1.25\n\
core_busy_slots,,0.5,0\n\
core_busy_slots,,1,2\n\
core_busy_slots,,1.5,4\n";
    assert_eq!(
        export::timeseries_csv(&sample_recorder()),
        expected,
        "timeseries.csv field order/format changed"
    );
}

#[test]
fn csv_golden_round_trips_through_diff() {
    // The pinned CSV is exactly what `repro diff` parses: a self-diff of
    // the golden recorder is clean, and a doubled copy diverges at the
    // first sample with the right series blamed.
    let rec = sample_recorder();
    let csv = export::timeseries_csv(&rec);
    let attrib = "bucket,seconds\njob,2\ncompute,2\n";
    let clean = diff_runs("a", &csv, attrib, "b", &csv, attrib, 0.05);
    assert!(!clean.regressed());
    assert!(clean.series.iter().all(|s| s.first_divergence_s.is_none()));

    let doubled = csv.replace("core_busy_slots,,1,2", "core_busy_slots,,1,9");
    let dirty = diff_runs("a", &csv, attrib, "b", &doubled, attrib, 0.05);
    let moved: Vec<_> = dirty
        .series
        .iter()
        .filter(|s| s.first_divergence_s.is_some())
        .collect();
    assert_eq!(moved.len(), 1);
    assert_eq!(moved[0].series, "core_busy_slots");
    assert_eq!(moved[0].first_divergence_s, Some(1.0));
}
