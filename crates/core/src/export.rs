//! Metric export: CSV and JSON writers for task-level and job-level data,
//! so downstream analysis (plotting the figures, regression dashboards)
//! works from files rather than from Rust structs.

use crate::metrics::{JobMetrics, Phase};
use crate::tenancy::{FinishedJob, TenantSlo};
use memres_des::json::num;
use std::fmt::Write as _;

/// Render all task records as CSV (header + one row per task).
pub fn tasks_csv(metrics: &JobMetrics) -> String {
    let mut out = String::from(
        "job,stage,phase,index,node,queued_at,launched_at,finished_at,duration,\
         input_bytes,output_bytes,locality,queue_delay\n",
    );
    for t in &metrics.tasks {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.0},{:.0},{:?},{:.6}",
            t.job,
            t.stage,
            phase_name(t.phase),
            t.index,
            t.node,
            t.queued_at,
            t.launched_at,
            t.finished_at,
            t.duration(),
            t.input_bytes,
            t.output_bytes,
            t.locality,
            t.queue_delay(),
        );
    }
    out
}

/// Full job metrics as pretty JSON (hand-rolled — the build environment has
/// no registry access, so serde is not available).
pub fn job_json(metrics: &JobMetrics) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"job\": {},", metrics.job);
    let _ = writeln!(out, "  \"started_at\": {},", num(metrics.started_at));
    let _ = writeln!(out, "  \"finished_at\": {},", num(metrics.finished_at));
    let _ = writeln!(
        out,
        "  \"queue_delay_mean\": {},",
        num(metrics.mean_queue_delay())
    );
    out.push_str("  \"tasks\": [");
    for (i, t) in metrics.tasks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        let _ = write!(
            out,
            "\n      \"job\": {},\n      \"stage\": {},\n      \"phase\": {:?},\
             \n      \"index\": {},\n      \"node\": {},\n      \"queued_at\": {},\
             \n      \"launched_at\": {},\n      \"finished_at\": {},\
             \n      \"duration\": {},\n      \"input_bytes\": {},\
             \n      \"output_bytes\": {},\n      \"locality\": {:?},\
             \n      \"queue_delay\": {}\n    }}",
            t.job,
            t.stage,
            format!("{:?}", t.phase),
            t.index,
            t.node,
            num(t.queued_at),
            num(t.launched_at),
            num(t.finished_at),
            num(t.duration()),
            num(t.input_bytes),
            num(t.output_bytes),
            format!("{:?}", t.locality),
            num(t.queue_delay()),
        );
    }
    if !metrics.tasks.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    let r = &metrics.recovery;
    out.push_str("  \"recovery\": {\n");
    let _ = writeln!(out, "    \"node_crashes\": {},", r.node_crashes);
    let _ = writeln!(out, "    \"node_restarts\": {},", r.node_restarts);
    let _ = writeln!(out, "    \"tasks_retried\": {},", r.tasks_retried);
    let _ = writeln!(out, "    \"failed_fetches\": {},", r.failed_fetches);
    let _ = writeln!(out, "    \"fetch_retries\": {},", r.fetch_retries);
    let _ = writeln!(
        out,
        "    \"recomputed_partitions\": {},",
        r.recomputed_partitions
    );
    let _ = writeln!(out, "    \"blocks_lost\": {},", r.blocks_lost);
    let _ = writeln!(out, "    \"blacklisted_nodes\": {},", r.blacklisted_nodes);
    let _ = writeln!(out, "    \"ssd_degradations\": {},", r.ssd_degradations);
    let _ = writeln!(out, "    \"wasted_secs\": {},", num(r.wasted_secs));
    let _ = writeln!(out, "    \"aborted_jobs\": {}", r.aborted_jobs);
    out.push_str("  }\n}");
    out
}

/// Per-job lifecycle rows of a finished multi-tenant stream (DESIGN.md
/// §4.14): one row per job in completion order.
pub fn stream_jobs_csv(jobs: &[FinishedJob]) -> String {
    let mut out =
        String::from("job,tenant,arrived,admitted,finished,queue_delay,latency,aborted\n");
    for j in jobs {
        let _ = writeln!(
            out,
            "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{}",
            j.id,
            j.tenant,
            j.arrived.as_secs_f64(),
            j.admitted.as_secs_f64(),
            j.finished.as_secs_f64(),
            j.queue_delay(),
            j.latency(),
            j.output.aborted,
        );
    }
    out
}

/// Per-tenant SLO rollup as a JSON array, hand-rolled like every exporter
/// here. `slowdown[t]` is the tenant's mean latency over its isolated
/// single-job latency; callers without a baseline pass an empty slice
/// (rendered as 1.0).
pub fn tenant_slo_json(slos: &[TenantSlo], names: &[String], slowdown: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, s) in slos.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"tenant\": {}, \"name\": \"{}\", \"jobs\": {}, \"aborted\": {}, \
             \"mean_queue_delay\": {}, \"mean_latency\": {}, \"p50_latency\": {}, \
             \"p99_latency\": {}, \"slowdown_vs_isolated\": {}}}",
            s.tenant,
            names.get(i).map(|n| n.as_str()).unwrap_or(""),
            s.jobs,
            s.aborted,
            num(s.mean_queue_delay),
            num(s.mean_latency),
            num(s.p50_latency),
            num(s.p99_latency),
            num(slowdown.get(i).copied().unwrap_or(1.0)),
        );
    }
    if !slos.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::Compute => "compute",
        Phase::Storing => "storing",
        Phase::Shuffling => "shuffling",
    }
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    reason = "terse literal indexing is fine in tests"
)]
mod tests {
    use super::*;
    use crate::metrics::{RecoveryCounters, TaskLocality, TaskMetric};

    fn sample() -> JobMetrics {
        JobMetrics {
            job: 1,
            started_at: 0.0,
            finished_at: 10.0,
            tasks: vec![
                TaskMetric {
                    job: 1,
                    stage: 0,
                    phase: Phase::Compute,
                    index: 0,
                    node: 2,
                    queued_at: 0.0,
                    launched_at: 0.5,
                    finished_at: 2.5,
                    input_bytes: 1000.0,
                    output_bytes: 900.0,
                    locality: TaskLocality::NodeLocal,
                },
                TaskMetric {
                    job: 1,
                    stage: 1,
                    phase: Phase::Storing,
                    index: 0,
                    node: 2,
                    queued_at: 2.5,
                    launched_at: 2.5,
                    finished_at: 4.0,
                    input_bytes: 900.0,
                    output_bytes: 900.0,
                    locality: TaskLocality::NodeLocal,
                },
            ],
            recovery: RecoveryCounters::default(),
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = tasks_csv(&sample());
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("job,stage,phase"));
        assert!(csv.lines().next().unwrap().ends_with(",queue_delay"));
        assert!(csv.contains("compute"));
        assert!(csv.contains("storing"));
        // First task queued at 0.0, launched at 0.5: delay in the last column.
        let row = csv.lines().nth(1).unwrap();
        assert!(row.ends_with(",0.500000"), "{row}");
    }

    #[test]
    fn json_serializes() {
        let j = job_json(&sample());
        // Structurally valid: balanced braces/brackets, expected fields.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert_eq!(j.matches("\"phase\"").count(), 2);
        assert!(j.contains("\"job\": 1,"));
        assert!(j.contains("\"phase\": \"Compute\""));
        assert!(j.contains("\"locality\": \"NodeLocal\""));
        assert!(j.contains("\"finished_at\": 10.0"));
        // Queue-delay rollup: (0.5 + 0.0) / 2.
        assert!(j.contains("\"queue_delay_mean\": 0.25"));
        // Floats always carry a decimal point so they parse back as floats.
        assert!(j.contains("\"queued_at\": 0.0"));
        // Recovery counters are always present (zeros on a clean run).
        assert!(j.contains("\"recovery\": {"));
        assert!(j.contains("\"tasks_retried\": 0"));
        assert!(j.contains("\"wasted_secs\": 0.0"));
    }

    #[test]
    fn json_identical_for_identical_metrics() {
        assert_eq!(job_json(&sample()), job_json(&sample()));
    }

    #[test]
    fn tenant_slo_exports_render_all_tenants() {
        let slos = vec![
            TenantSlo {
                tenant: 0,
                jobs: 3,
                aborted: 1,
                mean_queue_delay: 0.5,
                mean_latency: 4.0,
                p50_latency: 3.0,
                p99_latency: 9.0,
            },
            TenantSlo {
                tenant: 1,
                ..TenantSlo::default()
            },
        ];
        let names = vec!["etl".to_string(), "adhoc".to_string()];
        let json = tenant_slo_json(&slos, &names, &[2.0]);
        assert_eq!(json.matches('{').count(), 2);
        assert!(json.contains("\"name\": \"adhoc\""));
        assert!(json.contains("\"slowdown_vs_isolated\": 2.0"));
        // Missing slowdown entries fall back to 1.0.
        assert!(json.contains("\"slowdown_vs_isolated\": 1.0"));
        assert!(json.contains("\"p99_latency\": 9.0"));
        assert_eq!(tenant_slo_json(&[], &[], &[]), "[]");
    }

    #[test]
    fn stream_jobs_csv_rows() {
        use crate::world::JobOutput;
        use memres_des::time::SimTime;
        let j = FinishedJob {
            id: 7,
            tenant: 1,
            arrived: SimTime::from_secs_f64(1.0),
            admitted: SimTime::from_secs_f64(1.5),
            finished: SimTime::from_secs_f64(4.0),
            output: JobOutput {
                count: 0,
                records: None,
                reduced: None,
                aborted: false,
            },
            metrics: JobMetrics::default(),
        };
        let csv = stream_jobs_csv(&[j]);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("7,1,1.000000,1.500000,4.000000,0.500000,3.000000,false"));
    }

    /// JSON/CSV parity: the per-task CSV columns and the per-task JSON keys
    /// must carry the same fields. A field added to one exporter but not the
    /// other fails here, not in a user's join script.
    #[test]
    fn json_and_csv_task_fields_align() {
        let m = sample();
        let csv = tasks_csv(&m);
        let csv_cols: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let json = job_json(&m);
        let task_obj = json
            .split("\"tasks\": [")
            .nth(1)
            .unwrap()
            .split("],")
            .next()
            .unwrap();
        for col in &csv_cols {
            assert!(
                task_obj.contains(&format!("\"{col}\":")),
                "CSV column {col} missing from task JSON"
            );
        }
        let json_keys = task_obj.matches("\": ").count() / m.tasks.len();
        assert_eq!(
            json_keys,
            csv_cols.len(),
            "task JSON carries a field the CSV lacks"
        );
    }
}
