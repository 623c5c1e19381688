//! Golden tests for the trace exports (events.jsonl, Chrome trace-event
//! JSON): their exact field order and formatting. Downstream tooling parses
//! these files, so a field reorder or a number-format change is a breaking
//! interface change — it must show up here as a failing diff, not in a
//! user's plot script.

use memres_core::prelude::*;
use memres_des::time::{SimDuration, SimTime};
use memres_trace::analyze::attribute;
use memres_trace::{export as texport, TimedEvent, TraceEvent};

fn sample_trace() -> Vec<TimedEvent> {
    use memres_trace::TaskClass;
    vec![
        TimedEvent {
            at: SimTime::from_nanos(0),
            seq: 0,
            ev: TraceEvent::JobStart { job: 3 },
        },
        TimedEvent {
            at: SimTime::from_nanos(250),
            seq: 1,
            ev: TraceEvent::TaskLaunched {
                task: 1,
                node: 2,
                class: TaskClass::Compute,
                attempt: 0,
                queue_delay: SimDuration::from_nanos(250),
                speculative: false,
            },
        },
        TimedEvent {
            at: SimTime::from_nanos(2_000),
            seq: 2,
            ev: TraceEvent::TaskFinished {
                task: 1,
                node: 2,
                class: TaskClass::Compute,
                attempt: 0,
                ghost: false,
            },
        },
        TimedEvent {
            at: SimTime::from_nanos(4_000),
            seq: 3,
            ev: TraceEvent::JobEnd {
                job: 3,
                aborted: false,
            },
        },
    ]
}

#[test]
fn events_jsonl_golden() {
    let s = texport::events_jsonl(&sample_trace());
    let expected = "\
{\"at_ns\":0,\"seq\":0,\"type\":\"job_start\",\"job\":3}\n\
{\"at_ns\":250,\"seq\":1,\"type\":\"task_launched\",\"task\":1,\"node\":2,\"class\":\"compute\",\"attempt\":0,\"queue_delay_ns\":250,\"speculative\":false}\n\
{\"at_ns\":2000,\"seq\":2,\"type\":\"task_finished\",\"task\":1,\"node\":2,\"class\":\"compute\",\"attempt\":0,\"ghost\":false}\n\
{\"at_ns\":4000,\"seq\":3,\"type\":\"job_end\",\"job\":3,\"aborted\":false}\n";
    assert_eq!(s, expected, "events.jsonl field order/format changed");
}

#[test]
fn chrome_trace_golden() {
    let s = texport::chrome_trace_json(&sample_trace());
    let expected = "{\"traceEvents\":[\n\
{\"name\":\"compute\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":0.250,\"dur\":1.750,\"pid\":0,\"tid\":2,\"args\":{\"task\":1,\"attempt\":0}},\n\
{\"name\":\"job_start\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":0.000,\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{\"job\":3}},\n\
{\"name\":\"job_end\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":4.000,\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{\"job\":3,\"aborted\":false}}\n\
],\"displayTimeUnit\":\"ms\"}\n";
    assert_eq!(s, expected, "Chrome trace-event format changed");
}

/// End-to-end: a real traced engine run exports parseable, consistent trace
/// forms, and the critical-path attribution partitions the job exactly.
#[test]
fn real_run_trace_exports_and_attribution() {
    let recs: Vec<Record> = (0..200)
        .map(|i| (Value::Null, Value::str(format!("k{}", i % 11))))
        .collect();
    let rdd = Rdd::source(Dataset::from_records(recs, 8))
        .map("kv", SizeModel::scan(), |(_, v)| (v, Value::I64(1)))
        .reduce_by_key(Some(4), 1e9, 1.0, |a, b| {
            Value::I64(a.as_i64() + b.as_i64())
        });
    let cfg = EngineConfig::default().homogeneous().with_trace();
    let mut d = Driver::new(memres_cluster::tiny(4), cfg);
    let (out, metrics) = d.run(&rdd, Action::Count);
    assert_eq!(out.count, 11);
    let events = d.take_trace();
    assert!(!events.is_empty());

    // jsonl: one object per line, each with balanced braces, in seq order.
    let jsonl = texport::events_jsonl(&events);
    assert_eq!(jsonl.lines().count(), events.len());
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    // Chrome form: balanced structure, starts/ends as a JSON object.
    let chrome = texport::chrome_trace_json(&events);
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    assert_eq!(chrome.matches('[').count(), chrome.matches(']').count());

    // Attribution: exact partition of the job window, and the window agrees
    // with the metrics' job time.
    let att = attribute(&events);
    assert_eq!(att.sum(), att.job, "buckets must partition job time");
    assert!((att.job.as_secs_f64() - metrics.job_time()).abs() < 1e-6);
    assert!(
        att.compute > SimDuration::ZERO,
        "a compute-heavy job must show compute time"
    );
}
