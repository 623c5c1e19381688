//! Trace serialization: `events.jsonl` and Chrome trace-event JSON
//! (Perfetto-loadable). Pure string builders — writing the bytes to disk is
//! the bench layer's job (the workspace's designated I/O seam), so this
//! crate stays free of host I/O (R3, DESIGN.md §4.10).
//!
//! Both exports append every row to one [`Writer`] sized up front for the
//! paper cells, pushing fixed pieces and numbers directly: no `core::fmt`
//! except for a fractional byte count. The `fmt` renderings they replaced
//! are kept as the test-only `oracle`, and a proptest holds the two
//! byte-equal.

use crate::analyze::{attempts, Outcome};
use crate::{TimedEvent, TraceEvent};
use memres_des::json::Writer;

#[cfg(test)]
mod oracle;

/// Bytes reserved per event. The paper cells write 96–104 B a line of
/// `events.jsonl` and 106–121 B of Chrome trace per event, so neither
/// buffer regrows on them.
const JSONL_ROW: usize = 112;
const CHROME_ROW: usize = 128;

/// The event's payload as JSON object members (no braces), fixed key order.
/// One `match` with no catch-all (clippy rejects one), so a new variant
/// cannot reach either exporter without its fields.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn payload(w: &mut Writer, ev: &TraceEvent) {
    match *ev {
        TraceEvent::JobArrived { job, tenant } | TraceEvent::JobAdmitted { job, tenant } => {
            w.str("\"job\":").u32(job).str(",\"tenant\":").u32(tenant)
        }
        TraceEvent::JobStart { job } => w.str("\"job\":").u32(job),
        TraceEvent::JobEnd { job, aborted } => w
            .str("\"job\":")
            .u32(job)
            .str(",\"aborted\":")
            .bool(aborted),
        TraceEvent::StageStart { stage, tasks } => {
            w.str("\"stage\":").u32(stage).str(",\"tasks\":").u32(tasks)
        }
        TraceEvent::TaskQueued {
            task,
            stage,
            class,
            attempt,
        } => w
            .str("\"task\":")
            .u32(task)
            .str(",\"stage\":")
            .u32(stage)
            .str(",\"class\":\"")
            .str(class.name())
            .str("\",\"attempt\":")
            .u32(attempt),
        TraceEvent::TaskLaunched {
            task,
            node,
            class,
            attempt,
            queue_delay,
            speculative,
        } => w
            .str("\"task\":")
            .u32(task)
            .str(",\"node\":")
            .u32(node)
            .str(",\"class\":\"")
            .str(class.name())
            .str("\",\"attempt\":")
            .u32(attempt)
            .str(",\"queue_delay_ns\":")
            .u64(queue_delay.as_nanos())
            .str(",\"speculative\":")
            .bool(speculative),
        TraceEvent::TaskFinished {
            task,
            node,
            class,
            attempt,
            ghost,
        } => w
            .str("\"task\":")
            .u32(task)
            .str(",\"node\":")
            .u32(node)
            .str(",\"class\":\"")
            .str(class.name())
            .str("\",\"attempt\":")
            .u32(attempt)
            .str(",\"ghost\":")
            .bool(ghost),
        TraceEvent::TaskRetried {
            task,
            node,
            attempt,
            wasted,
            backoff,
        } => w
            .str("\"task\":")
            .u32(task)
            .str(",\"node\":")
            .u32(node)
            .str(",\"attempt\":")
            .u32(attempt)
            .str(",\"wasted_ns\":")
            .u64(wasted.as_nanos())
            .str(",\"backoff_ns\":")
            .u64(backoff.as_nanos()),
        TraceEvent::DelayWait { node, until } | TraceEvent::CadGate { node, until } => w
            .str("\"node\":")
            .u32(node)
            .str(",\"until_ns\":")
            .u64(until.as_nanos()),
        TraceEvent::Speculate { task, twin } => {
            w.str("\"task\":").u32(task).str(",\"twin\":").u32(twin)
        }
        TraceEvent::FlowStart { flow } => w.str("\"flow\":").u64(flow),
        TraceEvent::FlowEnd { flow, bytes, dur } => w
            .str("\"flow\":")
            .u64(flow)
            .str(",\"bytes\":")
            .num(bytes.get())
            .str(",\"dur_ns\":")
            .u64(dur.as_nanos()),
        TraceEvent::LockAcquire { file, client } => {
            w.str("\"file\":").u64(file).str(",\"client\":").u32(client)
        }
        TraceEvent::LockRelease { file } => w.str("\"file\":").u64(file),
        TraceEvent::LockRevoke { file, dirty_bytes } => w
            .str("\"file\":")
            .u64(file)
            .str(",\"dirty_bytes\":")
            .num(dirty_bytes.get()),
        TraceEvent::LockWaitStart { task } | TraceEvent::LockWaitEnd { task } => {
            w.str("\"task\":").u32(task)
        }
        TraceEvent::LockWaitFor { task, dur } => w
            .str("\"task\":")
            .u32(task)
            .str(",\"dur_ns\":")
            .u64(dur.as_nanos()),
        TraceEvent::ElbDecline { node }
        | TraceEvent::GcStart { node }
        | TraceEvent::GcEnd { node }
        | TraceEvent::BufFull { node }
        | TraceEvent::BufDrained { node }
        | TraceEvent::NodeDown { node }
        | TraceEvent::NodeUp { node }
        | TraceEvent::Blacklisted { node } => w.str("\"node\":").u32(node),
        TraceEvent::FaultInjected { kind, node } => w
            .str("\"fault\":\"")
            .str(kind)
            .str("\",\"node\":")
            .u32(node),
        TraceEvent::BlocksLost { node, blocks } => {
            w.str("\"node\":").u32(node).str(",\"blocks\":").u64(blocks)
        }
        TraceEvent::Rehost { from, to } => w.str("\"from\":").u32(from).str(",\"to\":").u32(to),
        TraceEvent::GhostsSpawned { node, count } => {
            w.str("\"node\":").u32(node).str(",\"count\":").u32(count)
        }
    };
}

/// Node lane an event renders on in the timeline (0 when not node-scoped).
fn lane(ev: &TraceEvent) -> u32 {
    match *ev {
        TraceEvent::TaskLaunched { node, .. }
        | TraceEvent::TaskFinished { node, .. }
        | TraceEvent::TaskRetried { node, .. }
        | TraceEvent::DelayWait { node, .. }
        | TraceEvent::ElbDecline { node }
        | TraceEvent::CadGate { node, .. }
        | TraceEvent::GcStart { node }
        | TraceEvent::GcEnd { node }
        | TraceEvent::BufFull { node }
        | TraceEvent::BufDrained { node }
        | TraceEvent::FaultInjected { node, .. }
        | TraceEvent::NodeDown { node }
        | TraceEvent::NodeUp { node }
        | TraceEvent::Blacklisted { node }
        | TraceEvent::BlocksLost { node, .. }
        | TraceEvent::GhostsSpawned { node, .. } => node,
        _ => 0,
    }
}

/// One JSON object per line, in emission order: the compact machine-readable
/// form consumed by downstream tooling and the determinism tests.
pub fn events_jsonl(events: &[TimedEvent]) -> String {
    let mut w = Writer::with_capacity(events.len() * JSONL_ROW);
    for e in events {
        w.str("{\"at_ns\":")
            .u64(e.at.as_nanos())
            .str(",\"seq\":")
            .u64(e.seq)
            .str(",\"type\":\"")
            .str(e.ev.kind())
            .str("\",");
        payload(&mut w, &e.ev);
        w.str("}\n");
    }
    w.into_string()
}

/// Chrome trace-event JSON (the `{"traceEvents":[...]}` object form), ready
/// for Perfetto / `chrome://tracing`. Task attempts become complete ("X")
/// events on a per-node lane; everything else becomes an instant ("i").
/// Timestamps are microseconds with a fixed three-digit fraction.
pub fn chrome_trace_json(events: &[TimedEvent]) -> String {
    let mut w = Writer::with_capacity(events.len() * CHROME_ROW + 64);
    w.str("{\"traceEvents\":[");
    // Rows are joined by ",\n": each row opens with the separator.
    let mut sep = "\n";
    for a in attempts(events) {
        let outcome = match a.outcome {
            Outcome::Completed => "",
            Outcome::Failed => ".failed",
            Outcome::Ghost => ".ghost",
        };
        w.str(sep)
            .str("{\"name\":\"")
            .str(a.class.name())
            .str(outcome)
            .str("\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":")
            .us(a.start.as_nanos())
            .str(",\"dur\":")
            .us(a.dur().as_nanos())
            .str(",\"pid\":0,\"tid\":")
            .u32(a.node)
            .str(",\"args\":{\"task\":")
            .u32(a.task)
            .str(",\"attempt\":")
            .u32(a.attempt)
            .str("}}");
        sep = ",\n";
    }
    for e in events {
        if matches!(
            e.ev,
            TraceEvent::TaskLaunched { .. } | TraceEvent::TaskFinished { .. }
        ) {
            continue; // rendered as the "X" rows above
        }
        w.str(sep)
            .str("{\"name\":\"")
            .str(e.ev.kind())
            .str("\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":")
            .us(e.at.as_nanos())
            .str(",\"pid\":0,\"tid\":")
            .u32(lane(&e.ev))
            .str(",\"s\":\"t\",\"args\":{");
        payload(&mut w, &e.ev);
        w.str("}}");
        sep = ",\n";
    }
    w.str("\n],\"displayTimeUnit\":\"ms\"}\n");
    w.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskClass;
    use memres_des::time::{SimDuration, SimTime};
    use memres_des::Bytes;

    fn sample() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                at: SimTime::from_nanos(0),
                seq: 0,
                ev: TraceEvent::JobStart { job: 1 },
            },
            TimedEvent {
                at: SimTime::from_nanos(1_500),
                seq: 1,
                ev: TraceEvent::TaskLaunched {
                    task: 3,
                    node: 2,
                    class: TaskClass::Compute,
                    attempt: 0,
                    queue_delay: SimDuration::from_nanos(1_500),
                    speculative: false,
                },
            },
            TimedEvent {
                at: SimTime::from_nanos(9_000),
                seq: 2,
                ev: TraceEvent::TaskFinished {
                    task: 3,
                    node: 2,
                    class: TaskClass::Compute,
                    attempt: 0,
                    ghost: false,
                },
            },
            TimedEvent {
                at: SimTime::from_nanos(9_000),
                seq: 3,
                ev: TraceEvent::FlowEnd {
                    flow: 7,
                    bytes: Bytes(1024.0),
                    dur: SimDuration::from_nanos(500),
                },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line_in_order() {
        let s = events_jsonl(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"at_ns\":0,\"seq\":0,\"type\":\"job_start\",\"job\":1}"
        );
        assert!(lines[1].contains("\"type\":\"task_launched\""));
        assert!(lines[3].contains("\"bytes\":1024.0"));
    }

    #[test]
    fn chrome_trace_has_complete_and_instant_events() {
        let s = chrome_trace_json(&sample());
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.trim_end().ends_with("}"));
        // The compute attempt: launched at 1.5 µs, 7.5 µs long, on node 2.
        assert!(s.contains("\"ph\":\"X\""), "{s}");
        assert!(s.contains("\"ts\":1.500,\"dur\":7.500"), "{s}");
        assert!(s.contains("\"tid\":2"), "{s}");
        // Non-task events render as instants.
        assert!(s.contains("\"name\":\"job_start\""));
        assert!(s.contains("\"name\":\"flow_end\""));
        // Launch/finish pairs are folded into the X rows, not duplicated.
        assert!(!s.contains("\"name\":\"task_launched\""));
    }

    /// Ids and counts at every digit-count edge, with the widest values.
    const EDGES: [u64; 7] = [0, 9, 10, 99, 100, u32::MAX as u64, u64::MAX];

    /// Byte counts on both sides of every rendering rule: integral below
    /// 2⁵³, exactly 2⁵³, integral above, negative zero, fractions, huge,
    /// and not finite.
    const FLOATS: [f64; 10] = [
        4_503_599_627_370_497.0,
        9_007_199_254_740_992.0,
        1_152_921_504_606_846_976.0,
        -0.0,
        0.1,
        1e-7,
        1e300,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    /// An edge value for the low picks, else `x` cut to a random width.
    fn id(x: u64) -> u64 {
        let pick = (x % 16) as usize;
        EDGES.get(pick).copied().unwrap_or(x >> (x % 64))
    }

    fn float(x: u64) -> Bytes {
        let pick = (x % 16) as usize;
        Bytes(FLOATS.get(pick).copied().unwrap_or(match pick % 3 {
            0 => (x >> 11) as f64,
            1 => (x % 100_000) as f64,
            _ => f64::from_bits(x),
        }))
    }

    /// Variant `v` of [`TraceEvent`] (all 32, in declaration order) with
    /// its fields drawn from `a` and `b`.
    fn event(v: usize, a: u64, b: u64) -> TraceEvent {
        let (n, m) = (id(a) as u32, id(b) as u32);
        let class = [TaskClass::Compute, TaskClass::Store, TaskClass::Fetch][(b % 3) as usize];
        let ns = |x: u64| SimDuration::from_nanos(id(x));
        match v % 32 {
            0 => TraceEvent::JobArrived { job: n, tenant: m },
            1 => TraceEvent::JobAdmitted { job: n, tenant: m },
            2 => TraceEvent::JobStart { job: n },
            3 => TraceEvent::JobEnd {
                job: n,
                aborted: b.is_multiple_of(2),
            },
            4 => TraceEvent::StageStart { stage: n, tasks: m },
            5 => TraceEvent::TaskQueued {
                task: n,
                stage: m,
                class,
                attempt: m,
            },
            6 => TraceEvent::TaskLaunched {
                task: n % 4,
                node: m,
                class,
                attempt: (b % 2) as u32,
                queue_delay: ns(b),
                speculative: b.is_multiple_of(5),
            },
            7 => TraceEvent::TaskFinished {
                task: n % 4,
                node: m,
                class,
                attempt: (b % 2) as u32,
                ghost: b.is_multiple_of(3),
            },
            8 => TraceEvent::TaskRetried {
                task: n % 4,
                node: m,
                attempt: (b % 2) as u32,
                wasted: ns(a),
                backoff: ns(b),
            },
            9 => TraceEvent::DelayWait {
                node: n,
                until: SimTime::from_nanos(id(b)),
            },
            10 => TraceEvent::ElbDecline { node: n },
            11 => TraceEvent::CadGate {
                node: n,
                until: SimTime::from_nanos(id(b)),
            },
            12 => TraceEvent::Speculate { task: n, twin: m },
            13 => TraceEvent::FlowStart { flow: id(a) },
            14 => TraceEvent::FlowEnd {
                flow: id(a),
                bytes: float(b),
                dur: ns(a ^ b),
            },
            15 => TraceEvent::LockAcquire {
                file: id(a),
                client: m,
            },
            16 => TraceEvent::LockRelease { file: id(a) },
            17 => TraceEvent::LockRevoke {
                file: id(a),
                dirty_bytes: float(b),
            },
            18 => TraceEvent::LockWaitStart { task: n },
            19 => TraceEvent::LockWaitEnd { task: n },
            20 => TraceEvent::LockWaitFor {
                task: n,
                dur: ns(b),
            },
            21 => TraceEvent::GcStart { node: n },
            22 => TraceEvent::GcEnd { node: n },
            23 => TraceEvent::BufFull { node: n },
            24 => TraceEvent::BufDrained { node: n },
            25 => TraceEvent::FaultInjected {
                kind: ["node_crash", "task_fail"][(b % 2) as usize],
                node: n,
            },
            26 => TraceEvent::NodeDown { node: n },
            27 => TraceEvent::NodeUp { node: n },
            28 => TraceEvent::Blacklisted { node: n },
            29 => TraceEvent::BlocksLost {
                node: n,
                blocks: id(b),
            },
            30 => TraceEvent::Rehost { from: n, to: m },
            _ => TraceEvent::GhostsSpawned { node: n, count: m },
        }
    }

    fn assert_matches_oracle(events: &[TimedEvent]) {
        assert_eq!(events_jsonl(events), oracle::events_jsonl(events));
        assert_eq!(chrome_trace_json(events), oracle::chrome_trace_json(events));
    }

    /// Every variant, every edge id and float, and every `ns % 1000` class
    /// of timestamp, in one trace.
    #[test]
    fn exports_match_the_fmt_oracle_on_every_edge() {
        let events: Vec<TimedEvent> = (0..32 * 1000u64)
            .map(|i| {
                // Each variant meets every `k`: every pick of `id` and
                // `float`, and the timestamp class `k`.
                let k = i / 32;
                TimedEvent {
                    at: SimTime::from_nanos(k * 1_001),
                    seq: id(i),
                    ev: event(i as usize, k, 3 * k + 1),
                }
            })
            .collect();
        assert_matches_oracle(&events);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 512,
            ..Default::default()
        })]

        /// Random traces: launches, finishes and retries of four tasks
        /// collide, so the Chrome export pairs attempts of every outcome.
        #[test]
        fn exports_match_the_fmt_oracle(
            rows in proptest::collection::vec(
                (0usize..32, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                1..96,
            ),
        ) {
            let events: Vec<TimedEvent> = rows
                .iter()
                .enumerate()
                .map(|(seq, &(v, a, b, at))| TimedEvent {
                    at: SimTime::from_nanos(at >> (at % 64)),
                    seq: seq as u64,
                    ev: event(v, a, b),
                })
                .collect();
            proptest::prop_assert_eq!(events_jsonl(&events), oracle::events_jsonl(&events));
            proptest::prop_assert_eq!(
                chrome_trace_json(&events),
                oracle::chrome_trace_json(&events)
            );
        }
    }
}
