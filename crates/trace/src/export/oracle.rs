//! The exporters as they were written on `core::fmt`, one `write!` per
//! row: the reference the writer-based exporters must match byte for byte.

use super::lane;
use crate::analyze::{attempts, Outcome};
use crate::{TimedEvent, TraceEvent};
use std::fmt::{self, Write as _};

/// The float rendering `memres_des::json::num` had on `Display`.
struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if !v.is_finite() {
            f.write_str("null")
        } else if v.fract() == 0.0 {
            write!(f, "{v}.0")
        } else {
            write!(f, "{v}")
        }
    }
}

/// Microsecond timestamp with fixed 3-decimal nanosecond fraction — integer
/// math only, so the rendering is byte-stable everywhere.
fn us(ns: u64) -> impl fmt::Display {
    fmt::from_fn(move |f| write!(f, "{}.{:03}", ns / 1_000, ns % 1_000))
}

/// The event's payload as JSON object members (no braces), fixed key order.
/// One `match` with no catch-all (clippy rejects one), so a new variant
/// cannot reach either exporter without its fields.
#[deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
fn payload(ev: &TraceEvent) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| {
        match *ev {
            TraceEvent::JobArrived { job, tenant } | TraceEvent::JobAdmitted { job, tenant } => {
                write!(f, "\"job\":{job},\"tenant\":{tenant}")
            }
            TraceEvent::JobStart { job } => write!(f, "\"job\":{job}"),
            TraceEvent::JobEnd { job, aborted } => {
                write!(f, "\"job\":{job},\"aborted\":{aborted}")
            }
            TraceEvent::StageStart { stage, tasks } => {
                write!(f, "\"stage\":{stage},\"tasks\":{tasks}")
            }
            TraceEvent::TaskQueued {
                task,
                stage,
                class,
                attempt,
            } => write!(
                f,
                "\"task\":{task},\"stage\":{stage},\"class\":\"{}\",\"attempt\":{attempt}",
                class.name()
            ),
            TraceEvent::TaskLaunched {
                task,
                node,
                class,
                attempt,
                queue_delay,
                speculative,
            } => write!(
                f,
                "\"task\":{task},\"node\":{node},\"class\":\"{}\",\"attempt\":{attempt},\"queue_delay_ns\":{},\"speculative\":{speculative}",
                class.name(),
                queue_delay.as_nanos()
            ),
            TraceEvent::TaskFinished {
                task,
                node,
                class,
                attempt,
                ghost,
            } => write!(
                f,
                "\"task\":{task},\"node\":{node},\"class\":\"{}\",\"attempt\":{attempt},\"ghost\":{ghost}",
                class.name()
            ),
            TraceEvent::TaskRetried {
                task,
                node,
                attempt,
                wasted,
                backoff,
            } => write!(
                f,
                "\"task\":{task},\"node\":{node},\"attempt\":{attempt},\"wasted_ns\":{},\"backoff_ns\":{}",
                wasted.as_nanos(),
                backoff.as_nanos()
            ),
            TraceEvent::DelayWait { node, until } => {
                write!(f, "\"node\":{node},\"until_ns\":{}", until.as_nanos())
            }
            TraceEvent::ElbDecline { node } => write!(f, "\"node\":{node}"),
            TraceEvent::CadGate { node, until } => {
                write!(f, "\"node\":{node},\"until_ns\":{}", until.as_nanos())
            }
            TraceEvent::Speculate { task, twin } => write!(f, "\"task\":{task},\"twin\":{twin}"),
            TraceEvent::FlowStart { flow } => write!(f, "\"flow\":{flow}"),
            TraceEvent::FlowEnd { flow, bytes, dur } => write!(
                f,
                "\"flow\":{flow},\"bytes\":{},\"dur_ns\":{}",
                Num(bytes.get()),
                dur.as_nanos()
            ),
            TraceEvent::LockAcquire { file, client } => {
                write!(f, "\"file\":{file},\"client\":{client}")
            }
            TraceEvent::LockRelease { file } => write!(f, "\"file\":{file}"),
            TraceEvent::LockRevoke { file, dirty_bytes } => write!(
                f,
                "\"file\":{file},\"dirty_bytes\":{}",
                Num(dirty_bytes.get())
            ),
            TraceEvent::LockWaitStart { task } => write!(f, "\"task\":{task}"),
            TraceEvent::LockWaitEnd { task } => write!(f, "\"task\":{task}"),
            TraceEvent::LockWaitFor { task, dur } => {
                write!(f, "\"task\":{task},\"dur_ns\":{}", dur.as_nanos())
            }
            TraceEvent::GcStart { node }
            | TraceEvent::GcEnd { node }
            | TraceEvent::BufFull { node }
            | TraceEvent::BufDrained { node } => write!(f, "\"node\":{node}"),
            TraceEvent::FaultInjected { kind, node } => {
                write!(f, "\"fault\":\"{kind}\",\"node\":{node}")
            }
            TraceEvent::NodeDown { node }
            | TraceEvent::NodeUp { node }
            | TraceEvent::Blacklisted { node } => write!(f, "\"node\":{node}"),
            TraceEvent::BlocksLost { node, blocks } => {
                write!(f, "\"node\":{node},\"blocks\":{blocks}")
            }
            TraceEvent::Rehost { from, to } => write!(f, "\"from\":{from},\"to\":{to}"),
            TraceEvent::GhostsSpawned { node, count } => {
                write!(f, "\"node\":{node},\"count\":{count}")
            }
        }
    })
}

/// One JSON object per line, in emission order: the compact machine-readable
/// form consumed by downstream tooling and the determinism tests.
pub(super) fn events_jsonl(events: &[TimedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96);
    for e in events {
        // Writing to a `String` cannot fail.
        let _ = writeln!(
            out,
            "{{\"at_ns\":{},\"seq\":{},\"type\":\"{}\",{}}}",
            e.at.as_nanos(),
            e.seq,
            e.ev.kind(),
            payload(&e.ev)
        );
    }
    out
}

/// Chrome trace-event JSON (the `{"traceEvents":[...]}` object form), ready
/// for Perfetto / `chrome://tracing`. Task attempts become complete ("X")
/// events on a per-node lane; everything else becomes an instant ("i").
pub(super) fn chrome_trace_json(events: &[TimedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[");
    // Rows are joined by ",\n": each row opens with the separator.
    let mut sep = "\n";
    for a in attempts(events) {
        let outcome = match a.outcome {
            Outcome::Completed => "",
            Outcome::Failed => ".failed",
            Outcome::Ghost => ".ghost",
        };
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{}{outcome}\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"task\":{},\"attempt\":{}}}}}",
            a.class.name(),
            us(a.start.as_nanos()),
            us(a.dur().as_nanos()),
            a.node,
            a.task,
            a.attempt
        );
        sep = ",\n";
    }
    for e in events {
        if matches!(
            e.ev,
            TraceEvent::TaskLaunched { .. } | TraceEvent::TaskFinished { .. }
        ) {
            continue; // rendered as the "X" rows above
        }
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{{{}}}}}",
            e.ev.kind(),
            us(e.at.as_nanos()),
            lane(&e.ev),
            payload(&e.ev)
        );
        sep = ",\n";
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}
