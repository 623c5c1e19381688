//! Deterministic structured event tracing (DESIGN.md §4.11).
//!
//! Every substrate of the simulator — scheduler, network flows, Lustre DLM,
//! SSD write-buffer/GC, fault injection — can emit typed events into one
//! [`TraceSink`], stamped with simulated time and an emission sequence
//! number. The sink never touches the host: no clocks, no I/O, no hashing.
//! Trace bytes are therefore a pure function of (workload, config, seed) and
//! must be identical across executor-thread counts and repeated runs; the
//! determinism tests in `memres-core` compare them byte for byte.
//!
//! The layers on top:
//! * [`analyze`] — critical-path attribution of end-to-end job time into
//!   compute / store / fetch / lock-wait / gc-stall / retry-waste buckets
//!   (exact by construction: integer-nanosecond segments that partition the
//!   job window), plus top-K straggler chains.
//! * [`export`] — Chrome trace-event (Perfetto-loadable) JSON and a compact
//!   `events.jsonl`, built as strings here and written to disk only by the
//!   bench layer (the designated I/O seam).

pub mod analyze;
pub mod export;

use memres_des::time::{SimDuration, SimTime};
use memres_des::Bytes;
use std::cell::RefCell;
use std::rc::Rc;

/// Coarse task classification mirroring `Phase` in memres-core (kept
/// separate so this crate depends only on memres-des).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskClass {
    Compute,
    Store,
    Fetch,
}

impl TaskClass {
    pub fn name(self) -> &'static str {
        match self {
            TaskClass::Compute => "compute",
            TaskClass::Store => "store",
            TaskClass::Fetch => "fetch",
        }
    }
}

/// The event taxonomy. Payloads are plain integers plus the unit newtypes
/// ([`SimTime`]/[`SimDuration`]/[`Bytes`], per rule R6 in DESIGN.md
/// §4.10), chosen so the whole record serializes without any
/// host-dependent state. The exporters unwrap to raw nanoseconds at the
/// serialization boundary, so the JSON schema (`*_ns` keys) is unchanged.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    // ---- job / stage lifecycle ----
    /// A job entered the multi-tenant arrival stream (before admission).
    JobArrived {
        job: u32,
        tenant: u32,
    },
    /// The admission controller let a queued job into the cluster.
    JobAdmitted {
        job: u32,
        tenant: u32,
    },
    JobStart {
        job: u32,
    },
    JobEnd {
        job: u32,
        aborted: bool,
    },
    StageStart {
        stage: u32,
        tasks: u32,
    },
    // ---- task lifecycle ----
    TaskQueued {
        task: u32,
        stage: u32,
        class: TaskClass,
        attempt: u32,
    },
    TaskLaunched {
        task: u32,
        node: u32,
        class: TaskClass,
        attempt: u32,
        queue_delay: SimDuration,
        speculative: bool,
    },
    TaskFinished {
        task: u32,
        node: u32,
        class: TaskClass,
        attempt: u32,
        ghost: bool,
    },
    TaskRetried {
        task: u32,
        node: u32,
        attempt: u32,
        wasted: SimDuration,
        backoff: SimDuration,
    },
    // ---- scheduler decisions ----
    DelayWait {
        node: u32,
        until: SimTime,
    },
    ElbDecline {
        node: u32,
    },
    CadGate {
        node: u32,
        until: SimTime,
    },
    Speculate {
        task: u32,
        twin: u32,
    },
    // ---- network flows ----
    FlowStart {
        flow: u64,
    },
    FlowEnd {
        flow: u64,
        bytes: Bytes,
        dur: SimDuration,
    },
    // ---- Lustre DLM ----
    LockAcquire {
        file: u64,
        client: u32,
    },
    LockRelease {
        file: u64,
    },
    LockRevoke {
        file: u64,
        dirty_bytes: Bytes,
    },
    LockWaitStart {
        task: u32,
    },
    LockWaitEnd {
        task: u32,
    },
    /// A fixed-latency lock wait known at emission time (revocation round
    /// trip): covers `[at, at + dur]`.
    LockWaitFor {
        task: u32,
        dur: SimDuration,
    },
    // ---- SSD write buffer / GC ----
    GcStart {
        node: u32,
    },
    GcEnd {
        node: u32,
    },
    BufFull {
        node: u32,
    },
    BufDrained {
        node: u32,
    },
    // ---- faults and recovery ----
    FaultInjected {
        kind: &'static str,
        node: u32,
    },
    NodeDown {
        node: u32,
    },
    NodeUp {
        node: u32,
    },
    Blacklisted {
        node: u32,
    },
    BlocksLost {
        node: u32,
        blocks: u64,
    },
    Rehost {
        from: u32,
        to: u32,
    },
    GhostsSpawned {
        node: u32,
        count: u32,
    },
}

impl TraceEvent {
    /// Stable machine name of the variant (events.jsonl `type` field). One
    /// `match` with no catch-all (clippy rejects one), so a new variant
    /// cannot be exported without a name.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::JobArrived { .. } => "job_arrived",
            TraceEvent::JobAdmitted { .. } => "job_admitted",
            TraceEvent::JobStart { .. } => "job_start",
            TraceEvent::JobEnd { .. } => "job_end",
            TraceEvent::StageStart { .. } => "stage_start",
            TraceEvent::TaskQueued { .. } => "task_queued",
            TraceEvent::TaskLaunched { .. } => "task_launched",
            TraceEvent::TaskFinished { .. } => "task_finished",
            TraceEvent::TaskRetried { .. } => "task_retried",
            TraceEvent::DelayWait { .. } => "delay_wait",
            TraceEvent::ElbDecline { .. } => "elb_decline",
            TraceEvent::CadGate { .. } => "cad_gate",
            TraceEvent::Speculate { .. } => "speculate",
            TraceEvent::FlowStart { .. } => "flow_start",
            TraceEvent::FlowEnd { .. } => "flow_end",
            TraceEvent::LockAcquire { .. } => "lock_acquire",
            TraceEvent::LockRelease { .. } => "lock_release",
            TraceEvent::LockRevoke { .. } => "lock_revoke",
            TraceEvent::LockWaitStart { .. } => "lock_wait_start",
            TraceEvent::LockWaitEnd { .. } => "lock_wait_end",
            TraceEvent::LockWaitFor { .. } => "lock_wait_for",
            TraceEvent::GcStart { .. } => "gc_start",
            TraceEvent::GcEnd { .. } => "gc_end",
            TraceEvent::BufFull { .. } => "buf_full",
            TraceEvent::BufDrained { .. } => "buf_drained",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::NodeDown { .. } => "node_down",
            TraceEvent::NodeUp { .. } => "node_up",
            TraceEvent::Blacklisted { .. } => "blacklisted",
            TraceEvent::BlocksLost { .. } => "blocks_lost",
            TraceEvent::Rehost { .. } => "rehost",
            TraceEvent::GhostsSpawned { .. } => "ghosts_spawned",
        }
    }
}

/// One recorded event: simulated instant + emission sequence number. The
/// sequence number makes equal-time events totally ordered, so sorting the
/// log is a no-op and serialization is reproducible.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    pub at: SimTime,
    pub seq: u64,
    pub ev: TraceEvent,
}

/// Append-only in-memory event log. No host I/O, no host clocks.
#[derive(Debug, Default)]
pub struct TraceSink {
    seq: u64,
    events: Vec<TimedEvent>,
}

impl TraceSink {
    pub fn emit(&mut self, at: SimTime, ev: TraceEvent) {
        self.events.push(TimedEvent {
            at,
            seq: self.seq,
            ev,
        });
        self.seq += 1;
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Drain the log (sequence numbering continues across takes).
    pub fn take(&mut self) -> Vec<TimedEvent> {
        std::mem::take(&mut self.events)
    }
}

/// The sink as shared by every substrate of one engine. The simulation event
/// loop is single-threaded (the parallel UDF pool never traces), so a
/// single-threaded shared cell is sufficient and keeps emission cheap.
pub type SharedSink = Rc<RefCell<TraceSink>>;

pub fn shared() -> SharedSink {
    Rc::new(RefCell::new(TraceSink::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_keeps_everything_in_emission_order() {
        let mut s = TraceSink::default();
        s.emit(
            SimTime::from_secs_f64(1.0),
            TraceEvent::FlowStart { flow: 7 },
        );
        s.emit(
            SimTime::from_secs_f64(1.0),
            TraceEvent::LockAcquire { file: 3, client: 2 },
        );
        let evs = s.take();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert!(s.is_empty());
    }
}
