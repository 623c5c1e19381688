//! Block-device models.
//!
//! All devices expose the same polled interface: submit tagged read/write
//! requests, ask for the next internal event time, poll completions. Service
//! is processor-shared per direction — the fluid analogue of many concurrent
//! I/O streams splitting device bandwidth.

// R4 (DESIGN.md 4.10): a bare panic here turns an injected fault or a
// bookkeeping slip into a crashed process; each one left carries an
// `#[expect(…, reason)]` saying why its invariant holds.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use memres_des::ps::PsResource;
use memres_des::time::SimTime;
use memres_des::Bytes;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    Read,
    Write,
}

/// A finished device request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoDone {
    pub op: Op,
    pub tag: u64,
}

/// Polled block-device interface (object-safe; tags are opaque u64s).
pub trait Device {
    /// Submit a request of `bytes`. Completion arrives via [`Device::poll`].
    fn submit(&mut self, now: SimTime, op: Op, bytes: f64, tag: u64);
    /// Advance internal state to `now` and take due completions.
    fn poll(&mut self, now: SimTime) -> Vec<IoDone>;
    /// Next instant at which internal state changes (completion or model
    /// tick), or `None` when fully idle.
    fn next_event(&self) -> Option<SimTime>;
    /// Queue depth (in-flight requests), used by congestion observers.
    fn queue_depth(&self) -> usize;
    /// Peak sequential read bandwidth.
    fn read_bandwidth(&self) -> f64;
    /// Read bandwidth given current internal state (e.g. SSD GC); defaults
    /// to the peak value.
    fn current_read_bandwidth(&self) -> f64 {
        self.read_bandwidth()
    }
    /// True while internal housekeeping (e.g. SSD garbage collection) is
    /// degrading the device. Devices without such a mode report false.
    fn gc_active(&self) -> bool {
        false
    }
    /// Fill fraction of the device's internal write buffer in [0, 1]
    /// (metrics sampling); 0.0 for devices without one.
    fn buffer_fill(&self) -> f64 {
        0.0
    }
    /// Permanently scale the device's bandwidth by `factor` in `(0, 1]` —
    /// a fault-injection hook (worn flash, failing channel). Devices without
    /// a degradation model ignore it.
    fn degrade(&mut self, _now: SimTime, _factor: f64) {}
    /// Attach a trace sink, tagging emitted events with `node`. Devices with
    /// no internal state transitions worth tracing ignore it.
    fn set_tracer(&mut self, _node: u32, _sink: memres_trace::SharedSink) {}
}

/// Two independent PS channels (read + write) with fixed capacities — the
/// shape shared by RAMDisk and HDD (and the SSD's steady "clean" mode).
pub(crate) struct DualChannel {
    pub read: PsResource<u64>,
    pub write: PsResource<u64>,
}

impl DualChannel {
    pub fn new(read_bw: f64, write_bw: f64) -> Self {
        DualChannel {
            read: PsResource::new(read_bw),
            write: PsResource::new(write_bw),
        }
    }

    pub fn submit(&mut self, now: SimTime, op: Op, bytes: Bytes, tag: u64) {
        let bytes = bytes.get();
        match op {
            Op::Read => self.read.add(now, bytes, tag),
            Op::Write => self.write.add(now, bytes, tag),
        };
    }

    pub fn poll(&mut self, now: SimTime) -> Vec<IoDone> {
        let mut out: Vec<IoDone> = self
            .read
            .poll(now)
            .into_iter()
            .map(|tag| IoDone { op: Op::Read, tag })
            .collect();
        out.extend(
            self.write
                .poll(now)
                .into_iter()
                .map(|tag| IoDone { op: Op::Write, tag }),
        );
        out
    }

    pub fn next_event(&self) -> Option<SimTime> {
        match (self.read.next_completion(), self.write.next_completion()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    pub fn queue_depth(&self) -> usize {
        self.read.load() + self.write.load()
    }
}

/// RAMDisk: tmpfs-style storage at memory bandwidth. The paper reserves
/// 32 GB/node for it and backs both HDFS DataNodes and shuffle stores with it
/// in the data-centric configuration.
pub struct RamDisk {
    ch: DualChannel,
    read_bw: f64,
}

impl RamDisk {
    pub fn new(read_bw: f64, write_bw: f64) -> Self {
        RamDisk {
            ch: DualChannel::new(read_bw, write_bw),
            read_bw,
        }
    }

    /// Calibrated default: a slice of one socket's memory bandwidth that the
    /// OS gives tmpfs under concurrent access.
    pub fn hyperion() -> Self {
        RamDisk::new(6.0e9, 4.0e9)
    }
}

impl Device for RamDisk {
    fn submit(&mut self, now: SimTime, op: Op, bytes: f64, tag: u64) {
        self.ch.submit(now, op, Bytes(bytes), tag);
    }
    fn poll(&mut self, now: SimTime) -> Vec<IoDone> {
        self.ch.poll(now)
    }
    fn next_event(&self) -> Option<SimTime> {
        self.ch.next_event()
    }
    fn queue_depth(&self) -> usize {
        self.ch.queue_depth()
    }
    fn read_bandwidth(&self) -> f64 {
        self.read_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(d: &mut dyn Device) -> Vec<(SimTime, IoDone)> {
        let mut out = Vec::new();
        while let Some(t) = d.next_event() {
            for io in d.poll(t) {
                out.push((t, io));
            }
        }
        out
    }

    #[test]
    fn ramdisk_reads_and_writes_are_independent() {
        let mut d = RamDisk::new(100.0, 50.0);
        d.submit(SimTime::ZERO, Op::Read, 100.0, 1);
        d.submit(SimTime::ZERO, Op::Write, 50.0, 2);
        let done = drain(&mut d);
        // Both finish at t=1.0: separate channels, no interference.
        assert_eq!(done.len(), 2);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn queue_depth_tracks_in_flight() {
        let mut d = RamDisk::new(10.0, 10.0);
        assert_eq!(d.queue_depth(), 0);
        d.submit(SimTime::ZERO, Op::Write, 100.0, 1);
        d.submit(SimTime::ZERO, Op::Read, 100.0, 2);
        assert_eq!(d.queue_depth(), 2);
        drain(&mut d);
        assert_eq!(d.queue_depth(), 0);
    }
}
