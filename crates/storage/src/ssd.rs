//! SSD model with write buffer, clean-block pool, and garbage collection.
//!
//! §IV-D of the paper profiles ShuffleMapTasks writing a SATA SSD and finds
//! three regimes (Fig 8d): early tasks ride the device write buffer and
//! pre-erased ("clean") blocks and finish fast; once the buffer fills and
//! clean blocks are depleted, delayed writes and garbage collection activate
//! and interfere; and because Spark keeps inserting tasks regardless, the
//! deepening queue *further suppresses GC*, producing up to 18× spread
//! between the fastest and slowest writers. CAD (§VI-B) works by inserting
//! dispatch gaps that let GC reclaim blocks — so the model must make reclaim
//! rate a decreasing function of write pressure, and recover when idle.
//!
//! Implementation: two processor-shared channels (read/write) whose
//! capacities are re-derived from fluid internal state (buffer fill, clean
//! pool) on a fixed model tick.

use crate::device::{Device, DualChannel, IoDone, Op};
use memres_des::time::{SimDuration, SimTime};
use memres_des::Bytes;

#[derive(Clone, Debug)]
pub struct SsdConfig {
    /// Sustained program (flash write) bandwidth with clean blocks available.
    /// Hyperion's SATA SSD: 387 MB/s.
    pub write_bw_clean: f64,
    /// Read bandwidth with no GC interference: 507 MB/s.
    pub read_bw: f64,
    /// Read bandwidth while GC is active (moderate interference per §IV-D).
    pub read_bw_gc: f64,
    /// DRAM write-buffer capacity.
    pub buffer_bytes: f64,
    /// Rate at which the buffer accepts host writes while it has space.
    pub buffer_accept_bw: f64,
    /// Over-provisioned clean-block pool (bytes).
    pub clean_pool_bytes: f64,
    /// Clean fraction below which GC kicks in and programming degrades.
    pub gc_watermark: f64,
    /// GC reclaim rate when the device is idle.
    pub gc_reclaim_idle: f64,
    /// Queue-pressure suppression: reclaim = idle_rate / (1 + alpha * depth).
    pub gc_pressure_alpha: f64,
    /// Extra flash traffic per host byte as the pool empties (write
    /// amplification grows from 1.0 at full pool to 1 + k at empty).
    pub write_amp_k: f64,
    /// Model integration step.
    pub tick: SimDuration,
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self::hyperion()
    }
}

impl SsdConfig {
    /// Calibrated to the Hyperion SATA SSD (387/507 MB/s peak W/R).
    pub fn hyperion() -> Self {
        const MB: f64 = 1024.0 * 1024.0;
        SsdConfig {
            write_bw_clean: 387.0 * MB,
            read_bw: 507.0 * MB,
            read_bw_gc: 360.0 * MB,
            buffer_bytes: 512.0 * MB,
            buffer_accept_bw: 1400.0 * MB,
            clean_pool_bytes: 10.0 * 1024.0 * MB,
            gc_watermark: 0.30,
            gc_reclaim_idle: 300.0 * MB,
            gc_pressure_alpha: 0.12,
            write_amp_k: 0.7,
            tick: SimDuration::from_millis(100),
        }
    }

    /// Shrunken variant for unit tests (small pool, fast transitions).
    pub fn test_small() -> Self {
        SsdConfig {
            write_bw_clean: 100.0,
            read_bw: 200.0,
            read_bw_gc: 120.0,
            buffer_bytes: 50.0,
            buffer_accept_bw: 400.0,
            clean_pool_bytes: 300.0,
            gc_watermark: 0.3,
            gc_reclaim_idle: 30.0,
            gc_pressure_alpha: 0.5,
            write_amp_k: 2.0,
            tick: SimDuration::from_millis(100),
        }
    }
}

pub struct Ssd {
    cfg: SsdConfig,
    ch: DualChannel,
    /// Bytes sitting in the DRAM write buffer awaiting programming.
    buffer_fill: f64,
    /// Clean (erased, immediately programmable) bytes remaining.
    clean_bytes: f64,
    /// Host-write bytes accepted as of the last tick (for inflow deltas).
    accepted_marker: f64,
    next_tick: SimTime,
    /// Trace sink plus the node id to stamp on events (DESIGN.md §4.11).
    tracer: Option<(u32, memres_trace::SharedSink)>,
    /// Last observed GC-active state, for edge-triggered GcStart/GcEnd.
    gc_traced: bool,
    /// Last observed buffer-full state, for edge-triggered BufFull/BufDrained.
    buf_traced: bool,
}

impl Ssd {
    pub fn new(cfg: SsdConfig) -> Self {
        let ch = DualChannel::new(cfg.read_bw, cfg.buffer_accept_bw);
        let clean = cfg.clean_pool_bytes;
        Ssd {
            cfg,
            ch,
            buffer_fill: 0.0,
            clean_bytes: clean,
            accepted_marker: 0.0,
            next_tick: SimTime::ZERO,
            tracer: None,
            gc_traced: false,
            buf_traced: false,
        }
    }

    pub fn hyperion() -> Self {
        Ssd::new(SsdConfig::hyperion())
    }

    pub fn clean_fraction(&self) -> f64 {
        self.clean_bytes / self.cfg.clean_pool_bytes
    }

    pub fn gc_active(&self) -> bool {
        self.clean_fraction() < self.cfg.gc_watermark
    }

    pub fn buffer_fill(&self) -> f64 {
        self.buffer_fill
    }

    /// Effective flash-programming rate for the *current* internal state.
    fn program_rate(&self, write_depth: usize) -> f64 {
        let frac = self.clean_fraction();
        if frac >= self.cfg.gc_watermark {
            self.cfg.write_bw_clean
        } else {
            // Below the watermark programming is increasingly bound by
            // reclaim; interpolate from full speed at the watermark down to
            // the (pressure-suppressed) reclaim rate at an empty pool.
            let reclaim = self.reclaim_rate(write_depth);
            let t = (frac / self.cfg.gc_watermark).clamp(0.0, 1.0);
            reclaim + (self.cfg.write_bw_clean - reclaim) * t
        }
    }

    fn reclaim_rate(&self, write_depth: usize) -> f64 {
        self.cfg.gc_reclaim_idle / (1.0 + self.cfg.gc_pressure_alpha * write_depth as f64)
    }

    fn write_amp(&self) -> f64 {
        1.0 + self.cfg.write_amp_k * (1.0 - self.clean_fraction())
    }

    /// Whether internal state still needs ticking.
    fn active(&self) -> bool {
        self.ch.queue_depth() > 0
            || self.buffer_fill > 1.0
            || self.clean_bytes < self.cfg.clean_pool_bytes - 1.0
    }

    /// Integrate fluid state across one tick and re-derive channel rates.
    fn run_tick(&mut self, now: SimTime) {
        let dt = self.cfg.tick.as_secs_f64();
        let depth = self.ch.write.load();

        // Host bytes accepted into the buffer since the previous tick.
        let accepted_total = self.ch.write.work_done;
        let inflow = (accepted_total - self.accepted_marker).max(0.0);
        self.accepted_marker = accepted_total;

        // Flash programming drains the buffer.
        let program_possible = self.program_rate(depth) * dt;
        let program_actual = (self.buffer_fill + inflow).min(program_possible);
        self.buffer_fill =
            (self.buffer_fill + inflow - program_actual).clamp(0.0, self.cfg.buffer_bytes);

        // Clean pool: consumed by programming (amplified), replenished by GC.
        let consumed = program_actual * self.write_amp();
        let reclaimed = self.reclaim_rate(depth) * dt;
        self.clean_bytes =
            (self.clean_bytes - consumed + reclaimed).clamp(0.0, self.cfg.clean_pool_bytes);

        self.trace_transitions(now);

        // Re-derive channel capacities for the next interval.
        let accept = if self.buffer_fill >= self.cfg.buffer_bytes * 0.98 {
            self.program_rate(depth)
        } else {
            self.cfg.buffer_accept_bw
        };
        self.ch.write.set_capacity(now, accept.max(1.0));
        let read_bw = if self.gc_active() {
            self.cfg.read_bw_gc
        } else {
            self.cfg.read_bw
        };
        self.ch.read.set_capacity(now, read_bw);
    }

    /// Edge-triggered GC / buffer-fill trace events (called once per tick).
    /// Buffer "full" uses the same 98% threshold that throttles host accepts;
    /// "drained" fires once the buffer is essentially empty again.
    fn trace_transitions(&mut self, now: SimTime) {
        let Some((node, sink)) = &self.tracer else {
            return;
        };
        let node = *node;
        let gc = self.clean_fraction() < self.cfg.gc_watermark;
        if gc != self.gc_traced {
            let ev = if gc {
                memres_trace::TraceEvent::GcStart { node }
            } else {
                memres_trace::TraceEvent::GcEnd { node }
            };
            sink.borrow_mut().emit(now, ev);
            self.gc_traced = gc;
        }
        let full = self.buffer_fill >= self.cfg.buffer_bytes * 0.98;
        let drained = self.buffer_fill <= 1.0;
        if full && !self.buf_traced {
            sink.borrow_mut()
                .emit(now, memres_trace::TraceEvent::BufFull { node });
            self.buf_traced = true;
        } else if drained && self.buf_traced {
            sink.borrow_mut()
                .emit(now, memres_trace::TraceEvent::BufDrained { node });
            self.buf_traced = false;
        }
    }

    fn catch_up_ticks(&mut self, now: SimTime) {
        while self.next_tick <= now {
            let t = self.next_tick;
            self.run_tick(t);
            self.next_tick = t + self.cfg.tick;
        }
    }
}

impl Device for Ssd {
    fn submit(&mut self, now: SimTime, op: Op, bytes: f64, tag: u64) {
        self.catch_up_ticks(now);
        if self.next_tick == SimTime::ZERO || !self.active() {
            // (Re)arm the tick train when waking from idle.
            self.next_tick = now + self.cfg.tick;
        }
        self.ch.submit(now, op, Bytes(bytes), tag);
    }

    fn poll(&mut self, now: SimTime) -> Vec<IoDone> {
        self.catch_up_ticks(now);
        self.ch.poll(now)
    }

    fn next_event(&self) -> Option<SimTime> {
        let ps = self.ch.next_event();
        if self.active() {
            Some(ps.map_or(self.next_tick, |t| t.min(self.next_tick)))
        } else {
            ps
        }
    }

    fn queue_depth(&self) -> usize {
        self.ch.queue_depth()
    }

    fn read_bandwidth(&self) -> f64 {
        self.cfg.read_bw
    }

    fn current_read_bandwidth(&self) -> f64 {
        if self.gc_active() {
            self.cfg.read_bw_gc
        } else {
            self.cfg.read_bw
        }
    }

    fn gc_active(&self) -> bool {
        Ssd::gc_active(self)
    }

    fn buffer_fill(&self) -> f64 {
        Ssd::buffer_fill(self)
    }

    /// Degradation fault: scale every bandwidth parameter by `factor`. The
    /// new rates apply immediately (channel capacities are reset here, not
    /// just at the next model tick); buffer/pool *capacities* are unchanged.
    fn degrade(&mut self, now: SimTime, factor: f64) {
        let f = factor.clamp(1e-6, 1.0);
        self.catch_up_ticks(now);
        self.cfg.write_bw_clean *= f;
        self.cfg.read_bw *= f;
        self.cfg.read_bw_gc *= f;
        self.cfg.buffer_accept_bw *= f;
        self.cfg.gc_reclaim_idle *= f;
        let depth = self.ch.write.load();
        let accept = if self.buffer_fill >= self.cfg.buffer_bytes * 0.98 {
            self.program_rate(depth)
        } else {
            self.cfg.buffer_accept_bw
        };
        self.ch.write.set_capacity(now, accept.max(1.0));
        self.ch
            .read
            .set_capacity(now, self.current_read_bandwidth().max(1.0));
    }

    fn set_tracer(&mut self, node: u32, sink: memres_trace::SharedSink) {
        self.tracer = Some((node, sink));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Submit writes back-to-back with `gap` seconds between completions and
    /// record each write's latency.
    fn sequential_writes(ssd: &mut Ssd, count: usize, bytes: f64, gap: f64) -> Vec<f64> {
        let mut latencies = Vec::new();
        #[allow(
            unused_assignments,
            reason = "the last iteration's `now += gap` is never read"
        )]
        let mut now = SimTime::ZERO;
        for i in 0..count {
            ssd.submit(now, Op::Write, bytes, i as u64);
            let start = now;
            loop {
                let t = ssd.next_event().expect("ssd should be active");
                let done = ssd.poll(t);
                now = t;
                if done.iter().any(|d| d.tag == i as u64) {
                    break;
                }
            }
            latencies.push(now.since(start).as_secs_f64());
            now += SimDuration::from_secs_f64(gap);
        }
        latencies
    }

    #[test]
    fn fresh_device_writes_at_burst_rate() {
        let mut ssd = Ssd::new(SsdConfig::test_small());
        // 40 bytes at 400/s accept: 0.1 s
        let lat = sequential_writes(&mut ssd, 1, 40.0, 0.0);
        assert!((lat[0] - 0.1).abs() < 0.02, "latency {}", lat[0]);
    }

    #[test]
    fn sustained_writes_degrade_then_collapse() {
        let mut ssd = Ssd::new(SsdConfig::test_small());
        // Total = 40 * 60 = 2400 bytes >> buffer(50) + pool(500): must push
        // the device through buffer-full and GC-bound regimes.
        let lat = sequential_writes(&mut ssd, 60, 40.0, 0.0);
        let early: f64 = lat[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = lat[55..].iter().sum::<f64>() / 5.0;
        assert!(
            late > early * 3.0,
            "expected ≥3x degradation, early={early:.3}s late={late:.3}s"
        );
    }

    #[test]
    fn idle_gaps_preserve_performance() {
        // CAD's mechanism: the same byte volume written with idle gaps keeps
        // the clean pool healthier than back-to-back writes.
        let cfg = SsdConfig::test_small();
        let mut packed = Ssd::new(cfg.clone());
        let lat_packed = sequential_writes(&mut packed, 40, 40.0, 0.0);
        let mut gapped = Ssd::new(cfg);
        let lat_gapped = sequential_writes(&mut gapped, 40, 40.0, 1.0);
        let p: f64 = lat_packed[35..].iter().sum::<f64>();
        let g: f64 = lat_gapped[35..].iter().sum::<f64>();
        assert!(g < p, "gapped tail {g:.3}s should beat packed tail {p:.3}s");
    }

    #[test]
    fn pool_recovers_when_idle() {
        let mut ssd = Ssd::new(SsdConfig::test_small());
        sequential_writes(&mut ssd, 30, 40.0, 0.0);
        assert!(ssd.clean_fraction() < 0.5);
        // Drain all internal ticks with no new work: pool refills.
        while let Some(t) = ssd.next_event() {
            ssd.poll(t);
        }
        assert!(
            ssd.clean_fraction() > 0.99,
            "pool at {}",
            ssd.clean_fraction()
        );
        assert!(ssd.buffer_fill() < 1.0);
    }

    #[test]
    fn reads_slow_down_under_gc() {
        let cfg = SsdConfig::test_small();
        let mut ssd = Ssd::new(cfg.clone());
        // Exhaust the pool.
        sequential_writes(&mut ssd, 40, 40.0, 0.0);
        assert!(ssd.gc_active());
        let now = ssd.next_event().unwrap();
        ssd.poll(now);
        ssd.submit(now, Op::Read, 120.0, 999);
        let done_at = loop {
            let t = ssd.next_event().unwrap();
            if ssd.poll(t).iter().any(|d| d.tag == 999) {
                break t;
            }
        };
        let took = done_at.since(now).as_secs_f64();
        let clean_time = 120.0 / cfg.read_bw;
        assert!(took > clean_time * 1.2, "read under GC took {took}s");
    }

    #[test]
    fn deep_queue_suppresses_reclaim() {
        let cfg = SsdConfig::test_small();
        let ssd = Ssd::new(cfg);
        assert!(ssd.reclaim_rate(0) > ssd.reclaim_rate(10) * 3.0);
    }

    #[test]
    fn degrade_scales_io_latency() {
        let time_one_read = |ssd: &mut Ssd, start: SimTime| -> f64 {
            ssd.submit(start, Op::Read, 100.0, 7);
            loop {
                let t = ssd.next_event().unwrap();
                if ssd.poll(t).iter().any(|d| d.tag == 7) {
                    break t.since(start).as_secs_f64();
                }
            }
        };
        let mut healthy = Ssd::new(SsdConfig::test_small());
        let base = time_one_read(&mut healthy, SimTime::ZERO);
        let mut degraded = Ssd::new(SsdConfig::test_small());
        degraded.degrade(SimTime::ZERO, 0.5);
        let slow = time_one_read(&mut degraded, SimTime::ZERO);
        assert!(
            (slow - base * 2.0).abs() < base * 0.1,
            "halved bandwidth should double latency: base={base:.3}s slow={slow:.3}s"
        );
        assert!((degraded.cfg.write_bw_clean - 50.0).abs() < 1e-9);
    }
}
