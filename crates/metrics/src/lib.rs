//! # memres-metrics — the deterministic time-series plane (DESIGN.md §4.16)
//!
//! A [`Recorder`] accumulates sim-time-stamped gauge samples into
//! fixed-capacity ring series plus one [`LogHistogram`] per series. The
//! engine's periodic sampler (a `MetricsSample` DES event in
//! `memres-core::world`) snapshots gauges from every layer each interval;
//! everything here is a pure function of the sample sequence — no wall
//! clock, no allocation-order dependence — so exports are byte-identical
//! across executor thread counts and repeated runs.
//!
//! Exports live in [`export`] (OpenMetrics text, `timeseries.csv`, and a
//! self-contained HTML dashboard with inline SVG sparklines); run-to-run
//! regression diffing lives in [`diff`].

pub mod catalog;
pub mod diff;
pub mod export;

use memres_des::stats::LogHistogram;
use memres_des::time::{SimDuration, SimTime};

/// Sampler configuration. Carried in `EngineConfig`; the world schedules a
/// `MetricsSample` event every `interval` of sim time while a job or stream
/// is in flight.
#[derive(Clone, Copy, Debug)]
pub struct MetricsConfig {
    /// Sim-time gap between samples.
    pub interval: SimDuration,
    /// Ring capacity per series. When a series fills, it compacts: every
    /// second stored point is dropped and the keep-stride doubles, so the
    /// series always spans the whole run at bounded memory.
    pub ring: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            interval: SimDuration::from_millis(500),
            ring: 512,
        }
    }
}

impl MetricsConfig {
    pub fn validate(&self) -> Result<(), String> {
        if self.interval <= SimDuration::ZERO {
            return Err("metrics.interval must be positive".to_string());
        }
        if self.ring < 8 {
            return Err(format!(
                "metrics.ring must be at least 8, got {}",
                self.ring
            ));
        }
        Ok(())
    }
}

/// One recorded series: a decimating ring of `(t, value)` points plus a
/// log-bucketed histogram over every sample ever recorded (the histogram
/// never decimates).
#[derive(Clone, Debug)]
pub struct Series {
    pub name: &'static str,
    /// Instance for labeled series (rack index, tenant index).
    pub instance: Option<u32>,
    pub hist: LogHistogram,
    points: Vec<(SimTime, f64)>,
    cap: usize,
    /// Only every `stride`-th offered point is stored (doubles on compaction).
    stride: u64,
    /// Points offered so far (stored or not).
    offered: u64,
    last_value: f64,
}

impl Series {
    fn new(name: &'static str, instance: Option<u32>, cap: usize) -> Self {
        Series {
            name,
            instance,
            hist: LogHistogram::new(),
            points: Vec::new(),
            cap,
            stride: 1,
            offered: 0,
            last_value: 0.0,
        }
    }

    fn push(&mut self, t: SimTime, v: f64) {
        self.hist.record(v);
        self.last_value = v;
        if self.offered.is_multiple_of(self.stride) {
            self.points.push((t, v));
            if self.points.len() >= self.cap {
                // Compact: keep even-indexed points, double the stride. A
                // pure function of the sample sequence, so decimation is as
                // deterministic as the samples themselves.
                let kept: Vec<(SimTime, f64)> = self.points.iter().step_by(2).copied().collect();
                self.points = kept;
                self.stride *= 2;
            }
        }
        self.offered += 1;
    }

    /// Stored (possibly decimated) points, ascending in time.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Most recent sample value (0.0 before any sample).
    pub fn last(&self) -> f64 {
        self.last_value
    }

    /// Total samples recorded (before decimation).
    pub fn samples(&self) -> u64 {
        self.offered
    }
}

/// The accumulator behind the periodic sampler. Series are created on first
/// sample and kept in first-sample order; exports re-sort by catalog order,
/// so the export byte stream does not depend on which gauge happened to be
/// sampled first.
#[derive(Clone, Debug)]
pub struct Recorder {
    cfg: MetricsConfig,
    series: Vec<Series>,
    /// Sampler rounds completed.
    ticks: u64,
}

impl Recorder {
    pub fn new(cfg: MetricsConfig) -> Self {
        Recorder {
            cfg,
            series: Vec::new(),
            ticks: 0,
        }
    }

    pub fn interval(&self) -> SimDuration {
        self.cfg.interval
    }

    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Count one completed sampler round.
    pub fn tick(&mut self) {
        self.ticks += 1;
    }

    /// Record one gauge sample. `name` must be registered in [`catalog`]
    /// (debug-asserted); `instance` labels multi-instance series.
    pub fn sample(&mut self, name: &'static str, instance: Option<u32>, t: SimTime, v: f64) {
        debug_assert!(
            catalog::def(name).is_some(),
            "unregistered series name {name}"
        );
        let idx = self
            .series
            .iter()
            .position(|s| s.name == name && s.instance == instance);
        let s = match idx {
            Some(i) => &mut self.series[i],
            None => {
                self.series.push(Series::new(name, instance, self.cfg.ring));
                self.series.last_mut().expect("just pushed")
            }
        };
        s.push(t, v);
    }

    /// All series in catalog order (instances ascending within a name) —
    /// the order every exporter walks.
    pub fn sorted_series(&self) -> Vec<&Series> {
        let mut out: Vec<&Series> = self.series.iter().collect();
        out.sort_by_key(|s| (catalog::order(s.name), s.instance));
        out
    }

    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn recorder_accumulates_and_sorts_by_catalog_order() {
        let mut r = Recorder::new(MetricsConfig::default());
        // Sampled out of catalog order on purpose.
        r.sample("net_active_flows", None, t(0.0), 2.0);
        r.sample("engine_queue_len", None, t(0.0), 7.0);
        r.sample("net_rack_up_util", Some(1), t(0.0), 0.5);
        r.sample("net_rack_up_util", Some(0), t(0.0), 0.25);
        r.tick();
        let names: Vec<_> = r
            .sorted_series()
            .iter()
            .map(|s| (s.name, s.instance))
            .collect();
        assert_eq!(
            names,
            vec![
                ("engine_queue_len", None),
                ("net_active_flows", None),
                ("net_rack_up_util", Some(0)),
                ("net_rack_up_util", Some(1)),
            ]
        );
        assert_eq!(r.ticks(), 1);
    }

    #[test]
    fn ring_decimates_but_spans_the_run() {
        let cfg = MetricsConfig {
            ring: 8,
            ..MetricsConfig::default()
        };
        let mut r = Recorder::new(cfg);
        for i in 0..100u64 {
            r.sample("engine_queue_len", None, t(i as f64), i as f64);
        }
        let s = &r.sorted_series()[0];
        assert!(s.points().len() < 8, "ring must stay under capacity");
        assert_eq!(s.samples(), 100);
        // Histogram never decimates; the ring still starts at t=0.
        assert_eq!(s.hist.count(), 100);
        assert_eq!(s.points()[0].0, t(0.0));
        assert_eq!(s.last(), 99.0);
        // Points stay ascending in time.
        for w in s.points().windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn decimation_is_a_pure_function_of_the_sequence() {
        let cfg = MetricsConfig {
            ring: 16,
            ..MetricsConfig::default()
        };
        let run = || {
            let mut r = Recorder::new(cfg);
            for i in 0..1000u64 {
                r.sample("core_busy_slots", None, t(i as f64 * 0.5), (i % 17) as f64);
            }
            r.sorted_series()[0].points().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn config_validation() {
        assert!(MetricsConfig::default().validate().is_ok());
        let bad = MetricsConfig {
            interval: SimDuration::ZERO,
            ..MetricsConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = MetricsConfig {
            ring: 2,
            ..MetricsConfig::default()
        };
        assert!(bad.validate().is_err());
    }
}
