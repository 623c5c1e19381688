//! Per-node speed variation.
//!
//! §V-B: "Although the compute nodes in a compute-centric environment are
//! homogeneous, there exist performance variations among compute nodes due to
//! the skew of workloads over time. As a result fast nodes tend to be
//! assigned with more tasks by the scheduler" — which then skews the
//! intermediate-data distribution (Fig 12). We model a multiplicative speed
//! factor per node: task compute time = base_time / factor.

use crate::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How node speeds are drawn.
#[derive(Clone, Debug)]
pub enum SpeedModel {
    /// All nodes run at exactly 1.0× — the idealized homogeneous cluster.
    Homogeneous,
    /// Factors drawn uniformly from `[lo, hi]` once at startup.
    Uniform { lo: f64, hi: f64 },
    /// A fraction of nodes is slowed (background interference); the rest run
    /// at full speed. `slow_frac` in `[0, 1]`, `slow_factor` < 1.
    TwoClass { slow_frac: f64, slow_factor: f64 },
    /// Lognormal-ish dispersion around 1.0 resampled every `period_secs`,
    /// modeling time-varying workload skew. `sigma` controls spread.
    Fluctuating { sigma: f64, period_secs: f64 },
}

/// Materialized per-node speed factors, resampled on demand.
pub struct SpeedSampler {
    model: SpeedModel,
    rng: SmallRng,
    factors: Vec<f64>,
}

impl SpeedSampler {
    pub fn new(model: SpeedModel, nodes: u32, seed: u64) -> Self {
        let mut s = SpeedSampler {
            model,
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_c1a5),
            factors: vec![1.0; nodes as usize],
        };
        s.resample();
        s
    }

    /// Seconds between resamples, or `None` for static models.
    pub fn resample_period(&self) -> Option<f64> {
        match self.model {
            SpeedModel::Fluctuating { period_secs, .. } => Some(period_secs),
            _ => None,
        }
    }

    /// Redraw all factors (called at startup and, for `Fluctuating`, on the
    /// resample period).
    pub fn resample(&mut self) {
        let n = self.factors.len();
        match self.model {
            SpeedModel::Homogeneous => {
                self.factors.iter_mut().for_each(|f| *f = 1.0);
            }
            SpeedModel::Uniform { lo, hi } => {
                assert!(lo > 0.0 && hi >= lo);
                for f in &mut self.factors {
                    *f = self.rng.gen_range(lo..=hi);
                }
            }
            SpeedModel::TwoClass {
                slow_frac,
                slow_factor,
            } => {
                assert!((0.0..=1.0).contains(&slow_frac) && slow_factor > 0.0);
                let slow_count = ((n as f64) * slow_frac).round() as usize;
                // Deterministic choice of which nodes are slow: the tail of a
                // seeded shuffle, so reruns are stable.
                let mut idx: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    let j = self.rng.gen_range(0..=i);
                    idx.swap(i, j);
                }
                for (k, &i) in idx.iter().enumerate() {
                    self.factors[i] = if k < slow_count { slow_factor } else { 1.0 };
                }
            }
            SpeedModel::Fluctuating { sigma, .. } => {
                assert!(sigma >= 0.0);
                for f in &mut self.factors {
                    // Approximate lognormal: exp(sigma * z), z ~ N(0,1) via
                    // sum of uniforms (Irwin–Hall, 12 terms), clamped to keep
                    // the model sane.
                    let z: f64 = (0..12).map(|_| self.rng.gen::<f64>()).sum::<f64>() - 6.0;
                    *f = (sigma * z).exp().clamp(0.4, 2.5);
                }
            }
        }
    }

    pub fn factor(&self, node: NodeId) -> f64 {
        self.factors[node.index()]
    }

    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Moderate dispersion: the ~2× head-to-tail workload difference of
    /// Fig 12.
    const FLUCTUATING: SpeedModel = SpeedModel::Fluctuating {
        sigma: 0.25,
        period_secs: 30.0,
    };

    #[test]
    fn homogeneous_is_all_ones() {
        let s = SpeedSampler::new(SpeedModel::Homogeneous, 10, 1);
        assert!(s.factors().iter().all(|&f| f == 1.0));
        assert_eq!(s.resample_period(), None);
    }

    #[test]
    fn uniform_within_bounds_and_deterministic() {
        let a = SpeedSampler::new(SpeedModel::Uniform { lo: 0.5, hi: 1.5 }, 100, 42);
        let b = SpeedSampler::new(SpeedModel::Uniform { lo: 0.5, hi: 1.5 }, 100, 42);
        assert_eq!(a.factors(), b.factors());
        assert!(a.factors().iter().all(|&f| (0.5..=1.5).contains(&f)));
        // Not all identical.
        assert!(a.factors().windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn two_class_has_expected_slow_count() {
        let s = SpeedSampler::new(
            SpeedModel::TwoClass {
                slow_frac: 0.3,
                slow_factor: 0.5,
            },
            100,
            7,
        );
        let slow = s.factors().iter().filter(|&&f| f == 0.5).count();
        assert_eq!(slow, 30);
    }

    #[test]
    fn fluctuating_changes_on_resample() {
        let mut s = SpeedSampler::new(FLUCTUATING, 50, 9);
        let before = s.factors().to_vec();
        s.resample();
        assert_ne!(before, s.factors());
        assert!(s.factors().iter().all(|&f| (0.4..=2.5).contains(&f)));
        assert_eq!(s.resample_period(), Some(30.0));
    }

    #[test]
    fn fluctuating_dispersion_gives_load_skew_headroom() {
        // The mechanism behind Fig 12 needs a meaningful fast/slow spread.
        let s = SpeedSampler::new(FLUCTUATING, 100, 3);
        let max = s.factors().iter().cloned().fold(0.0, f64::max);
        let min = s.factors().iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 1.5, "spread too small: {max}/{min}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = SpeedSampler::new(FLUCTUATING, 20, 1);
        let b = SpeedSampler::new(FLUCTUATING, 20, 2);
        assert_ne!(a.factors(), b.factors());
    }
}
