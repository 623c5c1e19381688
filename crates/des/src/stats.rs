//! Small statistics toolkit used by the metrics layer and the figure harness:
//! percentiles and empirical CDFs.

/// Linear sub-buckets per power-of-two octave (2^[`SUB_SHIFT`]).
const SUBS: usize = 16;
const SUB_SHIFT: u32 = 4;
/// Smallest / largest octave exponents with their own buckets; values
/// outside collapse into the underflow (index 0) / top bucket. 2^-31 s is
/// sub-nanosecond and 2^39 ≈ 5.5e11, so every duration, byte count and
/// queue depth the engine produces lands in a real bucket.
const MIN_EXP: i32 = -31;
const MAX_EXP: i32 = 39;
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
const NBUCKETS: usize = 1 + OCTAVES * SUBS;

/// Exact power of two as f64, built from the IEEE-754 exponent field so the
/// bucket edges are bit-exact on every platform.
fn pow2(e: i32) -> f64 {
    f64::from_bits((((e + 1023) as u64) & 0x7ff) << 52)
}

/// The workspace's one shared quantile structure (DESIGN.md §4.16): an
/// HDR-style log-bucketed histogram — 16 linear sub-buckets per power of
/// two, so any reported quantile is within 1/32 relative error of the exact
/// sample quantile. Bucketing is pure bit manipulation on the IEEE-754
/// representation (no `log2`, no sorting), which keeps it deterministic and
/// O(1) per sample. Tenancy SLO rollups, the speculation median, and the
/// metrics plane all accumulate into this type; the former per-call-site
/// sort-and-index percentile implementations are gone.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; NBUCKETS],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for `v`: 0 for non-positive / non-finite / sub-2^-31
    /// values, otherwise `1 + octave * 16 + sub` with both fields read
    /// straight off the float's bits.
    fn bucket_of(v: f64) -> usize {
        if !v.is_finite() || v <= 0.0 {
            return 0;
        }
        let bits = v.to_bits();
        let raw_exp = ((bits >> 52) & 0x7ff) as i32;
        if raw_exp == 0 {
            return 0; // subnormal: far below MIN_EXP
        }
        let exp = raw_exp - 1023;
        if exp < MIN_EXP {
            return 0;
        }
        if exp > MAX_EXP {
            return NBUCKETS - 1;
        }
        let sub = ((bits >> (52 - SUB_SHIFT)) & (SUBS as u64 - 1)) as usize;
        1 + (exp - MIN_EXP) as usize * SUBS + sub
    }

    /// Midpoint of bucket `idx` — the value quantiles report.
    fn representative(idx: usize) -> f64 {
        if idx == 0 {
            return 0.0;
        }
        let e = MIN_EXP + ((idx - 1) / SUBS) as i32;
        let s = (idx - 1) % SUBS;
        let base = pow2(e);
        let lower = base * (1.0 + s as f64 / SUBS as f64);
        let upper = base * (1.0 + (s + 1) as f64 / SUBS as f64);
        (lower + upper) / 2.0
    }

    pub fn record(&mut self, v: f64) {
        let idx = Self::bucket_of(v);
        self.counts[idx] += 1;
        self.total += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank quantile, `q` in [0, 1]: the midpoint of the bucket
    /// holding the ⌈q·n⌉-th smallest sample (within 1/32 relative error of
    /// the exact order statistic). 0.0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::representative(idx);
            }
        }
        unreachable!("total counted above")
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Build a histogram from a slice in one call (the shape the SLO rollup
    /// and the speculation baseline use).
    pub fn from_values(values: &[f64]) -> Self {
        let mut h = LogHistogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }
}

/// Empirical CDF: sorted (value, cumulative fraction) points suitable for
/// printing figure series like the paper's Fig 12.
#[derive(Clone, Debug)]
pub struct Cdf {
    points: Vec<(f64, f64)>,
}

impl Cdf {
    pub fn from_values(values: &[f64]) -> Self {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in CDF input"));
        let n = v.len() as f64;
        let points = v
            .into_iter()
            .enumerate()
            .map(|(i, x)| (x, (i + 1) as f64 / n))
            .collect();
        Cdf { points }
    }

    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Smallest value v with CDF(v) >= q.
    pub fn value_at(&self, q: f64) -> f64 {
        for &(x, f) in &self.points {
            if f >= q {
                return x;
            }
        }
        self.points.last().map(|p| p.0).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_quantiles_bound_error() {
        let h = LogHistogram::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
        // Nearest-rank: p50 is the 2nd smallest (2.0), p100 the largest.
        // The representative is the bucket midpoint, so the worst case is
        // exactly half a bucket width = 1/32 relative — bound is inclusive.
        assert!((h.median() - 2.0).abs() / 2.0 <= 1.0 / 32.0);
        assert!((h.quantile(1.0) - 4.0).abs() / 4.0 <= 1.0 / 32.0);
        assert!((h.quantile(0.0) - 1.0).abs() / 1.0 <= 1.0 / 32.0);
    }

    #[test]
    fn log_histogram_handles_degenerate_inputs() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        // Non-positive and non-finite samples land in the underflow bucket.
        assert_eq!(h.count(), 3);
        assert_eq!(h.median(), 0.0);
        // A huge value clamps to the top bucket instead of panicking.
        h.record(1e300);
        assert!(h.quantile(1.0) > 1e11);
    }

    #[test]
    fn log_histogram_buckets_are_exact_bit_splits() {
        // 5.0 = 2^2 * 1.25: octave 2, sub-bucket 4 → bucket [5.0, 5.25).
        let h = LogHistogram::from_values(&[5.0]);
        let q = h.median();
        assert!(
            (5.0..5.25).contains(&q),
            "representative {q} outside bucket"
        );
        let idx = LogHistogram::bucket_of(5.0);
        assert_eq!(h.counts[idx], 1);
        assert_eq!(LogHistogram::bucket_of(5.2499), idx);
        assert_eq!(LogHistogram::bucket_of(5.25), idx + 1);
        assert_eq!(LogHistogram::bucket_of(4.9999), idx - 1);
    }

    #[test]
    fn cdf_quantile() {
        let c = Cdf::from_values(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(c.value_at(0.25), 10.0);
        assert_eq!(c.value_at(1.0), 40.0);
    }

    #[test]
    fn cdf_handles_duplicates() {
        let c = Cdf::from_values(&[1.0, 1.0, 1.0, 2.0]);
        assert_eq!(c.value_at(0.75), 1.0);
        assert_eq!(c.value_at(0.76), 2.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn log_histogram_quantile_tracks_exact_order_statistic(
            xs in proptest::collection::vec(1e-6f64..1e6, 1..200),
            q in 0.0f64..1.0,
        ) {
            let h = LogHistogram::from_values(&xs);
            // Exact nearest-rank order statistic on a sorted copy.
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let approx = h.quantile(q);
            // Same bucket as the exact order statistic ⇒ within 1/16 of it
            // (the bucket's full width; midpoint error is half that).
            prop_assert!((approx - exact).abs() <= exact / 16.0 + 1e-12,
                "quantile {approx} vs exact {exact}");
        }

        #[test]
        fn cdf_is_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
            let c = Cdf::from_values(&xs);
            for w in c.points().windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
                prop_assert!(w[0].1 <= w[1].1);
            }
            prop_assert!((c.points().last().unwrap().1 - 1.0).abs() < 1e-12);
        }
    }
}
