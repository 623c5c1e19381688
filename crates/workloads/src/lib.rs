//! # memres-workloads — the paper's three benchmarks (§III-B)
//!
//! * [`GroupBy`] — "a critical operation used by many applications including
//!   kMeans, wordcount, and calculating transitive closure of a graph"; its
//!   intermediate data size equals its input size, which is what makes it the
//!   shuffle/storage probe of §IV-B–§VI.
//! * [`Grep`] — "searches a string that matches a regular expression from a
//!   set of documents"; low computation, tiny intermediate data (1–200 MB),
//!   the storage-architecture probe of §IV-A and Fig 9a.
//! * [`LogisticRegression`] — iterative, compute-intensive, caches its parsed
//!   input in memory across iterations (§II-C, Fig 4c).
//!
//! Each benchmark builds either a **synthetic** job (sizes only — used at the
//! paper's 100 GB–1.5 TB scales) or a **real** job over materialized records
//! (used by tests and examples to validate engine correctness).
//!
//! [`cells`] is the evaluation grid: the `Setup` every experiment scales by
//! and the table of named GroupBy cells `repro` and the tests resolve.

pub mod cells;
pub mod datagen;

use memres_core::rdd::{Action, Dataset, Rdd, SizeModel};
use memres_core::value::{Record, Value};
use memres_des::units::MB;
use std::sync::Arc;

/// Calibrated per-core operator rates (bytes/sec at node speed 1.0).
/// These are the model's analogue of the JVM-era Spark 0.7 throughputs and
/// are the knobs EXPERIMENTS.md documents.
pub mod rates {
    /// Streaming scan + regex match (Grep's map side).
    pub const GREP_SCAN: f64 = 1.6e9;
    /// KV-pair generation/serialization (GroupBy's map side).
    pub const GROUPBY_GEN: f64 = 900.0e6;
    /// Reduce-side grouping of fetched data.
    pub const GROUP_AGG: f64 = 1.0e9;
    /// Logistic-regression gradient: multidimensional vector math per byte —
    /// deliberately low; computation intensity is LR's defining trait.
    pub const LR_GRADIENT: f64 = 28.0e6;
    /// Text parsing into cached point vectors (LR iteration 0 only).
    pub const LR_PARSE: f64 = 350.0e6;
}

/// GroupBy benchmark (Fig 4a): genKV → shuffle → group.
#[derive(Clone, Debug)]
pub struct GroupBy {
    /// Total input bytes ( = intermediate bytes, §III-B).
    pub input_bytes: f64,
    /// Input split size (paper uses 32–256 MB).
    pub split_bytes: f64,
    /// Reduce-side task count (None → one per map task).
    pub reducers: Option<u32>,
}

impl GroupBy {
    pub fn new(input_bytes: f64) -> Self {
        GroupBy {
            input_bytes,
            split_bytes: 256.0 * MB,
            reducers: None,
        }
    }

    pub fn with_split(mut self, split_bytes: f64) -> Self {
        self.split_bytes = split_bytes;
        self
    }

    pub fn with_reducers(mut self, reducers: u32) -> Self {
        self.reducers = Some(reducers);
        self
    }

    pub fn map_tasks(&self) -> u32 {
        (self.input_bytes / self.split_bytes).ceil().max(1.0) as u32
    }

    /// Synthetic TB-scale job. The first stage *generates* its key/value
    /// pairs in memory (paper §III-B): no input storage is read.
    pub fn build(&self) -> Rdd {
        Rdd::source(Dataset::generated(
            self.input_bytes,
            self.split_bytes,
            100.0,
        ))
        .map("genKV", SizeModel::new(1.0, 1.0, rates::GROUPBY_GEN), |r| r)
        .group_by_key(self.reducers, rates::GROUP_AGG)
    }

    /// Real-data variant over generated KV pairs.
    pub fn build_real(&self, pairs: u64, key_cardinality: u64, seed: u64) -> Rdd {
        let recs = datagen::kv_pairs(pairs, key_cardinality, seed);
        let parts = self.map_tasks().max(1) as usize;
        Rdd::source(Dataset::from_records(recs, parts))
            .map("genKV", SizeModel::new(1.0, 1.0, rates::GROUPBY_GEN), |r| r)
            .group_by_key(self.reducers, rates::GROUP_AGG)
    }

    pub fn action(&self) -> Action {
        Action::Count
    }
}

/// Grep benchmark (Fig 4b): scan+match → tiny shuffle → collect matches.
#[derive(Clone, Debug)]
pub struct Grep {
    pub input_bytes: f64,
    pub split_bytes: f64,
    /// Fraction of input bytes that match (intermediate size ratio).
    /// Paper: intermediate ranges 1–200 MB for 100s of GB of input.
    pub match_ratio: f64,
    pub reducers: Option<u32>,
}

impl Grep {
    pub fn new(input_bytes: f64) -> Self {
        Grep {
            input_bytes,
            split_bytes: 32.0 * MB,
            match_ratio: 5e-4,
            reducers: Some(64),
        }
    }

    pub fn with_split(mut self, split_bytes: f64) -> Self {
        self.split_bytes = split_bytes;
        self
    }

    /// Synthetic job.
    pub fn build(&self) -> Rdd {
        let ratio = self.match_ratio;
        Rdd::source(Dataset::synthetic(
            self.input_bytes,
            self.split_bytes,
            120.0,
        ))
        .filter(
            "match",
            SizeModel::new(ratio, ratio, rates::GREP_SCAN),
            |_| true,
        )
        .group_by_key(self.reducers, rates::GROUP_AGG)
    }

    /// Real-data variant: actually greps generated text lines for `needle`.
    pub fn build_real(&self, lines: u64, needle: &'static str, seed: u64) -> Rdd {
        let recs = datagen::text_lines(lines, seed);
        let parts = ((self.input_bytes / self.split_bytes).ceil().max(1.0)) as usize;
        Rdd::source(Dataset::from_records(recs, parts))
            .filter(
                format!("grep({needle})"),
                SizeModel::new(self.match_ratio, self.match_ratio, rates::GREP_SCAN),
                move |r| r.1.as_str().contains(needle),
            )
            .map("key-by-line", SizeModel::scan(), |(_, v)| {
                (v, Value::I64(1))
            })
            .group_by_key(self.reducers, rates::GROUP_AGG)
    }

    pub fn action(&self) -> Action {
        Action::Count
    }
}

/// Logistic Regression (Fig 4c): three single-stage jobs over a cached,
/// memory-resident point set.
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    pub input_bytes: f64,
    pub split_bytes: f64,
    pub dims: usize,
    pub iterations: u32,
}

impl LogisticRegression {
    pub fn new(input_bytes: f64) -> Self {
        LogisticRegression {
            input_bytes,
            split_bytes: 32.0 * MB,
            dims: 10,
            iterations: 3,
        }
    }

    pub fn with_split(mut self, split_bytes: f64) -> Self {
        self.split_bytes = split_bytes;
        self
    }

    /// Synthetic cached dataset: parse once, iterate `iterations` times.
    /// Returns (cached rdd, per-iteration job builder, action).
    pub fn build(&self) -> (Rdd, impl Fn(&Rdd) -> Rdd, Action) {
        let cached = Rdd::source(Dataset::synthetic(
            self.input_bytes,
            self.split_bytes,
            8.0 * 12.0,
        ))
        .map("parse", SizeModel::new(1.0, 1.0, rates::LR_PARSE), |r| r)
        .cache();
        let iter = |points: &Rdd| {
            points.map(
                "gradient",
                // The gradient leaves only a d-dimensional vector per task.
                SizeModel::new(1e-5, 1e-5, rates::LR_GRADIENT),
                |r| r,
            )
        };
        (cached, iter, lr_sum_action())
    }

    /// Real-data LR that actually converges: returns the cached points RDD
    /// and a closure producing the gradient job for the current weights.
    pub fn build_real(
        &self,
        points: u64,
        seed: u64,
    ) -> (Rdd, impl Fn(&Rdd, Arc<Vec<f64>>) -> Rdd + Clone, Action) {
        let dims = self.dims;
        let recs = datagen::labeled_points(points, dims, seed);
        let parts = ((self.input_bytes / self.split_bytes).ceil().max(1.0)) as usize;
        let cached = Rdd::source(Dataset::from_records(recs, parts))
            .map("parse", SizeModel::new(1.0, 1.0, rates::LR_PARSE), |r| r)
            .cache();
        let iter = move |pts: &Rdd, w: Arc<Vec<f64>>| {
            pts.map(
                "gradient",
                SizeModel::new(1e-5, 1e-5, rates::LR_GRADIENT),
                move |(label, x)| {
                    let y = label.as_f64(); // ±1
                    let xs = x.as_vec();
                    let margin: f64 = xs.iter().zip(w.iter()).map(|(a, b)| a * b).sum();
                    let coeff = (1.0 / (1.0 + (-y * margin).exp()) - 1.0) * y;
                    let grad: Vec<f64> = xs.iter().map(|v| v * coeff).collect();
                    (Value::Null, Value::vec(grad))
                },
            )
        };
        (cached, iter, lr_sum_action())
    }
}

/// The LR reduce action: element-wise vector sum of partial gradients.
pub fn lr_sum_action() -> Action {
    Action::Reduce(Arc::new(|a, b| {
        let (x, y) = (a.as_vec(), b.as_vec());
        Value::vec(x.iter().zip(y.iter()).map(|(p, q)| p + q).collect())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use memres_cluster::tiny;
    use memres_core::prelude::*;

    fn driver() -> Driver {
        Driver::new(tiny(4), EngineConfig::default().homogeneous())
    }

    #[test]
    fn groupby_synthetic_preserves_input_as_intermediate() {
        let gb = GroupBy::new(128.0 * MB)
            .with_split(16.0 * MB)
            .with_reducers(8);
        assert_eq!(gb.map_tasks(), 8);
        let mut d = driver();
        let m = d.run_for_metrics(&gb.build(), gb.action());
        let shuffled: f64 = m.tasks_in(Phase::Shuffling).map(|t| t.input_bytes).sum();
        assert!(
            (shuffled - 128.0 * MB).abs() / shuffled < 0.01,
            "GroupBy intermediate should equal input: {shuffled}"
        );
    }

    #[test]
    fn grep_synthetic_has_tiny_intermediate() {
        let g = Grep::new(256.0 * MB);
        let mut d = driver();
        let m = d.run_for_metrics(&g.build(), g.action());
        let shuffled: f64 = m.tasks_in(Phase::Shuffling).map(|t| t.input_bytes).sum();
        assert!(
            shuffled < 1.0 * MB,
            "Grep intermediate should be tiny: {shuffled}"
        );
    }

    #[test]
    fn grep_real_finds_needles() {
        let g = Grep {
            match_ratio: 1.0,
            ..Grep::new(1.0 * MB)
        };
        let rdd = g.build_real(500, "fox", 7);
        let mut d = driver();
        let (out, _) = d.run(&rdd, Action::Collect);
        let groups = out.records.unwrap();
        for (k, _) in &groups {
            assert!(k.as_str().contains("fox"));
        }
        // The generator plants the needle deterministically: expect hits.
        assert!(!groups.is_empty());
    }

    #[test]
    fn lr_real_converges_toward_true_weights() {
        let lr = LogisticRegression {
            dims: 4,
            ..LogisticRegression::new(1.0 * MB)
        };
        let (points, iter, action) = lr.build_real(2000, 11);
        let mut d = driver();
        let mut w = Arc::new(vec![0.0; 4]);
        let mut last_norm = f64::INFINITY;
        for _ in 0..lr.iterations {
            let job = iter(&points, w.clone());
            let (out, _) = d.run(&job, action.clone());
            let grad = out.reduced.expect("real LR reduces").as_vec().to_vec();
            let norm: f64 = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
            let step = 1.0 / 2000.0;
            let next: Vec<f64> = w
                .iter()
                .zip(grad.iter())
                .map(|(wi, gi)| wi - step * gi)
                .collect();
            w = Arc::new(next);
            assert!(norm <= last_norm * 1.5, "gradient should not blow up");
            last_norm = norm;
        }
        // datagen plants alternating-sign true weights: learned signs match.
        assert!(w[0] > 0.0 && w[1] < 0.0, "learned weights {w:?}");
    }

    #[test]
    fn lr_synthetic_second_iteration_is_cached_and_fast() {
        let lr = LogisticRegression::new(64.0 * MB);
        let (points, iter, action) = lr.build();
        let mut d = driver();
        let m1 = d.run_for_metrics(&iter(&points), action.clone());
        let m2 = d.run_for_metrics(&iter(&points), action.clone());
        assert!(m2.job_time() < m1.job_time());
        assert!(
            m2.locality_fraction() > 0.99,
            "cached iterations are node-local"
        );
    }
}

/// WordCount — the paper cites it as a canonical GroupBy-family application.
/// Real mode counts actual words from the text generator; synthetic mode
/// models the classic flatMap(words) → reduceByKey(+) pipeline.
#[derive(Clone, Debug)]
pub struct WordCount {
    pub input_bytes: f64,
    pub split_bytes: f64,
    pub reducers: Option<u32>,
}

impl WordCount {
    pub fn new(input_bytes: f64) -> Self {
        WordCount {
            input_bytes,
            split_bytes: 128.0 * MB,
            reducers: None,
        }
    }

    /// Synthetic pipeline: tokenization expands records, counting shrinks
    /// bytes sharply (word keys + counters).
    pub fn build(&self) -> Rdd {
        Rdd::source(Dataset::synthetic(self.input_bytes, self.split_bytes, 80.0))
            .flat_map("tokenize", SizeModel::new(1.1, 8.0, 700.0e6), |r| vec![r])
            .reduce_by_key(self.reducers, 900.0e6, 0.05, |a, b| {
                Value::I64(a.as_i64() + b.as_i64())
            })
    }

    /// Real word counting over generated text.
    pub fn build_real(&self, lines: u64, seed: u64) -> Rdd {
        let recs = datagen::text_lines(lines, seed);
        let parts = ((self.input_bytes / self.split_bytes).ceil().max(1.0)) as usize;
        Rdd::source(Dataset::from_records(recs, parts))
            .flat_map(
                "tokenize",
                SizeModel::new(1.1, 8.0, 700.0e6),
                |(_, line)| {
                    line.as_str()
                        .split_whitespace()
                        .map(|w| (Value::str(w), Value::I64(1)))
                        .collect()
                },
            )
            .reduce_by_key(self.reducers, 900.0e6, 0.05, |a, b| {
                Value::I64(a.as_i64() + b.as_i64())
            })
    }

    pub fn action(&self) -> Action {
        Action::Collect
    }
}

/// kMeans — the paper's other named GroupBy consumer: iterative centroid
/// refinement over a cached, memory-resident point set.
#[derive(Clone, Debug)]
pub struct KMeans {
    pub input_bytes: f64,
    pub split_bytes: f64,
    pub k: usize,
    pub dims: usize,
    pub iterations: u32,
}

impl KMeans {
    pub fn new(input_bytes: f64, k: usize) -> Self {
        KMeans {
            input_bytes,
            split_bytes: 64.0 * MB,
            k,
            dims: 4,
            iterations: 5,
        }
    }

    /// Real Lloyd iterations: returns the cached points and a closure that
    /// builds the assign+aggregate job for the current centroids. The job's
    /// collect returns per-centroid (sum-vector ++ count) records.
    #[allow(
        clippy::type_complexity,
        reason = "the job-builder closure type is spelled once, here"
    )]
    pub fn build_real(
        &self,
        points: u64,
        seed: u64,
    ) -> (Rdd, impl Fn(&Rdd, Arc<Vec<Vec<f64>>>) -> Rdd + Clone) {
        let recs = datagen::labeled_points(points, self.dims, seed)
            .into_iter()
            .map(|(_, x)| (Value::Null, x))
            .collect();
        let parts = ((self.input_bytes / self.split_bytes).ceil().max(1.0)) as usize;
        let cached = Rdd::source(Dataset::from_records(recs, parts))
            .map("parse", SizeModel::new(1.0, 1.0, rates::LR_PARSE), |r| r)
            .cache();
        let k = self.k;
        let assign = move |pts: &Rdd, centroids: Arc<Vec<Vec<f64>>>| {
            let cents = centroids.clone();
            pts.map("assign", SizeModel::new(1.0, 1.0, 60.0e6), move |(_, x)| {
                let xs = x.as_vec();
                let (best, _) = cents
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let d: f64 = xs
                            .iter()
                            .zip(c.iter())
                            .map(|(a, b)| (a - b) * (a - b))
                            .sum();
                        (i, d)
                    })
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .expect("k >= 1");
                (Value::I64(best as i64), x)
            })
            .reduce_by_key(Some(k as u32), 500.0e6, 0.01, |a, b| {
                // Accumulate [sum..., count] vectors.
                let (x, y) = (a.as_vec(), b.as_vec());
                let (xs, xc) = split_acc(x);
                let (ys, yc) = split_acc(y);
                let mut sum: Vec<f64> = xs.iter().zip(ys.iter()).map(|(p, q)| p + q).collect();
                sum.push(xc + yc);
                Value::vec(sum)
            })
        };
        // Points enter the fold as [coords..., 1] accumulators.
        let assign = move |pts: &Rdd, centroids: Arc<Vec<Vec<f64>>>| {
            let pre = pts.map_values("acc", SizeModel::scan(), |x| {
                let mut v = x.as_vec().to_vec();
                v.push(1.0);
                Value::vec(v)
            });
            assign(&pre, centroids)
        };
        (cached, assign)
    }

    /// Update centroids from the collected (sum ++ count) records.
    pub fn centroids_from(&self, records: &[Record]) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.dims]; self.k];
        for (key, acc) in records {
            let (sum, count) = split_acc(acc.as_vec());
            if count > 0.0 {
                out[key.as_i64() as usize] = sum.iter().map(|s| s / count).collect();
            }
        }
        out
    }
}

fn split_acc(v: &[f64]) -> (&[f64], f64) {
    let (coords, count) = v.split_at(v.len() - 1);
    (coords, count[0])
}

#[cfg(test)]
mod extra_workload_tests {
    use super::*;
    use memres_cluster::tiny;
    use memres_core::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn wordcount_real_counts_match_reference() {
        let wc = WordCount::new(1.0 * MB);
        let rdd = wc.build_real(400, 21);
        let mut d = Driver::new(tiny(4), EngineConfig::default().homogeneous());
        let (out, _) = d.run(&rdd, wc.action());
        let counts: BTreeMap<String, i64> = out
            .records
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k.as_str().to_string(), v.as_i64()))
            .collect();
        // Reference count computed directly from the generator.
        let mut reference: BTreeMap<String, i64> = BTreeMap::new();
        for (_, line) in datagen::text_lines(400, 21) {
            for w in line.as_str().split_whitespace() {
                *reference.entry(w.to_string()).or_insert(0) += 1;
            }
        }
        assert_eq!(counts, reference);
    }

    #[test]
    fn wordcount_synthetic_shrinks_through_shuffle() {
        let wc = WordCount::new(64.0 * MB);
        let mut d = Driver::new(tiny(4), EngineConfig::default().homogeneous());
        let m = d.run_for_metrics(&wc.build(), Action::Count);
        let produced: f64 = m.tasks_in(Phase::Compute).map(|t| t.output_bytes).sum();
        let out: f64 = m.tasks_in(Phase::Shuffling).map(|t| t.output_bytes).sum();
        assert!(out < produced * 0.2, "counts are much smaller than tokens");
    }

    #[test]
    fn kmeans_clusters_converge() {
        let km = KMeans {
            dims: 2,
            iterations: 12,
            ..KMeans::new(1.0 * MB, 3)
        };
        let (points, assign) = km.build_real(1500, 33);
        let mut d = Driver::new(tiny(4), EngineConfig::default().homogeneous());
        // Start with spread-out centroids.
        let mut centroids = Arc::new(vec![vec![-1.0, -1.0], vec![0.0, 0.0], vec![1.0, 1.0]]);
        let mut shifts = Vec::new();
        for _ in 0..km.iterations {
            let job = assign(&points, centroids.clone());
            let (out, _) = d.run(&job, Action::Collect);
            let next = km.centroids_from(&out.records.unwrap());
            let shift: f64 = next
                .iter()
                .zip(centroids.iter())
                .map(|(a, b)| {
                    a.iter()
                        .zip(b.iter())
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f64>()
                })
                .sum::<f64>()
                .sqrt();
            centroids = Arc::new(next);
            shifts.push(shift);
        }
        // Lloyd's algorithm monotonically decreases distortion: shifts trend
        // to zero even on unclustered data.
        assert!(
            shifts.last().unwrap() < &(shifts[0] * 0.5 + 1e-9),
            "centroid movement should shrink: {shifts:?}"
        );
        assert!(shifts.last().unwrap() < &0.2, "near-converged: {shifts:?}");
    }

    #[test]
    fn kmeans_caches_points_after_first_iteration() {
        let km = KMeans {
            dims: 2,
            iterations: 2,
            ..KMeans::new(1.0 * MB, 2)
        };
        let (points, assign) = km.build_real(500, 3);
        let mut d = Driver::new(tiny(4), EngineConfig::default().homogeneous());
        let c = Arc::new(vec![vec![-1.0, 0.0], vec![1.0, 0.0]]);
        let m1 = d.run_for_metrics(&assign(&points, c.clone()), Action::Collect);
        let m2 = d.run_for_metrics(&assign(&points, c), Action::Collect);
        assert!(
            m2.locality_fraction() > 0.99,
            "iteration 2 reads the cache locally"
        );
        assert!(m2.job_time() <= m1.job_time());
    }
}
