//! Deterministic data generators for the real-data benchmark variants.

use memres_core::value::{Record, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const WORDS: &[&str] = &[
    "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "data", "node", "spark",
    "lustre", "shuffle", "memory", "cluster", "task", "stage", "block", "cache", "stream",
];

/// Random text lines; roughly every 20th line contains "fox" via the word
/// table, so greps have deterministic hits.
pub fn text_lines(lines: u64, seed: u64) -> Vec<Record> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7e57_da7a);
    (0..lines)
        .map(|i| {
            let len = rng.gen_range(4..12);
            let line: Vec<&str> = (0..len)
                .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
                .collect();
            (Value::I64(i as i64), Value::str(line.join(" ")))
        })
        .collect()
}

/// KV pairs with keys drawn uniformly from `0..cardinality`.
pub fn kv_pairs(pairs: u64, cardinality: u64, seed: u64) -> Vec<Record> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6b76);
    (0..pairs)
        .map(|_| {
            let k = rng.gen_range(0..cardinality) as i64;
            (Value::I64(k), Value::I64(rng.gen_range(0..1_000_000)))
        })
        .collect()
}

/// Labeled points for logistic regression: features ~ U(-1,1), labels from a
/// planted weight vector with alternating signs [1, -1, 1, -1, ...].
pub fn labeled_points(points: u64, dims: usize, seed: u64) -> Vec<Record> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1061);
    let truth: Vec<f64> = (0..dims)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    (0..points)
        .map(|_| {
            let x: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let margin: f64 = x.iter().zip(truth.iter()).map(|(a, b)| a * b).sum();
            let label = if margin >= 0.0 { 1.0 } else { -1.0 };
            (Value::F64(label), Value::vec(x))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_is_deterministic_and_has_needles() {
        let a = text_lines(200, 1);
        let b = text_lines(200, 1);
        assert_eq!(a.len(), 200);
        assert_eq!(a[5].1, b[5].1);
        assert!(a.iter().any(|(_, v)| v.as_str().contains("fox")));
    }

    #[test]
    fn kv_keys_within_cardinality() {
        let recs = kv_pairs(1000, 16, 3);
        assert!(recs.iter().all(|(k, _)| (0..16).contains(&k.as_i64())));
        // Roughly uniform: every key appears.
        let mut seen = [false; 16];
        for (k, _) in &recs {
            seen[k.as_i64() as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn labeled_points_are_separable_by_truth() {
        let recs = labeled_points(500, 4, 9);
        let truth = [1.0, -1.0, 1.0, -1.0];
        for (label, x) in &recs {
            let margin: f64 = x
                .as_vec()
                .iter()
                .zip(truth.iter())
                .map(|(a, b)| a * b)
                .sum();
            assert_eq!(label.as_f64() >= 0.0, margin >= 0.0);
        }
    }
}
