//! Run-to-run regression diffing: join two runs' `timeseries.csv` +
//! critical-path attribution exports and rank what moved.
//!
//! The diff is string-in, string-out — it parses the CSV interchange
//! formats written by [`crate::export`] (and the `bucket,seconds`
//! attribution CSV written by `repro report`) rather than live recorders,
//! so it can compare any two archived runs.

use crate::catalog;

/// Parsed `timeseries.csv` row set for one series instance.
#[derive(Clone, Debug, Default)]
struct ParsedSeries {
    points: Vec<(f64, f64)>,
}

/// One series' movement between run A and run B.
#[derive(Clone, Debug)]
pub struct SeriesDiff {
    pub series: String,
    pub instance: Option<u32>,
    pub layer: &'static str,
    pub mean_a: f64,
    pub mean_b: f64,
    /// Relative change of the mean, `(b - a) / max(|a|, eps)`.
    pub rel: f64,
    pub max_abs_delta: f64,
    /// Earliest sim-time second at which the runs' values diverge, if they
    /// do. Both the first timestamp where joined points differ and the
    /// first timestamp present in only one run qualify.
    pub first_divergence_s: Option<f64>,
}

/// One attribution bucket's movement between run A and run B.
#[derive(Clone, Debug)]
pub struct BucketDiff {
    pub bucket: String,
    pub layer: &'static str,
    pub secs_a: f64,
    pub secs_b: f64,
    pub delta: f64,
}

/// The full regression report for a pair of runs.
#[derive(Clone, Debug)]
pub struct DiffReport {
    pub name_a: String,
    pub name_b: String,
    /// End-to-end job seconds from the attribution export ("job" bucket).
    pub job_a: f64,
    pub job_b: f64,
    /// Allowed relative slowdown before [`DiffReport::regressed`] fires.
    pub threshold: f64,
    /// Per-series movement, ranked by |rel| descending.
    pub series: Vec<SeriesDiff>,
    /// Per-bucket attribution movement, ranked by delta descending.
    pub buckets: Vec<BucketDiff>,
}

/// Map a critical-path attribution bucket onto the stack layer the diff
/// report blames (the same layer vocabulary as [`catalog::SeriesDef`]).
pub fn bucket_layer(bucket: &str) -> &'static str {
    match bucket {
        "compute" => "core",
        "store" => "storage",
        "fetch" => "net",
        "lock-wait" => "lustre",
        "gc-stall" => "storage",
        "retry-waste" => "core",
        _ => "core",
    }
}

fn parse_f64(s: &str) -> Option<f64> {
    s.trim().parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Parse a `timeseries.csv` export into `(series, instance) -> points`.
/// Unknown lines are skipped; order of first appearance is preserved so the
/// report is as deterministic as the inputs.
fn parse_timeseries(csv: &str) -> Vec<((String, Option<u32>), ParsedSeries)> {
    let mut out: Vec<((String, Option<u32>), ParsedSeries)> = Vec::new();
    for line in csv.lines().skip(1) {
        let mut cols = line.split(',');
        let (Some(name), Some(inst), Some(t), Some(v)) =
            (cols.next(), cols.next(), cols.next(), cols.next())
        else {
            continue;
        };
        let (Some(t), Some(v)) = (parse_f64(t), parse_f64(v)) else {
            continue;
        };
        let inst = if inst.is_empty() {
            None
        } else {
            match inst.parse::<u32>() {
                Ok(i) => Some(i),
                Err(_) => continue,
            }
        };
        let key = (name.to_string(), inst);
        match out.iter_mut().find(|(k, _)| *k == key) {
            Some((_, s)) => s.points.push((t, v)),
            None => out.push((
                key,
                ParsedSeries {
                    points: vec![(t, v)],
                },
            )),
        }
    }
    out
}

/// Parse a `bucket,seconds` attribution CSV (header optional).
fn parse_attrib(csv: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in csv.lines() {
        let mut cols = line.split(',');
        let (Some(bucket), Some(secs)) = (cols.next(), cols.next()) else {
            continue;
        };
        let Some(secs) = parse_f64(secs) else {
            continue;
        };
        out.push((bucket.trim().to_string(), secs));
    }
    out
}

fn mean(points: &[(f64, f64)]) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    points.iter().map(|&(_, v)| v).sum::<f64>() / points.len() as f64
}

const DIVERGE_EPS: f64 = 1e-9;

fn diverges(a: f64, b: f64) -> bool {
    (a - b).abs() > DIVERGE_EPS * f64::max(1.0, f64::max(a.abs(), b.abs()))
}

fn diff_points(a: &[(f64, f64)], b: &[(f64, f64)]) -> (f64, Option<f64>) {
    // Merge-join on timestamp (both sides ascending by construction).
    let (mut i, mut j) = (0usize, 0usize);
    let mut max_abs = 0.0f64;
    let mut first: Option<f64> = None;
    let mut note = |t: f64, d: f64| {
        if d > max_abs {
            max_abs = d;
        }
        if first.is_none() {
            first = Some(t);
        }
    };
    while i < a.len() && j < b.len() {
        let (ta, va) = a[i];
        let (tb, vb) = b[j];
        if diverges(ta, tb) {
            // A timestamp present in only one run is itself a divergence.
            if ta < tb {
                note(ta, va.abs());
                i += 1;
            } else {
                note(tb, vb.abs());
                j += 1;
            }
        } else {
            if diverges(va, vb) {
                note(ta, (va - vb).abs());
            }
            i += 1;
            j += 1;
        }
    }
    for &(t, v) in &a[i..] {
        note(t, v.abs());
    }
    for &(t, v) in &b[j..] {
        note(t, v.abs());
    }
    (max_abs, first)
}

/// Build the regression report for two runs from their exported CSVs.
///
/// `threshold` is the allowed relative slowdown of the end-to-end job time
/// (e.g. `0.05` tolerates a 5% regression).
pub fn diff_runs(
    name_a: &str,
    ts_a: &str,
    attrib_a: &str,
    name_b: &str,
    ts_b: &str,
    attrib_b: &str,
    threshold: f64,
) -> DiffReport {
    let sa = parse_timeseries(ts_a);
    let sb = parse_timeseries(ts_b);

    // Union of keys, A-order first, then B-only keys in B order.
    let mut keys: Vec<(String, Option<u32>)> = sa.iter().map(|(k, _)| k.clone()).collect();
    for (k, _) in &sb {
        if !keys.contains(k) {
            keys.push(k.clone());
        }
    }

    let empty = ParsedSeries::default();
    let mut series: Vec<SeriesDiff> = keys
        .into_iter()
        .map(|key| {
            let pa = sa
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(&empty, |(_, s)| s);
            let pb = sb
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(&empty, |(_, s)| s);
            let (mean_a, mean_b) = (mean(&pa.points), mean(&pb.points));
            let (max_abs_delta, first_divergence_s) = diff_points(&pa.points, &pb.points);
            let rel = (mean_b - mean_a) / f64::max(mean_a.abs(), 1e-12);
            SeriesDiff {
                layer: catalog::def(&key.0).map_or("core", |d| d.layer),
                series: key.0,
                instance: key.1,
                mean_a,
                mean_b,
                rel,
                max_abs_delta,
                first_divergence_s,
            }
        })
        .collect();
    series.sort_by(|x, y| {
        y.rel
            .abs()
            .partial_cmp(&x.rel.abs())
            // |rel| is finite by construction; ties broken by name below
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.series.cmp(&y.series))
            .then_with(|| x.instance.cmp(&y.instance))
    });

    let aa = parse_attrib(attrib_a);
    let ab = parse_attrib(attrib_b);
    let job_a = aa.iter().find(|(b, _)| b == "job").map_or(0.0, |&(_, s)| s);
    let job_b = ab.iter().find(|(b, _)| b == "job").map_or(0.0, |&(_, s)| s);
    let mut buckets: Vec<BucketDiff> = aa
        .iter()
        .filter(|(b, _)| b != "job")
        .map(|(bucket, secs_a)| {
            let secs_b = ab
                .iter()
                .find(|(b, _)| b == bucket)
                .map_or(0.0, |&(_, s)| s);
            BucketDiff {
                bucket: bucket.clone(),
                layer: bucket_layer(bucket),
                secs_a: *secs_a,
                secs_b,
                delta: secs_b - secs_a,
            }
        })
        .collect();
    buckets.sort_by(|x, y| {
        y.delta
            .partial_cmp(&x.delta)
            // deltas are finite; ties broken by bucket name
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.bucket.cmp(&y.bucket))
    });

    DiffReport {
        name_a: name_a.to_string(),
        name_b: name_b.to_string(),
        job_a,
        job_b,
        threshold,
        series,
        buckets,
    }
}

impl DiffReport {
    /// Did run B regress past the allowed threshold on end-to-end job time?
    pub fn regressed(&self) -> bool {
        self.job_a > 0.0 && self.job_b > self.job_a * (1.0 + self.threshold)
    }

    /// The attribution bucket that grew the most, if any grew.
    pub fn dominant_bucket(&self) -> Option<&BucketDiff> {
        self.buckets.first().filter(|b| b.delta > 0.0)
    }

    /// Human-readable ranked report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "regression diff: {} -> {}\n",
            self.name_a, self.name_b
        ));
        let rel = if self.job_a > 0.0 {
            (self.job_b - self.job_a) / self.job_a * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "job time: {}s -> {}s ({rel:+.2}%, threshold {:.2}%)\n",
            self.job_a,
            self.job_b,
            self.threshold * 100.0
        ));
        out.push_str(if self.regressed() {
            "verdict: REGRESSED\n"
        } else {
            "verdict: ok\n"
        });
        if let Some(b) = self.dominant_bucket() {
            out.push_str(&format!(
                "dominant mover: {} (+{:.4}s) -> layer {}\n",
                b.bucket, b.delta, b.layer
            ));
        }
        if !self.buckets.is_empty() {
            out.push_str("attribution (delta seconds, descending):\n");
            for b in &self.buckets {
                out.push_str(&format!(
                    "  {:<12} {:>12.4} -> {:>12.4}  ({:+.4}s, layer {})\n",
                    b.bucket, b.secs_a, b.secs_b, b.delta, b.layer
                ));
            }
        }
        let moved: Vec<&SeriesDiff> = self
            .series
            .iter()
            .filter(|s| s.first_divergence_s.is_some())
            .collect();
        out.push_str(&format!(
            "series moved: {} of {}\n",
            moved.len(),
            self.series.len()
        ));
        for s in moved.iter().take(12) {
            let inst = s.instance.map(|i| format!("[{i}]")).unwrap_or_default();
            let first = s
                .first_divergence_s
                .map(|t| format!("{t}s"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  {:<32} layer {:<8} mean {:.4} -> {:.4} ({:+.2}%), first divergence at {}\n",
                format!("{}{}", s.series, inst),
                s.layer,
                s.mean_a,
                s.mean_b,
                s.rel * 100.0,
                first
            ));
        }
        if moved.len() > 12 {
            out.push_str(&format!("  ... and {} more\n", moved.len() - 12));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TS_A: &str = "series,instance,t_s,value\n\
        engine_queue_len,,0,4\n\
        engine_queue_len,,0.5,6\n\
        storage_ssd_queue_depth,,0,2\n\
        storage_ssd_queue_depth,,0.5,2\n";

    const ATTRIB_A: &str = "bucket,seconds\njob,10\ncompute,6\nstore,3\nother,1\n";

    #[test]
    fn identical_runs_report_nothing_moved() {
        let r = diff_runs("a", TS_A, ATTRIB_A, "b", TS_A, ATTRIB_A, 0.02);
        assert!(!r.regressed());
        assert!(r.series.iter().all(|s| s.first_divergence_s.is_none()));
        assert!(r.dominant_bucket().is_none());
        assert!(r.render().contains("verdict: ok"));
        assert!(r.render().contains("series moved: 0 of 2"));
    }

    #[test]
    fn slowdown_is_flagged_with_layer_attribution() {
        let ts_b = "series,instance,t_s,value\n\
            engine_queue_len,,0,4\n\
            engine_queue_len,,0.5,6\n\
            storage_ssd_queue_depth,,0,2\n\
            storage_ssd_queue_depth,,0.5,9\n";
        let attrib_b = "bucket,seconds\njob,13\ncompute,6\nstore,6\nother,1\n";
        let r = diff_runs("a", TS_A, ATTRIB_A, "b", ts_b, attrib_b, 0.05);
        assert!(r.regressed());
        let dom = r.dominant_bucket().expect("store grew");
        assert_eq!(dom.bucket, "store");
        assert_eq!(dom.layer, "storage");
        let ssd = r
            .series
            .iter()
            .find(|s| s.series == "storage_ssd_queue_depth")
            .unwrap();
        assert_eq!(ssd.first_divergence_s, Some(0.5));
        assert_eq!(ssd.layer, "storage");
        assert!(ssd.rel > 0.0);
        // The queue-depth series should outrank the unchanged engine one.
        assert_eq!(r.series[0].series, "storage_ssd_queue_depth");
        let text = r.render();
        assert!(text.contains("verdict: REGRESSED"));
        assert!(text.contains("dominant mover: store"));
        assert!(text.contains("layer storage"));
    }

    #[test]
    fn regression_within_threshold_passes() {
        let attrib_b = "bucket,seconds\njob,10.1\ncompute,6.1\nstore,3\nother,1\n";
        let r = diff_runs("a", TS_A, ATTRIB_A, "b", TS_A, attrib_b, 0.05);
        assert!(!r.regressed(), "1% slowdown is inside a 5% threshold");
        assert!(r.dominant_bucket().is_some(), "compute still grew");
    }

    #[test]
    fn missing_timestamps_count_as_divergence() {
        let ts_b = "series,instance,t_s,value\n\
            engine_queue_len,,0,4\n\
            storage_ssd_queue_depth,,0,2\n\
            storage_ssd_queue_depth,,0.5,2\n";
        let r = diff_runs("a", TS_A, ATTRIB_A, "b", ts_b, ATTRIB_A, 0.02);
        let eq = r
            .series
            .iter()
            .find(|s| s.series == "engine_queue_len")
            .unwrap();
        assert_eq!(eq.first_divergence_s, Some(0.5));
        assert_eq!(eq.max_abs_delta, 6.0);
    }

    #[test]
    fn bucket_layers_cover_the_trace_vocabulary() {
        for (bucket, layer) in [
            ("compute", "core"),
            ("store", "storage"),
            ("fetch", "net"),
            ("lock-wait", "lustre"),
            ("gc-stall", "storage"),
            ("retry-waste", "core"),
            ("other", "core"),
        ] {
            assert_eq!(bucket_layer(bucket), layer);
        }
    }
}
