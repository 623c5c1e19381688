//! What the reproduction claims about the paper, as data.
//!
//! Each headline a figure function computes — a number its notes print
//! beside the paper's, or a shape the paper states without a number — is
//! one row of [`CLAIMS`]: the paper's value, typed here and nowhere else (a
//! note prints it through [`paper`]), the band a full-scale run must land
//! in, and the band a smoke-scale run must land in. The figure function
//! records the value once, with [`Table::headline`]; two readers take it
//! from there:
//! - `tests/shapes.rs` runs each figure at `Setup::smoke()` and
//!   [`check_smoke`]s its table;
//! - EXPERIMENTS.md's summary is [`render`] over the tables of one
//!   full-scale run of the `all` targets ([`crate::targets::all`]),
//!   rewritten with every pin by
//!   `cargo test --workspace --release -- --ignored bless`.

use crate::Table;

const INF: f64 = f64::INFINITY;

/// How far from the paper's number a full-scale value may land, as a
/// fraction of it, unless the claim states a band of its own.
pub const TOLERANCE: f64 = 0.25;

/// A smoke band for a gain in percent: the paper's direction, at least
/// 1 % better.
const GAIN: (f64, f64) = (1.0, INF);
/// A smoke band for a slowdown ratio: the paper's direction, at least
/// 10 % slower.
const SLOWER: (f64, f64) = (1.1, INF);

/// A closed interval: both edges are inside.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Band {
    pub lo: f64,
    pub hi: f64,
}

/// One claim about the paper, on one headline of one table.
pub struct Claim {
    /// `<table id>.<quantity>`: the table whose figure function records it.
    pub id: &'static str,
    /// What the headline measures.
    pub what: &'static str,
    /// What the paper says of it, in its words; `{}` stands for `paper`.
    pub says: &'static str,
    /// The paper's number, where it gives one.
    pub paper: Option<f64>,
    /// The full-scale band: ±[`TOLERANCE`] of `paper`, or, on a claim the
    /// paper makes without a number, the bound `says` words.
    pub band: Band,
    /// The smoke-scale band: the bound the figure's shape must keep, or,
    /// on a headline with no such bound, the paper's direction.
    pub smoke: Band,
}

/// A claim on the paper's number.
const fn near(
    id: &'static str,
    what: &'static str,
    says: &'static str,
    paper: f64,
    smoke: (f64, f64),
) -> Claim {
    let band = (paper * (1.0 - TOLERANCE), paper * (1.0 + TOLERANCE));
    let paper = Some(paper);
    Claim {
        paper,
        ..bound(id, what, says, band, smoke)
    }
}

/// A claim the paper makes without a number: `says` is the reason for
/// `band`.
const fn bound(
    id: &'static str,
    what: &'static str,
    says: &'static str,
    (lo, hi): (f64, f64),
    smoke: (f64, f64),
) -> Claim {
    let (band, smoke) = (
        Band { lo, hi },
        Band {
            lo: smoke.0,
            hi: smoke.1,
        },
    );
    let paper = None;
    Claim {
        id,
        what,
        says,
        paper,
        band,
        smoke,
    }
}

/// Every claim, in EXPERIMENTS.md's order: `near(id, what, says, paper,
/// smoke)` or `bound(id, what, says, band, smoke)`.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    near("fig5a.ratio-32", "Grep, Lustre / HDFS job time at 32 MB splits, mean over sizes",
         "up to {}×", 5.7, SLOWER),
    bound("fig5a.ratio-32-min", "the same, smallest over sizes",
          "Lustre input costs a scan job several ×", (3.0, INF), (3.5, INF)),
    near("fig5a.split-gain", "Lustre, job-time gain of 128 over 32 MB splits, mean over sizes (%)",
         "{}%", 15.9, GAIN),
    bound("fig5a.split-gain-min", "the same, smallest over sizes",
          "larger splits help Lustre", GAIN, GAIN),
    near("fig5b.lustre-gain", "LR, job-time gain of Lustre over HDFS with delay scheduling, mean over sizes (%)",
         "{}%", 12.7, GAIN),
    bound("fig5b.gain-min", "the same, smallest over sizes",
          "the storage is a small effect for a compute-bound job", (-15.0, INF), (-15.0, INF)),
    bound("fig5b.gain-max", "the same, largest over sizes",
          "the storage is a small effect for a compute-bound job", (-INF, 50.0), (-INF, 50.0)),
    near("fig7a.ll/ram", "GroupBy, Lustre-local / HDFS-RAMDisk job time at 1.2 TB",
         "up to {}×, growing with size", 6.5, (2.5, INF)),
    bound("fig7a.ll/ram-growth", "the same, 1.2 TB over 100 GB",
          "growing with size", SLOWER, SLOWER),
    near("fig7a.ls/ll", "Lustre-shared / Lustre-local job time, largest over sizes",
         "up to {}×", 3.8, SLOWER),
    bound("fig7a.ls/ll-min", "the same, smallest over sizes",
          "Lustre-shared is never faster than Lustre-local", (0.95, INF), (0.95, INF)),
    near("fig7b.shuffle-ratio", "Lustre-shared / Lustre-local shuffling phase, largest over sizes",
         "up to one order of magnitude ({}×)", 10.0, (2.0, INF)),
    near("fig8a.parity-until-gb", "GroupBy, largest size (GB) up to which SSD stays within 1.3× of RAMDisk",
         "comparable up to ~{} GB", 600.0, (100.0, INF)),
    near("fig8a.degraded-from-gb", "smallest size (GB) at which SSD takes over 2× RAMDisk's job time",
         "degrades beyond {} GB", 700.0, (100.0, 1500.0)),
    bound("fig8a.ssd/ram", "SSD / RAMDisk job time at 1.5 TB",
          "sharp degradation at TB scale", (2.0, INF), (2.5, INF)),
    near("fig8c.max/min", "ShuffleMapTask storing time on SSD, max / min at 1.5 TB",
         "~{}×", 18.0, (10.0, INF)),
    bound("fig8c.spread-growth", "the same, 1.5 TB over 500 GB",
          "the gap widens with size", SLOWER, SLOWER),
    near("fig9a.degradation-32", "Grep on HDFS, delay scheduling's slowdown at 32 MB splits (%)",
         "{}%", 42.7, (10.0, INF)),
    near("fig9b.degradation-32", "LR on HDFS, the same",
         "{}%", 9.9, (-5.0, INF)),
    bound("fig9b.degradation-min", "the same, smallest over splits",
          "delay scheduling never helps", (-5.0, INF), (-5.0, INF)),
    bound("fig10.remote/local", "remote / local mean task time, largest over benchmarks",
          "enforcing locality provides little gain", (-INF, 1.25), (-INF, 1.5)),
    near("fig12b.p95/p5", "intermediate GB per node at 100 nodes, p95 / p5",
         "~{}× from head to tail", 2.0, SLOWER),
    bound("fig12b.p90/p10-min", "the same, p90 / p10, smallest over 50–150 nodes",
          "imbalance at every cluster size", (1.25, INF), (1.25, INF)),
    near("fig13a.elb-gain", "GroupBy on SSD, ELB's job-time gain, mean over 1–1.5 TB (%)",
         "{}% average", 26.0, GAIN),
    bound("fig13a.elb-gain-largest", "the same at 1.5 TB",
          "ELB helps under a storage bottleneck", GAIN, GAIN),
    near("fig13b.elb-gain", "GroupBy with 128 KB fetches, ELB's job-time gain, mean over sizes (%)",
         "{}%", 14.8, GAIN),
    near("fig13b.shuffle-gain", "the same, shuffling phase",
         "{}%", 29.1, GAIN),
    near("fig14a.cad-gain", "GroupBy on SSD, CAD's job-time gain, mean over 0.7–1.5 TB (%)",
         "{}% average", 19.8, GAIN),
    bound("fig14a.cad-gain-largest", "the same at 1.5 TB",
          "CAD improves job time", GAIN, GAIN),
    near("fig14b.store-gain", "the same, storing phase",
         "up to {}%", 41.2, GAIN),
    bound("fig14b.store-gain-largest", "the same, storing phase at 1.5 TB",
          "CAD accelerates storing", GAIN, (6.0, INF)),
];

/// The paper's number of claim `id`, for the note that prints it.
pub fn paper(id: &str) -> f64 {
    let claim = CLAIMS.iter().find(|c| c.id == id);
    let number = claim.and_then(|c| c.paper);
    number.unwrap_or_else(|| panic!("no claim {id} with a paper number"))
}

/// Where a value lands against a band.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Inside,
    /// With the measured / paper ratio, where the paper gives a number.
    Outside {
        ratio: Option<f64>,
    },
}

/// Whether `value` is inside `band`. Both edges are inside; NaN and ±∞ are
/// never inside, whatever the band: a headline that is not a finite number
/// measured nothing.
pub fn verdict(value: f64, band: Band, paper: Option<f64>) -> Verdict {
    if value.is_finite() && band.lo <= value && value <= band.hi {
        Verdict::Inside
    } else {
        Verdict::Outside {
            ratio: paper.map(|p| value / p),
        }
    }
}

/// Each claim the tables own (a claim belongs to the table its id names),
/// with the value recorded for it, and every way the two disagree: a claim
/// with no value, a claim with two, a headline no claim owns.
fn measured<'a>(
    tables: impl IntoIterator<Item = &'a Table>,
) -> (Vec<(&'static Claim, f64)>, Vec<String>) {
    let (mut values, mut problems) = (Vec::new(), Vec::new());
    for t in tables {
        let owned = CLAIMS
            .iter()
            .filter(|c| c.id.split('.').next() == Some(t.id));
        for claim in owned {
            let recorded: Vec<f64> = t
                .headlines
                .iter()
                .filter(|(id, _)| *id == claim.id)
                .map(|&(_, v)| v)
                .collect();
            match recorded[..] {
                [value] => values.push((claim, value)),
                [] => problems.push(format!("{}: no headline recorded", claim.id)),
                _ => problems.push(format!("{}: recorded {recorded:?}", claim.id)),
            }
        }
        let orphans = t.headlines.iter().filter(|(id, _)| {
            let owner = CLAIMS.iter().find(|c| c.id == *id);
            owner.is_none_or(|c| c.id.split('.').next() != Some(t.id))
        });
        problems.extend(orphans.map(|(id, v)| format!("{id}: headline {v} has no row in CLAIMS")));
    }
    (values, problems)
}

/// Fails unless every claim of `t` got one headline inside its smoke band
/// and every headline of `t` is a claim's.
pub fn check_smoke(t: &Table) {
    let (values, mut problems) = measured([t]);
    for (claim, value) in values {
        if let Verdict::Outside { ratio } = verdict(value, claim.smoke, claim.paper) {
            let of_paper = |r| format!(" ({r:.2}× the paper's {})", paper(claim.id));
            let (smoke, paper) = (band(claim.smoke), ratio.map_or(String::new(), of_paper));
            problems.push(format!(
                "{}: {value} is outside the smoke band {smoke}{paper}",
                claim.id
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "{} breaks its claims at smoke scale (crates/bench/src/claims.rs):\n{}",
        t.id,
        problems.join("\n")
    );
}

/// The scorecard's first two lines.
pub const HEADER: &str = concat!(
    "| claim | measured quantity | the paper | band | measured | ratio | verdict |\n",
    "|---|---|---|---|--:|--:|---|\n",
);

/// The columns of a scorecard row that a run does not compute: the claim,
/// what it measures, what the paper says with its number, and the
/// full-scale band.
pub fn stated(claim: &Claim) -> String {
    let says = match claim.paper {
        Some(p) => claim.says.replacen("{}", &p.to_string(), 1),
        None => claim.says.to_string(),
    };
    let (id, what, band) = (claim.id, claim.what, band(claim.band));
    format!("| `{id}` | {what} | {says} | {band} |")
}

/// The scorecard of full-scale `tables` as a markdown table: one row per
/// claim, in [`CLAIMS`]' order, with the measured value, its ratio to the
/// paper's and its verdict. A table no claim names adds no row. Panics on
/// any claim without one value, or headline without a claim.
pub fn render<'a>(tables: impl IntoIterator<Item = &'a Table>) -> String {
    let (values, problems) = measured(tables);
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    let mut out = HEADER.to_string();
    for claim in CLAIMS {
        let value = values.iter().find(|(c, _)| c.id == claim.id);
        let &(_, value) = value.unwrap_or_else(|| panic!("{}: no table recorded it", claim.id));
        let ratio = claim
            .paper
            .map_or("—".to_string(), |p| format!("{:.2}", value / p));
        let verdict = match verdict(value, claim.band, claim.paper) {
            Verdict::Inside => "inside",
            Verdict::Outside { .. } => "**outside**",
        };
        out += &format!("{} {value:.2} | {ratio} | {verdict} |\n", stated(claim));
    }
    out
}

/// A band as the scorecard prints it.
fn band(b: Band) -> String {
    let num = |v: f64| {
        let s = format!("{v:.3}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    };
    match (b.lo.is_finite(), b.hi.is_finite()) {
        (true, true) => format!("{}–{}", num(b.lo), num(b.hi)),
        (true, false) => format!("≥ {}", num(b.lo)),
        (false, true) => format!("≤ {}", num(b.hi)),
        (false, false) => "any".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_and_infinities_are_never_inside_and_edges_are() {
        let band = Band { lo: 1.0, hi: 2.0 };
        let open = Band { lo: -INF, hi: INF };
        let outside = |ratio| Verdict::Outside { ratio };
        assert_eq!(verdict(1.0, band, Some(1.5)), Verdict::Inside);
        assert_eq!(verdict(2.0, band, None), Verdict::Inside);
        assert_eq!(verdict(3.0, band, Some(1.5)), outside(Some(2.0)));
        assert_eq!(verdict(0.5, band, None), outside(None));
        for v in [f64::NAN, INF, -INF] {
            assert_eq!(verdict(v, open, None), outside(None), "{v}");
        }
        // A headline of NaN (`ratio` over a zero denominator) carries a NaN
        // ratio, not a verdict of inside.
        let Verdict::Outside { ratio: Some(r) } = verdict(f64::NAN, band, Some(2.0)) else {
            panic!("NaN is outside");
        };
        assert!(r.is_nan());
    }

    #[test]
    fn claims_are_well_formed() {
        for (i, c) in CLAIMS.iter().enumerate() {
            assert!(!CLAIMS[..i].iter().any(|d| d.id == c.id), "{} twice", c.id);
            let slots = usize::from(c.paper.is_some());
            assert_eq!(c.says.matches("{}").count(), slots, "{}: says", c.id);
            assert!(
                c.id.split_once('.').is_some(),
                "{}: <table>.<quantity>",
                c.id
            );
            for b in [c.band, c.smoke] {
                assert!(b.lo < b.hi, "{}: empty band {b:?}", c.id);
            }
            if let Some(p) = c.paper {
                assert_eq!(verdict(p, c.band, c.paper), Verdict::Inside, "{}", c.id);
            }
        }
        assert_eq!(paper("fig13a.elb-gain"), 26.0);
        assert_eq!(band(CLAIMS[0].band), "4.275–7.125");
        assert_eq!(band(Band { lo: -INF, hi: 1.5 }), "≤ 1.5");
    }
}
