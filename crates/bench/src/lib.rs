//! # memres-bench — the paper-reproduction harness
//!
//! One experiment function per table/figure of the IPDPS'14 evaluation.
//! Each returns a [`Table`] whose rows mirror the series the paper plots;
//! [`targets`] is the one list of what the `repro` binary prints, and
//! EXPERIMENTS.md is one full-scale run of it. What the reproduction
//! claims about the paper is [`claims`]: one row per headline, checked at
//! smoke scale by `tests/shapes.rs` and rendered into EXPERIMENTS.md's
//! summary at full scale. A `scale` parameter shrinks cluster and data
//! sizes proportionally so the same experiments run as quick smoke tests.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the measurement layer: reading the host clock and writing artifacts is its job (DESIGN.md 4.10)"
)]

pub mod claims;
pub mod experiments;
pub mod fuzz;
pub mod observe;
pub mod targets;
pub mod tenants;
pub mod timing;

use std::fmt::Write as _;

/// A printable result table: one labelled row per x-axis point.
pub struct Table {
    pub id: &'static str,
    pub title: String,
    pub columns: Vec<String>,
    pub rows: Vec<(String, Vec<f64>)>,
    /// Observations printed under the table, each number in them a
    /// headline or a paper value from [`claims`].
    pub notes: Vec<String>,
    /// The values this table claims about the paper, by [`claims::CLAIMS`]
    /// id. Neither [`Table::render`] nor [`Table::to_json`] writes them.
    pub headlines: Vec<(&'static str, f64)>,
}

impl Table {
    pub fn new(id: &'static str, title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            id,
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            headlines: Vec::new(),
        }
    }

    pub fn row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), values));
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Records the value of claim `id` and returns it, for the note that
    /// prints it.
    pub fn headline(&mut self, id: &'static str, value: f64) -> f64 {
        self.headlines.push((id, value));
        value
    }

    /// Column values by header name.
    pub fn column(&self, name: &str) -> Vec<f64> {
        self.try_column(name)
            .unwrap_or_else(|| panic!("no column {name} in {}", self.id))
    }

    /// Column values by header name; `None` when the table has no such
    /// column (for callers probing tables of mixed shapes).
    pub fn try_column(&self, name: &str) -> Option<Vec<f64>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|(_, v)| v[idx]).collect())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap();
        let _ = write!(out, "{:label_w$}", "");
        for c in &self.columns {
            let _ = write!(out, " {c:>14}");
        }
        let _ = writeln!(out);
        for (label, vals) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for v in vals {
                if v.abs() >= 1000.0 || (*v != 0.0 && v.abs() < 0.01) {
                    let _ = write!(out, " {v:>14.3e}");
                } else {
                    let _ = write!(out, " {v:>14.3}");
                }
            }
            let _ = writeln!(out);
        }
        for n in &self.notes {
            let _ = writeln!(out, "  * {n}");
        }
        out
    }

    /// Machine-readable dump for EXPERIMENTS.md tooling (pretty JSON).
    pub fn to_json(&self) -> String {
        use memres_des::json::{escape, num};
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"id\": \"{}\",", escape(self.id));
        let _ = writeln!(out, "  \"title\": \"{}\",", escape(&self.title));
        let cols: Vec<String> = self
            .columns
            .iter()
            .map(|c| format!("\"{}\"", escape(c)))
            .collect();
        let _ = writeln!(out, "  \"columns\": [{}],", cols.join(", "));
        out.push_str("  \"rows\": [");
        for (i, (label, values)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let vals: Vec<String> = values.iter().map(|&v| num(v)).collect();
            let _ = write!(
                out,
                "\n    {{\"label\": \"{}\", \"values\": [{}]}}",
                escape(label),
                vals.join(", ")
            );
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", escape(n)))
            .collect();
        let _ = write!(out, "  \"notes\": [{}]\n}}", notes.join(", "));
        out
    }
}

/// Ratio helper that tolerates zero denominators.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        f64::NAN
    } else {
        a / b
    }
}

/// Percent improvement of `new` over `base` (positive = faster).
pub fn improvement_pct(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (base - new) / base * 100.0
    }
}

/// Percent slowdown of `new` against `base` (positive = slower): the
/// negated [`improvement_pct`], but `+0.0`, not `-0.0`, when the two agree.
pub fn slowdown_pct(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (new - base) / base * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_and_queries() {
        let mut t = Table::new("figX", "demo", &["a", "b"]);
        t.row("r1", vec![1.0, 2.0]);
        t.row("r2", vec![3.0, 4.0]);
        t.note("note");
        let s = t.render();
        assert!(s.contains("figX"));
        assert!(s.contains("r2"));
        assert!(s.contains("* note"));
        assert_eq!(t.column("b"), vec![2.0, 4.0]);
        let j = t.to_json();
        assert!(j.contains("\"id\": \"figX\""));
        assert!(j.contains("{\"label\": \"r2\", \"values\": [3.0, 4.0]}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_handles_nan_and_escapes() {
        let mut t = Table::new("x", "a \"quoted\" title", &["c"]);
        t.row("r", vec![f64::NAN]);
        let j = t.to_json();
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"values\": [null]"));
    }

    #[test]
    fn helpers() {
        assert!((ratio(6.0, 2.0) - 3.0).abs() < 1e-12);
        assert!(ratio(1.0, 0.0).is_nan());
        assert!((improvement_pct(10.0, 7.4) - 26.0).abs() < 1e-9);
    }

    #[test]
    fn a_slowdown_of_nothing_is_positive_zero() {
        let bits = |v: f64| v.to_bits();
        assert_eq!(bits(slowdown_pct(7.937, 7.937)), bits(0.0));
        // IEEE subtraction is exactly antisymmetric: a − b = −(b − a).
        for (base, new) in [(10.0, 7.4), (7.4, 10.0), (3.0, 3.0 + 1e-12), (0.1, 0.3)] {
            assert_eq!(
                bits(slowdown_pct(base, new)),
                bits(-improvement_pct(base, new)),
                "{base} {new}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("x", "y", &["a"]);
        t.row("r", vec![1.0, 2.0]);
    }
}
