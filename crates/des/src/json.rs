//! Minimal JSON emission helpers.
//!
//! The build environment has no registry access, so serde_json is not
//! available; every JSON document the workspace writes (metric and trace
//! exports, table dumps, perf records) is built with these two functions.

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an f64 as a JSON number: `Display` plus a trailing `.0` for
/// integral values, so it round-trips as a float and is byte-stable for
/// identical inputs. Non-finite values become `null`, matching serde_json.
pub fn num(v: f64) -> String {
    Num(v).to_string()
}

/// [`num`] as a `Display` adapter: exporters `write!` it straight into their
/// buffer instead of building a `String` per number.
pub struct Num(pub f64);

impl std::fmt::Display for Num {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = self.0;
        if !v.is_finite() {
            f.write_str("null")
        } else if v.fract() == 0.0 {
            // `Display` for f64 never uses an exponent, so an integral value
            // is the one rendering without a '.'.
            write!(f, "{v}.0")
        } else {
            write!(f, "{v}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers() {
        assert_eq!(num(1.0), "1.0");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(2.0), "2.0");
        assert_eq!(num(-0.0), "-0.0");
        assert_eq!(num(1e300), format!("1{}.0", "0".repeat(300)));
        assert_eq!(num(1e-7), "0.0000001");
    }
}
