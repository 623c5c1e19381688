//! Minimal JSON and text emission (DESIGN.md §4.11).
//!
//! The build environment has no registry access, so serde_json is not
//! available. Documents are built from three pieces: [`escape`] for a
//! string, [`num`] for a one-off float (table dumps, perf records), and
//! [`Writer`], an append-only buffer that the trace and metrics exporters
//! fill field by field without going through `core::fmt` for anything but
//! non-integral floats.

use std::fmt::Write as _;

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
    let mut w = Writer::with_capacity(24);
    w.num(v);
    w.into_string()
}

/// `"00"`, `"01"`, …, `"99"`: two digits per division by 100.
const PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// 2⁵³: below it every integer is an f64, so an integral f64's shortest
/// round-trip digits are exactly its integer digits.
const EXACT_INTS: f64 = 9_007_199_254_740_992.0;

/// An append-only text buffer with one method per kind of piece. Integers
/// go out two digits at a time and an integral f64 below 2⁵³ as its
/// integer; only other floats go through `Display`. Each method returns
/// the writer, so a row is one chain.
#[derive(Debug, Default)]
pub struct Writer {
    buf: String,
}

impl Writer {
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            buf: String::with_capacity(bytes),
        }
    }

    pub fn into_string(self) -> String {
        self.buf
    }

    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.buf.push_str(s);
        self
    }

    #[inline]
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.str(if b { "true" } else { "false" })
    }

    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.u64(v.into())
    }

    /// `v` in decimal, as `Display` writes it.
    #[inline]
    pub fn u64(&mut self, mut v: u64) -> &mut Self {
        // Pairs come off the low end; at most ten, the first possibly one
        // digit.
        let mut low = [0u8; 10];
        let mut n = 0;
        while v >= 100 {
            low[n] = (v % 100) as u8;
            v /= 100;
            n += 1;
        }
        if v >= 10 {
            self.pair(v as u8);
        } else {
            self.buf.push(char::from(b'0' + v as u8));
        }
        for &p in low[..n].iter().rev() {
            self.pair(p);
        }
        self
    }

    #[inline]
    fn pair(&mut self, p: u8) {
        let at = usize::from(p) * 2;
        self.buf.push_str(&PAIRS[at..at + 2]);
    }

    /// A nanosecond count as microseconds with a fixed three-digit
    /// fraction (`1234567` → `1234.567`): integer math only.
    #[inline]
    pub fn us(&mut self, ns: u64) -> &mut Self {
        let frac = (ns % 1_000) as u16;
        self.u64(ns / 1_000).buf.push('.');
        self.buf.push(char::from(b'0' + (frac / 100) as u8));
        self.pair((frac % 100) as u8);
        self
    }

    /// `v` as `Display` writes it (`3`, `-0`, `0.25`, `NaN`, `inf`).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.fract() == 0.0 && v.abs() < EXACT_INTS {
            if v.is_sign_negative() {
                self.buf.push('-');
            }
            self.u64(v.abs() as u64)
        } else {
            // Writing to a `String` cannot fail.
            let _ = write!(self.buf, "{v}");
            self
        }
    }

    /// `v` as a JSON number: the bytes of [`num`].
    pub fn num(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.str("null");
        }
        self.f64(v);
        if v.fract() == 0.0 {
            // `Display` never uses an exponent, so an integral value is the
            // one rendering without a '.'.
            self.str(".0");
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(num(EXACT_INTS), "9007199254740992.0");
        assert_eq!(num(2f64.powi(60)), "1152921504606847000.0");
    }

    #[test]
    fn timestamps_render_with_fixed_nanosecond_fraction() {
        let us = |ns| {
            let mut w = Writer::default();
            w.us(ns);
            w.into_string()
        };
        assert_eq!(us(0), "0.000");
        assert_eq!(us(7), "0.007");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1.000");
        assert_eq!(us(1_234_567), "1234.567");
    }

    /// The bytes every float took before the writer: `Display`, plus `.0`
    /// when integral, `null` when not finite.
    fn display_num(v: f64) -> String {
        if !v.is_finite() {
            "null".to_string()
        } else if v.fract() == 0.0 {
            format!("{v}.0")
        } else {
            format!("{v}")
        }
    }

    fn written(v: f64) -> (String, String) {
        let (mut plain, mut json) = (Writer::default(), Writer::default());
        plain.f64(v);
        json.num(v);
        (plain.into_string(), json.into_string())
    }

    #[test]
    fn floats_at_the_edges_match_display() {
        let two53 = EXACT_INTS;
        let edges = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            9.0,
            10.0,
            99.0,
            100.0,
            two53 - 1.0,
            two53,
            -two53,
            two53 + 2.0,
            2f64.powi(60),
            u64::MAX as f64,
            0.1,
            1e-7,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in edges {
            assert_eq!(written(v), (format!("{v}"), display_num(v)), "{v:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

        /// Integers of every width, and floats drawn from every exponent:
        /// integral ones on both sides of 2⁵³ and fractions.
        #[test]
        fn writer_matches_display(
            bits in any::<u64>(),
            shift in 0u32..64,
            float_bits in any::<u64>(),
            int_part in 0u64..(1 << 54),
        ) {
            let v = bits >> shift;
            let mut w = Writer::default();
            w.u64(v).str(",").u32(v as u32);
            prop_assert_eq!(w.into_string(), format!("{v},{}", v as u32));

            for f in [f64::from_bits(float_bits), int_part as f64, -(int_part as f64)] {
                prop_assert_eq!(written(f), (format!("{f}"), display_num(f)));
            }
        }
    }
}
