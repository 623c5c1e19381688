//! Pinned values as data. Every simulated output a model change can move —
//! a digest, an event count, a byte total, a simulated duration — is one
//! row of `golden/pins.tsv`, `name<TAB>kind<TAB>value`, named
//! `<test binary>/<case>/<quantity>`. A binary that pins keeps its
//! computations in one table of [`Case`]s: its tests [`check`] them against
//! the file, and [`tests!`] adds a test that fails a row no case owns and
//! an `#[ignore]`d `bless` that rewrites its own rows from the same table.
//! One command re-pins the workspace and prints each binary's delta table:
//!
//! ```text
//! cargo test --workspace --release -- --ignored bless
//! ```
//!
//! Each binary that pins includes this file with `#[path]`.

#![allow(dead_code, reason = "each including test binary uses its own subset")]

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// The rows every check reads: the file as it was when the binary was built.
const PINS: &str = include_str!("../golden/pins.tsv");
/// Where the file lives, from the workspace root.
const PINS_PATH: &str = "crates/bench/tests/golden/pins.tsv";
/// The command that re-pins every row.
const BLESS: &str = "cargo test --workspace --release -- --ignored bless";
/// This test binary: the first segment of its rows' names.
const BIN: &str = env!("CARGO_CRATE_NAME");
/// What a row can hold: a 64-bit FNV-1a digest (`0x` and 16 hex digits),
/// an integer count, a byte total and simulated seconds (both `f64`s in
/// their shortest round-trip form).
const KINDS: [&str; 4] = ["fnv", "count", "bytes", "sim_s"];

/// One computed value of a case, as its row writes it.
pub struct Pin {
    quantity: &'static str,
    kind: &'static str,
    value: String,
}

pub fn fnv(quantity: &'static str, digest: u64) -> Pin {
    pin(quantity, "fnv", format!("{digest:#018x}"))
}

pub fn count(quantity: &'static str, n: u64) -> Pin {
    pin(quantity, "count", n.to_string())
}

pub fn bytes(quantity: &'static str, b: f64) -> Pin {
    pin(quantity, "bytes", b.to_string())
}

pub fn sim_s(quantity: &'static str, s: f64) -> Pin {
    pin(quantity, "sim_s", s.to_string())
}

fn pin(quantity: &'static str, kind: &'static str, value: String) -> Pin {
    Pin {
        quantity,
        kind,
        value,
    }
}

/// The FNV-1a of `value`'s `Debug` rendering. Of a `JobMetrics` that is the
/// fingerprint of a run: every field, each `f64` in shortest round-trip form.
pub fn debug_fnv(quantity: &'static str, value: &impl std::fmt::Debug) -> Pin {
    fnv(quantity, memres_core::value::fnv1a(format!("{value:?}")))
}

/// A run's `events.jsonl` export: its FNV-1a as `jsonl`, then how many
/// events of each of `kinds` it holds.
pub fn jsonl(jsonl: &str, kinds: &[&'static str]) -> Vec<Pin> {
    let counts = kinds.iter().map(|&k| {
        let n = jsonl.matches(&format!("\"type\":\"{k}\"")).count();
        count(k, n as u64)
    });
    let digest = fnv("jsonl", memres_core::value::fnv1a(jsonl));
    std::iter::once(digest).chain(counts).collect()
}

/// A pinned computation: its name, and what computes its pins given that
/// name. Its rows are `<binary>/<name>/<quantity>`; a quantity computed
/// more than once (a loop over thread counts) must give one value.
pub type Case = (&'static str, fn(&'static str) -> Vec<Pin>);

/// The two tests every binary that pins has, over its case table:
/// `no_orphan_pin_rows` ([`check_no_orphans`]) and the `#[ignore]`d `bless`.
macro_rules! tests {
    ($table:expr) => {
        #[test]
        fn no_orphan_pin_rows() {
            $crate::pins::check_no_orphans($table);
        }

        #[test]
        #[ignore = "re-pins: cargo test --workspace --release -- --ignored bless"]
        fn bless() {
            $crate::pins::bless($table);
        }
    };
}
pub(crate) use tests;

/// The cases of `table` named in `names`.
pub fn named<'a>(table: &'a [Case], names: &'a [&str]) -> impl Iterator<Item = &'a Case> {
    names.iter().map(|n| {
        let case = table.iter().find(|(name, _)| name == n);
        case.unwrap_or_else(|| panic!("no case {n} in the table"))
    })
}

/// Recomputes `cases` and compares every pin with its row. A moved value, a
/// missing row, a row of the case that nothing computes and a quantity
/// with two values all fail, together, as a diff to paste.
pub fn check<'a>(cases: impl IntoIterator<Item = &'a Case>) {
    let rows = parse(PINS);
    let mut diff = Vec::new();
    for &(case, compute) in cases {
        let prefix = format!("{BIN}/{case}/");
        let fresh = computed(&prefix, case, compute);
        let pinned = rows.iter().filter(|r| r[0].starts_with(&prefix));
        for row in pinned.clone().filter(|r| !fresh.contains_key(r[0])) {
            diff.push(format!("-{}", row.join("\t")));
        }
        for (name, (kind, values)) in &fresh {
            let row = pinned.clone().find(|r| r[0] == name);
            let holds = |r: &[&str; 3]| r[1] == *kind && values.iter().all(|v| v == r[2]);
            if values.len() > 1 || !row.is_some_and(holds) {
                diff.extend(row.map(|r| format!("-{}", r.join("\t"))));
                diff.extend(values.iter().map(|v| format!("+{name}\t{kind}\t{v}")));
            }
        }
    }
    assert!(
        diff.is_empty(),
        "pinned values of `{BIN}` moved; apply this to {PINS_PATH}, or re-pin every row \
         with `{BLESS}` (a name with two `+` lines has no one value to pin):\n{}",
        diff.join("\n")
    );
}

/// Fails every row of this binary that names no case of `table`.
pub fn check_no_orphans(table: &[Case]) {
    let orphans: Vec<String> = parse(PINS)
        .iter()
        .filter(|r| {
            let mut segments = r[0].split('/');
            let (bin, case) = (segments.next(), segments.next());
            bin == Some(BIN) && !table.iter().any(|(c, _)| Some(*c) == case)
        })
        .map(|r| format!("-{}", r.join("\t")))
        .collect();
    assert!(
        orphans.is_empty(),
        "rows of {PINS_PATH} that no case of `{BIN}` owns; delete them:\n{}",
        orphans.join("\n")
    );
}

/// Recomputes every case of `table` and rewrites this binary's rows of the
/// pin file on disk — only those, so binaries blessing one after another
/// never undo each other — then prints what moved. Refuses to write if a
/// quantity got two values.
#[allow(
    clippy::disallowed_methods,
    reason = "bless reads and rewrites a checked-in golden"
)]
pub fn bless(table: &[Case]) {
    let mut fresh = Vec::new();
    for &(case, compute) in table {
        for (name, (kind, values)) in computed(&format!("{BIN}/{case}/"), case, compute) {
            let [value] = values.as_slice() else {
                panic!("not blessing `{BIN}`: {name} took the values {values:?} in one run");
            };
            fresh.push(format!("{name}\t{kind}\t{value}"));
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join(PINS_PATH))
        .find(|p| p.is_file())
        .expect("the pin file above the package");
    let text = std::fs::read_to_string(&path).expect("read the pin file");
    let ours = |l: &&str| l.starts_with(&format!("{BIN}/"));
    // Our rows go back where the first of them was, in table order.
    let kept: Vec<&str> = text.lines().filter(|l| !ours(l)).collect();
    let (before, after) = kept.split_at(text.lines().position(|l| ours(&l)).unwrap_or(kept.len()));
    let fresh: Vec<&str> = fresh.iter().map(String::as_str).collect();
    let rewritten = [before, &fresh, after].concat().join("\n") + "\n";
    if rewritten != text {
        std::fs::write(&path, &rewritten).expect("write the pin file");
    }
    let old: BTreeMap<&str, &str> = parse(&text).iter().map(|r| (r[0], r[2])).collect();
    let new = parse(&rewritten);
    let mut moved: Vec<String> = new
        .iter()
        .filter(|r| ours(&r[0]) && old.get(r[0]) != Some(&r[2]))
        .map(|r| delta(r, old.get(r[0]).copied()))
        .collect();
    let removed = old
        .iter()
        .filter(|(n, _)| ours(n) && !new.iter().any(|r| r[0] == **n));
    moved.extend(removed.map(|(n, v)| format!("| {n} | | {v} | — | removed |")));
    let mut out = format!(
        "{PINS_PATH} · {BIN}: {} moved of {} rows\n",
        moved.len(),
        fresh.len()
    );
    if !moved.is_empty() {
        out += "| name | kind | old | new | Δ |\n|---|---|---|---|---|\n";
        out += &(moved.join("\n") + "\n");
    }
    say(&out);
}

/// Writes `text` to the terminal even while the harness captures output:
/// a bless run's table is its artifact.
pub fn say(text: &str) {
    let _ = std::io::stderr().write_all(text.as_bytes());
}

/// The rows of a pin file, `[name, kind, value]`; `#` lines and blank
/// lines are comments.
fn parse(text: &str) -> Vec<[&str; 3]> {
    let lines = text.lines().enumerate();
    let rows = lines.filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    rows.map(|(i, l)| match l.split('\t').collect::<Vec<_>>()[..] {
        [name, kind, value]
            if name.split('/').count() == 3 && KINDS.contains(&kind) && !value.is_empty() =>
        {
            [name, kind, value]
        }
        _ => panic!(
            "{PINS_PATH}:{}: not `name<TAB>kind<TAB>value`: {l:?}",
            i + 1
        ),
    })
    .collect()
}

/// The pins `compute` gives for `case`, by row name: the kind, and each
/// value the quantity took.
fn computed(
    prefix: &str,
    case: &'static str,
    compute: fn(&'static str) -> Vec<Pin>,
) -> BTreeMap<String, (&'static str, Vec<String>)> {
    // Shown with the failure if the case panics.
    eprintln!("pins: computing {prefix}");
    let mut by_name: BTreeMap<String, (&'static str, Vec<String>)> = BTreeMap::new();
    for p in compute(case) {
        let name = format!("{prefix}{}", p.quantity);
        let (_, values) = by_name.entry(name).or_insert((p.kind, Vec::new()));
        if !values.contains(&p.value) {
            values.push(p.value);
        }
    }
    by_name
}

/// A row's line of the delta table against its old value: the difference
/// and the ratio for a number, "moved" for a digest.
fn delta([name, kind, new]: &[&str; 3], old: Option<&str>) -> String {
    let Some(old) = old else {
        return format!("| {name} | {kind} | — | {new} | added |");
    };
    let change = match (*kind, old.parse::<f64>(), new.parse::<f64>()) {
        ("fnv", ..) | (_, Err(_), _) | (_, _, Err(_)) => "moved".to_string(),
        (kind, Ok(o), Ok(n)) => {
            let ratio = if o == 0.0 {
                "—".into()
            } else {
                format!("×{:.4}", n / o)
            };
            let d = if kind == "sim_s" {
                format!("{:+.9}", n - o)
            } else {
                format!("{:+}", n - o)
            };
            format!("{d} ({ratio})")
        }
    };
    format!("| {name} | {kind} | {old} | {new} | {change} |")
}
