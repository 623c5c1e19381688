//! Seeded-mutation fixtures: prove the lint engine *would* catch the
//! regressions it exists for, by breaking real workspace files in memory
//! and asserting the expected rule fires.
//!
//! Each test loads the actual sources, applies one surgical mutation,
//! and runs the same checks `memres-lint` runs in CI. If a refactor ever
//! blinds a rule — a renamed scheduling call, a lexer that stops seeing a
//! clamp — these tests fail before the blind spot reaches main. (The rules
//! clippy enforces are pinned by `#[expect]`s instead: DESIGN.md §4.10.)

#![allow(
    clippy::disallowed_methods,
    reason = "a test of the tool that reads the workspace's source files (DESIGN.md 4.10)"
)]

use memres_lint::{rules_for, scan_source, RuleSet};
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The files the mutations below break lint clean as they stand, so a rule
/// that fires on a mutant fires because of the mutation.
#[test]
fn unmutated_tree_is_clean() {
    for rel in ["crates/des/src/sim.rs", "crates/core/src/world.rs"] {
        let d = scan_source(rel, &read(rel), rules_for(rel));
        assert!(d.is_empty(), "{rel} must lint clean: {d:?}");
    }
}

// ---------------------------------------------------------- event-past

/// Stripping the `time >= self.now` guard from the kernel's own scheduling
/// sites must fire `event-past` on that file: the assert is the only proof
/// `Simulation::schedule` has that the time it pushes is not in the past
/// (`Outbox::at` pushes onto a plain `Vec`, which is not a scheduling call).
#[test]
fn unguarded_schedule_timestamp_fires_event_past() {
    let rel = "crates/des/src/sim.rs";
    let src = read(rel);
    let guard = "\n            time >= self.now,\n";
    assert_eq!(
        src.matches(guard).count(),
        2,
        "Outbox::at and Simulation::schedule no longer assert this way; update this fixture"
    );
    let mutated = src.replace(guard, "\ntrue,\n");
    let rules = rules_for(rel);
    assert!(rules.event_past, "sim.rs must carry the event-past rule");
    let d = scan_source(rel, &mutated, rules);
    assert!(
        d.iter().any(|d| d.rule == "event-past"),
        "unguarded push must fire: {d:?}"
    );
}

/// Same mutation in the engine's retry arm: deleting the justification
/// comment (the `lint:allow`) must re-expose the raw timestamp.
#[test]
fn deleted_allow_reexposes_event_past() {
    let rel = "crates/core/src/world.rs";
    let src = read(rel);
    let mutated: String = src
        .lines()
        .filter(|l| !l.contains("lint:allow(event-past)"))
        .collect::<Vec<_>>()
        .join("\n");
    let d = scan_source(rel, &mutated, rules_for(rel));
    assert!(
        d.iter().any(|d| d.rule == "event-past"),
        "world.rs has event-past escapes that an allow justifies; deleting \
         them must fire: {d:?}"
    );
}

// ----------------------------------------------------------- layer map

/// A crate nobody has listed anywhere is simulation code because it exists:
/// a fabricated file under a new `crates/<name>/src` carries R5-R7, and one
/// violation of each fires there.
#[test]
fn new_crate_is_covered_without_being_listed() {
    let rel = "crates/newcrate/src/x.rs";
    let rules = rules_for(rel);
    assert_eq!(rules, RuleSet::sim());
    let src = "fn f(&mut self, out: &mut Outbox, t: SimTime) { out.at(t, Ev::Wake); }\n\
               fn g(deadline: SimTime) -> u64 { deadline.0 }\n\
               fn h(m: &DetMap<u32, f64>) -> f64 { m.values().sum() }\n";
    let fired: Vec<String> = scan_source(rel, src, rules)
        .into_iter()
        .map(|d| format!("{}:{}", d.line, d.rule))
        .collect();
    assert_eq!(fired, ["1:event-past", "2:time-units", "3:float-order"]);
    // The measurement crates and non-`src` trees of any crate stay exempt.
    for rel in ["crates/bench/src/x.rs", "crates/newcrate/tests/x.rs"] {
        assert!(rules_for(rel).is_empty(), "{rel}");
    }
}
