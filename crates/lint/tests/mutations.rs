//! Seeded-mutation fixtures: prove the lint engine *would* catch the
//! regressions it exists for, by breaking real workspace files in memory
//! and asserting the expected rule fires.
//!
//! Each test loads the actual sources (tests are exempt from the io rule;
//! the lint crate never ships this code), applies one surgical mutation,
//! and runs the same checks `memres-lint` runs in CI. If a refactor ever
//! blinds a rule — a renamed dispatch fn, a parser that stops seeing match
//! arms — these tests fail before the blind spot reaches main.

use memres_lint::{rules_for, scan_source, xfile};
use std::collections::HashMap;
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

/// Run the cross-file checks against the real tree with `overrides`
/// substituted for specific files.
fn xfile_with(overrides: &HashMap<&str, String>) -> Vec<memres_lint::Diagnostic> {
    let root = root();
    let mut load = |rel: &str| -> Option<String> {
        if let Some(s) = overrides.get(rel) {
            return Some(s.clone());
        }
        std::fs::read_to_string(root.join(rel)).ok()
    };
    xfile::check_all(&mut load)
}

#[test]
fn unmutated_tree_is_clean() {
    let d = xfile_with(&HashMap::new());
    assert!(d.is_empty(), "cross-file checks on the real tree: {d:?}");
}

// ------------------------------------------------- exhaustive-dispatch

/// Removing an `Ev` match arm from the engine dispatch must fire
/// `exhaustive-dispatch` naming the orphaned variant. The mutation renames
/// every reference to one variant inside `fn handle` to another existing
/// variant — exactly what a careless merge produces.
#[test]
fn removed_ev_match_arm_fires_exhaustive_dispatch() {
    let world = read("crates/core/src/world.rs");
    let handle_at = world.find("fn handle").expect("fn handle in world.rs");
    // `SpeedResample` has a single dispatch arm; retarget it.
    let (head, body) = world.split_at(handle_at);
    assert!(
        body.contains("Ev::SpeedResample"),
        "mutation target lost; pick another variant"
    );
    let mutated = format!(
        "{head}{}",
        body.replace("Ev::SpeedResample", "Ev::Dispatch")
    );
    let mut overrides = HashMap::new();
    overrides.insert("crates/core/src/world.rs", mutated);
    let d = xfile_with(&overrides);
    assert!(
        d.iter()
            .any(|d| d.rule == xfile::RULE_DISPATCH && d.message.contains("Ev::SpeedResample")),
        "{d:?}"
    );
}

/// A `_ =>` wildcard in the dispatch would swallow future variants; the
/// rule must reject it even when every current variant is still handled.
#[test]
fn wildcard_dispatch_arm_fires_exhaustive_dispatch() {
    let world = read("crates/core/src/world.rs");
    let handle_at = world.find("fn handle").expect("fn handle in world.rs");
    let brace = world[handle_at..].find('{').expect("handle body") + handle_at + 1;
    let mutated = format!(
        "{}\n        #[allow(unreachable_patterns)]\n        let _catch = |e: &Ev| match e {{ _ => () }};\n{}",
        &world[..brace],
        &world[brace..]
    );
    let mut overrides = HashMap::new();
    overrides.insert("crates/core/src/world.rs", mutated);
    let d = xfile_with(&overrides);
    assert!(
        d.iter()
            .any(|d| d.rule == xfile::RULE_DISPATCH && d.message.contains("wildcard")),
        "{d:?}"
    );
}

// ---------------------------------------------------- exhaustive-trace

/// Dropping a `TraceEvent` payload arm from the exporter must fire
/// `exhaustive-trace`: both exporters would silently emit that event with
/// no fields.
#[test]
fn missing_exporter_case_fires_exhaustive_trace() {
    let export = read("crates/trace/src/export.rs");
    let payload_at = export.find("fn payload").expect("fn payload in export.rs");
    let (head, body) = export.split_at(payload_at);
    // Pick the first variant referenced in the payload dispatch.
    let vref = body
        .find("TraceEvent::")
        .map(|p| {
            let rest = &body[p + "TraceEvent::".len()..];
            let end = rest
                .find(|c: char| !c.is_alphanumeric() && c != '_')
                .unwrap_or(rest.len());
            rest[..end].to_string()
        })
        .expect("a TraceEvent reference in fn payload");
    let mutated = format!(
        "{head}{}",
        body.replacen(&format!("TraceEvent::{vref}"), "TraceEvent::__Gone", 1)
    );
    let mut overrides = HashMap::new();
    overrides.insert("crates/trace/src/export.rs", mutated);
    let d = xfile_with(&overrides);
    assert!(
        d.iter().any(|d| d.rule == xfile::RULE_TRACE
            && d.message.contains(&format!("TraceEvent::{vref}"))
            && d.message.contains("payload")),
        "mutated away {vref}: {d:?}"
    );
}

/// A new enum variant with no exporter arms anywhere must be reported in
/// both dispatch points.
#[test]
fn new_trace_variant_fires_in_both_exporters() {
    let lib = read("crates/trace/src/lib.rs");
    let enum_at = lib.find("pub enum TraceEvent").expect("TraceEvent enum");
    let brace = lib[enum_at..].find('{').expect("enum body") + enum_at + 1;
    let mutated = format!(
        "{}\n    PhantomNever {{ node: u32 }},\n{}",
        &lib[..brace],
        &lib[brace..]
    );
    let mut overrides = HashMap::new();
    overrides.insert("crates/trace/src/lib.rs", mutated);
    let d = xfile_with(&overrides);
    let hits: Vec<_> = d
        .iter()
        .filter(|d| d.rule == xfile::RULE_TRACE && d.message.contains("PhantomNever"))
        .collect();
    assert_eq!(hits.len(), 2, "kind + payload: {d:?}");
}

// --------------------------------------------------------- cell-smoke

/// Deleting a repro smoke line from check.sh must fire `cell-smoke` for
/// that family.
#[test]
fn dropped_smoke_family_fires_cell_smoke() {
    let check = read("scripts/check.sh");
    let mutated: String = check
        .lines()
        .map(|l| {
            if l.contains("repro") && l.contains("fuzz") && !l.trim_start().starts_with('#') {
                "true # smoke deleted by mutation test".to_string()
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let mut overrides = HashMap::new();
    overrides.insert("scripts/check.sh", mutated);
    let d = xfile_with(&overrides);
    assert!(
        d.iter()
            .any(|d| d.rule == xfile::RULE_CELL_SMOKE && d.message.contains("`fuzz`")),
        "{d:?}"
    );
}

/// Renaming the pinned byte-determinism cell out from under check.sh must
/// fire `cell-smoke`.
#[test]
fn stale_pinned_cell_fires_cell_smoke() {
    let check = read("scripts/check.sh");
    assert!(check.contains("cell=\""), "check.sh no longer pins a cell");
    let mutated = {
        let pos = check.find("cell=\"").unwrap() + "cell=\"".len();
        let close = check[pos..].find('"').unwrap() + pos;
        format!("{}fig0_nonexistent{}", &check[..pos], &check[close..])
    };
    let mut overrides = HashMap::new();
    overrides.insert("scripts/check.sh", mutated);
    let d = xfile_with(&overrides);
    assert!(
        d.iter()
            .any(|d| d.rule == xfile::RULE_CELL_SMOKE && d.message.contains("fig0_nonexistent")),
        "{d:?}"
    );
}

// -------------------------------------------------- exhaustive-metrics

/// Dropping a catalog series from one exporter list must fire
/// `exhaustive-metrics` naming the dropped series and the blind exporter —
/// the sampler would keep recording a gauge that silently never ships.
#[test]
fn dropped_exporter_series_fires_exhaustive_metrics() {
    let export = read("crates/metrics/src/export.rs");
    let csv_at = export.find("CSV_SERIES").expect("CSV_SERIES in export.rs");
    let (head, body) = export.split_at(csv_at);
    assert!(
        body.contains("\"storage_ssd_gc_nodes\""),
        "mutation target lost; pick another series"
    );
    let mutated = format!(
        "{head}{}",
        body.replacen("\"storage_ssd_gc_nodes\",", "", 1)
    );
    let mut overrides = HashMap::new();
    overrides.insert("crates/metrics/src/export.rs", mutated);
    let d = xfile_with(&overrides);
    assert!(
        d.iter().any(|d| d.rule == xfile::RULE_METRICS
            && d.message.contains("storage_ssd_gc_nodes")
            && d.message.contains("CSV_SERIES")),
        "{d:?}"
    );
}

/// A series added to the catalog but taught to neither exporter must be
/// reported against both lists.
#[test]
fn new_catalog_series_fires_in_both_exporters() {
    let catalog = read("crates/metrics/src/catalog.rs");
    let decl = catalog.find("ALL_NAMES").expect("ALL_NAMES in catalog.rs");
    // Skip past the `=` so the `[&str; N]` type brackets don't match.
    let eq = catalog[decl..].find('=').expect("array assignment") + decl;
    let open = catalog[eq..].find('[').expect("array open") + eq + 1;
    let mutated = format!(
        "{}\n    \"phantom_never_gauge\",{}",
        &catalog[..open],
        &catalog[open..]
    );
    let mut overrides = HashMap::new();
    overrides.insert("crates/metrics/src/catalog.rs", mutated);
    let d = xfile_with(&overrides);
    let hits: Vec<_> = d
        .iter()
        .filter(|d| d.rule == xfile::RULE_METRICS && d.message.contains("phantom_never_gauge"))
        .collect();
    assert_eq!(hits.len(), 2, "OPENMETRICS_SERIES + CSV_SERIES: {d:?}");
}

/// The reverse drift — an exporter entry with no catalog series behind it —
/// must fire against the catalog.
#[test]
fn orphan_exporter_entry_fires_exhaustive_metrics() {
    let export = read("crates/metrics/src/export.rs");
    let decl = export
        .find("OPENMETRICS_SERIES")
        .expect("OPENMETRICS_SERIES in export.rs");
    let eq = export[decl..].find('=').expect("array assignment") + decl;
    let open = export[eq..].find('[').expect("array open") + eq + 1;
    let mutated = format!(
        "{}\n    \"ghost_series\",{}",
        &export[..open],
        &export[open..]
    );
    let mut overrides = HashMap::new();
    overrides.insert("crates/metrics/src/export.rs", mutated);
    let d = xfile_with(&overrides);
    assert!(
        d.iter().any(|d| d.rule == xfile::RULE_METRICS
            && d.message.contains("ghost_series")
            && d.message.contains("ALL_NAMES")),
        "{d:?}"
    );
}

// ---------------------------------------------------------- event-past

/// Stripping the `.max(now)` clamp from a real scheduling site in the
/// engine must fire `event-past` on that file. (`Simulation::schedule`
/// would still pass statically — its strict assert `time >= self.now` is a
/// guard the rule accepts — so the fixture declamps `drain_outbox`, which
/// has no other proof.)
#[test]
fn bare_schedule_timestamp_fires_event_past() {
    let rel = "crates/des/src/sim.rs";
    let src = read(rel);
    let clamped = "self.queue.push(t.max(self.now), e)";
    assert!(
        src.contains(clamped),
        "Simulation::drain_outbox no longer clamps; update this fixture"
    );
    let mutated = src.replacen(clamped, "self.queue.push(t, e)", 1);
    let rules = rules_for(rel);
    assert!(rules.event_past, "sim.rs must carry the event-past rule");
    let d = scan_source(rel, &mutated, rules);
    assert!(
        d.iter().any(|d| d.rule == "event-past"),
        "declamped push must fire: {d:?}"
    );
    // And the unmutated file stays clean — the clamp is the whole fix.
    let d = scan_source(rel, &src, rules);
    assert!(d.is_empty(), "real sim.rs must lint clean: {d:?}");
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

// --------------------------------------------------------------- panic

/// R4 follows the engine kernel into its `world/` modules: a bare
/// `.unwrap()` seeded into one is caught, where a rule keyed on the file
/// name `world.rs` would have let it through.
#[test]
fn bare_unwrap_in_a_world_module_fires_panic() {
    let rel = "crates/core/src/world/sched.rs";
    let src = read(rel);
    let rules = rules_for(rel);
    assert!(rules.panic, "world/ modules must carry the panic rule");
    let d = scan_source(rel, &src, rules);
    assert!(d.is_empty(), "real sched.rs must lint clean: {d:?}");
    let at = src
        .find("impl SimWorld {")
        .expect("an impl block in sched.rs");
    let mutated = format!(
        "{}fn seeded(x: Option<u32>) -> u32 {{\n    x.unwrap()\n}}\n\n{}",
        &src[..at],
        &src[at..]
    );
    let d = scan_source(rel, &mutated, rules);
    assert!(
        d.iter()
            .any(|d| d.rule == "panic" && d.message.contains("unwrap")),
        "seeded unwrap must fire: {d:?}"
    );
}
