//! Cross-file exhaustiveness checks (lint v2, DESIGN.md §4.15).
//!
//! The per-file rules cannot see schema drift that spans files: an `Ev`
//! variant added to the engine's event enum but never dispatched, a
//! `TraceEvent` variant missing from one of the two exporters, or a repro
//! cell family that quietly lost its CI smoke. These checks read the
//! *relationship* between files:
//!
//! * **`exhaustive-dispatch`** — every variant of `enum Ev` in
//!   `crates/core/src/world.rs` is referenced (`Ev::Variant`) inside the
//!   engine's `fn handle` body, and the dispatch match carries no `_ =>`
//!   wildcard arm that could swallow new variants silently.
//! * **`exhaustive-trace`** — every variant of `enum TraceEvent` in
//!   `crates/trace/src/lib.rs` appears in both exporter dispatch points:
//!   `fn kind` (the events.jsonl `type` field) and `fn payload` in
//!   `crates/trace/src/export.rs` (the argument body both the Perfetto and
//!   the events.jsonl exporter embed).
//! * **`cell-smoke`** — every repro cell family the gate smokes
//!   (`bench`, `scale`, `faults`, `baselines`, `tenants`, `trace`, `fuzz`,
//!   `report`, `diff`) is invoked by `scripts/check.sh`, and the trace cell the gate
//!   pins is still a member of `CELL_NAMES` in `crates/bench/src/perf.rs`.
//! * **`exhaustive-metrics`** — every series name in the metrics catalog
//!   (`ALL_NAMES` in `crates/metrics/src/catalog.rs`) appears in both
//!   exporter series lists (`OPENMETRICS_SERIES` and `CSV_SERIES` in
//!   `crates/metrics/src/export.rs`), and vice versa: a gauge the sampler
//!   records but an exporter silently drops (or an exporter entry with no
//!   catalog definition behind it) fails the gate.
//!
//! Input is a loader callback (`&mut dyn FnMut(&str) -> Option<String>`)
//! mapping a workspace-relative path to file contents, so the checks run
//! identically against the real tree and against seeded-mutation fixtures
//! in tests.

use crate::lex::{ident_is, lex, punct_is, Tok, TokKind};
use crate::Diagnostic;

pub const RULE_DISPATCH: &str = "exhaustive-dispatch";
pub const RULE_TRACE: &str = "exhaustive-trace";
pub const RULE_CELL_SMOKE: &str = "cell-smoke";
pub const RULE_METRICS: &str = "exhaustive-metrics";

pub const XFILE_RULES: [&str; 4] = [RULE_DISPATCH, RULE_TRACE, RULE_CELL_SMOKE, RULE_METRICS];

const WORLD: &str = "crates/core/src/world.rs";
const TRACE_LIB: &str = "crates/trace/src/lib.rs";
const TRACE_EXPORT: &str = "crates/trace/src/export.rs";
const PERF: &str = "crates/bench/src/perf.rs";
const CHECK_SH: &str = "scripts/check.sh";
const METRICS_CATALOG: &str = "crates/metrics/src/catalog.rs";
const METRICS_EXPORT: &str = "crates/metrics/src/export.rs";

/// The repro cell families `scripts/check.sh` must smoke (each is a CLI
/// surface whose output shape or determinism the gate checks).
pub const SMOKED_FAMILIES: [&str; 9] = [
    "bench",
    "scale",
    "faults",
    "baselines",
    "tenants",
    "trace",
    "fuzz",
    "report",
    "diff",
];

/// Run every cross-file check, loading file contents through `load`.
/// A file the loader cannot produce is itself a finding — the checks must
/// not silently pass because a rename hid their subject.
pub fn check_all(load: &mut dyn FnMut(&str) -> Option<String>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_dispatch(load, &mut diags);
    check_trace(load, &mut diags);
    check_cell_smoke(load, &mut diags);
    check_metrics(load, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    diags
}

fn missing_file(file: &str, rule: &str) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line: 1,
        col: 1,
        rule: rule.to_string(),
        message: format!("`{file}` not found — the {rule} check lost its subject"),
    }
}

fn diag(file: &str, line: u32, rule: &str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        col: 1,
        rule: rule.to_string(),
        message,
    }
}

// ------------------------------------------------------------ enum model

/// A parsed enum: variant names with their declaration lines.
struct EnumDef {
    line: u32,
    variants: Vec<(String, u32)>,
}

/// Find `enum <name> { … }` in the token stream and collect its variants:
/// identifiers at brace depth 1 whose previous significant token is `{`,
/// `,` or a variant-closing `}` / `)`.
fn parse_enum(toks: &[Tok], name: &str) -> Option<EnumDef> {
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if ident_is(&toks[i], "enum") && ident_is(&toks[i + 1], name) {
            break;
        }
        i += 1;
    }
    if i + 1 >= toks.len() {
        return None;
    }
    let line = toks[i].line;
    // Advance to the opening `{` (skipping generics, which Ev/TraceEvent
    // do not use, but cheap to tolerate).
    let mut j = i + 2;
    while j < toks.len() && !punct_is(&toks[j], '{') {
        j += 1;
    }
    let mut variants = Vec::new();
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut expect_variant = false;
    while j < toks.len() {
        let t = &toks[j];
        match &t.kind {
            TokKind::Punct('{') => {
                brace += 1;
                if brace == 1 {
                    expect_variant = true;
                }
            }
            TokKind::Punct('}') => {
                brace -= 1;
                if brace == 0 {
                    break;
                }
                if brace == 1 {
                    expect_variant = false; // `,` after the body re-arms
                }
            }
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct(',') if brace == 1 && paren == 0 => expect_variant = true,
            TokKind::Punct('#') if brace == 1 => {
                // Variant attribute: skip the `[ … ]` group.
                let mut depth = 0i32;
                j += 1;
                while j < toks.len() {
                    if punct_is(&toks[j], '[') {
                        depth += 1;
                    } else if punct_is(&toks[j], ']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
            }
            TokKind::Ident(id) if brace == 1 && paren == 0 && expect_variant => {
                variants.push((id.clone(), t.line));
                expect_variant = false;
            }
            _ => {}
        }
        j += 1;
    }
    Some(EnumDef { line, variants })
}

/// Token span (exclusive end) of the body of `fn <name>`: from its opening
/// `{` to the matching `}`.
fn fn_body_span(toks: &[Tok], name: &str) -> Option<(usize, usize)> {
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if ident_is(&toks[i], "fn") && ident_is(&toks[i + 1], name) {
            break;
        }
        i += 1;
    }
    if i + 1 >= toks.len() {
        return None;
    }
    let mut j = i + 2;
    while j < toks.len() && !punct_is(&toks[j], '{') {
        j += 1;
    }
    let start = j;
    let mut depth = 0i32;
    while j < toks.len() {
        if punct_is(&toks[j], '{') {
            depth += 1;
        } else if punct_is(&toks[j], '}') {
            depth -= 1;
            if depth == 0 {
                return Some((start, j + 1));
            }
        }
        j += 1;
    }
    None
}

/// Variant names referenced as `<enum_name> :: <Variant>` within `span`.
fn referenced_variants(toks: &[Tok], span: (usize, usize), enum_name: &str) -> Vec<String> {
    let mut out = Vec::new();
    let (s, e) = span;
    let mut j = s;
    while j + 3 < e {
        if ident_is(&toks[j], enum_name)
            && punct_is(&toks[j + 1], ':')
            && punct_is(&toks[j + 2], ':')
        {
            if let TokKind::Ident(v) = &toks[j + 3].kind {
                out.push(v.clone());
            }
        }
        j += 1;
    }
    out
}

/// Does `span` contain a match wildcard arm (`_ =>`)?
fn has_wildcard_arm(toks: &[Tok], span: (usize, usize)) -> bool {
    let (s, e) = span;
    (s..e.saturating_sub(2)).any(|j| {
        ident_is(&toks[j], "_") && punct_is(&toks[j + 1], '=') && punct_is(&toks[j + 2], '>')
    })
}

// ---------------------------------------------------------------- checks

fn check_dispatch(load: &mut dyn FnMut(&str) -> Option<String>, diags: &mut Vec<Diagnostic>) {
    let Some(src) = load(WORLD) else {
        diags.push(missing_file(WORLD, RULE_DISPATCH));
        return;
    };
    let toks = lex(&src).tokens;
    let Some(ev) = parse_enum(&toks, "Ev") else {
        diags.push(diag(
            WORLD,
            1,
            RULE_DISPATCH,
            "`enum Ev` not found in world.rs".to_string(),
        ));
        return;
    };
    let Some(body) = fn_body_span(&toks, "handle") else {
        diags.push(diag(
            WORLD,
            1,
            RULE_DISPATCH,
            "`fn handle` (the engine event dispatch) not found in world.rs".to_string(),
        ));
        return;
    };
    let referenced = referenced_variants(&toks, body, "Ev");
    for (v, line) in &ev.variants {
        if !referenced.iter().any(|r| r == v) {
            diags.push(diag(
                WORLD,
                *line,
                RULE_DISPATCH,
                format!(
                    "event variant `Ev::{v}` is never referenced in the engine's \
                     `fn handle` dispatch — dead event or missing arm"
                ),
            ));
        }
    }
    if has_wildcard_arm(&toks, body) {
        diags.push(diag(
            WORLD,
            ev.line,
            RULE_DISPATCH,
            "the engine dispatch contains a `_ =>` wildcard arm: new `Ev` \
             variants would be swallowed silently instead of failing to compile"
                .to_string(),
        ));
    }
}

fn check_trace(load: &mut dyn FnMut(&str) -> Option<String>, diags: &mut Vec<Diagnostic>) {
    let Some(lib_src) = load(TRACE_LIB) else {
        diags.push(missing_file(TRACE_LIB, RULE_TRACE));
        return;
    };
    let Some(export_src) = load(TRACE_EXPORT) else {
        diags.push(missing_file(TRACE_EXPORT, RULE_TRACE));
        return;
    };
    let lib_toks = lex(&lib_src).tokens;
    let export_toks = lex(&export_src).tokens;
    let Some(te) = parse_enum(&lib_toks, "TraceEvent") else {
        diags.push(diag(
            TRACE_LIB,
            1,
            RULE_TRACE,
            "`enum TraceEvent` not found in trace/lib.rs".to_string(),
        ));
        return;
    };
    let Some(kind_body) = fn_body_span(&lib_toks, "kind") else {
        diags.push(diag(
            TRACE_LIB,
            1,
            RULE_TRACE,
            "`fn kind` (the events.jsonl `type` dispatch) not found in trace/lib.rs".to_string(),
        ));
        return;
    };
    let Some(payload_body) = fn_body_span(&export_toks, "payload") else {
        diags.push(diag(
            TRACE_EXPORT,
            1,
            RULE_TRACE,
            "`fn payload` (the exporter field dispatch) not found in trace/export.rs".to_string(),
        ));
        return;
    };
    let in_kind = referenced_variants(&lib_toks, kind_body, "TraceEvent");
    let in_payload = referenced_variants(&export_toks, payload_body, "TraceEvent");
    for (v, line) in &te.variants {
        if !in_kind.iter().any(|r| r == v) {
            diags.push(diag(
                TRACE_LIB,
                *line,
                RULE_TRACE,
                format!(
                    "trace variant `TraceEvent::{v}` has no `fn kind` arm: it would \
                     reach events.jsonl and Perfetto with no stable type name"
                ),
            ));
        }
        if !in_payload.iter().any(|r| r == v) {
            diags.push(diag(
                TRACE_LIB,
                *line,
                RULE_TRACE,
                format!(
                    "trace variant `TraceEvent::{v}` has no `fn payload` arm in \
                     export.rs: both exporters would drop its fields"
                ),
            ));
        }
    }
    for (name, body, file, toks) in [
        ("kind", kind_body, TRACE_LIB, &lib_toks),
        ("payload", payload_body, TRACE_EXPORT, &export_toks),
    ] {
        if has_wildcard_arm(toks, body) {
            diags.push(diag(
                file,
                te.line,
                RULE_TRACE,
                format!(
                    "`fn {name}` contains a `_ =>` wildcard arm: new TraceEvent \
                     variants would be exported silently wrong"
                ),
            ));
        }
    }
}

/// Extract the string literals of a `const <decl>: [&str; N] = [ … ]`
/// array. (The lexer deliberately drops strings, so this is a tiny
/// dedicated scan: find the declaration, then collect `"…"` up to the
/// closing `]`.) Returns the literals plus the declaration's 1-based line.
fn literal_str_list(src: &str, decl_name: &str) -> (Vec<String>, u32) {
    let Some(decl) = src.find(decl_name) else {
        return (Vec::new(), 1);
    };
    let line = src[..decl].lines().count() as u32;
    // Skip past the `=` so the type's `[&str; N]` brackets don't match.
    let Some(eq_rel) = src[decl..].find('=') else {
        return (Vec::new(), line);
    };
    let Some(open_rel) = src[decl + eq_rel..].find('[') else {
        return (Vec::new(), line);
    };
    let tail = &src[decl + eq_rel + open_rel..];
    let end = tail.find(']').unwrap_or(tail.len());
    let body = &tail[..end];
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let Some(close) = after.find('"') else { break };
        out.push(after[..close].to_string());
        rest = &after[close + 1..];
    }
    (out, line)
}

fn cell_names(src: &str) -> Vec<String> {
    literal_str_list(src, "CELL_NAMES").0
}

fn check_metrics(load: &mut dyn FnMut(&str) -> Option<String>, diags: &mut Vec<Diagnostic>) {
    let Some(catalog_src) = load(METRICS_CATALOG) else {
        diags.push(missing_file(METRICS_CATALOG, RULE_METRICS));
        return;
    };
    let Some(export_src) = load(METRICS_EXPORT) else {
        diags.push(missing_file(METRICS_EXPORT, RULE_METRICS));
        return;
    };
    let (catalog, catalog_line) = literal_str_list(&catalog_src, "ALL_NAMES");
    if catalog.is_empty() {
        diags.push(diag(
            METRICS_CATALOG,
            1,
            RULE_METRICS,
            "`ALL_NAMES` not found (or empty) in metrics/catalog.rs".to_string(),
        ));
        return;
    }
    for list_name in ["OPENMETRICS_SERIES", "CSV_SERIES"] {
        let (exported, export_line) = literal_str_list(&export_src, list_name);
        if exported.is_empty() {
            diags.push(diag(
                METRICS_EXPORT,
                1,
                RULE_METRICS,
                format!("`{list_name}` not found (or empty) in metrics/export.rs"),
            ));
            continue;
        }
        for name in &catalog {
            if !exported.contains(name) {
                diags.push(diag(
                    METRICS_EXPORT,
                    export_line,
                    RULE_METRICS,
                    format!(
                        "catalog series `{name}` is missing from `{list_name}`: the \
                         sampler records it but this exporter silently drops it"
                    ),
                ));
            }
        }
        for name in &exported {
            if !catalog.contains(name) {
                diags.push(diag(
                    METRICS_CATALOG,
                    catalog_line,
                    RULE_METRICS,
                    format!(
                        "`{list_name}` exports `{name}`, which is not in the catalog's \
                         `ALL_NAMES` — exporter entry with no series behind it"
                    ),
                ));
            }
        }
    }
}

fn check_cell_smoke(load: &mut dyn FnMut(&str) -> Option<String>, diags: &mut Vec<Diagnostic>) {
    let Some(check_sh) = load(CHECK_SH) else {
        diags.push(missing_file(CHECK_SH, RULE_CELL_SMOKE));
        return;
    };
    let Some(perf_src) = load(PERF) else {
        diags.push(missing_file(PERF, RULE_CELL_SMOKE));
        return;
    };
    // Every family is driven through a `repro` invocation.
    let repro_lines: Vec<&str> = check_sh
        .lines()
        .filter(|l| l.contains("repro") && !l.trim_start().starts_with('#'))
        .collect();
    for family in SMOKED_FAMILIES {
        let covered = repro_lines.iter().any(|l| {
            l.split_whitespace()
                .any(|w| w == family || w.starts_with(&format!("{family} ")))
        });
        if !covered {
            diags.push(diag(
                CHECK_SH,
                1,
                RULE_CELL_SMOKE,
                format!(
                    "cell family `{family}` has no `repro … {family}` smoke \
                     invocation in scripts/check.sh"
                ),
            ));
        }
    }
    // The pinned trace cell must still exist in CELL_NAMES.
    let names = cell_names(&perf_src);
    if names.is_empty() {
        diags.push(diag(
            PERF,
            1,
            RULE_CELL_SMOKE,
            "CELL_NAMES not found (or empty) in crates/bench/src/perf.rs".to_string(),
        ));
        return;
    }
    if let Some(pos) = check_sh.find("cell=\"") {
        let after = &check_sh[pos + "cell=\"".len()..];
        if let Some(close) = after.find('"') {
            let pinned = &after[..close];
            if !names.iter().any(|n| n == pinned) {
                let line = check_sh[..pos].lines().count() as u32;
                diags.push(diag(
                    CHECK_SH,
                    line,
                    RULE_CELL_SMOKE,
                    format!(
                        "check.sh pins trace cell `{pinned}`, which is not a member \
                         of CELL_NAMES in perf.rs — the byte-determinism smoke lost \
                         its subject"
                    ),
                ));
            }
        }
    } else {
        diags.push(diag(
            CHECK_SH,
            1,
            RULE_CELL_SMOKE,
            "check.sh no longer pins a traced cell (`cell=\"…\"`): the \
             byte-determinism smoke is gone"
                .to_string(),
        ));
    }
}
