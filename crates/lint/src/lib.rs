//! # memres-lint — the determinism rules no compiler can state
//!
//! The engine promises byte-identical results across executor thread counts
//! and under seeded fault plans. Most of what protects that promise is
//! rustc's and clippy's job (DESIGN.md §4.10): hash-iterated containers, the
//! host clock, host I/O and bare panics in the kernel are refused at gate
//! stage 4 through `clippy.toml`, `[workspace.lints.clippy]` and per-file
//! `#![deny(clippy::unwrap_used, …)]`, with `#[expect(…, reason = "…")]` as
//! the waiver. `memres-lint` keeps the three rules that need to read names
//! and statement shapes rather than resolved types:
//!
//! * **R5 `event-past`** — every event-scheduling callsite
//!   (`Outbox::at`, `Simulation::schedule`, `queue.push`, flow opens,
//!   `push_chunk(s)`) must derive its timestamp from `now` *syntactically*:
//!   the first argument starts with `now`/`self.now`, clamps with
//!   `.max(now)`, or is a local provably bound from / guarded against
//!   `now` earlier in the same function. Anything else needs a justified
//!   `lint:allow(event-past)`. The dynamic counterpart is the assert in
//!   `memres_des::sim` (`Outbox::at`, `Simulation::schedule`).
//! * **R6 `time-units`** — no raw `.0` escapes of the `SimTime` /
//!   `SimDuration` newtypes (use `as_nanos()`), no time-named fields or
//!   bindings declared as bare primitives (`deadline_ns: u64`), and no
//!   `bytes: f64`/`bytes: u64` parameters on `pub fn` boundaries in
//!   sim-visible crates (use `memres_des::Bytes`).
//! * **R7 `float-order`** — order-sensitive `f64` accumulation (`.sum()`,
//!   `.product()`, `.fold()`, `+=` loops) over map iteration
//!   (`values()`/`keys()`) must be annotated: slice/Vec iteration is
//!   insertion-ordered by construction, map iteration is only deterministic
//!   because the sim crates hold `DetMap`s — say so at the accumulation
//!   site.
//!
//! Escapes use the annotation grammar
//! `// lint:allow(<rule>): <reason>` — trailing on the offending line, on
//! the line directly above it, trailing any line of the (possibly
//! multi-line) statement, or on the line directly above the statement.
//! Every allow must name one of these three rules and carry a non-empty
//! reason; a malformed or unused allow is itself a violation, so escapes
//! cannot rot silently.
//!
//! The scanner is a hand-rolled Rust tokenizer (offline, zero
//! dependencies) feeding a statement/brace-structure pass ([`stmt`]). It
//! skips comments, strings and char literals — so prose mentioning
//! `.sum()` never fires — and skips `#[cfg(test)]` items, `tests/` and
//! `benches/` trees entirely.

#![allow(
    clippy::disallowed_methods,
    reason = "a tool that reads the workspace's source files, not simulation code (DESIGN.md 4.10)"
)]

use std::fmt::Write as _;
use std::path::Path;

pub mod lex;
pub mod stmt;

use lex::{ident_is, num_is, punct_is, Allow, Lexed, Tok, TokKind};
use stmt::Structure;

// ---------------------------------------------------------------- rules

/// Canonical rule names, used in diagnostics and `lint:allow(<rule>)`.
pub const RULE_EVENT_PAST: &str = "event-past";
pub const RULE_TIME_UNITS: &str = "time-units";
pub const RULE_FLOAT_ORDER: &str = "float-order";

pub const ALL_RULES: [&str; 3] = [RULE_EVENT_PAST, RULE_TIME_UNITS, RULE_FLOAT_ORDER];

/// Which rules apply to one file (decided from its workspace-relative path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleSet {
    pub event_past: bool,
    pub time_units: bool,
    pub float_order: bool,
}

impl RuleSet {
    pub fn none() -> RuleSet {
        RuleSet::default()
    }

    /// Every per-file rule, as applied to sim-crate sources.
    pub fn sim() -> RuleSet {
        RuleSet {
            event_past: true,
            time_units: true,
            float_order: true,
        }
    }

    pub fn is_empty(&self) -> bool {
        *self == RuleSet::default()
    }
}

/// The measurement crates. Every other `crates/*/src` is simulation-visible
/// — a timestamp, a unit or a float sum that goes wrong there changes
/// simulated results or exported bytes — so a new crate is covered because
/// it exists, not because someone remembered to list it.
pub const MEASUREMENT_CRATES: [&str; 2] = ["bench", "lint"];

/// Files that *define* the time/bytes newtypes: the `.0` accesses inside
/// them are the implementation, not escapes (rule R6 exemption).
pub const UNIT_DEFINING_FILES: [&str; 2] = ["crates/des/src/time.rs", "crates/des/src/bytes.rs"];

/// Decide which rules govern `rel` (a `/`-separated path relative to the
/// workspace root): R5 + R6 + R7 for `crates/<any>/src/` outside
/// [`MEASUREMENT_CRATES`], minus R6 for the newtype-defining files; nothing
/// anywhere else (`tests/` and `benches/` trees, `vendor/`, the umbrella
/// package).
pub fn rules_for(rel: &str) -> RuleSet {
    if !rel.ends_with(".rs") {
        return RuleSet::none();
    }
    let Some((krate, tail)) = rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
    else {
        return RuleSet::none();
    };
    if MEASUREMENT_CRATES.contains(&krate) || !tail.starts_with("src/") {
        return RuleSet::none();
    }
    RuleSet {
        time_units: !UNIT_DEFINING_FILES.contains(&rel),
        ..RuleSet::sim()
    }
}

// ---------------------------------------------------------- diagnostics

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub col: u32,
    /// Rule name (one of [`ALL_RULES`]) or the meta-rules `bad-allow` /
    /// `unused-allow`.
    pub rule: String,
    pub message: String,
}

impl Diagnostic {
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }

    /// GitHub Actions workflow-command form: annotates the offending line
    /// in the PR diff view when emitted from CI.
    pub fn render_github(&self) -> String {
        format!(
            "::error file={},line={},col={},title=memres-lint {}::{}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as a JSON array (stable field order, one object per
/// finding) for editor and CI integration.
pub fn diagnostics_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \
             \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.col,
            json_escape(&d.rule),
            json_escape(&d.message)
        );
    }
    if !diags.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

// --------------------------------------------------------------- scanner

/// Identifiers that denote a simulated instant when they escape via `.0`
/// (rule R6a). Exact names or suffix match — see [`timeish_ident`].
const TIMEISH_EXACT: [&str; 7] = ["now", "time", "at", "until", "deadline", "when", "last"];
const TIMEISH_SUFFIX: [&str; 6] = ["_time", "_at", "_until", "_deadline", "_ns", "_since"];

fn timeish_ident(id: &str) -> bool {
    TIMEISH_EXACT.contains(&id) || TIMEISH_SUFFIX.iter().any(|s| id.ends_with(s))
}

/// Does the first argument of a scheduling call syntactically derive from
/// `now`? Accepts `now ...`, `self.now ...`, and anything containing
/// `.max(now)` / `.max(self.now)`.
fn arg_derives_from_now(arg: &[Tok]) -> bool {
    starts_with_now(arg) || contains_max_now(arg)
}

fn starts_with_now(toks: &[Tok]) -> bool {
    if toks.is_empty() {
        return false;
    }
    if ident_is(&toks[0], "now") {
        return true;
    }
    toks.len() >= 3
        && ident_is(&toks[0], "self")
        && punct_is(&toks[1], '.')
        && ident_is(&toks[2], "now")
}

fn contains_max_now(toks: &[Tok]) -> bool {
    for j in 0..toks.len() {
        if punct_is(&toks[j], '.')
            && j + 3 < toks.len()
            && ident_is(&toks[j + 1], "max")
            && punct_is(&toks[j + 2], '(')
            && starts_with_now(&toks[j + 3..])
        {
            return true;
        }
    }
    false
}

/// Backward dataflow for rule R5: is the single identifier `name`, used as
/// a scheduling timestamp at token index `call`, provably at-or-after
/// `now`? True when the enclosing function earlier contains either
///
/// * a binding `let [mut] name = <expr>` whose expression derives from
///   `now` ([`arg_derives_from_now`]), or
/// * a guard comparing it against `now` (`now < name`, `now <= name`,
///   `name > now`, `name >= now`, with `self.now` variants).
fn local_derives_from_now(toks: &[Tok], structure: &Structure, call: usize, name: &str) -> bool {
    let lo = structure.fn_start[call].unwrap_or(0);
    let region = &toks[lo..call];
    // Binding scan (take the last matching binding before the call).
    for j in (0..region.len()).rev() {
        if !ident_is(&region[j], "let") {
            continue;
        }
        let mut k = j + 1;
        if k < region.len() && ident_is(&region[k], "mut") {
            k += 1;
        }
        if k + 1 < region.len() && ident_is(&region[k], name) && punct_is(&region[k + 1], '=') {
            let expr_start = k + 2;
            let mut expr_end = expr_start;
            while expr_end < region.len() && !punct_is(&region[expr_end], ';') {
                expr_end += 1;
            }
            if arg_derives_from_now(&region[expr_start..expr_end]) {
                return true;
            }
        }
    }
    // Guard scan: `now <[=] name` or `name >[=] now`.
    for j in 0..region.len() {
        // `now` (or `self.now`) then `<` [`=`] then `name`.
        if ident_is(&region[j], "now") {
            let mut k = j + 1;
            if k < region.len() && punct_is(&region[k], '<') {
                k += 1;
                if k < region.len() && punct_is(&region[k], '=') {
                    k += 1;
                }
                if k < region.len() && ident_is(&region[k], name) {
                    return true;
                }
            }
        }
        // `name` then `>` [`=`] then `now` / `self.now`.
        if ident_is(&region[j], name) {
            let mut k = j + 1;
            if k < region.len() && punct_is(&region[k], '>') {
                k += 1;
                if k < region.len() && punct_is(&region[k], '=') {
                    k += 1;
                }
                if k < region.len() && starts_with_now(&region[k..]) {
                    return true;
                }
            }
        }
    }
    false
}

/// Method names that schedule events (rule R5). `push` additionally
/// requires the receiver ident `queue` (`self.queue.push(t, e)`): plain
/// `Vec::push` is not a scheduling call.
const SCHEDULING_CALLEES: [&str; 6] = [
    "at",
    "schedule",
    "open_flow",
    "open_shared_flow",
    "push_chunk",
    "push_chunks",
];

/// Collect the first argument of the call whose `(` is at token `open`.
/// Returns the token slice up to the first depth-0 `,` (or the closing
/// `)`).
fn first_arg(toks: &[Tok], open: usize) -> &[Tok] {
    let mut depth = 0i32;
    let mut j = open + 1;
    while j < toks.len() {
        if let TokKind::Punct(c) = &toks[j].kind {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                ',' if depth == 0 => break,
                _ => {}
            }
        }
        j += 1;
    }
    &toks[open + 1..j]
}

/// Scan one file's source under `rules`. `file` is the diagnostic label
/// (workspace-relative path).
pub fn scan_source(file: &str, src: &str, rules: RuleSet) -> Vec<Diagnostic> {
    let Lexed {
        tokens: toks,
        mut allows,
        bad_allows,
    } = lex::lex(src);
    let structure = stmt::analyze(&toks);
    let mask = &structure.test_mask;
    let mut diags: Vec<Diagnostic> = Vec::new();

    for (line, why) in &bad_allows {
        diags.push(Diagnostic {
            file: file.to_string(),
            line: *line,
            col: 1,
            rule: "bad-allow".to_string(),
            message: why.clone(),
        });
    }

    // Consume a matching allow for a violation at token `i`: trailing on the
    // same line, standalone on the line directly above, trailing any line of
    // the enclosing statement, or on the line directly above the statement
    // start — so one allow on a multi-line statement covers all of it.
    let fire = |allows: &mut [Allow],
                structure: &Structure,
                toks: &[Tok],
                rule: &str,
                i: usize,
                message: String|
     -> Option<Diagnostic> {
        let tok = &toks[i];
        let stmt_start = structure.stmt_start_line(toks, i);
        let stmt_end = structure.stmt_end_line(toks, i);
        let hit = |a: &Allow| {
            a.line == tok.line
                || a.line + 1 == tok.line
                || (a.line >= stmt_start && a.line <= stmt_end)
                || a.line + 1 == stmt_start
        };
        // Same-line allows win over wider scopes, so consecutive annotated
        // lines each consume their own escape.
        for exact in [true, false] {
            if let Some(a) = allows
                .iter_mut()
                .find(|a| a.rule == rule && if exact { a.line == tok.line } else { hit(a) })
            {
                a.used = true;
                return None;
            }
        }
        Some(Diagnostic {
            file: file.to_string(),
            line: tok.line,
            col: tok.col,
            rule: rule.to_string(),
            message,
        })
    };

    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let tok = &toks[i];
        let TokKind::Ident(id) = &tok.kind else {
            continue;
        };
        // ---- R5: event scheduling must derive its timestamp from `now`.
        if rules.event_past
            && i > 0
            && punct_is(&toks[i - 1], '.')
            && i + 1 < toks.len()
            && punct_is(&toks[i + 1], '(')
            && (SCHEDULING_CALLEES.contains(&id.as_str())
                || (id == "push" && i >= 2 && ident_is(&toks[i - 2], "queue")))
        {
            let arg = first_arg(&toks, i + 1);
            // `foo.at()` with no argument is not our callsite shape; a
            // single-ident argument gets the backward dataflow scan; a
            // literal constant (a bare number is a raw timestamp) is not
            // `now`-derived.
            let ok = arg.is_empty()
                || arg_derives_from_now(arg)
                || (arg.len() == 1
                    && match &arg[0].kind {
                        TokKind::Ident(name) => local_derives_from_now(&toks, &structure, i, name),
                        _ => false,
                    });
            if !ok {
                let d = fire(
                    &mut allows,
                    &structure,
                    &toks,
                    RULE_EVENT_PAST,
                    i,
                    format!(
                        "`.{id}(..)` schedules an event whose timestamp is not visibly \
                         derived from `now` (start it with `now`, clamp with `.max(now)`, \
                         or bind/guard the local against `now` in this function); if the \
                         value is provably in the future, say why with \
                         `// lint:allow(event-past): <reason>`"
                    ),
                );
                diags.extend(d);
            }
        }
        // ---- R6: time/byte unit discipline.
        if rules.time_units {
            // (a) raw `.0` escape of a time-ish binding: `deadline.0`,
            // `now.0`, `last_seen_at.0`, and `now.since(start).0`.
            if timeish_ident(id)
                && i + 2 < toks.len()
                && punct_is(&toks[i + 1], '.')
                && num_is(&toks[i + 2], "0")
            {
                let d = fire(
                    &mut allows,
                    &structure,
                    &toks,
                    RULE_TIME_UNITS,
                    i,
                    format!(
                        "raw `.0` escape of `{id}`: use `.as_nanos()` (the greppable \
                         escape hatch) so unit boundaries stay searchable"
                    ),
                );
                diags.extend(d);
            }
            if id == "since"
                && i > 0
                && punct_is(&toks[i - 1], '.')
                && i + 1 < toks.len()
                && punct_is(&toks[i + 1], '(')
            {
                // `now.since(start).0` — the `.0` lands after the closing
                // paren of this very call.
                let mut depth = 0i32;
                let mut j = i + 1;
                while j < toks.len() {
                    if punct_is(&toks[j], '(') {
                        depth += 1;
                    } else if punct_is(&toks[j], ')') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                if j + 2 < toks.len() && punct_is(&toks[j + 1], '.') && num_is(&toks[j + 2], "0") {
                    let d = fire(
                        &mut allows,
                        &structure,
                        &toks,
                        RULE_TIME_UNITS,
                        i,
                        "raw `.0` escape of a `.since(..)` duration: use `.as_nanos()`".to_string(),
                    );
                    diags.extend(d);
                }
            }
            // (b) time-named declaration with a bare primitive type:
            // `deadline_ns: u64` in a struct field or binding.
            if timeish_ident(id)
                && i + 2 < toks.len()
                && punct_is(&toks[i + 1], ':')
                && !punct_is(&toks[i + 2], ':')
                && matches!(&toks[i + 2].kind,
                    TokKind::Ident(ty) if ty == "u64" || ty == "u32" || ty == "i64" || ty == "f64")
                && (i == 0 || !punct_is(&toks[i - 1], ':'))
            {
                let ty = match &toks[i + 2].kind {
                    TokKind::Ident(t) => t.clone(),
                    _ => unreachable!("guarded by matches! above"),
                };
                let d = fire(
                    &mut allows,
                    &structure,
                    &toks,
                    RULE_TIME_UNITS,
                    i,
                    format!(
                        "`{id}: {ty}` declares a simulated time as a bare primitive; \
                         use SimTime / SimDuration so units survive crate boundaries"
                    ),
                );
                diags.extend(d);
            }
            // (c) `pub fn …(…, bytes: f64/u64, …)` boundary parameter.
            if id == "pub" && i + 1 < toks.len() && ident_is(&toks[i + 1], "fn") {
                // Scan the parameter list of this fn.
                let mut j = i + 2;
                while j < toks.len() && !punct_is(&toks[j], '(') {
                    j += 1;
                }
                if j < toks.len() {
                    let params = first_arg_span(&toks, j);
                    for k in params.0..params.1 {
                        if ident_is(&toks[k], "bytes")
                            && k + 2 < toks.len()
                            && punct_is(&toks[k + 1], ':')
                            && matches!(&toks[k + 2].kind,
                                TokKind::Ident(ty) if ty == "f64" || ty == "u64")
                        {
                            let d = fire(
                                &mut allows,
                                &structure,
                                &toks,
                                RULE_TIME_UNITS,
                                k,
                                "`bytes: f64` on a pub fn boundary is indistinguishable \
                                 from a rate or a fraction at the callsite; take \
                                 `memres_des::Bytes` and unwrap with `.get()` inside"
                                    .to_string(),
                            );
                            diags.extend(d);
                        }
                    }
                }
            }
        }
        // ---- R7: float accumulation over map iteration.
        if rules.float_order {
            let is_acc = (id == "sum" || id == "product" || id == "fold")
                && i > 0
                && punct_is(&toks[i - 1], '.')
                && i + 1 < toks.len()
                && punct_is(&toks[i + 1], '(');
            if is_acc {
                let (s, e) = structure.stmt_span[i];
                let stmt_toks = &toks[s..=e];
                let over_map = stmt_toks.windows(2).any(|w| {
                    (ident_is(&w[0], "values") || ident_is(&w[0], "keys")) && punct_is(&w[1], '(')
                });
                if over_map {
                    let d = fire(
                        &mut allows,
                        &structure,
                        &toks,
                        RULE_FLOAT_ORDER,
                        i,
                        format!(
                            "`.{id}()` over map iteration: accumulation order is only \
                             deterministic because sim crates hold DetMap/DetSet (R1) — state that \
                             with `// lint:allow(float-order): <why the order is fixed>`"
                        ),
                    );
                    diags.extend(d);
                }
            }
            // `+=` inside a `for … in …values()/keys()` loop body.
            if id == "for" {
                // Loop header: tokens up to the opening `{`.
                let mut j = i + 1;
                let mut saw_map_iter = false;
                while j + 1 < toks.len() && !punct_is(&toks[j], '{') {
                    if (ident_is(&toks[j], "values") || ident_is(&toks[j], "keys"))
                        && punct_is(&toks[j + 1], '(')
                    {
                        saw_map_iter = true;
                    }
                    j += 1;
                }
                if saw_map_iter && j < toks.len() {
                    // Body: to the matching `}`.
                    let mut depth = 0i32;
                    let mut k = j;
                    while k < toks.len() {
                        if punct_is(&toks[k], '{') {
                            depth += 1;
                        } else if punct_is(&toks[k], '}') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        } else if punct_is(&toks[k], '+')
                            && k + 1 < toks.len()
                            && punct_is(&toks[k + 1], '=')
                            && toks[k].line == toks[k + 1].line
                            && toks[k].col + 1 == toks[k + 1].col
                        {
                            let d = fire(
                                &mut allows,
                                &structure,
                                &toks,
                                RULE_FLOAT_ORDER,
                                k,
                                "`+=` accumulation inside a loop over map values/keys: \
                                 the order is only deterministic because R1 forces \
                                 DetMap — state that with \
                                 `// lint:allow(float-order): <why the order is fixed>`"
                                    .to_string(),
                            );
                            diags.extend(d);
                        }
                        k += 1;
                    }
                }
            }
        }
    }

    // Hygiene: an allow that matched nothing is stale and must go. Allows
    // inside test regions are exempt (the rules themselves skip test code).
    let masked_lines: Vec<(u32, u32)> = {
        let mut spans = Vec::new();
        let mut j = 0usize;
        while j < toks.len() {
            if mask[j] {
                let start = toks[j].line;
                while j < toks.len() && mask[j] {
                    j += 1;
                }
                let end = if j > 0 { toks[j - 1].line } else { start };
                spans.push((start, end));
            } else {
                j += 1;
            }
        }
        spans
    };
    for a in &allows {
        let in_test = masked_lines
            .iter()
            .any(|&(s, e)| a.line >= s && a.line <= e);
        if !a.used && !in_test {
            diags.push(Diagnostic {
                file: file.to_string(),
                line: a.line,
                col: 1,
                rule: "unused-allow".to_string(),
                message: format!(
                    "lint:allow({}) matches no violation on this line, the next line, \
                     or its statement; remove it",
                    a.rule
                ),
            });
        }
    }

    diags.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    diags
}

/// Scan `files` (workspace-relative paths under `root`), each under the
/// rules its path selects. Returns how many files a rule governs, and the
/// findings; `Err` names a file that could not be read.
pub fn scan_files(root: &Path, files: &[String]) -> Result<(usize, Vec<Diagnostic>), String> {
    let mut scanned = 0usize;
    let mut diags = Vec::new();
    for rel in files {
        let rules = rules_for(rel);
        if rules.is_empty() {
            continue;
        }
        let src = std::fs::read_to_string(root.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        scanned += 1;
        diags.extend(scan_source(rel, &src, rules));
    }
    Ok((scanned, diags))
}

/// The full run: every `.rs` file under `crates/` (sorted, so output is
/// stable).
pub fn scan_workspace(root: &Path) -> Result<(usize, Vec<Diagnostic>), String> {
    let mut files = Vec::new();
    walk(&root.join("crates"), root, &mut files);
    files.sort();
    scan_files(root, &files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, root, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Token index span `(start, end)` (exclusive end) of the parenthesized
/// region opening at `open`.
fn first_arg_span(toks: &[Tok], open: usize) -> (usize, usize) {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        if punct_is(&toks[j], '(') {
            depth += 1;
        } else if punct_is(&toks[j], ')') {
            depth -= 1;
            if depth == 0 {
                return (open + 1, j);
            }
        }
        j += 1;
    }
    (open + 1, toks.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn only_event_past() -> RuleSet {
        RuleSet {
            event_past: true,
            ..RuleSet::none()
        }
    }

    fn only_time_units() -> RuleSet {
        RuleSet {
            time_units: true,
            ..RuleSet::none()
        }
    }

    fn only_float_order() -> RuleSet {
        RuleSet {
            float_order: true,
            ..RuleSet::none()
        }
    }

    // ------------------------------------------------ known-bad fixtures

    #[test]
    fn bad_allow_without_reason_fires() {
        let src = "fn f() {} // lint:allow(event-past):   \n";
        let d = scan_source("x.rs", src, RuleSet::sim());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "bad-allow");
        assert!(d[0].message.contains("empty reason"));
    }

    #[test]
    fn bad_allow_unknown_rule_fires() {
        // `panic` is clippy's rule (`#[expect(clippy::…)]`), not a name this grammar takes.
        for rule in ["everything", "panic"] {
            let src = format!("fn f() {{}} // lint:allow({rule}): because\n");
            let d = scan_source("x.rs", &src, RuleSet::sim());
            assert_eq!(d.len(), 1, "{rule}: {d:?}");
            assert_eq!(d[0].rule, "bad-allow");
            assert!(d[0].message.contains("unknown rule"));
        }
    }

    #[test]
    fn allow_grammar_knows_every_rule_name() {
        for rule in ALL_RULES {
            let src = format!("// lint:allow({rule}): reason\nfn f() {{}}\n");
            let d = scan_source("x.rs", &src, RuleSet::none());
            assert!(d.iter().all(|d| d.rule == "unused-allow"), "{rule}: {d:?}");
        }
    }

    #[test]
    fn unused_allow_fires() {
        let src = "// lint:allow(float-order): stale escape\nfn f() {}\n";
        let d = scan_source("x.rs", src, RuleSet::sim());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unused-allow");
    }

    // --------------------------------------------- R5 event-past fixtures

    #[test]
    fn bad_raw_timestamp_schedule_fires() {
        let src = "fn f(&mut self, out: &mut Outbox, t: SimTime) {\n\
                   \x20   out.at(t, Ev::Wake);\n\
                   }\n";
        let d = scan_source("x.rs", src, only_event_past());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_EVENT_PAST);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn bad_queue_push_raw_fires_but_vec_push_does_not() {
        let src = "fn f(&mut self, t: SimTime, e: Ev) { self.queue.push(t, e); }\n";
        let d = scan_source("x.rs", src, only_event_past());
        assert_eq!(d.len(), 1, "{d:?}");
        let src = "fn f(v: &mut Vec<u8>, t: u8) { v.push(t); }\n";
        assert!(scan_source("x.rs", src, only_event_past()).is_empty());
    }

    #[test]
    fn good_now_derived_schedules_are_clean() {
        for call in [
            "out.at(now, Ev::Wake)",
            "out.at(now + d, Ev::Wake)",
            "out.at(self.now + d, Ev::Wake)",
            "out.at(t.max(now), Ev::Wake)",
            "out.at(t.max(self.now), Ev::Wake)",
        ] {
            let src = format!(
                "fn f(&mut self, out: &mut Outbox, now: SimTime, d: SimDuration, t: SimTime) {{\n\
                 \x20   {call};\n\
                 }}\n"
            );
            let d = scan_source("x.rs", &src, only_event_past());
            assert!(d.is_empty(), "{call}: {d:?}");
        }
    }

    #[test]
    fn good_let_bound_local_derived_from_now_is_clean() {
        let src = "fn f(&mut self, out: &mut Outbox, now: SimTime, d: SimDuration) {\n\
                   \x20   let finish = now + d;\n\
                   \x20   out.at(finish, Ev::Wake);\n\
                   }\n";
        let d = scan_source("x.rs", src, only_event_past());
        assert!(d.is_empty(), "{d:?}");
        // A clamp inside the binding also counts.
        let src = "fn f(&mut self, out: &mut Outbox, now: SimTime, t0: SimTime) {\n\
                   \x20   let mut when = t0.max(now);\n\
                   \x20   out.at(when, Ev::Wake);\n\
                   }\n";
        assert!(scan_source("x.rs", src, only_event_past()).is_empty());
    }

    #[test]
    fn good_guarded_local_is_clean() {
        // `now < t` on the path to the schedule proves t is in the future.
        let src = "fn f(&mut self, out: &mut Outbox, now: SimTime, t: SimTime) {\n\
                   \x20   if now < t {\n\
                   \x20       out.at(t, Ev::Wake);\n\
                   \x20   }\n\
                   }\n";
        assert!(scan_source("x.rs", src, only_event_past()).is_empty());
        let src = "fn f(&mut self, out: &mut Outbox, now: SimTime, t: SimTime) {\n\
                   \x20   if t >= now {\n\
                   \x20       out.at(t, Ev::Wake);\n\
                   \x20   }\n\
                   }\n";
        assert!(scan_source("x.rs", src, only_event_past()).is_empty());
    }

    #[test]
    fn bad_binding_not_from_now_still_fires() {
        // The binding exists but derives from something other than `now`.
        let src = "fn f(&mut self, out: &mut Outbox, base: SimTime, d: SimDuration) {\n\
                   \x20   let t = base + d;\n\
                   \x20   out.at(t, Ev::Wake);\n\
                   }\n";
        let d = scan_source("x.rs", src, only_event_past());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_EVENT_PAST);
    }

    #[test]
    fn good_binding_in_other_fn_does_not_leak() {
        // A `now`-derived binding of the same name in a *different* function
        // must not vouch for this one.
        let src = "fn g(now: SimTime, d: SimDuration) -> SimTime { let t = now + d; t }\n\
                   fn f(&mut self, out: &mut Outbox, t: SimTime) {\n\
                   \x20   out.at(t, Ev::Wake);\n\
                   }\n";
        let d = scan_source("x.rs", src, only_event_past());
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn good_allowed_event_past_is_clean() {
        let src = "fn f(&mut self, out: &mut Outbox, t: SimTime) {\n\
                   \x20   // lint:allow(event-past): t is the subsystem clock, which trails now\n\
                   \x20   out.at(t, Ev::Wake);\n\
                   }\n";
        assert!(scan_source("x.rs", src, only_event_past()).is_empty());
    }

    #[test]
    fn good_flow_open_calls_are_checked() {
        let src = "fn f(&mut self, net: &mut FlowNet, t: SimTime) {\n\
                   \x20   net.open_flow(t, 0, 1, 100.0, 7);\n\
                   }\n";
        let d = scan_source("x.rs", src, only_event_past());
        assert_eq!(d.len(), 1, "{d:?}");
        let src = "fn f(&mut self, net: &mut FlowNet, now: SimTime) {\n\
                   \x20   net.open_flow(now, 0, 1, 100.0, 7);\n\
                   }\n";
        assert!(scan_source("x.rs", src, only_event_past()).is_empty());
    }

    // -------------------------------------------- R6 time-units fixtures

    #[test]
    fn bad_raw_newtype_escape_fires() {
        for expr in ["now.0", "deadline.0", "queued_at.0", "last_seen_at.0"] {
            let src = format!("fn f() -> u64 {{ {expr} }}\n");
            let d = scan_source("x.rs", &src, only_time_units());
            assert_eq!(d.len(), 1, "{expr}: {d:?}");
            assert_eq!(d[0].rule, RULE_TIME_UNITS);
            assert!(d[0].message.contains("as_nanos"), "{d:?}");
        }
    }

    #[test]
    fn bad_since_escape_fires() {
        let src = "fn f(now: SimTime, start: SimTime) -> u64 { now.since(start).0 }\n";
        let d = scan_source("x.rs", src, only_time_units());
        // `now.since(...)` itself is not `now.0`, but the trailing `.0` is.
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("since"), "{d:?}");
    }

    #[test]
    fn good_as_nanos_is_clean() {
        let src = "fn f(now: SimTime, start: SimTime) -> u64 { now.since(start).as_nanos() }\n";
        assert!(scan_source("x.rs", src, only_time_units()).is_empty());
        // Non-time-ish tuple access is fine.
        let src = "fn f(pair: (f64, f64)) -> f64 { pair.0 }\n";
        assert!(scan_source("x.rs", src, only_time_units()).is_empty());
    }

    #[test]
    fn bad_primitive_time_declaration_fires() {
        for decl in [
            "struct S { deadline_ns: u64 }",
            "struct S { queued_at: f64 }",
            "fn f(retry_until: u64) {}",
        ] {
            let src = format!("{decl}\n");
            let d = scan_source("x.rs", &src, only_time_units());
            assert_eq!(d.len(), 1, "{decl}: {d:?}");
            assert_eq!(d[0].rule, RULE_TIME_UNITS);
        }
    }

    #[test]
    fn good_newtype_time_declaration_is_clean() {
        let src = "struct S { deadline: SimTime, queued_at: SimTime, wait: SimDuration }\n";
        assert!(scan_source("x.rs", src, only_time_units()).is_empty());
        // A path segment named like a variant (`Ev::at`) is not a declaration.
        let src = "fn f() -> u32 { Foo::at::<u32>() }\n";
        assert!(scan_source("x.rs", src, only_time_units()).is_empty());
    }

    #[test]
    fn bad_pub_fn_bytes_param_fires() {
        let src = "pub fn write(&mut self, file: FileId, bytes: f64) {}\n";
        let d = scan_source("x.rs", src, only_time_units());
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("memres_des::Bytes"), "{d:?}");
        let src = "pub fn write(&mut self, file: FileId, bytes: u64) {}\n";
        assert_eq!(scan_source("x.rs", src, only_time_units()).len(), 1);
    }

    #[test]
    fn good_bytes_newtype_param_is_clean() {
        let src = "pub fn write(&mut self, file: FileId, bytes: Bytes) {}\n";
        assert!(scan_source("x.rs", src, only_time_units()).is_empty());
        // Private helpers may unwrap to f64 internally.
        let src = "fn write_inner(&mut self, bytes: f64) {}\n";
        assert!(scan_source("x.rs", src, only_time_units()).is_empty());
    }

    // -------------------------------------------- R7 float-order fixtures

    #[test]
    fn bad_sum_over_map_values_fires() {
        let src = "fn f(m: &DetMap<u32, f64>) -> f64 { m.values().sum() }\n";
        let d = scan_source("x.rs", src, only_float_order());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RULE_FLOAT_ORDER);
    }

    #[test]
    fn bad_fold_over_map_values_fires() {
        let src = "fn f(m: &DetMap<u32, f64>) -> f64 {\n\
                   \x20   m.values().fold(0.0, |a, b| a + b)\n\
                   }\n";
        assert_eq!(scan_source("x.rs", src, only_float_order()).len(), 1);
    }

    #[test]
    fn bad_accumulate_loop_over_map_fires() {
        let src = "fn f(m: &DetMap<u32, f64>) -> f64 {\n\
                   \x20   let mut total = 0.0;\n\
                   \x20   for v in m.values() {\n\
                   \x20       total += v;\n\
                   \x20   }\n\
                   \x20   total\n\
                   }\n";
        let d = scan_source("x.rs", src, only_float_order());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn good_slice_sum_is_clean() {
        let src = "fn f(v: &[f64]) -> f64 { v.iter().sum() }\n";
        assert!(scan_source("x.rs", src, only_float_order()).is_empty());
        let src = "fn f(v: &Vec<f64>) -> f64 { let mut t = 0.0; for x in v { t += x; } t }\n";
        assert!(scan_source("x.rs", src, only_float_order()).is_empty());
    }

    #[test]
    fn good_allowed_map_sum_is_clean() {
        let src = "fn f(m: &DetMap<u32, f64>) -> f64 {\n\
                   \x20   // lint:allow(float-order): DetMap iterates in insertion order\n\
                   \x20   m.values().sum()\n\
                   }\n";
        assert!(scan_source("x.rs", src, only_float_order()).is_empty());
    }

    // --------------------------------------------- allow-scope fixtures

    #[test]
    fn good_allow_covers_whole_multiline_statement() {
        // The allow trails a *different* line of the statement than the
        // violating token: the statement span must connect them.
        let src = "fn f(&mut self, out: &mut Outbox, t: SimTime) {\n\
                   \x20   out.at(\n\
                   \x20       t, // lint:allow(event-past): clamped by the caller\n\
                   \x20       Ev::Wake,\n\
                   \x20   );\n\
                   }\n";
        let d = scan_source("x.rs", src, only_event_past());
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn good_allow_above_multiline_statement_covers_it() {
        // Allow on the line directly above the statement start; the
        // violating token sits two lines below the annotation.
        let src = "fn f(&mut self, t: SimTime, e: Ev) {\n\
                   \x20   // lint:allow(event-past): heap rebuild replays an already-validated schedule\n\
                   \x20   self.queue\n\
                   \x20       .push(t, e);\n\
                   }\n";
        let d = scan_source("x.rs", src, only_event_past());
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unused_allow_on_multiline_statement_fires() {
        // Same shape, but the allow names a rule that never fires in the
        // statement: it must be reported stale, not silently absorbed.
        let src = "fn f(&mut self, out: &mut Outbox, now: SimTime) {\n\
                   \x20   out.at(\n\
                   \x20       now, // lint:allow(float-order): wrong rule for this statement\n\
                   \x20       Ev::Wake,\n\
                   \x20   );\n\
                   }\n";
        let d = scan_source("x.rs", src, RuleSet::sim());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unused-allow");
    }

    #[test]
    fn good_stacked_allows_each_consume_their_own() {
        let src = "fn f(&mut self, out: &mut Outbox, a: SimTime, b: SimTime) {\n\
                   \x20   out.at(a, Ev::Wake); // lint:allow(event-past): a is clamped by the caller\n\
                   \x20   out.at(b, Ev::Wake); // lint:allow(event-past): b is clamped by the caller\n\
                   }\n";
        let d = scan_source("x.rs", src, RuleSet::sim());
        assert!(d.is_empty(), "{d:?}");
    }

    // ----------------------------------------------- known-good fixtures

    #[test]
    fn good_comments_and_strings_never_fire() {
        let src = "// out.at(t, Ev::Wake) would be a raw timestamp; so is now.0.\n\
                   /* m.values().sum() in a block comment */\n\
                   fn f() -> &'static str { \"out.at(t, e) m.values().sum() deadline.0\" }\n\
                   fn g() { let s = r#\"queue.push(t, e) deadline_ns: u64\"#; let _ = s; }\n";
        let d = scan_source("x.rs", src, RuleSet::sim());
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn good_cfg_test_region_is_skipped() {
        let src = "fn prod() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t(m: &DetMap<u32, f64>, out: &mut Outbox, t: SimTime) -> f64 {\n\
                           out.at(t, Ev::Wake);\n\
                           m.values().sum()\n\
                       }\n\
                   }\n";
        let d = scan_source("x.rs", src, RuleSet::sim());
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn good_cfg_test_single_item_is_skipped_but_rest_scans() {
        let src = "#[cfg(test)]\nfn t(m: &DetMap<u32, f64>) -> f64 { m.values().sum() }\n\
                   fn f(m: &DetMap<u32, f64>) -> f64 { m.values().sum() }\n";
        let d = scan_source("x.rs", src, RuleSet::sim());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn good_lifetimes_and_char_literals_lex() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\nfn g() -> char { '\\n' }\n";
        assert!(scan_source("x.rs", src, RuleSet::sim()).is_empty());
    }

    #[test]
    fn good_numeric_method_calls_lex() {
        // `1.max(2)` must lex as Num(1) . max ( Num(2) ) — not swallow the
        // dot into the literal; `0..n` must not glue into one number.
        let src = "fn f(n: u64) -> u64 { let m = 1.max(2); (0..n).sum::<u64>() + m }\n";
        assert!(scan_source("x.rs", src, RuleSet::sim()).is_empty());
    }

    // --------------------------------------------------- layer map tests

    #[test]
    fn rules_scope_by_layer() {
        for rel in [
            "crates/core/src/world.rs",
            "crates/core/src/world/sched.rs",
            "crates/net/src/flow.rs",
            "crates/net/src/flow/waterfill.rs",
            "crates/trace/src/analyze.rs",
            "crates/metrics/src/diff.rs",
        ] {
            assert_eq!(rules_for(rel), RuleSet::sim(), "{rel}");
        }
        // The newtype-defining files keep every rule except R6: their `.0`
        // accesses *are* the implementation.
        for rel in UNIT_DEFINING_FILES {
            let r = rules_for(rel);
            assert!(r.event_past && r.float_order && !r.time_units, "{rel}");
        }
        for rel in [
            "crates/bench/src/timing.rs",
            "crates/lint/src/lib.rs",
            "vendor/rand/src/lib.rs",
            "crates/core/tests/engine.rs",
            "crates/core/benches/x.rs",
            "tests/correctness.rs",
            "examples/quickstart.rs",
            "src/lib.rs",
            "README.md",
        ] {
            assert!(rules_for(rel).is_empty(), "{rel}");
        }
    }

    // ------------------------------------------------------ output shapes

    #[test]
    fn json_output_shape() {
        let d = vec![Diagnostic {
            file: "a.rs".to_string(),
            line: 3,
            col: 7,
            rule: RULE_FLOAT_ORDER.to_string(),
            message: "say \"no\"".to_string(),
        }];
        let j = diagnostics_json(&d);
        assert!(j.contains("\"file\": \"a.rs\""));
        assert!(j.contains("\"line\": 3"));
        assert!(j.contains("\\\"no\\\""));
        assert_eq!(diagnostics_json(&[]), "[]\n");
    }

    #[test]
    fn github_annotation_shape() {
        let d = Diagnostic {
            file: "crates/core/src/world.rs".to_string(),
            line: 12,
            col: 5,
            rule: RULE_EVENT_PAST.to_string(),
            message: "raw timestamp".to_string(),
        };
        let g = d.render_github();
        assert!(g.starts_with("::error file=crates/core/src/world.rs,line=12,col=5"));
        assert!(g.contains("title=memres-lint event-past"));
        assert!(g.ends_with("::raw timestamp"));
    }
}
