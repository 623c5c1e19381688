//! The cross-file check (lint v2, DESIGN.md §4.15).
//!
//! The per-file rules cannot see drift that spans files. One such
//! relationship is left for this linter to read, because no compiler can:
//!
//! * **`cell-smoke`** — every repro cell family the gate smokes
//!   (`faults`, `baselines`, `tenants`, `trace`, `fuzz`, `report`, `diff`;
//!   the timed families `bench` and `scale` are pinned by a test of the
//!   binary instead) is invoked by `scripts/check.sh`, and the trace cell
//!   the gate pins is still a row of `CELLS` in
//!   `crates/workloads/src/cells.rs`.
//!
//! The other guarantees this module used to re-derive by parsing Rust now
//! live where they are enforced by construction: `SimWorld::handle`,
//! `TraceEvent::kind` and `export::payload` are each one `match` without a
//! catch-all, so a missing arm is rustc's E0004, and each carries
//! `#[deny(clippy::wildcard_enum_match_arm,
//! clippy::match_wildcard_for_single_variants)]`, so a catch-all (`_` or a
//! binding) fails gate stage 4; and the metrics series names are written
//! once, in the catalog table both exporters read.
//!
//! Input is a loader callback (`&mut dyn FnMut(&str) -> Option<String>`)
//! mapping a workspace-relative path to file contents, so the check runs
//! identically against the real tree and against seeded-mutation fixtures
//! in tests.

use crate::Diagnostic;

pub const RULE_CELL_SMOKE: &str = "cell-smoke";

pub const XFILE_RULES: [&str; 1] = [RULE_CELL_SMOKE];

const CELLS: &str = "crates/workloads/src/cells.rs";
const CHECK_SH: &str = "scripts/check.sh";

/// The repro cell families `scripts/check.sh` must smoke (each is a CLI
/// surface whose output shape or determinism the gate checks).
pub const SMOKED_FAMILIES: [&str; 7] = [
    "faults",
    "baselines",
    "tenants",
    "trace",
    "fuzz",
    "report",
    "diff",
];

/// Run the cross-file check, loading file contents through `load`.
/// A file the loader cannot produce is itself a finding — the check must
/// not silently pass because a rename hid its subject.
pub fn check_all(load: &mut dyn FnMut(&str) -> Option<String>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_cell_smoke(load, &mut diags);
    diags.sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    diags
}

fn diag(file: &str, line: u32, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        col: 1,
        rule: RULE_CELL_SMOKE.to_string(),
        message,
    }
}

fn missing_file(file: &str) -> Diagnostic {
    let lost = format!("`{file}` not found — the {RULE_CELL_SMOKE} check lost its subject");
    diag(file, 1, lost)
}

fn check_cell_smoke(load: &mut dyn FnMut(&str) -> Option<String>, diags: &mut Vec<Diagnostic>) {
    let Some(check_sh) = load(CHECK_SH) else {
        diags.push(missing_file(CHECK_SH));
        return;
    };
    let Some(cells_src) = load(CELLS) else {
        diags.push(missing_file(CELLS));
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
                format!(
                    "cell family `{family}` has no `repro … {family}` smoke \
                     invocation in scripts/check.sh"
                ),
            ));
        }
    }
    // The pinned trace cell must still be a row of CELLS: a string literal
    // of the file's non-test part, where every string is a cell name. (The
    // lexer deliberately drops strings, so this is a plain text search.)
    let table = cells_src.split("#[cfg(test)]").next().unwrap_or_default();
    if !table.contains("const CELLS") {
        diags.push(diag(
            CELLS,
            1,
            format!("`const CELLS` not found in {CELLS}"),
        ));
        return;
    }
    if let Some(pos) = check_sh.find("cell=\"") {
        let after = &check_sh[pos + "cell=\"".len()..];
        if let Some(close) = after.find('"') {
            let pinned = &after[..close];
            if !table.contains(&format!("\"{pinned}\"")) {
                let line = check_sh[..pos].lines().count() as u32;
                diags.push(diag(
                    CHECK_SH,
                    line,
                    format!(
                        "check.sh pins trace cell `{pinned}`, which is not a row of \
                         CELLS in cells.rs — the byte-determinism smoke lost its \
                         subject"
                    ),
                ));
            }
        }
    } else {
        diags.push(diag(
            CHECK_SH,
            1,
            "check.sh no longer pins a traced cell (`cell=\"…\"`): the \
             byte-determinism smoke is gone"
                .to_string(),
        ));
    }
}
