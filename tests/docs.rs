//! The checked-in documents, held to the program.
//!
//! - EXPERIMENTS.md's generated parts — the scorecard and one block per
//!   `repro all` target — are what one full-scale run prints. The bless
//!   here rewrites them; the tier-1 tests check that they are in place.
//! - Headings are addresses: code, scripts, CI and the README cite a
//!   DESIGN.md section by its number, and a section of either document by
//!   its quoted title. Each citation must name a heading that exists, so
//!   rewriting a document cannot leave a comment pointing at nothing.
//! - A `` `path.rs::item` `` citation in README, DESIGN, EXPERIMENTS or the
//!   verify skill names a source file that defines `item`; a bare
//!   `` `path.rs` `` one names a file that exists.
//! - DESIGN.md §3.1's module map has a row for every file of the world.
//! - DESIGN.md §4.10's waiver table names every R4 waiver in the sources.

#![allow(
    clippy::disallowed_methods,
    reason = "a test of the checked-in sources reads them, and the bless rewrites one"
)]

use memres_bench::{claims, targets};
use memres_workloads::cells::Setup;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Where EXPERIMENTS.md's summary starts and ends: the lines between are
/// `claims::render` of the full-scale tables, and nothing else.
const SCORECARD: [&str; 2] = [
    "<!-- scorecard: generated by `cargo test --workspace --release -- --ignored bless` from crates/bench/src/claims.rs -->",
    "<!-- scorecard: end -->",
];

/// The lines of `doc` between the scorecard's markers.
fn scorecard(doc: &str) -> Vec<&str> {
    let lines: Vec<&str> = doc.lines().collect();
    let at = |marker: &str| {
        let found = lines.iter().position(|l| *l == marker);
        found.unwrap_or_else(|| panic!("EXPERIMENTS.md has no line {marker}"))
    };
    lines[at(SCORECARD[0]) + 1..at(SCORECARD[1])].to_vec()
}

/// EXPERIMENTS.md's summary lists exactly the claims, in order, with the
/// paper values and bands `CLAIMS` holds: a hand edit of the block, or a
/// claim changed without a bless, fails here.
#[test]
fn scorecard_lists_every_claim() {
    let block = scorecard(include_str!("../EXPERIMENTS.md"));
    let header: Vec<&str> = claims::HEADER.lines().collect();
    let stated = claims::CLAIMS
        .iter()
        .map(|c| format!("{} ", claims::stated(c)));
    let want: Vec<String> = header.iter().map(|h| h.to_string()).chain(stated).collect();
    let bless = "re-render it with `cargo test --workspace --release -- --ignored bless`";
    for (i, (line, want)) in block.iter().zip(&want).enumerate() {
        let holds = if i < header.len() {
            line == want
        } else {
            line.starts_with(want.as_str())
        };
        assert!(
            holds,
            "EXPERIMENTS.md's scorecard line\n  {line}\nshould start\n  {want}\n{bless}"
        );
    }
    assert_eq!(
        block.len(),
        want.len(),
        "EXPERIMENTS.md's scorecard lines; {bless}"
    );
}

/// The marker lines of target `name`'s generated block in EXPERIMENTS.md:
/// the lines between are one fence holding what `repro <name>` prints at
/// full scale, and nothing else.
fn block_markers(name: &str) -> [String; 2] {
    [
        format!("<!-- repro {name}: generated by `cargo test --workspace --release -- --ignored bless` from `repro {name}` -->"),
        format!("<!-- repro {name}: end -->"),
    ]
}

/// Every generated block of `doc`, in document order: the target it
/// names and the text inside its fence. Panics on a marker out of place or
/// a block that is anything but one `text` fence.
fn blocks(doc: &str) -> Vec<(&str, String)> {
    let mut lines = doc.lines();
    let mut found = Vec::new();
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("<!-- repro ") else {
            continue;
        };
        let name = rest.split(':').next().unwrap_or_default();
        let [open, end] = block_markers(name);
        assert_eq!(line, open, "EXPERIMENTS.md: a block's first marker");
        let body: Vec<&str> = lines.by_ref().take_while(|l| *l != end).collect();
        let fenced = match body[..] {
            ["```text", ref inside @ .., "```"] => inside,
            _ => panic!("EXPERIMENTS.md: block {name} is not one ```text fence and its end marker"),
        };
        assert!(
            !fenced
                .iter()
                .any(|l| l.starts_with("```") || l.starts_with("<!-- repro ")),
            "EXPERIMENTS.md: block {name} holds more than one fence"
        );
        found.push((name, fenced.iter().map(|l| format!("{l}\n")).collect()));
    }
    found
}

/// EXPERIMENTS.md holds one generated block per `all` target, in `all`
/// order, each only a fence: the bless has a place for every target's
/// output and the document nothing the bless does not rewrite.
#[test]
fn experiments_holds_one_block_per_all_target() {
    let doc = include_str!("../EXPERIMENTS.md");
    let found: Vec<&str> = blocks(doc).into_iter().map(|(name, _)| name).collect();
    let want: Vec<&str> = targets::all().map(|t| t.name).collect();
    assert_eq!(found, want, "EXPERIMENTS.md's generated blocks");
}

/// Runs every `all` target once at full scale and re-renders, from that
/// one run, EXPERIMENTS.md's summary and each target's generated block;
/// prints each verdict that moved and how many blocks changed.
#[test]
#[ignore = "re-pins: cargo test --workspace --release -- --ignored bless"]
fn bless_experiments() {
    let printed: Vec<(&str, targets::Printed)> = targets::all()
        .map(|t| {
            (
                t.name,
                t.print(Setup::paper()).expect("an `all` target prints"),
            )
        })
        .collect();
    let block = claims::render(printed.iter().flat_map(|(_, p)| &p.tables));
    let path = Path::new(ROOT).join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    // A row's cells: claim, what is measured, paper, band, measured,
    // ratio, verdict.
    let rows = |lines: Vec<&str>| -> Vec<Vec<String>> {
        let rows = lines.into_iter().filter(|l| l.starts_with("| `"));
        let cells = rows.map(|r| {
            r.trim_matches('|')
                .split(" | ")
                .map(|c| c.trim().to_string())
        });
        cells.map(|c| c.collect()).collect()
    };
    let (rows_old, rows_new) = (rows(scorecard(&doc)), rows(block.lines().collect()));
    let moved: Vec<String> = rows_new
        .iter()
        .filter(|row| !rows_old.iter().any(|o| o[0] == row[0] && o[6] == row[6]))
        .map(|row| {
            let was = rows_old
                .iter()
                .find(|o| o[0] == row[0])
                .map_or("—", |o| o[6].as_str());
            format!(
                "| {} | {was} | {} | {} | {} |",
                row[0], row[6], row[4], row[5]
            )
        })
        .collect();
    let begin = doc
        .find(SCORECARD[0])
        .expect("the scorecard's first marker");
    let end = doc.find(SCORECARD[1]).expect("the scorecard's last marker");
    let scored = format!("{}{}\n{block}{}", &doc[..begin], SCORECARD[0], &doc[end..]);
    // Each block's lines between its markers become a fence of its text.
    let mut rewritten = String::new();
    let mut lines = scored.lines();
    while let Some(line) = lines.next() {
        rewritten += &format!("{line}\n");
        let Some((name, p)) = printed
            .iter()
            .find(|(name, _)| line == block_markers(name)[0])
        else {
            continue;
        };
        let end = &block_markers(name)[1];
        lines
            .by_ref()
            .find(|l| l == end)
            .expect("the block's end marker");
        rewritten += &format!("```text\n{}```\n{end}\n", p.text);
    }
    let (old, new) = (blocks(&doc), blocks(&rewritten));
    let changed = new.iter().filter(|b| !old.contains(b)).count();
    if rewritten != doc {
        std::fs::write(path, &rewritten).expect("write EXPERIMENTS.md");
    }
    let mut out = format!(
        "EXPERIMENTS.md scorecard: {} verdicts moved of {} rows\n\
         EXPERIMENTS.md: {changed} of {} repro blocks rewritten\n",
        moved.len(),
        rows_new.len(),
        new.len()
    );
    if !moved.is_empty() {
        out += "| claim | old | new | measured | ratio |\n|---|---|---|--:|--:|\n";
        out += &(moved.join("\n") + "\n");
    }
    let _ = std::io::stderr().write_all(out.as_bytes());
}

/// Where citations live: directories searched whole, and single files.
const CITERS: [&str; 9] = [
    "crates",
    "src",
    "tests",
    "examples",
    "scripts",
    ".github",
    "clippy.toml",
    "Cargo.toml",
    "README.md",
];

/// Every text file under `path` (itself, if a file), in name order.
fn files(path: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(path) else {
        out.push(path.to_path_buf());
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| Some(e.ok()?.path())).collect();
    entries.sort();
    for entry in entries {
        if !entry.ends_with("target") {
            files(&entry, out);
        }
    }
}

/// `text` as one line of prose: each line loses its indentation and its
/// comment marker, so a citation broken across comment lines reads whole.
fn prose(text: &str) -> String {
    let lines = text.lines().map(|l| {
        let l = l.trim_start();
        let l = ["//!", "///", "//", "#"]
            .iter()
            .find_map(|m| l.strip_prefix(m))
            .unwrap_or(l);
        l.trim()
    });
    lines.collect::<Vec<_>>().join(" ")
}

/// A document's headings, each as its number (`4.11`, `5`; empty when it
/// has none) and its title, whitespace collapsed.
fn headings(doc: &str) -> Vec<(String, String)> {
    let headings = doc.lines().filter_map(|l| l.strip_prefix('#'));
    let headings = headings.map(|h| h.trim_start_matches('#').trim());
    headings
        .map(|h| {
            let (first, rest) = h.split_once(' ').unwrap_or((h, ""));
            let number = first.trim_end_matches('.');
            if !number.is_empty() && number.chars().all(|c| c.is_ascii_digit() || c == '.') {
                (number.to_string(), rest.to_string())
            } else {
                (String::new(), h.to_string())
            }
        })
        .collect()
}

/// The section number `text` starts with, `§` or not (`4.11`, `2`; empty
/// if none), and the text after it.
fn section(text: &str) -> (&str, &str) {
    let text = text.strip_prefix('§').unwrap_or(text);
    let digits = text.find(|c: char| !(c.is_ascii_digit() || c == '.'));
    let number = text[..digits.unwrap_or(text.len())].trim_end_matches('.');
    if number.starts_with(|c: char| c.is_ascii_digit()) {
        (number, &text[number.len()..])
    } else {
        ("", text)
    }
}

/// What follows each mention of `doc` in `text`: a quoted title, or for
/// DESIGN.md also a section number and any more numbers listed after it.
fn citations(text: &str, doc: &str) -> Vec<String> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices(doc) {
        let after = &text[at + doc.len()..];
        if let Some(quoted) = after.strip_prefix(" \"") {
            if let Some((title, _)) = quoted.split_once('"') {
                found.push(format!("\"{title}\""));
            }
            continue;
        }
        let mut rest = after.trim_start_matches([' ', '`', ',']);
        loop {
            let (number, tail) = section(rest);
            if number.is_empty() {
                break;
            }
            found.push(number.to_string());
            // A list goes on only with another dotted number: `§4.11, §4.16`.
            match tail.strip_prefix(", ") {
                Some(next) if section(next).0.contains('.') => rest = next,
                _ => break,
            }
        }
    }
    found
}

#[test]
fn every_cited_section_and_title_exists() {
    let read = |name: &str| std::fs::read_to_string(Path::new(ROOT).join(name)).expect(name);
    let docs = [
        ("DESIGN.md", headings(&read("DESIGN.md"))),
        ("EXPERIMENTS.md", headings(&read("EXPERIMENTS.md"))),
    ];
    let mut paths = Vec::new();
    for citer in CITERS {
        files(&Path::new(ROOT).join(citer), &mut paths);
    }
    let (mut checked, mut broken) = (0, Vec::new());
    for path in &paths {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = prose(&text);
        for (doc, headings) in &docs {
            for cited in citations(&text, doc) {
                checked += 1;
                let exists = match cited.strip_prefix('"') {
                    Some(title) => {
                        let title = title.trim_end_matches('"');
                        let title = title.split_whitespace().collect::<Vec<_>>().join(" ");
                        headings.iter().any(|(_, h)| h.contains(&title))
                    }
                    None => headings.iter().any(|(n, _)| *n == cited),
                };
                if !exists {
                    let file = path.strip_prefix(ROOT).unwrap_or(path);
                    broken.push(format!("{}: {doc} {cited}", file.display()));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "citations of headings that do not exist:\n{}",
        broken.join("\n")
    );
    // The scan reads citations at all: the sources cite dozens.
    assert!(checked > 50, "only {checked} citations found");
}

#[test]
fn citations_parse_numbers_lists_and_titles() {
    let design = "DESIGN.md";
    assert_eq!(
        citations("(DESIGN.md §4.11, §4.16).", design),
        ["4.11", "4.16"]
    );
    assert_eq!(citations("see DESIGN.md 3.1.", design), ["3.1"]);
    assert_eq!(citations("in `DESIGN.md` §2. Absolute", design), ["2"]);
    assert_eq!(citations("(DESIGN.md 4.10, 3 rules)", design), ["4.10"]);
    assert_eq!(citations("(DESIGN.md, rack aggregation)", design), [""; 0]);
    let quoted = citations("(EXPERIMENTS.md \"Explaining a cell\")", "EXPERIMENTS.md");
    assert_eq!(quoted, ["\"Explaining a cell\""]);
    let (broken, whole) = ("//! (DESIGN.md\n//! §4.1) done", "(DESIGN.md §4.1) done");
    assert_eq!(prose(broken), whole);
    let h = headings("## 5. Experiment index\n### 4.11 `memres-trace`\n## History\n");
    assert_eq!(h[0], ("5".to_string(), "Experiment index".to_string()));
    assert_eq!(h[1].0, "4.11");
    assert_eq!(h[2], (String::new(), "History".to_string()));
}

/// The documents whose `` `path.rs::item` `` citations must resolve.
const ITEM_CITERS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Where a cited `path.rs` may live.
const SOURCES: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Each `` `path.rs::item` `` in `text` as `(path, item)`. A citation
/// broken across lines after its `::` reads whole.
fn item_citations(text: &str) -> Vec<(&str, &str)> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut found = Vec::new();
    for (at, sep) in text.match_indices(".rs::") {
        let tail = text[at + sep.len()..].trim_start();
        let item = &tail[..tail.find(|c| !is_ident(c)).unwrap_or(tail.len())];
        let closed = !item.is_empty() && tail[item.len()..].starts_with('`');
        if let Some(path) = quoted_path(text, at + 3).filter(|_| closed) {
            found.push((path, item));
        }
    }
    found
}

/// Each bare `` `path.rs` `` in `text`: a code span that is one file path.
fn file_citations(text: &str) -> Vec<&str> {
    let ends = text.match_indices(".rs`").map(|(at, _)| at + 3);
    ends.filter_map(|end| quoted_path(text, end)).collect()
}

/// The path of a `.rs` file that `text[..end]` ends with, if a code span
/// opens right before it.
fn quoted_path(text: &str, end: usize) -> Option<&str> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let head = &text[..end];
    let path = &head[head.trim_end_matches(is_path).len()..];
    let quoted = head[..end - path.len()].ends_with('`');
    (quoted && path.len() > ".rs".len()).then_some(path)
}

/// Whether `src` defines `item`: a `fn`, type, constant, module or macro
/// of that name.
fn defines(src: &str, item: &str) -> bool {
    let kinds = [
        "fn",
        "struct",
        "enum",
        "type",
        "trait",
        "const",
        "static",
        "mod",
        "macro_rules!",
    ];
    kinds.iter().any(|kind| {
        let def = format!("{kind} {item}");
        let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        src.match_indices(&def)
            .any(|(i, _)| !src[i + def.len()..].starts_with(ident))
    })
}

/// Every `` `path.rs::item` `` a document cites names a source file whose
/// path ends with `path` (whole components) and which defines `item`, so a
/// renamed or moved test or function cannot leave the docs pointing at
/// nothing.
#[test]
fn every_cited_item_exists() {
    let mut sources = Vec::new();
    for dir in SOURCES {
        files(&Path::new(ROOT).join(dir), &mut sources);
    }
    let (mut checked, mut broken) = (0, Vec::new());
    for doc in ITEM_CITERS {
        let text = std::fs::read_to_string(Path::new(ROOT).join(doc)).expect(doc);
        for (path, item) in item_citations(&text) {
            checked += 1;
            let defined = |f: &PathBuf| std::fs::read_to_string(f).is_ok_and(|s| defines(&s, item));
            if !sources.iter().any(|f| f.ends_with(path) && defined(f)) {
                broken.push(format!("{doc}: {path}::{item}"));
            }
        }
    }
    let broken = broken.join("\n");
    assert!(broken.is_empty(), "cited items no file defines:\n{broken}");
    assert!(checked >= 15, "only {checked} item citations found");
}

/// Every bare `` `path.rs` `` a document cites names a file under the
/// sources or `benchmark/src` by the same suffix rule, so a deleted or
/// moved file leaves no citation behind.
#[test]
fn every_cited_file_exists() {
    let mut files_at = Vec::new();
    for dir in SOURCES.iter().chain(&["benchmark/src"]) {
        files(&Path::new(ROOT).join(dir), &mut files_at);
    }
    let (mut checked, mut broken) = (0, Vec::new());
    for doc in ITEM_CITERS {
        let text = std::fs::read_to_string(Path::new(ROOT).join(doc)).expect(doc);
        for path in file_citations(&text) {
            checked += 1;
            if !files_at.iter().any(|f| f.ends_with(path)) {
                broken.push(format!("{doc}: {path}"));
            }
        }
    }
    let broken = broken.join("\n");
    assert!(broken.is_empty(), "cited files that are missing:\n{broken}");
    assert!(checked >= 100, "only {checked} file citations found");
}

#[test]
fn item_citations_parse_paths_items_and_line_breaks() {
    let text = "see `tests/docs.rs::bless` and `repro_cli.rs::\n  scale_cells_are_pinned`, \
                not `a.rs::` nor tests/x.rs::y nor `b.rs::c d`; \
                files `net/src/flow.rs` and `x.rs`, not `.rs`, `world/*.rs` nor y.rs`";
    assert_eq!(
        item_citations(text),
        [
            ("tests/docs.rs", "bless"),
            ("repro_cli.rs", "scale_cells_are_pinned")
        ]
    );
    assert_eq!(file_citations(text), ["net/src/flow.rs", "x.rs"]);
    assert!(defines("fn bless() {}\n", "bless"));
    assert!(!defines("fn blessed() {}\n", "bless"));
    assert!(defines("pub(crate) const N: u8 = 1;", "N"));
}

/// The file names in the first column of DESIGN.md §3.1's module table, in
/// order: every backquoted name of a cell that lists several.
fn module_table(design: &str) -> Vec<&str> {
    let start = design.find("### 3.1 ").expect("DESIGN.md has §3.1");
    let end = design[start + 1..]
        .find("\n#")
        .map_or(design.len(), |e| start + 1 + e);
    let header = "| module | state it owns |";
    let rows = design[start..end]
        .lines()
        .skip_while(|l| !l.starts_with(header))
        .skip(2);
    rows.take_while(|l| l.starts_with('|'))
        .filter_map(|row| row.split('|').nth(1))
        .flat_map(|cell| cell.split('`').skip(1).step_by(2))
        .collect()
}

/// DESIGN.md §3.1's module table has a row for `world.rs` and one for each
/// file under `crates/core/src/world/`, and none for a file that is not
/// there: a new seam, or one folded away, updates the map with it.
#[test]
fn the_module_map_lists_every_world_file() {
    let mut paths = Vec::new();
    files(&Path::new(ROOT).join("crates/core/src/world"), &mut paths);
    let mut on_disk: Vec<String> = paths
        .iter()
        .filter_map(|p| Some(format!("world/{}", p.file_name()?.to_str()?)))
        .chain(["world.rs".to_string()])
        .collect();
    on_disk.sort();
    let design = std::fs::read_to_string(Path::new(ROOT).join("DESIGN.md")).expect("DESIGN.md");
    let mut listed: Vec<&str> = module_table(&design)
        .into_iter()
        .filter(|f| *f == "world.rs" || f.starts_with("world/"))
        .collect();
    listed.sort_unstable();
    assert_eq!(
        listed, on_disk,
        "DESIGN.md §3.1's rows for the world, against crates/core/src/world/"
    );
}

#[test]
fn module_table_rows_parse_every_name_of_the_first_cell() {
    let design = "### 3.1 Map\n\n| module | state it owns | arms | implements |\n\
                  |---|---|---|---|\n| `world.rs` | `SimWorld` | all | `handle` |\n\
                  | `a.rs`, `b.rs` | — | — | y |\n\n## 4. Next\n| `c.rs` | x |\n";
    assert_eq!(module_table(design), ["world.rs", "a.rs", "b.rs"]);
}

/// The panic lints whose waivers are R4's (DESIGN.md §4.10).
const PANIC_LINTS: [&str; 4] = ["unwrap_used", "expect_used", "panic", "unreachable"];

/// The `#[expect(...)]` attributes in `src` that name a panic lint, one per
/// attribute however many lines it spans: what `scripts/check.sh` stage 2
/// counts.
fn waivers(src: &str) -> usize {
    let names = |attr: &str| {
        PANIC_LINTS.iter().any(|lint| {
            let at = format!("clippy::{lint}");
            attr.match_indices(&at)
                .any(|(i, _)| attr[i + at.len()..].starts_with([',', ')']))
        })
    };
    let mut rest = src;
    let mut n = 0;
    while let Some(at) = rest.find("#[expect(") {
        let attr = &rest[at..];
        let end = attr.find(")]").map_or(attr.len(), |e| e + 2);
        n += usize::from(names(&attr[..end]));
        rest = &attr[end..];
    }
    n
}

/// DESIGN.md §4.10's waiver table: rows per file (as `crate/src/…`), and
/// the row count its prose states.
fn waiver_table(design: &str) -> (BTreeMap<String, usize>, usize) {
    let start = design.find("### 4.10 ").expect("DESIGN.md has §4.10");
    let end = design[start..]
        .find("\n### ")
        .map_or(design.len(), |e| start + e);
    let section = &design[start..end];
    let header = "| file | item | lint | the invariant it relies on |";
    let rows = section.lines().skip_while(|l| *l != header).skip(2);
    let mut table = BTreeMap::new();
    for row in rows.take_while(|l| l.starts_with('|')) {
        let file = row.split('|').nth(1).expect("a file cell");
        *table
            .entry(file.trim().trim_matches('`').to_string())
            .or_default() += 1;
    }
    let prose = section.split_whitespace().collect::<Vec<_>>().join(" ");
    let (_, after) = prose
        .split_once("waivers are the ")
        .expect("§4.10 states how many rows its waiver table has");
    let stated = after.split(' ').next().and_then(|n| n.parse().ok());
    (table, stated.expect("a row count"))
}

/// DESIGN.md §4.10's table names every R4 waiver under `crates/*/src`, file
/// by file, and no other, and its prose counts its rows: a waiver added or
/// removed without its row fails here.
#[test]
fn the_waiver_table_lists_every_waiver() {
    let crates = Path::new(ROOT).join("crates");
    let mut paths = Vec::new();
    files(&crates, &mut paths);
    let mut sites = BTreeMap::new();
    for path in paths {
        let file = path.strip_prefix(&crates).expect("under crates/");
        let in_src = file
            .components()
            .nth(1)
            .is_some_and(|c| c.as_os_str() == "src");
        if !in_src || path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let n = waivers(&std::fs::read_to_string(&path).expect("a source file"));
        if n > 0 {
            sites.insert(file.to_string_lossy().replace('\\', "/"), n);
        }
    }
    let design = std::fs::read_to_string(Path::new(ROOT).join("DESIGN.md")).expect("DESIGN.md");
    let (table, stated) = waiver_table(&design);
    assert_eq!(
        table, sites,
        "DESIGN.md §4.10's waiver rows per file, against the sources"
    );
    let rows: usize = table.values().sum();
    assert_eq!(stated, rows, "§4.10 says its table has {stated} rows");
}

#[test]
fn waivers_count_attributes_that_name_a_panic_lint() {
    let src = "#[expect(clippy::expect_used, reason = \"a\")]\n\
               #[expect(\n    clippy::unreachable,\n    reason = \"b\"\n)]\n\
               #[expect(clippy::panic_in_result_fn, reason = \"c\")]\n\
               #[expect(dead_code, reason = \"clippy::panic is not the lint\")]\n\
               #[expect(clippy::indexing_slicing, clippy::panic)]";
    assert_eq!(waivers(src), 3);
    let design = "### 4.10 R\n\nThe R4\nwaivers are the 2 rows below.\n\n\
                  | file | item | lint | the invariant it relies on |\n|---|---|---|---|\n\
                  | `des/src/sim.rs` | a | `panic` | x |\n| `des/src/sim.rs` | b | `panic` | y |\n\n\
                  ### 4.11 next\n| `x` |\n";
    let (table, stated) = waiver_table(design);
    assert_eq!(table, BTreeMap::from([("des/src/sim.rs".to_string(), 2)]));
    assert_eq!(stated, 2);
}
