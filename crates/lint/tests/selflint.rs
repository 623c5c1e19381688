//! The linter's own CI gate, as a test: the real workspace must scan
//! clean. `scripts/check.sh` runs the binary too, but this keeps
//! `cargo test` self-sufficient — a violating commit fails the test suite
//! even on machines that never run the full gate.

use memres_lint::{rules_for, scan_source, xfile, Diagnostic};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
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

#[test]
fn workspace_lints_clean() {
    let root = root();
    let mut files = Vec::new();
    for top in ["crates", "src", "examples"] {
        walk(&root.join(top), &root, &mut files);
    }
    files.sort();
    assert!(
        files.iter().any(|f| f.ends_with("core/src/world.rs")),
        "walk found no engine sources — wrong root? {root:?}"
    );
    // The engine kernel is split over `world/`; its modules must be walked,
    // and under the panic rule (R4 matches by path prefix).
    let kernel: Vec<&String> = files
        .iter()
        .filter(|f| f.starts_with("crates/core/src/world/"))
        .collect();
    assert!(!kernel.is_empty(), "walk found no `world/` module");
    for rel in kernel {
        assert!(
            rules_for(rel).panic,
            "{rel} is scanned without the panic rule"
        );
    }

    let mut diags: Vec<Diagnostic> = Vec::new();
    for rel in &files {
        let rules = rules_for(rel);
        if rules.is_empty() {
            continue;
        }
        let src = std::fs::read_to_string(root.join(rel)).expect(rel);
        diags.extend(scan_source(rel, &src, rules));
    }
    let mut load = |rel: &str| std::fs::read_to_string(root.join(rel)).ok();
    diags.extend(xfile::check_all(&mut load));

    assert!(
        diags.is_empty(),
        "workspace must lint clean:\n{}",
        diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
