//! The linter's own CI gate, as a test: the real workspace must scan
//! clean. `scripts/check.sh` runs the binary too, but this keeps
//! `cargo test` self-sufficient — a violating commit fails the test suite
//! even on machines that never run the full gate.

use memres_lint::scan_workspace;
use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (scanned, diags) = scan_workspace(&root).expect("sources are readable");
    assert!(scanned > 40, "only {scanned} files scanned: wrong root?");
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
