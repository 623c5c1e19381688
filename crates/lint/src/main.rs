//! `memres-lint` — scan the workspace for determinism-rule violations.
//!
//! Usage:
//!   memres-lint [--json] [--github] [--root DIR] [FILE...]
//!
//! With no `FILE` operands the whole workspace is scanned (every `.rs` file
//! under `crates/`; the layer map in `memres_lint::rules_for` decides which
//! rules govern which file). With operands, only those files are scanned —
//! still classified by their workspace-relative path, so
//! `memres-lint crates/core/src/world.rs` checks the same rules the full run
//! would.
//!
//! `--json` renders findings as a JSON array (CI artifact); `--github`
//! additionally emits GitHub Actions `::error` workflow commands so
//! findings annotate the offending lines in a PR diff.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

#![allow(
    clippy::disallowed_methods,
    reason = "a tool that reads the workspace's source files, not simulation code (DESIGN.md 4.10)"
)]

use memres_lint::{diagnostics_json, scan_files, scan_workspace};
use std::path::PathBuf;

fn usage() -> &'static str {
    "usage: memres-lint [--json] [--github] [--root DIR] [FILE...]"
}

/// Find the workspace root: `--root` wins, else walk up from the current
/// directory to the first `Cargo.toml` declaring `[workspace]`.
fn find_root(explicit: Option<PathBuf>) -> Result<PathBuf, String> {
    if let Some(r) = explicit {
        if !r.join("Cargo.toml").is_file() {
            return Err(format!("--root {}: no Cargo.toml there", r.display()));
        }
        return Ok(r);
    }
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml above the current directory".to_string());
        }
    }
}

fn main() {
    let mut json = false;
    let mut github = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut files: Vec<String> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--github" => github = true,
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(d) => root_arg = Some(PathBuf::from(d)),
                    None => {
                        eprintln!("error: --root takes a directory\n{}", usage());
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            flag if flag.starts_with('-') => {
                eprintln!("error: unknown flag '{flag}'\n{}", usage());
                std::process::exit(2);
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }

    let root = match find_root(root_arg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let result = if files.is_empty() {
        scan_workspace(&root)
    } else {
        scan_files(&root, &files)
    };
    let (scanned, diags) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if json {
        print!("{}", diagnostics_json(&diags));
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
    }
    if github {
        for d in &diags {
            println!("{}", d.render_github());
        }
    }
    eprintln!(
        "memres-lint: {scanned} files scanned, {} violation{}",
        diags.len(),
        if diags.len() == 1 { "" } else { "s" }
    );
    std::process::exit(if diags.is_empty() { 0 } else { 1 });
}
