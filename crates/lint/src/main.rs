//! CLI front-end for `v10-lint`.
//!
//! `--check` (the default and only mode) scans the workspace and exits 1
//! on any finding, directive-hygiene problems included. Flags: `--json`
//! switches stdout to one JSON-lines object per finding (schema
//! `v10-lint/2`), which is also where per-file finding counts come from;
//! `--root <dir>` overrides the workspace root (default: this crate's
//! grandparent directory).

use std::path::PathBuf;
use std::process::ExitCode;

use v10_lint::scan_workspace;

fn usage() -> String {
    "usage: v10-lint [--check] [--json] [--root <dir>]".to_string()
}

fn run() -> Result<bool, String> {
    let mut json = false;
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .ok_or_else(|| "cannot locate workspace root".to_string())?;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--json" => json = true,
            "--root" => {
                root = PathBuf::from(args.next().ok_or_else(usage)?);
            }
            _ => return Err(usage()),
        }
    }

    let findings = scan_workspace(&root)?;
    for f in &findings {
        println!("{}", if json { f.render_json() } else { f.render() });
    }
    if findings.is_empty() {
        eprintln!(
            "v10-lint: clean ({} files in scope)",
            v10_lint::workspace::enumerate(&root)?.len()
        );
        Ok(true)
    } else {
        eprintln!(
            "v10-lint: FAIL: {} violation(s); see rules in crates/lint/src/rules.rs, \
             escape hatch: `// v10-lint: allow(<rule>) <reason>`",
            findings.len()
        );
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("v10-lint: error: {msg}");
            ExitCode::from(2)
        }
    }
}
