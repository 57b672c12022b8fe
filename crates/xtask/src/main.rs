#![forbid(unsafe_code)]

//! `cargo xtask` — thin CLI over the [`xtask`] library.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::{find_root, loc, report, rules, scan_repo};

const USAGE: &str = "\
usage: cargo xtask tidy [--format human|json] [--out FILE] [--root DIR] [--list]
       cargo xtask loc [SRC_DIR...]

tidy: the determinism & safety linter. Exit codes: 0 clean, 1
violations, 2 usage or I/O error. `--out` writes the JSON report to
FILE regardless of the chosen stdout format (CI uploads it as an
artifact).

loc: per source directory (default: every crate's `src/`; relative
paths resolve against the repo root), the lines outside `#[cfg(test)]`
/ `#[test]` items and the code-only subset (no blank or comment
lines), then their total.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("xtask: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Parses args and runs the requested task; `Ok(true)` means clean.
fn run(args: &[String]) -> Result<bool, String> {
    let Some(task) = args.first() else {
        return Err(format!("no task given\n{USAGE}"));
    };
    if task == "loc" {
        return run_loc(&args[1..]);
    }
    if task != "tidy" {
        return Err(format!("unknown task `{task}`\n{USAGE}"));
    }
    let mut format = "human".to_string();
    let mut out_file: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut list = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => {
                format = it.next().ok_or("--format needs a value")?.clone();
                if format != "human" && format != "json" {
                    return Err(format!("unknown format `{format}` (human|json)"));
                }
            }
            "--out" => out_file = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            "--root" => root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?)),
            "--list" => list = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if list {
        for r in rules::RULES {
            println!("{:<18} {}", r.name, r.summary);
        }
        return Ok(true);
    }
    let root = match root {
        Some(r) => r,
        None => find_root()?,
    };
    let result = scan_repo(&root).map_err(|e| format!("scan failed: {e}"))?;
    let json = report::json(&result.violations, result.files_scanned);
    if let Some(path) = out_file {
        std::fs::write(&path, &json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    if format == "json" {
        print!("{json}");
    } else {
        print!(
            "{}",
            report::human(&result.violations, result.files_scanned)
        );
    }
    Ok(result.violations.is_empty())
}

/// `cargo xtask loc`: prints the line-count report; always `Ok(true)`
/// once the tree was read.
fn run_loc(args: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    for a in args {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
            dir => dirs.push(dir.trim_end_matches('/').to_owned()),
        }
    }
    let root = find_root()?;
    if dirs.is_empty() {
        dirs = loc::crate_dirs(&root).map_err(|e| format!("listing crates: {e}"))?;
    }
    print!(
        "{}",
        loc::report(&root, &dirs).map_err(|e| format!("counting lines: {e}"))?
    );
    Ok(true)
}
