//! `bento_lint` — run the workspace determinism & safety linter.
//!
//! ```text
//! bento_lint [--root <workspace>] [--format text|json]
//! ```
//!
//! Walks `crates/*/src/**/*.rs` (sorted — output order is deterministic),
//! prints `file:line:col [code deny] message` per finding (or the
//! schema-versioned JSON findings document with `--format json`), and exits
//! 1 when any finding survives suppression.

#![forbid(unsafe_code)]

use lint::scan_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bento_lint [--root <workspace>] [--format text|json]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format_json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format_json = false,
                Some("json") => format_json = true,
                _ => return usage("--format needs `text` or `json`"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // If the default root has no crates/, try the workspace the binary was
    // built from so `cargo run -p lint` works from any cwd.
    if !root.join("crates").is_dir() {
        let manifest_ws = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        if manifest_ws.join("crates").is_dir() {
            root = manifest_ws;
        }
    }

    let report = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bento_lint: {e}");
            return ExitCode::from(2);
        }
    };

    if format_json {
        print!("{}", report.to_json());
    } else {
        for d in &report.diags {
            println!("{d}");
        }
        match report.diags.len() {
            0 => println!("bento_lint: ok — 0 errors, 0 warning(s)"),
            n => println!("bento_lint: FAILED — {n} error(s), 0 warning(s)"),
        }
    }
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("bento_lint: {err}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
