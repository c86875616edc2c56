//! CI gate for the telemetry subsystem: validate exported
//! `TELEMETRY_*.json` artifacts against the versioned schema.
//!
//! `cargo run -p bench --release --bin telemetry_check -- \
//!      --file results/TELEMETRY_table2.json [--file ...]`
//!
//! Every `--file` occurrence names one artifact to validate; with none it
//! prints usage and exits 2. Exits 1 on any unreadable file or schema
//! failure, so it can sit directly in a CI step.

use telemetry::export::{validate, SCHEMA};

/// All values of a repeatable `--key value` arg.
fn arg_all(key: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == key)
        .filter_map(|(i, _)| args.get(i + 1))
        .cloned()
        .collect()
}

fn main() {
    let files = arg_all("--file");
    if files.is_empty() {
        eprintln!("usage: telemetry_check --file <TELEMETRY_*.json> [--file ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for file in &files {
        match std::fs::read_to_string(file) {
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                failed = true;
            }
            Ok(doc) => match validate(&doc) {
                Err(why) => {
                    eprintln!("{file}: schema validation FAILED: {why}");
                    failed = true;
                }
                Ok(()) => println!("{file}: {SCHEMA} OK"),
            },
        }
    }
    if failed {
        std::process::exit(1);
    }
}
