//! # bench — experiment harness regenerating the paper's tables and figures
//!
//! One binary per experiment (see DESIGN.md's per-experiment index):
//!
//! | paper artifact | binary | output |
//! |---|---|---|
//! | Table 1 (WF attack accuracy) | `table1` | `results/table1.csv` |
//! | Table 2 (download times)     | `table2` | `results/table2.csv` |
//! | Figure 5 (LoadBalancer)      | `figure5`| `results/figure5_{with,without}_lb.csv` |
//! | §7.3 scalability             | `scalability` | `results/scalability.txt` |
//! | §9.3 Shard property          | `shard_recovery` | `results/shard_recovery.txt` |
//! | §9.1 Cover ablation          | `cover_ablation` | `results/cover_ablation.txt` |
//!
//! Every sweep binary shares one CLI surface via [`runner::SweepOpts`]:
//! `--quiet` (suppress progress chatter). Each records telemetry at the
//! `summary` mode and exports it as `results/TELEMETRY_<name>.json`.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod runner;

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

static QUIET: AtomicBool = AtomicBool::new(false);

/// True when `--quiet` was given: progress chatter (the runner note and
/// `wrote ...` echoes) is suppressed. File contents are unaffected.
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

pub(crate) fn set_quiet(q: bool) {
    QUIET.store(q, Ordering::Relaxed);
}

/// Write rows as CSV into `results/<name>` (creating the directory), and
/// echo the path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").unwrap();
    for r in rows {
        writeln!(f, "{r}").unwrap();
    }
    if !quiet() {
        println!("wrote {}", path.display());
    }
}

/// Write a free-form text report into `results/<name>`.
pub fn write_report(name: &str, body: &str) {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    fs::write(&path, body).expect("write report");
    if !quiet() {
        println!("wrote {}", path.display());
    }
}

/// End a figure or table bin whose run lost the paper's shape: print what
/// broke and exit non-zero. Called after the results are written, so the
/// files are there to look at. Does nothing when `broken` is empty.
pub fn require_shape(bin: &str, broken: &[String]) {
    if !broken.is_empty() {
        eprintln!("{bin}: shape check failed:\n  {}", broken.join("\n  "));
        std::process::exit(1);
    }
}

/// Parse `--key value` style args with a default.
pub fn arg_u64(key: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether a bare flag is present.
pub fn arg_flag(key: &str) -> bool {
    std::env::args().any(|a| a == key)
}
