//! # bench — experiment harness regenerating the paper's tables and figures
//!
//! One binary, `bench`, whose first argument names the experiment; its
//! `EXPERIMENTS` table lists them with the artifact each writes under
//! `results/` (DESIGN.md's per-experiment index maps them to the paper).
//! Every experiment runs at the fixed size its checked-in output was made
//! with; the only flags are [`Opts`]'s `--threads N` and `--quiet`. Each
//! one that exports telemetry writes `results/TELEMETRY_<name>.json` and
//! checks it against the schema as it is written.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod runner;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The flags every experiment shares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Opts {
    /// Worker threads for the trial runner; 0 means one per core.
    pub threads: usize,
    /// Suppress progress chatter: the runner note, `wrote ...` echoes and
    /// the printed tables. File contents are unaffected.
    pub quiet: bool,
}

/// `println!` unless the [`Opts`] say `--quiet`.
#[macro_export]
macro_rules! say {
    ($opts:expr, $($arg:tt)*) => {
        if !$opts.quiet {
            println!($($arg)*);
        }
    };
}

/// `results/<name>`, creating the directory.
fn results_path(name: &str) -> PathBuf {
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results dir");
    dir.join(name)
}

/// Write rows as CSV into `results/<name>`, and echo the path.
pub fn write_csv(opts: &Opts, name: &str, header: &str, rows: &[String]) {
    let path = results_path(name);
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write csv");
    for r in rows {
        writeln!(f, "{r}").expect("write csv");
    }
    say!(opts, "wrote {}", path.display());
}

/// Write a free-form text report into `results/<name>`.
pub fn write_report(opts: &Opts, name: &str, body: &str) {
    let path = results_path(name);
    fs::write(&path, body).expect("write report");
    say!(opts, "wrote {}", path.display());
}

/// Export the calling thread's telemetry totals accumulated so far (trial
/// metrics are folded in by [`runner::run_trials`]) as
/// `results/TELEMETRY_<name>.json`, then read the file back and check it
/// against the schema; exit non-zero if it does not pass.
pub fn export_telemetry(opts: &Opts, name: &str) {
    let totals = telemetry::snapshot();
    let path = telemetry::export::write("results", name, name, telemetry::mode(), &totals)
        .expect("write telemetry export");
    let doc = fs::read_to_string(&path).expect("read telemetry export back");
    if let Err(why) = telemetry::export::validate(&doc) {
        eprintln!("{}: schema validation failed: {why}", path.display());
        std::process::exit(1);
    }
    say!(opts, "wrote {}", path.display());
}

/// End an experiment whose run lost the paper's shape: print what broke and
/// exit non-zero. Called after the results are written, so the files are
/// there to look at. Does nothing when `broken` is empty.
pub fn require_shape(experiment: &str, broken: &[String]) {
    if !broken.is_empty() {
        eprintln!(
            "{experiment}: shape check failed:\n  {}",
            broken.join("\n  ")
        );
        std::process::exit(1);
    }
}
