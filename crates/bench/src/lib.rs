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
//! `--quiet` (suppress progress chatter), `--json <path>` (mirror the
//! primary table as JSON), and `--telemetry off|summary|full` (recording
//! mode; each binary also exports `results/TELEMETRY_<name>.json`).

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

/// Write `header` + `rows` — the exact strings handed to [`write_csv`] — as
/// a JSON table to `path`. Cells that form a finite JSON number are emitted
/// bare; everything else is quoted. Reusing the CSV cell strings verbatim
/// keeps the two artifacts trivially consistent and the bytes deterministic.
pub fn write_json_table(path: &str, table: &str, header: &str, rows: &[String]) {
    fn json_number(cell: &str) -> bool {
        !cell.is_empty()
            && !cell.starts_with('+')
            && cell.parse::<f64>().map(f64::is_finite).unwrap_or(false)
            && cell
                .chars()
                .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
    }
    fn quote(cell: &str) -> String {
        format!("\"{}\"", cell.replace('\\', "\\\\").replace('"', "\\\""))
    }
    let columns: Vec<String> = header.split(',').map(quote).collect();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"table\": {},\n", quote(table)));
    out.push_str(&format!("  \"columns\": [{}],\n", columns.join(", ")));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let cells: Vec<String> = row
            .split(',')
            .map(|cell| {
                if json_number(cell) {
                    cell.to_string()
                } else {
                    quote(cell)
                }
            })
            .collect();
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    [{}]{comma}\n", cells.join(", ")));
    }
    out.push_str("  ]\n}\n");
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent).expect("create json table dir");
        }
    }
    fs::write(path, out).expect("write json table");
    if !quiet() {
        println!("wrote {path}");
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

/// Parse a `--key value` style string arg with a default.
pub fn arg_str(key: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Parse an optional `--key value` arg (`None` when absent).
pub fn arg_opt(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Whether a bare flag is present.
pub fn arg_flag(key: &str) -> bool {
    std::env::args().any(|a| a == key)
}

/// Why a fault-plane sweep must refuse its `--shards` argument, if it must.
///
/// The fault plane is serial-only (DESIGN.md §12): `install_faults` panics
/// mid-run on the sharded engine, long after the sweep has started burning
/// CPU. Fault-plane binaries call [`reject_sharded_fault_plane`] first so a
/// sharded invocation dies at argument parsing with an actionable message
/// instead. Returns `None` when `--shards` is absent or explicitly `0`.
pub fn sharded_fault_plane_error(args: &[String], bin: &str) -> Option<String> {
    let val = args
        .iter()
        .position(|a| a == "--shards")
        .map(|i| args.get(i + 1).cloned().unwrap_or_default())?;
    match val.parse::<u64>() {
        Ok(0) => None,
        Ok(n) => Some(format!(
            "{bin}: --shards {n} is not supported: the fault plane is \
             serial-only (DESIGN.md §12). Drop --shards (or pass 0) to run \
             this sweep on the serial engine."
        )),
        Err(_) => Some(format!(
            "{bin}: --shards needs a number (got `{val}`); the fault plane \
             is serial-only (DESIGN.md §12), so only 0 is accepted here."
        )),
    }
}

/// Exit with code 2 if this fault-plane sweep was asked for `--shards > 0`.
pub fn reject_sharded_fault_plane(bin: &str) {
    let args: Vec<String> = std::env::args().collect();
    if let Some(err) = sharded_fault_plane_error(&args, bin) {
        eprintln!("{err}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod arg_tests {
    use super::sharded_fault_plane_error;

    fn argv(rest: &[&str]) -> Vec<String> {
        std::iter::once("chaos_sweep")
            .chain(rest.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn absent_or_zero_shards_pass() {
        assert_eq!(sharded_fault_plane_error(&argv(&[]), "chaos_sweep"), None);
        assert_eq!(
            sharded_fault_plane_error(&argv(&["--shards", "0"]), "chaos_sweep"),
            None
        );
    }

    #[test]
    fn nonzero_shards_are_rejected_with_pointer_to_design() {
        let err = sharded_fault_plane_error(&argv(&["--shards", "4"]), "chaos_sweep")
            .expect("must reject");
        assert!(err.contains("DESIGN.md §12"), "{err}");
        assert!(err.contains("--shards 4"), "{err}");
    }

    #[test]
    fn unparseable_shards_are_rejected() {
        let err = sharded_fault_plane_error(&argv(&["--shards", "many"]), "chaos_sweep")
            .expect("must reject");
        assert!(err.contains("DESIGN.md §12"), "{err}");
    }

    #[test]
    fn missing_value_is_rejected() {
        assert!(sharded_fault_plane_error(&argv(&["--shards"]), "chaos_sweep").is_some());
    }
}
