//! Self-test: the shipped workspace must lint clean. This is the same run
//! CI performs via the `bento_lint` binary, held down as a plain test so
//! `cargo test` alone catches a regression (a new HashMap in simnet, a
//! reasonless suppression, a wall-clock read in a deterministic crate)
//! without the CI wiring.

use lint::scan_workspace;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn shipped_workspace_lints_clean() {
    let root = workspace_root();
    let report = scan_workspace(&root).expect("workspace scan");
    assert!(
        !report.failed(),
        "workspace must lint clean; findings:\n{}",
        report
            .diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
