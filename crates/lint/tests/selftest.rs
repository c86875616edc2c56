//! Self-test: the shipped workspace must lint clean under the shipped
//! `lint.toml`. This is the same run CI performs via the `bento_lint`
//! binary, held down as a plain test so `cargo test` alone catches a
//! regression (a new HashMap in simnet, a reasonless suppression, a
//! duplicated telemetry name) without the CI wiring.

use lint::config::Config;
use lint::scan_workspace;
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn shipped_config(root: &Path) -> Config {
    match std::fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => Config::parse(&text).expect("lint.toml parses"),
        Err(_) => Config::default(),
    }
}

#[test]
fn shipped_workspace_lints_clean() {
    let root = workspace_root();
    let cfg = shipped_config(&root);
    let report = scan_workspace(&root, cfg).expect("workspace scan");
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
