//! Fixture-driven engine tests: for every rule, a seeded violation must be
//! reported, the suppressed variant must pass (directive + reason), and the
//! clean variant must pass outright. Fixtures live in `tests/fixtures/` as
//! plain source text — they are lexed, never compiled.

use lint::{Analyzer, Report, DETERMINISTIC_CRATES};
use std::path::Path;

/// Run the analyzer over named fixtures: `(rel_path, crate_name, fixture)`.
fn analyze(files: &[(&str, &str, &str)]) -> Report {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut a = Analyzer::default();
    for (rel, krate, fixture) in files {
        let src = std::fs::read_to_string(dir.join(fixture))
            .unwrap_or_else(|e| panic!("fixture {fixture}: {e}"));
        a.add_file(rel, krate, &src);
    }
    a.finish()
}

/// Codes of all findings, in report order.
fn deny_codes(r: &Report) -> Vec<&str> {
    r.diags.iter().map(|d| d.code.as_str()).collect()
}

/// The common per-rule triad: the bad fixture fails with exactly `code`,
/// the suppressed and clean fixtures produce no findings at all.
fn assert_triad(code: &str, rel: &str, krate: &str) {
    let stem = code.to_lowercase();
    let bad = analyze(&[(rel, krate, &format!("{stem}_bad.rs"))]);
    assert!(bad.failed(), "{code}: bad fixture must fail");
    assert!(
        deny_codes(&bad).iter().all(|c| *c == code),
        "{code}: bad fixture reports only {code}, got {:?}",
        bad.diags
    );
    let sup = analyze(&[(rel, krate, &format!("{stem}_suppressed.rs"))]);
    assert!(
        !sup.failed(),
        "{code}: suppression with a reason must pass, got {:?}",
        sup.diags
    );
    let clean = analyze(&[(rel, krate, &format!("{stem}_clean.rs"))]);
    assert!(
        !clean.failed(),
        "{code}: clean fixture must pass, got {:?}",
        clean.diags
    );
}

#[test]
fn bl001_hash_collections_triad() {
    assert_triad("BL001", "crates/simnet/src/fixture.rs", "simnet");
}

#[test]
fn bl004_safety_comment_triad() {
    assert_triad("BL004", "crates/wfp/src/fixture.rs", "wfp");
}

#[test]
fn bl005_recovery_unwrap_triad() {
    // The rel_path must be one of the configured recovery paths.
    assert_triad("BL005", "crates/tor-net/src/retry.rs", "tor-net");
}

#[test]
fn bl007_lock_order_triad() {
    assert_triad("BL007", "crates/simnet/src/fixture.rs", "simnet");
}

#[test]
fn bl007_cross_file_inversion() {
    let a = ("crates/simnet/src/locks_a.rs", "simnet", "bl007_pair_a.rs");
    // A takes route→stats, B takes stats→route: the cycle only exists in
    // the merged workspace graph, and both edge sites are reported.
    let bad = analyze(&[
        a,
        (
            "crates/tor-net/src/locks_b.rs",
            "tor-net",
            "bl007_pair_b.rs",
        ),
    ]);
    assert!(bad.failed(), "cross-file inversion must fail");
    assert!(
        deny_codes(&bad).iter().all(|c| *c == "BL007"),
        "only BL007 expected, got {:?}",
        bad.diags
    );
    assert!(
        bad.diags.iter().any(|d| d.file.ends_with("locks_a.rs"))
            && bad.diags.iter().any(|d| d.file.ends_with("locks_b.rs")),
        "both files carry an inverted edge: {:?}",
        bad.diags
    );
    // Suppressing both inverted edges (with reasons) clears the cycle.
    let sup = analyze(&[
        (
            "crates/simnet/src/locks_a.rs",
            "simnet",
            "bl007_pair_a_suppressed.rs",
        ),
        (
            "crates/tor-net/src/locks_b.rs",
            "tor-net",
            "bl007_pair_b_suppressed.rs",
        ),
    ]);
    assert!(!sup.failed(), "{:?}", sup.diags);
    // B rewritten into the global order: no cycle.
    let clean = analyze(&[
        a,
        (
            "crates/tor-net/src/locks_b.rs",
            "tor-net",
            "bl007_pair_clean_b.rs",
        ),
    ]);
    assert!(!clean.failed(), "{:?}", clean.diags);
}

#[test]
fn bl008_taint_triad() {
    assert_triad("BL008", "crates/simnet/src/fixture.rs", "simnet");
}

#[test]
fn bl008_cross_crate_wall_clock_taint() {
    let src = ("crates/bench/src/host.rs", "bench", "bl008_src_bench.rs");
    // The SystemTime source sits in a host-side crate (not reported
    // there), but the deterministic caller that imports it is flagged.
    let bad = analyze(&[
        src,
        ("crates/simnet/src/stamp.rs", "simnet", "bl008_sim_bad.rs"),
    ]);
    assert!(bad.failed(), "cross-crate taint must fail");
    assert!(
        deny_codes(&bad).iter().all(|c| *c == "BL008"),
        "only BL008 expected, got {:?}",
        bad.diags
    );
    assert!(
        bad.diags.iter().all(|d| d.file.ends_with("stamp.rs")),
        "finding lands at the sim-visible call site: {:?}",
        bad.diags
    );
    // Firewalling the call site (with a reason) stops the flow.
    let sup = analyze(&[
        src,
        (
            "crates/simnet/src/stamp.rs",
            "simnet",
            "bl008_sim_suppressed.rs",
        ),
    ]);
    assert!(!sup.failed(), "{:?}", sup.diags);
    // The source alone, with no deterministic caller, is not a finding.
    let alone = analyze(&[src]);
    assert!(!alone.failed(), "{:?}", alone.diags);
}

#[test]
fn bl009_lock_across_wait_triad() {
    assert_triad("BL009", "crates/simnet/src/fixture.rs", "simnet");
}

#[test]
fn bl010_reachable_panic_triad() {
    assert_triad("BL010", "crates/simnet/src/fixture.rs", "simnet");
}

#[test]
fn bl011_stale_suppression_triad() {
    assert_triad("BL011", "crates/simnet/src/fixture.rs", "simnet");
}

/// The scopes compiled into the rules: an `Instant::now()` inside a function
/// is BL008 where it sits in every deterministic crate and in no host-side
/// one, a `HashMap` is BL001 in every deterministic crate (`wfp` included),
/// and every crate under `crates/` is one or the other.
#[test]
fn deterministic_crate_scope() {
    const HOST_CRATES: [&str; 3] = ["bench", "telemetry", "lint"];
    let clock = "pub fn stamp() -> u64 {\n    let t = std::time::Instant::now();\n    7\n}\n";
    let map = "pub struct Table {\n    entries: std::collections::HashMap<u32, u64>,\n}\n";
    let run = |krate: &str, src: &str| {
        let mut a = Analyzer::default();
        a.add_file(&format!("crates/{krate}/src/scope.rs"), krate, src);
        a.finish()
            .diags
            .iter()
            .map(|d| (d.code.clone(), d.line, d.col))
            .collect::<Vec<_>>()
    };
    for krate in DETERMINISTIC_CRATES {
        assert_eq!(run(krate, clock), [("BL008".into(), 2, 24)], "{krate}");
        assert_eq!(run(krate, map), [("BL001".into(), 2, 32)], "{krate}");
    }
    for krate in HOST_CRATES {
        assert!(run(krate, clock).is_empty(), "{krate}");
        assert!(run(krate, map).is_empty(), "{krate}");
    }
    let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for entry in std::fs::read_dir(crates_dir).expect("crates/") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_str().expect("utf-8 crate name");
        assert!(
            DETERMINISTIC_CRATES.contains(&name) || HOST_CRATES.contains(&name),
            "crates/{name} is in neither scope: add it to lint::DETERMINISTIC_CRATES \
             unless it is host-side tooling"
        );
    }
}
