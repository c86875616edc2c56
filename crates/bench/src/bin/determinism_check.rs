//! **Dynamic determinism check** — the runtime complement to the static
//! bans in the workspace's `clippy.toml`. Clippy proves no workspace source
//! *names* a hash-ordered collection, the wall clock or thread identity
//! (outside a site that says why with an `#[expect]`); this binary proves
//! the property actually holds end to end by running the same workloads
//! under deliberately perturbed conditions and requiring the exported
//! artifacts to come back byte-identical:
//!
//! * **Fresh process per run** — every `std` `HashMap` in the address space
//!   gets new SipHash keys, so any hash-order dependence left in a hot path
//!   (the exact bug class `disallowed-types` exists for) shows up as an
//!   artifact diff.
//! * **`--threads 1` vs `--threads 4`** — the sweep runner's "parallel equals
//!   sequential" contract, checked over full processes rather than the unit
//!   test's in-process trials.
//!
//! Workloads: the chaos smoke sweep (`chaos_sweep --smoke`, the fault-plane
//! recovery path) and one Table 2 trial (`table2 --domains 1`, the download
//! pipeline). Each child runs in its own scratch directory, so the artifacts
//! under `results/` are produced — and compared — in isolation.
//!
//! `cargo run -p bench --release --bin determinism_check`
//!
//! Exits non-zero naming the first differing artifact (scratch directories
//! are kept for inspection on failure, removed on success).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A sibling benchmark binary (built into the same target directory).
fn sibling(name: &str) -> PathBuf {
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("exe has a parent dir");
    let bin = dir.join(name);
    if !bin.exists() {
        eprintln!(
            "determinism_check: {} not found next to {} — build it first \
             (cargo build --release -p bench)",
            name,
            me.display()
        );
        std::process::exit(2);
    }
    bin
}

/// Run `bin` with `args` in `cwd`, capturing output. Any non-zero exit is
/// fatal: a workload that cannot even finish proves nothing about determinism.
fn run_child(bin: &Path, args: &[&str], cwd: &Path) {
    fs::create_dir_all(cwd).expect("create scratch dir");
    let out = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn child workload");
    if !out.status.success() {
        eprintln!(
            "determinism_check: {} {:?} failed ({}) in {}",
            bin.display(),
            args,
            out.status,
            cwd.display()
        );
        eprintln!("--- stdout ---\n{}", String::from_utf8_lossy(&out.stdout));
        eprintln!("--- stderr ---\n{}", String::from_utf8_lossy(&out.stderr));
        std::process::exit(2);
    }
}

/// Every file under `dir`, as paths relative to it, sorted (recursive).
fn artifact_list(dir: &Path) -> Vec<PathBuf> {
    fn walk(base: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                walk(base, &p, out);
            } else {
                out.push(p.strip_prefix(base).expect("under base").to_path_buf());
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out
}

/// Byte-compare the `results/` trees of two runs. Returns a description of
/// the first difference, or `None` if they match exactly.
fn diff_runs(a: &Path, b: &Path) -> Option<String> {
    let (ra, rb) = (a.join("results"), b.join("results"));
    let (la, lb) = (artifact_list(&ra), artifact_list(&rb));
    if la != lb {
        return Some(format!(
            "artifact sets differ: {} produced {:?}, {} produced {:?}",
            a.display(),
            la,
            b.display(),
            lb
        ));
    }
    if la.is_empty() {
        return Some(format!(
            "no artifacts under {} — nothing was compared",
            ra.display()
        ));
    }
    for rel in &la {
        let ba = fs::read(ra.join(rel)).expect("read artifact A");
        let bb = fs::read(rb.join(rel)).expect("read artifact B");
        if ba != bb {
            let at = ba
                .iter()
                .zip(bb.iter())
                .position(|(x, y)| x != y)
                .unwrap_or(ba.len().min(bb.len()));
            // A little context either side of the first mismatch.
            let ctx = |bytes: &[u8]| {
                let lo = at.saturating_sub(20);
                let hi = (at + 20).min(bytes.len());
                String::from_utf8_lossy(&bytes[lo..hi]).into_owned()
            };
            return Some(format!(
                "{} differs at byte {} ({} vs {} bytes)\n  A: ...{}...\n  B: ...{}...",
                rel.display(),
                at,
                ba.len(),
                bb.len(),
                ctx(&ba),
                ctx(&bb)
            ));
        }
    }
    None
}

fn main() {
    let scratch = std::env::temp_dir().join(format!("bento_determinism_{}", std::process::id()));
    // (workload label, binary, fixed args) — each runs twice, --threads 1
    // vs --threads 4, in fresh processes and fresh scratch cwds.
    let workloads: [(&str, &str, &[&str]); 2] = [
        ("chaos_smoke", "chaos_sweep", &["--smoke", "--quiet"]),
        ("table2_1dom", "table2", &["--domains", "1", "--quiet"]),
    ];
    let mut failures = 0u32;
    for (label, bin_name, args) in workloads {
        let bin = sibling(bin_name);
        let dir_a = scratch.join(format!("{label}_t1"));
        let dir_b = scratch.join(format!("{label}_t4"));
        let mut args_a: Vec<&str> = args.to_vec();
        args_a.extend(["--threads", "1"]);
        let mut args_b: Vec<&str> = args.to_vec();
        args_b.extend(["--threads", "4"]);
        println!("determinism_check: {label}: {bin_name} {args_a:?} vs {args_b:?}");
        run_child(&bin, &args_a, &dir_a);
        run_child(&bin, &args_b, &dir_b);
        match diff_runs(&dir_a, &dir_b) {
            None => {
                let n = artifact_list(&dir_a.join("results")).len();
                println!("determinism_check: {label}: {n} artifact(s) byte-identical");
            }
            Some(diff) => {
                eprintln!("determinism_check: {label}: NONDETERMINISM DETECTED\n  {diff}");
                eprintln!("  scratch kept for inspection: {}", scratch.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("determinism_check: FAILED — {failures} workload(s) diverged");
        std::process::exit(1);
    }
    let _ = fs::remove_dir_all(&scratch);
    println!("determinism_check: ok — all workloads byte-identical across perturbations");
}
