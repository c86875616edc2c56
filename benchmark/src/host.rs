//! Host-side facts: who ran the benchmark, how much memory the process
//! peaked at, and the fixed memory-walk kernel that tells a quiet box from a
//! contended one.

use crate::json::Value;
use std::process::Command;
use std::time::Instant;

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Host threads the benchmark may use: never more than two, so numbers from
/// a larger box stay comparable with the 2-core box the bounds were set on.
pub fn threads() -> usize {
    nproc().min(2)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without spawning git; the
/// driver's checkout is not a repository, which reads as "unknown".
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// `nproc`, CPU model, rustc and commit: two result files are comparable
/// only when these match.
pub fn fingerprint() -> Value {
    let mut v = Value::obj();
    v.push("nproc", nproc())
        .push("cpu_model", cpu_model())
        .push("rustc", rustc_version())
        .push("git_sha", git_sha());
    v
}

/// Words in the reference kernel's buffer: 16 MiB, past this box's share of
/// the last-level cache, so the walk is bound by the memory system — the
/// resource whose contention moved `wall_s` in the noise study (README,
/// "Noise").
const REF_WORDS: usize = 2 << 20;

/// The fixed memory-walk reference kernel, run between reps. Its time is
/// reported as `harness.host_ref_ms` and never divides any metric: the
/// study found normalising by it does not stabilise ratios. Two sets of
/// runs whose reference times differ by more than 5% are marked contended.
///
/// The kernel runs in a process of its own (this executable, started as
/// `benchmark host-ref`). In the workload's process its 16 MiB buffer would
/// set the floor of `VmHWM`, and `peak_rss_mib` of a workload smaller than
/// that (`bento_session`, 5 MiB) would measure the harness.
pub fn host_ref_ms() -> f64 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let output = Command::new(exe)
        .arg("host-ref")
        .output()
        .expect("the benchmark can start itself");
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .expect("`benchmark host-ref` prints one number")
}

/// One walk over the reference buffer, in this process; milliseconds.
pub fn host_ref_kernel_ms() -> f64 {
    let mut buf: Vec<u64> = (0..REF_WORDS as u64).collect();
    let t = Instant::now();
    let mut acc = 0u64;
    // A stride of 9 cache lines defeats the adjacent-line prefetcher without
    // making the walk latency-bound; every word is visited once.
    const STRIDE: usize = 72;
    for start in 0..STRIDE {
        let mut i = start;
        while i < buf.len() {
            acc = acc.wrapping_add(buf[i]);
            buf[i] = acc;
            i += STRIDE;
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}
