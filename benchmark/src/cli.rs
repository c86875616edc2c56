//! Command line: the driver's one-workload run, the full report (interleaved
//! rounds plus the traced pass), `aa`, `compare` and `--smoke`.

use crate::host;
use crate::json::{self, Value};
use crate::metrics::{unit_of, END_TO_END};
use crate::run::{self, describe, goodput_mib_per_s, success_ratio, RunSpec};
use crate::stats::median;
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage: benchmark [--seed N] [--seconds S] [--smoke] [--trace] [--out DIR]
           the full report: three interleaved rounds of the four workloads, S
           seconds each, then the traced pass (--trace: the traced pass only)
       benchmark --workload NAME --seed N --seconds S --trace 0|1
           one run of one workload; the last line is the result object
       benchmark aa [--sets N] [--seed N] [--seconds S]
           N full sets of the same binary, compared against the bounds
       benchmark compare A.json B.json
           two RESULT.json files compared against the bounds
       benchmark host-ref
           one walk of the reference kernel, in ms (a run starts this
           between reps)";

/// Parsed options shared by every mode.
#[derive(Clone)]
struct Opts {
    seed: u64,
    seconds: f64,
    sets: usize,
    smoke: bool,
    trace_only: bool,
    workload: Option<Workload>,
    trace_flag: Option<bool>,
    out: PathBuf,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        seed: 1,
        seconds: 10.0,
        sets: 2,
        smoke: false,
        trace_only: false,
        workload: None,
        trace_flag: None,
        // `cargo run`/`cargo test` export the package directory; `run.sh`
        // starts the binary from the repo root.
        out: std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
            .join("out"),
        positional: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&o.seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--sets" => {
                o.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--out" => o.out = PathBuf::from(value("a directory")?),
            "--workload" => {
                let name = value("a workload name")?;
                o.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--smoke" => o.smoke = true,
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    o.trace_flag = Some(false);
                }
                Some("1") => {
                    it.next();
                    o.trace_flag = Some(true);
                }
                _ => o.trace_only = true,
            },
            "-h" | "--help" => return Err(String::new()),
            s if s.starts_with('-') => return Err(format!("unknown option {s}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    if o.sets == 0 {
        return Err("--sets must be at least 1".into());
    }
    if o.smoke {
        // One rep per pass.
        o.seconds = 0.0;
    }
    Ok(o)
}

/// Entry point of both binaries; `traced_binary` says which one this is.
pub fn main(traced_binary: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("benchmark: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (opts.workload, opts.positional.first().map(String::as_str)) {
        (Some(workload), None) => one_run(&opts, workload, traced_binary, &args),
        (None, None) => full_report(&opts),
        (None, Some("aa")) if opts.positional.len() == 1 => aa(&opts),
        (None, Some("compare")) if opts.positional.len() == 3 => {
            compare_files(&opts.positional[1], &opts.positional[2])
        }
        // What `host::host_ref_ms` starts between reps.
        (None, Some("host-ref")) if opts.positional.len() == 1 => {
            println!("{}", host::host_ref_kernel_ms());
            Ok(true)
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn sibling(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own path: {e}"))?;
    Ok(exe.with_file_name(name))
}

/// The driver's mode. The traced pass needs the counting allocator, which
/// only the traced binary carries, so the plain binary hands over to it.
fn one_run(
    opts: &Opts,
    workload: Workload,
    traced_binary: bool,
    args: &[String],
) -> Result<bool, String> {
    let trace = opts.trace_flag.unwrap_or(false);
    if trace && !traced_binary {
        let exe = sibling("benchmark_traced")?;
        let status = Command::new(&exe)
            .args(args)
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        return Ok(status.success());
    }
    let spec = RunSpec {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        trace,
        smoke: opts.smoke,
    };
    let result = run::run(&spec, &opts.out);
    let detail = result.to_json();
    // Machine-readable detail for a parent `benchmark` process; the result
    // object goes last, for the driver.
    let run_line = format!("#run {}", detail.to_line());
    let mut set = Value::obj();
    set.push(workload.name(), detail);
    print_set(&set);
    write_result(opts, vec![set])?;
    println!("{run_line}");
    println!("{}", result.result_line());
    Ok(result.failed == 0)
}

/// Run one child pass and return its `#run` object.
fn child(opts: &Opts, workload: Workload, trace: bool) -> Result<Value, String> {
    let exe = sibling(if trace {
        "benchmark_traced"
    } else {
        "benchmark"
    })?;
    let mut cmd = Command::new(&exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#run "))
        .ok_or_else(|| format!("{} printed no result:\n{stdout}", workload.name()))?;
    let value = json::parse(detail)?;
    if !output.status.success() {
        eprintln!("benchmark: {} reported failed operations", workload.name());
    }
    Ok(value)
}

fn numbers(v: Option<&Value>) -> Vec<f64> {
    v.map(|v| v.elements().iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// One set: three interleaved rounds (A B C D, A B C D, …; one under
/// `--smoke`) so that slow host weather hits every workload alike; per
/// workload, the rounds are pooled. Returns the set's JSON: workload name →
/// pooled result.
fn run_set(opts: &Opts) -> Result<Value, String> {
    let rounds = if opts.smoke { 1 } else { 3 };
    let mut runs: Vec<Vec<Value>> = vec![Vec::new(); Workload::ALL.len()];
    for round in 0..rounds {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!("round {} of {rounds}: {}", round + 1, w.name());
            runs[i].push(child(opts, w, false)?);
        }
    }
    let mut set = Value::obj();
    for (w, runs) in Workload::ALL.into_iter().zip(runs) {
        let sum = |key: &str| -> f64 {
            runs.iter()
                .filter_map(|r| r.get(key).and_then(Value::as_f64))
                .sum()
        };
        let metric = |name: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.as_f64())
                .collect()
        };
        let mut pooled = Value::obj();
        pooled
            .push("workload", w.name())
            .push("attempted", sum("attempted"))
            .push("failed", sum("failed"))
            .push(
                "host_ref_ms",
                median(
                    &runs
                        .iter()
                        .filter_map(|r| r.get("host_ref_ms")?.as_f64())
                        .collect::<Vec<_>>(),
                ),
            )
            .push("work", runs[0].get("work").cloned().unwrap_or(Value::Null))
            .push(
                "payload_bytes",
                runs[0].get("payload_bytes").cloned().unwrap_or(Value::Null),
            );
        let (mut metrics, mut samples) = (Value::obj(), Value::obj());
        let mut wall_s = 0.0;
        for m in &END_TO_END {
            let pool: Vec<f64> = runs
                .iter()
                .flat_map(|r| numbers(r.get("samples").and_then(|s| s.get(m.name))))
                .collect();
            // Host times and peak RSS take the median of the rounds' values
            // (a round's `wall_s` is built from its reps' slices, which it
            // does not pass on); goodput follows from that wall; sim_s is
            // one exact value; the success ratio is taken over the pooled
            // operations.
            let value = match m.name {
                "success_ratio" => success_ratio(sum("attempted") as u64, sum("failed") as u64),
                "goodput_mib_per_s" => {
                    let payload = runs[0].get("payload_bytes").and_then(Value::as_f64);
                    goodput_mib_per_s(payload.unwrap_or(0.0), wall_s)
                }
                "sim_s" => metric(m.name).first().copied().unwrap_or(0.0),
                _ => median(&metric(m.name)),
            };
            if m.name == "wall_s" {
                wall_s = value;
            }
            metrics.push(m.name, value);
            if !pool.is_empty() {
                samples.push(
                    m.name,
                    pool.into_iter().map(Value::from).collect::<Vec<_>>(),
                );
            }
        }
        // sim_s must also agree across rounds, not only across reps.
        let sims = metric("sim_s");
        if sims.iter().any(|s| s.to_bits() != sims[0].to_bits()) {
            return Err(format!("{}: sim_s differs between rounds", w.name()));
        }
        pooled.push("metrics", metrics).push("samples", samples);
        set.push(w.name(), pooled);
    }
    Ok(set)
}

fn print_set(set: &Value) {
    for (name, w) in set.members() {
        let (att, failed) = (
            w.get("attempted").and_then(Value::as_f64).unwrap_or(0.0),
            w.get("failed").and_then(Value::as_f64).unwrap_or(0.0),
        );
        println!("{name}");
        println!(
            "  fail_ratio {} ({failed} of {att} operations)",
            failed / att.max(1.0)
        );
        let work = numbers(w.get("work"));
        if let [events, msgs, bytes, conns] = work[..] {
            println!(
                "  work per rep: {events} events, {msgs} msgs, {bytes} bytes on the wire, \
                 {conns} conns, {} payload bytes",
                w.get("payload_bytes")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            );
        }
        for (metric, value) in w.get("metrics").map(Value::members).unwrap_or_default() {
            let value = value.as_f64().unwrap_or(0.0);
            let unit = unit_of(metric).unwrap_or("");
            println!("  {metric:<38} {value:>16.6} {unit}");
        }
        for (metric, xs) in w.get("samples").map(Value::members).unwrap_or_default() {
            println!("  {}", describe(metric, &numbers(Some(xs))));
        }
        println!(
            "  host_ref_ms {:.4}",
            w.get("host_ref_ms").and_then(Value::as_f64).unwrap_or(0.0)
        );
    }
}

fn write_result(opts: &Opts, sets: Vec<Value>) -> Result<(), String> {
    let mut root = Value::obj();
    root.push("host", host::fingerprint())
        .push("seed", opts.seed)
        .push("smoke", opts.smoke)
        .push("sets", sets);
    let path = opts.out.join("RESULT.json");
    std::fs::create_dir_all(&opts.out)
        .and_then(|()| std::fs::write(&path, root.to_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn set_failed(set: &Value) -> bool {
    set.members()
        .iter()
        .any(|(_, w)| w.get("failed").and_then(Value::as_f64).unwrap_or(1.0) != 0.0)
}

/// The default invocation: the rounds, then the traced pass.
fn full_report(opts: &Opts) -> Result<bool, String> {
    let mut set = if opts.trace_only {
        Value::obj()
    } else {
        let set = run_set(opts)?;
        print_set(&set);
        set
    };
    let mut ok = !set_failed(&set);
    println!("traced pass");
    for w in Workload::ALL {
        eprintln!("traced pass: {}", w.name());
        let run = child(opts, w, true)?;
        ok &= run.get("failed").and_then(Value::as_f64) == Some(0.0);
        let per_layer = run.get("metrics").cloned().unwrap_or(Value::Null);
        let mut one = Value::obj();
        one.push(w.name(), run);
        print_set(&one);
        if set.get(w.name()).is_none() {
            set.push(w.name(), Value::obj());
        }
        if let Some(pooled) = set.get_mut(w.name()) {
            pooled.push("per_layer", per_layer);
        }
    }
    write_result(opts, vec![set])?;
    println!("wrote {}", opts.out.join("RESULT.json").display());
    Ok(ok)
}

/// Compare set `b` against set `a`, metric by metric against the bounds.
/// Returns whether every pairing is within its bound (`sim_s` and the
/// failure counts must agree exactly).
fn compare_sets(a: &Value, b: &Value) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for (name, wa) in a.members() {
        let Some(wb) = b.get(name) else {
            println!("{name}: missing from the second set");
            ok = false;
            continue;
        };
        let num = |w: &Value, key: &str| w.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
        let (ref_a, ref_b) = (num(wa, "host_ref_ms"), num(wb, "host_ref_ms"));
        // More than 5% apart on the memory-walk kernel: the host was not in
        // the same state for the two sets, so a miss proves nothing.
        let contended = ((ref_b - ref_a) / ref_a).abs() > 0.05;
        for m in &END_TO_END {
            let get = |w: &Value| {
                w.get("metrics")
                    .and_then(|x| x.get(m.name))
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN)
            };
            let (va, vb) = (get(wa), get(wb));
            let worse = match m.better {
                crate::metrics::Better::Lower => (vb - va) / va,
                crate::metrics::Better::Higher => (va - vb) / va,
            };
            let within = if m.name == "sim_s" {
                va.to_bits() == vb.to_bits()
            } else {
                worse <= m.bound
            };
            let verdict = match (within, contended) {
                (true, _) => "ok",
                (false, true) => "MISS (contended)",
                (false, false) => "MISS",
            };
            ok &= within;
            println!(
                "{name:<14} {:<18} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.1}%  {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0
            );
        }
        let (fa, fb) = (num(wa, "failed"), num(wb, "failed"));
        if fa != 0.0 || fb != 0.0 {
            println!("{name:<14} fail_ratio must be 0: {fa} and {fb} operations failed");
            ok = false;
        }
        println!(
            "{name:<14} host_ref_ms {ref_a:.4} vs {ref_b:.4}{}",
            if contended { "  contended" } else { "" }
        );
    }
    ok
}

/// `aa`: N sets of the same binary; every later set against the first.
fn aa(opts: &Opts) -> Result<bool, String> {
    let mut sets = Vec::new();
    for i in 0..opts.sets {
        eprintln!("set {} of {}", i + 1, opts.sets);
        sets.push(run_set(opts)?);
    }
    let mut ok = !sets.iter().any(set_failed);
    for (i, set) in sets.iter().enumerate().skip(1) {
        println!("set {} against set 1", i + 1);
        ok &= compare_sets(&sets[0], set);
    }
    write_result(opts, sets)?;
    Ok(ok)
}

fn first_set(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(host) = root.get("host") {
        println!("{path}: {}", host.to_line());
    }
    root.get("sets")
        .and_then(|s| s.elements().first())
        .cloned()
        .ok_or_else(|| format!("{path}: no result set"))
}

/// `compare A B`: the first set of each file.
fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    Ok(compare_sets(&first_set(a)?, &first_set(b)?))
}
