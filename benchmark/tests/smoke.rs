//! Smoke test: at smoke size, every workload's untraced and traced pass
//! prints a well-formed result line carrying exactly the metrics the tables
//! (and `/BENCHMARK.json`) promise, each with its unit, and the predicted
//! nulls hold. Run with
//! `cargo test --release --manifest-path benchmark/Cargo.toml`.

use benchmark::json::{self, Value};
use benchmark::metrics::{END_TO_END, PER_LAYER};
use benchmark::workloads::Workload;
use std::path::Path;
use std::process::Command;

fn result_of(workload: Workload, trace: bool) -> Value {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_out");
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "1",
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke", "--out"])
        .arg(&out_dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{} trace={trace} failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is one JSON object")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result object has exactly the contract's keys, and exactly the
/// expected metrics, each a number with the table's unit.
fn check_shape(result: &Value, expected: &[(&str, &str)]) {
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = result.get("metrics").unwrap().members();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    for ((name, m), (_, unit)) in metrics.iter().zip(expected) {
        assert!(name_ok(name), "{name}");
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
    }
}

fn value(result: &Value, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{metric} missing"))
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
    for workload in Workload::ALL {
        let untraced = result_of(workload, false);
        check_shape(&untraced, &e2e);
        for (name, _) in &e2e {
            assert!(value(&untraced, name) > 0.0, "{name} must never read 0");
        }

        let traced = result_of(workload, true);
        check_shape(&traced, &layers);
        // Each probe is measured under the workload it explains, and only
        // there.
        for (name, home) in [
            ("ladder.fetch_ns_per_cell", Workload::BulkFetch),
            ("tor-net.relay_ns_per_cell", Workload::BulkFetch),
            ("conclave.attest_us", Workload::BentoSession),
            ("onion-crypto.ntor_handshake_us", Workload::BentoSession),
            ("simnet.shard_speedup_2t", Workload::ScaleSharded),
            ("bench-runner.parallel_efficiency", Workload::Figure5Regen),
        ] {
            assert_eq!(value(&traced, name) > 0.0, workload == home, "{name}");
        }
        assert_eq!(
            value(&traced, "onion-crypto.digest_ns_per_cell") > 0.0,
            workload != Workload::ScaleSharded
        );
        // Predicted nulls: layers a workload never enters count nothing.
        match workload {
            Workload::ScaleSharded => {
                assert_eq!(value(&traced, "tor-net.cells_in"), 0.0);
                assert_eq!(value(&traced, "onion-crypto.symmetric_share_pct"), 0.0);
            }
            Workload::BulkFetch => {
                assert_eq!(value(&traced, "conclave.sealed_bytes"), 0.0);
                assert_eq!(value(&traced, "conclave.epc_pages_in"), 0.0);
                assert_eq!(value(&traced, "core.invocations"), 0.0);
                assert!(value(&traced, "tor-net.cells_in") > 0.0);
            }
            Workload::BentoSession => {
                assert!(value(&traced, "core.invocations") > 0.0);
                assert!(value(&traced, "core.invoke_us") > 0.0);
                assert!(value(&traced, "conclave.sealed_bytes") > 0.0);
            }
            Workload::Figure5Regen => {
                assert!(value(&traced, "functions.lb_replicas") >= 1.0);
            }
        }
    }
}

#[test]
fn benchmark_json_says_what_the_tables_say() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = spec.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let str_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

    let workloads: Vec<String> = spec
        .get("workloads")
        .unwrap()
        .elements()
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, want);

    let e2e = spec.get("end_to_end").unwrap().elements();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (got, want) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(str_of(got, "name"), want.name);
        assert_eq!(str_of(got, "unit"), want.unit);
        assert_eq!(str_of(got, "better"), want.better.word());
        assert_eq!(got.get("bound").and_then(Value::as_f64), Some(want.bound));
    }

    let layers = spec.get("per_layer").unwrap().elements();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (got, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
        assert!(name_ok(name));
        assert_eq!(str_of(got, "name"), *name);
        assert_eq!(str_of(got, "unit"), *unit);
        assert_eq!(str_of(got, "better"), better.word());
    }
}
