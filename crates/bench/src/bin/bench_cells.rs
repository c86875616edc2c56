//! Machine-readable throughput baseline for the per-cell crypto data plane.
//!
//! Times the hot paths every relayed byte pays — the 3-hop onion seal, the
//! per-relay unseal (decrypt + digest check), the AES-128-CTR layer cipher
//! over one cell and raw SHA-256 with its compression function, each on
//! both backends — plus the ChaCha20 keystream and AEAD round trip of the
//! conclave channel, and merges the
//! numbers into `results/BENCH_cells.json` under a run label
//! (`--label baseline|optimized`, default `optimized`). When both labels
//! are present the file also carries per-benchmark speedups, so the perf
//! trajectory is demonstrated rather than asserted. The file names the
//! SHA-256 and AES backends of the build that wrote its latest run
//! (`sha256_backend`, `aes_backend`): numbers from different backends are
//! different rungs.

use bench::arg_str;
use onion_crypto::aead::{open, seal, AeadKey};
use onion_crypto::aes::Aes128Ctr;
use onion_crypto::chacha20::ChaCha20;
use onion_crypto::ntor::CircuitKeys;
use onion_crypto::sha256::{compress, compress_portable, sha256, Sha256};
use std::fmt::Write as _;
use std::time::Instant;
use tor_net::cell::{RelayCell, RelayCmd};
use tor_net::relay_crypto::{CircuitCrypto, LayerCrypto};

/// The benchmark names, in report order. The `sha256_compress*` rows
/// report **blocks per second**, the `aes128ctr_cell*` rows **509-byte
/// cell layers per second**.
const NAMES: [&str; 9] = [
    "chacha20_apply_16384",
    "seal_3hops",
    "relay_unseal",
    "aead_roundtrip",
    "sha256_16384",
    "sha256_compress",
    "sha256_compress_portable",
    "aes128ctr_cell",
    "aes128ctr_cell_portable",
];

fn keys(tag: u8) -> CircuitKeys {
    CircuitKeys {
        kf: [tag; 32],
        kb: [tag ^ 0xFF; 32],
        df: [tag.wrapping_add(1); 32],
        db: [tag.wrapping_add(2); 32],
        nf: [tag; 12],
        nb: [tag ^ 0xFF; 12],
    }
}

/// Median ops/sec over five samples, after calibrating the iteration count
/// to roughly a quarter second per sample.
fn ops_per_sec(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    let iters = loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed > 0.02 || iters >= 1 << 28 {
            break ((iters as f64 * 0.25 / elapsed.max(1e-9)).max(1.0)) as u64;
        }
        iters *= 4;
    };
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            iters as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[2]
}

fn run_all() -> Vec<(&'static str, f64)> {
    let mut results = Vec::new();

    // Raw keystream application over a 16 KiB buffer.
    let mut cipher = ChaCha20::new(&[7; 32], &[9; 12]);
    let mut buf = vec![0u8; 16 * 1024];
    results.push((NAMES[0], ops_per_sec(|| cipher.apply(&mut buf))));

    // Client-side: seal a 509-byte cell for hop 2 of a 3-hop circuit.
    let mut circuit = CircuitCrypto::new();
    for t in [1u8, 2, 3] {
        circuit.push_hop(LayerCrypto::client_side(&keys(t)));
    }
    let template = RelayCell::new(RelayCmd::Data, 1, vec![0u8; 400]).encode_payload();
    results.push((
        NAMES[1],
        ops_per_sec(|| {
            let mut payload = template;
            circuit.seal_for_hop(2, &mut payload);
        }),
    ));

    // Relay-side steady state: strip one layer and fail the recognition
    // check (the middle-hop path every forwarded cell takes).
    let mut relay = LayerCrypto::relay_side(&keys(8));
    results.push((
        NAMES[2],
        ops_per_sec(|| {
            let mut payload = template;
            relay.unseal(&mut payload);
        }),
    ));

    // AEAD round trip on a conclave-channel-sized message.
    let key = AeadKey::from_master(&[42u8; 32]);
    let msg = vec![0xA5u8; 512];
    results.push((
        NAMES[3],
        ops_per_sec(|| {
            let sealed = seal(&key, &[1u8; 12], b"", &msg);
            open(&key, &[1u8; 12], b"", &sealed).expect("roundtrip");
        }),
    ));

    // Raw digest throughput.
    let data = vec![0xABu8; 16 * 1024];
    results.push((
        NAMES[4],
        ops_per_sec(|| {
            std::hint::black_box(sha256(&data));
        }),
    ));

    // The compression function alone, eight blocks a call (one cell's
    // worth), as blocks/sec: the backend this build selected, then the
    // portable one every build carries.
    let blocks = [[0xABu8; 64]; 8];
    let mut state = [0u32; 8];
    let mut blocks_per_sec = |backend: fn(&mut [u32; 8], &[[u8; 64]])| {
        ops_per_sec(|| backend(&mut state, std::hint::black_box(&blocks))) * blocks.len() as f64
    };
    results.push((NAMES[5], blocks_per_sec(compress)));
    results.push((NAMES[6], blocks_per_sec(compress_portable)));

    // The layer cipher alone over one cell payload, the stream running on
    // from cell to cell as a circuit's does: the backend this build
    // selected, then the portable one every build carries.
    let mut cell = template;
    let mut stream = Aes128Ctr::new(&[7; 16], &[9; 8]);
    results.push((NAMES[7], ops_per_sec(|| stream.apply(&mut cell))));
    results.push((NAMES[8], ops_per_sec(|| stream.apply_portable(&mut cell))));

    results
}

/// Pull `"name": value` pairs out of a previous report's `"label": {...}`
/// section. This file is only ever written by this binary, so a
/// line-oriented scan is reliable.
fn parse_run(json: &str, label: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for line in json.lines() {
        let line = line.trim();
        if line.starts_with(&format!("\"{label}\": {{")) {
            in_section = true;
            continue;
        }
        if in_section {
            if line.starts_with('}') {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                let name = k.trim().trim_matches('"').to_string();
                if let Ok(value) = v.trim().trim_end_matches(',').parse::<f64>() {
                    out.push((name, value));
                }
            }
        }
    }
    out
}

fn main() {
    let label = arg_str("--label", "optimized");
    let fresh = run_all();

    let path = std::path::Path::new("results").join("BENCH_cells.json");
    let previous = std::fs::read_to_string(&path).unwrap_or_default();
    let mut runs: Vec<(String, Vec<(String, f64)>)> = ["baseline", "optimized"]
        .iter()
        .filter(|l| **l != label)
        .map(|l| (l.to_string(), parse_run(&previous, l)))
        .filter(|(_, vals)| !vals.is_empty())
        .collect();
    runs.push((
        label.clone(),
        fresh.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
    ));
    runs.sort_by_key(|(l, _)| l.clone()); // baseline before optimized

    let lookup = |which: &str, name: &str| -> Option<f64> {
        runs.iter()
            .find(|(l, _)| l == which)
            .and_then(|(_, vals)| vals.iter().find(|(n, _)| n == name))
            .map(|(_, v)| *v)
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"unit\": \"ops_per_sec\",");
    let (backend, aes_backend) = (Sha256::backend(), Aes128Ctr::backend());
    let _ = writeln!(json, "  \"sha256_backend\": \"{backend}\",");
    let _ = writeln!(json, "  \"aes_backend\": \"{aes_backend}\",");
    let _ = writeln!(json, "  \"payload_bytes\": 509,");
    let _ = writeln!(json, "  \"runs\": {{");
    for (ri, (run_label, vals)) in runs.iter().enumerate() {
        let _ = writeln!(json, "    \"{run_label}\": {{");
        for (i, (name, v)) in vals.iter().enumerate() {
            let comma = if i + 1 == vals.len() { "" } else { "," };
            let _ = writeln!(json, "      \"{name}\": {v:.1}{comma}");
        }
        let comma = if ri + 1 == runs.len() { "" } else { "," };
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"speedup\": {{");
    let speedups: Vec<(&str, Option<f64>)> = NAMES
        .iter()
        .map(|name| {
            let s = match (lookup("baseline", name), lookup("optimized", name)) {
                (Some(b), Some(o)) if b > 0.0 => Some(o / b),
                _ => None,
            };
            (*name, s)
        })
        .collect();
    let present: Vec<&(&str, Option<f64>)> = speedups.iter().filter(|(_, s)| s.is_some()).collect();
    for (i, (name, s)) in present.iter().enumerate() {
        let comma = if i + 1 == present.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {:.2}{comma}", s.unwrap());
    }
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, &json).expect("write BENCH_cells.json");

    println!("run label: {label} (sha256 backend: {backend}, aes backend: {aes_backend})");
    for (name, v) in &fresh {
        let extra = match *name {
            "chacha20_apply_16384" | "sha256_16384" => {
                format!("  ({:.1} MiB/s)", v * 16384.0 / (1024.0 * 1024.0))
            }
            n if n.starts_with("sha256_compress") => format!("  ({:.1} ns/block)", 1e9 / v),
            n if n.starts_with("aes128ctr_cell") => format!("  ({:.1} ns/cell-layer)", 1e9 / v),
            "seal_3hops" | "relay_unseal" => {
                format!("  ({:.1} MiB/s of cells)", v * 509.0 / (1024.0 * 1024.0))
            }
            _ => String::new(),
        };
        println!("  {name:<24} {v:>14.0} ops/s{extra}");
    }
    for (name, s) in &speedups {
        if let Some(s) = s {
            println!("  speedup {name:<22} {s:>6.2}x");
        }
    }
    println!("wrote {}", path.display());
}
