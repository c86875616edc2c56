//! Layer probes: per-layer numbers measured beside a workload's reps —
//! unit costs ([`micro`]), the in-core times of the probe fetch ([`fetch`]),
//! the ladder rungs ([`ladder`]) and the thread scaling of the sharded engine
//! and of the trial runner.
//! A probe's result does not depend on the workload being traced, so each
//! runs only in the traced pass of the workload it explains and reads 0 in
//! the others.

pub mod fetch;
pub mod ladder;
pub mod micro;

use crate::host;
use crate::stats::floor;
use crate::trace::Tracer;
use crate::workloads::bulk_fetch::BulkFetch;
use crate::workloads::figure5_regen::Figure5Regen;
use crate::workloads::scale_sharded::{Engine, ScaleSharded};
use crate::workloads::Workload;
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds per call of `f`: the iteration count is calibrated to about
/// 1 ms per sample, then 25 samples are taken and their `floor` reported,
/// like every host time here. Many short samples, because the host's
/// disturbances outlast a few milliseconds more often than they spare them.
pub fn time_ns(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed > 1e-3 || iters >= 1 << 24 {
            iters = ((iters as f64 * 1e-3 / elapsed.max(1e-9)) as u64).clamp(1, 1 << 26);
            break;
        }
        iters *= 4;
    }
    let samples: Vec<f64> = (0..25)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    floor(&samples)
}

/// Run the probes that explain `workload`, whose traced pass measured
/// `wall_s`. `smoke` shrinks the scenario probes so the smoke test stays
/// within seconds; the names emitted are the same.
pub fn run_for(
    workload: Workload,
    seed: u64,
    smoke: bool,
    wall_s: f64,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    match workload {
        Workload::BulkFetch => {
            micro::cell_crypto(&mut out);
            micro::tor_net(&mut out);
            ladder_and_fetch(seed, smoke, wall_s, &mut out);
        }
        Workload::BentoSession => {
            micro::cell_crypto(&mut out);
            micro::handshakes(&mut out);
            micro::conclave(&mut out);
            micro::sandbox(&mut out);
            micro::core(&mut out);
            micro::functions(&mut out);
        }
        Workload::Figure5Regen => {
            micro::cell_crypto(&mut out);
            runner_scaling(seed, smoke, &mut out);
        }
        Workload::ScaleSharded => shard_scaling(seed, smoke, &mut out),
    }
    out
}

/// The probe fetch and the ladder, which share `bulk_fetch`'s inputs. Rung 4
/// is the workload itself: `wall_s` of the traced pass's untraced reps.
fn ladder_and_fetch(seed: u64, smoke: bool, wall_s: f64, out: &mut Vec<(&'static str, f64)>) {
    let inputs = BulkFetch::new(seed, smoke);
    let (content, framed_len) = (inputs.content(), inputs.framed_len());
    let cells = inputs.data_cells() as f64;
    let fetch_ns = wall_s * 1e9 / cells;

    let crypto: Vec<(f64, f64)> = (0..3)
        .map(|_| ladder::crypto_ns_per_cell(content))
        .collect();
    let relay_crypto_ns = floor(&crypto.iter().map(|c| c.0).collect::<Vec<_>>());
    let crypto_ns = floor(&crypto.iter().map(|c| c.0 + c.1).collect::<Vec<_>>());

    let batched: Vec<fetch::ProbeFetch> = (0..3)
        .map(|_| fetch::probe_fetch(content, framed_len, true))
        .collect();
    let over_fetches =
        |f: &dyn Fn(&fetch::ProbeFetch) -> f64| floor(&batched.iter().map(f).collect::<Vec<_>>());
    // Per delivered cell and relay hop. Not per `cells_in`: the exit takes
    // the file in as stream data, so its share of the work has no cells in.
    let per_hop = |p: &fetch::ProbeFetch| p.relay_busy_ns as f64 / (3.0 * cells);
    let relay_hop_ns = over_fetches(&per_hop);
    let client_ns = over_fetches(&|p| p.client_busy_ns as f64 / cells);
    // Rung 2: everything tor-net's cores do for one delivered cell — three
    // relay hops and the client — crypto included.
    let relay_rung_ns = over_fetches(&|p| (p.relay_busy_ns + p.client_busy_ns) as f64 / cells);
    let unbatched = fetch::probe_fetch(content, framed_len, false);

    let transport: Vec<f64> = (0..3)
        .map(|_| ladder::transport_ns_per_cell(content))
        .collect();
    let transport_ns = floor(&transport);

    out.push(("tor-net.relay_ns_per_cell", relay_hop_ns));
    out.push(("tor-net.relay_ns_per_cell_b1", per_hop(&unbatched)));
    // A relay hop's crypto is one of the rung's three relay-side layer
    // operations; the rest of its time is tor-net's own.
    out.push((
        "tor-net.relay_self_ns_per_cell",
        relay_hop_ns - relay_crypto_ns / 3.0,
    ));
    out.push(("tor-net.client_unseal_ns_per_cell", client_ns));
    out.push((
        "tor-net.circuit_build_us",
        over_fetches(&|p| p.circuit_build_us),
    ));
    out.push((
        "tor-net.dir_codec_us",
        fetch::dir_codec_us(&batched[0].consensus),
    ));
    out.push(("simnet.transport_ns_per_cell", transport_ns));
    out.push(("ladder.crypto_ns_per_cell", crypto_ns));
    out.push(("ladder.relay_ns_per_cell", relay_rung_ns));
    out.push(("ladder.transport_ns_per_cell", transport_ns));
    out.push(("ladder.fetch_ns_per_cell", fetch_ns));
    out.push((
        "ladder.residual_ns_per_cell",
        fetch_ns - relay_rung_ns - transport_ns,
    ));
}

/// `bench-runner.parallel_efficiency`: one `figure5_regen` rep with its two
/// arms on two threads of the trial runner, where the workload's own reps
/// run them one after the other.
fn runner_scaling(seed: u64, smoke: bool, out: &mut Vec<(&'static str, f64)>) {
    let off = Arc::new(Tracer::new(false));
    let (_, efficiency) = Figure5Regen::new(seed, smoke).run(host::threads(), 0, &off);
    out.push(("bench-runner.parallel_efficiency", efficiency));
}

/// `simnet.shard_speedup_2t` and `simnet.shard1_over_serial`: the
/// `scale_sharded` scenario on one shard/one thread against two/two, and on
/// the serial engine against one/one. Ratios of wall seconds, base first.
fn shard_scaling(seed: u64, smoke: bool, out: &mut Vec<(&'static str, f64)>) {
    let scenario = ScaleSharded::new(seed, smoke);
    let off = Tracer::new(false);
    let wall = |shards, threads| {
        let runs: Vec<f64> = (0..2)
            .map(|rep| scenario.run(Engine { shards, threads }, &off, rep).wall_s)
            .collect();
        floor(&runs)
    };
    let (serial, one, two) = (wall(0, 1), wall(1, 1), wall(2, 2));
    out.push(("simnet.shard_speedup_2t", one / two));
    out.push(("simnet.shard1_over_serial", one / serial));
}
