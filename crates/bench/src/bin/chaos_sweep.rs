//! **Chaos sweep** — goodput and recovery under the fault plane: every
//! trial runs the default fault mix (one relay crash + restart, a network
//! partition that heals) while the per-link loss rate sweeps 0 → 10%.
//! Recovery-enabled clients keep downloading throughout; each trial
//! *asserts* the recovery acceptance properties (goodput > 0, at least one
//! circuit rebuilt after the crash) before its row is written.
//!
//! `cargo run -p bench --release --bin chaos_sweep`
//! `--smoke` runs a single short trial (CI); `--seed N` reseeds the sweep.
//! `--shards N` with `N > 0` is rejected at parse time: the fault plane is
//! serial-only (DESIGN.md §12).
//! Artifacts: `results/chaos.csv`, `results/BENCH_chaos.json`, and
//! `results/TELEMETRY_chaos_sweep.json`.

use bench::chaos::{assert_recovered, run_chaos_trial, ChaosConfig, ChaosOutcome};
use bench::runner::{run_sweep, SweepOpts, Trial};
use bench::{arg_flag, arg_u64, reject_sharded_fault_plane, write_csv, write_json_table};

fn main() {
    // The fault plane is serial-only (DESIGN.md §12): fail at parse time,
    // not via `install_faults` panicking trials deep into the sweep.
    reject_sharded_fault_plane("chaos_sweep");
    let opts = SweepOpts::from_args();
    let seed = arg_u64("--seed", 11);
    let smoke = arg_flag("--smoke");
    let loss_axis: Vec<f64> = if smoke {
        vec![5.0]
    } else {
        vec![0.0, 2.0, 5.0, 10.0]
    };

    let configs: Vec<ChaosConfig> = loss_axis
        .iter()
        .enumerate()
        .map(|(i, &loss)| {
            let mut cfg = ChaosConfig::default_mix(seed.wrapping_add(i as u64), loss);
            if smoke {
                cfg.clients = 3;
                cfg.horizon_s = 30;
            }
            cfg
        })
        .collect();
    let jobs: Vec<Trial<ChaosOutcome>> = configs
        .iter()
        .map(|&cfg| Box::new(move || run_chaos_trial(&cfg)) as Trial<ChaosOutcome>)
        .collect();
    let results = run_sweep("chaos_sweep", jobs);

    let header = "loss_pct,goodput_bytes,downloads,rebuilds,msgs_dropped,crashes,restarts,events";
    let mut rows = Vec::new();
    for (cfg, out) in configs.iter().zip(results.iter()) {
        assert_recovered(cfg, out);
        rows.push(format!(
            "{},{},{},{},{},{},{},{}",
            cfg.loss_pct,
            out.goodput_bytes,
            out.downloads,
            out.rebuilds,
            out.msgs_dropped,
            out.crashes,
            out.restarts,
            out.events,
        ));
        if !opts.quiet {
            println!(
                "loss {:>4}%: {} bytes goodput, {} downloads, {} rebuilds, {} msgs dropped",
                cfg.loss_pct, out.goodput_bytes, out.downloads, out.rebuilds, out.msgs_dropped
            );
        }
    }
    write_csv("chaos.csv", header, &rows);
    write_json_table("results/BENCH_chaos.json", "chaos", header, &rows);
    opts.write_json_table("chaos", header, &rows);
    opts.export_telemetry("chaos_sweep");
    if !opts.quiet {
        println!("all trials recovered (goodput > 0, crash survived, circuits rebuilt)");
    }
}
