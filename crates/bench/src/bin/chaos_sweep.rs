//! **Chaos sweep** — goodput and recovery under the fault plane: every
//! trial runs the default fault mix (one relay crash + restart, a network
//! partition that heals) while the per-link loss rate sweeps 0 → 10%.
//! Recovery-enabled clients keep downloading throughout; each trial
//! *asserts* the recovery acceptance properties (goodput > 0, at least one
//! circuit rebuilt after the crash) before its row is written.
//!
//! `cargo run -p bench --release --bin chaos_sweep`
//! `--seed N` reseeds the sweep.
//! Artifacts: `results/chaos.csv` and `results/TELEMETRY_chaos_sweep.json`.

use bench::chaos::{assert_recovered, run_chaos_trial, ChaosConfig, ChaosOutcome};
use bench::runner::{run_sweep, SweepOpts, Trial};
use bench::{arg_u64, write_csv};

fn main() {
    let opts = SweepOpts::from_args();
    let seed = arg_u64("--seed", 11);
    let configs: Vec<ChaosConfig> = [0.0, 2.0, 5.0, 10.0]
        .iter()
        .enumerate()
        .map(|(i, &loss)| ChaosConfig::default_mix(seed.wrapping_add(i as u64), loss))
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
    opts.export_telemetry("chaos_sweep");
    if !opts.quiet {
        println!("all trials recovered (goodput > 0, crash survived, circuits rebuilt)");
    }
}
