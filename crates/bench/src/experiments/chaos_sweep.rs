//! **Chaos sweep** — goodput and recovery under the fault plane: every
//! trial runs the default fault mix (one relay crash + restart, a network
//! partition that heals) while the per-link loss rate sweeps 0 → 10%.
//! Recovery-enabled clients keep downloading throughout; each trial
//! *asserts* the recovery acceptance properties (goodput > 0, at least one
//! circuit rebuilt after the crash) before its row is written.
//!
//! `cargo run -p bench --release -- chaos_sweep`
//! Artifacts: `results/chaos.csv` and `results/TELEMETRY_chaos_sweep.json`.

use bench::chaos::{assert_recovered, run_chaos_trial, ChaosConfig, ChaosOutcome};
use bench::runner::{run_sweep, Trial};
use bench::{export_telemetry, say, write_csv, Opts};

/// The first trial's seed; trial `i` runs `SEED + i`.
const SEED: u64 = 11;

pub fn run(opts: &Opts) {
    let configs: Vec<ChaosConfig> = [0.0, 2.0, 5.0, 10.0]
        .iter()
        .enumerate()
        .map(|(i, &loss)| ChaosConfig::default_mix(SEED + i as u64, loss))
        .collect();
    let jobs: Vec<Trial<ChaosOutcome>> = configs
        .iter()
        .map(|&cfg| Box::new(move || run_chaos_trial(&cfg)) as Trial<ChaosOutcome>)
        .collect();
    let results = run_sweep(opts, "chaos_sweep", jobs);

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
        say!(
            opts,
            "loss {:>4}%: {} bytes goodput, {} downloads, {} rebuilds, {} msgs dropped",
            cfg.loss_pct,
            out.goodput_bytes,
            out.downloads,
            out.rebuilds,
            out.msgs_dropped
        );
    }
    write_csv(opts, "chaos.csv", header, &rows);
    export_telemetry(opts, "chaos_sweep");
    say!(
        opts,
        "all trials recovered (goodput > 0, crash survived, circuits rebuilt)"
    );
}
