//! **Padding-quantum ablation** for the Browser defense (DESIGN.md's
//! ablation b): attack accuracy as the padding quantum sweeps from 0 to
//! 8 MiB. Table 1 gives the paper's three points; this traces the whole
//! curve — accuracy falls as the quantum grows past the corpus' page-size
//! spread, bottoming out at chance.
//!
//! `cargo run -p bench --release -- padding_sweep` (40 sites × 6 visits,
//! smaller than Table 1's world to keep it minutes).

use bench::runner::{run_sweep, Trial};
use bench::{export_telemetry, say, write_csv, Opts};
use wfp::{closed_world_accuracy, collect_traces, CollectConfig, Defense};

const SITES: u32 = 40;
const VISITS: u32 = 6;
const SEED: u64 = 2;

pub fn run(opts: &Opts) {
    let paddings: [u64; 7] = [0, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 7 << 20];
    say!(
        opts,
        "padding sweep ({SITES} sites x {VISITS} visits); chance = {:.1}%",
        100.0 / SITES as f64
    );
    // One trial per padding quantum: trace collection is seeded per-config,
    // so every point is an independent simulation.
    let jobs: Vec<Trial<f64>> = paddings
        .iter()
        .map(|&padding| {
            Box::new(move || {
                let cfg = CollectConfig {
                    n_sites: SITES,
                    n_visits: VISITS,
                    seed: SEED,
                    defense: Defense::BentoBrowser { padding },
                };
                closed_world_accuracy(&collect_traces(&cfg))
            }) as Trial<f64>
        })
        .collect();
    let accuracies = run_sweep(opts, "padding_sweep", jobs);
    say!(opts, "padding      accuracy %");
    let mut rows = Vec::new();
    for (&padding, &acc) in paddings.iter().zip(accuracies.iter()) {
        let label = if padding == 0 {
            "none".to_string()
        } else if padding < 1 << 20 {
            format!("{}KB", padding >> 10)
        } else {
            format!("{}MB", padding >> 20)
        };
        say!(opts, "{:<12} {:>10.2}", label, acc * 100.0);
        rows.push(format!("{padding},{acc:.4}"));
    }
    write_csv(opts, "padding_sweep.csv", "padding_bytes,accuracy", &rows);
    export_telemetry(opts, "padding_sweep");
}
