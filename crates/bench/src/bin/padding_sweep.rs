//! **Padding-quantum ablation** for the Browser defense (DESIGN.md's
//! ablation b): attack accuracy as the padding quantum sweeps from 0 to
//! 8 MiB. Table 1 gives the paper's three points; this traces the whole
//! curve — accuracy falls as the quantum grows past the corpus' page-size
//! spread, bottoming out at chance.
//!
//! `cargo run -p bench --release --bin padding_sweep`
//! (`--sites N --visits N` to rescale; default 40×6 to keep it minutes.)

use bench::runner::{run_sweep, SweepOpts, Trial};
use bench::{arg_u64, write_csv};
use wfp::{closed_world_accuracy, collect_traces, CollectConfig, Defense};

fn main() {
    let opts = SweepOpts::from_args();
    let n_sites = arg_u64("--sites", 40) as u32;
    let n_visits = arg_u64("--visits", 6) as u32;
    let seed = arg_u64("--seed", 2);
    let paddings: [u64; 7] = [0, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 7 << 20];
    if !opts.quiet {
        println!(
            "padding sweep ({n_sites} sites x {n_visits} visits); chance = {:.1}%",
            100.0 / n_sites as f64
        );
    }
    // One trial per padding quantum: trace collection is seeded per-config,
    // so every point is an independent simulation.
    let jobs: Vec<Trial<f64>> = paddings
        .iter()
        .map(|&padding| {
            Box::new(move || {
                let cfg = CollectConfig {
                    n_sites,
                    n_visits,
                    seed,
                    corpus_seed: 77,
                    defense: Defense::BentoBrowser { padding },
                    visit_timeout_s: 300,
                    jitter_pct: 3,
                };
                closed_world_accuracy(&collect_traces(&cfg))
            }) as Trial<f64>
        })
        .collect();
    let accuracies = run_sweep("padding_sweep", jobs);
    if !opts.quiet {
        println!("{:<12} {:>10}", "padding", "accuracy %");
    }
    let mut rows = Vec::new();
    for (&padding, &acc) in paddings.iter().zip(accuracies.iter()) {
        let label = if padding == 0 {
            "none".to_string()
        } else if padding < 1 << 20 {
            format!("{}KB", padding >> 10)
        } else {
            format!("{}MB", padding >> 20)
        };
        if !opts.quiet {
            println!("{:<12} {:>10.2}", label, acc * 100.0);
        }
        rows.push(format!("{padding},{acc:.4}"));
    }
    write_csv("padding_sweep.csv", "padding_bytes,accuracy", &rows);
    opts.export_telemetry("padding_sweep");
}
