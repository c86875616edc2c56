//! **Table 1** — "Accuracy of Deep Fingerprinting attacks against
//! unmodified Tor and Browser with varying amounts of padding."
//!
//! Paper values: None 93.9%, Browser+0MB 69.6%, +1MB 8.25%, +7MB 0.0%.
//!
//! Full scale: `cargo run -p bench --release --bin table1`
//! Quick check: add `--sites 20 --visits 4`.

use bench::{arg_u64, write_csv};
use wfp::{collect_traces, evaluate, Classifier, CollectConfig, Defense};

fn main() {
    let n_sites = arg_u64("--sites", 100) as u32;
    let n_visits = arg_u64("--visits", 10) as u32;
    let seed = arg_u64("--seed", 1);

    let conditions = [
        Defense::StandardTor,
        Defense::BentoBrowser { padding: 0 },
        Defense::BentoBrowser { padding: 1 << 20 },
        Defense::BentoBrowser { padding: 7 << 20 },
    ];
    let paper = [93.9, 69.6, 8.25, 0.0];

    println!("Table 1: WF attack accuracy ({n_sites} sites x {n_visits} visits, closed world)");
    println!("{:<28} {:>10} {:>10}", "Defense", "paper %", "ours %");
    let mut rows = Vec::new();
    for (defense, paper_pct) in conditions.iter().zip(paper) {
        let cfg = CollectConfig {
            n_sites,
            n_visits,
            seed,
            corpus_seed: 77,
            defense: *defense,
            visit_timeout_s: 300,
            jitter_pct: arg_u64("--jitter", 3) as u32,
        };
        let traces = collect_traces(&cfg);
        let expected = (n_sites * n_visits) as usize;
        if traces.len() < expected * 9 / 10 {
            eprintln!(
                "warning: only {}/{} visits completed under {:?}",
                traces.len(),
                expected,
                defense
            );
        }
        let knn = evaluate(&traces, Classifier::Knn(3), 0.7);
        let nb = evaluate(&traces, Classifier::NaiveBayes, 0.7);
        let best = knn.accuracy.max(nb.accuracy);
        println!(
            "{:<28} {:>10.1} {:>10.2}",
            defense.label(),
            paper_pct,
            best * 100.0
        );
        rows.push(format!(
            "{},{:.1},{:.2},{:.2},{:.2},{},{}",
            defense.label(),
            paper_pct,
            best * 100.0,
            knn.accuracy * 100.0,
            nb.accuracy * 100.0,
            knn.n_train,
            knn.n_test
        ));
    }
    write_csv(
        "table1.csv",
        "defense,paper_pct,best_pct,knn_pct,nb_pct,n_train,n_test",
        &rows,
    );
}
