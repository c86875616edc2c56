//! **Table 1** — "Accuracy of Deep Fingerprinting attacks against
//! unmodified Tor and Browser with varying amounts of padding."
//!
//! Paper values: None 93.9%, Browser+0MB 69.6%, +1MB 8.25%, +7MB 0.0%.
//! Exits non-zero unless the best accuracy falls strictly down the four
//! rows and the 7 MB row is at most 5 %.
//!
//! `cargo run -p bench --release -- table1`

use bench::runner::{run_sweep, Trial};
use bench::{require_shape, say, write_csv, Opts};
use wfp::{collect_traces, evaluate, Classifier, CollectConfig, Defense};

/// Closed-world size: the paper's 100 sites.
const SITES: u32 = 100;
/// Visits per site: the paper's "at least 10 times".
const VISITS: u32 = 10;
const SEED: u64 = 1;

/// One row: the best, k-NN and naive Bayes accuracies, and the k-NN split.
type Row = (f64, f64, f64, usize, usize);

pub fn run(opts: &Opts) {
    let conditions = [
        Defense::StandardTor,
        Defense::BentoBrowser { padding: 0 },
        Defense::BentoBrowser { padding: 1 << 20 },
        Defense::BentoBrowser { padding: 7 << 20 },
    ];
    let paper = [93.9, 69.6, 8.25, 0.0];

    // One trial per defense: each collects its own traces on a fresh
    // network and evaluates both classifiers on them.
    let jobs: Vec<Trial<Row>> = conditions
        .iter()
        .map(|&defense| {
            Box::new(move || {
                let cfg = CollectConfig {
                    n_sites: SITES,
                    n_visits: VISITS,
                    seed: SEED,
                    defense,
                };
                let traces = collect_traces(&cfg);
                let expected = (SITES * VISITS) as usize;
                if traces.len() < expected * 9 / 10 {
                    eprintln!(
                        "warning: only {}/{expected} visits completed under {defense:?}",
                        traces.len()
                    );
                }
                let knn = evaluate(&traces, Classifier::Knn(3), 0.7);
                let nb = evaluate(&traces, Classifier::NaiveBayes, 0.7);
                (
                    knn.accuracy.max(nb.accuracy) * 100.0,
                    knn.accuracy * 100.0,
                    nb.accuracy * 100.0,
                    knn.n_train,
                    knn.n_test,
                )
            }) as Trial<Row>
        })
        .collect();
    let results = run_sweep(opts, "table1", jobs);

    say!(
        opts,
        "Table 1: WF attack accuracy ({SITES} sites x {VISITS} visits, closed world)"
    );
    say!(opts, "{:<28} {:>10} {:>10}", "Defense", "paper %", "ours %");
    let mut rows = Vec::new();
    for ((defense, paper_pct), &(best, knn, nb, n_train, n_test)) in
        conditions.iter().zip(paper).zip(&results)
    {
        let label = defense.label();
        say!(opts, "{label:<28} {paper_pct:>10.1} {best:>10.2}");
        rows.push(format!(
            "{label},{paper_pct:.1},{best:.2},{knn:.2},{nb:.2},{n_train},{n_test}"
        ));
    }
    const HEADER: &str = "defense,paper_pct,best_pct,knn_pct,nb_pct,n_train,n_test";
    write_csv(opts, "table1.csv", HEADER, &rows);

    // The paper's staircase, checked on what was just written: every row of
    // padding makes the attack strictly worse, and 7 MB leaves it near
    // chance (1 % for 100 sites).
    let best: Vec<f64> = results.iter().map(|r| r.0).collect();
    let mut broken = Vec::new();
    for (i, pair) in best.windows(2).enumerate() {
        if pair[1] >= pair[0] {
            broken.push(format!(
                "{}: {:.2} % does not fall below {}'s {:.2} %",
                conditions[i + 1].label(),
                pair[1],
                conditions[i].label(),
                pair[0]
            ));
        }
    }
    if best[3] > 5.0 {
        broken.push(format!(
            "7 MB padding leaves {:.2} % accuracy, above 5 %",
            best[3]
        ));
    }
    require_shape("table1", &broken);
}
