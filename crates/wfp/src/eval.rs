//! Closed-world evaluation: train the attacker on part of each site's
//! visits, measure accuracy on the rest.

use crate::bayes::GaussianNb;
use crate::features::extract;
use crate::knn::Knn;
use crate::trace::Trace;
use std::collections::BTreeMap;

/// Which attacker to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classifier {
    /// k-NN with the given k.
    Knn(usize),
    /// Gaussian naive Bayes.
    NaiveBayes,
}

/// An evaluation result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Fraction of test traces classified correctly.
    pub accuracy: f64,
    /// Training set size.
    pub n_train: usize,
    /// Test set size.
    pub n_test: usize,
    /// Number of classes present.
    pub n_classes: usize,
}

/// Split per label: the first `ceil(frac * n)` visits of each site train.
fn split(traces: &[Trace], train_frac: f64) -> (Vec<&Trace>, Vec<&Trace>) {
    let mut by_label: BTreeMap<usize, Vec<&Trace>> = BTreeMap::new();
    for t in traces {
        by_label.entry(t.label).or_default().push(t);
    }
    let mut train = Vec::new();
    let mut test = Vec::new();
    for (_l, group) in by_label.iter() {
        let n_train = ((group.len() as f64 * train_frac).ceil() as usize)
            .min(group.len().saturating_sub(1))
            .max(1);
        for (i, t) in group.iter().enumerate() {
            if i < n_train {
                train.push(*t);
            } else {
                test.push(*t);
            }
        }
    }
    (train, test)
}

/// Evaluate one attacker.
pub fn evaluate(traces: &[Trace], classifier: Classifier, train_frac: f64) -> EvalReport {
    let (train, test) = split(traces, train_frac);
    let x_train: Vec<Vec<f64>> = train.iter().map(|t| extract(t)).collect();
    let y_train: Vec<usize> = train.iter().map(|t| t.label).collect();
    let x_test: Vec<Vec<f64>> = test.iter().map(|t| extract(t)).collect();
    let y_test: Vec<usize> = test.iter().map(|t| t.label).collect();
    let mut n_classes: Vec<usize> = y_train.clone();
    n_classes.sort_unstable();
    n_classes.dedup();

    let predictions: Vec<usize> = match classifier {
        Classifier::Knn(k) => {
            let m = Knn::fit(k, &x_train, &y_train);
            x_test.iter().map(|r| m.predict(r)).collect()
        }
        Classifier::NaiveBayes => {
            let m = GaussianNb::fit(&x_train, &y_train);
            x_test.iter().map(|r| m.predict(r)).collect()
        }
    };
    let correct = predictions
        .iter()
        .zip(&y_test)
        .filter(|(p, y)| p == y)
        .count();
    EvalReport {
        accuracy: if y_test.is_empty() {
            0.0
        } else {
            correct as f64 / y_test.len() as f64
        },
        n_train: x_train.len(),
        n_test: x_test.len(),
        n_classes: n_classes.len(),
    }
}

/// The paper reports the strongest attacker's accuracy; we take the max of
/// the two classifiers (k-NN dominates on this corpus).
pub fn closed_world_accuracy(traces: &[Trace]) -> f64 {
    let knn = evaluate(traces, Classifier::Knn(3), 0.7);
    let nb = evaluate(traces, Classifier::NaiveBayes, 0.7);
    knn.accuracy.max(nb.accuracy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Packet;

    /// A synthetic trace whose structure depends deterministically on its
    /// label (plus small per-visit noise).
    fn synthetic(label: usize, visit: usize) -> Trace {
        let n = 20 + label * 7;
        let packets = (0..n)
            .map(|i| Packet {
                t: i as f64 * 0.01,
                signed_size: if i % (label + 2) == 0 {
                    514.0
                } else {
                    -(498.0 + ((label * 31 + visit) % 3) as f64)
                },
            })
            .collect();
        Trace { label, packets }
    }

    fn corpus(n_labels: usize, visits: usize) -> Vec<Trace> {
        let mut out = Vec::new();
        for v in 0..visits {
            for l in 0..n_labels {
                out.push(synthetic(l, v));
            }
        }
        out
    }

    #[test]
    fn distinguishable_corpus_scores_high() {
        let traces = corpus(8, 6);
        for c in [Classifier::Knn(3), Classifier::NaiveBayes] {
            let r = evaluate(&traces, c, 0.7);
            assert!(
                r.accuracy > 0.9,
                "{c:?} should ace a separable corpus, got {}",
                r.accuracy
            );
            assert_eq!(r.n_classes, 8);
            assert!(r.n_train > 0 && r.n_test > 0);
        }
    }

    #[test]
    fn indistinguishable_corpus_scores_at_chance() {
        // Every label produces the identical trace: accuracy ~ 1/n.
        let mut traces = Vec::new();
        for v in 0..6 {
            for l in 0..10 {
                let mut t = synthetic(0, v);
                t.label = l;
                traces.push(t);
            }
        }
        let acc = closed_world_accuracy(&traces);
        assert!(acc <= 0.25, "indistinguishable world, got {acc}");
    }

    #[test]
    fn split_keeps_every_class_in_train() {
        let traces = corpus(5, 3);
        let (train, test) = split(&traces, 0.7);
        let train_labels: std::collections::BTreeSet<usize> =
            train.iter().map(|t| t.label).collect();
        assert_eq!(train_labels.len(), 5);
        assert!(!test.is_empty());
    }
}
