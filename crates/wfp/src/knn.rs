//! k-nearest-neighbors over normalized trace features, with inverse
//! distance voting — the stronger of the two attackers on this corpus.

use crate::features::Normalizer;

/// A fitted k-NN classifier.
pub struct Knn {
    k: usize,
    norm: Normalizer,
    points: Vec<(Vec<f64>, usize)>,
}

impl Knn {
    /// Fit with neighborhood size `k`.
    pub fn fit(k: usize, rows: &[Vec<f64>], labels: &[usize]) -> Knn {
        assert_eq!(rows.len(), labels.len());
        let norm = Normalizer::fit(rows);
        let points = rows
            .iter()
            .zip(labels)
            .map(|(r, &l)| (norm.apply(r), l))
            .collect();
        Knn { k, norm, points }
    }

    /// Predict the label of one feature row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let q = self.norm.apply(row);
        let mut dists: Vec<(f64, usize)> = self
            .points
            .iter()
            .map(|(p, l)| {
                let d: f64 = p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
                (d, *l)
            })
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut votes: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for (d, l) in dists.iter().take(self.k) {
            *votes.entry(*l).or_insert(0.0) += 1.0 / (d.sqrt() + 1e-9);
        }
        votes
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(l, _)| l)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separable_clusters_classified() {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            rows.push(vec![i as f64 * 0.01, 0.0]);
            labels.push(0);
            rows.push(vec![10.0 + i as f64 * 0.01, 0.0]);
            labels.push(1);
        }
        let knn = Knn::fit(3, &rows, &labels);
        assert_eq!(knn.predict(&[0.05, 0.0]), 0);
        assert_eq!(knn.predict(&[10.05, 0.0]), 1);
    }

    #[test]
    fn nearest_neighbor_wins_votes() {
        let rows = vec![vec![0.0], vec![1.0], vec![1.1], vec![1.2]];
        let labels = vec![0, 1, 1, 1];
        let knn = Knn::fit(4, &rows, &labels);
        // Query right on top of label 0: inverse-distance voting should let
        // the single exact neighbor dominate.
        assert_eq!(knn.predict(&[0.0]), 0);
    }

    #[test]
    fn single_class_always_predicted() {
        let rows = vec![vec![1.0], vec![2.0]];
        let labels = vec![7, 7];
        let knn = Knn::fit(1, &rows, &labels);
        assert_eq!(knn.predict(&[100.0]), 7);
    }
}
