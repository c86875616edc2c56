//! Log-bucketed histograms with mergeable, integer-exact state.
//!
//! Values are `u64`s (nanoseconds, bytes, counts). Bucket `0` holds the
//! value `0`; bucket `b >= 1` holds `[2^(b-1), 2^b - 1]`, so 65 buckets
//! cover the whole `u64` range and recording is branch-light integer math
//! (`leading_zeros`) with no allocation. Two histograms merge by adding
//! bucket counts, which is associative and commutative — the property the
//! deterministic parallel sweep leans on.

/// Number of buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 65;

/// Bucket index of a value.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Smallest value a bucket can hold.
pub fn bucket_lo(b: usize) -> u64 {
    match b {
        0 => 0,
        _ => 1u64 << (b - 1),
    }
}

/// Largest value a bucket can hold.
pub fn bucket_hi(b: usize) -> u64 {
    match b {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << b) - 1,
    }
}

/// A log-bucketed histogram. All state is integer, so snapshots of equal
/// sample multisets are byte-identical however the samples were interleaved.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    /// Per-bucket sample counts.
    pub counts: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (`u64::MAX` while empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// New empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket holding
    /// the rank-`q` sample. The exact sample provably lies within the
    /// returned bucket, so the estimate brackets the true quantile to within
    /// one power of two (the bucket error).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank: of `count` samples in ascending order, the one at
        // zero-based index round((count - 1) * q).
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                // Tighten the bounds with the observed extremes.
                return bucket_hi(b).min(self.max).max(self.min.min(self.max));
            }
        }
        self.max
    }

    /// Lower bound of the bucket holding the rank-`q` sample (for
    /// bracketing checks).
    pub fn quantile_lo(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                return bucket_lo(b).max(self.min).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_lo(b)), b, "lo of bucket {b}");
            assert_eq!(bucket_of(bucket_hi(b)), b, "hi of bucket {b}");
        }
    }

    #[test]
    fn record_tracks_extremes_and_sum() {
        let mut h = LogHistogram::new();
        for v in [5u64, 0, 1000, 17] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1022);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
    }

    #[test]
    fn quantile_brackets_exact() {
        let mut h = LogHistogram::new();
        let samples: Vec<u64> = (1..=1000).map(|i| i * 7).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = sorted[((sorted.len() - 1) as f64 * q).round() as usize];
            let hi = h.quantile(q);
            let lo = h.quantile_lo(q);
            assert!(
                lo <= exact && exact <= hi,
                "q={q}: exact {exact} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.record(v * v);
            } else {
                b.record(v * v);
            }
            both.record(v * v);
        }
        a.merge(&b);
        assert_eq!(a.counts, both.counts);
        assert_eq!(a.count, both.count);
        assert_eq!(a.sum, both.sum);
        assert_eq!(a.min, both.min);
        assert_eq!(a.max, both.max);
    }
}
