//! Order statistics over rep samples: the benchmark reports quantiles, never
//! means of host times (one contended rep must not move the reported value).

/// Summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Interquartile range as a percentage of the median.
    pub fn iqr_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median * 100.0
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an already sorted slice (`q` in 0..=1).
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The value reported for a host time: the 5th percentile of its samples.
/// On the box the bounds were set on, disturbance is one-sided (the
/// hypervisor takes the vCPU away, a neighbour slows the memory system), so
/// the low end of the samples is what the code costs and the rest is what
/// the host added: between identical runs the median moved 17–21%, the 10th
/// percentile 4–7%, the 5th 3–5% (README, "Noise"). A quantile rather than
/// the minimum, so that the value does not sink as a run holds more samples.
pub fn floor(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.05)
}

/// The value reported for a measured section: for each of its slices the
/// `floor` of that slice's samples across the reps, summed. `reps[r][k]` is
/// slice `k` of rep `r`; slice `k` is the same work in every rep.
///
/// It estimates what a rep takes while the host leaves it alone. A rep of
/// 0.2–1 s rarely runs undisturbed from end to end on the box the bounds
/// were set on (the hypervisor takes the vCPU away for bursts of
/// milliseconds, a neighbour slows the memory system for seconds), but each
/// of its slices of a few milliseconds does so in most reps (README,
/// "Noise").
///
/// # Panics
/// If the reps do not all have the same number of slices.
pub fn sliced_floor(reps: &[&[f64]]) -> f64 {
    let n = reps.first().map_or(0, |r| r.len());
    assert!(
        reps.iter().all(|r| r.len() == n),
        "every rep has the same slices"
    );
    let mut column = Vec::with_capacity(reps.len());
    (0..n)
        .map(|k| {
            column.clear();
            column.extend(reps.iter().map(|r| r[k]));
            floor(&column)
        })
        .sum()
}

/// Median of the samples (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// Quartiles and median of the samples.
pub fn summarize(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    Summary {
        n: v.len(),
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
    }
}

/// The highest percentile that still has at least ten samples beyond it
/// (p90 at 100 samples, p99 at 1000), and its value. With fewer than twenty
/// samples no percentile above the median qualifies, so the median is
/// returned as p50.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 20 {
        return (50, quantile_sorted(&v, 0.5));
    }
    let pct = ((n - 10) * 100 / n) as u32;
    (pct, v[n - 11])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(s.n, 4);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn floor_is_the_fifth_percentile() {
        let xs: Vec<f64> = (0..=20).rev().map(f64::from).collect();
        assert_eq!(floor(&xs), 1.0);
        assert_eq!(floor(&[3.0]), 3.0);
    }

    #[test]
    fn sliced_floor_sums_each_slice_s_floor() {
        // Slice 0 is disturbed in rep 1 and slice 1 in rep 0: no whole rep
        // is quiet, every slice is in most.
        let reps: [&[f64]; 3] = [&[1.0, 9.0], &[7.0, 2.0], &[1.0, 2.0]];
        assert_eq!(
            sliced_floor(&reps),
            floor(&[1.0, 7.0, 1.0]) + floor(&[9.0, 2.0, 2.0])
        );
        assert_eq!(sliced_floor(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90, 90.0));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (50, 3.0));
    }
}
