//! The one statistics helper experiments share: a bucketed time series
//! (per-client bandwidth curves for Figure 5). Distributions are
//! `telemetry::LogHistogram`'s job.

use crate::time::{SimDuration, SimTime};

/// A bucketed time series: values added at instants are summed into
/// fixed-width buckets. Used to compute per-second download rates.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket: SimDuration,
    sums: Vec<f64>,
}

impl TimeSeries {
    /// Hard cap on bucket count. An instant this far past the series start
    /// is almost always a unit bug (nanoseconds passed as seconds, or a
    /// `SimTime::MAX` sentinel leaking in), and resizing toward it would
    /// silently try to allocate gigabytes. 2^20 one-second buckets is about
    /// 12 days of simulated time — far beyond any experiment here.
    pub const MAX_BUCKETS: usize = 1 << 20;

    /// New series with the given bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        TimeSeries {
            bucket,
            sums: Vec::new(),
        }
    }

    /// Add `value` at instant `t`.
    ///
    /// # Panics
    /// If `t` lands past [`TimeSeries::MAX_BUCKETS`] buckets — see the
    /// constant for why that is treated as a caller bug rather than grown.
    pub fn add(&mut self, t: SimTime, value: f64) {
        let idx = (t.as_nanos() / self.bucket.as_nanos()) as usize;
        assert!(
            idx < Self::MAX_BUCKETS,
            "TimeSeries::add at {t:?} needs bucket {idx} (width {}), over the cap of {} buckets \
             — wrong bucket width, or a sentinel time from another run?",
            self.bucket,
            Self::MAX_BUCKETS,
        );
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
        }
        self.sums[idx] += value;
    }

    /// Bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// Sum in each bucket, in time order.
    pub fn buckets(&self) -> &[f64] {
        &self.sums
    }

    /// Per-second rates: each bucket sum divided by the bucket width.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let w = self.bucket.as_secs_f64();
        self.sums.iter().map(|s| s / w).collect()
    }

    /// (bucket start time in seconds, rate per second) pairs.
    pub fn rate_points(&self) -> Vec<(f64, f64)> {
        let w = self.bucket.as_secs_f64();
        self.sums
            .iter()
            .enumerate()
            .map(|(i, s)| (i as f64 * w, s / w))
            .collect()
    }

    /// Total of all values added.
    pub fn total(&self) -> f64 {
        self.sums.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_buckets_and_rates() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.add(SimTime::ZERO + SimDuration::from_millis(100), 500.0);
        ts.add(SimTime::ZERO + SimDuration::from_millis(900), 500.0);
        ts.add(SimTime::ZERO + SimDuration::from_millis(1500), 250.0);
        assert_eq!(ts.buckets(), &[1000.0, 250.0]);
        assert_eq!(ts.rates_per_sec(), vec![1000.0, 250.0]);
        assert_eq!(ts.total(), 1250.0);
        let pts = ts.rate_points();
        assert_eq!(pts[1], (1.0, 250.0));
    }

    #[test]
    fn time_series_accepts_times_up_to_the_cap() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        let last_ok = SimDuration::from_secs((TimeSeries::MAX_BUCKETS - 1) as u64);
        ts.add(SimTime::ZERO + last_ok, 1.0);
        assert_eq!(ts.buckets().len(), TimeSeries::MAX_BUCKETS);
        assert_eq!(ts.total(), 1.0);
    }

    #[test]
    #[should_panic(expected = "over the cap")]
    fn time_series_rejects_runaway_resize() {
        // Before the cap this tried to allocate one bucket per simulated
        // second until u64::MAX nanoseconds — an effectively unbounded
        // resize that aborted the process instead of panicking usefully.
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.add(SimTime::MAX, 1.0);
    }
}
