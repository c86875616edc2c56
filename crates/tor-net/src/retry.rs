//! Retry policy: seeded jittered exponential backoff and a decaying cache
//! of recently-failed relays.
//!
//! Both pieces are deterministic given the simulation RNG: the backoff's
//! jitter draw comes from the caller-supplied (seeded) generator, and the
//! failure cache is a `BTreeMap` so its iteration order can never leak hash
//! randomness into the simulation.

// A fault-recovery path: a panic here turns a recoverable fault into a
// crash.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::dir::Fingerprint;
use rand::rngs::StdRng;
use rand::Rng;
use simnet::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Parameters of a jittered exponential backoff schedule.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// Nominal first delay.
    pub base: SimDuration,
    /// Nominal delay ceiling.
    pub cap: SimDuration,
    /// Attempts allowed before [`Backoff::next_delay`] returns `None`
    /// (0 = unlimited).
    pub max_attempts: u32,
}

/// Mutable backoff state: counts attempts, produces the next delay.
#[derive(Debug, Clone)]
pub struct Backoff {
    policy: BackoffPolicy,
    attempt: u32,
}

impl Backoff {
    /// Fresh state for `policy` (no attempts made).
    pub fn new(policy: BackoffPolicy) -> Backoff {
        Backoff { policy, attempt: 0 }
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// The nominal (pre-jitter) delay for attempt `n`: `base << n`, capped.
    fn nominal(&self, n: u32) -> SimDuration {
        let base = self.policy.base.as_nanos();
        let cap = self.policy.cap.as_nanos().max(base);
        let shifted = base.checked_shl(n.min(63)).unwrap_or(u64::MAX);
        SimDuration::from_nanos(shifted.min(cap))
    }

    /// Consume an attempt and return the delay before the next try, or
    /// `None` when attempts are exhausted. The delay is drawn uniformly from
    /// `[nominal/2, nominal]` — jittered so synchronized failers desync, yet
    /// monotone in expectation, never above the cap, and a pure function of
    /// the RNG stream (deterministic per seed).
    pub fn next_delay(&mut self, rng: &mut StdRng) -> Option<SimDuration> {
        if self.policy.max_attempts != 0 && self.attempt >= self.policy.max_attempts {
            return None;
        }
        let nominal = self.nominal(self.attempt).as_nanos().max(1);
        self.attempt += 1;
        let lo = nominal / 2;
        let jittered = lo + rng.gen_range(0..=(nominal - lo));
        Some(SimDuration::from_nanos(jittered))
    }

    /// Reset after a success: the next failure starts from `base` again.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Relays that failed us recently, with per-entry decay: a failed relay is
/// avoided during path selection until its entry expires.
#[derive(Debug, Clone)]
pub struct FailureCache {
    /// Fingerprint → time the failure stops counting.
    entries: BTreeMap<Fingerprint, SimTime>,
    decay: SimDuration,
}

impl FailureCache {
    /// A cache whose entries expire `decay` after being recorded.
    pub fn new(decay: SimDuration) -> FailureCache {
        FailureCache {
            entries: BTreeMap::new(),
            decay,
        }
    }

    /// Record a failure observed at `now` (re-recording extends the expiry).
    pub fn record(&mut self, fp: Fingerprint, now: SimTime) {
        self.entries.insert(fp, now + self.decay);
    }

    /// Is `fp` still considered failed at `now`?
    pub fn is_failed(&self, fp: &Fingerprint, now: SimTime) -> bool {
        self.entries.get(fp).is_some_and(|&until| until > now)
    }

    /// Fingerprints still failed at `now`, pruning expired entries.
    pub fn active(&mut self, now: SimTime) -> Vec<Fingerprint> {
        self.entries.retain(|_, &mut until| until > now);
        self.entries.keys().copied().collect()
    }

    /// Fingerprints still failed at `now`, without pruning (usable from
    /// shared references).
    pub fn snapshot(&self, now: SimTime) -> Vec<Fingerprint> {
        self.entries
            .iter()
            .filter(|(_, &until)| until > now)
            .map(|(fp, _)| *fp)
            .collect()
    }

    /// Number of (possibly expired) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no failures are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forget everything (e.g. after a consensus refresh).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn policy_ms(base: u64, cap: u64) -> BackoffPolicy {
        BackoffPolicy {
            base: SimDuration::from_millis(base),
            cap: SimDuration::from_millis(cap),
            max_attempts: 0,
        }
    }

    #[test]
    fn backoff_respects_attempt_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = Backoff::new(BackoffPolicy {
            max_attempts: 3,
            ..policy_ms(100, 1000)
        });
        assert!(b.next_delay(&mut rng).is_some());
        assert!(b.next_delay(&mut rng).is_some());
        assert!(b.next_delay(&mut rng).is_some());
        assert!(b.next_delay(&mut rng).is_none());
        b.reset();
        assert!(b.next_delay(&mut rng).is_some());
    }

    #[test]
    fn failure_cache_decays() {
        let mut fc = FailureCache::new(SimDuration::from_secs(10));
        let fp: Fingerprint = [7u8; 20];
        let t0 = SimTime::ZERO;
        fc.record(fp, t0);
        assert!(fc.is_failed(&fp, t0 + SimDuration::from_secs(5)));
        assert!(!fc.is_failed(&fp, t0 + SimDuration::from_secs(15)));
        assert_eq!(
            fc.active(t0 + SimDuration::from_secs(15)),
            Vec::<Fingerprint>::new()
        );
        assert!(fc.is_empty());
    }

    use proptest::prelude::*;

    proptest! {
        /// The jittered schedule stays within the monotone nominal envelope
        /// `[base<<n / 2, min(base<<n, cap)]` and never exceeds the cap.
        #[test]
        fn backoff_schedule_bounded_and_capped(
            seed in 0u64..1000,
            base_ms in 1u64..500,
            cap_ms in 1u64..10_000,
            n in 1usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = Backoff::new(policy_ms(base_ms, cap_ms));
            let base = SimDuration::from_millis(base_ms).as_nanos();
            let cap = SimDuration::from_millis(cap_ms).as_nanos().max(base);
            for i in 0..n {
                let d = b.next_delay(&mut rng).unwrap().as_nanos();
                let nominal = base.checked_shl(i.min(63) as u32).unwrap_or(u64::MAX).min(cap);
                prop_assert!(d <= nominal, "attempt {i}: {d} > nominal {nominal}");
                prop_assert!(d >= nominal / 2, "attempt {i}: {d} < {}", nominal / 2);
                prop_assert!(d <= cap, "attempt {i}: {d} above cap {cap}");
            }
        }

        /// Same seed → the same delay sequence, different seed → (almost
        /// always) a different one: the schedule is a pure function of the
        /// RNG stream.
        #[test]
        fn backoff_deterministic_per_seed(seed in 0u64..1000, n in 1usize..20) {
            let schedule = |s: u64| {
                let mut rng = StdRng::seed_from_u64(s);
                let mut b = Backoff::new(policy_ms(50, 5_000));
                (0..n).map(|_| b.next_delay(&mut rng).unwrap()).collect::<Vec<_>>()
            };
            prop_assert_eq!(schedule(seed), schedule(seed));
        }

        /// Nominal (pre-jitter) delays are monotone non-decreasing — the
        /// "schedule is monotone" half of the satellite property.
        #[test]
        fn backoff_nominal_monotone(base_ms in 1u64..500, cap_ms in 1u64..10_000) {
            let b = Backoff::new(policy_ms(base_ms, cap_ms));
            let mut last = SimDuration::from_nanos(0);
            for i in 0..48 {
                let nom = b.nominal(i);
                prop_assert!(nom >= last, "nominal regressed at attempt {i}");
                last = nom;
            }
        }
    }
}
