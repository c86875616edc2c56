//! Deterministic parallel trial runner.
//!
//! Every evaluation binary in this crate sweeps an axis (padding quantum,
//! circuit count, client count, ...) by running **independent simulation
//! trials**: each trial builds its own [`simnet::Simulator`] from an explicit
//! seed and config, runs it to completion, and reduces the run to a plain
//! data value. Trials share no state, so they can execute on worker threads
//! in any order — determinism is preserved because
//!
//! 1. every trial's result is a pure function of its closure (the simulator
//!    RNG is seeded inside the trial, and nothing reads ambient state), and
//! 2. results are collected **in trial-index order**, not completion order.
//!
//! A sweep run with `--threads 1` is therefore byte-for-byte identical to the
//! same sweep run on every core of the machine (the regression test in
//! `tests/runner.rs` holds this invariant down).

use std::collections::VecDeque;
use std::sync::Mutex;

/// A boxed trial: runs to completion on some worker and yields its result.
pub type Trial<T> = Box<dyn FnOnce() -> T + Send>;

/// Worker-thread count actually used for `jobs` trials: the `--threads N`
/// argument if given (0 or absent means auto), else the machine's available
/// parallelism, never more than the number of trials.
fn threads_for(jobs: usize) -> usize {
    let requested = crate::arg_u64("--threads", 0) as usize;
    let n = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    n.clamp(1, jobs.max(1))
}

/// Run every trial and return their results **in trial-index order**.
///
/// Each trial's telemetry is captured with [`telemetry::scoped`] and folded
/// into the calling thread's registry in trial-index order, so the metrics a
/// sweep accumulates — like its results — are byte-identical across thread
/// counts.
///
/// A panicking trial propagates the panic to the caller once all workers
/// have stopped, matching the sequential behavior closely enough for
/// assert-style trials.
pub fn run_trials<T: Send + 'static>(threads: usize, jobs: Vec<Trial<T>>) -> Vec<T> {
    run_trials_traced(threads, jobs)
        .into_iter()
        .map(|(value, snap)| {
            telemetry::merge(&snap);
            value
        })
        .collect()
}

/// Like [`run_trials`], but pair each trial's result with the telemetry
/// [`telemetry::Snapshot`] it recorded (captured via [`telemetry::scoped`],
/// so nothing leaks into the worker's or caller's registry). Snapshots come
/// back in trial-index order regardless of scheduling.
pub fn run_trials_traced<T: Send + 'static>(
    threads: usize,
    jobs: Vec<Trial<T>>,
) -> Vec<(T, telemetry::Snapshot)> {
    let traced: Vec<Trial<(T, telemetry::Snapshot)>> = jobs
        .into_iter()
        .map(|job| Box::new(move || telemetry::scoped(job)) as Trial<(T, telemetry::Snapshot)>)
        .collect();
    run_trials_raw(threads, traced)
}

/// The scheduling core: with `threads <= 1` the trials run inline on the
/// caller's thread, in order — the reference behavior. With more threads,
/// workers pull trials from a shared queue (lowest index first) and deposit
/// results into the trial's slot, so scheduling never reorders or mixes
/// results.
fn run_trials_raw<T: Send>(threads: usize, jobs: Vec<Trial<T>>) -> Vec<T> {
    let n = jobs.len();
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let queue: Mutex<VecDeque<(usize, Trial<T>)>> =
        Mutex::new(jobs.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let next = queue.lock().expect("trial queue poisoned").pop_front();
                let Some((index, job)) = next else { break };
                let result = job();
                *slots[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every trial deposits exactly one result")
        })
        .collect()
}

/// Convenience: run `jobs` with the CLI-derived thread count and a one-line
/// note about the mode, returning results in trial-index order.
pub fn run_sweep<T: Send + 'static>(what: &str, jobs: Vec<Trial<T>>) -> Vec<T> {
    let threads = threads_for(jobs.len());
    if !crate::quiet() {
        eprintln!(
            "[runner] {}: {} trials on {} thread{}",
            what,
            jobs.len(),
            threads,
            if threads == 1 { "" } else { "s" }
        );
    }
    run_trials(threads, jobs)
}

/// The CLI surface every sweep binary shares: `--quiet`. Constructing it
/// applies the flag process-wide, so call it at the top of `main`.
pub struct SweepOpts {
    /// Suppress progress chatter (`--quiet`).
    pub quiet: bool,
}

impl SweepOpts {
    /// Parse the shared flags from `std::env::args` and apply them.
    pub fn from_args() -> SweepOpts {
        let quiet = crate::arg_flag("--quiet");
        crate::set_quiet(quiet);
        SweepOpts { quiet }
    }

    /// Export the calling thread's telemetry totals accumulated so far
    /// (trial metrics are folded in by [`run_trials`]) as
    /// `results/TELEMETRY_<name>.json`.
    pub fn export_telemetry(&self, name: &str) {
        let totals = telemetry::snapshot();
        let path = telemetry::export::write("results", name, name, telemetry::mode(), &totals)
            .expect("write telemetry export");
        if !crate::quiet() {
            println!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered() {
        let jobs: Vec<Trial<usize>> = (0..32usize)
            .map(|i| Box::new(move || i * i) as Trial<usize>)
            .collect();
        for threads in [1, 2, 4, 7] {
            let jobs: Vec<Trial<usize>> = (0..32usize)
                .map(|i| Box::new(move || i * i) as Trial<usize>)
                .collect();
            assert_eq!(
                run_trials(threads, jobs),
                (0..32usize).map(|i| i * i).collect::<Vec<_>>(),
                "threads = {threads}"
            );
        }
        assert_eq!(run_trials(3, jobs).len(), 32);
    }

    #[test]
    fn zero_and_single_job_edge_cases() {
        assert!(run_trials::<u8>(4, Vec::new()).is_empty());
        let one: Vec<Trial<u8>> = vec![Box::new(|| 9)];
        assert_eq!(run_trials(8, one), vec![9]);
    }

    #[test]
    fn traced_trials_capture_per_trial_metrics() {
        static T_TRIAL: telemetry::Counter = telemetry::Counter::new("bench.test.trial_units");
        let jobs: Vec<Trial<u64>> = (1..=4u64)
            .map(|i| {
                Box::new(move || {
                    T_TRIAL.add(i);
                    i
                }) as Trial<u64>
            })
            .collect();
        let out = run_trials_traced(2, jobs);
        for (i, (value, snap)) in out.iter().enumerate() {
            assert_eq!(*value as usize, i + 1, "values in trial-index order");
            assert_eq!(
                snap.counters["bench.test.trial_units"],
                (i + 1) as u64,
                "each snapshot holds exactly its own trial's metrics"
            );
        }
    }
}
