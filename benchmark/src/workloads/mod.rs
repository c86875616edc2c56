//! The four workloads. Each is a closed loop: one rep sets the system up,
//! runs the measured section to completion and checks its outputs; the next
//! rep starts only then. Every rep of a run uses the same `--seed`-derived
//! inputs, so reps are samples of identical work and their simulated
//! results must be identical too.

pub mod bento_session;
pub mod bulk_fetch;
pub mod figure5_regen;
pub mod scale_sharded;

use crate::trace::Tracer;
use simnet::sim::SimStats;
use simnet::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// What one rep measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds of the set-up section.
    pub setup_s: f64,
    /// Host seconds of the measured section: the sum of `slices`.
    pub wall_s: f64,
    /// Host seconds of the measured section's consecutive slices. The cuts
    /// are at fixed points of simulated time, so slice `k` is the same work
    /// in every rep, and short enough (milliseconds) to fall between two
    /// disturbances of the host where a whole rep does not.
    pub slices: Vec<f64>,
    /// The workload's simulated metric, in simulated seconds.
    pub sim_s: f64,
    /// Application payload bytes delivered in the measured section.
    pub payload_bytes: u64,
    /// Operations attempted (fetches, page loads, downloads, exchanges).
    pub attempted: u64,
    /// Operations that missed the horizon or returned wrong bytes.
    pub failed: u64,
    /// Simulator work done: events, messages, bytes, connections (summed
    /// over the rep's simulations). Must repeat exactly across reps.
    pub work: [u64; 4],
    /// Values only this workload can compute, for the traced pass.
    pub derived: Vec<(&'static str, f64)>,
}

/// Cuts a measured section into slices: started where the section starts,
/// `cut` at each boundary, `finish` where it ends.
pub struct Slicer {
    last: Instant,
    slices: Vec<f64>,
}

impl Slicer {
    /// Start the first slice now.
    pub fn start() -> Slicer {
        Slicer {
            last: Instant::now(),
            slices: Vec::new(),
        }
    }

    /// End the current slice and start the next; the ended slice's seconds.
    pub fn cut(&mut self) -> f64 {
        let now = Instant::now();
        let slice = (now - self.last).as_secs_f64();
        self.slices.push(slice);
        self.last = now;
        slice
    }

    /// End the last slice; the slices in order.
    pub fn finish(mut self) -> Vec<f64> {
        self.cut();
        self.slices
    }
}

/// A workload with its inputs generated: `rep` may be called any number of
/// times and does identical work each time.
pub trait Prepared {
    /// Run rep number `rep`, recording spans into `tracer`.
    fn rep(&self, rep: u32, tracer: &Arc<Tracer>) -> Rep;
}

/// The four workloads, in the order a round runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 16 MiB fetch over one 3-hop circuit.
    BulkFetch,
    /// Four full Bento sessions against one box.
    BentoSession,
    /// Both Figure 5 arms through the trial runner.
    Figure5Regen,
    /// 20 000 pure-simnet clients on the sharded engine.
    ScaleSharded,
}

impl Workload {
    /// Every workload, in round order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkFetch,
        Workload::BentoSession,
        Workload::Figure5Regen,
        Workload::ScaleSharded,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkFetch => "bulk_fetch",
            Workload::BentoSession => "bento_session",
            Workload::Figure5Regen => "figure5_regen",
            Workload::ScaleSharded => "scale_sharded",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate this workload's inputs from the seed. `smoke` shrinks the
    /// work so the smoke test finishes in seconds; smoke numbers are not
    /// comparable with anything.
    pub fn prepare(self, seed: u64, smoke: bool) -> Box<dyn Prepared> {
        match self {
            Workload::BulkFetch => Box::new(bulk_fetch::BulkFetch::new(seed, smoke)),
            Workload::BentoSession => Box::new(bento_session::BentoSession::new(seed, smoke)),
            Workload::Figure5Regen => Box::new(figure5_regen::Figure5Regen::new(seed, smoke)),
            Workload::ScaleSharded => Box::new(scale_sharded::ScaleSharded::new(seed, smoke)),
        }
    }
}

/// SplitMix64: the input generator. Inputs must depend on the seed and on
/// nothing else, so this is the only randomness the benchmark itself uses.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fill `out` with seed-derived bytes.
pub fn fill_bytes(seed: u64, out: &mut [u8]) {
    let mut state = seed;
    for chunk in out.chunks_mut(8) {
        let word = splitmix(&mut state).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

pub(crate) fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

pub(crate) fn work_of(s: SimStats) -> [u64; 4] {
    [
        s.events,
        s.msgs_delivered,
        s.bytes_delivered,
        s.conns_opened,
    ]
}
