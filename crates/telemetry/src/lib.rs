//! # telemetry — deterministic observability for the Bento reproduction
//!
//! Every layer of the stack (simulator event loop, relay data plane, Bento
//! server, conclave, bench harness) records into this crate's statically
//! declared metrics:
//!
//! ```
//! use telemetry::{Counter, Gauge, Histo, Span};
//!
//! static CELLS: Counter = Counter::new("tor.cells_forwarded");
//! static DEPTH: Gauge = Gauge::new("simnet.queue_depth");
//! static LAT: Histo = Histo::new("bento.invoke_bytes");
//! static RUN: Span = Span::new("simnet.run_until");
//!
//! telemetry::set_mode(telemetry::Mode::Full);
//! CELLS.inc();
//! DEPTH.set(17);
//! LAT.record(4096);
//! RUN.record_ns(1_000, 5_000); // sim-time enter/exit, nanoseconds
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counters["tor.cells_forwarded"], 1);
//! ```
//!
//! ## Determinism rules
//!
//! Unlike a wall-clock profiler, equal runs export byte-identical artifacts:
//!
//! 1. **Values are sim-derived.** Spans record `SimTime` enter/exit (as
//!    nanoseconds), never `Instant`s; counters count simulated events.
//! 2. **Storage is per-thread.** Metrics land in a thread-local registry, so
//!    worker scheduling can't interleave updates.
//! 3. **Units of work are scoped.** A bench trial runs inside
//!    [`scoped`], which captures its metrics as a [`Snapshot`]; the runner
//!    merges trial snapshots in trial-index order, so `--threads 1` and
//!    `--threads N` export the same bytes.
//! 4. **Export is ordered and integer.** Snapshots serialize `BTreeMap`s of
//!    integers; quantiles are integer bucket bounds.
//!
//! ## Cost
//!
//! A record is one atomic mode load plus a thread-local vector index — no
//! allocation, no locking (names intern once through a `OnceLock`). Hot
//! loops accumulate into plain struct fields and flush at phase boundaries
//! (see `simnet::Simulator::run_until`). The `on` feature (default) can be
//! compiled out entirely, turning every record call into nothing; the repo
//! benchmark's `harness.trace_overhead_pct` probe reports what full recording
//! costs a workload.

#![forbid(unsafe_code)]

pub mod export;
pub mod hist;
#[cfg_attr(
    not(feature = "on"),
    expect(
        dead_code,
        reason = "with recording compiled out, only the snapshot/merge plumbing is reachable"
    )
)]
mod registry;
pub mod snapshot;

pub use registry::{merge, reset, scoped, snapshot, take_snapshot};
pub use snapshot::{GaugeSnap, HistSnap, Snapshot};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// How much the process records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Mode {
    /// Record nothing.
    Off = 0,
    /// Counters and gauges only.
    Summary = 1,
    /// Everything, including histograms and spans.
    Full = 2,
}

impl Mode {
    /// Stable name (the export's `mode` field).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Summary => "summary",
            Mode::Full => "full",
        }
    }
}

static MODE: AtomicU8 = AtomicU8::new(Mode::Summary as u8);

/// Set the process-wide recording mode (worker threads see it too).
pub fn set_mode(m: Mode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// The current recording mode. With the `on` feature compiled out this is
/// always [`Mode::Off`].
#[inline]
pub fn mode() -> Mode {
    #[cfg(not(feature = "on"))]
    {
        Mode::Off
    }
    #[cfg(feature = "on")]
    {
        match MODE.load(Ordering::Relaxed) {
            0 => Mode::Off,
            1 => Mode::Summary,
            _ => Mode::Full,
        }
    }
}

/// A monotonically increasing event count. Declare as a `static`.
pub struct Counter {
    name: &'static str,
    #[cfg_attr(
        not(feature = "on"),
        expect(dead_code, reason = "the registry slot is read only when recording")
    )]
    slot: OnceLock<usize>,
}

impl Counter {
    /// A counter handle with a stable, globally unique name.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            slot: OnceLock::new(),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "on")]
        if mode() >= Mode::Summary {
            let slot = *self
                .slot
                .get_or_init(|| registry::intern(&registry::COUNTER_NAMES, self.name));
            registry::counter_add(slot, n);
        }
        #[cfg(not(feature = "on"))]
        let _ = n;
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A level (queue depth, residency): records the last-set value and the
/// high-water mark. Declare as a `static`.
pub struct Gauge {
    name: &'static str,
    #[cfg_attr(
        not(feature = "on"),
        expect(dead_code, reason = "the registry slot is read only when recording")
    )]
    slot: OnceLock<usize>,
}

impl Gauge {
    /// A gauge handle with a stable, globally unique name.
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            slot: OnceLock::new(),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Observe the current level.
    #[inline]
    pub fn set(&self, v: u64) {
        #[cfg(feature = "on")]
        if mode() >= Mode::Summary {
            let slot = *self
                .slot
                .get_or_init(|| registry::intern(&registry::GAUGE_NAMES, self.name));
            registry::gauge_set(slot, v);
        }
        #[cfg(not(feature = "on"))]
        let _ = v;
    }
}

/// A log-bucketed distribution (bytes, durations, batch sizes). Recorded
/// only in [`Mode::Full`]. Declare as a `static`.
pub struct Histo {
    name: &'static str,
    #[cfg_attr(
        not(feature = "on"),
        expect(dead_code, reason = "the registry slot is read only when recording")
    )]
    slot: OnceLock<usize>,
}

impl Histo {
    /// A histogram handle with a stable, globally unique name.
    pub const fn new(name: &'static str) -> Histo {
        Histo {
            name,
            slot: OnceLock::new(),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        #[cfg(feature = "on")]
        if mode() >= Mode::Full {
            let slot = *self
                .slot
                .get_or_init(|| registry::intern(&registry::HIST_NAMES, self.name));
            registry::hist_record(slot, v);
        }
        #[cfg(not(feature = "on"))]
        let _ = v;
    }

    /// Fold a locally accumulated [`hist::LogHistogram`] into this metric in
    /// one registry access — the batched flush for hot loops that record
    /// into a plain struct field and drain it at a phase boundary (see the
    /// simulator's per-message size histogram).
    #[inline]
    pub fn merge_from(&self, h: &hist::LogHistogram) {
        #[cfg(feature = "on")]
        if mode() >= Mode::Full && !h.is_empty() {
            let slot = *self
                .slot
                .get_or_init(|| registry::intern(&registry::HIST_NAMES, self.name));
            registry::hist_merge(slot, h);
        }
        #[cfg(not(feature = "on"))]
        let _ = h;
    }
}

/// A sim-time span: a scope that records its `SimTime` enter/exit (duration
/// lands in a histogram under the span's name) and how many events it
/// covered (a counter under the same name). Because both endpoints are
/// simulated time, output is byte-identical across runs and thread counts —
/// the deterministic replacement for a wall-clock profiler scope.
pub struct Span {
    dur: Histo,
    events: Counter,
}

impl Span {
    /// A span handle with a stable, globally unique name.
    pub const fn new(name: &'static str) -> Span {
        Span {
            dur: Histo::new(name),
            events: Counter::new(name),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.dur.name()
    }

    /// Record a completed scope from sim-time nanosecond endpoints.
    #[inline]
    pub fn record_ns(&self, enter_ns: u64, exit_ns: u64) {
        self.record_events(enter_ns, exit_ns, 1);
    }

    /// Record a completed scope plus the number of events it covered.
    #[inline]
    pub fn record_events(&self, enter_ns: u64, exit_ns: u64, events: u64) {
        self.events.add(events);
        self.dur.record(exit_ns.saturating_sub(enter_ns));
    }
}

#[cfg(all(test, feature = "on"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    static T_COUNT: Counter = Counter::new("test.count");
    static T_GAUGE: Gauge = Gauge::new("test.gauge");
    static T_HIST: Histo = Histo::new("test.hist");
    static T_SPAN: Span = Span::new("test.span");

    /// The mode is process-global and these tests flip it; serialize them.
    static MODE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn record_snapshot_roundtrip() {
        let _guard = MODE_LOCK.lock().unwrap();
        let ((), snap) = scoped(|| {
            set_mode(Mode::Full);
            T_COUNT.add(3);
            T_GAUGE.set(10);
            T_GAUGE.set(4);
            T_HIST.record(100);
            T_SPAN.record_events(1_000, 3_000, 5);
        });
        assert_eq!(snap.counters["test.count"], 3);
        assert_eq!(snap.counters["test.span"], 5);
        assert_eq!(snap.gauges["test.gauge"], GaugeSnap { last: 4, max: 10 });
        assert_eq!(snap.hists["test.hist"].count, 1);
        assert_eq!(snap.hists["test.span"].sum, 2_000);
    }

    #[test]
    fn mode_gates_recording() {
        let _guard = MODE_LOCK.lock().unwrap();
        let ((), snap) = scoped(|| {
            set_mode(Mode::Off);
            T_COUNT.inc();
            set_mode(Mode::Summary);
            T_COUNT.inc();
            T_HIST.record(1); // dropped: histograms need Full
            set_mode(Mode::Full);
            T_HIST.record(2);
        });
        set_mode(Mode::Summary);
        assert_eq!(snap.counters["test.count"], 1);
        assert_eq!(snap.hists["test.hist"].count, 1);
    }

    #[test]
    fn scoped_does_not_leak_into_caller() {
        let _guard = MODE_LOCK.lock().unwrap();
        set_mode(Mode::Full);
        reset();
        T_COUNT.add(7);
        let ((), inner) = scoped(|| T_COUNT.add(100));
        assert_eq!(inner.counters["test.count"], 100);
        let outer = snapshot();
        assert_eq!(outer.counters["test.count"], 7);
        merge(&inner);
        assert_eq!(snapshot().counters["test.count"], 107);
        reset();
    }
}
