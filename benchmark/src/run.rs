//! One run of one workload: the untraced pass that yields the end-to-end
//! metrics, or the traced pass that yields the per-layer ones.

use crate::alloc;
use crate::host::{host_ref_ms, peak_rss_mib};
use crate::json::Value;
use crate::metrics::{unit_of, PER_LAYER};
use crate::probes;
use crate::stats::{floor, median, sliced_floor, summarize, tail, Summary};
use crate::trace::{self, Tracer};
use crate::workloads::{Rep, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{Mode, Snapshot};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep starting reps for.
    pub seconds: f64,
    /// Traced pass instead of the untraced one.
    pub trace: bool,
    /// Shrunken work for the smoke test.
    pub smoke: bool,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload that ran.
    pub workload: Workload,
    /// Operations attempted over all reps.
    pub attempted: u64,
    /// Operations failed over all reps.
    pub failed: u64,
    /// The reported metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// The per-rep samples behind the host-time metrics.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// The pinned work of one rep: events, messages, bytes, connections.
    pub work: [u64; 4],
    /// Payload bytes one rep delivers.
    pub payload_bytes: u64,
    /// Median of the memory-walk reference kernel, ms.
    pub host_ref_ms: f64,
}

/// Reps whose simulated outcome differs from rep 0's did not do the same
/// work: every operation of such a rep counts as failed.
fn fold<'a>(first: &Rep, reps: impl Iterator<Item = &'a Rep>) -> (u64, u64) {
    reps.fold((0, 0), |(att, fail), r| {
        let same = r.work == first.work && r.sim_s.to_bits() == first.sim_s.to_bits();
        (
            att + r.attempted,
            fail + if same { r.failed } else { r.attempted },
        )
    })
}

/// The reported `wall_s` of a run's reps.
fn wall_floor(reps: &[Rep]) -> f64 {
    sliced_floor(&reps.iter().map(|r| &r.slices[..]).collect::<Vec<_>>())
}

/// Goodput is the rep's payload over the reported `wall_s`, so the two
/// always describe the same reps.
pub fn goodput_mib_per_s(payload_bytes: f64, wall_s: f64) -> f64 {
    payload_bytes / (1 << 20) as f64 / wall_s.max(1e-12)
}

/// Share of the attempted operations that did not fail.
pub fn success_ratio(attempted: u64, failed: u64) -> f64 {
    1.0 - failed as f64 / attempted.max(1) as f64
}

/// Samples of the reference kernel, taken between reps but at most twice a
/// second: a sample is a child process and costs about 13 ms, which before
/// every 25 ms `bento_session` rep would take a third of the run.
#[derive(Default)]
struct HostRef {
    last: Option<Instant>,
    ms: Vec<f64>,
}

impl HostRef {
    fn sample_if_due(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed() >= Duration::from_millis(500))
        {
            self.ms.push(host_ref_ms());
            self.last = Some(Instant::now());
        }
    }
}

/// Whether a run that has `seconds` in all has room for another rep: not
/// if a rep as long as the longest so far would end past the deadline. A run
/// therefore ends on time, which the driver's budget for all its runs needs.
fn room_for_a_rep(start: Instant, longest_rep: Duration, seconds: f64) -> bool {
    (start.elapsed() + longest_rep).as_secs_f64() < seconds
}

/// The untraced pass: telemetry off, no spans, reps until the time is up.
fn untraced(spec: &RunSpec) -> RunResult {
    telemetry::set_mode(Mode::Off);
    let start = Instant::now();
    let prepared = spec.workload.prepare(spec.seed, spec.smoke);
    let tracer = Arc::new(Tracer::new(false));
    let (mut reps, mut refs) = (Vec::new(), HostRef::default());
    let (mut longest_rep, mut peak_rss) = (Duration::ZERO, 0.0);
    loop {
        refs.sample_if_due();
        let t = Instant::now();
        reps.push(prepared.rep(reps.len() as u32, &tracer));
        longest_rep = longest_rep.max(t.elapsed());
        if reps.len() == 1 {
            // The high-water mark of a fresh process after its inputs and
            // one rep: the same allocations in the same order on every run.
            // Read at the end of the run it would also hold what the
            // allocator kept back from earlier reps, which depends on the
            // heap's history (`bulk_fetch`: 68.7 MiB after the first rep,
            // 84.7 from the fourth on, and in the driver's runs sometimes
            // 16 MiB off that).
            peak_rss = peak_rss_mib();
        }
        if !room_for_a_rep(start, longest_rep, spec.seconds) {
            break;
        }
    }
    let (attempted, failed) = fold(&reps[0], reps.iter());
    let wall: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let wall_s = wall_floor(&reps);
    RunResult {
        workload: spec.workload,
        attempted,
        failed,
        metrics: vec![
            ("wall_s", wall_s),
            (
                "goodput_mib_per_s",
                goodput_mib_per_s(reps[0].payload_bytes as f64, wall_s),
            ),
            ("sim_s", reps[0].sim_s),
            ("setup_s", floor(&setup)),
            ("peak_rss_mib", peak_rss),
            ("success_ratio", success_ratio(attempted, failed)),
        ],
        samples: vec![("wall_s", wall), ("setup_s", setup)],
        work: reps[0].work,
        payload_bytes: reps[0].payload_bytes,
        host_ref_ms: median(&refs.ms),
    }
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

/// The traced pass: traced reps (telemetry full, spans on, allocations
/// counted) alternate with untraced ones so the tracing overhead is read
/// off the same minute of host weather; then the workload's probes run.
fn traced(spec: &RunSpec, out_dir: &Path) -> RunResult {
    let start = Instant::now();
    let prepared = spec.workload.prepare(spec.seed, spec.smoke);
    let tracer = Arc::new(Tracer::new(true));
    let silent = Arc::new(Tracer::new(false));
    let (mut on, mut off, mut refs) = (Vec::new(), Vec::new(), HostRef::default());
    let mut longest_pair = Duration::ZERO;
    // Half the time goes to reps, the rest is left for the probes. Counts
    // are identical across reps, so the last traced rep's are kept.
    let (snap, allocs, alloc_bytes) = loop {
        refs.sample_if_due();
        let t = Instant::now();
        telemetry::set_mode(Mode::Full);
        telemetry::reset();
        let before = alloc::read();
        on.push(prepared.rep(on.len() as u32, &tracer));
        let after = alloc::read();
        let snap: Snapshot = telemetry::take_snapshot();
        telemetry::set_mode(Mode::Off);
        off.push(prepared.rep(off.len() as u32, &silent));
        longest_pair = longest_pair.max(t.elapsed());
        if !room_for_a_rep(start, longest_pair, spec.seconds / 2.0) {
            break (snap, after.0 - before.0, after.1 - before.1);
        }
    };
    let spans = tracer.spans();
    let trace_path = out_dir.join(format!("TRACE_{}.json", spec.workload.name()));
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            &trace_path,
            trace::to_json(spec.workload.name(), &spans).to_pretty(),
        )
    }) {
        eprintln!("benchmark: cannot write {}: {e}", trace_path.display());
    }

    let (attempted, failed) = fold(&on[0], on.iter().chain(&off));
    let wall_off: Vec<f64> = off.iter().map(|r| r.wall_s).collect();
    let wall_s = wall_floor(&off);

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.extend(probes::run_for(
        spec.workload,
        spec.seed,
        spec.smoke,
        wall_s,
    ));
    values.extend(on[0].derived.iter().copied());

    // Counts: one traced rep's telemetry (identical across reps).
    let cells_in = counter(&snap, "tor.cells_in");
    let events = counter(&snap, "simnet.events");
    let conns = counter(&snap, "simnet.conns_opened");
    let pool_hits = counter(&snap, "simnet.pool.hits");
    let pool_total = pool_hits + counter(&snap, "simnet.pool.misses");
    let per = |ns: f64, n: f64| if n > 0.0 { ns / n } else { 0.0 };
    values.extend([
        (
            "onion-crypto.ntor_handshakes",
            counter(&snap, "ntor.server_respond"),
        ),
        ("tor-net.cells_in", cells_in),
        (
            "tor-net.cells_forwarded",
            counter(&snap, "tor.cells_forwarded"),
        ),
        (
            "tor-net.circuits_built",
            counter(&snap, "tor.circuits_built"),
        ),
        (
            "tor-net.batch_cells_p50",
            snap.hists.get("relay.batch_cells").map_or(0, |h| h.p50) as f64,
        ),
        ("tor-net.ns_per_cell_hop", per(wall_s * 1e9, cells_in)),
        ("simnet.events", events),
        (
            "simnet.msgs_delivered",
            counter(&snap, "simnet.msgs_delivered"),
        ),
        ("simnet.ns_per_event", per(wall_s * 1e9, events)),
        ("simnet.pool_hit_ratio", per(pool_hits, pool_total)),
        (
            "simnet.queue_depth_max",
            snap.gauges.get("simnet.queue_depth").map_or(0, |g| g.max) as f64,
        ),
        ("simnet.ns_per_conn", per(wall_s * 1e9, conns)),
        (
            "conclave.sealed_bytes",
            counter(&snap, "conclave.sealed_bytes"),
        ),
        ("conclave.epc_pages_in", counter(&snap, "epc.pages_in")),
        ("sandbox.net_allowed", counter(&snap, "sandbox.net_allowed")),
        ("core.invocations", counter(&snap, "bento.invocations")),
    ]);

    // Span times: mean host self time per span, over the traced reps.
    let totals = trace::totals(&spans);
    for (metric, span) in [
        ("core.connect_box_us", "connect_box"),
        ("core.attest_phase_us", "attest"),
        ("core.upload_us", "upload"),
        ("core.invoke_us", "invoke"),
        ("core.shutdown_us", "shutdown"),
    ] {
        let t = totals.get(span).copied().unwrap_or_default();
        values.insert(metric, per(t.host_self_ns as f64 / 1e3, t.count as f64));
    }

    // Attribution (README, "Attribution"): operation counts from telemetry
    // times the probes' unit costs, as a share of the rep's wall (every
    // workload's reps run on one thread, so wall is busy time).
    let forwarded = counter(&snap, "tor.cells_forwarded");
    let layer_ops = counter(&snap, "tor.crypto_bytes") / tor_net::cell::PAYLOAD_LEN as f64;
    // Cells a relay sealed or recognised itself: one end of an exit circuit.
    let relay_ended = (counter(&snap, "tor.cells_out") - forwarded) + (cells_in - forwarded);
    // Forwarded cells those do not explain crossed six relays between two
    // clients: rendezvous circuits.
    let rendezvous = (forwarded - 2.0 * relay_ended).max(0.0) / 6.0;
    let unit_ns = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let digest_ns = 2.0 * (relay_ended + rendezvous) * unit_ns("onion-crypto.digest_ns_per_cell");
    let keystream_ns = 2.0 * layer_ops * unit_ns("onion-crypto.keystream_ns_per_cell");
    let busy_ns = wall_s * 1e9;
    values.insert(
        "onion-crypto.symmetric_share_pct",
        (digest_ns + keystream_ns) / busy_ns * 100.0,
    );
    values.insert("onion-crypto.digest_share_pct", digest_ns / busy_ns * 100.0);

    let (_, tail_s) = tail(&wall_off);
    values.extend([
        ("harness.allocs_per_cell", per(allocs as f64, cells_in)),
        ("harness.alloc_bytes_per_rep", alloc_bytes as f64),
        (
            "harness.trace_overhead_pct",
            (wall_floor(&on) / wall_s - 1.0) * 100.0,
        ),
        ("harness.wall_tail_s", tail_s),
        ("harness.wall_iqr_pct", summarize(&wall_off).iqr_pct()),
        ("harness.host_ref_ms", median(&refs.ms)),
        ("harness.reps", (on.len() + off.len()) as f64),
        (
            "harness.fail_ratio",
            failed as f64 / attempted.max(1) as f64,
        ),
    ]);
    RunResult {
        workload: spec.workload,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|(name, _, _)| (*name, values.get(name).copied().unwrap_or(0.0)))
            .collect(),
        samples: vec![("wall_s", wall_off)],
        work: on[0].work,
        payload_bytes: on[0].payload_bytes,
        host_ref_ms: median(&refs.ms),
    }
}

/// Run one pass of one workload.
pub fn run(spec: &RunSpec, out_dir: &Path) -> RunResult {
    if spec.trace {
        traced(spec, out_dir)
    } else {
        untraced(spec)
    }
}

impl RunResult {
    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Value::obj();
        for (name, value) in &self.metrics {
            let mut m = Value::obj();
            m.push("value", *value)
                .push("unit", unit_of(name).unwrap_or(""));
            metrics.push(name, m);
        }
        let mut line = Value::obj();
        line.push("correct", self.failed == 0)
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("metrics", metrics);
        line.to_line()
    }

    /// Everything about the run, for `RESULT.json`.
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.push("workload", self.workload.name())
            .push("attempted", self.attempted)
            .push("failed", self.failed)
            .push("host_ref_ms", self.host_ref_ms)
            .push("payload_bytes", self.payload_bytes)
            .push(
                "work",
                self.work
                    .iter()
                    .map(|w| Value::from(*w))
                    .collect::<Vec<_>>(),
            );
        let mut metrics = Value::obj();
        for (name, value) in &self.metrics {
            metrics.push(name, *value);
        }
        v.push("metrics", metrics);
        let mut samples = Value::obj();
        for (name, xs) in &self.samples {
            samples.push(name, xs.iter().map(|x| Value::from(*x)).collect::<Vec<_>>());
        }
        v.push("samples", samples);
        v
    }
}

/// One line on the samples behind a reported value: median, quartiles, the
/// highest percentile with at least ten samples beyond it, and the count.
pub fn describe(name: &str, xs: &[f64]) -> String {
    let (s, (pct, tail)): (Summary, _) = (summarize(xs), tail(xs));
    format!(
        "{name} reps: median {:.6}, q1 {:.6}, q3 {:.6} (IQR {:.2}%), p{pct} {tail:.6}, n {}",
        s.median,
        s.q1,
        s.q3,
        s.iqr_pct(),
        s.n
    )
}
