//! Determinism regression test for the parallel trial runner: a sweep run
//! through worker threads must be **byte-for-byte identical** to the same
//! sweep run sequentially — same per-trial `SimStats`, same sniffer traces,
//! same result order, same telemetry snapshots.
//!
//! Each trial is a full Tor fetch (client → 3-hop circuit → web server) on a
//! fresh simulator, so this also pins down that the pooled-buffer data plane
//! and in-place cell crypto stay deterministic under concurrent execution.
//! The same fetch also pins the sharded engine's shard-count invariance.

use bench::runner::{run_trials, run_trials_traced, Trial};
use simnet::trace::Direction;
use simnet::{SimDuration, SimTime};
use tor_net::client::TerminalReq;
use tor_net::netbuild::{NetworkBuilder, TestClientNode};
use tor_net::ports::HTTP_PORT;
use tor_net::stream_frame::encode_frame;
use tor_net::{StreamTarget, TorEvent};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// Everything observable about one trial, in comparable form: the run's
/// `SimStats` plus the client's full access-link trace.
#[derive(Debug, PartialEq, Eq)]
struct TrialRecord {
    seed: u64,
    stats: (u64, u64, u64, u64),
    /// (time ns, outgoing?, bytes, conn) per sniffed transmission.
    trace: Vec<(u64, bool, u32, u64)>,
}

/// Fetch `kib` KiB through a fresh 3-hop circuit seeded with `seed`, with a
/// sniffer on the client's link. `shards == 0` is the serial engine,
/// `shards >= 1` the sharded one.
fn fetch_trial(seed: u64, kib: usize, shards: usize) -> TrialRecord {
    let file_len = kib << 10;
    let mut net = NetworkBuilder::new()
        .seed(seed)
        .middles(3)
        .exits(2)
        .shards(shards)
        .build();
    let page = vec![vec![0x5Au8; file_len]];
    let server = net.add_web_server("web", vec![("/page".to_string(), page)]);
    let client = net.add_client("alice");
    net.sim.enable_sniffer(client);
    net.sim.run_until(secs(2));
    let circ = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        let path = n
            .tor
            .select_path(ctx, TerminalReq::ExitTo(server, HTTP_PORT))
            .expect("exit path");
        n.tor.build_circuit(ctx, path).expect("circuit build")
    });
    net.sim.run_until(secs(4));
    let stream = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        assert!(n.tor.is_ready(circ), "circuit ready");
        n.tor
            .open_stream(ctx, circ, StreamTarget::Node(server, HTTP_PORT))
            .expect("stream")
    });
    net.sim.run_until(secs(5));
    net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        assert!(n.has_event(
            |e| matches!(e, TorEvent::StreamConnected(c, s) if *c == circ && *s == stream)
        ));
        n.tor
            .send_stream(ctx, circ, stream, &encode_frame(b"/page"));
    });
    let fetched = net
        .sim
        .step_until(SimDuration::from_secs(1), secs(300), |sim| {
            sim.node_ref::<TestClientNode>(client)
                .stream_len(circ, stream)
                >= file_len
        });
    assert!(fetched, "fetch stalled");
    let s = net.sim.stats();
    let trace = net
        .sim
        .sniffer(client)
        .events()
        .iter()
        .map(|e| (e.time.0, e.dir == Direction::Outgoing, e.bytes, e.conn.0))
        .collect();
    TrialRecord {
        seed,
        stats: (
            s.events,
            s.msgs_delivered,
            s.bytes_delivered,
            s.conns_opened,
        ),
        trace,
    }
}

fn jobs(seeds: &[u64]) -> Vec<Trial<TrialRecord>> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            // Stagger the fetch size so per-trial traces genuinely differ
            // (the client's access link sees the same cell schedule whatever
            // relays the seed picks).
            let kib = 32 + 8 * i;
            Box::new(move || fetch_trial(seed, kib, 0)) as Trial<TrialRecord>
        })
        .collect()
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let seeds = [11u64, 12, 13, 14];
    let sequential = run_trials(1, jobs(&seeds));
    let parallel = run_trials(3, jobs(&seeds));

    // Results come back in trial-index order regardless of scheduling.
    for (rec, &seed) in sequential.iter().zip(seeds.iter()) {
        assert_eq!(rec.seed, seed, "sequential results index-ordered");
    }
    for (rec, &seed) in parallel.iter().zip(seeds.iter()) {
        assert_eq!(rec.seed, seed, "parallel results index-ordered");
    }

    // And every observable — SimStats and the full sniffer trace — matches.
    assert_eq!(sequential, parallel);

    // Sanity: the trials did real work and differ across seeds, so the
    // equality above isn't vacuous.
    for rec in &sequential {
        assert!(rec.stats.0 > 200, "trial processed events: {:?}", rec.stats);
        assert!(!rec.trace.is_empty(), "sniffer saw traffic");
    }
    assert!(
        sequential[0].trace != sequential[1].trace,
        "different seeds produce different traces"
    );
}

#[test]
fn repeated_runs_are_reproducible() {
    // The same seed through the runner twice — including once on worker
    // threads — reproduces the exact same record.
    let a = run_trials(1, jobs(&[42]));
    let b = run_trials(2, jobs(&[42]));
    assert_eq!(a[0], b[0]);
}

#[test]
fn fetch_is_identical_on_one_shard_and_two() {
    // The sharded engine's outcome must not depend on how the nodes are
    // partitioned: the same fetch on 1 shard and on 2 yields the same
    // `SimStats` and the same client-link trace.
    let one = fetch_trial(31, 256, 1);
    let two = fetch_trial(31, 256, 2);
    assert!(one.stats.0 > 200, "trial processed events: {:?}", one.stats);
    assert!(!one.trace.is_empty(), "sniffer saw traffic");
    assert_eq!(one, two);
}

#[cfg(feature = "telemetry-on")]
#[test]
fn telemetry_snapshots_are_byte_identical_across_thread_counts() {
    // Full mode so histograms and spans are held to the same standard as
    // counters. The mode is process-global; no other test in this binary
    // depends on it.
    telemetry::set_mode(telemetry::Mode::Full);
    let seeds = [21u64, 22, 23];
    let seq = run_trials_traced(1, jobs(&seeds));
    let par = run_trials_traced(3, jobs(&seeds));
    for (i, ((ra, sa), (rb, sb))) in seq.iter().zip(par.iter()).enumerate() {
        assert_eq!(ra, rb, "trial {i} results match");
        let (mut ja, mut jb) = (String::new(), String::new());
        sa.write_json(&mut ja, 0);
        sb.write_json(&mut jb, 0);
        assert_eq!(ja, jb, "trial {i} snapshot bytes match");
        assert!(
            sa.counters.get("simnet.events").copied().unwrap_or(0) > 200,
            "trial {i} recorded real telemetry (not a vacuous equality)"
        );
        assert!(
            sa.hists.contains_key("simnet.run_until"),
            "full mode captured the run_until span"
        );
    }

    // The rendered export document of the merged totals is byte-identical
    // too, and passes the schema gate.
    let fold = |trials: &[(TrialRecord, telemetry::Snapshot)]| {
        let mut totals = telemetry::Snapshot::default();
        for (_, s) in trials {
            totals.merge(s);
        }
        telemetry::export::render("determinism", telemetry::Mode::Full, &totals)
    };
    let doc_seq = fold(&seq);
    let doc_par = fold(&par);
    assert_eq!(doc_seq, doc_par, "export bytes match across thread counts");
    telemetry::export::validate(&doc_seq).expect("export validates against the v1 schema");
}
