//! Chaos tests, two layers deep:
//!
//! 1. Randomized-operation chaos: many clients issuing seeded random
//!    operations against one healthy network — circuits built and torn
//!    down mid-use, streams to real and bogus targets, onion connections,
//!    cover cells.
//! 2. Hidden-service intro recovery: both intro relays crash and stay
//!    dead; the service must re-establish its intro set elsewhere.
//!
//! Beside them: the client's stream timeout (a BEGIN never answered) and
//! its HSDir retry (the descriptor circuit dies mid-fetch), which no fault
//! plan of the sweeps reaches.
//!
//! The assertions are survival properties: the simulator never panics,
//! traffic flows, failed circuits are rebuilt, and every run replays
//! byte-identically from its seed. Client recovery under the default fault
//! plan (crash, loss, partition) is `bench::chaos::run_chaos_trial`'s, tested
//! in `crates/bench/tests/chaos.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{ConnId, Ctx, FaultAction, FaultPlan, LinkFault, Node, NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;
use tor_net::client::TerminalReq;
use tor_net::dir::DirMsg;
use tor_net::netbuild::{NetworkBuilder, TestClientNode, TorNetwork};
use tor_net::ports::{DIR_PORT, HS_VIRTUAL_PORT, HTTP_PORT};
use tor_net::stream_frame::encode_frame;
use tor_net::{CircuitHandle, HiddenServiceHost, StreamTarget, TorEvent};

fn run_chaos(seed: u64) -> (u64, u64) {
    let mut net = NetworkBuilder::new()
        .seed(seed)
        .middles(8)
        .exits(3)
        .hsdirs(2)
        .build();
    let server = net.add_web_server("web", vec![("/".to_string(), vec![vec![0xAAu8; 40_000]])]);
    let service = {
        let hs = HiddenServiceHost::new([0x99; 32], 2, true);
        let mut node = TestClientNode::new(net.authority, net.authority_key).with_hs(hs);
        node.serve_bytes = Some(10_000);
        net.sim
            .add_node("service", simnet::Iface::datacenter(), Box::new(node))
    };
    let onion = HiddenServiceHost::new([0x99; 32], 0, true).onion_addr();
    let clients: Vec<_> = (0..8)
        .map(|i| net.add_client(&format!("chaos{i}")))
        .collect();
    net.sim.run_until(SimTime::ZERO + SimDuration::from_secs(6));

    let mut driver = StdRng::seed_from_u64(seed ^ 0xC4A05);
    let mut known: Vec<Vec<CircuitHandle>> = vec![Vec::new(); clients.len()];
    for step in 0..80u64 {
        for (ci, &c) in clients.iter().enumerate() {
            let op = driver.gen_range(0..6);
            let circs = known[ci].clone();
            let new_circ = net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
                match op {
                    0 => {
                        // Build a fresh circuit.
                        n.tor
                            .select_path(ctx, TerminalReq::ExitTo(server, HTTP_PORT))
                            .and_then(|p| n.tor.build_circuit(ctx, p))
                    }
                    1 => {
                        // Open a stream and request the page on a ready circuit.
                        for &h in circs.iter().rev() {
                            if n.tor.is_ready(h) {
                                if let Some(s) =
                                    n.tor
                                        .open_stream(ctx, h, StreamTarget::Node(server, HTTP_PORT))
                                {
                                    n.tor.send_stream(ctx, h, s, &encode_frame(b"/"));
                                }
                                break;
                            }
                        }
                        None
                    }
                    2 => {
                        // Tear down a random circuit, possibly mid-download.
                        if !circs.is_empty() {
                            let victim = circs[(step as usize + ci) % circs.len()];
                            n.tor.destroy_circuit(ctx, victim);
                        }
                        None
                    }
                    3 => {
                        // Cover cells on everything ready.
                        for &h in &circs {
                            if n.tor.is_ready(h) {
                                n.tor.send_drop(ctx, h);
                            }
                        }
                        None
                    }
                    4 => n.tor.connect_onion(ctx, onion),
                    _ => {
                        // Bogus target: a stream to a port nothing allows.
                        for &h in circs.iter().rev() {
                            if n.tor.is_ready(h) {
                                let _ = n.tor.open_stream(ctx, h, StreamTarget::Node(server, 2222));
                                break;
                            }
                        }
                        None
                    }
                }
            });
            if let Some(h) = new_circ {
                known[ci].push(h);
            }
        }
        let now = net.sim.now();
        net.sim.run_until(now + SimDuration::from_millis(700));
    }
    // Drain to quiescence-ish and collect outcome numbers.
    let now = net.sim.now();
    net.sim.run_until(now + SimDuration::from_secs(30));
    let stats = net.sim.stats();
    let delivered_to_clients: u64 = clients
        .iter()
        .map(|&c| {
            net.sim.with_node::<TestClientNode, _>(c, |n, _| {
                n.events
                    .iter()
                    .filter_map(|e| match e {
                        tor_net::TorEvent::StreamData(_, _, d) => Some(d.len() as u64),
                        _ => None,
                    })
                    .sum::<u64>()
            })
        })
        .sum();
    let _ = service;
    (stats.events, delivered_to_clients)
}

#[test]
fn chaos_run_survives_and_is_deterministic() {
    let (events_a, delivered_a) = run_chaos(2024);
    assert!(delivered_a > 200_000, "real data flowed: {delivered_a}");
    assert!(
        events_a > 50_000,
        "the run did substantial work: {events_a}"
    );
    let (events_b, delivered_b) = run_chaos(2024);
    assert_eq!(
        (events_a, delivered_a),
        (events_b, delivered_b),
        "deterministic"
    );
}

#[test]
fn chaos_other_seeds_also_survive() {
    for seed in [7u64, 99] {
        let (_, delivered) = run_chaos(seed);
        assert!(delivered > 100_000, "seed {seed}: {delivered}");
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// A web server holding a page at "/" and one recovery-enabled client
/// whose managed circuit to it is ready at 5 s; `hops` are the client and
/// the circuit's guard, middle and exit.
struct OneCircuit {
    client: NodeId,
    server: NodeId,
    circ: CircuitHandle,
    hops: [NodeId; 4],
}

fn one_circuit(seed: u64, page: Vec<u8>) -> (TorNetwork, OneCircuit) {
    let mut net = NetworkBuilder::new()
        .seed(seed)
        .middles(8)
        .exits(3)
        .hsdirs(2)
        .build();
    let server = net.add_web_server("web", vec![("/".to_string(), vec![page])]);
    let client = net.add_client("victim");
    net.sim
        .with_node::<TestClientNode, _>(client, |n, _| n.tor.enable_recovery());
    net.sim.run_until(secs(3));
    let circ = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        n.tor
            .build_circuit_managed(ctx, TerminalReq::ExitTo(server, HTTP_PORT))
            .expect("circuit")
    });
    net.sim.run_until(secs(5));
    let path = net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        assert!(n.tor.is_ready(circ), "built before the faults");
        n.tor.circuit_path(circ)
    });
    let relay = |i: usize| {
        net.relays
            .iter()
            .find(|(_, f)| *f == path[i])
            .expect("relay")
            .0
    };
    let hops = [client, relay(0), relay(1), relay(2)];
    (
        net,
        OneCircuit {
            client,
            server,
            circ,
            hops,
        },
    )
}

// ---------------------------------------------------------------------------
// Corruption on a circuit's three hops: the client fetches a page in a loop
// while every link of its first circuit flips a byte in 2% of the cells for
// ten seconds. An altered cell fails the per-hop digest (or no longer
// parses as a cell) and is refused; none may reach the application.
// Whichever end refuses a cell tears the circuit down, so a stalled fetch
// ends in `CircuitRebuilt` and starts over on the new circuit.
// ---------------------------------------------------------------------------

#[derive(Debug, Default, PartialEq, Eq)]
struct CorruptRun {
    events: u64,
    corrupted: u64,
    /// Application bytes received, every one checked against the page.
    checked: u64,
    pages: u64,
    rebuilds: u64,
}

fn run_corrupt_fetch(seed: u64) -> CorruptRun {
    let page: Vec<u8> = (0..100_000u32).map(|i| (i * 31 % 251) as u8).collect();
    // The server sends the page as one frame; the stream carries exactly this.
    let served = encode_frame(&page);
    let (mut net, one) = one_circuit(seed, page);
    let (client, mut circ) = (one.client, one.circ);
    // Never the exit–server link, which carries plain stream bytes no
    // digest covers.
    let mut plan = FaultPlan::new();
    for pair in one.hops.windows(2) {
        plan = plan
            .link(secs(5), pair[0], pair[1], LinkFault::corrupt_pct(2.0))
            .link_clear(secs(15), pair[0], pair[1]);
    }
    net.sim.install_faults(plan);

    let mut run = CorruptRun::default();
    let mut received: BTreeMap<(usize, u16), usize> = BTreeMap::new();
    let mut in_flight = false;
    while net.sim.now() < secs(40) {
        let now = net.sim.now();
        net.sim.run_until(now + SimDuration::from_millis(500));
        let events = net
            .sim
            .with_node::<TestClientNode, _>(client, |n, _| n.take_events());
        for ev in events {
            match ev {
                TorEvent::StreamData(h, s, data) => {
                    let at = received.entry((h.0, s)).or_default();
                    assert_eq!(
                        served.get(*at..*at + data.len()),
                        Some(&data[..]),
                        "circuit {} stream {s}: bytes {at}.. are not the page's",
                        h.0
                    );
                    *at += data.len();
                    run.checked += data.len() as u64;
                    if *at == served.len() {
                        run.pages += 1;
                        in_flight = false;
                    }
                }
                TorEvent::CircuitRebuilt(old, new) if old == circ => {
                    run.rebuilds += 1;
                    circ = new;
                    in_flight = false;
                }
                _ => {}
            }
        }
        if !in_flight {
            in_flight = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
                let s = n
                    .tor
                    .open_stream(ctx, circ, StreamTarget::Node(one.server, HTTP_PORT));
                if let Some(s) = s {
                    n.tor.send_stream(ctx, circ, s, &encode_frame(b"/"));
                }
                s.is_some()
            });
        }
    }
    run.events = net.sim.stats().events;
    run.corrupted = net.sim.fault_stats().msgs_corrupted;
    run
}

#[test]
fn corrupted_cells_never_reach_the_application() {
    let a = run_corrupt_fetch(606);
    assert!(a.corrupted > 0, "cells were corrupted: {a:?}");
    assert!(a.pages > 0, "whole pages still arrive: {a:?}");
    assert!(a.rebuilds > 0, "a refused cell's circuit is rebuilt: {a:?}");
    let b = run_corrupt_fetch(606);
    assert_eq!(a, b, "corruption runs replay deterministically");
}

/// A rebuild whose first attempt fails: the guard crashes while the client
/// is cut off, so the replacement cannot be built until the heal. The
/// owner holds only the original handle, and the one `CircuitRebuilt`
/// must name it.
#[test]
fn rebuild_after_a_failed_attempt_names_the_original_circuit() {
    let (mut net, one) = one_circuit(31, vec![1u8; 1000]);
    let (client, circ) = (one.client, one.circ);
    let plan = FaultPlan::new().partition(secs(5), vec![client]);
    net.sim.install_faults(plan.heal(secs(20)));
    net.sim
        .inject_fault(secs(6), FaultAction::Crash(one.hops[1]));
    net.sim.run_until(secs(40));
    let events = net
        .sim
        .with_node::<TestClientNode, _>(client, |n, _| n.take_events());
    let rebuilt: Vec<_> = events
        .iter()
        .filter(|e| matches!(e, TorEvent::CircuitRebuilt(..)))
        .collect();
    assert!(
        matches!(rebuilt[..], [TorEvent::CircuitRebuilt(old, _)] if *old == circ),
        "one rebuild, naming the circuit the owner holds: {rebuilt:?}"
    );
}

/// The exit's refusal: one forward cell is lost on the client–guard link,
/// so every later forward cell reaches the exit under the wrong keystream.
/// The exit tears the circuit down and the client hears of it.
#[test]
fn exit_tears_down_a_circuit_it_cannot_recognize() {
    let (mut net, one) = one_circuit(13, vec![1u8; 1000]);
    let (client, guard, circ) = (one.client, one.hops[1], one.circ);
    let plan = FaultPlan::new().link(secs(5), client, guard, LinkFault::loss_pct(100.0));
    net.sim
        .install_faults(plan.link_clear(secs(6), client, guard));
    for until in [5_100, 7_000] {
        net.sim
            .run_until(SimTime::ZERO + SimDuration::from_millis(until));
        // The first BEGIN is lost; the second reaches the exit one
        // keystream position behind.
        net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
            let s = n
                .tor
                .open_stream(ctx, circ, StreamTarget::Node(one.server, HTTP_PORT));
            assert!(s.is_some(), "the circuit is still ready");
        });
    }
    net.sim.run_until(secs(9));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        assert!(
            n.has_event(|e| matches!(e, TorEvent::CircuitClosed(c) if *c == circ)),
            "the client hears the exit's DESTROY"
        );
        assert!(!n.tor.is_ready(circ));
    });
}

// ---------------------------------------------------------------------------
// Two recovery paths of the client that no fault plan above reaches: a
// stream whose BEGIN is never answered, and an HSDir circuit that dies while
// the descriptor fetch is in flight.
// ---------------------------------------------------------------------------

#[test]
fn unanswered_begin_ends_the_stream_after_ten_seconds() {
    let ((), recorded) = telemetry::scoped(|| {
        let (mut net, one) = one_circuit(21, vec![1u8; 1000]);
        let (client, guard, circ) = (one.client, one.hops[1], one.circ);
        // From 5 s on the client's link to its guard drops everything, so
        // the BEGIN below never reaches the exit.
        let plan = FaultPlan::new().link(secs(5), client, guard, LinkFault::loss_pct(100.0));
        net.sim.install_faults(plan);
        net.sim
            .run_until(SimTime::ZERO + SimDuration::from_millis(5_100));
        let opened = net.sim.now();
        let stream = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
            n.tor
                .open_stream(ctx, circ, StreamTarget::Node(one.server, HTTP_PORT))
                .expect("the circuit is ready")
        });
        let ended = |net: &TorNetwork| {
            net.sim.node_ref::<TestClientNode>(client).has_event(
                |e| matches!(e, TorEvent::StreamEnded(c, s) if (*c, *s) == (circ, stream)),
            )
        };
        net.sim.run_until(opened + SimDuration::from_millis(9_900));
        assert!(!ended(&net), "the stream waits for its CONNECTED");
        net.sim.run_until(opened + SimDuration::from_millis(10_100));
        assert!(ended(&net), "the stream timeout ends it at 10 s");
    });
    assert_eq!(
        recorded.counters.get("tornet.client.stream_timeouts"),
        Some(&1)
    );
}

#[test]
fn hsdir_circuit_killed_mid_fetch_is_retried() {
    let (rendezvous_ready, recorded) = telemetry::scoped(|| {
        let mut net = NetworkBuilder::new().seed(32).middles(10).hsdirs(2).build();
        let service = {
            let hs = HiddenServiceHost::new([0x78; 32], 2, true);
            let node = TestClientNode::new(net.authority, net.authority_key).with_hs(hs);
            net.sim
                .add_node("service", simnet::Iface::datacenter(), Box::new(node))
        };
        let client = net.add_client("client");
        net.sim
            .with_node::<TestClientNode, _>(client, |n, _| n.tor.enable_recovery());
        net.sim.run_until(secs(6));
        let onion = net
            .sim
            .node_ref::<TestClientNode>(service)
            .hs
            .as_ref()
            .map(|hs| hs.onion_addr())
            .expect("service");
        // `connect_onion` builds the rendezvous circuit, then the HSDir one.
        let (rendezvous, rendezvous_path, hsdir_path) =
            net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
                let rendezvous = n.tor.connect_onion(ctx, onion).expect("onion connection");
                let hsdir = CircuitHandle(rendezvous.0 + 1);
                (
                    rendezvous,
                    n.tor.circuit_path(rendezvous),
                    n.tor.circuit_path(hsdir),
                )
            });
        let hsdir = CircuitHandle(rendezvous.0 + 1);
        assert_eq!(hsdir_path.len(), 3, "the HSDir circuit has three hops");
        let middle = hsdir_path[1];
        assert!(
            !rendezvous_path.contains(&middle),
            "the crash below spares the rendezvous circuit"
        );
        // The fetch goes out the moment the HSDir circuit is ready; crash its
        // middle relay while the request is on its way.
        let up = net
            .sim
            .step_until(SimDuration::from_millis(5), secs(12), |sim| {
                sim.node_ref::<TestClientNode>(client).tor.is_ready(hsdir)
            });
        assert!(up, "the HSDir circuit came up");
        let middle = net
            .relays
            .iter()
            .find(|(_, f)| *f == middle)
            .map(|(id, _)| *id)
            .expect("relay");
        let now = net.sim.now();
        net.sim.inject_fault(now, FaultAction::Crash(middle));
        net.sim.run_until(secs(30));
        let n = net.sim.node_ref::<TestClientNode>(client);
        assert!(!n.tor.is_ready(hsdir), "the first HSDir circuit is gone");
        n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == rendezvous))
    });
    assert!(
        rendezvous_ready,
        "the rendezvous completes through the retry"
    );
    assert_eq!(recorded.counters.get("tornet.client.hs_retries"), Some(&1));
}

// ---------------------------------------------------------------------------
// Hidden-service intro recovery: a service must re-establish intro circuits
// that die *after* `start()`. Crash both intro relays and leave them dead;
// the service has to pick fresh relays, republish its descriptor, and serve
// a client that only shows up after the crash.
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq, Eq)]
struct IntroCrashRun {
    events: u64,
    rebuilds: u64,
    echoed: Vec<u8>,
}

fn run_intro_crash(seed: u64) -> IntroCrashRun {
    let mut net = NetworkBuilder::new()
        .seed(seed)
        .middles(10)
        .hsdirs(2)
        .build();
    let service = {
        let hs = HiddenServiceHost::new([0x77; 32], 2, true);
        let node = TestClientNode::new(net.authority, net.authority_key).with_hs(hs);
        net.sim
            .add_node("service", simnet::Iface::datacenter(), Box::new(node))
    };
    net.sim.run_until(secs(6));
    let (onion, old_intros) = net.sim.with_node::<TestClientNode, _>(service, |n, _| {
        let hs = n.hs.as_ref().unwrap();
        assert!(hs.is_published(), "service published before the crash");
        assert_eq!(hs.intro_established(), 2, "both intro circuits up");
        (hs.onion_addr(), hs.intro_points())
    });
    // Crash BOTH intro relays. No restart: the replacements must be relays
    // the service was not previously using.
    for fp in &old_intros {
        let id = net
            .relays
            .iter()
            .find(|(_, f)| f == fp)
            .map(|(id, _)| *id)
            .expect("intro relay maps to a simnet node");
        net.sim.inject_fault(secs(7), FaultAction::Crash(id));
    }
    net.sim.run_until(secs(14));
    let (rebuilds, new_intros, established) =
        net.sim.with_node::<TestClientNode, _>(service, |n, _| {
            let hs = n.hs.as_ref().unwrap();
            (hs.intro_rebuilds, hs.intro_points(), hs.intro_established())
        });
    assert!(rebuilds >= 2, "both intro circuits rebuilt: {rebuilds}");
    assert_eq!(established, 2, "intro set fully re-established");
    for fp in &new_intros {
        assert!(
            !old_intros.contains(fp),
            "replacement intro points avoid the dead relays"
        );
    }
    // A client that only appears after the crash can only learn the *new*
    // intro points from the republished descriptor — if the republish didn't
    // happen, the rendezvous below can never complete.
    let client = net.add_client("late");
    net.sim
        .with_node::<TestClientNode, _>(service, |n, _| n.echo = true);
    net.sim.run_until(secs(18));
    let rendezvous = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        n.tor
            .connect_onion(ctx, onion)
            .expect("onion connection after the crash")
    });
    net.sim.run_until(secs(26));
    let stream = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        assert!(
            n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == rendezvous)),
            "rendezvous through a rebuilt intro point; events: {:?}",
            n.events
        );
        n.tor
            .open_stream(ctx, rendezvous, StreamTarget::Hs(HS_VIRTUAL_PORT))
            .expect("stream on the rendezvous circuit")
    });
    net.sim.run_until(secs(30));
    net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        n.tor.send_stream(ctx, rendezvous, stream, b"still there?");
    });
    net.sim.run_until(secs(36));
    let echoed = net
        .sim
        .with_node::<TestClientNode, _>(client, |n, _| n.stream_bytes(rendezvous, stream));
    IntroCrashRun {
        events: net.sim.stats().events,
        rebuilds,
        echoed,
    }
}

#[test]
fn hs_intro_circuits_rebuild_after_relay_crash() {
    let a = run_intro_crash(808);
    assert_eq!(
        a.echoed, b"still there?",
        "data flows through the recovered service"
    );
    // Same seed -> byte-identical recovery.
    let b = run_intro_crash(808);
    assert_eq!(a, b, "intro recovery replays deterministically");
}

/// A node that asks the authority's DIR port for the consensus once and
/// keeps the answer.
struct ConsensusProbe {
    authority: NodeId,
    answer: Option<DirMsg>,
}

impl Node for ConsensusProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let conn = ctx.connect(self.authority, DIR_PORT);
        ctx.send(conn, DirMsg::FetchConsensus.encode());
    }
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, msg: Vec<u8>) {
        self.answer = DirMsg::decode(&msg).ok();
    }
}

#[test]
fn authority_out_of_signatures_serves_not_ready() {
    // The authority's signer holds 16 one-time signatures and every start
    // signs one consensus: the 16th restart finds it exhausted. The
    // authority must refuse to sign, not take the simulation down.
    let mut net = NetworkBuilder::new().seed(3).build();
    let mut plan = FaultPlan::new();
    for k in 0..17 {
        let at = SimTime::ZERO + SimDuration::from_millis(1_000 + 1_000 * k);
        plan = plan
            .crash(at, net.authority)
            .restart(at + SimDuration::from_millis(100), net.authority);
    }
    net.sim.install_faults(plan);
    net.sim.run_until(secs(19));
    let probe = ConsensusProbe {
        authority: net.authority,
        answer: None,
    };
    let probe = net
        .sim
        .add_node("probe", simnet::Iface::datacenter(), Box::new(probe));
    net.sim.run_until(secs(21));
    let answer = &net.sim.node_ref::<ConsensusProbe>(probe).answer;
    assert!(
        matches!(answer, Some(DirMsg::ConsensusResp(b)) if b.is_empty()),
        "an exhausted authority answers \"not ready\", got {answer:?}"
    );
}
