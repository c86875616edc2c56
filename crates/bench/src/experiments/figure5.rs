//! **Figure 5** — "Per client bandwidth with and without our LoadBalancer
//! function": 13 clients arriving ~1 s apart, each downloading a 10 MB
//! file from the hidden service; without the balancer they share one
//! server, with it replicas spin up (at most 2 clients each, up to 4
//! machines) and per-client throughput stays high.
//!
//! `cargo run -p bench --release -- figure5` — exits non-zero unless every
//! client completes in both arms, more than one machine served, and the
//! balancer cut mean completion time to at most 0.85 of the single
//! server's (see the end of `run`).

use super::secs;
use bench::runner::{run_sweep, Trial};
use bench::{export_telemetry, require_shape, say, write_csv, Opts};
use bento::protocol::FunctionSpec;
use bento::testnet::BentoNetwork;
use bento::{BentoBoxNode, MiddleboxPolicy};
use bento_functions::load_balancer::{lb_manifest, LbParams, ServiceParams};
use bento_functions::standard_registry;
use simnet::trace::Direction;
use simnet::{Iface, NodeId, SimDuration, SimTime, TimeSeries};
use tor_net::netbuild::TestClientNode;
use tor_net::ports::{BENTO_PORT, HS_VIRTUAL_PORT};
use tor_net::{HiddenServiceHost, StreamTarget, TorEvent};

const HORIZON_S: u64 = 420;
/// Clients, arriving one second apart: the paper's 13.
const CLIENTS: usize = 13;
/// Each client's download: the paper's 10 MB file.
const FILE_LEN: u64 = 10 << 20;
/// Clients start arriving at this simulated second.
const T_START: u64 = 22;
/// Clients a replica serves before the balancer starts another (the
/// LoadBalancer's watermark, DESIGN.md §4 ablation c).
const WATERMARK: u32 = 2;
const SEED: u64 = 9;

/// The hidden-service host machine's access link: the contended resource
/// (calibrated so 13 sharing clients land in the paper's tens-of-KB/s
/// regime while a lone client can reach several hundred KB/s).
fn service_iface() -> Iface {
    Iface::symmetric(SimDuration::from_millis(10), 1_800_000)
}

/// Relays are generously provisioned so the service uplink is the
/// bottleneck, as in the paper's EC2 deployment.
fn relay_iface() -> Iface {
    Iface::symmetric(SimDuration::from_millis(10), 12_000_000)
}

struct RunResult {
    /// Per-client (arrival-indexed) per-second download KB/s.
    series: Vec<Vec<(f64, f64)>>,
    /// Per-client completion time (s since experiment start), if finished.
    completion: Vec<Option<f64>>,
    /// Machines hosting the service at the end of the run.
    machines: usize,
}

/// Drive [`CLIENTS`] onion downloads and sample per-client ingress.
fn run_clients(bn: &mut BentoNetwork, onion: tor_net::OnionAddr) -> RunResult {
    let mut clients = Vec::new();
    for i in 0..CLIENTS {
        let c = bn.net.add_client(&format!("client{i}"));
        bn.net.sim.enable_sniffer(c);
        clients.push(c);
    }
    bn.net.sim.run_until(secs(T_START));
    // Clients arrive ~1 s apart; each connects, opens a stream, requests.
    let mut rend: [Option<tor_net::CircuitHandle>; CLIENTS] = [None; CLIENTS];
    let mut streams: [Option<u16>; CLIENTS] = [None; CLIENTS];
    let mut requested = [false; CLIENTS];
    let mut started_at = [SimTime::ZERO; CLIENTS];
    let t0 = secs(T_START);
    for (i, &c) in clients.iter().enumerate() {
        bn.net.sim.run_until(secs(T_START + i as u64));
        rend[i] = bn
            .net
            .sim
            .with_node::<TestClientNode, _>(c, |n, ctx| n.tor.connect_onion(ctx, onion));
        started_at[i] = bn.net.sim.now();
    }
    // Event loop: poll for rendezvous completion, open streams, request,
    // and keep running to the horizon.
    let deadline = secs(T_START + HORIZON_S);
    while bn.net.sim.now() < deadline {
        let now = bn.net.sim.now();
        bn.net.sim.run_until(now + SimDuration::from_millis(500));
        for (i, &c) in clients.iter().enumerate() {
            let Some(r) = rend[i] else { continue };
            if streams[i].is_none() {
                let ready = bn.net.sim.with_node::<TestClientNode, _>(c, |n, _| {
                    n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == r))
                });
                if ready {
                    streams[i] = bn.net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
                        n.tor.open_stream(ctx, r, StreamTarget::Hs(HS_VIRTUAL_PORT))
                    });
                } else if bn.net.sim.now().since(started_at[i]).as_secs_f64() > 30.0 {
                    // Like the real Tor client: retry a stalled rendezvous
                    // with a fresh rendezvous point and intro circuit.
                    let nr = bn.net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
                        n.tor.connect_onion(ctx, onion)
                    });
                    rend[i] = nr;
                    started_at[i] = bn.net.sim.now();
                }
            } else if !requested[i] {
                let s = streams[i].unwrap();
                let connected = bn.net.sim.with_node::<TestClientNode, _>(c, |n, _| {
                    n.has_event(
                        |e| matches!(e, TorEvent::StreamConnected(h, sid) if *h == r && *sid == s),
                    )
                });
                if connected {
                    bn.net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
                        n.tor.send_stream(ctx, r, s, b"GET");
                    });
                    requested[i] = true;
                }
            }
        }
    }
    // Harvest per-second ingress series and completion times, and say what
    // a client that never completed last saw.
    let mut series = Vec::new();
    let mut completion = Vec::new();
    for (i, &c) in clients.iter().enumerate() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        let mut received = 0u64;
        let mut done_at = None;
        for ev in bn.net.sim.sniffer(c).events() {
            if ev.dir == Direction::Incoming && ev.time >= t0 {
                ts.add(SimTime(ev.time.0 - t0.0), ev.bytes as f64 / 1024.0);
                received += ev.bytes as u64;
                if done_at.is_none() && received >= FILE_LEN {
                    done_at = Some(ev.time.since(t0).as_secs_f64());
                }
            }
        }
        if done_at.is_none() {
            let node = bn.net.sim.node_ref::<TestClientNode>(c);
            let kinds: Vec<String> = node
                .events
                .iter()
                .map(|e| format!("{e:?}").chars().take(40).collect())
                .collect();
            eprintln!("client {i}: received {received} bytes; events: {kinds:?}");
        }
        series.push(ts.rate_points());
        completion.push(done_at);
    }
    RunResult {
        series,
        completion,
        machines: 1,
    }
}

fn emit(opts: &Opts, name: &str, result: &RunResult) {
    let max_len = result.series.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut rows = Vec::new();
    for t in 0..max_len {
        let mut row = format!("{t}");
        for s in &result.series {
            let v = s.get(t).map(|(_, v)| *v).unwrap_or(0.0);
            row.push_str(&format!(",{v:.1}"));
        }
        rows.push(row);
    }
    let header = std::iter::once("time_s".to_string())
        .chain((1..=CLIENTS).map(|i| format!("client{i}_kbps")))
        .collect::<Vec<_>>()
        .join(",");
    write_csv(opts, name, &header, &rows);
}

pub fn run(opts: &Opts) {
    let svc_seed = [0x5E; 32];
    let onion = HiddenServiceHost::new(svc_seed, 0, true).onion_addr();

    // The two conditions are independent simulations; express them as
    // trials so the shared runner can overlap them (`--threads 2`) while
    // keeping without/with results in a fixed order.
    say!(opts, "== without LoadBalancer: single hidden service ==");
    say!(
        opts,
        "== with LoadBalancer: watermark {WATERMARK}, up to 4 machines =="
    );
    let without_trial = move || {
        let mut bn = BentoNetwork::build_full(
            SEED,
            1,
            MiddleboxPolicy::permissive(),
            standard_registry,
            relay_iface(),
            relay_iface(),
        );
        let mut node = TestClientNode::new(bn.net.authority, bn.net.authority_key)
            .with_hs(HiddenServiceHost::new(svc_seed, 3, true));
        node.serve_bytes = Some(FILE_LEN as usize);
        let _svc = bn
            .net
            .sim
            .add_node("service", service_iface(), Box::new(node));
        bn.net.sim.run_until(secs(20));
        run_clients(&mut bn, onion)
    };
    let with_lb_trial = move || {
        // Four Bento boxes: the balancer's box plus three replica boxes —
        // each box's access link is the same as the single service above.
        let mut bn = BentoNetwork::build_full(
            SEED ^ 0xF5,
            4,
            MiddleboxPolicy::permissive(),
            standard_registry,
            relay_iface(),
            service_iface(),
        );
        let operator = bn.add_bento_client("operator");
        bn.net.sim.run_until(secs(2));
        let replica_boxes: Vec<(NodeId, u16)> =
            bn.boxes[1..4].iter().map(|b| (*b, BENTO_PORT)).collect();
        let params = LbParams {
            service: ServiceParams {
                seed: svc_seed,
                file_len: FILE_LEN,
            },
            n_intro: 3,
            max_per_replica: WATERMARK,
            replica_boxes,
        };
        // The balancer goes on `boxes[1]`: the box a client finds first in
        // the consensus (relays sort by fingerprint), which is where every
        // checked-in Figure 5 run has put it — on a machine that is also
        // the first replica host, with `boxes[0]` idle.
        let spec = FunctionSpec {
            params: params.encode(),
            manifest: lb_manifest(),
        };
        bn.install(operator, 1, &spec, [secs(5), secs(8), secs(20)]);
        let mut r = run_clients(&mut bn, onion);
        // A box with a live function is serving: the balancer's, and every
        // box it started a replica on.
        let serving = |b: &&NodeId| {
            bn.net
                .sim
                .node_ref::<BentoBoxNode>(**b)
                .bento
                .live_functions()
                > 0
        };
        r.machines = bn.boxes.iter().filter(serving).count();
        r
    };
    let jobs: Vec<Trial<RunResult>> = vec![Box::new(without_trial), Box::new(with_lb_trial)];
    let mut results = run_sweep(opts, "figure5", jobs);
    let without = results.remove(0);
    let with_lb = results.remove(0);
    emit(opts, "figure5_without_lb.csv", &without);
    emit(opts, "figure5_with_lb.csv", &with_lb);

    // Summary table.
    say!(opts, "\nper-client completion times (s):");
    say!(opts, "client       without LB        with LB");
    let cell = |t: &Option<f64>| t.map_or("-".into(), |v| format!("{v:.1}"));
    for (i, (w, l)) in without
        .completion
        .iter()
        .zip(&with_lb.completion)
        .enumerate()
    {
        say!(opts, "{:<8} {:>14} {:>14}", i + 1, cell(w), cell(l));
    }
    let done = |r: &RunResult| r.completion.iter().flatten().count();
    let (done_without, done_with) = (done(&without), done(&with_lb));
    let mean = |r: &RunResult| r.completion.iter().flatten().sum::<f64>() / done(r).max(1) as f64;
    say!(
        opts,
        "\ncompleted within {HORIZON_S}s: without={done_without} with={done_with} (of {CLIENTS})"
    );
    say!(
        opts,
        "mean completion: without={:.1}s with={:.1}s; machines serving with LB: {}",
        mean(&without),
        mean(&with_lb),
        with_lb.machines
    );
    export_telemetry(opts, "figure5");

    // The paper's shape, checked on what was just written: the balancer
    // must cut mean completion to 0.85 of the single server's.
    let ratio = mean(&with_lb) / mean(&without);
    let mut broken = Vec::new();
    if (done_without, done_with) != (CLIENTS, CLIENTS) {
        broken.push(format!(
            "completed without={done_without} with={done_with} of {CLIENTS}"
        ));
    }
    if with_lb.machines <= 1 {
        broken.push(format!("{} machine(s) served with LB", with_lb.machines));
    }
    if ratio > 0.85 {
        broken.push(format!(
            "with-LB / without-LB mean completion {ratio:.3}, wanted at most 0.85"
        ));
    }
    require_shape("figure5", &broken);
}
