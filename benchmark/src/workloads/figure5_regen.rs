//! `figure5_regen` — regenerating the paper's Figure 5. Both arms as the
//! `figure5` binary builds them, with a smaller file: 13 clients arriving one
//! second apart, each downloading 1 MiB (the figure: 10 MiB) from the hidden
//! service; once from a single server, once with the LoadBalancer function
//! (watermark 2, at most four machines). The two arms run as two trials
//! through `bench::runner`, one after the other on one thread.
//!
//! Why it exists: 13–26 concurrent six-hop rendezvous circuits share the
//! relays, so cells of different circuits interleave and relay batches are
//! short — the regime where batching should not help; it runs the hidden
//! service machinery, LoadBalancer and replica spin-up with sniffers on.
//!
//! Why 1 MiB and one thread: at 10 MiB on two threads a rep took 4 s, a
//! 25-second run held six of them, and identical runs spread 25% in
//! `wall_s` — the driver refused the benchmark for it. At 1 MiB the
//! downloads still overlap (mean completion 20 simulated seconds against
//! arrivals over 12) and the balancer still spawns its replicas, a rep takes
//! 1.2 s, and no rep waits for a second vCPU to be free. The trial runner's
//! two-thread scaling is measured by a probe in the traced pass
//! (`bench-runner.parallel_efficiency`).

use super::{secs, splitmix, work_of, Prepared, Rep, Slicer};
use crate::trace::{SpanId, Tracer};
use bench::runner::{run_trials, Trial};
use bento::protocol::{FunctionSpec, ImageKind};
use bento::testnet::BentoNetwork;
use bento::{BentoBoxNode, BentoClient, BentoClientNode, MiddleboxPolicy};
use bento_functions::load_balancer::{lb_manifest, LbParams, ServiceParams};
use bento_functions::standard_registry;
use simnet::trace::Direction;
use simnet::{Iface, NodeId, SimDuration, SimTime, Simulator};
use std::sync::Arc;
use std::time::Instant;
use tor_net::netbuild::TestClientNode;
use tor_net::ports::{BENTO_PORT, HS_VIRTUAL_PORT};
use tor_net::{HiddenServiceHost, StreamTarget, TorEvent};

/// Simulated seconds a download may take before it counts as failed.
const HORIZON_S: u64 = 420;
/// Clients start arriving at this simulated second.
const T_START: u64 = 22;
const SVC_SEED: [u8; 32] = [0x5E; 32];
/// The `figure5` binary's default simulation seed.
const SIM_SEED: u64 = 9;

/// The hidden-service host's access link: the contended resource.
fn service_iface() -> Iface {
    Iface::symmetric(SimDuration::from_millis(10), 1_800_000)
}

/// Relays are generously provisioned so the service uplink is the
/// bottleneck, as in the paper's EC2 deployment.
fn relay_iface() -> Iface {
    Iface::symmetric(SimDuration::from_millis(10), 12_000_000)
}

/// Simulated milliseconds per slice: the busiest stretch of the downloads
/// takes 3 ms of host time for 100.
const SLICE_MS: u64 = 100;

/// `sim.run_until(limit)` in steps of `SLICE_MS`, a slice each. The
/// simulation does not see the steps: nothing looks at it between them.
fn run_sliced(sim: &mut Simulator, limit: SimTime, slicer: &mut Slicer) {
    while sim.now() < limit {
        let step = (sim.now() + SimDuration::from_millis(SLICE_MS)).min(limit);
        sim.run_until(step);
        slicer.cut();
    }
}

/// Generated inputs, shared with the trial threads.
pub struct Figure5Regen {
    inputs: Arc<Inputs>,
}

struct Inputs {
    clients: usize,
    file_len: u64,
    watermark: u32,
}

impl Figure5Regen {
    /// The figure's parameters but for the file size. The simulations keep
    /// the `figure5` binary's seed (mean completion moves by 15% between
    /// simulation seeds, which would drown any change in `sim_s`); the
    /// benchmark seed adds up to 2 KiB (under 0.2%) to the file.
    pub fn new(seed: u64, smoke: bool) -> Figure5Regen {
        let extra = splitmix(&mut seed.clone()) % (2 << 10);
        Figure5Regen {
            inputs: Arc::new(Inputs {
                clients: if smoke { 3 } else { 13 },
                file_len: (1 << 20) + extra,
                watermark: 2,
            }),
        }
    }
}

/// What one arm produced.
struct ArmResult {
    /// Per-client completion time (s since the first arrival), if it
    /// finished inside the horizon.
    completion: Vec<Option<f64>>,
    /// Replica boxes that ended up running a function (with-LB arm).
    replicas: usize,
    work: [u64; 4],
    /// Host seconds the trial spent building its network.
    setup_s: f64,
    /// Host seconds the whole trial took on its worker, in slices: the
    /// network build, then every `SLICE` of simulated time, then the harvest.
    slices: Vec<f64>,
}

/// Drive the onion downloads to the horizon and harvest completion times
/// from the clients' sniffers — `figure5`'s `run_clients`. A download counts
/// as complete only if the stream also delivered exactly the file: the right
/// length, every byte the arm's `fill`.
fn run_clients(
    bn: &mut BentoNetwork,
    fill: u8,
    inp: &Inputs,
    slicer: &mut Slicer,
    tracer: &Tracer,
    parent: Option<SpanId>,
    rep: u32,
) -> Vec<Option<f64>> {
    let span = tracer.begin("downloads", parent, rep, bn.net.sim.now().as_nanos());
    let onion = HiddenServiceHost::new(SVC_SEED, 0, true).onion_addr();
    let n = inp.clients;
    let clients: Vec<NodeId> = (0..n)
        .map(|i| {
            let c = bn.net.add_client(&format!("client{i}"));
            bn.net.sim.enable_sniffer(c);
            c
        })
        .collect();
    run_sliced(&mut bn.net.sim, secs(T_START), slicer);
    let mut rend = vec![None; n];
    let mut streams: Vec<Option<u16>> = vec![None; n];
    let mut requested = vec![false; n];
    let mut started_at = vec![SimTime::ZERO; n];
    let t0 = secs(T_START);
    for (i, &c) in clients.iter().enumerate() {
        run_sliced(&mut bn.net.sim, secs(T_START + i as u64), slicer);
        rend[i] = bn
            .net
            .sim
            .with_node::<TestClientNode, _>(c, |n, ctx| n.tor.connect_onion(ctx, onion));
        started_at[i] = bn.net.sim.now();
    }
    let deadline = secs(T_START + HORIZON_S);
    while bn.net.sim.now() < deadline {
        let now = bn.net.sim.now();
        run_sliced(&mut bn.net.sim, now + SimDuration::from_millis(500), slicer);
        for (i, &c) in clients.iter().enumerate() {
            let Some(r) = rend[i] else { continue };
            match streams[i] {
                None => {
                    let ready = bn.net.sim.with_node::<TestClientNode, _>(c, |n, _| {
                        n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == r))
                    });
                    if ready {
                        streams[i] = bn.net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
                            n.tor.open_stream(ctx, r, StreamTarget::Hs(HS_VIRTUAL_PORT))
                        });
                    } else if bn.net.sim.now().since(started_at[i]).as_secs_f64() > 30.0 {
                        // Like the real Tor client: retry a stalled
                        // rendezvous with a fresh rendezvous point.
                        rend[i] = bn.net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
                            n.tor.connect_onion(ctx, onion)
                        });
                        started_at[i] = bn.net.sim.now();
                    }
                }
                Some(s) if !requested[i] => {
                    let connected = bn.net.sim.with_node::<TestClientNode, _>(c, |n, _| {
                        n.has_event(|e| {
                            matches!(e, TorEvent::StreamConnected(h, sid) if *h == r && *sid == s)
                        })
                    });
                    if connected {
                        bn.net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
                            n.tor.send_stream(ctx, r, s, b"GET");
                        });
                        requested[i] = true;
                    }
                }
                Some(_) => {}
            }
        }
    }
    tracer.end(span, bn.net.sim.now().as_nanos());

    let span = tracer.begin("harvest", parent, rep, bn.net.sim.now().as_nanos());
    let completion = clients
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let (circ, stream) = (rend[i]?, streams[i]?);
            let mut delivered = 0u64;
            let intact = bn
                .net
                .sim
                .node_ref::<TestClientNode>(c)
                .events
                .iter()
                .all(|e| match e {
                    TorEvent::StreamData(h, s, d) if *h == circ && *s == stream => {
                        delivered += d.len() as u64;
                        d.iter().all(|b| *b == fill)
                    }
                    _ => true,
                });
            if !intact || delivered != inp.file_len {
                return None;
            }
            let mut received = 0u64;
            bn.net
                .sim
                .sniffer(c)
                .events()
                .iter()
                .filter(|ev| ev.dir == Direction::Incoming && ev.time >= t0)
                .find_map(|ev| {
                    received += ev.bytes as u64;
                    (received >= inp.file_len).then(|| ev.time.since(t0).as_secs_f64())
                })
        })
        .collect();
    tracer.end(span, bn.net.sim.now().as_nanos());
    completion
}

fn without_lb(inp: &Inputs, tracer: &Tracer, root: Option<SpanId>, rep: u32) -> ArmResult {
    let mut slicer = Slicer::start();
    let trial = tracer.begin("trial.without_lb", root, rep, 0);
    let span = tracer.begin("net_build", trial, rep, 0);
    let mut bn = BentoNetwork::build_full(
        SIM_SEED,
        1,
        MiddleboxPolicy::permissive(),
        standard_registry,
        relay_iface(),
        relay_iface(),
    );
    let mut node = TestClientNode::new(bn.net.authority, bn.net.authority_key)
        .with_hs(HiddenServiceHost::new(SVC_SEED, 3, true));
    node.serve_bytes = Some(inp.file_len as usize);
    bn.net
        .sim
        .add_node("service", service_iface(), Box::new(node));
    tracer.end(span, 0);
    let setup_s = slicer.cut();
    let span = tracer.begin("hs_publish", trial, rep, 0);
    run_sliced(&mut bn.net.sim, secs(20), &mut slicer);
    tracer.end(span, bn.net.sim.now().as_nanos());
    let completion = run_clients(&mut bn, 0xAB, inp, &mut slicer, tracer, trial, rep);
    tracer.end(trial, bn.net.sim.now().as_nanos());
    ArmResult {
        completion,
        replicas: 0,
        work: work_of(bn.net.sim.stats()),
        setup_s,
        slices: slicer.finish(),
    }
}

fn with_lb(inp: &Inputs, tracer: &Tracer, root: Option<SpanId>, rep: u32) -> ArmResult {
    let mut slicer = Slicer::start();
    let trial = tracer.begin("trial.with_lb", root, rep, 0);
    let span = tracer.begin("net_build", trial, rep, 0);
    // Four Bento boxes: the balancer's plus three replica boxes, each with
    // the same access link as the single service of the other arm.
    let mut bn = BentoNetwork::build_full(
        SIM_SEED ^ 0xF5,
        4,
        MiddleboxPolicy::permissive(),
        standard_registry,
        relay_iface(),
        service_iface(),
    );
    let operator = bn.add_bento_client("operator");
    tracer.end(span, 0);
    let setup_s = slicer.cut();

    let span = tracer.begin("lb_install", trial, rep, 0);
    run_sliced(&mut bn.net.sim, secs(2), &mut slicer);
    let replica_boxes: Vec<(NodeId, u16)> =
        bn.boxes[1..4].iter().map(|b| (*b, BENTO_PORT)).collect();
    let params = LbParams {
        service: ServiceParams {
            seed: SVC_SEED,
            file_len: inp.file_len,
        },
        n_intro: 3,
        max_per_replica: inp.watermark,
        replica_boxes,
    };
    let conn = bn
        .net
        .sim
        .with_node::<BentoClientNode, _>(operator, |n, ctx| {
            let box0 = BentoClient::discover_boxes(&n.tor)
                .first()
                .cloned()
                .cloned()
                .expect("consensus lists the boxes");
            n.bento
                .connect_box(ctx, &mut n.tor, &box0)
                .expect("session to box 0")
        });
    run_sliced(&mut bn.net.sim, secs(5), &mut slicer);
    bn.net
        .sim
        .with_node::<BentoClientNode, _>(operator, |n, ctx| {
            n.bento
                .request_container(ctx, &mut n.tor, conn, ImageKind::Plain);
        });
    run_sliced(&mut bn.net.sim, secs(8), &mut slicer);
    let (container, _, _) = bn
        .net
        .sim
        .node_ref::<BentoClientNode>(operator)
        .container_ready(conn)
        .expect("container granted within 3 s");
    bn.net
        .sim
        .with_node::<BentoClientNode, _>(operator, |n, ctx| {
            let spec = FunctionSpec {
                params: params.encode(),
                manifest: lb_manifest(),
            };
            n.bento.upload(ctx, &mut n.tor, conn, container, &spec);
        });
    tracer.end(span, bn.net.sim.now().as_nanos());

    let span = tracer.begin("hs_publish", trial, rep, bn.net.sim.now().as_nanos());
    run_sliced(&mut bn.net.sim, secs(20), &mut slicer);
    tracer.end(span, bn.net.sim.now().as_nanos());
    let completion = run_clients(&mut bn, 0xF1, inp, &mut slicer, tracer, trial, rep);
    let replicas = bn.boxes[1..4]
        .iter()
        .filter(|b| {
            bn.net
                .sim
                .node_ref::<BentoBoxNode>(**b)
                .bento
                .live_functions()
                > 0
        })
        .count();
    tracer.end(trial, bn.net.sim.now().as_nanos());
    ArmResult {
        completion,
        replicas,
        work: work_of(bn.net.sim.stats()),
        setup_s,
        slices: slicer.finish(),
    }
}

fn mean_completion(arm: &ArmResult) -> f64 {
    let done: Vec<f64> = arm.completion.iter().flatten().copied().collect();
    done.iter().sum::<f64>() / done.len().max(1) as f64
}

impl Figure5Regen {
    /// One rep: both arms through the trial runner on `threads` threads.
    /// Returns the rep and the runner's parallel efficiency, Σ per-trial
    /// wall ÷ (threads × rep wall).
    pub fn run(&self, threads: usize, rep: u32, tracer: &Arc<Tracer>) -> (Rep, f64) {
        let root = tracer.begin("rep", None, rep, 0);
        let t = Instant::now();
        let jobs: Vec<Trial<ArmResult>> = vec![
            {
                let (inp, tr) = (self.inputs.clone(), tracer.clone());
                Box::new(move || without_lb(&inp, &tr, root, rep))
            },
            {
                let (inp, tr) = (self.inputs.clone(), tracer.clone());
                Box::new(move || with_lb(&inp, &tr, root, rep))
            },
        ];
        let mut arms = run_trials(threads, jobs);
        let wall_s = t.elapsed().as_secs_f64();
        tracer.end(root, 0);
        let with = arms.pop().expect("two trials in, two results out");
        let without = arms.pop().expect("two trials in, two results out");

        let n = self.inputs.clients as u64;
        let done = (without.completion.iter().flatten().count()
            + with.completion.iter().flatten().count()) as u64;
        // A with-LB arm that never spawned a replica measured nothing the
        // figure is about: all of its downloads count as failed.
        let lb_missing = if with.replicas == 0 { n } else { 0 };
        let failed = (2 * n - done).max(lb_missing);
        let work = [0, 1, 2, 3].map(|i| without.work[i] + with.work[i]);
        let (mean_without, mean_with) = (mean_completion(&without), mean_completion(&with));
        // The arms' slices one after the other: with the arms on one thread
        // their sum is the rep's wall.
        let slices = [&without.slices[..], &with.slices[..]].concat();
        let busy_s: f64 = slices.iter().sum();
        let efficiency = busy_s / (threads as f64 * wall_s);
        let rep = Rep {
            // Each arm builds its network inside its trial, as the
            // `figure5` binary does, so this set-up is also part of `wall_s`.
            setup_s: without.setup_s + with.setup_s,
            wall_s: busy_s,
            slices,
            sim_s: mean_with,
            payload_bytes: done * self.inputs.file_len,
            attempted: 2 * n,
            failed,
            work,
            derived: vec![
                ("functions.lb_replicas", with.replicas as f64),
                (
                    "functions.lb_speedup_sim",
                    mean_without / mean_with.max(1e-9),
                ),
            ],
        };
        (rep, efficiency)
    }
}

impl Prepared for Figure5Regen {
    fn rep(&self, rep: u32, tracer: &Arc<Tracer>) -> Rep {
        self.run(1, rep, tracer).0
    }
}
