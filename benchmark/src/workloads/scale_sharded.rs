//! `scale_sharded` — `scalability_sweep`'s pure-`simnet` topology: 20 000
//! clients, three request/reply rounds each on fresh connections, against
//! one reply server per 64 clients, on the sharded engine with two shards
//! driven by one worker thread.
//!
//! Why it exists: no crypto and no Tor — the event queue, timers,
//! connect/close churn, the cross-shard exchange and its windows do all the
//! work. It uses `simnet` the opposite way from `bulk_fetch` (many tiny
//! short-lived connections against few saturated ones), and any change to
//! `onion-crypto` or `tor-net` must leave it unmoved.
//!
//! Why 20 000 clients and one thread: at 50 000 clients on two threads a rep
//! took 0.7–1.4 s inside one run (both vCPUs of a shared host must be quiet
//! for a fast rep), and identical runs spread 17–23% in `wall_s`. At 20 000
//! clients on one thread a rep takes 0.4 s, a run holds three times as many,
//! and no rep waits for a second vCPU. What a second thread buys is measured
//! by a probe in the traced pass (`simnet.shard_speedup_2t`).

use super::{work_of, Prepared, Rep, Slicer};
use crate::trace::Tracer;
use simnet::{ConnId, Ctx, Iface, Node, NodeId, SimConfig, SimDuration, SimTime, Simulator};
use std::sync::Arc;
use std::time::Instant;

/// `scalability_sweep`'s simulation seed (these nodes draw no randomness).
const SIM_SEED: u64 = 23;
/// Bytes in every reply.
const REPLY_BYTES: usize = 600;
const TAG_ROUND: u64 = 1;
/// The run is cut into slices of this much simulated time (at most 8 ms of
/// host time each) up to `SLICED_UNTIL_MS`; what remains after that, the
/// last stragglers' closes, is the last slice.
const SLICE_MS: u64 = 20;
/// Past the last reply (2.13 simulated seconds at any client count).
const SLICED_UNTIL_MS: u64 = 2_500;

/// Replies to every request with a fixed-size receipt.
struct ScaleServer;

impl Node for ScaleServer {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _msg: Vec<u8>) {
        ctx.send(conn, vec![0x5A; REPLY_BYTES]);
    }
}

/// Runs `rounds_left` request/reply exchanges against `server`, each on a
/// fresh connection, with deterministically staggered start and think times.
struct ScaleClient {
    server: NodeId,
    idx: u64,
    rounds_left: u32,
    req_bytes: usize,
    /// Replies that arrived with the right length and fill.
    good_replies: u32,
    last_reply: SimTime,
}

impl Node for ScaleClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.rounds_left > 0 {
            // Prime moduli spread the herd without synchronising any two
            // shards' first windows.
            ctx.set_timer(SimDuration::from_millis(5 + self.idx % 997), TAG_ROUND);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let conn = ctx.connect(self.server, 80);
        ctx.send(conn, vec![0xC1; self.req_bytes]);
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        if msg.len() == REPLY_BYTES && msg.iter().all(|b| *b == 0x5A) {
            self.good_replies += 1;
        }
        self.last_reply = ctx.now();
        ctx.close(conn);
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if self.rounds_left > 0 {
            ctx.set_timer(SimDuration::from_millis(250 + self.idx % 211), TAG_ROUND);
        }
    }
}

/// The engine a scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    /// `0` is the serial engine, `N >= 1` the sharded one with `N` shards.
    pub shards: usize,
    /// Worker threads for the sharded engine.
    pub threads: usize,
}

/// Generated inputs.
pub struct ScaleSharded {
    seed: u64,
    clients: u64,
    rounds: u32,
}

/// What one run of the scenario produced.
pub struct ScaleRun {
    /// Host seconds building the topology.
    pub setup_s: f64,
    /// Host seconds running to quiescence: the sum of `slices`.
    pub wall_s: f64,
    /// The run's slices, `SLICE_MS` of simulated time each.
    pub slices: Vec<f64>,
    /// Simulated seconds to quiescence.
    pub sim_s: f64,
    /// Exchanges whose reply arrived intact.
    pub good: u64,
    /// Request plus reply payload bytes of those exchanges.
    pub payload_bytes: u64,
    /// Simulator work done.
    pub work: [u64; 4],
}

impl ScaleSharded {
    /// The sweep's topology at 20 000 clients; the seed shifts which client
    /// sends which request size.
    pub fn new(seed: u64, smoke: bool) -> ScaleSharded {
        ScaleSharded {
            seed,
            clients: if smoke { 2_000 } else { 20_000 },
            rounds: 3,
        }
    }

    /// Exchanges one run attempts.
    pub fn exchanges(&self) -> u64 {
        self.clients * u64::from(self.rounds)
    }

    /// Build the topology and run it to quiescence on `engine`.
    pub fn run(&self, engine: Engine, tracer: &Tracer, rep: u32) -> ScaleRun {
        let root = tracer.begin("rep", None, rep, 0);
        let span = tracer.begin("topology_build", root, rep, 0);
        let t = Instant::now();
        let mut sim = Simulator::new(SimConfig {
            seed: SIM_SEED,
            shards: engine.shards,
            shard_threads: engine.threads,
            ..SimConfig::default()
        });
        // Datacenter-ish server links; the nonzero latency is what gives the
        // conservative engine its lookahead.
        let n_servers = (self.clients / 64).max(1);
        let server_iface = Iface::symmetric(SimDuration::from_millis(2), 100_000_000);
        let client_iface = Iface::symmetric(SimDuration::from_millis(15), 4_000_000);
        let servers: Vec<NodeId> = (0..n_servers)
            .map(|i| sim.add_node(format!("srv{i}"), server_iface, Box::new(ScaleServer)))
            .collect();
        let clients: Vec<(NodeId, usize)> = (0..self.clients)
            .map(|i| {
                let req_bytes = 200 + ((i + self.seed) % 800) as usize;
                let id = sim.add_node(
                    format!("c{i}"),
                    client_iface,
                    Box::new(ScaleClient {
                        server: servers[(i % n_servers) as usize],
                        idx: i,
                        rounds_left: self.rounds,
                        req_bytes,
                        good_replies: 0,
                        last_reply: SimTime::ZERO,
                    }),
                );
                (id, req_bytes)
            })
            .collect();
        let setup_s = t.elapsed().as_secs_f64();
        tracer.end(span, 0);

        let span = tracer.begin("run", root, rep, 0);
        let mut slicer = Slicer::start();
        for ms in (SLICE_MS..=SLICED_UNTIL_MS).step_by(SLICE_MS as usize) {
            sim.run_until(SimTime::ZERO + SimDuration::from_millis(ms));
            slicer.cut();
        }
        sim.run_to_quiescence();
        let slices = slicer.finish();
        tracer.end(span, sim.now().as_nanos());

        let (mut good, mut payload_bytes, mut end) = (0u64, 0u64, SimTime::ZERO);
        for (id, req_bytes) in clients {
            let c = sim.node_ref::<ScaleClient>(id);
            good += u64::from(c.good_replies);
            payload_bytes += u64::from(c.good_replies) * (req_bytes + REPLY_BYTES) as u64;
            end = end.max(c.last_reply);
        }
        tracer.end(root, sim.now().as_nanos());
        ScaleRun {
            setup_s,
            wall_s: slices.iter().sum(),
            slices,
            // The last reply's arrival: `Simulator::now` after quiescence
            // also covers the trailing connection closes.
            sim_s: end.since(SimTime::ZERO).as_secs_f64(),
            good,
            payload_bytes,
            work: work_of(sim.stats()),
        }
    }
}

impl Prepared for ScaleSharded {
    fn rep(&self, rep: u32, tracer: &Arc<Tracer>) -> Rep {
        let engine = Engine {
            shards: 2,
            threads: 1,
        };
        let run = self.run(engine, tracer, rep);
        let attempted = self.exchanges();
        Rep {
            setup_s: run.setup_s,
            wall_s: run.wall_s,
            slices: run.slices,
            sim_s: run.sim_s,
            payload_bytes: run.payload_bytes,
            attempted,
            failed: attempted - run.good,
            work: run.work,
            derived: Vec::new(),
        }
    }
}
