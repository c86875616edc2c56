//! **Sharded-engine scalability sweep** — what does partitioning a
//! request/reply workload into shards cost the conservative engine, on the
//! one thread it runs on?
//!
//! Builds a pure-simnet topology of `--clients C` clients talking to a
//! deterministic pool of reply servers (one server per 64 clients), runs the
//! same workload at every shard count in `--shards LIST`, and reports
//! events/s per configuration. All rows run on the sharded engine, so the
//! simulation outcome (events, messages, bytes, end time) is identical
//! across rows by construction — the sweep only varies how the work is
//! partitioned. Rows land in `results/BENCH_scale.json`. A connection here
//! carries one exchange and costs the engine eight events; the sweep exits
//! non-zero (after writing its rows) if a row spends more than
//! [`EVENT_BUDGET`] a connection — a chunk-completion or half-death event
//! has come back.
//!
//! ```text
//! cargo run -p bench --release --bin scalability_sweep            # 10^4 clients
//! cargo run -p bench --release --bin scalability_sweep -- --clients 100000
//! cargo run -p bench --release --bin scalability_sweep -- --smoke # CI-sized
//! ```
//!
//! `--det` switches to the determinism-harness mode used by
//! `determinism_check`: one configuration (first entry of `--shards`),
//! writing `results/SCALE_determinism.json` with *only*
//! simulation-deterministic fields — no shard count or wall-clock values —
//! so runs at different shard counts must produce byte-identical artifacts.

use bench::runner::SweepOpts;
use bench::{arg_flag, arg_str, arg_u64, write_json_table};
use simnet::{ConnId, Ctx, Iface, Node, NodeId, SimConfig, SimDuration, SimTime, Simulator};
use std::time::Instant;

/// Replies to every request with a fixed-size receipt.
struct ScaleServer {
    reply_bytes: usize,
}

impl Node for ScaleServer {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _msg: Vec<u8>) {
        ctx.send(conn, vec![0x5A; self.reply_bytes]);
    }
}

/// Runs `rounds` request/reply exchanges against `server`, each on a fresh
/// connection, with deterministically staggered start and think times.
struct ScaleClient {
    server: NodeId,
    /// Stable per-client index (node ids depend on interleaving; this does
    /// not), used for stagger offsets and payload sizes.
    idx: u64,
    rounds_left: u32,
    req_bytes: usize,
    /// Reply arrival times, folded into the determinism checksum.
    replies: Vec<SimTime>,
}

const TAG_ROUND: u64 = 1;

/// Events a connection may cost: timer, two handshake events, two arrivals
/// each followed by its ingress-pipe `Deliver`, and the close, plus a little
/// for the closes that trail a busy ingress pipe (`CloseDone`).
const EVENT_BUDGET: f64 = 8.1;

impl ScaleClient {
    fn stagger(&self) -> SimDuration {
        // Prime moduli spread the herd without synchronising any two shards'
        // first windows.
        SimDuration::from_millis(5 + self.idx % 997)
    }
    fn think(&self) -> SimDuration {
        SimDuration::from_millis(250 + self.idx % 211)
    }
}

impl Node for ScaleClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.rounds_left > 0 {
            ctx.set_timer(self.stagger(), TAG_ROUND);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let conn = ctx.connect(self.server, 80);
        ctx.send(conn, vec![0xC1; self.req_bytes]);
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _msg: Vec<u8>) {
        self.replies.push(ctx.now());
        ctx.close(conn);
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            ctx.set_timer(self.think(), TAG_ROUND);
        }
    }
}

/// One configuration's outcome. The simulation-side fields are identical
/// across shard counts; only `wall_s` varies.
struct RunOutcome {
    events: u64,
    msgs: u64,
    bytes: u64,
    conns: u64,
    sim_end: SimTime,
    wall_s: f64,
    checksum: u64,
}

/// Build the topology and run it to quiescence at the given shard count.
fn run_config(seed: u64, clients: u64, rounds: u32, shards: usize) -> RunOutcome {
    let mut sim = Simulator::new(SimConfig {
        seed,
        shards,
        ..SimConfig::default()
    });
    // Server pool: one per 64 clients. Datacenter-ish links; the nonzero
    // latency is what gives the conservative engine its lookahead.
    let n_servers = (clients / 64).max(1);
    let server_iface = Iface::symmetric(SimDuration::from_millis(2), 100_000_000);
    let client_iface = Iface::symmetric(SimDuration::from_millis(15), 4_000_000);
    let servers: Vec<NodeId> = (0..n_servers)
        .map(|i| {
            sim.add_node(
                format!("srv{i}"),
                server_iface,
                Box::new(ScaleServer { reply_bytes: 600 }),
            )
        })
        .collect();
    let client_ids: Vec<NodeId> = (0..clients)
        .map(|i| {
            sim.add_node(
                format!("c{i}"),
                client_iface,
                Box::new(ScaleClient {
                    server: servers[(i % n_servers) as usize],
                    idx: i,
                    rounds_left: rounds,
                    req_bytes: 200 + (i % 800) as usize,
                    replies: Vec::new(),
                }),
            )
        })
        .collect();

    let wall = Instant::now();
    sim.run_to_quiescence();
    let wall_s = wall.elapsed().as_secs_f64();
    // Leak gate for the sharded engine's half reaping: every client closed
    // every connection it opened, so nothing may still be resident.
    assert_eq!(
        sim.live_conn_halves(),
        0,
        "connection halves still live at quiescence (shards {shards})"
    );

    // FNV-1a over every (client index, reply time) in index order: a cheap
    // fingerprint of the full delivery schedule, not just the aggregates.
    let mut checksum: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            checksum ^= b as u64;
            checksum = checksum.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, &id) in client_ids.iter().enumerate() {
        let replies = sim.with_node::<ScaleClient, _>(id, |n, _| {
            assert_eq!(
                n.rounds_left,
                0,
                "client {i} finished only {} of {rounds} rounds",
                rounds - n.rounds_left
            );
            n.replies.clone()
        });
        fold(i as u64);
        for t in replies {
            fold(t.as_nanos());
        }
    }
    let stats = sim.stats();
    RunOutcome {
        events: stats.events,
        msgs: stats.msgs_delivered,
        bytes: stats.bytes_delivered,
        conns: stats.conns_opened,
        sim_end: sim.now(),
        wall_s,
        checksum,
    }
}

fn main() {
    let opts = SweepOpts::from_args();
    let smoke = arg_flag("--smoke");
    let det = arg_flag("--det");
    let clients = arg_u64("--clients", if smoke { 400 } else { 10_000 });
    let rounds = arg_u64("--rounds", 3) as u32;
    let default_shards = if smoke { "1,2" } else { "1,2,4,8" };
    let shard_list: Vec<usize> = arg_str("--shards", default_shards)
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&s| s >= 1)
        .collect();
    assert!(!shard_list.is_empty(), "--shards needs at least one count");
    let seed = arg_u64("--seed", 23);

    if det {
        // Determinism-harness mode: one run, artifact carries only
        // simulation-deterministic fields. determinism_check re-runs this at
        // several shard counts and byte-compares the result tree.
        let out = run_config(seed, clients, rounds, shard_list[0]);
        write_json_table(
            "results/SCALE_determinism.json",
            "scale_determinism",
            "clients,rounds,events,msgs,bytes,conns,sim_end_ns,checksum",
            &[format!(
                "{clients},{rounds},{},{},{},{},{},{:016x}",
                out.events,
                out.msgs,
                out.bytes,
                out.conns,
                out.sim_end.as_nanos(),
                out.checksum
            )],
        );
        return;
    }

    if !opts.quiet {
        println!(
            "scalability sweep: {clients} clients x {rounds} rounds, shards {shard_list:?} \
             (one thread)"
        );
    }
    let mut rows = Vec::new();
    let mut baseline: Option<(u64, f64)> = None;
    let mut over_budget = false;
    for &shards in &shard_list {
        let out = run_config(seed, clients, rounds, shards);
        if let Some((check, _)) = baseline {
            assert_eq!(
                check, out.checksum,
                "shard count {shards} changed the simulation outcome"
            );
        }
        let eps = out.events as f64 / out.wall_s.max(1e-9);
        let speedup = baseline.map(|(_, base_eps)| eps / base_eps).unwrap_or(1.0);
        if baseline.is_none() {
            baseline = Some((out.checksum, eps));
        }
        let per_conn = out.events as f64 / out.conns.max(1) as f64;
        over_budget |= per_conn > EVENT_BUDGET;
        if !opts.quiet {
            println!(
                "  shards {shards:>2}: {} events, {} connections ({per_conn:.3} a connection) \
                 in {:.2}s -> {:.0} events/s ({speedup:.2}x)",
                out.events, out.conns, out.wall_s, eps
            );
        }
        rows.push(format!(
            "{clients},{shards},{},{},{},{:.3},{:.0},{:.3}",
            out.events,
            out.msgs,
            out.bytes,
            out.wall_s,
            eps,
            out.sim_end.as_nanos() as f64 / 1e9
        ));
    }
    write_json_table(
        "results/BENCH_scale.json",
        "scalability_sweep",
        "clients,shards,events,msgs,bytes,wall_s,events_per_sec,sim_s",
        &rows,
    );
    opts.export_telemetry("scalability_sweep");
    if over_budget {
        eprintln!("scalability_sweep: more than {EVENT_BUDGET} events a connection");
        std::process::exit(1);
    }
}
