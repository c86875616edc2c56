//! **Scalability sweep** — what does a request/reply workload of many
//! short-lived connections cost the simulator, and does it give every
//! connection's state back?
//!
//! Builds a pure-simnet topology of `--clients C` clients talking to a
//! deterministic pool of reply servers (one server per 64 clients), runs it
//! to quiescence and reports events/s and the last reply's arrival
//! (`sim_s`). The row lands in
//! `results/BENCH_scale.json`. Two gates, checked after the row is written:
//!
//! * **Leak gate.** Every client closes every connection it opens, so at
//!   quiescence the simulator must hold no connection state
//!   (`Simulator::live_conn_halves() == 0`); the sweep panics otherwise.
//! * **Event budget.** A connection here carries one exchange and costs six
//!   events: the timer, `ConnSynArrive`, `ConnEstablished`, two `MsgArrive`
//!   and `CloseArrive`. The sweep exits non-zero if it spends more than
//!   [`EVENT_BUDGET`] a connection — a chunk-completion or close-side event
//!   has come back.
//!
//! ```text
//! cargo run -p bench --release --bin scalability_sweep            # 10^4 clients
//! cargo run -p bench --release --bin scalability_sweep -- --clients 100000
//! cargo run -p bench --release --bin scalability_sweep -- --smoke # CI-sized
//! ```

use bench::runner::SweepOpts;
use bench::{arg_flag, arg_u64, write_json_table};
use simnet::{ConnId, Ctx, Iface, Node, NodeId, SimDuration, SimTime, Simulator};
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
    /// Stable per-client index, used for stagger offsets and payload sizes.
    idx: u64,
    rounds_left: u32,
    req_bytes: usize,
    last_reply: SimTime,
}

const TAG_ROUND: u64 = 1;

/// Events a connection may cost: timer, two handshake events, two arrivals
/// and the close, plus a little for rounding.
const EVENT_BUDGET: f64 = 6.1;

impl ScaleClient {
    fn stagger(&self) -> SimDuration {
        // Prime moduli spread the herd.
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
        self.last_reply = ctx.now();
        ctx.close(conn);
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            ctx.set_timer(self.think(), TAG_ROUND);
        }
    }
}

fn main() {
    let opts = SweepOpts::from_args();
    let smoke = arg_flag("--smoke");
    let clients = arg_u64("--clients", if smoke { 400 } else { 10_000 });
    let rounds = arg_u64("--rounds", 3) as u32;
    let seed = arg_u64("--seed", 23);
    if !opts.quiet {
        println!("scalability sweep: {clients} clients x {rounds} rounds");
    }

    let mut sim = Simulator::with_seed(seed);
    // Server pool: one per 64 clients, on datacenter-ish links.
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
                    last_reply: SimTime::ZERO,
                }),
            )
        })
        .collect();

    let wall = Instant::now();
    sim.run_to_quiescence();
    let wall_s = wall.elapsed().as_secs_f64();
    let mut end = SimTime::ZERO;
    for (i, &id) in client_ids.iter().enumerate() {
        let client = sim.node_ref::<ScaleClient>(id);
        end = end.max(client.last_reply);
        let left = client.rounds_left;
        assert_eq!(
            left,
            0,
            "client {i} finished only {} of {rounds} rounds",
            rounds - left
        );
    }

    let stats = sim.stats();
    let eps = stats.events as f64 / wall_s.max(1e-9);
    let per_conn = stats.events as f64 / stats.conns_opened.max(1) as f64;
    if !opts.quiet {
        println!(
            "  {} events, {} connections ({per_conn:.3} a connection) in {wall_s:.2}s \
             -> {eps:.0} events/s",
            stats.events, stats.conns_opened
        );
    }
    write_json_table(
        "results/BENCH_scale.json",
        "scalability_sweep",
        "clients,events,msgs,bytes,wall_s,events_per_sec,sim_s",
        &[format!(
            "{clients},{},{},{},{wall_s:.3},{eps:.0},{:.3}",
            stats.events,
            stats.msgs_delivered,
            stats.bytes_delivered,
            end.since(SimTime::ZERO).as_secs_f64()
        )],
    );
    opts.export_telemetry("scalability_sweep");
    assert_eq!(
        sim.live_conn_halves(),
        0,
        "connection state still resident at quiescence"
    );
    if per_conn > EVENT_BUDGET {
        eprintln!("scalability_sweep: more than {EVENT_BUDGET} events a connection");
        std::process::exit(1);
    }
}
