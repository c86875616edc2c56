//! **Scalability sweep** — what does a request/reply workload of many
//! short-lived connections cost the simulator, and does it give every
//! connection's state back?
//!
//! Builds a pure-simnet topology of [`CLIENTS`] clients talking to a
//! deterministic pool of reply servers (one server per 64 clients), runs it
//! to quiescence and writes the simulated cost and the last reply's arrival
//! (`sim_s`) as one row of `results/scalability_sweep.csv`. Host time (wall
//! seconds, events/s) goes to stdout only, so the CSV is the same on every
//! machine. Two gates, checked after the row is written:
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
//! `cargo run -p bench --release -- scalability_sweep`

use bench::{export_telemetry, say, write_csv, Opts};
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

/// Runs [`ROUNDS`] request/reply exchanges against `server`, each on a fresh
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

const CLIENTS: u64 = 10_000;
/// Request/reply exchanges per client, each on a fresh connection.
const ROUNDS: u32 = 3;
const SEED: u64 = 23;

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

pub fn run(opts: &Opts) {
    say!(
        opts,
        "scalability sweep: {CLIENTS} clients x {ROUNDS} rounds"
    );

    let mut sim = Simulator::with_seed(SEED);
    // Server pool: one per 64 clients, on datacenter-ish links.
    let n_servers = (CLIENTS / 64).max(1);
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
    let client_ids: Vec<NodeId> = (0..CLIENTS)
        .map(|i| {
            sim.add_node(
                format!("c{i}"),
                client_iface,
                Box::new(ScaleClient {
                    server: servers[(i % n_servers) as usize],
                    idx: i,
                    rounds_left: ROUNDS,
                    req_bytes: 200 + (i % 800) as usize,
                    last_reply: SimTime::ZERO,
                }),
            )
        })
        .collect();

    #[expect(
        clippy::disallowed_methods,
        reason = "host-side progress report: the wall time is printed, never fed back into the simulation"
    )]
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
            "client {i} finished only {} of {ROUNDS} rounds",
            ROUNDS - left
        );
    }

    let stats = sim.stats();
    let eps = stats.events as f64 / wall_s.max(1e-9);
    let per_conn = stats.events as f64 / stats.conns_opened.max(1) as f64;
    say!(
        opts,
        "  {} events, {} connections ({per_conn:.3} a connection) in {wall_s:.2}s \
             -> {eps:.0} events/s",
        stats.events,
        stats.conns_opened
    );
    write_csv(
        opts,
        "scalability_sweep.csv",
        "clients,events,msgs,bytes,sim_s",
        &[format!(
            "{CLIENTS},{},{},{},{:.3}",
            stats.events,
            stats.msgs_delivered,
            stats.bytes_delivered,
            end.since(SimTime::ZERO).as_secs_f64()
        )],
    );
    export_telemetry(opts, "scalability_sweep");
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
