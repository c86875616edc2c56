//! What the transmit path promises: a connection serializes one message at
//! a time at its fair share of the link, so queued cells leave (and arrive)
//! one serialization time apart instead of waiting for a quantum to fill; a
//! flow's share does not leak or stick; the queue sees an event only for an
//! arrival or for something waiting behind a chunk; and a connection's state
//! is freed the moment it dies.

use simnet::{
    ConnId, Ctx, FaultAction, Iface, Node, NodeId, SimConfig, SimDuration, SimTime, Simulator,
    TransportCfg,
};

const CELL: usize = 514;
/// A Tor relay's uplink in Figure 5's network.
const LINK_BPS: u64 = 1_800_000;
const TICK: u64 = 1;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at(d: SimDuration) -> SimTime {
    SimTime::ZERO + d
}

/// Serialization time of one cell (with its header overhead) at `bps`.
fn cell_time(bps: u64) -> SimDuration {
    let overhead = TransportCfg::default().per_msg_overhead as u64;
    SimDuration::for_bytes(CELL as u64 + overhead, bps)
}

/// The congestion window opened wide from the first byte, so the link — not
/// slow start — sets every rate.
fn wide_open() -> Simulator {
    let open = 1 << 30;
    Simulator::new(SimConfig {
        seed: 1,
        transport: TransportCfg {
            init_cwnd: open,
            ssthresh: open,
            max_cwnd: open,
            ..TransportCfg::default()
        },
        ..SimConfig::default()
    })
}

/// 10 ms from the core, `LINK_BPS` each way: one-way 20 ms to a like peer,
/// established one round trip (40 ms) after the start.
fn link() -> Iface {
    Iface::symmetric(ms(10), LINK_BPS)
}

/// 10 ms from the core, no capacity limit: the sender's uplink is the only
/// bottleneck.
fn fat() -> Iface {
    Iface::symmetric(ms(10), 0)
}

const ONE_WAY: SimDuration = SimDuration(20_000_000);
const ESTABLISHED: SimDuration = SimDuration(40_000_000);

/// Records when each message arrived, and on which connection; and when
/// each connection closed.
#[derive(Default)]
struct Sink {
    got: Vec<(ConnId, SimTime)>,
    closed: Vec<SimTime>,
}

impl Node for Sink {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _msg: Vec<u8>) {
        self.got.push((conn, ctx.now()));
    }
    fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId) {
        self.closed.push(ctx.now());
    }
}

/// Opens one connection per flow at start. When a connection is established
/// it first arms the ticker (if the flow has one), then queues the flow's
/// burst of cells at once; each tick sends one more cell on the flow.
struct Source {
    flows: Vec<Flow>,
    /// When each tick's cell was handed to the transport.
    tick_sent: Vec<SimTime>,
}

struct Flow {
    dst: NodeId,
    burst: usize,
    /// (period, ticks left)
    ticker: Option<(SimDuration, usize)>,
    conn: Option<ConnId>,
}

impl Flow {
    fn burst(dst: NodeId, burst: usize) -> Flow {
        Flow {
            dst,
            burst,
            ticker: None,
            conn: None,
        }
    }
}

fn source(flows: Vec<Flow>) -> Box<Source> {
    Box::new(Source {
        flows,
        tick_sent: Vec::new(),
    })
}

impl Node for Source {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for f in &mut self.flows {
            f.conn = Some(ctx.connect(f.dst, 80));
        }
    }
    fn on_conn_established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: NodeId) {
        let (i, f) = (self.flows.iter().enumerate())
            .find(|(_, f)| f.conn == Some(conn))
            .expect("a flow's connection");
        if let Some((period, _)) = f.ticker {
            ctx.set_timer(period, TICK + i as u64);
        }
        for _ in 0..f.burst {
            ctx.send(conn, vec![0xCE; CELL]);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let f = &mut self.flows[(tag - TICK) as usize];
        let Some((period, left)) = f.ticker.as_mut() else {
            return;
        };
        *left -= 1;
        // The next tick is armed before this tick's send, so a tick that
        // coincides with the end of a chunk is handled before the wake-up
        // the send arms.
        if *left > 0 {
            ctx.set_timer(*period, tag);
        }
        self.tick_sent.push(ctx.now());
        ctx.send(f.conn.expect("connected"), vec![0xCE; CELL]);
    }
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
}

fn arrivals(sim: &Simulator, sink: NodeId) -> Vec<SimTime> {
    let sink = sim.node_ref::<Sink>(sink);
    sink.got.iter().map(|&(_, t)| t).collect()
}

/// Thirty cells queued at once leave one cell time apart and arrive one
/// cell time apart: the k-th at `k · t_cell + one_way` after the first
/// started — not together when a 16 KiB quantum has drained. The receiver's
/// equal downlink costs nothing: its share is the rate the cells already
/// have.
#[test]
fn queued_cells_arrive_one_serialization_time_apart() {
    let mut sim = wide_open();
    let sink = sim.add_node("sink", link(), Box::<Sink>::default());
    sim.add_node("src", link(), source(vec![Flow::burst(sink, 30)]));
    sim.run_until(at(ms(1_000)));

    let t_cell = cell_time(LINK_BPS);
    let expect: Vec<SimTime> = (1..=30)
        .map(|k| at(ESTABLISHED + t_cell * k + ONE_WAY))
        .collect();
    assert_eq!(arrivals(&sim, sink), expect);
}

/// A connection sending a cell every 5 ms beside a saturated connection on
/// the same uplink is never stuck behind the neighbour's backlog: each cell
/// starts at once at half the link and arrives within two cell times of
/// what an idle link would give it.
#[test]
fn a_sparse_flow_beside_a_saturated_one_keeps_idle_link_latency() {
    const TICKS: usize = 100;
    let mut sim = wide_open();
    let bulk_sink = sim.add_node("bulk-sink", fat(), Box::<Sink>::default());
    let sparse_sink = sim.add_node("sparse-sink", fat(), Box::<Sink>::default());
    let sparse = Flow {
        ticker: Some((ms(5), TICKS)),
        ..Flow::burst(sparse_sink, 0)
    };
    let src = sim.add_node(
        "src",
        link(),
        source(vec![Flow::burst(bulk_sink, 2_500), sparse]),
    );
    sim.run_until(at(ms(5_000)));

    let t_cell = cell_time(LINK_BPS);
    let idle = t_cell + ONE_WAY;
    let sent = sim.node_ref::<Source>(src).tick_sent.clone();
    let got = arrivals(&sim, sparse_sink);
    assert_eq!((sent.len(), got.len()), (TICKS, TICKS));
    for (k, (&s, &g)) in sent.iter().zip(&got).enumerate() {
        let latency = g - s;
        assert!(
            latency >= idle && latency <= idle + t_cell * 2,
            "tick {k}: latency {latency} against {idle} idle"
        );
    }
    let bulk = arrivals(&sim, bulk_sink);
    assert_eq!(bulk.len(), 2_500);
    assert!(
        bulk[bulk.len() - 1] > sent[TICKS - 1] + idle,
        "the neighbour stayed saturated throughout"
    );
}

/// Four equal flows on one uplink finish together, and all of them no
/// sooner than the uplink can carry their bytes.
#[test]
fn equal_flows_share_an_uplink_equally_and_within_capacity() {
    const CELLS: usize = 500;
    let mut sim = wide_open();
    let sinks: Vec<NodeId> = (0..4)
        .map(|i| sim.add_node(format!("sink{i}"), fat(), Box::<Sink>::default()))
        .collect();
    let flows = sinks.iter().map(|&s| Flow::burst(s, CELLS)).collect();
    let src = sim.add_node("src", link(), source(flows));
    sim.run_until(at(ms(10_000)));

    let done: Vec<SimDuration> = sinks
        .iter()
        .map(|&s| {
            let got = arrivals(&sim, s);
            assert_eq!(got.len(), CELLS);
            got[CELLS - 1] - at(ESTABLISHED + ONE_WAY)
        })
        .collect();
    let (first, last) = (
        done.iter().min().expect("four flows"),
        done.iter().max().expect("four flows"),
    );
    assert!(
        last.as_nanos() * 100 <= first.as_nanos() * 102,
        "finish times {done:?} more than 2 % apart"
    );
    // Every chunk's duration is rounded down to a whole nanosecond; allow
    // exactly that much.
    let chunks = 4 * CELLS as u64;
    let at_capacity = cell_time(LINK_BPS).as_nanos() * chunks;
    assert!(
        last.as_nanos() + chunks >= at_capacity,
        "{last} is faster than the uplink's {at_capacity} ns"
    );
    assert_eq!(sim.active_link_slots(src), (0, 0));
}

/// The transport's price in queue events: a message on an idle connection
/// is one event (its arrival); `n` queued at once are their arrivals plus
/// one wake-up behind each chunk that has a successor — a second message
/// queued behind a chunk arms it, a third adds none.
#[test]
fn completion_costs_an_event_only_when_something_waits() {
    let mut sim = wide_open();
    let sink = sim.add_node("sink", fat(), Box::<Sink>::default());
    let src = sim.add_node("src", link(), source(vec![Flow::burst(sink, 0)]));
    sim.run_until(at(ms(1_000)));
    let send = |sim: &mut Simulator, n: usize| {
        let before = sim.stats().events;
        sim.with_node::<Source, _>(src, |s, ctx| {
            for _ in 0..n {
                ctx.send(s.flows[0].conn.expect("connected"), vec![0xCE; CELL]);
            }
        });
        let until = sim.now() + ms(1_000);
        sim.run_until(until);
        sim.stats().events - before
    };
    assert_eq!(send(&mut sim, 1), 1, "a lone message is its arrival");
    assert_eq!(send(&mut sim, 1), 1, "and stays so: no completion is owed");
    assert_eq!(send(&mut sim, 2), 3, "the second armed one wake-up");
    assert_eq!(send(&mut sim, 200), 399);
    assert_eq!(arrivals(&sim, sink).len(), 204);
}

/// A `send` at exactly the instant a chunk ends starts the next chunk
/// before the wake-up armed for that instant fires. The stale wake-up must
/// be dropped, not re-armed: `K` such coincidences cost `K` stale events,
/// not a pile that grows with every one.
#[test]
fn a_send_at_the_chunk_boundary_leaves_one_wake_up() {
    const K: usize = 100;
    let t_cell = cell_time(LINK_BPS);
    let mut sim = wide_open();
    let sink = sim.add_node("sink", fat(), Box::<Sink>::default());
    // Two cells at establishment — the second waits, so a wake-up is
    // armed for the end of the first — and a tick at the end of every
    // chunk.
    let flow = Flow {
        ticker: Some((t_cell, K)),
        ..Flow::burst(sink, 2)
    };
    let src = sim.add_node("src", link(), source(vec![flow]));
    sim.run_until(at(ESTABLISHED));
    let before = sim.stats().events;
    sim.run_until(at(ms(1_000)));

    let sent = sim.node_ref::<Source>(src).tick_sent.clone();
    let boundaries: Vec<SimTime> = (1..=K as u64)
        .map(|k| at(ESTABLISHED + t_cell * k))
        .collect();
    assert_eq!(sent, boundaries, "every tick lands on a chunk boundary");
    let expect: Vec<SimTime> = (1..=K as u64 + 2)
        .map(|k| at(ESTABLISHED + t_cell * k + ONE_WAY))
        .collect();
    assert_eq!(arrivals(&sim, sink), expect, "the link never idles");
    // K ticks, K + 2 arrivals, and one wake-up per chunk that had a
    // successor (K + 1), of which the K armed for a tick's instant are
    // stale.
    assert_eq!(sim.stats().events - before, 3 * K as u64 + 3);
    assert_eq!(sim.active_link_slots(src), (0, 0));
    assert_eq!(sim.active_link_slots(sink), (0, 0));
}

/// Replies to every message with 600 bytes, and counts the closes it hears.
#[derive(Default)]
struct Replier {
    closed: u64,
}

impl Node for Replier {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _msg: Vec<u8>) {
        ctx.send(conn, vec![0x5A; 600]);
    }
    fn on_conn_closed(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {
        self.closed += 1;
    }
}

/// One exchange a tick, each on a fresh connection: connect and ask, and
/// hang up on the reply.
struct Caller {
    server: NodeId,
    left: u32,
    replies: u32,
}

impl Node for Caller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(ms(100), TICK);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let conn = ctx.connect(self.server, 80);
        ctx.send(conn, vec![0xC1; 300]);
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _msg: Vec<u8>) {
        self.replies += 1;
        ctx.close(conn);
        self.left -= 1;
        if self.left > 0 {
            ctx.set_timer(ms(100), TICK);
        }
    }
}

/// The event budget of a scale run: a connection that carries one exchange
/// costs its timer, two handshake events, two arrivals and the close — six
/// events. No chunk completion and no death of the closing side is among
/// them, nothing is owed at start-up, and nothing stays resident.
#[test]
fn a_one_exchange_connection_costs_six_events() {
    const N: u32 = 50;
    let mut sim = wide_open();
    let server = sim.add_node("server", link(), Box::<Replier>::default());
    let caller = Caller {
        server,
        left: N,
        replies: 0,
    };
    let client = sim.add_node("client", link(), Box::new(caller));
    sim.run_to_quiescence();
    assert_eq!(sim.node_ref::<Caller>(client).replies, N);
    assert_eq!(sim.stats().events, u64::from(6 * N));
    assert_eq!(sim.stats().conns_opened, u64::from(N));
    assert_eq!(sim.live_conn_halves(), 0);
}

/// Many callers churning through short connections: at every step the
/// connections the simulator holds are exactly the ones no close has reached
/// yet, so residency follows the connections open now and ends at zero.
#[test]
fn churned_connections_are_freed_as_they_close() {
    const CALLERS: u32 = 20;
    const ROUNDS: u32 = 10;
    let mut sim = wide_open();
    let server = sim.add_node("server", link(), Box::<Replier>::default());
    let callers: Vec<NodeId> = (0..CALLERS)
        .map(|i| {
            let caller = Caller {
                server,
                left: ROUNDS,
                replies: 0,
            };
            sim.add_node(format!("caller{i}"), link(), Box::new(caller))
        })
        .collect();
    let mut peak = 0;
    sim.step_until(ms(5), at(ms(10_000)), |sim| {
        let closed = sim.node_ref::<Replier>(server).closed;
        let open = (sim.stats().conns_opened - closed) as usize;
        let resident = sim.live_conn_halves() / 2;
        assert_eq!(resident, open, "resident vs open at {}", sim.now());
        peak = peak.max(resident);
        false
    });
    assert_eq!(
        peak, CALLERS as usize,
        "every caller had a connection open at once"
    );
    for caller in callers {
        assert_eq!(sim.node_ref::<Caller>(caller).replies, ROUNDS);
    }
    assert_eq!(sim.stats().conns_opened, u64::from(CALLERS * ROUNDS));
    assert_eq!(sim.live_conn_halves(), 0);
}

/// Sends one three-chunk message at establishment and closes 5 ms later,
/// while the first chunk is still serializing.
struct ClosesMidChunk {
    dst: NodeId,
    conn: Option<ConnId>,
    /// What `send` said right after the close.
    late_send: Option<bool>,
}

impl Node for ClosesMidChunk {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = Some(ctx.connect(self.dst, 80));
    }
    fn on_conn_established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: NodeId) {
        ctx.send(conn, vec![7; 40_000]);
        ctx.set_timer(ms(5), TICK);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let conn = self.conn.expect("connected");
        ctx.close(conn);
        self.late_send = Some(ctx.send(conn, vec![8; CELL]));
    }
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
}

/// A close that lands while the closer is mid-chunk waits for the data
/// queued ahead of it: the peer gets the whole message and hears the close
/// at the same instant, behind it. The close costs the wake-up it waited on
/// and its own arrival, and leaves neither a half nor a slot.
#[test]
fn a_close_mid_chunk_follows_the_data_out() {
    let cfg = TransportCfg::default();
    let wire = 40_000 + u64::from(cfg.per_msg_overhead);
    let chunk = u64::from(cfg.chunk);
    let serialized = SimDuration::for_bytes(chunk, LINK_BPS) * 2
        + SimDuration::for_bytes(wire - 2 * chunk, LINK_BPS);
    let mut sim = wide_open();
    let sink = sim.add_node("sink", fat(), Box::<Sink>::default());
    let closer = ClosesMidChunk {
        dst: sink,
        conn: None,
        late_send: None,
    };
    let src = sim.add_node("src", link(), Box::new(closer));
    sim.run_until(at(ESTABLISHED));
    let before = sim.stats().events;
    sim.run_until(at(ESTABLISHED + ms(6)));
    assert_eq!(sim.node_ref::<ClosesMidChunk>(src).late_send, Some(false));
    assert_eq!(sim.active_link_slots(src), (1, 0));
    sim.run_to_quiescence();

    let landed = at(ESTABLISHED + serialized + ONE_WAY);
    assert_eq!(arrivals(&sim, sink), [landed]);
    assert_eq!(sim.node_ref::<Sink>(sink).closed, [landed]);
    // The timer, a wake-up behind each of the three chunks (the message's
    // remainder twice, then the close), the arrival and the close.
    assert_eq!(sim.stats().events - before, 6);
    assert_eq!(sim.live_conn_halves(), 0);
    assert_eq!(sim.active_link_slots(src), (0, 0));
}

/// A chunk holds one slot on the sender's uplink and one on the receiver's
/// downlink while it serializes, and lets go when its time is up — whether
/// or not the connection lived to see it.
#[test]
fn a_crash_mid_chunk_leaves_no_slot_behind() {
    let mut sim = wide_open();
    let sink = sim.add_node("sink", link(), Box::<Sink>::default());
    let src = sim.add_node("src", link(), source(vec![Flow::burst(sink, 0)]));
    sim.run_until(at(ms(100)));
    // 100 KB: seven chunks of up to 16 KiB, 9.1 ms each.
    sim.with_node::<Source, _>(src, |s, ctx| {
        ctx.send(s.flows[0].conn.expect("connected"), vec![0; 100_000]);
    });
    sim.inject_fault(at(ms(105)), FaultAction::Crash(sink));
    sim.run_until(at(ms(104)));
    assert_eq!(sim.active_link_slots(src), (1, 0));
    assert_eq!(sim.active_link_slots(sink), (0, 1));
    sim.run_until(at(ms(1_000)));
    assert!(sim.is_crashed(sink));
    assert_eq!(sim.active_link_slots(src), (0, 0));
    assert_eq!(sim.active_link_slots(sink), (0, 0));
    assert_eq!(sim.live_conn_halves(), 0);
}
