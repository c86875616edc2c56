//! Property-based tests: codec roundtrips, decoder robustness, and
//! transport invariants under arbitrary inputs.

use proptest::prelude::*;
use simnet::wire::{Reader, Writer};
use simnet::{Iface, SimDuration};

proptest! {
    /// Every (u64, bytes, str, varint) tuple roundtrips exactly.
    #[test]
    fn wire_roundtrip(a: u64, b in proptest::collection::vec(any::<u8>(), 0..2048),
                      s in "\\PC{0,64}", v: u64, flag: bool) {
        let mut w = Writer::new();
        w.u64(a).bytes(&b).str(&s).varu64(v).bool(flag);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.u64().unwrap(), a);
        prop_assert_eq!(r.bytes("b").unwrap(), &b[..]);
        prop_assert_eq!(r.str("s").unwrap(), s);
        prop_assert_eq!(r.varu64().unwrap(), v);
        prop_assert_eq!(r.bool().unwrap(), flag);
        r.finish().unwrap();
    }

    /// The decoder never panics on arbitrary garbage, whatever we ask of it.
    #[test]
    fn reader_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut r = Reader::new(&garbage);
        let _ = r.clone().u8();
        let _ = r.clone().u16();
        let _ = r.clone().u32();
        let _ = r.clone().u64();
        let _ = r.clone().varu64();
        let _ = r.clone().bytes("x");
        let _ = r.str("y");
    }

    /// Varints use minimal space and roundtrip at every magnitude.
    #[test]
    fn varint_roundtrip(v: u64) {
        let mut w = Writer::new();
        w.varu64(v);
        let buf = w.into_bytes();
        prop_assert!(buf.len() <= 10);
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.varu64().unwrap(), v);
    }

    /// Link fair shares always partition the capacity sanely.
    #[test]
    fn iface_share_bounds(cap in 1u64..u64::MAX / 2, n in 0usize..10_000) {
        let i = Iface::symmetric(SimDuration::ZERO, cap);
        let share = i.up_share(n);
        prop_assert!(share >= 1);
        prop_assert!(share <= cap);
        if n > 0 {
            // Shares never overcommit by more than rounding.
            prop_assert!(share.saturating_mul(n as u64) <= cap.saturating_add(n as u64));
        }
    }

    /// Transfer-time arithmetic never panics or divides by zero.
    #[test]
    fn for_bytes_total(bytes: u64, rate: u64) {
        let d = SimDuration::for_bytes(bytes, rate);
        // Zero rate means "ideal" (zero time); otherwise monotone in bytes.
        if rate > 0 && bytes > 0 {
            prop_assert!(d >= SimDuration::for_bytes(bytes - 1, rate));
        } else if rate == 0 {
            prop_assert_eq!(d, SimDuration::ZERO);
        }
    }
}

// ---------------------------------------------------------------------------
// Timer semantics at the Simulator level: cancelled timers never fire, live
// timers all fire exactly once in schedule order — including under enough
// set/cancel churn to drive the tombstone-pruning sweep in `cancel_timer`.
// ---------------------------------------------------------------------------

use simnet::{Ctx, Iface as SimIface, Node, SimTime, Simulator};

/// Driver timer tag (re-arms itself to generate churn).
const DRIVER: u64 = u64::MAX;
/// Victim timer tag: set and immediately cancelled each churn round, so it
/// must never reach `on_timer`.
const VICTIM: u64 = u64::MAX - 1;

struct TimerHarness {
    /// Delay (µs) of each long-lived timer; its index is its tag.
    delays: Vec<u64>,
    /// Which long-lived timers get cancelled right after being set.
    cancel: Vec<bool>,
    /// Set/cancel churn rounds to run before the long-lived timers fire.
    churn_rounds: u32,
    /// Tags observed in `on_timer`, in firing order.
    fired: Vec<u64>,
}

impl Node for TimerHarness {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Long-lived timers, interleaved with their cancellations.
        let ids: Vec<_> = self
            .delays
            .iter()
            .enumerate()
            .map(|(i, &us)| ctx.set_timer(SimDuration::from_micros(1_000 + us), i as u64))
            .collect();
        for (id, &cancel) in ids.into_iter().zip(self.cancel.iter()) {
            if cancel {
                ctx.cancel_timer(id);
            }
        }
        if self.churn_rounds > 0 {
            ctx.set_timer(SimDuration::from_micros(2), DRIVER);
        }
    }

    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: simnet::ConnId, _msg: Vec<u8>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            DRIVER => {
                self.churn_rounds -= 1;
                // A short-lived victim: it pops (tombstoned) before the next
                // driver tick, leaving a stale tombstone the pruning sweep
                // must eventually collect — without ever firing it.
                let victim = ctx.set_timer(SimDuration::from_micros(1), VICTIM);
                ctx.cancel_timer(victim);
                if self.churn_rounds > 0 {
                    ctx.set_timer(SimDuration::from_micros(2), DRIVER);
                }
            }
            _ => self.fired.push(tag),
        }
    }
}

proptest! {
    /// Same seed in, same firing schedule out: cancelled timers are silent,
    /// the rest fire exactly once, ordered by (deadline, insertion order).
    #[test]
    fn cancelled_timers_never_fire(
        delays in proptest::collection::vec(0u64..5_000, 1..24),
        cancel in proptest::collection::vec(any::<bool>(), 24..25),
        churn_rounds in 0u32..160,
    ) {
        let mut sim = Simulator::with_seed(7);
        let node = sim.add_node(
            "timers",
            SimIface::ideal(),
            Box::new(TimerHarness {
                delays: delays.clone(),
                cancel: cancel.clone(),
                churn_rounds,
                fired: Vec::new(),
            }),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));

        let fired = sim.with_node::<TimerHarness, _>(node, |n, _| n.fired.clone());
        // Expected: non-cancelled long-lived tags, stably ordered by
        // deadline (ties resolve to insertion order — the queue's seq).
        let mut expect: Vec<(u64, u64)> = delays
            .iter()
            .enumerate()
            .filter(|(i, _)| !cancel[*i])
            .map(|(i, &us)| (us, i as u64))
            .collect();
        expect.sort();
        let expect: Vec<u64> = expect.into_iter().map(|(_, tag)| tag).collect();
        prop_assert_eq!(fired, expect);
    }
}

// ---------------------------------------------------------------------------
// Sharded-engine properties: the partition is a pure function of node id, the
// cross-shard exchange makes results invariant under shard count, and with
// unlimited downlinks every message of a burst arrives at the nanosecond the
// serial engine delivers it.
// ---------------------------------------------------------------------------

use simnet::{shard_of, ConnId, NodeId, SimConfig};

/// Echoes every message back.
struct PropEcho;
impl Node for PropEcho {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        ctx.send(conn, msg);
    }
}

/// Connects to `target` at start, sends a burst of `burst` messages — the
/// first of `payload` bytes, each next one half the size — and records when
/// each echo lands.
struct PropPinger {
    target: NodeId,
    payload: usize,
    burst: usize,
    replies_at: Vec<u64>,
}
impl Node for PropPinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let c = ctx.connect(self.target, 80);
        for k in 0..self.burst {
            ctx.send(c, vec![0xAB; 1 + (self.payload >> k)]);
        }
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {
        self.replies_at.push(ctx.now().as_nanos());
    }
}

/// One pinger/echo pair: `(latency ms, up kB/s, first payload, burst)`.
type PingRow = (u64, u64, usize, usize);

/// Build a pinger/echo topology from [`PingRow`]s and run it to quiescence
/// on the given engine config. Downlinks are unlimited so the serial
/// fair-share model and the sharded ingress-pipe model agree on receive-side
/// cost (zero), which is what makes serial arrival times a comparable
/// baseline. Returns per-pinger echo times keyed by the echo node's id
/// (connection ids differ between engines; node ids do not).
fn run_topology(rows: &[PingRow], shards: usize) -> (Vec<(u32, Vec<u64>)>, u64, u64) {
    let mut sim = Simulator::new(SimConfig {
        seed: 11,
        shards,
        ..SimConfig::default()
    });
    let mut pingers = Vec::new();
    for (i, &(lat_ms, up_kbps, payload, burst)) in rows.iter().enumerate() {
        let iface = SimIface {
            latency: SimDuration::from_millis(1 + lat_ms),
            up_bps: up_kbps * 1000,
            down_bps: 0,
        };
        let echo = sim.add_node(format!("echo{i}"), iface, Box::new(PropEcho));
        let ping = sim.add_node(
            format!("ping{i}"),
            iface,
            Box::new(PropPinger {
                target: echo,
                payload,
                burst,
                replies_at: Vec::new(),
            }),
        );
        pingers.push((ping, echo));
    }
    sim.run_to_quiescence();
    let mut out = Vec::new();
    for &(ping, echo) in &pingers {
        let (at, burst) =
            sim.with_node::<PropPinger, _>(ping, |n, _| (n.replies_at.clone(), n.burst));
        assert_eq!(at.len(), burst, "every pinger hears every echo");
        out.push((echo.0, at));
    }
    let stats = sim.stats();
    (out, stats.msgs_delivered, stats.bytes_delivered)
}

proptest! {
    /// `shard_of` is total (never panics, always in range) and depends only
    /// on the node id and shard count.
    #[test]
    fn shard_partition_is_total_and_deterministic(id: u32, shards in 0usize..64) {
        let s = shard_of(NodeId(id), shards);
        prop_assert!(s < shards.max(1));
        prop_assert_eq!(s, shard_of(NodeId(id), shards));
        // Placement ignores everything but (id, shards): recomputing through
        // a fresh NodeId value cannot move the node.
        prop_assert_eq!(s, shard_of(NodeId(id.wrapping_add(0)), shards));
    }

    /// Cross-shard exchange ordering is invariant under shard count: the same
    /// topology produces identical delivery times and counters at any
    /// `--shards N >= 1`.
    #[test]
    fn sharded_results_invariant_under_shard_count(
        rows in proptest::collection::vec((0u64..40, 50u64..500, 0usize..30_000, 1usize..6), 1..5),
    ) {
        let base = run_topology(&rows, 1);
        for shards in [2usize, 3, 4] {
            let got = run_topology(&rows, shards);
            prop_assert_eq!(&got, &base, "diverged at shards={}", shards);
        }
    }

    /// One queueing model on the sender's side: with unlimited downlinks the
    /// two engines' cost models coincide, so the sharded engine delivers
    /// every echo of every burst — queued messages, messages of several
    /// chunks, slow start — at its serial arrival time, to the nanosecond.
    /// (In particular conservative lookahead never delivers one earlier.)
    #[test]
    fn lookahead_never_beats_serial_arrival(
        rows in proptest::collection::vec((0u64..40, 50u64..500, 0usize..30_000, 1usize..6), 1..4),
    ) {
        let serial = run_topology(&rows, 0);
        let sharded = run_topology(&rows, 3);
        prop_assert_eq!(&sharded, &serial);
    }
}

// ---------------------------------------------------------------------------
// Connection-half lifecycle on the sharded engine: halves live in their
// owner's node-local tables and are dropped once dead, so every schedule of
// connects, sends and closes — closes racing the peer's in-flight chunk,
// sends after close, loopback, several connections between one pair — must
// still play out identically at any shard count.
// ---------------------------------------------------------------------------

/// One transcript line: `(time ns, what, conn id, detail)`.
type Line = (u64, u8, u64, u64);

const L_OPEN: u8 = 1;
const L_ESTABLISHED: u8 = 2;
const L_MSG: u8 = 3;
const L_CLOSED: u8 = 4;
const L_CONNECT: u8 = 5;
const L_SEND: u8 = 6;
const L_CLOSE: u8 = 7;

/// Plays a fixed script of `(at ms, op, a, b)` steps, one timer each, and
/// logs every callback and every step's outcome.
struct Scripted {
    nodes: u32,
    script: Vec<(u64, u8, usize, usize)>,
    /// Connections this node opened or accepted, in the order it learned of
    /// them; steps address them by index.
    known: Vec<ConnId>,
    log: Vec<Line>,
}

impl Scripted {
    /// `peer_of` as a number: 0 for `None`, else the peer's id + 1.
    fn peer_code(ctx: &Ctx<'_>, conn: ConnId) -> u64 {
        ctx.peer_of(conn).map_or(0, |p| u64::from(p.0) + 1)
    }
}

impl Node for Scripted {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, step) in self.script.iter().enumerate() {
            ctx.set_timer(SimDuration::from_millis(step.0), i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let (_, op, a, b) = self.script[tag as usize];
        let now = ctx.now().as_nanos();
        if op == 0 {
            let target = NodeId(a as u32 % self.nodes);
            let conn = ctx.connect(target, 80);
            self.known.push(conn);
            self.log.push((now, L_CONNECT, conn.0, u64::from(target.0)));
        } else if let Some(&conn) = self.known.get(a % self.known.len().max(1)) {
            if op == 1 {
                let sent = ctx.send(conn, vec![0x42; 1 + b]);
                self.log.push((now, L_SEND, conn.0, u64::from(sent)));
            } else {
                ctx.close(conn);
                self.log
                    .push((now, L_CLOSE, conn.0, Self::peer_code(ctx, conn)));
            }
        }
    }
    fn on_conn_open(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: NodeId, port: u16) {
        self.known.push(conn);
        let detail = u64::from(peer.0) << 16 | u64::from(port);
        self.log
            .push((ctx.now().as_nanos(), L_OPEN, conn.0, detail));
    }
    fn on_conn_established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: NodeId) {
        let now = ctx.now().as_nanos();
        self.log
            .push((now, L_ESTABLISHED, conn.0, u64::from(peer.0)));
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        self.log
            .push((ctx.now().as_nanos(), L_MSG, conn.0, msg.len() as u64));
    }
    fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        let now = ctx.now().as_nanos();
        self.log
            .push((now, L_CLOSED, conn.0, Self::peer_code(ctx, conn)));
    }
}

/// What a run of scripted nodes leaves behind.
#[derive(Debug, PartialEq)]
struct ScriptedOutcome {
    logs: Vec<Vec<Line>>,
    stats: simnet::sim::SimStats,
    slots: Vec<(u32, u32)>,
    live_halves: usize,
}

/// One scripted node per row: `(latency ms, up kB/s, down kB/s or 0 for
/// unlimited)` and its script.
type ScriptedRow = ((u64, u64, u64), Vec<(u64, u8, usize, usize)>);

fn run_scripted(rows: &[ScriptedRow], shards: usize) -> ScriptedOutcome {
    let mut sim = Simulator::new(SimConfig {
        seed: 5,
        shards,
        ..SimConfig::default()
    });
    let ids: Vec<NodeId> = rows
        .iter()
        .enumerate()
        .map(|(i, ((lat_ms, up_kbps, down_kbps), script))| {
            let iface = SimIface {
                // Nonzero, or two shards would have no lookahead.
                latency: SimDuration::from_millis(1 + lat_ms),
                up_bps: up_kbps * 1000,
                down_bps: down_kbps * 1000,
            };
            let node = Scripted {
                nodes: rows.len() as u32,
                script: script.clone(),
                known: Vec::new(),
                log: Vec::new(),
            };
            sim.add_node(format!("s{i}"), iface, Box::new(node))
        })
        .collect();
    sim.run_to_quiescence();
    ScriptedOutcome {
        logs: ids
            .iter()
            .map(|&id| sim.node_ref::<Scripted>(id).log.clone())
            .collect(),
        stats: sim.stats(),
        slots: ids.iter().map(|&id| sim.active_link_slots(id)).collect(),
        live_halves: sim.live_conn_halves(),
    }
}

proptest! {
    /// Few nodes, slow uplinks, messages of up to three chunks and steps a
    /// few milliseconds apart: closes land while the peer is mid-chunk,
    /// sends hit closed connections, pairs hold several connections and
    /// nodes connect to themselves. Three shards split the nodes unevenly.
    #[test]
    fn half_lifecycle_invariant_under_shards(
        rows in proptest::collection::vec(
            (
                (0u64..12, 20u64..400, 0u64..400),
                proptest::collection::vec((0u64..60, 0u8..3, 0usize..8, 0usize..40_000), 1..12),
            ),
            2..5,
        ),
    ) {
        let base = run_scripted(&rows, 1);
        // A chunk that outlives its half must still give its uplink slot back.
        prop_assert!(base.slots.iter().all(|s| *s == (0, 0)), "slots leaked: {:?}", base.slots);
        for shards in [2usize, 3, 4, 8] {
            let got = run_scripted(&rows, shards);
            prop_assert_eq!(&got, &base, "diverged at shards={}", shards);
        }
    }
}
