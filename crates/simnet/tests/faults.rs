//! Fault-plane tests: crash + restart leaves the simulator's flow and timer
//! bookkeeping consistent, a partition is a real cut — no message crosses
//! it, in either direction, for any schedule — and the two link
//! degradations do exactly what they say: corruption flips one byte of a
//! counted message, a latency spike adds exactly its `extra`.

use proptest::prelude::*;
use simnet::{
    ConnId, Ctx, FaultPlan, Iface, LinkFault, Node, NodeId, SimDuration, SimTime, Simulator,
};
use std::collections::{BTreeMap, BTreeSet};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Echoes every message back.
struct Echo;
impl Node for Echo {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        ctx.send(conn, msg);
    }
}

/// Timer tag a Chatter arms far in the future; it must fire exactly once
/// per incarnation that lives long enough — never from a dead incarnation.
const STALE: u64 = 77;

/// Connects to the echo hub on (re)start, streams payloads, counts replies,
/// and arms one long timer whose pre-crash incarnation must never fire.
struct Chatter {
    hub: NodeId,
    payload: usize,
    /// Replies received since the most recent (re)start.
    replies_this_life: u32,
    /// Lifetimes begun (1 after first start, 2 after a restart).
    lives: u32,
    /// Times the STALE timer fired.
    stale_fires: u32,
}

impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.lives += 1;
        let c = ctx.connect(self.hub, 80);
        for _ in 0..4 {
            ctx.send(c, vec![0xCD; self.payload]);
        }
        ctx.set_timer(SimDuration::from_secs(20), STALE);
    }

    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {
        self.replies_this_life += 1;
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
        if tag == STALE {
            self.stale_fires += 1;
        }
    }

    fn on_crash(&mut self) {
        // Volatile state dies with the process; counters of *observed*
        // history (lives, stale_fires) model what the test harness knows.
        self.replies_this_life = 0;
    }
}

proptest! {
    /// Crash a leaf mid-transfer at an arbitrary moment, restart it a bit
    /// later: the simulator's fair-share flow slots drain to zero on both
    /// ends (nothing dangles on the hub for flows the crash vaporised), the
    /// reborn leaf talks again, and the dead incarnation's long timer never
    /// fires — only the new incarnation's does, exactly once.
    #[test]
    fn crash_restart_leaves_bookkeeping_consistent(
        payload in 1usize..200_000,
        crash_ms in 1u64..3_000,
        restart_after_ms in 1u64..3_000,
    ) {
        let mut sim = Simulator::with_seed(9);
        let hub = sim.add_node("hub", Iface::residential(), Box::new(Echo));
        let leaf = sim.add_node(
            "leaf",
            Iface::residential(),
            Box::new(Chatter {
                hub,
                payload,
                replies_this_life: 0,
                lives: 0,
                stale_fires: 0,
            }),
        );
        let crash_at = SimTime::ZERO + ms(crash_ms);
        sim.install_faults(
            FaultPlan::new()
                .crash(crash_at, leaf)
                .restart(crash_at + ms(restart_after_ms), leaf),
        );
        // Far past the new incarnation's 20 s STALE deadline; the old
        // incarnation's (set before the crash) must have been suppressed.
        sim.run_until(secs(40));

        prop_assert_eq!(sim.active_link_slots(hub), (0, 0), "hub slots drained");
        prop_assert_eq!(sim.active_link_slots(leaf), (0, 0), "leaf slots drained");
        prop_assert!(!sim.is_crashed(leaf));
        let stats = sim.fault_stats();
        prop_assert_eq!((stats.crashes, stats.restarts), (1, 1));
        let (lives, replies, stale) = sim.with_node::<Chatter, _>(leaf, |n, _| {
            (n.lives, n.replies_this_life, n.stale_fires)
        });
        prop_assert_eq!(lives, 2, "restart re-ran on_start");
        prop_assert_eq!(stale, 1, "only the live incarnation's timer fired");
        prop_assert_eq!(replies, 4, "the reborn leaf completed its exchange");
    }
}

/// The message a [`Ticker`] sends as number `seq`: the big-endian sequence
/// number, then `pad` bytes that differ from message to message.
fn tick(seq: u32, pad: usize) -> Vec<u8> {
    let mut m = seq.to_be_bytes().to_vec();
    m.extend((0..pad).map(|i| (seq as usize * 7 + i) as u8));
    m
}

/// Sends message `seq` to `target` at `(seq + 1) × 100 ms`, until 12 s.
struct Ticker {
    target: NodeId,
    pad: usize,
    conn: Option<ConnId>,
    seq: u32,
}
const TICK: u64 = 1;
impl Node for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = Some(ctx.connect(self.target, 80));
        ctx.set_timer(ms(100), TICK);
    }
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag != TICK {
            return;
        }
        if let Some(c) = self.conn {
            ctx.send(c, tick(self.seq, self.pad));
            self.seq += 1;
        }
        if ctx.now() < secs(12) {
            ctx.set_timer(ms(100), TICK);
        }
    }
}

/// Records every message it receives with its arrival time.
struct Sink {
    got: Vec<(Vec<u8>, SimTime)>,
}
impl Node for Sink {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, msg: Vec<u8>) {
        self.got.push((msg, ctx.now()));
    }
}

fn seq_of(msg: &[u8]) -> u32 {
    u32::from_be_bytes(msg[..4].try_into().unwrap())
}

/// One ticker → sink run over 14 s under the plan `faults(ticker, sink)`.
struct Ticks {
    got: Vec<(Vec<u8>, SimTime)>,
    sent: u32,
    /// `(msgs_dropped, msgs_corrupted)`.
    faults: (u64, u64),
}

fn run_ticks(seed: u64, pad: usize, faults: impl FnOnce(NodeId, NodeId) -> FaultPlan) -> Ticks {
    let mut sim = Simulator::with_seed(seed);
    let sink = sim.add_node(
        "sink",
        Iface::residential(),
        Box::new(Sink { got: Vec::new() }),
    );
    let ticker = sim.add_node(
        "ticker",
        Iface::residential(),
        Box::new(Ticker {
            target: sink,
            pad,
            conn: None,
            seq: 0,
        }),
    );
    sim.install_faults(faults(ticker, sink));
    sim.run_until(secs(14));
    let f = sim.fault_stats();
    Ticks {
        got: sim.with_node::<Sink, _>(sink, |n, _| std::mem::take(&mut n.got)),
        sent: sim.with_node::<Ticker, _>(ticker, |n, _| n.seq),
        faults: (f.msgs_dropped, f.msgs_corrupted),
    }
}

/// Partition + heal is a clean cut: while the partition holds, nothing at
/// all is delivered across it — messages in flight when it lands, and
/// messages sent into it, are dropped rather than delayed — and traffic
/// resumes after the heal.
#[test]
fn partition_delivers_nothing_across_the_cut() {
    let run = run_ticks(21, 0, |ticker, _| {
        FaultPlan::new()
            .partition(secs(5), vec![ticker])
            .heal(secs(8))
    });
    let got = &run.got;
    assert!(!got.is_empty());
    for (msg, at) in got {
        assert!(
            *at < secs(5) || *at >= secs(8),
            "seq {} crossed the partition at {at:?}",
            seq_of(msg)
        );
    }
    // Dropped, not delayed: ~30 ticks fall inside the cut and never arrive.
    let dropped = run.faults.0;
    assert!(dropped >= 25, "partitioned sends were dropped: {dropped}");
    let last = got.iter().map(|(m, _)| seq_of(m)).max().unwrap();
    assert!(
        got.iter().any(|&(_, at)| at >= secs(8)),
        "delivery resumed after the heal (last seq {last})"
    );
    // The two sides of the cut agree on what was lost: everything received
    // is everything sent, minus exactly the in-cut sequence numbers.
    let received: BTreeSet<u32> = got.iter().map(|(m, _)| seq_of(m)).collect();
    assert!(received.len() < run.sent as usize, "some ticks were lost");
}

/// A corrupting link flips exactly one byte of each message it corrupts,
/// counts every one in `FaultStats::msgs_corrupted`, delivers everything
/// (corruption is not loss), touches nothing once `link_clear` lands, and
/// replays identically from its seed.
#[test]
fn corruption_flips_one_byte_per_counted_message() {
    const PAD: usize = 60;
    let plan = |ticker, sink| {
        FaultPlan::new()
            .link(secs(1), ticker, sink, LinkFault::corrupt_pct(20.0))
            .link_clear(secs(9), ticker, sink)
    };
    let run = run_ticks(5, PAD, plan);
    assert_eq!(run.got.len(), run.sent as usize, "nothing lost");
    assert_eq!(run.faults.0, 0);
    let mut corrupted = Vec::new();
    // One connection delivers in order: the i-th arrival is message i.
    for (seq, (msg, _)) in (0u32..).zip(&run.got) {
        let sent = tick(seq, PAD);
        assert_eq!(msg.len(), sent.len());
        let flipped = msg.iter().zip(&sent).filter(|(a, b)| a != b).count();
        assert!(flipped <= 1, "seq {seq}: {flipped} bytes changed");
        if flipped == 1 {
            corrupted.push(seq);
        }
    }
    assert!(!corrupted.is_empty(), "20% of ~80 messages corrupted");
    assert_eq!(corrupted.len() as u64, run.faults.1, "every flip counted");
    for seq in &corrupted {
        let sent_at = SimTime::ZERO + ms(100 * (*seq as u64 + 1));
        assert!(
            (secs(1)..=secs(9)).contains(&sent_at),
            "seq {seq} sent at {sent_at:?}, outside the fault window"
        );
    }
    let again = run_ticks(5, PAD, plan);
    assert_eq!((&again.got, again.faults), (&run.got, run.faults), "replay");
}

/// A latency spike delays each message that enters the wire while it is in
/// force by exactly `extra`, and nothing else: the ticks sent at 3.1 s …
/// 6.0 s (seq 30–59) arrive `extra` later than on a healthy link.
#[test]
fn latency_spike_delays_by_exactly_extra() {
    let extra = ms(250);
    let by_seq = |run: Ticks| -> BTreeMap<u32, SimTime> {
        run.got.iter().map(|(m, at)| (seq_of(m), *at)).collect()
    };
    let healthy = by_seq(run_ticks(13, 0, |_, _| FaultPlan::new()));
    let spiked = by_seq(run_ticks(13, 0, |ticker, sink| {
        FaultPlan::new()
            .link(
                SimTime::ZERO + ms(3_050),
                ticker,
                sink,
                LinkFault::latency_spike(extra),
            )
            .link_clear(SimTime::ZERO + ms(6_050), ticker, sink)
    }));
    let mut delayed = Vec::new();
    assert_eq!(
        spiked.keys().collect::<Vec<_>>(),
        healthy.keys().collect::<Vec<_>>()
    );
    for (seq, at) in &spiked {
        let late = *at - healthy[seq];
        assert!(
            late == SimDuration::default() || late == extra,
            "seq {seq} late by {late:?}"
        );
        if late == extra {
            delayed.push(*seq);
        }
    }
    assert_eq!(delayed, (30..60).collect::<Vec<u32>>());
}
