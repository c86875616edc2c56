//! The simulator: owns the clock, the event queue, the nodes, their access
//! interfaces, every connection's transport state, and the sniffers.

use crate::event::{EventKind, EventQueue, FlowDir};
use crate::fault::{FaultAction, FaultPlan, FaultStats, LinkFault};
use crate::iface::Iface;
use crate::node::{ConnId, Ctx, CtxInner, Node, NodeId};
use crate::shard::ShardedSim;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Direction, Sniffer, TraceEvent};
use crate::transport::{Cwnd, TransportCfg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
// bento-lint: allow(BL001) -- HashSet here is only `cancelled_timers` (see below)
use std::collections::{BTreeMap, HashSet, VecDeque};

// Telemetry is flushed once per `run_until` call, not per event: the hot
// loop accumulates into plain `SimStats`/`BufPool` fields exactly as before
// and the epilogue reports the deltas. Only the per-delivery message-size
// histogram records inline (and only in `Mode::Full`).
static T_EVENTS: telemetry::Counter = telemetry::Counter::new("simnet.events");
static T_MSGS: telemetry::Counter = telemetry::Counter::new("simnet.msgs_delivered");
static T_BYTES: telemetry::Counter = telemetry::Counter::new("simnet.bytes_delivered");
static T_CONNS: telemetry::Counter = telemetry::Counter::new("simnet.conns_opened");
static T_POOL_HITS: telemetry::Counter = telemetry::Counter::new("simnet.pool.hits");
static T_POOL_MISSES: telemetry::Counter = telemetry::Counter::new("simnet.pool.misses");
static T_POOL_RECYCLED: telemetry::Counter = telemetry::Counter::new("simnet.pool.recycled");
static T_TIMER_SWEEPS: telemetry::Counter =
    telemetry::Counter::new("simnet.timer_tombstone_sweeps");
static T_QUEUE_DEPTH: telemetry::Gauge = telemetry::Gauge::new("simnet.queue_depth");
static T_MSG_BYTES: telemetry::Histo = telemetry::Histo::new("simnet.msg_bytes");
static T_RUN: telemetry::Span = telemetry::Span::new("simnet.run_until");
static T_FAULT_CRASHES: telemetry::Counter = telemetry::Counter::new("simnet.fault.crashes");
static T_FAULT_RESTARTS: telemetry::Counter = telemetry::Counter::new("simnet.fault.restarts");
static T_FAULT_DROPPED: telemetry::Counter = telemetry::Counter::new("simnet.fault.msgs_dropped");
static T_FAULT_CORRUPTED: telemetry::Counter =
    telemetry::Counter::new("simnet.fault.msgs_corrupted");
static T_FAULT_REFUSED: telemetry::Counter = telemetry::Counter::new("simnet.fault.conns_refused");

/// Top-level configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Seed for the simulation's single RNG; equal seeds give equal runs.
    pub seed: u64,
    /// Transport cost-model parameters.
    pub transport: TransportCfg,
    /// `0` (default) selects the classic serial engine. `N >= 1` selects the
    /// sharded conservative-PDES engine ([`crate::shard`]) with `N` shards;
    /// sharded results are byte-identical for every `N >= 1` but use a
    /// slightly different (partition-independent) transport model than the
    /// serial engine, so `0` and `N >= 1` are distinct baselines.
    pub shards: usize,
    /// Worker threads for the sharded engine's window loop: `0` (default)
    /// means one per available core, capped at the shard count. Thread count
    /// never affects results.
    pub shard_threads: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xB3_0770,
            transport: TransportCfg::default(),
            shards: 0,
            shard_threads: 0,
        }
    }
}

/// Aggregate counters, useful for sanity checks and benches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Events processed by the main loop.
    pub events: u64,
    /// Application messages delivered.
    pub msgs_delivered: u64,
    /// Application payload bytes delivered.
    pub bytes_delivered: u64,
    /// Connections opened.
    pub conns_opened: u64,
}

/// One direction's transmit state: the send queue, chunk-serialization
/// progress, handshake/close flags and the congestion window. Shared with
/// the sharded engine, where each connection *half* owns one of these.
#[derive(Debug)]
pub(crate) struct DirState {
    pub(crate) queue: VecDeque<Vec<u8>>,
    /// Bytes of the front message (payload + overhead) already serialized.
    front_sent: u64,
    /// Size of the chunk last started; credited to the window, if `busy`,
    /// when the next one starts.
    inflight_chunk: u32,
    busy: bool,
    /// True once this direction may transmit (handshake progress).
    pub(crate) ready: bool,
    pub(crate) closing: bool,
    close_sent: bool,
    cwnd: Cwnd,
    /// When the chunk last started finishes serializing. The direction may
    /// start another once `now` has reached it.
    busy_until: SimTime,
    /// The time of the one `ChunkDone` wake-up in the queue that still
    /// counts. A wake-up popped at any other time is stale.
    wake_at: Option<SimTime>,
}

/// What [`DirState::advance`] did, and what is left for the engine to do.
pub(crate) enum Kick {
    /// Nothing: not ready, nothing to send, or its wake-up is already queued.
    Idle,
    /// Queue a `ChunkDone` wake-up for this time: a message or the close
    /// waits behind the chunk serializing until then.
    Wake(SimTime),
    /// A chunk started and ends at `end`; the message it completes, if any,
    /// arrives one propagation delay later.
    Started { end: SimTime, msg: Option<Vec<u8>> },
    /// Everything queued has left the sender: the close goes now.
    Close,
}

impl DirState {
    pub(crate) fn new(cfg: &TransportCfg) -> Self {
        DirState {
            queue: VecDeque::new(),
            front_sent: 0,
            inflight_chunk: 0,
            busy: false,
            ready: false,
            closing: false,
            close_sent: false,
            cwnd: Cwnd::new(cfg),
            busy_until: SimTime::ZERO,
            wake_at: None,
        }
    }

    /// The transmit rule of both engines: put the front of the send queue —
    /// or, behind it, a pending close — on the wire, if the direction is
    /// ready and its previous chunk has finished serializing.
    ///
    /// A chunk is one message, or one piece of at most `cfg.chunk` bytes of
    /// a larger one, serialized at the rate `rate` gives it at the moment it
    /// starts: the engine's `min(window rate, link shares)`, asked once the
    /// previous chunk has been credited to the window. A chunk's completion
    /// is not an event. The arrival of a message it ends is the caller's to
    /// schedule here and now; a wake-up is asked for only while something
    /// waits behind a chunk still serializing, and once per chunk.
    pub(crate) fn advance(
        &mut self,
        cfg: &TransportCfg,
        now: SimTime,
        rate: impl FnOnce(&Cwnd) -> u64,
    ) -> Kick {
        let close = self.closing && !self.close_sent;
        if !self.ready || (self.queue.is_empty() && !close) {
            return Kick::Idle;
        }
        let wake = self.busy_until;
        if wake > now {
            let armed = self.wake_at.replace(wake) == Some(wake);
            return if armed { Kick::Idle } else { Kick::Wake(wake) };
        }
        let Some(front) = self.queue.front() else {
            self.close_sent = true;
            return Kick::Close;
        };
        let front_total = front.len() as u64 + cfg.per_msg_overhead as u64;
        if self.busy {
            // The previous chunk is through: the window grows by it.
            self.cwnd.on_acked(self.inflight_chunk);
        }
        let chunk = (front_total - self.front_sent).min(cfg.chunk as u64);
        self.front_sent += chunk;
        let msg = if self.front_sent == front_total {
            self.front_sent = 0;
            self.queue.pop_front()
        } else {
            None
        };
        self.busy = true;
        self.inflight_chunk = chunk as u32;
        let end = now + SimDuration::for_bytes(chunk, rate(&self.cwnd));
        self.busy_until = end;
        Kick::Started { end, msg }
    }

    /// A `ChunkDone` wake-up popped at `now`: is it the one that counts?
    /// Only the wake-up armed for the current `busy_until` does — a `send`
    /// at exactly `busy_until` has already started the next chunk and armed
    /// its own, and acting on the stale one would arm a duplicate.
    pub(crate) fn take_wake(&mut self, now: SimTime) -> bool {
        self.wake_at.take_if(|at| *at == now).is_some()
    }
}

#[derive(Debug)]
struct Conn {
    a: NodeId,
    b: NodeId,
    port: u16,
    dirs: [DirState; 2],
    dead: bool,
}

impl Conn {
    fn dir_index(d: FlowDir) -> usize {
        match d {
            FlowDir::Forward => 0,
            FlowDir::Backward => 1,
        }
    }
    fn sender(&self, d: FlowDir) -> NodeId {
        match d {
            FlowDir::Forward => self.a,
            FlowDir::Backward => self.b,
        }
    }
    fn receiver(&self, d: FlowDir) -> NodeId {
        match d {
            FlowDir::Forward => self.b,
            FlowDir::Backward => self.a,
        }
    }
}

/// A free-list of cleared `Vec<u8>` buffers shared by every node in a run.
///
/// The hot loop moves one 514-byte cell buffer per hop; without reuse each
/// delivery allocates a fresh `Vec` in [`Ctx::send`] and drops the arrived
/// one in `on_msg`. Nodes return finished buffers with [`Ctx::recycle_buf`]
/// and draw replacements with [`Ctx::take_buf`], so a steady-state transfer
/// recirculates a handful of allocations instead of making millions.
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    bufs: Vec<Vec<u8>>,
    /// Takes served from a parked buffer vs. a fresh allocation; plain
    /// fields so the hot path stays telemetry-free (flushed by `run_until`).
    hits: u64,
    misses: u64,
    recycled: u64,
}

impl BufPool {
    /// Don't hoard: beyond this many parked buffers, returns are dropped.
    const MAX_BUFS: usize = 4096;
    /// Oversized buffers (multi-MB dir responses) are not worth keeping.
    const MAX_CAP: usize = 64 * 1024;

    pub(crate) fn take(&mut self, cap: usize) -> Vec<u8> {
        match self.bufs.pop() {
            Some(mut buf) => {
                self.hits += 1;
                if buf.capacity() < cap {
                    buf.reserve(cap - buf.len());
                }
                buf
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(cap)
            }
        }
    }

    pub(crate) fn put(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() == 0
            || buf.capacity() > Self::MAX_CAP
            || self.bufs.len() >= Self::MAX_BUFS
        {
            return;
        }
        buf.clear();
        self.bufs.push(buf);
        self.recycled += 1;
    }

    /// `(hits, misses, recycled)` so other engines can flush pool telemetry.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.recycled)
    }
}

/// One run's worth of engine telemetry deltas, flushed to the process
/// registry in a single shot by [`flush_run_telemetry`]. The serial engine
/// inlines the equivalent in `run_until`; the sharded engine sums per-shard
/// deltas in shard-index order and flushes here, so both engines report
/// through the same instruments (names are registered once, in this module).
#[derive(Default)]
pub(crate) struct RunFlush {
    pub(crate) events: u64,
    pub(crate) msgs: u64,
    pub(crate) bytes: u64,
    pub(crate) conns: u64,
    pub(crate) pool_hits: u64,
    pub(crate) pool_misses: u64,
    pub(crate) pool_recycled: u64,
    pub(crate) timer_sweeps: u64,
    pub(crate) queue_depth: u64,
    pub(crate) enter_ns: u64,
    pub(crate) exit_ns: u64,
    pub(crate) processed: u64,
}

pub(crate) fn flush_run_telemetry(f: &RunFlush, hist: &mut telemetry::hist::LogHistogram) {
    if !hist.is_empty() {
        T_MSG_BYTES.merge_from(&std::mem::take(hist));
    }
    T_EVENTS.add(f.events);
    T_MSGS.add(f.msgs);
    T_BYTES.add(f.bytes);
    T_CONNS.add(f.conns);
    T_POOL_HITS.add(f.pool_hits);
    T_POOL_MISSES.add(f.pool_misses);
    T_POOL_RECYCLED.add(f.pool_recycled);
    T_TIMER_SWEEPS.add(f.timer_sweeps);
    T_QUEUE_DEPTH.set(f.queue_depth);
    T_RUN.record_events(f.enter_ns, f.exit_ns, f.processed);
}

/// Everything in the simulator except the node objects themselves; nodes are
/// taken out of their slot during dispatch so [`Ctx`] can borrow this core
/// mutably without aliasing the node.
pub(crate) struct SimCore {
    pub(crate) now: SimTime,
    pub(crate) rng: StdRng,
    pub(crate) queue: EventQueue,
    pub(crate) cfg: TransportCfg,
    pub(crate) next_timer_id: u64,
    // bento-lint: allow(BL001) -- membership-only (insert/remove/contains/retain
    // against an ordered id list); never iterated, so hash order cannot reach
    // the event stream, and it sits on the per-cell hot path.
    pub(crate) cancelled_timers: HashSet<u64>,
    /// Timer events still sitting in the queue (fired or cancelled); lets
    /// [`Ctx::cancel_timer`] bound the tombstone set cheaply.
    pub(crate) pending_timers: usize,
    pub(crate) pool: BufPool,
    /// Tombstone sweeps performed by [`Ctx::cancel_timer`]; flushed to
    /// telemetry by `run_until`.
    pub(crate) timer_sweeps: u64,
    /// Delivered-message sizes batched locally this run; `run_until` folds
    /// the whole histogram into `simnet.msg_bytes` in one registry access
    /// instead of one per message.
    msg_bytes: telemetry::hist::LogHistogram,
    /// Cached `mode() >= Full` for the current `run_until` pass, so the
    /// per-message record is a plain branch.
    hist_full: bool,
    ifaces: Vec<Iface>,
    names: Vec<String>,
    conns: Vec<Conn>,
    /// Per node: end times of the chunks serializing on its uplink, and on
    /// its downlink. An entry stops counting once the clock reaches it;
    /// `kick` prunes in place.
    up_ends: Vec<Vec<SimTime>>,
    down_ends: Vec<Vec<SimTime>>,
    sniffers: Vec<Option<Sniffer>>,
    stats: SimStats,
    /// Fault plane. `faults_active` stays `false` until a plan (or manual
    /// fault) is installed; while false, no fault check runs and *no RNG
    /// draw happens*, so fault-free runs consume exactly the pre-fault-plane
    /// event and RNG streams.
    faults_active: bool,
    crashed: Vec<bool>,
    /// Bumped on every restart; timers carry the incarnation they were armed
    /// under and are dropped if it no longer matches.
    incarnation: Vec<u32>,
    /// Per-pair link faults, keyed by the normalized (low, high) node pair.
    /// BTreeMap: deterministic iteration, no hash-order hazards.
    link_faults: BTreeMap<(u32, u32), LinkFault>,
    /// Default fault applied to pairs with no dedicated entry.
    global_fault: LinkFault,
    /// When partitioned: `true` for nodes inside the cut group.
    partition: Option<Vec<bool>>,
    fault_stats: FaultStats,
}

impl SimCore {
    pub(crate) fn incarnation_of(&self, node: NodeId) -> u32 {
        self.incarnation.get(node.0 as usize).copied().unwrap_or(0)
    }

    fn pair_key(a: NodeId, b: NodeId) -> (u32, u32) {
        if a.0 <= b.0 {
            (a.0, b.0)
        } else {
            (b.0, a.0)
        }
    }

    fn effective_fault(&self, a: NodeId, b: NodeId) -> LinkFault {
        if a == b {
            // Loopback never leaves the host; link faults don't apply.
            return LinkFault::default();
        }
        self.link_faults
            .get(&Self::pair_key(a, b))
            .copied()
            .unwrap_or(self.global_fault)
    }

    /// Is the `a`–`b` pair severed by the current partition?
    fn cut(&self, a: NodeId, b: NodeId) -> bool {
        match &self.partition {
            Some(side) => {
                a != b
                    && side.get(a.0 as usize).copied().unwrap_or(false)
                        != side.get(b.0 as usize).copied().unwrap_or(false)
            }
            None => false,
        }
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.get(node.0 as usize).copied().unwrap_or(false)
    }

    /// Nothing at all can cross between `a` and `b` right now.
    fn path_blocked(&self, a: NodeId, b: NodeId) -> bool {
        self.is_crashed(a)
            || self.is_crashed(b)
            || self.cut(a, b)
            || self.effective_fault(a, b).down
    }

    fn one_way(&self, a: NodeId, b: NodeId) -> SimDuration {
        if a == b {
            self.cfg.loopback_rtt / 2
        } else {
            self.ifaces[a.0 as usize].latency + self.ifaces[b.0 as usize].latency
        }
    }

    /// No `&self`: `kick` asks while it holds a connection mutably.
    fn rtt(cfg: &TransportCfg, ifaces: &[Iface], a: NodeId, b: NodeId) -> SimDuration {
        if a == b {
            cfg.loopback_rtt
        } else {
            (ifaces[a.0 as usize].latency + ifaces[b.0 as usize].latency) * 2
        }
    }

    pub(crate) fn connect(&mut self, src: NodeId, dst: NodeId, port: u16) -> ConnId {
        let id = ConnId(self.conns.len() as u64);
        self.conns.push(Conn {
            a: src,
            b: dst,
            port,
            dirs: [DirState::new(&self.cfg), DirState::new(&self.cfg)],
            dead: false,
        });
        self.stats.conns_opened += 1;
        let one_way = self.one_way(src, dst);
        let rtt = Self::rtt(&self.cfg, &self.ifaces, src, dst);
        if self.faults_active && self.path_blocked(src, dst) {
            // Connection refused: the conn is born dead and the initiator
            // hears about it after a round trip, like a reset.
            self.conns[id.0 as usize].dead = true;
            self.fault_stats.conns_refused += 1;
            self.queue.push(
                self.now + rtt,
                EventKind::PeerGone {
                    conn: id,
                    node: src,
                },
            );
            return id;
        }
        self.queue
            .push(self.now + one_way, EventKind::ConnSynArrive { conn: id });
        self.queue
            .push(self.now + rtt, EventKind::ConnEstablished { conn: id });
        id
    }

    pub(crate) fn peer_of(&self, me: NodeId, conn: ConnId) -> Option<NodeId> {
        let c = self.conns.get(conn.0 as usize)?;
        if c.a == me {
            Some(c.b)
        } else if c.b == me {
            Some(c.a)
        } else {
            None
        }
    }

    pub(crate) fn send(&mut self, me: NodeId, conn: ConnId, msg: Vec<u8>) -> bool {
        let Some(c) = self.conns.get_mut(conn.0 as usize) else {
            return false;
        };
        if c.dead {
            return false;
        }
        let dir = if c.a == me {
            FlowDir::Forward
        } else if c.b == me {
            FlowDir::Backward
        } else {
            return false;
        };
        let d = &mut c.dirs[Conn::dir_index(dir)];
        if d.closing {
            return false;
        }
        d.queue.push_back(msg);
        self.kick(conn, dir);
        true
    }

    pub(crate) fn close(&mut self, me: NodeId, conn: ConnId) {
        let Some(c) = self.conns.get_mut(conn.0 as usize) else {
            return;
        };
        if c.dead {
            return;
        }
        let dir = if c.a == me {
            FlowDir::Forward
        } else if c.b == me {
            FlowDir::Backward
        } else {
            return;
        };
        let d = &mut c.dirs[Conn::dir_index(dir)];
        d.closing = true;
        // Behind queued data the close goes when the queue has drained.
        if d.queue.is_empty() {
            self.kick(conn, dir);
        }
    }

    /// The serial engine's transmit path: [`DirState::advance`] at
    /// `min(window rate, uplink / n_up, downlink / n_down)`, where `n_up` and
    /// `n_down` count this chunk and every chunk on the same interface whose
    /// end time lies ahead of the clock.
    ///
    /// This is also the wire-entry fault point: a blocked path, loss and
    /// corruption are drawn when the chunk that ends the message *starts*
    /// (healthy traffic draws nothing). A message already in flight when its
    /// link, peer or partition side dies is dropped at arrival.
    fn kick(&mut self, conn: ConnId, dir: FlowDir) {
        let now = self.now;
        loop {
            let c = &self.conns[conn.0 as usize];
            if c.dead {
                return;
            }
            let (sender, receiver) = (c.sender(dir), c.receiver(dir));
            let (si, ri) = (sender.0 as usize, receiver.0 as usize);
            let (cfg, ifaces) = (&self.cfg, &self.ifaces);
            let (up_ends, down_ends) = (&mut self.up_ends, &mut self.down_ends);
            let d = &mut self.conns[conn.0 as usize].dirs[Conn::dir_index(dir)];
            let step = d.advance(cfg, now, |cwnd| {
                let window_rate = cwnd.rate(Self::rtt(cfg, ifaces, sender, receiver));
                if sender == receiver {
                    return window_rate.min(cfg.loopback_bps);
                }
                let (up, down) = (&mut up_ends[si], &mut down_ends[ri]);
                up.retain(|&e| e > now);
                down.retain(|&e| e > now);
                window_rate
                    .min(ifaces[si].up_share(up.len() + 1))
                    .min(ifaces[ri].down_share(down.len() + 1))
            });
            match step {
                Kick::Idle => return,
                Kick::Wake(end) => {
                    return self.queue.push(end, EventKind::ChunkDone { conn, dir });
                }
                Kick::Close => {
                    let at = now + self.one_way(sender, receiver);
                    return self.queue.push(at, EventKind::CloseArrive { conn, dir });
                }
                Kick::Started { end, msg } => {
                    if sender != receiver {
                        self.up_ends[si].push(end);
                        self.down_ends[ri].push(end);
                    }
                    if let Some(msg) = msg {
                        self.enter_wire(conn, dir, end, msg);
                    }
                }
            }
        }
    }

    /// `msg`'s last byte leaves the sender at `end`: the sender-side sniffer
    /// sees it then, and it arrives one propagation delay later — unless the
    /// fault plane takes it (see [`SimCore::kick`]).
    fn enter_wire(&mut self, conn: ConnId, dir: FlowDir, end: SimTime, mut msg: Vec<u8>) {
        let c = &self.conns[conn.0 as usize];
        let (sender, receiver) = (c.sender(dir), c.receiver(dir));
        if let Some(s) = self.sniffers[sender.0 as usize].as_mut() {
            s.record(TraceEvent {
                time: end,
                dir: Direction::Outgoing,
                bytes: msg.len() as u32,
                conn,
                peer: receiver,
            });
        }
        let mut one_way = self.one_way(sender, receiver);
        if self.faults_active {
            // Everything a hostile network can do to a message happens here,
            // off the shared seeded RNG — and only while a fault is in
            // force, so healthy traffic draws nothing.
            let f = self.effective_fault(sender, receiver);
            if self.path_blocked(sender, receiver)
                || (f.loss_ppm > 0 && self.rng.gen_range(0..1_000_000u32) < f.loss_ppm)
            {
                self.fault_stats.msgs_dropped += 1;
                self.pool.put(msg);
                return;
            }
            if f.corrupt_ppm > 0
                && !msg.is_empty()
                && self.rng.gen_range(0..1_000_000u32) < f.corrupt_ppm
            {
                let i = self.rng.gen_range(0..msg.len());
                msg[i] ^= 0x55;
                self.fault_stats.msgs_corrupted += 1;
            }
            one_way += f.extra_latency;
        }
        self.queue
            .push(end + one_way, EventKind::MsgArrive { conn, dir, msg });
    }
}

/// The classic serial discrete-event engine: one queue, one clock, one RNG.
pub(crate) struct SerialSim {
    core: SimCore,
    nodes: Vec<Option<Box<dyn Node>>>,
    /// `touched[i]`: node `i` has been handed out mutably since its last
    /// `flush_telemetry`. A driver that polls in small steps makes most
    /// `run_until` calls dispatch nothing, and those flush nothing.
    touched: Vec<bool>,
    /// Nodes with index < started_upto have had on_start called. Nodes
    /// added after the simulation begins are started on the next run call.
    started_upto: usize,
}

impl SerialSim {
    /// Create a serial engine with the given configuration.
    fn new(cfg: SimConfig) -> Self {
        SerialSim {
            core: SimCore {
                now: SimTime::ZERO,
                rng: StdRng::seed_from_u64(cfg.seed),
                queue: EventQueue::new(),
                cfg: cfg.transport,
                next_timer_id: 0,
                // bento-lint: allow(BL001) -- see field declaration: membership-only set
                cancelled_timers: HashSet::new(),
                pending_timers: 0,
                pool: BufPool::default(),
                timer_sweeps: 0,
                ifaces: Vec::new(),
                names: Vec::new(),
                conns: Vec::new(),
                up_ends: Vec::new(),
                down_ends: Vec::new(),
                sniffers: Vec::new(),
                stats: SimStats::default(),
                msg_bytes: telemetry::hist::LogHistogram::new(),
                hist_full: false,
                faults_active: false,
                crashed: Vec::new(),
                incarnation: Vec::new(),
                link_faults: BTreeMap::new(),
                global_fault: LinkFault::default(),
                partition: None,
                fault_stats: FaultStats::default(),
            },
            nodes: Vec::new(),
            touched: Vec::new(),
            started_upto: 0,
        }
    }

    /// Add a node with the given access interface. Nodes cannot be removed.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        iface: Iface,
        node: Box<dyn Node>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(node));
        self.touched.push(false);
        self.core.ifaces.push(iface);
        self.core.names.push(name.into());
        self.core.up_ends.push(Vec::new());
        self.core.down_ends.push(Vec::new());
        self.core.sniffers.push(None);
        self.core.crashed.push(false);
        self.core.incarnation.push(0);
        id
    }

    /// Begin recording a directional trace of `node`'s access link.
    pub fn enable_sniffer(&mut self, node: NodeId) {
        self.core.sniffers[node.0 as usize] = Some(Sniffer::new());
    }

    /// The trace recorded so far on `node`'s link (panics if no sniffer).
    pub fn sniffer(&self, node: NodeId) -> &Sniffer {
        self.core.sniffers[node.0 as usize]
            .as_ref()
            .expect("sniffer not enabled on this node")
    }

    /// Mutable access to `node`'s sniffer, e.g. to clear it between trials.
    pub fn sniffer_mut(&mut self, node: NodeId) -> &mut Sniffer {
        self.core.sniffers[node.0 as usize]
            .as_mut()
            .expect("sniffer not enabled on this node")
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Aggregate run statistics.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }

    /// The display name a node was registered with.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.core.names[id.0 as usize]
    }

    /// Immutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    /// If `id` does not refer to a `T`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        self.nodes[id.0 as usize]
            .as_ref()
            .expect("node is being dispatched")
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Run a closure against a node with a [`Ctx`], e.g. to start a workload
    /// from the experiment harness.
    ///
    /// # Panics
    /// If `id` does not refer to a `T`.
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut node = self.nodes[id.0 as usize]
            .take()
            .expect("node is being dispatched");
        self.touched[id.0 as usize] = true;
        let mut ctx = Ctx {
            inner: CtxInner::Serial(&mut self.core),
            me: id,
        };
        let r = f(
            node.as_any_mut()
                .downcast_mut::<T>()
                .expect("node type mismatch"),
            &mut ctx,
        );
        self.nodes[id.0 as usize] = Some(node);
        r
    }

    fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>)) {
        if self.core.is_crashed(id) {
            // A crashed host runs no code. Whatever event reached it is lost.
            return;
        }
        let mut node = self.nodes[id.0 as usize]
            .take()
            .expect("node reentrancy during dispatch");
        self.touched[id.0 as usize] = true;
        let mut ctx = Ctx {
            inner: CtxInner::Serial(&mut self.core),
            me: id,
        };
        f(node.as_mut(), &mut ctx);
        self.nodes[id.0 as usize] = Some(node);
    }

    fn ensure_started(&mut self) {
        while self.started_upto < self.nodes.len() {
            let i = self.started_upto;
            self.started_upto += 1;
            self.dispatch(NodeId(i as u32), |n, ctx| n.on_start(ctx));
        }
    }

    /// Process events until the queue is empty or `limit` is reached; the
    /// clock ends at `min(limit, time of last event)`. Returns the number of
    /// events processed.
    pub fn run_until(&mut self, limit: SimTime) -> u64 {
        self.ensure_started();
        self.core.hist_full = telemetry::mode() >= telemetry::Mode::Full;
        let enter_ns = self.core.now.as_nanos();
        let before = self.core.stats;
        let pool_before = (
            self.core.pool.hits,
            self.core.pool.misses,
            self.core.pool.recycled,
        );
        let sweeps_before = self.core.timer_sweeps;
        let faults_before = self.core.fault_stats;
        let mut max_depth = self.core.queue.len();
        let mut processed = 0;
        while let Some(t) = self.core.queue.peek_time() {
            if t > limit {
                break;
            }
            let depth = self.core.queue.len();
            if depth > max_depth {
                max_depth = depth;
            }
            let ev = self.core.queue.pop().expect("peeked event vanished");
            self.core.now = ev.time;
            self.core.stats.events += 1;
            processed += 1;
            self.handle(ev.kind);
        }
        if self.core.now < limit {
            self.core.now = limit;
        }
        // Flush this run's deltas to telemetry in one shot; the loop above
        // only touched plain fields. Nodes batching their own counters
        // (relays) flush here too, if anything ran on them since last time.
        for (node, touched) in self.nodes.iter_mut().zip(&mut self.touched) {
            if let (Some(node), true) = (node, std::mem::take(touched)) {
                node.flush_telemetry();
            }
        }
        if !self.core.msg_bytes.is_empty() {
            T_MSG_BYTES.merge_from(&std::mem::take(&mut self.core.msg_bytes));
        }
        let after = self.core.stats;
        T_EVENTS.add(after.events - before.events);
        T_MSGS.add(after.msgs_delivered - before.msgs_delivered);
        T_BYTES.add(after.bytes_delivered - before.bytes_delivered);
        T_CONNS.add(after.conns_opened - before.conns_opened);
        T_POOL_HITS.add(self.core.pool.hits - pool_before.0);
        T_POOL_MISSES.add(self.core.pool.misses - pool_before.1);
        T_POOL_RECYCLED.add(self.core.pool.recycled - pool_before.2);
        T_TIMER_SWEEPS.add(self.core.timer_sweeps - sweeps_before);
        if self.core.faults_active {
            let fa = self.core.fault_stats;
            T_FAULT_CRASHES.add(fa.crashes - faults_before.crashes);
            T_FAULT_RESTARTS.add(fa.restarts - faults_before.restarts);
            T_FAULT_DROPPED.add(fa.msgs_dropped - faults_before.msgs_dropped);
            T_FAULT_CORRUPTED.add(fa.msgs_corrupted - faults_before.msgs_corrupted);
            T_FAULT_REFUSED.add(fa.conns_refused - faults_before.conns_refused);
        }
        T_QUEUE_DEPTH.set(max_depth as u64);
        T_RUN.record_events(enter_ns, self.core.now.as_nanos(), processed);
        processed
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::ConnSynArrive { conn } => {
                let (dead, b, a, port) = {
                    let c = &self.core.conns[conn.0 as usize];
                    (c.dead, c.b, c.a, c.port)
                };
                if dead {
                    return;
                }
                self.core.conns[conn.0 as usize].dirs[1].ready = true;
                self.core.kick(conn, FlowDir::Backward);
                self.dispatch(b, |n, ctx| n.on_conn_open(ctx, conn, a, port));
            }
            EventKind::ConnEstablished { conn } => {
                let (dead, a, b) = {
                    let c = &self.core.conns[conn.0 as usize];
                    (c.dead, c.a, c.b)
                };
                if dead {
                    return;
                }
                self.core.conns[conn.0 as usize].dirs[0].ready = true;
                self.core.kick(conn, FlowDir::Forward);
                self.dispatch(a, |n, ctx| n.on_conn_established(ctx, conn, b));
            }
            EventKind::ChunkDone { conn, dir } => {
                // Whatever waited behind the chunk goes next, unless the
                // connection is dead or the wake-up is stale.
                let c = &mut self.core.conns[conn.0 as usize];
                if !c.dead && c.dirs[Conn::dir_index(dir)].take_wake(self.core.now) {
                    self.core.kick(conn, dir);
                }
            }
            EventKind::MsgArrive { conn, dir, msg } => {
                let (dead, receiver, sender) = {
                    let c = &self.core.conns[conn.0 as usize];
                    (c.dead, c.receiver(dir), c.sender(dir))
                };
                if dead {
                    return;
                }
                if self.core.faults_active && self.core.path_blocked(sender, receiver) {
                    // In flight when the cut (or crash, or link kill)
                    // happened: the message dies on the wire.
                    self.core.fault_stats.msgs_dropped += 1;
                    self.core.pool.put(msg);
                    return;
                }
                self.core.stats.msgs_delivered += 1;
                self.core.stats.bytes_delivered += msg.len() as u64;
                if self.core.hist_full {
                    self.core.msg_bytes.record(msg.len() as u64);
                }
                if let Some(s) = self.core.sniffers[receiver.0 as usize].as_mut() {
                    s.record(TraceEvent {
                        time: self.core.now,
                        dir: Direction::Incoming,
                        bytes: msg.len() as u32,
                        conn,
                        peer: sender,
                    });
                }
                self.dispatch(receiver, |n, ctx| n.on_msg(ctx, conn, msg));
            }
            EventKind::CloseArrive { conn, dir } => {
                let receiver = {
                    let c = &mut self.core.conns[conn.0 as usize];
                    if c.dead {
                        return;
                    }
                    c.dead = true;
                    c.receiver(dir)
                };
                self.dispatch(receiver, |n, ctx| n.on_conn_closed(ctx, conn));
            }
            EventKind::Timer { node, id, tag, inc } => {
                self.core.pending_timers = self.core.pending_timers.saturating_sub(1);
                if self.core.cancelled_timers.remove(&id) {
                    return;
                }
                // Timers armed by a previous incarnation (or while the node
                // is down) died with the process.
                if self.core.faults_active
                    && (self.core.is_crashed(node) || inc != self.core.incarnation_of(node))
                {
                    return;
                }
                self.dispatch(node, |n, ctx| n.on_timer(ctx, tag));
            }
            EventKind::PeerGone { conn, node } => {
                self.dispatch(node, |n, ctx| n.on_conn_closed(ctx, conn));
            }
            EventKind::Fault { action } => {
                self.apply_fault(action);
            }
        }
    }

    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::Crash(node) => self.apply_crash(node),
            FaultAction::Restart(node) => self.apply_restart(node),
            FaultAction::Link { a, b, fault } => {
                let key = SimCore::pair_key(a, b);
                if fault.is_clear() {
                    self.core.link_faults.remove(&key);
                } else {
                    self.core.link_faults.insert(key, fault);
                }
            }
            FaultAction::AllLinks { fault } => {
                self.core.global_fault = fault;
            }
            FaultAction::Partition { group } => {
                let mut side = vec![false; self.nodes.len()];
                for n in group {
                    if let Some(s) = side.get_mut(n.0 as usize) {
                        *s = true;
                    }
                }
                self.core.partition = Some(side);
            }
            FaultAction::Heal => {
                self.core.partition = None;
            }
        }
    }

    fn apply_crash(&mut self, node: NodeId) {
        let i = node.0 as usize;
        if i >= self.nodes.len() || self.core.crashed[i] {
            return;
        }
        self.core.crashed[i] = true;
        self.core.fault_stats.crashes += 1;
        // Every connection touching the node dies instantly on the node's
        // side; the surviving peer learns one propagation delay later, like
        // a reset. In-flight chunks hold their fair-share slots until their
        // end times pass, as on a live connection, and pending
        // MsgArrive/CloseArrive events see the dead conn and drop.
        let mut notices: Vec<(ConnId, NodeId)> = Vec::new();
        for (ci, c) in self.core.conns.iter_mut().enumerate() {
            if c.dead || (c.a != node && c.b != node) {
                continue;
            }
            c.dead = true;
            let peer = if c.a == node { c.b } else { c.a };
            if peer != node {
                notices.push((ConnId(ci as u64), peer));
            }
        }
        for (conn, peer) in notices {
            if self.core.is_crashed(peer) {
                continue;
            }
            let delay = self.core.one_way(node, peer);
            self.core.queue.push(
                self.core.now + delay,
                EventKind::PeerGone { conn, node: peer },
            );
        }
        // Volatile state dies with the process. No Ctx: a dead host cannot
        // act on the network.
        if let Some(n) = self.nodes[i].as_mut() {
            self.touched[i] = true;
            n.on_crash();
        }
    }

    fn apply_restart(&mut self, node: NodeId) {
        let i = node.0 as usize;
        if i >= self.nodes.len() || !self.core.crashed[i] {
            return;
        }
        self.core.crashed[i] = false;
        self.core.incarnation[i] += 1;
        self.core.fault_stats.restarts += 1;
        self.dispatch(node, |n, ctx| n.on_restart(ctx));
    }

    /// Install a fault plan: each action is scheduled into the event queue at
    /// its absolute time, interleaved deterministically with regular traffic.
    /// Installing any (non-empty) plan switches the fault plane on for the
    /// rest of the run.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        if plan.entries.is_empty() {
            return;
        }
        self.core.faults_active = true;
        for (at, action) in plan.entries {
            self.core.queue.push(at, EventKind::Fault { action });
        }
    }

    /// Schedule a single fault action at an absolute time (same effect as a
    /// one-entry [`FaultPlan`]).
    pub fn inject_fault(&mut self, at: SimTime, action: FaultAction) {
        self.core.faults_active = true;
        self.core.queue.push(at, EventKind::Fault { action });
    }

    /// Is `node` currently crashed?
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.core.is_crashed(node)
    }

    /// Counters of faults applied so far this run.
    pub fn fault_stats(&self) -> FaultStats {
        self.core.fault_stats
    }

    /// The node's current (uplink, downlink) active-flow slot counts — test
    /// hook for asserting crash cleanup leaves no dangling fair-share slots.
    pub fn active_link_slots(&self, node: NodeId) -> (u32, u32) {
        let live = |ends: &[SimTime]| ends.iter().filter(|&&e| e > self.core.now).count() as u32;
        (
            live(&self.core.up_ends[node.0 as usize]),
            live(&self.core.down_ends[node.0 as usize]),
        )
    }
}

/// Which engine a [`Simulator`] runs on. The serial engine is boxed: it is
/// an order of magnitude larger than the sharded handle, and one allocation
/// per simulator keeps the facade thin for both.
enum Engine {
    Serial(Box<SerialSim>),
    Sharded(ShardedSim),
}

/// The discrete-event simulator. See the crate docs for the model.
///
/// A facade over two engines sharing the same [`Node`]/[`Ctx`] contract:
///
/// * the **serial** engine (default, `SimConfig::shards == 0`) — one event
///   loop, one clock, one RNG; byte-compatible with every artifact produced
///   before the sharded engine existed;
/// * the **sharded** engine (`SimConfig::shards >= 1`, [`crate::shard`]) —
///   conservative parallel discrete-event simulation whose results are
///   byte-identical at any shard count and any worker-thread count.
///
/// The fault plane ([`Simulator::install_faults`] etc.) is serial-only for
/// now; chaos workloads keep running on the serial engine.
pub struct Simulator {
    engine: Engine,
}

impl Simulator {
    /// Create a simulator with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        let engine = if cfg.shards >= 1 {
            Engine::Sharded(ShardedSim::new(&cfg))
        } else {
            Engine::Serial(Box::new(SerialSim::new(cfg)))
        };
        Simulator { engine }
    }

    /// Create a serial-engine simulator with default config and the given
    /// seed.
    pub fn with_seed(seed: u64) -> Self {
        Simulator::new(SimConfig {
            seed,
            ..SimConfig::default()
        })
    }

    /// Number of shards the engine partitions nodes into (1 for the serial
    /// engine).
    pub fn shard_count(&self) -> usize {
        match &self.engine {
            Engine::Serial(_) => 1,
            Engine::Sharded(s) => s.shard_count(),
        }
    }

    /// Add a node with the given access interface. Nodes cannot be removed.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        iface: Iface,
        node: Box<dyn Node>,
    ) -> NodeId {
        match &mut self.engine {
            Engine::Serial(s) => s.add_node(name, iface, node),
            Engine::Sharded(s) => s.add_node(name.into(), iface, node),
        }
    }

    /// Begin recording a directional trace of `node`'s access link.
    pub fn enable_sniffer(&mut self, node: NodeId) {
        match &mut self.engine {
            Engine::Serial(s) => s.enable_sniffer(node),
            Engine::Sharded(s) => s.enable_sniffer(node),
        }
    }

    /// The trace recorded so far on `node`'s link (panics if no sniffer).
    pub fn sniffer(&self, node: NodeId) -> &Sniffer {
        match &self.engine {
            Engine::Serial(s) => s.sniffer(node),
            Engine::Sharded(s) => s.sniffer(node),
        }
    }

    /// Mutable access to `node`'s sniffer, e.g. to clear it between trials.
    pub fn sniffer_mut(&mut self, node: NodeId) -> &mut Sniffer {
        match &mut self.engine {
            Engine::Serial(s) => s.sniffer_mut(node),
            Engine::Sharded(s) => s.sniffer_mut(node),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        match &self.engine {
            Engine::Serial(s) => s.now(),
            Engine::Sharded(s) => s.now(),
        }
    }

    /// Aggregate run statistics (summed over shards in shard-index order on
    /// the sharded engine).
    pub fn stats(&self) -> SimStats {
        match &self.engine {
            Engine::Serial(s) => s.stats(),
            Engine::Sharded(s) => s.stats(),
        }
    }

    /// The display name a node was registered with.
    pub fn node_name(&self, id: NodeId) -> &str {
        match &self.engine {
            Engine::Serial(s) => s.node_name(id),
            Engine::Sharded(s) => s.node_name(id),
        }
    }

    /// Immutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    /// If `id` does not refer to a `T`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        match &self.engine {
            Engine::Serial(s) => s.node_ref(id),
            Engine::Sharded(s) => s.node_ref(id),
        }
    }

    /// Run a closure against a node with a [`Ctx`], e.g. to start a workload
    /// from the experiment harness.
    ///
    /// # Panics
    /// If `id` does not refer to a `T`.
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        match &mut self.engine {
            Engine::Serial(s) => s.with_node(id, f),
            Engine::Sharded(s) => s.with_node(id, f),
        }
    }

    /// Process events until the queue is empty or `limit` is reached; the
    /// clock ends at `min(limit, time of last event)`. Returns the number of
    /// events processed.
    pub fn run_until(&mut self, limit: SimTime) -> u64 {
        match &mut self.engine {
            Engine::Serial(s) => s.run_until(limit),
            Engine::Sharded(s) => s.run_until(limit),
        }
    }

    /// Advance towards `deadline` one [`Simulator::run_until`] of `step` at
    /// a time (the last one cut short at `deadline`), asking `pred` after
    /// each. Returns `true` at the first step after which `pred` holds, and
    /// `false` — with the clock at `deadline` — if it never does.
    pub fn step_until(
        &mut self,
        step: SimDuration,
        deadline: SimTime,
        mut pred: impl FnMut(&mut Simulator) -> bool,
    ) -> bool {
        while self.now() < deadline {
            let next = (self.now() + step).min(deadline);
            self.run_until(next);
            if pred(self) {
                return true;
            }
        }
        false
    }

    /// Run until no events remain (the simulation quiesces).
    pub fn run_to_quiescence(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Install a fault plan: each action is scheduled into the event queue at
    /// its absolute time, interleaved deterministically with regular traffic.
    /// Installing any (non-empty) plan switches the fault plane on for the
    /// rest of the run.
    ///
    /// # Panics
    /// On the sharded engine — the fault plane is serial-only for now.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        if plan.entries.is_empty() {
            return;
        }
        match &mut self.engine {
            Engine::Serial(s) => s.install_faults(plan),
            Engine::Sharded(_) => panic!(
                "the fault plane is not supported on the sharded engine yet; \
                 run chaos workloads with shards = 0 (see DESIGN.md §12)"
            ),
        }
    }

    /// Schedule a single fault action at an absolute time (same effect as a
    /// one-entry [`FaultPlan`]).
    ///
    /// # Panics
    /// On the sharded engine — the fault plane is serial-only for now.
    pub fn inject_fault(&mut self, at: SimTime, action: FaultAction) {
        match &mut self.engine {
            Engine::Serial(s) => s.inject_fault(at, action),
            Engine::Sharded(_) => panic!(
                "the fault plane is not supported on the sharded engine yet; \
                 run chaos workloads with shards = 0 (see DESIGN.md §12)"
            ),
        }
    }

    /// Is `node` currently crashed? (Always `false` on the sharded engine,
    /// which has no fault plane.)
    pub fn is_crashed(&self, node: NodeId) -> bool {
        match &self.engine {
            Engine::Serial(s) => s.is_crashed(node),
            Engine::Sharded(_) => false,
        }
    }

    /// Counters of faults applied so far this run.
    pub fn fault_stats(&self) -> FaultStats {
        match &self.engine {
            Engine::Serial(s) => s.fault_stats(),
            Engine::Sharded(_) => FaultStats::default(),
        }
    }

    /// The node's current (uplink, downlink) active-flow slot counts — test
    /// hook for asserting crash cleanup leaves no dangling fair-share slots.
    /// The sharded engine has no downlink slot (its ingress pipe replaces
    /// receiver fair sharing) and reports 0 there.
    pub fn active_link_slots(&self, node: NodeId) -> (u32, u32) {
        match &self.engine {
            Engine::Serial(s) => s.active_link_slots(node),
            Engine::Sharded(s) => s.active_link_slots(node),
        }
    }

    /// Connection halves the engine still holds state for — test and CI
    /// hook: once every connection has closed and the run is quiescent this
    /// must read 0, or the sharded engine's reaping leaked a half. (The
    /// serial engine never releases a connection; it counts two per
    /// connection not yet dead.)
    pub fn live_conn_halves(&self) -> usize {
        match &self.engine {
            Engine::Serial(s) => 2 * s.core.conns.iter().filter(|c| !c.dead).count(),
            Engine::Sharded(s) => s.live_halves(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every message back on the same connection.
    struct Echo;
    impl Node for Echo {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
            ctx.send(conn, msg);
        }
    }

    /// Connects to a peer at start, sends one message, records the reply time.
    struct Pinger {
        target: NodeId,
        payload: usize,
        reply_at: Option<SimTime>,
        replies: u32,
    }
    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let c = ctx.connect(self.target, 80);
            ctx.send(c, vec![0u8; self.payload]);
        }
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {
            self.reply_at = Some(ctx.now());
            self.replies += 1;
        }
    }

    fn two_node_sim(payload: usize, iface: Iface) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::with_seed(1);
        let echo = sim.add_node("echo", iface, Box::new(Echo));
        let ping = sim.add_node(
            "ping",
            iface,
            Box::new(Pinger {
                target: echo,
                payload,
                reply_at: None,
                replies: 0,
            }),
        );
        (sim, ping, echo)
    }

    /// Telemetry is flushed on nodes that ran since their last flush, and
    /// only on those: an idle `run_until` flushes nobody. On both engines.
    #[test]
    fn flush_telemetry_follows_dispatch_and_with_node() {
        #[derive(Default)]
        struct Flushes(u32);
        impl Node for Flushes {
            fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
            fn flush_telemetry(&mut self) {
                self.0 += 1;
            }
        }
        for shards in [0, 2] {
            let mut sim = Simulator::new(SimConfig {
                shards,
                ..SimConfig::default()
            });
            let ids = [0, 1].map(|i| {
                let node = Box::new(Flushes::default());
                sim.add_node(format!("n{i}"), Iface::datacenter(), node)
            });
            let flushes_at = |sim: &mut Simulator, ms: u64| {
                sim.run_until(SimTime::ZERO + SimDuration::from_millis(ms));
                ids.map(|id| sim.node_ref::<Flushes>(id).0)
            };
            assert_eq!(flushes_at(&mut sim, 1), [1, 1]); // on_start ran on both
            assert_eq!(flushes_at(&mut sim, 2), [1, 1]); // nothing ran
            sim.with_node::<Flushes, _>(ids[1], |_, ctx| {
                ctx.set_timer(SimDuration::from_millis(5), 0);
            });
            assert_eq!(flushes_at(&mut sim, 3), [1, 2]); // handed out by with_node
            assert_eq!(flushes_at(&mut sim, 4), [1, 2]); // timer not due yet
            assert_eq!(flushes_at(&mut sim, 10), [1, 3]); // on_timer dispatched
        }
    }

    #[test]
    fn small_message_rtt_is_handshake_plus_roundtrip() {
        let iface = Iface::symmetric(SimDuration::from_millis(10), 0);
        let (mut sim, ping, _) = two_node_sim(64, iface);
        sim.run_to_quiescence();
        let p: &Pinger = sim.node_ref(ping);
        let t = p.reply_at.expect("reply received");
        // handshake 1 RTT (40ms) + request one-way (20ms) + reply one-way (20ms)
        assert_eq!(t.as_millis(), 80);
    }

    #[test]
    fn bulk_transfer_is_bandwidth_limited() {
        // 1 MiB payload at 1 MiB/s symmetric, near-zero latency: the echo
        // requires the payload to cross two links twice; each crossing takes
        // about a second once the window opens.
        let iface = Iface::symmetric(SimDuration::from_micros(500), 1 << 20);
        let (mut sim, ping, _) = two_node_sim(1 << 20, iface);
        sim.run_to_quiescence();
        let p: &Pinger = sim.node_ref(ping);
        let t = p.reply_at.expect("reply received").as_secs_f64();
        assert!(t > 1.8 && t < 4.0, "bulk echo took {t}s");
    }

    #[test]
    fn messages_preserve_order_and_content() {
        struct Collector {
            got: Vec<Vec<u8>>,
        }
        impl Node for Collector {
            fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, m: Vec<u8>) {
                self.got.push(m);
            }
        }
        struct Burst {
            target: NodeId,
        }
        impl Node for Burst {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let c = ctx.connect(self.target, 80);
                for i in 0..50u8 {
                    ctx.send(c, vec![i; (i as usize % 7) * 400 + 1]);
                }
            }
            fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _m: Vec<u8>) {}
        }
        let mut sim = Simulator::with_seed(7);
        let col = sim.add_node(
            "col",
            Iface::residential(),
            Box::new(Collector { got: vec![] }),
        );
        let _snd = sim.add_node("snd", Iface::residential(), Box::new(Burst { target: col }));
        sim.run_to_quiescence();
        let c: &Collector = sim.node_ref(col);
        assert_eq!(c.got.len(), 50);
        for (i, m) in c.got.iter().enumerate() {
            assert_eq!(m[0] as usize, i);
            assert_eq!(m.len(), (i % 7) * 400 + 1);
        }
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed| {
            let iface = Iface::residential();
            let (mut sim, ping, _) = two_node_sim(100_000, iface);
            let _ = seed;
            sim.run_to_quiescence();
            let p: &Pinger = sim.node_ref(ping);
            (p.reply_at, sim.stats().events)
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn sniffer_sees_both_directions() {
        let iface = Iface::symmetric(SimDuration::from_millis(5), 0);
        let mut sim = Simulator::with_seed(3);
        let echo = sim.add_node("echo", iface, Box::new(Echo));
        let ping = sim.add_node(
            "ping",
            iface,
            Box::new(Pinger {
                target: echo,
                payload: 514,
                reply_at: None,
                replies: 0,
            }),
        );
        sim.enable_sniffer(ping);
        sim.run_to_quiescence();
        let tr = sim.sniffer(ping);
        assert_eq!(tr.total_bytes(Direction::Outgoing), 514);
        assert_eq!(tr.total_bytes(Direction::Incoming), 514);
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn close_notifies_peer_and_stops_traffic() {
        struct Closer {
            target: NodeId,
        }
        impl Node for Closer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let c = ctx.connect(self.target, 80);
                ctx.send(c, b"bye".to_vec());
                ctx.close(c);
            }
            fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _m: Vec<u8>) {}
        }
        struct Watcher {
            got_msg: bool,
            got_close: bool,
        }
        impl Node for Watcher {
            fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _m: Vec<u8>) {
                self.got_msg = true;
            }
            fn on_conn_closed(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId) {
                self.got_close = true;
            }
        }
        let mut sim = Simulator::with_seed(9);
        let w = sim.add_node(
            "w",
            Iface::residential(),
            Box::new(Watcher {
                got_msg: false,
                got_close: false,
            }),
        );
        let _c = sim.add_node("c", Iface::residential(), Box::new(Closer { target: w }));
        sim.run_to_quiescence();
        let w: &Watcher = sim.node_ref(w);
        assert!(w.got_msg, "message delivered before close");
        assert!(w.got_close, "peer observed close");
    }

    #[test]
    fn loopback_connections_are_fast() {
        let (mut sim, ping, _) = {
            let mut sim = Simulator::with_seed(4);
            // single node talking to itself
            let n = sim.add_node(
                "self",
                Iface::residential(),
                Box::new(SelfTalk { done_at: None }),
            );
            (sim, n, n)
        };
        struct SelfTalk {
            done_at: Option<SimTime>,
        }
        impl Node for SelfTalk {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.me();
                let c = ctx.connect(me, 80);
                ctx.send(c, vec![0; 10_000]);
            }
            fn on_msg(&mut self, ctx: &mut Ctx<'_>, _c: ConnId, _m: Vec<u8>) {
                self.done_at = Some(ctx.now());
            }
        }
        sim.run_to_quiescence();
        let n: &SelfTalk = sim.node_ref(ping);
        let t = n.done_at.expect("loopback delivery");
        assert!(
            t.as_micros() < 1000,
            "loopback took {} us, expected sub-millisecond",
            t.as_micros()
        );
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct Timed {
            fired: Vec<u64>,
        }
        impl Node for Timed {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                let t2 = ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.cancel_timer(t2);
            }
            fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _m: Vec<u8>) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulator::with_seed(5);
        let n = sim.add_node("t", Iface::ideal(), Box::new(Timed { fired: vec![] }));
        sim.run_to_quiescence();
        let t: &Timed = sim.node_ref(n);
        assert_eq!(t.fired, vec![1, 3]);
    }

    #[test]
    fn sharing_halves_throughput() {
        // Two bulk flows into the same receiver should take roughly twice as
        // long as one flow, because they share the receiver's downlink.
        struct Sink {
            completions: Vec<SimTime>,
        }
        impl Node for Sink {
            fn on_msg(&mut self, ctx: &mut Ctx<'_>, _c: ConnId, _m: Vec<u8>) {
                self.completions.push(ctx.now());
            }
        }
        struct Source {
            target: NodeId,
        }
        impl Node for Source {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let c = ctx.connect(self.target, 80);
                ctx.send(c, vec![0; 2 << 20]);
            }
            fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _m: Vec<u8>) {}
        }
        let fast = Iface::symmetric(SimDuration::from_millis(2), 8 << 20);
        let slow_recv = Iface::symmetric(SimDuration::from_millis(2), 1 << 20);

        let solo_time = {
            let mut sim = Simulator::with_seed(6);
            let sink = sim.add_node(
                "sink",
                slow_recv,
                Box::new(Sink {
                    completions: vec![],
                }),
            );
            sim.add_node("s1", fast, Box::new(Source { target: sink }));
            sim.run_to_quiescence();
            sim.node_ref::<Sink>(sink).completions[0].as_secs_f64()
        };
        let duo_time = {
            let mut sim = Simulator::with_seed(6);
            let sink = sim.add_node(
                "sink",
                slow_recv,
                Box::new(Sink {
                    completions: vec![],
                }),
            );
            sim.add_node("s1", fast, Box::new(Source { target: sink }));
            sim.add_node("s2", fast, Box::new(Source { target: sink }));
            sim.run_to_quiescence();
            let s: &Sink = sim.node_ref(sink);
            s.completions
                .iter()
                .map(|t| t.as_secs_f64())
                .fold(0.0, f64::max)
        };
        assert!(
            duo_time > 1.6 * solo_time && duo_time < 2.6 * solo_time,
            "solo {solo_time}s, duo {duo_time}s"
        );
    }
}
