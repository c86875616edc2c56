//! The simulator: owns the clock, the event queue, the nodes, their access
//! interfaces, every live connection's transport state, and the sniffers.

use crate::event::{EventKind, EventQueue, FlowDir};
use crate::fault::{FaultAction, FaultPlan, FaultStats, LinkFault};
use crate::iface::Iface;
use crate::node::{ConnId, Ctx, Node, NodeId};
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
    /// Read by nothing: it used to select the sharded engine, which is gone
    /// (DESIGN.md §12). Kept only because
    /// `benchmark/src/workloads/scale_sharded.rs`, which a change to this
    /// crate may not edit, still assigns it; it goes together with that
    /// assignment (ROADMAP item 3).
    pub shards: usize,
    /// Read by nothing, like [`SimConfig::shards`], and kept for the same
    /// assignment.
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
/// progress, handshake/close flags and the congestion window.
#[derive(Debug)]
struct DirState {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of the front message (payload + overhead) already serialized.
    front_sent: u64,
    /// Size of the chunk last started; credited to the window, if `busy`,
    /// when the next one starts.
    inflight_chunk: u32,
    busy: bool,
    /// True once this direction may transmit (handshake progress).
    ready: bool,
    closing: bool,
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
enum Kick {
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
    fn new(cfg: &TransportCfg) -> Self {
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

    /// The transmit rule: put the front of the send queue — or, behind it,
    /// a pending close — on the wire, if the direction is ready and its
    /// previous chunk has finished serializing.
    ///
    /// A chunk is one message, or one piece of at most `cfg.chunk` bytes of
    /// a larger one, serialized at the rate `rate` gives it at the moment it
    /// starts: the engine's `min(window rate, link shares)`, asked once the
    /// previous chunk has been credited to the window. A chunk's completion
    /// is not an event. The arrival of a message it ends is the caller's to
    /// schedule here and now; a wake-up is asked for only while something
    /// waits behind a chunk still serializing, and once per chunk.
    fn advance(
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
    fn take_wake(&mut self, now: SimTime) -> bool {
        self.wake_at.take_if(|at| *at == now).is_some()
    }
}

/// A live connection: both directions' transmit state. It exists from
/// `connect` until the connection dies — its first close arrives, the fault
/// plane refuses it, or either endpoint crashes — and is freed then.
#[derive(Debug)]
struct Conn {
    a: NodeId,
    b: NodeId,
    port: u16,
    dirs: [DirState; 2],
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
    /// `me`'s sending direction, if `me` is an endpoint.
    fn dir_of(&self, me: NodeId) -> Option<FlowDir> {
        if self.a == me {
            Some(FlowDir::Forward)
        } else if self.b == me {
            Some(FlowDir::Backward)
        } else {
            None
        }
    }
}

/// The live connection `conn`, or `None` once it has died.
fn live(conns: &mut [Option<Box<Conn>>], conn: ConnId) -> Option<&mut Conn> {
    conns.get_mut(conn.0 as usize)?.as_deref_mut()
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
}

/// Everything in the simulator except the node objects themselves; nodes are
/// taken out of their slot during dispatch so [`Ctx`] can borrow this core
/// mutably without aliasing the node.
pub(crate) struct SimCore {
    pub(crate) now: SimTime,
    pub(crate) rng: StdRng,
    pub(crate) queue: EventQueue,
    cfg: TransportCfg,
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
    /// Indexed by `ConnId`, which is handed out in sequence. A slot is
    /// emptied, and its connection freed, the moment the connection dies,
    /// so memory follows the connections open now; an event or call that
    /// names an emptied slot is dropped, as it would be on a closed
    /// connection.
    conns: Vec<Option<Box<Conn>>>,
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

    fn conn(&self, conn: ConnId) -> Option<&Conn> {
        self.conns.get(conn.0 as usize)?.as_deref()
    }

    pub(crate) fn connect(&mut self, src: NodeId, dst: NodeId, port: u16) -> ConnId {
        let id = ConnId(self.conns.len() as u64);
        self.stats.conns_opened += 1;
        if self.faults_active && self.path_blocked(src, dst) {
            // Connection refused: the conn is born dead and the initiator
            // hears about it after a round trip, like a reset.
            self.conns.push(None);
            self.fault_stats.conns_refused += 1;
            let rtt = Self::rtt(&self.cfg, &self.ifaces, src, dst);
            self.queue.push(
                self.now + rtt,
                EventKind::PeerGone {
                    conn: id,
                    node: src,
                },
            );
            return id;
        }
        self.conns.push(Some(Box::new(Conn {
            a: src,
            b: dst,
            port,
            dirs: [DirState::new(&self.cfg), DirState::new(&self.cfg)],
        })));
        let one_way = self.one_way(src, dst);
        let rtt = Self::rtt(&self.cfg, &self.ifaces, src, dst);
        self.queue
            .push(self.now + one_way, EventKind::ConnSynArrive { conn: id });
        self.queue
            .push(self.now + rtt, EventKind::ConnEstablished { conn: id });
        id
    }

    pub(crate) fn peer_of(&self, me: NodeId, conn: ConnId) -> Option<NodeId> {
        let c = self.conn(conn)?;
        c.dir_of(me).map(|d| c.receiver(d))
    }

    pub(crate) fn send(&mut self, me: NodeId, conn: ConnId, msg: Vec<u8>) -> bool {
        let Some(c) = live(&mut self.conns, conn) else {
            return false;
        };
        let Some(dir) = c.dir_of(me) else {
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
        let Some(c) = live(&mut self.conns, conn) else {
            return;
        };
        let Some(dir) = c.dir_of(me) else {
            return;
        };
        let d = &mut c.dirs[Conn::dir_index(dir)];
        d.closing = true;
        // Behind queued data the close goes when the queue has drained.
        if d.queue.is_empty() {
            self.kick(conn, dir);
        }
    }

    /// The transmit path: [`DirState::advance`] at `min(window rate,
    /// uplink / n_up, downlink / n_down)`, where `n_up` and `n_down` count
    /// this chunk and every chunk on the same interface whose end time lies
    /// ahead of the clock.
    ///
    /// This is also the wire-entry fault point: a blocked path, loss and
    /// corruption are drawn when the chunk that ends the message *starts*
    /// (healthy traffic draws nothing). A message already in flight when its
    /// link, peer or partition side dies is dropped at arrival.
    fn kick(&mut self, conn: ConnId, dir: FlowDir) {
        let now = self.now;
        loop {
            let Some(c) = live(&mut self.conns, conn) else {
                return;
            };
            let (sender, receiver) = (c.sender(dir), c.receiver(dir));
            let (si, ri) = (sender.0 as usize, receiver.0 as usize);
            let (cfg, ifaces) = (&self.cfg, &self.ifaces);
            let (up_ends, down_ends) = (&mut self.up_ends, &mut self.down_ends);
            let step = c.dirs[Conn::dir_index(dir)].advance(cfg, now, |cwnd| {
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
                        self.enter_wire(conn, dir, (sender, receiver), end, msg);
                    }
                }
            }
        }
    }

    /// `msg`'s last byte leaves `sender` at `end`: the sender-side sniffer
    /// sees it then, and it arrives one propagation delay later — unless the
    /// fault plane takes it (see [`SimCore::kick`]).
    fn enter_wire(
        &mut self,
        conn: ConnId,
        dir: FlowDir,
        (sender, receiver): (NodeId, NodeId),
        end: SimTime,
        mut msg: Vec<u8>,
    ) {
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

/// The discrete-event simulator: one event queue, one clock, one RNG. See
/// the crate docs for the model.
pub struct Simulator {
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

impl Simulator {
    /// Create a simulator with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Simulator {
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

    /// Create a simulator with default config and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Simulator::new(SimConfig {
            seed,
            ..SimConfig::default()
        })
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
            core: &mut self.core,
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
            // bento-lint: allow(BL010) -- the node slot is vacated only for this dispatch frame; handlers cannot re-enter
            .expect("node reentrancy during dispatch");
        self.touched[id.0 as usize] = true;
        let mut ctx = Ctx {
            core: &mut self.core,
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
        while let Some(ev) = self.core.queue.pop_until(limit) {
            // The depth the queue had with this event still in it.
            max_depth = max_depth.max(self.core.queue.len() + 1);
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

    /// Every event whose connection has died is dropped here: its slot in
    /// `SimCore::conns` is empty.
    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::ConnSynArrive { conn } => {
                let Some(c) = live(&mut self.core.conns, conn) else {
                    return;
                };
                c.dirs[1].ready = true;
                let (a, b, port) = (c.a, c.b, c.port);
                self.core.kick(conn, FlowDir::Backward);
                self.dispatch(b, |n, ctx| n.on_conn_open(ctx, conn, a, port));
            }
            EventKind::ConnEstablished { conn } => {
                let Some(c) = live(&mut self.core.conns, conn) else {
                    return;
                };
                c.dirs[0].ready = true;
                let (a, b) = (c.a, c.b);
                self.core.kick(conn, FlowDir::Forward);
                self.dispatch(a, |n, ctx| n.on_conn_established(ctx, conn, b));
            }
            EventKind::ChunkDone { conn, dir } => {
                // Whatever waited behind the chunk goes next, unless the
                // connection is dead or the wake-up is stale.
                let now = self.core.now;
                let c = live(&mut self.core.conns, conn);
                if c.is_some_and(|c| c.dirs[Conn::dir_index(dir)].take_wake(now)) {
                    self.core.kick(conn, dir);
                }
            }
            EventKind::MsgArrive { conn, dir, msg } => {
                let Some(c) = self.core.conn(conn) else {
                    return;
                };
                let (receiver, sender) = (c.receiver(dir), c.sender(dir));
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
                let Some(c) = live(&mut self.core.conns, conn) else {
                    return;
                };
                // The connection dies here. It stays resident while the
                // receiver hears `on_conn_closed`, so `Ctx::peer_of` still
                // answers there, but shut: neither end may queue or start
                // anything on it. Then it is freed.
                for d in &mut c.dirs {
                    d.ready = false;
                    d.closing = true;
                }
                let receiver = c.receiver(dir);
                self.dispatch(receiver, |n, ctx| n.on_conn_closed(ctx, conn));
                self.core.conns[conn.0 as usize] = None;
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
        // side and is freed; the surviving peer learns one propagation delay
        // later, like a reset. In-flight chunks hold their fair-share slots
        // until their end times pass, as on a live connection, and pending
        // MsgArrive/CloseArrive events find no connection and drop.
        let mut notices: Vec<(ConnId, NodeId)> = Vec::new();
        for (ci, slot) in self.core.conns.iter_mut().enumerate() {
            let Some(c) = slot.as_deref() else {
                continue;
            };
            let Some(dir) = c.dir_of(node) else {
                continue;
            };
            let peer = c.receiver(dir);
            *slot = None;
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

    /// Connection halves the engine still holds state for, two for every
    /// connection not yet freed — test and CI hook: once every connection
    /// has closed and the run is quiescent this must read 0, or a connection
    /// leaked. (Walks every connection the run has opened.)
    pub fn live_conn_halves(&self) -> usize {
        2 * self.core.conns.iter().filter(|c| c.is_some()).count()
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
    /// only on those: an idle `run_until` flushes nobody.
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
        let mut sim = Simulator::new(SimConfig::default());
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

    /// Connects at start, sends three bytes and closes at once.
    struct Closer {
        target: NodeId,
    }
    impl Node for Closer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let c = ctx.connect(self.target, 80);
            ctx.send(c, vec![1, 2, 3]);
            ctx.close(c);
        }
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
    }

    /// Counts messages; on each `on_conn_closed` records what `peer_of` and
    /// a reply said there, and closes back.
    #[derive(Default)]
    struct Sink {
        msgs: u32,
        /// Per `on_conn_closed`: the conn, `peer_of` it, and `send` on it.
        closed: Vec<(ConnId, Option<NodeId>, bool)>,
    }
    impl Node for Sink {
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {
            self.msgs += 1;
        }
        fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
            let peer = ctx.peer_of(conn);
            let sent = ctx.send(conn, b"too late".to_vec());
            ctx.close(conn);
            self.closed.push((conn, peer, sent));
        }
    }

    /// A close drains the data queued ahead of it and reaches the peer,
    /// which still learns who it was talking to inside `on_conn_closed` but
    /// can no longer send or close on it. The connection is freed right
    /// after: `peer_of` forgets it on both ends.
    #[test]
    fn close_notifies_peer_and_stops_traffic() {
        let mut sim = Simulator::with_seed(9);
        let sink = sim.add_node("sink", Iface::residential(), Box::<Sink>::default());
        let closer = sim.add_node(
            "closer",
            Iface::residential(),
            Box::new(Closer { target: sink }),
        );
        sim.run_to_quiescence();
        let s: &Sink = sim.node_ref(sink);
        assert_eq!(s.msgs, 1, "message delivered before close");
        let [(conn, peer_then, sent)] = s.closed[..] else {
            panic!("peer observed one close, not {:?}", s.closed);
        };
        assert_eq!(peer_then, Some(closer));
        assert!(!sent, "a closed connection takes no more data");
        assert_eq!(sim.stats().msgs_delivered, 1);
        let sink_now = sim.with_node::<Sink, _>(sink, |_, ctx| ctx.peer_of(conn));
        let closer_now = sim.with_node::<Closer, _>(closer, |_, ctx| ctx.peer_of(conn));
        assert_eq!((sink_now, closer_now), (None, None));
        assert_eq!(sim.live_conn_halves(), 0);
    }

    /// Connects at start; records, at each `on_conn_closed`, what `peer_of`
    /// said there.
    struct Dialer {
        target: NodeId,
        closed: Vec<(ConnId, Option<NodeId>)>,
    }
    impl Node for Dialer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.target, 80);
        }
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
        fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
            self.closed.push((conn, ctx.peer_of(conn)));
        }
    }

    /// Whichever end closes, the other learns its peer inside
    /// `on_conn_closed` and `peer_of` forgets the connection afterwards:
    /// the acceptor hears the initiator's close, the initiator the
    /// acceptor's refusal.
    #[test]
    fn peer_of_answers_inside_on_conn_closed_on_both_ends() {
        let iface = Iface::symmetric(SimDuration::from_millis(1), 0);
        let mut sim = Simulator::with_seed(9);
        let sink = sim.add_node("sink", iface, Box::<Sink>::default());
        let closer = sim.add_node("closer", iface, Box::new(Closer { target: sink }));
        let refuser = sim.add_node("refuser", iface, Box::new(Refuser));
        let dialer = Box::new(Dialer {
            target: refuser,
            closed: Vec::new(),
        });
        let dialer = sim.add_node("dialer", iface, dialer);
        sim.run_to_quiescence();
        let s: &Sink = sim.node_ref(sink);
        assert_eq!(s.msgs, 1, "queued message drains before close");
        let [(at_sink, from_closer, _)] = s.closed[..] else {
            panic!("sink observed one close, not {:?}", s.closed);
        };
        let d: &Dialer = sim.node_ref(dialer);
        let [(at_dialer, from_refuser)] = d.closed[..] else {
            panic!("dialer observed one close, not {:?}", d.closed);
        };
        assert_eq!((from_closer, from_refuser), (Some(closer), Some(refuser)));
        let sink_now = sim.with_node::<Sink, _>(sink, |_, ctx| ctx.peer_of(at_sink));
        let dialer_now = sim.with_node::<Dialer, _>(dialer, |_, ctx| ctx.peer_of(at_dialer));
        assert_eq!((sink_now, dialer_now), (None, None));
        assert_eq!(sim.live_conn_halves(), 0);
    }

    /// Floods whoever connects; the flood outlives the connection.
    struct Flooder;
    impl Node for Flooder {
        fn on_conn_open(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: NodeId, _port: u16) {
            ctx.send(conn, vec![7; 100_000]);
        }
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
    }

    /// Connects at start and hangs up the moment the handshake completes.
    struct HangUp {
        target: NodeId,
    }
    impl Node for HangUp {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.target, 80);
        }
        fn on_conn_established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: NodeId) {
            ctx.close(conn);
        }
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
    }

    /// Refuses every connection the instant it opens.
    struct Refuser;
    impl Node for Refuser {
        fn on_conn_open(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: NodeId, _port: u16) {
            ctx.close(conn);
        }
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
    }

    #[test]
    fn closed_connections_leave_no_half_and_no_uplink_slot() {
        // 16 KiB chunks at 100 kB/s take 160 ms against 1 ms links, so the
        // hang-up reaches the flooder mid-chunk; the refuser's close reaches
        // its initiator at the instant of `Established`, just behind it.
        let iface = Iface::symmetric(SimDuration::from_millis(1), 100_000);
        let mut sim = Simulator::with_seed(13);
        let sink = sim.add_node("sink", iface, Box::<Sink>::default());
        let flooder = sim.add_node("flooder", iface, Box::new(Flooder));
        let refuser = sim.add_node("refuser", iface, Box::new(Refuser));
        sim.add_node("closer", iface, Box::new(Closer { target: sink }));
        let hangup = sim.add_node("hangup", iface, Box::new(HangUp { target: flooder }));
        sim.add_node("refused", iface, Box::new(HangUp { target: refuser }));
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(
            (
                sim.active_link_slots(flooder),
                sim.active_link_slots(hangup)
            ),
            ((1, 0), (0, 1)),
            "the flood's chunk holds its slots past the close"
        );
        assert_eq!(
            sim.live_conn_halves(),
            0,
            "the slots outlive the connection"
        );
        sim.run_to_quiescence();
        for id in 0..6 {
            assert_eq!(sim.active_link_slots(NodeId(id)), (0, 0), "node {id}");
        }
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

    /// A node's `on_start` may connect to a node added after it: `on_start`
    /// runs when the run begins, once every node is in place.
    #[test]
    fn a_node_can_connect_to_one_added_after_it() {
        let mut sim = Simulator::with_seed(5);
        let pinger = Box::new(Pinger {
            target: NodeId(1),
            payload: 512,
            reply_at: None,
            replies: 0,
        });
        let a = sim.add_node("ping", Iface::residential(), pinger);
        let b = sim.add_node("echo", Iface::residential(), Box::new(Echo));
        assert_eq!(b, NodeId(1));
        sim.run_to_quiescence();
        let p: &Pinger = sim.node_ref(a);
        assert_eq!(p.replies, 1);
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

    /// On a node between two others, timers fire at their exact instants,
    /// and one cancelled from inside another timer's callback never fires.
    #[test]
    fn timers_fire_on_time_and_cancel_from_a_callback() {
        struct TimerNode {
            fired: Vec<(u64, SimTime)>,
            cancel_me: Option<crate::node::TimerId>,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(5), 1);
                let t = ctx.set_timer(SimDuration::from_millis(7), 2);
                ctx.set_timer(SimDuration::from_millis(9), 3);
                self.cancel_me = Some(t);
            }
            fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, _m: Vec<u8>) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
                if let Some(t) = self.cancel_me.take() {
                    ctx.cancel_timer(t);
                }
                self.fired.push((tag, ctx.now()));
            }
        }
        let iface = Iface::symmetric(SimDuration::from_millis(1), 0);
        let mut sim = Simulator::with_seed(3);
        sim.add_node("pad0", iface, Box::new(Echo));
        let timers = Box::new(TimerNode {
            fired: Vec::new(),
            cancel_me: None,
        });
        let n = sim.add_node("timers", iface, timers);
        sim.add_node("pad2", iface, Box::new(Echo));
        sim.run_to_quiescence();
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let t: &TimerNode = sim.node_ref(n);
        assert_eq!(t.fired, vec![(1, at(5)), (3, at(9))]);
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
