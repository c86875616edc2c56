//! Sharded conservative discrete-event engine.
//!
//! Nodes are partitioned into `N` shards by node id (`id % N`); each shard
//! owns its nodes, their connection halves, a private event queue and its own
//! clock. Shards advance in lockstep *windows*: every window runs each shard,
//! one after the other on the calling thread, from the global minimum
//! pending-event time `gn` up to an exclusive horizon `gn + λ`, where the
//! lookahead `λ` is the minimum possible cross-shard one-way latency.
//! Cross-shard traffic never travels faster than `λ`, so no event generated
//! inside a window can land inside the same window on another shard. Between
//! windows, cross-shard events are exchanged and inserted in
//! `(time, src, seq)`-sorted order.
//!
//! **Connection state.** Every event names the node it acts on, and that
//! node's [`NodeLocal`] holds its connection halves: initiator halves in a
//! dense sequence indexed by the per-initiator counter in the low 32 bits of
//! the `ConnId`, acceptor halves in a small ordered map keyed by conn id. A
//! half is dropped once it is dead, so memory and lookup cost follow the
//! connections *open now*, not every connection the run has seen; a lookup
//! that misses means "closed" and the event is dropped, exactly as it was
//! when the dead half was still around to say so.
//!
//! **Determinism.** Every event is keyed `(time, src node, per-src sequence)`
//! instead of the serial engine's global insertion order; connection and
//! timer ids pack `(owner node, per-owner counter)`; each node draws from its
//! own RNG stream seeded by `(run seed, node id)`; and all per-flow transport
//! state lives on exactly one shard (sender-side congestion/uplink sharing, a
//! receiver-side ingress pipe for downlink serialization). Nothing observable
//! depends on the partition, so runs are byte-identical across any shard
//! count — `determinism_check` gates this.
//!
//! The sender is the serial engine's ([`DirState::advance`]); the receiver is
//! an ingress pipe where the serial engine, the default, shares the downlink
//! fairly. See `DESIGN.md` §12 for that delta, the lookahead derivation and
//! the worker-thread protocol that was tried and removed.

use crate::iface::Iface;
// NB: `AsAny` is deliberately NOT imported: with the blanket `impl<T: Any>
// AsAny for T` in scope, `Box<dyn Node>::as_any()` would resolve on the Box
// itself instead of deref'ing to the node, breaking every downcast.
use crate::node::{ConnId, Ctx, CtxInner, Node, NodeId, TimerId};
use crate::sim::{BufPool, DirState, Kick, RunFlush, SimConfig, SimStats};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Direction, Sniffer, TraceEvent};
use crate::transport::TransportCfg;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
// bento-lint: allow(BL001) -- HashSet is only the membership-only cancelled-timer
// tombstone set (never iterated), same contract as the serial engine's.
use std::collections::HashSet;

/// The shard that owns `node` when the run is split into `shards` shards.
///
/// A pure, total function of the node id alone: `id % shards`. Every engine
/// instance, at any shard count, places a node the same way, which is what
/// lets connection/timer ids and event keys stay partition-independent.
pub fn shard_of(node: NodeId, shards: usize) -> usize {
    (node.0 as usize) % shards.max(1)
}

const ROLE_INIT: u8 = 0;
const ROLE_ACCEPT: u8 = 1;

/// The role `me` plays on `conn` (initiator halves are role 0).
fn role_of(me: NodeId, conn: ConnId) -> u8 {
    if (conn.0 >> 32) as u32 == me.0 {
        ROLE_INIT
    } else {
        ROLE_ACCEPT
    }
}

/// Shard-engine events. Each carries its partition-independent ordering key
/// explicitly; the node an event acts on is its [`SEvent::dst`].
#[derive(Debug)]
enum SKind {
    /// Connect handshake reached the acceptor; creates the accept half.
    SynArrive {
        conn: ConnId,
        from: NodeId,
        port: u16,
    },
    /// Connect handshake completed at the initiator.
    Established { conn: ConnId },
    /// Wake-up at the end of a chunk that a message or a close waits behind.
    ChunkDone { conn: ConnId, role: u8 },
    /// A message crossed the wire to the receiver's access link.
    Wire {
        conn: ConnId,
        sender_role: u8,
        msg: Vec<u8>,
    },
    /// Ingress-pipe serialization finished; deliver to the node.
    Deliver {
        conn: ConnId,
        sender_role: u8,
        msg: Vec<u8>,
    },
    /// A graceful close reached the receiving half.
    CloseArrive { conn: ConnId, sender_role: u8 },
    /// A close finished trailing the receiver's ingress pipe; the half dies
    /// and the node hears `on_conn_closed`.
    CloseDone { conn: ConnId, recv_role: u8 },
    /// A node timer fired.
    Timer { id: u64, tag: u64 },
}

/// An event with its total-order key `(time, src node, per-src seq)` and the
/// node it must reach: `shard_of(dst)` is the shard that runs it, and the
/// handler finds every piece of state it touches in `dst`'s [`NodeLocal`].
#[derive(Debug)]
struct SEvent {
    time: SimTime,
    src: u32,
    dst: u32,
    seq: u64,
    kind: SKind,
}

impl SEvent {
    fn key(&self) -> (SimTime, u32, u64) {
        (self.time, self.src, self.seq)
    }
}

impl PartialEq for SEvent {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for SEvent {}
impl PartialOrd for SEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the least key pops first. Keys
        // are unique (per-src seqs never repeat), so pop order is a total
        // order independent of insertion order.
        other.key().cmp(&self.key())
    }
}

/// Per-shard event queue: same pre-sizing and timer-tombstone support as the
/// serial [`crate::event::EventQueue`], but keyed by `(time, src, seq)`.
struct ShardQueue {
    heap: BinaryHeap<SEvent>,
}

impl ShardQueue {
    /// Matches the serial queue's pre-size so `--shards 1` keeps the PR 2
    /// zero-realloc property.
    const INITIAL_CAPACITY: usize = 1024;

    fn new() -> Self {
        ShardQueue {
            heap: BinaryHeap::with_capacity(Self::INITIAL_CAPACITY),
        }
    }

    fn push(&mut self, ev: SEvent) {
        self.heap.push(ev);
    }

    fn pop(&mut self) -> Option<SEvent> {
        self.heap.pop()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Ids of every timer event still queued — the tombstone-prune contract,
    /// per shard.
    fn live_timer_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.heap.iter().filter_map(|e| match e.kind {
            SKind::Timer { id, .. } => Some(id),
            _ => None,
        })
    }
}

/// One endpoint of a connection, stored in its owner's [`Halves`]. The
/// initiator owns the `ROLE_INIT` half on its shard; the acceptor owns the
/// `ROLE_ACCEPT` half on its own — each half holds only the transmit state of
/// its owner, so no event ever needs to mutate two shards.
struct Half {
    peer: NodeId,
    dir: DirState,
    /// The peer's close took effect; the half goes after `on_conn_closed`.
    dead: bool,
    /// When the closing side's own half dies: the instant its close reaches
    /// the peer (`SimTime::MAX` until one is sent). Not an event — liveness
    /// reads [`Half::gone`], [`ShardCore::reap_due`] drops it sometime after.
    dies_at: SimTime,
}

impl Half {
    fn new(cfg: &TransportCfg, peer: NodeId) -> Self {
        Half {
            peer,
            dir: DirState::new(cfg),
            dead: false,
            dies_at: SimTime::MAX,
        }
    }

    fn gone(&self, now: SimTime) -> bool {
        self.dead || now >= self.dies_at
    }
}

/// The connection halves one node owns. A half is resident from the moment
/// it opens until it is dead, so memory and lookup depth
/// follow the node's *live* connections, not every connection it ever had;
/// every lookup is fallible, and a miss means "closed".
#[derive(Default)]
struct Halves {
    /// The per-initiator counter (`ConnId`'s low 32 bits) of `init[0]`.
    init_base: u32,
    /// Initiator halves, indexed by `counter - init_base`. Counters are
    /// handed out in order, so opening pushes at the back; a reaped half
    /// leaves a `None` that is trimmed once everything before it is gone too.
    init: VecDeque<Option<Box<Half>>>,
    /// Acceptor halves by conn id: other nodes' counters, so not dense.
    /// Ordered map, so nothing here can iterate in a run-dependent order;
    /// boxed, or a leaf holds room for eleven halves whatever is open.
    accept: BTreeMap<u64, Box<Half>>,
}

impl Halves {
    fn init_slot(&self, conn: ConnId) -> usize {
        (conn.0 as u32).wrapping_sub(self.init_base) as usize
    }

    fn get(&self, conn: ConnId, role: u8) -> Option<&Half> {
        if role == ROLE_INIT {
            self.init.get(self.init_slot(conn))?.as_deref()
        } else {
            self.accept.get(&conn.0).map(Box::as_ref)
        }
    }

    fn get_mut(&mut self, conn: ConnId, role: u8) -> Option<&mut Half> {
        if role == ROLE_INIT {
            let slot = self.init_slot(conn);
            self.init.get_mut(slot)?.as_deref_mut()
        } else {
            self.accept.get_mut(&conn.0).map(Box::as_mut)
        }
    }

    /// Store a new initiator half; returns the counter it was opened under.
    fn open_init(&mut self, half: Half) -> u32 {
        let ctr = self.init_base + self.init.len() as u32;
        self.init.push_back(Some(Box::new(half)));
        ctr
    }

    fn remove(&mut self, conn: ConnId, role: u8) {
        if role == ROLE_INIT {
            let slot = self.init_slot(conn);
            if let Some(h) = self.init.get_mut(slot) {
                *h = None;
            }
            while let Some(None) = self.init.front() {
                self.init.pop_front();
                self.init_base += 1;
            }
        } else {
            self.accept.remove(&conn.0);
        }
    }

    fn live(&self) -> usize {
        self.init.iter().flatten().count() + self.accept.len()
    }
}

/// End times of the chunks serializing on a node's uplink: each holds a
/// fair-share slot for as long as its end lies ahead of the clock.
#[derive(Default)]
struct Uplink {
    /// One chunk's end, inline: a node with a single chunk in flight (every
    /// client of a scale run) allocates nothing for its slot count.
    one: SimTime,
    /// The ends of chunks that started while `one` was taken. Behind a thin
    /// pointer, so that [`NodeLocal`] stays at 64 bytes.
    #[allow(clippy::box_collection)]
    more: Option<Box<Vec<SimTime>>>,
}

impl Uplink {
    fn live(&self, now: SimTime) -> usize {
        let more = self.more.as_deref().into_iter().flatten();
        usize::from(self.one > now) + more.filter(|&&e| e > now).count()
    }

    fn hold(&mut self, now: SimTime, end: SimTime) {
        if self.one <= now {
            self.one = end;
        } else {
            let more = self.more.get_or_insert_default();
            more.retain(|&e| e > now);
            more.push(end);
        }
    }
}

/// Per-node engine-side state, stored dense by local index (`id / N`).
struct NodeLocal {
    /// Lazily seeded from `(run seed, node id)`: identical draws at any
    /// shard count, and untouched cost for nodes that never draw.
    rng: Option<Box<StdRng>>,
    /// Per-node event sequence; the third component of every key this node
    /// emits.
    seq: u64,
    timer_ctr: u32,
    /// When this node's downlink ingress pipe next frees up.
    ingress_free: SimTime,
    up: Uplink,
    /// Allocated at the node's first connection (like `rng`, boxed so that
    /// adding a node to a big topology writes 64 bytes here, not its tables).
    halves: Option<Box<Halves>>,
    sniffer: Option<Box<Sniffer>>,
    /// Dispatched (or handed to `with_node`) since its last
    /// `flush_telemetry`, and so listed in [`ShardCore::ran`].
    ran: bool,
}

/// A topology of 10⁵ idle nodes costs this much each, and no more.
const _: () = assert!(std::mem::size_of::<NodeLocal>() <= 64);

impl NodeLocal {
    fn half(&self, conn: ConnId, role: u8) -> Option<&Half> {
        self.halves.as_deref()?.get(conn, role)
    }

    fn half_mut(&mut self, conn: ConnId, role: u8) -> Option<&mut Half> {
        self.halves.as_deref_mut()?.get_mut(conn, role)
    }

    fn halves_mut(&mut self) -> &mut Halves {
        self.halves.get_or_insert_with(Box::default)
    }

    fn new() -> Self {
        NodeLocal {
            rng: None,
            seq: 0,
            timer_ctr: 0,
            ingress_free: SimTime::ZERO,
            up: Uplink::default(),
            halves: None,
            sniffer: None,
            ran: false,
        }
    }
}

/// State shared read-only by every shard during a window: the partition
/// arity, transport model, and the global iface/name tables.
pub(crate) struct ShardShared {
    seed: u64,
    cfg: TransportCfg,
    nshards: usize,
    ifaces: Vec<Iface>,
    names: Vec<String>,
}

impl ShardShared {
    fn one_way(&self, a: NodeId, b: NodeId) -> SimDuration {
        if a == b {
            self.cfg.loopback_rtt / 2
        } else {
            self.ifaces[a.0 as usize].latency + self.ifaces[b.0 as usize].latency
        }
    }

    fn rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        if a == b {
            self.cfg.loopback_rtt
        } else {
            self.one_way(a, b) * 2
        }
    }
}

/// What a [`Ctx`] borrows while a shard dispatches one of its nodes.
pub(crate) struct ShardCtx<'a> {
    pub(crate) shard: &'a mut ShardCore,
    pub(crate) shared: &'a ShardShared,
}

/// One shard: its nodes, their halves, its queue and clock.
pub(crate) struct ShardCore {
    idx: u32,
    nshards: u32,
    pub(crate) now: SimTime,
    queue: ShardQueue,
    nodes: Vec<Option<Box<dyn Node>>>,
    locals: Vec<NodeLocal>,
    /// Cross-shard emissions accumulated during a window; drained by
    /// [`ShardedSim::route_outboxes`] when the window ends.
    outbox: Vec<SEvent>,
    /// Closing-side halves waiting to die, `(dies_at, node, conn, role)`,
    /// earliest first. Not events: nothing observable depends on when
    /// [`ShardCore::reap_due`] drops them.
    dying: BinaryHeap<Reverse<(SimTime, u32, u64, u8)>>,
    /// Ids of the nodes whose `ran` flag is set, in dispatch order.
    ran: Vec<u32>,
    pub(crate) pool: BufPool,
    stats: SimStats,
    // bento-lint: allow(BL001) -- membership-only tombstone set; never iterated.
    cancelled_timers: HashSet<u64>,
    pending_timers: usize,
    timer_sweeps: u64,
    /// Telemetry baselines: cumulative values already flushed to the process
    /// registry, so each run reports only its delta.
    flushed_stats: SimStats,
    flushed_pool: (u64, u64, u64),
    flushed_sweeps: u64,
    msg_bytes: telemetry::hist::LogHistogram,
    hist_full: bool,
    max_depth: usize,
}

impl ShardCore {
    fn new(idx: u32, nshards: u32) -> Self {
        ShardCore {
            idx,
            nshards,
            now: SimTime::ZERO,
            queue: ShardQueue::new(),
            nodes: Vec::new(),
            locals: Vec::new(),
            outbox: Vec::new(),
            dying: BinaryHeap::new(),
            ran: Vec::new(),
            pool: BufPool::default(),
            stats: SimStats::default(),
            // bento-lint: allow(BL001) -- see field declaration.
            cancelled_timers: HashSet::new(),
            pending_timers: 0,
            timer_sweeps: 0,
            flushed_stats: SimStats::default(),
            flushed_pool: (0, 0, 0),
            flushed_sweeps: 0,
            msg_bytes: telemetry::hist::LogHistogram::new(),
            hist_full: false,
            max_depth: 0,
        }
    }

    fn local_index(&self, id: NodeId) -> usize {
        debug_assert_eq!(id.0 % self.nshards, self.idx, "node routed to wrong shard");
        (id.0 / self.nshards) as usize
    }

    fn local(&self, id: NodeId) -> &NodeLocal {
        &self.locals[self.local_index(id)]
    }

    fn local_mut(&mut self, id: NodeId) -> &mut NodeLocal {
        let li = self.local_index(id);
        &mut self.locals[li]
    }

    pub(crate) fn rng_for(&mut self, shared: &ShardShared, me: NodeId) -> &mut StdRng {
        let seed = shared.seed;
        let l = self.local_mut(me);
        l.rng.get_or_insert_with(|| {
            // Distinct, partition-independent stream per node.
            let stream = (me.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Box::new(StdRng::seed_from_u64(seed ^ stream))
        })
    }

    /// Schedule `kind` on `dst` at `time`, keyed by `src`'s next sequence
    /// number (`src` is always a node of this shard: the one acting). Same
    /// shard goes straight into the queue, cross-shard into the outbox for
    /// the exchange at the end of the window.
    fn post(&mut self, time: SimTime, src: NodeId, dst: NodeId, kind: SKind) {
        let l = self.local_mut(src);
        let seq = l.seq;
        l.seq += 1;
        let ev = SEvent {
            time,
            src: src.0,
            dst: dst.0,
            seq,
            kind,
        };
        if dst == src || dst.0 % self.nshards == self.idx {
            self.queue.push(ev);
        } else {
            self.outbox.push(ev);
        }
    }

    pub(crate) fn connect(
        &mut self,
        shared: &ShardShared,
        me: NodeId,
        dst: NodeId,
        port: u16,
    ) -> ConnId {
        let half = Half::new(&shared.cfg, dst);
        let ctr = self.local_mut(me).halves_mut().open_init(half);
        let conn = ConnId(((me.0 as u64) << 32) | ctr as u64);
        self.stats.conns_opened += 1;
        let t_syn = self.now + shared.one_way(me, dst);
        let t_est = self.now + shared.rtt(me, dst);
        let syn = SKind::SynArrive {
            conn,
            from: me,
            port,
        };
        self.post(t_syn, me, dst, syn);
        self.post(t_est, me, me, SKind::Established { conn });
        conn
    }

    pub(crate) fn peer_of(&self, me: NodeId, conn: ConnId) -> Option<NodeId> {
        let l = self.local(me);
        // Up to and including `on_conn_closed` (flagged dead there, dropped
        // after), but not past a closing half's own death, reaped or not.
        let half = |role| l.half(conn, role).filter(|h| self.now < h.dies_at);
        // A loopback connection has both halves here, under one id: answer
        // while either is around, so its `on_conn_closed` (the accept
        // half's; the initiator half is already gone) still learns the peer.
        Some(half(role_of(me, conn)).or_else(|| half(ROLE_ACCEPT))?.peer)
    }

    /// `me`'s half of `conn`, unless it can no longer send or receive.
    fn live_mut(&mut self, me: NodeId, conn: ConnId, role: u8) -> Option<&mut Half> {
        let now = self.now;
        let half = self.local_mut(me).half_mut(conn, role);
        half.filter(|h| !h.gone(now))
    }

    pub(crate) fn send(
        &mut self,
        shared: &ShardShared,
        me: NodeId,
        conn: ConnId,
        msg: Vec<u8>,
    ) -> bool {
        let role = role_of(me, conn);
        let Some(h) = self.live_mut(me, conn, role).filter(|h| !h.dir.closing) else {
            return false;
        };
        h.dir.queue.push_back(msg);
        self.kick(shared, me, conn, role);
        true
    }

    pub(crate) fn close(&mut self, shared: &ShardShared, me: NodeId, conn: ConnId) {
        let role = role_of(me, conn);
        let Some(h) = self.live_mut(me, conn, role) else {
            return;
        };
        h.dir.closing = true;
        // Behind queued data the close goes when the queue has drained.
        if h.dir.queue.is_empty() {
            self.kick(shared, me, conn, role);
        }
    }

    /// Drop every closing-side half whose death the clock has reached.
    fn reap_due(&mut self) {
        while let Some(&Reverse((t, node, conn, role))) = self.dying.peek() {
            if t > self.now {
                break;
            }
            self.dying.pop();
            // A miss: the peer's own close got here first.
            if let Some(halves) = self.local_mut(NodeId(node)).halves.as_deref_mut() {
                halves.remove(ConnId(conn), role);
            }
        }
    }

    pub(crate) fn set_timer(&mut self, me: NodeId, delay: SimDuration, tag: u64) -> TimerId {
        let at = self.now + delay;
        let l = self.local_mut(me);
        let id = ((me.0 as u64) << 32) | l.timer_ctr as u64;
        l.timer_ctr += 1;
        self.pending_timers += 1;
        self.post(at, me, me, SKind::Timer { id, tag });
        TimerId(id)
    }

    pub(crate) fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled_timers.insert(id.0);
        // Same tombstone-prune policy as the serial engine, applied per shard:
        // when tombstones outnumber timers actually queued here by a margin,
        // sweep out the dead ones.
        if self.cancelled_timers.len() > self.pending_timers + 64 {
            let live: std::collections::BTreeSet<u64> = self.queue.live_timer_ids().collect();
            self.cancelled_timers.retain(|t| live.contains(t));
            self.timer_sweeps += 1;
        }
    }

    /// The sharded engine's transmit path: [`DirState::advance`] at
    /// `min(window rate, uplink / n_up)`, where `n_up` counts this chunk and
    /// every chunk of the node whose end time lies ahead of the clock. The
    /// receiver's downlink is charged on arrival, by its ingress pipe.
    fn kick(&mut self, shared: &ShardShared, me: NodeId, conn: ConnId, role: u8) {
        let (now, sender_role) = (self.now, role);
        loop {
            let l = self.local_mut(me);
            let halves = l.halves.as_deref_mut();
            let Some(h) = halves.and_then(|hs| hs.get_mut(conn, role)) else {
                return;
            };
            if h.gone(now) {
                return;
            }
            let peer = h.peer;
            let up = &mut l.up;
            let step = h.dir.advance(&shared.cfg, now, |cwnd| {
                let window_rate = cwnd.rate(shared.rtt(me, peer));
                if me == peer {
                    return window_rate.min(shared.cfg.loopback_bps);
                }
                window_rate.min(shared.ifaces[me.0 as usize].up_share(up.live(now) + 1))
            });
            match step {
                Kick::Idle => return,
                Kick::Wake(end) => return self.post(end, me, me, SKind::ChunkDone { conn, role }),
                Kick::Close => {
                    // Our own half dies as the peer learns of the close, like
                    // the serial engine's single conn-wide dead flag.
                    let t = now + shared.one_way(me, peer);
                    h.dies_at = t;
                    self.dying.push(Reverse((t, me.0, conn.0, role)));
                    return self.post(t, me, peer, SKind::CloseArrive { conn, sender_role });
                }
                Kick::Started { end, msg } => {
                    if me != peer {
                        up.hold(now, end);
                    }
                    let Some(msg) = msg else { continue };
                    if let Some(s) = l.sniffer.as_mut() {
                        s.record(TraceEvent {
                            time: end,
                            dir: Direction::Outgoing,
                            bytes: msg.len() as u32,
                            conn,
                            peer,
                        });
                    }
                    let wire = SKind::Wire {
                        conn,
                        sender_role,
                        msg,
                    };
                    self.post(end + shared.one_way(me, peer), me, peer, wire);
                }
            }
        }
    }

    /// A message reached this node's access link: serialize it through the
    /// downlink ingress pipe, then deliver.
    fn on_wire(
        &mut self,
        shared: &ShardShared,
        me: NodeId,
        conn: ConnId,
        sender_role: u8,
        msg: Vec<u8>,
    ) {
        let recv_role = 1 - sender_role;
        if self.live_mut(me, conn, recv_role).is_none() {
            return;
        }
        let down = shared.ifaces[me.0 as usize].down_bps;
        let wire = msg.len() as u64 + shared.cfg.per_msg_overhead as u64;
        let now = self.now;
        let l = self.local_mut(me);
        // An unlimited downlink takes no time and leaves the pipe alone.
        let done_at = if down == 0 {
            now
        } else {
            l.ingress_free = now.max(l.ingress_free) + SimDuration::for_bytes(wire, down);
            l.ingress_free
        };
        if done_at == now {
            self.deliver(shared, me, conn, recv_role, msg);
        } else {
            let deliver = SKind::Deliver {
                conn,
                sender_role,
                msg,
            };
            self.post(done_at, me, me, deliver);
        }
    }

    fn deliver(
        &mut self,
        shared: &ShardShared,
        me: NodeId,
        conn: ConnId,
        recv_role: u8,
        msg: Vec<u8>,
    ) {
        let Some(peer) = self.live_mut(me, conn, recv_role).map(|h| h.peer) else {
            return;
        };
        self.stats.msgs_delivered += 1;
        self.stats.bytes_delivered += msg.len() as u64;
        if self.hist_full {
            self.msg_bytes.record(msg.len() as u64);
        }
        let now = self.now;
        if let Some(s) = self.local_mut(me).sniffer.as_mut() {
            s.record(TraceEvent {
                time: now,
                dir: Direction::Incoming,
                bytes: msg.len() as u32,
                conn,
                peer,
            });
        }
        self.dispatch(shared, me, |n, ctx| n.on_msg(ctx, conn, msg));
    }

    /// Node `id` is handed out mutably: it is owed a `flush_telemetry`.
    fn mark_ran(&mut self, li: usize, id: NodeId) {
        if !std::mem::replace(&mut self.locals[li].ran, true) {
            self.ran.push(id.0);
        }
    }

    fn dispatch(
        &mut self,
        shared: &ShardShared,
        id: NodeId,
        f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
    ) {
        let li = self.local_index(id);
        self.mark_ran(li, id);
        let mut node = self.nodes[li]
            .take()
            // bento-lint: allow(BL010) -- the node slot is vacated only for this dispatch frame; handlers cannot re-enter
            .expect("node reentrancy during dispatch");
        let mut ctx = Ctx {
            inner: CtxInner::Shard(ShardCtx {
                shard: self,
                shared,
            }),
            me: id,
        };
        f(node.as_mut(), &mut ctx);
        self.nodes[li] = Some(node);
    }

    /// A graceful close takes effect on the receiving half. The half is
    /// still resident (dead) while the node hears `on_conn_closed`, so
    /// `Ctx::peer_of` answers there; it is dropped right after. A chunk it
    /// has in flight keeps its uplink slot by its end time, not by the half.
    fn close_done(&mut self, shared: &ShardShared, me: NodeId, conn: ConnId, recv_role: u8) {
        let Some(h) = self.live_mut(me, conn, recv_role) else {
            return;
        };
        h.dead = true;
        self.dispatch(shared, me, |n, ctx| n.on_conn_closed(ctx, conn));
        self.local_mut(me).halves_mut().remove(conn, recv_role);
    }

    fn handle(&mut self, shared: &ShardShared, me: NodeId, kind: SKind) {
        match kind {
            SKind::SynArrive { conn, from, port } => {
                let mut h = Box::new(Half::new(&shared.cfg, from));
                h.dir.ready = true;
                self.local_mut(me).halves_mut().accept.insert(conn.0, h);
                // No kick/close check needed: the half was born this instant,
                // so its queue is empty and it cannot be closing.
                self.dispatch(shared, me, |n, ctx| n.on_conn_open(ctx, conn, from, port));
            }
            SKind::Established { conn } => {
                // A miss: the acceptor's close landed first (same instant,
                // lower key) and the half is already gone.
                let Some(h) = self.live_mut(me, conn, ROLE_INIT) else {
                    return;
                };
                h.dir.ready = true;
                let peer = h.peer;
                self.kick(shared, me, conn, ROLE_INIT);
                self.dispatch(shared, me, |n, ctx| n.on_conn_established(ctx, conn, peer));
            }
            SKind::ChunkDone { conn, role } => {
                // Whatever waited behind the chunk goes next, unless the half
                // is gone or the wake-up is stale.
                let now = self.now;
                let half = self.live_mut(me, conn, role);
                if half.is_some_and(|h| h.dir.take_wake(now)) {
                    self.kick(shared, me, conn, role);
                }
            }
            SKind::Wire {
                conn,
                sender_role,
                msg,
            } => self.on_wire(shared, me, conn, sender_role, msg),
            SKind::Deliver {
                conn,
                sender_role,
                msg,
            } => self.deliver(shared, me, conn, 1 - sender_role, msg),
            SKind::CloseArrive { conn, sender_role } => {
                let recv_role = 1 - sender_role;
                if self.live_mut(me, conn, recv_role).is_none() {
                    return;
                }
                // The close trails anything still serializing through this
                // node's ingress pipe: the sender emitted it after its last
                // data chunk, so it must not overtake deferred `Deliver`
                // events and kill the half before they land (the serial
                // engine pays downlink cost at the sender, where this
                // ordering is structural).
                let free = self.local_mut(me).ingress_free;
                if free <= self.now {
                    self.close_done(shared, me, conn, recv_role);
                } else {
                    self.post(free, me, me, SKind::CloseDone { conn, recv_role });
                }
            }
            SKind::CloseDone { conn, recv_role } => self.close_done(shared, me, conn, recv_role),
            SKind::Timer { id, tag } => {
                self.pending_timers = self.pending_timers.saturating_sub(1);
                if self.cancelled_timers.remove(&id) {
                    return;
                }
                self.dispatch(shared, me, |n, ctx| n.on_timer(ctx, tag));
            }
        }
    }

    /// Run this shard's events strictly before `horizon`. Returns events
    /// processed.
    fn run_window(&mut self, shared: &ShardShared, horizon: SimTime) -> u64 {
        let mut processed = 0u64;
        while let Some(t) = self.queue.peek_time() {
            if t >= horizon {
                break;
            }
            let depth = self.queue.len();
            if depth > self.max_depth {
                self.max_depth = depth;
            }
            // bento-lint: allow(BL010) -- the loop condition peeked this event; nothing pops between peek and here
            let ev = self.queue.pop().expect("peeked event vanished");
            self.now = ev.time;
            self.reap_due();
            self.stats.events += 1;
            processed += 1;
            self.handle(shared, NodeId(ev.dst), ev.kind);
        }
        processed
    }

    /// This run's telemetry delta, advancing the flush baselines.
    fn flush_delta(&mut self) -> RunFlush {
        let s = self.stats;
        let f = self.flushed_stats;
        let pool = self.pool.counters();
        let d = RunFlush {
            events: s.events - f.events,
            msgs: s.msgs_delivered - f.msgs_delivered,
            bytes: s.bytes_delivered - f.bytes_delivered,
            conns: s.conns_opened - f.conns_opened,
            pool_hits: pool.0 - self.flushed_pool.0,
            pool_misses: pool.1 - self.flushed_pool.1,
            pool_recycled: pool.2 - self.flushed_pool.2,
            timer_sweeps: self.timer_sweeps - self.flushed_sweeps,
            queue_depth: self.max_depth as u64,
            ..RunFlush::default()
        };
        self.flushed_stats = s;
        self.flushed_pool = pool;
        self.flushed_sweeps = self.timer_sweeps;
        d
    }
}

/// The sharded engine behind [`crate::sim::Simulator`] when
/// `SimConfig::shards >= 1`.
pub(crate) struct ShardedSim {
    shared: ShardShared,
    shards: Vec<ShardCore>,
    total_nodes: usize,
    started_upto: usize,
    /// Smallest access latency among each shard's nodes (`None`: no nodes
    /// yet), kept current by `add_node` so `lookahead` never walks ifaces.
    shard_min_latency: Vec<Option<u64>>,
    /// `route_outboxes`' merge buffer, kept for its capacity.
    routing: Vec<SEvent>,
}

impl ShardedSim {
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        let n = cfg.shards.max(1);
        ShardedSim {
            shared: ShardShared {
                seed: cfg.seed,
                cfg: cfg.transport,
                nshards: n,
                ifaces: Vec::new(),
                names: Vec::new(),
            },
            shards: (0..n).map(|i| ShardCore::new(i as u32, n as u32)).collect(),
            total_nodes: 0,
            started_upto: 0,
            shard_min_latency: vec![None; n],
            routing: Vec::new(),
        }
    }

    fn locate(&self, id: NodeId) -> (usize, usize) {
        let s = shard_of(id, self.shared.nshards);
        (s, (id.0 as usize) / self.shared.nshards)
    }

    pub(crate) fn add_node(&mut self, name: String, iface: Iface, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.total_nodes as u32);
        self.total_nodes += 1;
        let (s, _) = self.locate(id);
        self.shards[s].nodes.push(Some(node));
        self.shards[s].locals.push(NodeLocal::new());
        let min = &mut self.shard_min_latency[s];
        *min = Some(min.map_or(iface.latency.0, |m| m.min(iface.latency.0)));
        self.shared.ifaces.push(iface);
        self.shared.names.push(name);
        id
    }

    pub(crate) fn enable_sniffer(&mut self, id: NodeId) {
        let (s, li) = self.locate(id);
        self.shards[s].locals[li].sniffer = Some(Box::new(Sniffer::new()));
    }

    pub(crate) fn sniffer(&self, id: NodeId) -> &Sniffer {
        let (s, li) = self.locate(id);
        self.shards[s].locals[li]
            .sniffer
            .as_ref()
            .expect("sniffer not enabled on this node")
    }

    pub(crate) fn sniffer_mut(&mut self, id: NodeId) -> &mut Sniffer {
        let (s, li) = self.locate(id);
        self.shards[s].locals[li]
            .sniffer
            .as_mut()
            .expect("sniffer not enabled on this node")
    }

    pub(crate) fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    pub(crate) fn stats(&self) -> SimStats {
        let mut out = SimStats::default();
        for s in &self.shards {
            out.events += s.stats.events;
            out.msgs_delivered += s.stats.msgs_delivered;
            out.bytes_delivered += s.stats.bytes_delivered;
            out.conns_opened += s.stats.conns_opened;
        }
        out
    }

    pub(crate) fn node_name(&self, id: NodeId) -> &str {
        &self.shared.names[id.0 as usize]
    }

    pub(crate) fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        let (s, li) = self.locate(id);
        self.shards[s].nodes[li]
            .as_ref()
            .expect("node is being dispatched")
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    pub(crate) fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let (s, li) = self.locate(id);
        self.shards[s].mark_ran(li, id);
        let mut node = self.shards[s].nodes[li]
            .take()
            .expect("node is being dispatched");
        let r = {
            let mut ctx = Ctx {
                inner: CtxInner::Shard(ShardCtx {
                    shard: &mut self.shards[s],
                    shared: &self.shared,
                }),
                me: id,
            };
            f(
                node.as_any_mut()
                    .downcast_mut::<T>()
                    .expect("node type mismatch"),
                &mut ctx,
            )
        };
        self.shards[s].nodes[li] = Some(node);
        self.route_outboxes();
        r
    }

    pub(crate) fn active_link_slots(&self, id: NodeId) -> (u32, u32) {
        let (s, li) = self.locate(id);
        let shard = &self.shards[s];
        (shard.locals[li].up.live(shard.now) as u32, 0)
    }

    /// Halves resident across all nodes (walks every node: diagnostics only).
    pub(crate) fn live_halves(&self) -> usize {
        let locals = self.shards.iter().flat_map(|s| &s.locals);
        locals.flat_map(|l| &l.halves).map(|h| h.live()).sum()
    }

    fn ensure_started(&mut self) {
        while self.started_upto < self.total_nodes {
            let id = NodeId(self.started_upto as u32);
            self.started_upto += 1;
            let (s, _) = self.locate(id);
            let shared = &self.shared;
            self.shards[s].dispatch(shared, id, |n, ctx| n.on_start(ctx));
        }
        self.route_outboxes();
    }

    /// Drain every shard's outbox into the destination queues, in
    /// `(time, src, seq)`-sorted order: between runs, and at the end of
    /// every window.
    fn route_outboxes(&mut self) {
        let mut pending = std::mem::take(&mut self.routing);
        for s in &mut self.shards {
            pending.append(&mut s.outbox);
        }
        pending.sort_by_key(SEvent::key);
        for ev in pending.drain(..) {
            let s = shard_of(NodeId(ev.dst), self.shared.nshards);
            self.shards[s].queue.push(ev);
        }
        self.routing = pending;
    }

    /// The conservative lookahead: the minimum one-way latency any message
    /// can incur between two distinct shards — the sum of the two smallest
    /// per-shard minimum access latencies. `None` when fewer than two shards
    /// hold nodes (no cross-shard traffic is possible, lookahead ∞).
    fn lookahead(&self) -> Option<SimDuration> {
        let (mut least, mut second) = (None, None);
        for lat in self.shard_min_latency.iter().flatten().copied() {
            if least.is_none_or(|l| lat < l) {
                second = least.replace(lat);
            } else if second.is_none_or(|s| lat < s) {
                second = Some(lat);
            }
        }
        let lambda = least? + second?;
        assert!(
            lambda > 0,
            "sharded engine requires positive cross-shard lookahead: at least two \
             shards contain nodes with zero access-link latency, so the minimum \
             cross-shard delay is zero. Give nodes nonzero latency or run with \
             shards = 1."
        );
        Some(SimDuration(lambda))
    }

    pub(crate) fn run_until(&mut self, limit: SimTime) -> u64 {
        self.ensure_started();
        let hist_full = telemetry::mode() >= telemetry::Mode::Full;
        for s in &mut self.shards {
            s.hist_full = hist_full;
            s.max_depth = s.queue.len();
        }
        let enter_ns = self.now().as_nanos();
        let lookahead = self.lookahead();
        let processed = self.run_sequential(limit, lookahead);
        // Settle every shard clock on the common end time, as the serial
        // engine does for its single clock.
        let end = if limit < SimTime::MAX {
            limit
        } else {
            self.now()
        };
        for s in &mut self.shards {
            if s.now < end {
                s.now = end;
            }
            s.reap_due();
        }
        self.flush_run(enter_ns, processed);
        processed
    }

    fn window_horizon(gn: SimTime, lookahead: Option<SimDuration>, limit: SimTime) -> SimTime {
        let cap = SimTime(limit.0.saturating_add(1));
        match lookahead {
            None => cap,
            Some(l) => SimTime(gn.0.saturating_add(l.0)).min(cap),
        }
    }

    /// The window loop: every shard runs up to the horizon in shard-index
    /// order, then the cross-shard events are exchanged.
    fn run_sequential(&mut self, limit: SimTime, lookahead: Option<SimDuration>) -> u64 {
        let mut processed = 0u64;
        while let Some(gn) = self.shards.iter().filter_map(|s| s.queue.peek_time()).min() {
            if gn > limit {
                break;
            }
            let horizon = Self::window_horizon(gn, lookahead, limit);
            for s in &mut self.shards {
                processed += s.run_window(&self.shared, horizon);
            }
            self.route_outboxes();
        }
        processed
    }

    /// Post-run telemetry epilogue: the nodes that ran since their last
    /// flush fold their counters in global id order, then per-shard engine
    /// deltas merge in shard-index order.
    fn flush_run(&mut self, enter_ns: u64, processed: u64) {
        // Taken, not drained: the first run's list (`on_start`) is every node.
        let shards = self.shards.iter_mut();
        let mut ran: Vec<u32> = shards.flat_map(|s| std::mem::take(&mut s.ran)).collect();
        ran.sort_unstable();
        for id in ran {
            let (s, li) = self.locate(NodeId(id));
            self.shards[s].locals[li].ran = false;
            if let Some(node) = self.shards[s].nodes[li].as_mut() {
                node.flush_telemetry();
            }
        }
        let mut total = RunFlush::default();
        let mut hist = telemetry::hist::LogHistogram::new();
        for s in &mut self.shards {
            let d = s.flush_delta();
            total.events += d.events;
            total.msgs += d.msgs;
            total.bytes += d.bytes;
            total.conns += d.conns;
            total.pool_hits += d.pool_hits;
            total.pool_misses += d.pool_misses;
            total.pool_recycled += d.pool_recycled;
            total.timer_sweeps += d.timer_sweeps;
            total.queue_depth = total.queue_depth.max(d.queue_depth);
            if !s.msg_bytes.is_empty() {
                hist.merge(&std::mem::take(&mut s.msg_bytes));
            }
        }
        total.enter_ns = enter_ns;
        total.exit_ns = self.now().as_nanos();
        total.processed = processed;
        crate::sim::flush_run_telemetry(&total, &mut hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::time::SimTime;

    /// Echoes every message back on the same connection.
    struct Echo;
    impl Node for Echo {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
            ctx.send(conn, msg);
        }
    }

    /// Connects at start, sends one message, records the echo time.
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

    fn sharded(seed: u64, shards: usize) -> Simulator {
        Simulator::new(SimConfig {
            seed,
            shards,
            ..SimConfig::default()
        })
    }

    /// Build a ring of pingers+echoes and run to quiescence, returning
    /// (stats, per-pinger reply times) — the invariance fingerprint.
    fn ring_run(shards: usize, n: usize) -> (crate::sim::SimStats, Vec<u64>) {
        let mut sim = sharded(7, shards);
        let iface = Iface::symmetric(SimDuration::from_millis(10), 1_000_000);
        let mut ids = Vec::new();
        for i in 0..n {
            if i % 2 == 0 {
                ids.push(sim.add_node(format!("echo{i}"), iface, Box::new(Echo)));
            } else {
                // Target the previous echo node.
                let target = ids[i - 1];
                ids.push(sim.add_node(
                    format!("ping{i}"),
                    iface,
                    Box::new(Pinger {
                        target,
                        payload: 2000 + i * 37,
                        reply_at: None,
                        replies: 0,
                    }),
                ));
            }
        }
        sim.run_to_quiescence();
        let mut replies = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 1 {
                let p: &Pinger = sim.node_ref(*id);
                assert_eq!(p.replies, 1, "pinger {i} got exactly one echo");
                replies.push(p.reply_at.expect("reply").as_nanos());
            }
        }
        (sim.stats(), replies)
    }

    #[test]
    fn shard_of_is_total_and_stable() {
        for shards in 1..=8usize {
            for id in 0..1000u32 {
                let s = shard_of(NodeId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(NodeId(id), shards));
            }
        }
        // shards == 0 is clamped, not a panic.
        assert_eq!(shard_of(NodeId(3), 0), 0);
    }

    #[test]
    fn echo_rtt_matches_across_shard_counts() {
        let (s1, r1) = ring_run(1, 8);
        for shards in [2, 3, 4, 7] {
            let (s, r) = ring_run(shards, 8);
            assert_eq!(r, r1, "reply times differ at shards={shards}");
            assert_eq!(s, s1, "stats differ at shards={shards}");
        }
    }

    /// Timers fire at the right instants and cancellation works, on a
    /// node placed in a non-zero shard.
    struct TimerNode {
        fired: Vec<(u64, SimTime)>,
        cancel_me: Option<TimerId>,
    }
    impl Node for TimerNode {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(5), 1);
            let t = ctx.set_timer(SimDuration::from_millis(7), 2);
            ctx.set_timer(SimDuration::from_millis(9), 3);
            self.cancel_me = Some(t);
        }
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            if tag == 1 {
                if let Some(t) = self.cancel_me.take() {
                    ctx.cancel_timer(t);
                }
            }
            self.fired.push((tag, ctx.now()));
        }
    }

    #[test]
    fn timers_fire_and_cancel_in_any_shard() {
        // 1 ms access latency: zero-latency ifaces on 2+ shards would make
        // the lookahead zero, which the engine rejects by design.
        let iface = Iface::symmetric(SimDuration::from_millis(1), 0);
        for shards in [1usize, 3] {
            let mut sim = sharded(3, shards);
            // Pad so the timer node lands in shard 1 of 3.
            sim.add_node("pad0", iface, Box::new(Echo));
            let t = sim.add_node(
                "timers",
                iface,
                Box::new(TimerNode {
                    fired: Vec::new(),
                    cancel_me: None,
                }),
            );
            sim.add_node("pad2", iface, Box::new(Echo));
            sim.run_to_quiescence();
            let node: &TimerNode = sim.node_ref(t);
            let tags: Vec<u64> = node.fired.iter().map(|(t, _)| *t).collect();
            assert_eq!(tags, vec![1, 3], "timer 2 was cancelled (shards={shards})");
            assert_eq!(node.fired[0].1, SimTime::ZERO + SimDuration::from_millis(5));
            assert_eq!(node.fired[1].1, SimTime::ZERO + SimDuration::from_millis(9));
        }
    }

    #[test]
    fn loopback_connection_works_in_shard_engine() {
        // A node pinging itself exercises the loopback path (no cross-shard
        // traffic, rate capped by loopback_bps).
        let mut sim = sharded(5, 2);
        let a = sim.add_node(
            "self",
            Iface::residential(),
            Box::new(Pinger {
                target: NodeId(1),
                payload: 512,
                reply_at: None,
                replies: 0,
            }),
        );
        let b = sim.add_node("echo", Iface::residential(), Box::new(Echo));
        assert_eq!(b, NodeId(1));
        sim.run_to_quiescence();
        let p: &Pinger = sim.node_ref(a);
        assert_eq!(p.replies, 1);
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

    #[derive(Default)]
    struct Sink {
        msgs: u32,
        /// Each `on_conn_closed`: the conn and what `peer_of` said there.
        closed: Vec<(ConnId, Option<NodeId>)>,
    }
    impl Node for Sink {
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {
            self.msgs += 1;
        }
        fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
            self.closed.push((conn, ctx.peer_of(conn)));
        }
    }

    #[test]
    fn close_notifies_peer_in_other_shard() {
        let iface = Iface::symmetric(SimDuration::from_millis(1), 0);
        // Shards 0 is the serial engine: what `peer_of` answers from inside
        // `on_conn_closed` is part of the `Node` contract on both.
        for shards in [0usize, 2] {
            let mut sim = sharded(9, shards);
            let sink = sim.add_node("sink", iface, Box::new(Sink::default()));
            let closer = sim.add_node("closer", iface, Box::new(Closer { target: sink }));
            sim.run_to_quiescence();
            let s: &Sink = sim.node_ref(sink);
            assert_eq!(s.msgs, 1, "queued message drains before close");
            assert_eq!(s.closed.len(), 1, "peer sees on_conn_closed");
            let (conn, peer_then) = s.closed[0];
            assert_eq!(peer_then, Some(closer), "shards={shards}");
            // Afterwards the sharded engine has dropped the half, and with it
            // the answer; the serial engine keeps every connection.
            let peer_now = sim.with_node::<Sink, _>(sink, |_, ctx| ctx.peer_of(conn));
            assert_eq!(peer_now, (shards == 0).then_some(closer));
        }
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
        // its (higher-id) initiator at the instant of `Established`, ahead
        // of it in key order.
        let iface = Iface::symmetric(SimDuration::from_millis(1), 100_000);
        for shards in [1usize, 2, 3] {
            let mut sim = sharded(13, shards);
            let sink = sim.add_node("sink", iface, Box::new(Sink::default()));
            let flooder = sim.add_node("flooder", iface, Box::new(Flooder));
            let refuser = sim.add_node("refuser", iface, Box::new(Refuser));
            sim.add_node("closer", iface, Box::new(Closer { target: sink }));
            sim.add_node("hangup", iface, Box::new(HangUp { target: flooder }));
            sim.add_node("refused", iface, Box::new(HangUp { target: refuser }));
            sim.run_until(SimTime::ZERO + SimDuration::from_millis(10));
            assert_eq!(
                sim.active_link_slots(flooder),
                (1, 0),
                "the flood's chunk holds its slot past the close (shards={shards})"
            );
            assert_eq!(sim.live_conn_halves(), 0, "the slot outlives the half");
            sim.run_to_quiescence();
            assert_eq!(sim.live_conn_halves(), 0, "shards={shards}");
            for id in 0..6 {
                assert_eq!(sim.active_link_slots(NodeId(id)), (0, 0), "node {id}");
            }
        }
    }

    #[test]
    fn window_horizon_respects_limit_and_lookahead() {
        let gn = SimTime::ZERO + SimDuration::from_millis(10);
        let la = Some(SimDuration::from_millis(4));
        let far = SimTime::ZERO + SimDuration::from_secs(1);
        // horizon = gn + lookahead when the limit is far away
        assert_eq!(
            ShardedSim::window_horizon(gn, la, far),
            SimTime::ZERO + SimDuration::from_millis(14)
        );
        // exclusive cap at limit+1 so events AT the limit still run
        let near = SimTime::ZERO + SimDuration::from_millis(12);
        assert_eq!(
            ShardedSim::window_horizon(gn, la, near),
            SimTime(near.as_nanos() + 1)
        );
        // single shard / no cross-shard links: unbounded window to the cap
        assert_eq!(
            ShardedSim::window_horizon(gn, None, near),
            SimTime(near.as_nanos() + 1)
        );
    }
}
