//! The [`Node`] trait — the unit of behavior in the simulator — and the
//! [`Ctx`] handle nodes use to act on the world.
//!
//! A node is a state machine driven by callbacks: connection lifecycle
//! events, message arrivals and timers. All side effects (connecting,
//! sending, scheduling timers) go through [`Ctx`], which borrows the
//! engine core; this keeps nodes pure state and the event loop the single
//! owner of time. `Ctx` is engine-agnostic: the same node code runs on the
//! classic serial engine and on the sharded conservative-PDES engine
//! (`crate::shard`) without change.

use crate::event::EventKind;
use crate::sim::SimCore;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use std::any::Any;
use std::fmt;

/// Identifies a node in the simulation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a connection between two nodes.
///
/// The value is opaque to nodes: the serial engine hands out sequential ids,
/// the sharded engine packs `(initiator, per-initiator counter)` so ids are
/// partition-independent. Only equality/ordering may be relied on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

impl fmt::Debug for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifies a scheduled timer, for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub u64);

/// Object-safe upcast to [`Any`], blanket-implemented for every `'static`
/// type so [`Node`] implementors get downcasting for free.
pub trait AsAny: Any {
    /// Upcast to `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Behavior attached to a simulated host.
///
/// All methods have no-op defaults except [`Node::on_msg`]; most nodes only
/// care about messages and timers.
///
/// Nodes must be [`Send`]. They are never called concurrently with
/// themselves: every engine dispatches on the thread that drives it.
pub trait Node: AsAny + Send {
    /// Called once when the simulation starts (time zero, insertion order).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// An inbound connection request arrived on `port`; the connection is
    /// usable for sending from this side immediately.
    fn on_conn_open(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _peer: NodeId, _port: u16) {}

    /// An outbound [`Ctx::connect`] completed its handshake; the connection
    /// is now usable for sending from this side.
    fn on_conn_established(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _peer: NodeId) {}

    /// A complete message arrived on `conn`.
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>);

    /// A run of messages for `conn`, in delivery order. Neither engine calls
    /// this: both serialize one message per chunk and deliver each through
    /// [`Node::on_msg`] at its own arrival. It stays for callers that hand a
    /// node several messages at once (the repo benchmark's fetch probe wraps
    /// and calls it; `RelayCore::on_msgs` records the run's size), and the
    /// default — each message through [`Node::on_msg`] in order — is what
    /// any override must be equivalent to.
    fn on_msgs(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msgs: Vec<Vec<u8>>) {
        for msg in msgs {
            self.on_msg(ctx, conn, msg);
        }
    }

    /// The peer closed `conn`; no further messages will arrive on it.
    fn on_conn_closed(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {}

    /// A timer set with [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}

    /// The node's host crashed (fault injection): every connection it held
    /// is gone and no timer it armed will ever fire. Implementations should
    /// discard volatile state here; anything modeling durable storage (disk,
    /// sealed state) survives. No `Ctx` is provided — a crashed host cannot
    /// act on the network. The default does nothing.
    fn on_crash(&mut self) {}

    /// The host restarted after a crash, under a new incarnation. The
    /// default re-runs [`Node::on_start`].
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.on_start(ctx);
    }

    /// Fold any locally batched telemetry into the process metrics. The
    /// simulator calls this after each `run_until` event loop — out of the
    /// per-event hot path, and before any snapshot a bench trial captures —
    /// on every node that has run since its last flush (the others have
    /// nothing new to fold). Nodes that accumulate per-cell counters in
    /// plain fields (e.g. `tor-net`'s `RelayCore`) override this; the
    /// default does nothing.
    fn flush_telemetry(&mut self) {}
}

/// Which engine a [`Ctx`] is borrowing. Nodes never see this: every public
/// `Ctx` method dispatches on it, so node code is engine-agnostic.
pub(crate) enum CtxInner<'a> {
    /// The classic single-event-loop engine.
    Serial(&'a mut SimCore),
    /// One shard of the conservative-PDES engine.
    Shard(crate::shard::ShardCtx<'a>),
}

/// The handle through which a node (or the experiment harness) acts on the
/// simulated world: connect, send, close, set timers, read the clock, draw
/// randomness.
pub struct Ctx<'a> {
    pub(crate) inner: CtxInner<'a>,
    pub(crate) me: NodeId,
}

impl<'a> Ctx<'a> {
    /// The node this context belongs to.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        match &self.inner {
            CtxInner::Serial(core) => core.now,
            CtxInner::Shard(sc) => sc.shard.now,
        }
    }

    /// A deterministic random number generator.
    ///
    /// The serial engine has one run-global stream; the sharded engine gives
    /// each node its own stream seeded from `(run seed, node id)` so draws
    /// are independent of the partition and of dispatch interleaving.
    pub fn rng(&mut self) -> &mut StdRng {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Serial(core) => &mut core.rng,
            CtxInner::Shard(sc) => sc.shard.rng_for(sc.shared, me),
        }
    }

    /// Open a connection to `dst`'s `port`. The returned [`ConnId`] is usable
    /// for [`Ctx::send`] immediately — messages queue until the handshake
    /// completes one RTT later ([`Node::on_conn_established`]).
    pub fn connect(&mut self, dst: NodeId, port: u16) -> ConnId {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Serial(core) => core.connect(me, dst, port),
            CtxInner::Shard(sc) => sc.shard.connect(sc.shared, me, dst, port),
        }
    }

    /// Queue `msg` for reliable, ordered delivery on `conn`.
    ///
    /// Returns `false` (dropping the message) if the connection is closed or
    /// unknown, or if this node is not an endpoint — a node can never write
    /// to another node's connection.
    pub fn send(&mut self, conn: ConnId, msg: Vec<u8>) -> bool {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Serial(core) => core.send(me, conn, msg),
            CtxInner::Shard(sc) => sc.shard.send(sc.shared, me, conn, msg),
        }
    }

    /// Take a cleared buffer with at least `cap` capacity from the engine's
    /// buffer pool (per shard on the sharded engine), allocating only when
    /// the pool is empty. Pair with [`Ctx::recycle_buf`] to keep per-message
    /// sends allocation-free in steady state.
    pub fn take_buf(&mut self, cap: usize) -> Vec<u8> {
        match &mut self.inner {
            CtxInner::Serial(core) => core.pool.take(cap),
            CtxInner::Shard(sc) => sc.shard.pool.take(cap),
        }
    }

    /// Return a buffer (typically a consumed `on_msg` payload) to the pool
    /// for reuse by later [`Ctx::take_buf`] calls.
    pub fn recycle_buf(&mut self, buf: Vec<u8>) {
        match &mut self.inner {
            CtxInner::Serial(core) => core.pool.put(buf),
            CtxInner::Shard(sc) => sc.shard.pool.put(buf),
        }
    }

    /// Gracefully close `conn`: queued messages drain, then the peer sees
    /// [`Node::on_conn_closed`].
    pub fn close(&mut self, conn: ConnId) {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Serial(core) => core.close(me, conn),
            CtxInner::Shard(sc) => sc.shard.close(sc.shared, me, conn),
        }
    }

    /// Schedule [`Node::on_timer`] with `tag` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let me = self.me;
        match &mut self.inner {
            CtxInner::Serial(core) => {
                let id = core.next_timer_id;
                core.next_timer_id += 1;
                core.pending_timers += 1;
                let at = core.now + delay;
                let inc = core.incarnation_of(me);
                core.queue.push(
                    at,
                    EventKind::Timer {
                        node: me,
                        id,
                        tag,
                        inc,
                    },
                );
                TimerId(id)
            }
            CtxInner::Shard(sc) => sc.shard.set_timer(me, delay, tag),
        }
    }

    /// Cancel a pending timer. Cancelling an already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        match &mut self.inner {
            CtxInner::Serial(core) => {
                core.cancelled_timers.insert(id.0);
                // Cancelling an already-popped timer leaves a tombstone nothing
                // will ever collect; when tombstones outnumber timers actually
                // in the queue by a margin, sweep out the dead ones.
                if core.cancelled_timers.len() > core.pending_timers + 64 {
                    let live: std::collections::BTreeSet<u64> =
                        core.queue.live_timer_ids().collect();
                    core.cancelled_timers.retain(|t| live.contains(t));
                    core.timer_sweeps += 1;
                }
            }
            CtxInner::Shard(sc) => sc.shard.cancel_timer(id),
        }
    }

    /// The remote endpoint of `conn`, if this node is an endpoint of it.
    ///
    /// The sharded engine keeps a connection's state only while it is open:
    /// there the answer is `Some` up to and including the node's
    /// [`Node::on_conn_closed`] (or, on the closing side, until the close
    /// takes effect) and `None` afterwards. The serial engine never forgets.
    pub fn peer_of(&self, conn: ConnId) -> Option<NodeId> {
        let me = self.me;
        match &self.inner {
            CtxInner::Serial(core) => core.peer_of(me, conn),
            CtxInner::Shard(sc) => sc.shard.peer_of(me, conn),
        }
    }
}
