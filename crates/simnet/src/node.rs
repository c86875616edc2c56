//! The [`Node`] trait — the unit of behavior in the simulator — and the
//! [`Ctx`] handle nodes use to act on the world.
//!
//! A node is a state machine driven by callbacks: connection lifecycle
//! events, message arrivals and timers. All side effects (connecting,
//! sending, scheduling timers) go through [`Ctx`], which borrows the
//! simulator's core; this keeps nodes pure state and the event loop the
//! single owner of time.

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
/// The simulator hands out ids in sequence, one per [`Ctx::connect`], and
/// never reuses one: an id outlives its connection, which is freed when it
/// dies. The value is opaque to nodes; only equality/ordering may be relied
/// on.
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
/// Nodes must be [`Send`]. A node is never called concurrently with itself:
/// the simulator dispatches on the thread that drives it.
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

    /// A run of messages for `conn`, in delivery order. The simulator never
    /// calls this: it serializes one message per chunk and delivers each
    /// through [`Node::on_msg`] at its own arrival. It stays for callers that
    /// hand a node several messages at once (the repo benchmark's fetch probe
    /// wraps and calls it; `RelayCore::on_msgs` records the run's size), and
    /// the default — each message through [`Node::on_msg`] in order — is what
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

/// The handle through which a node (or the experiment harness) acts on the
/// simulated world: connect, send, close, set timers, read the clock, draw
/// randomness.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut SimCore,
    pub(crate) me: NodeId,
}

impl<'a> Ctx<'a> {
    /// The node this context belongs to.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The run's deterministic random number generator: one stream, seeded
    /// by [`crate::SimConfig::seed`] and shared by every node.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Open a connection to `dst`'s `port`. The returned [`ConnId`] is usable
    /// for [`Ctx::send`] immediately — messages queue until the handshake
    /// completes one RTT later ([`Node::on_conn_established`]).
    pub fn connect(&mut self, dst: NodeId, port: u16) -> ConnId {
        self.core.connect(self.me, dst, port)
    }

    /// Queue `msg` for reliable, ordered delivery on `conn`.
    ///
    /// Returns `false` (dropping the message) if the connection is closed or
    /// unknown, or if this node is not an endpoint — a node can never write
    /// to another node's connection.
    pub fn send(&mut self, conn: ConnId, msg: Vec<u8>) -> bool {
        self.core.send(self.me, conn, msg)
    }

    /// Take a cleared buffer with at least `cap` capacity from the
    /// simulator's buffer pool, allocating only when the pool is empty. Pair
    /// with [`Ctx::recycle_buf`] to keep per-message sends allocation-free in
    /// steady state.
    pub fn take_buf(&mut self, cap: usize) -> Vec<u8> {
        self.core.pool.take(cap)
    }

    /// Return a buffer (typically a consumed `on_msg` payload) to the pool
    /// for reuse by later [`Ctx::take_buf`] calls.
    pub fn recycle_buf(&mut self, buf: Vec<u8>) {
        self.core.pool.put(buf)
    }

    /// Gracefully close `conn`: queued messages drain, then the peer sees
    /// [`Node::on_conn_closed`].
    pub fn close(&mut self, conn: ConnId) {
        self.core.close(self.me, conn)
    }

    /// Schedule [`Node::on_timer`] with `tag` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let core = &mut *self.core;
        let id = core.next_timer_id;
        core.next_timer_id += 1;
        core.pending_timers += 1;
        let at = core.now + delay;
        let inc = core.incarnation_of(self.me);
        core.queue.push(
            at,
            EventKind::Timer {
                node: self.me,
                id,
                tag,
                inc,
            },
        );
        TimerId(id)
    }

    /// Cancel a pending timer. Cancelling an already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        let core = &mut *self.core;
        core.cancelled_timers.insert(id.0);
        // Cancelling an already-popped timer leaves a tombstone nothing
        // will ever collect; when tombstones outnumber timers actually
        // in the queue by a margin, sweep out the dead ones.
        if core.cancelled_timers.len() > core.pending_timers + 64 {
            let live: std::collections::BTreeSet<u64> = core.queue.live_timer_ids().collect();
            core.cancelled_timers.retain(|t| live.contains(t));
            core.timer_sweeps += 1;
        }
    }

    /// The remote endpoint of `conn`, if this node is an endpoint of it and
    /// the connection has not died.
    ///
    /// A connection dies when its first close arrives: the receiving node
    /// still gets `Some` inside [`Node::on_conn_closed`], and both ends get
    /// `None` from then on. A connection the fault plane refused or that a
    /// crash took down answers `None` from the moment it died, so also in the
    /// `on_conn_closed` that reports it.
    pub fn peer_of(&self, conn: ConnId) -> Option<NodeId> {
        self.core.peer_of(self.me, conn)
    }
}
