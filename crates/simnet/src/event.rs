//! The event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence)`. The sequence number makes the
//! ordering *total* and insertion-ordered among simultaneous events, which is
//! what makes whole-simulation runs reproducible byte-for-byte.

use crate::fault::FaultAction;
use crate::node::{ConnId, NodeId};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Direction of travel over a connection, from the perspective of the
/// connection's initiator: `Forward` is initiator→acceptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowDir {
    /// Initiator → acceptor.
    Forward,
    /// Acceptor → initiator.
    Backward,
}

impl FlowDir {
    /// The opposite direction.
    pub fn flip(self) -> FlowDir {
        match self {
            FlowDir::Forward => FlowDir::Backward,
            FlowDir::Backward => FlowDir::Forward,
        }
    }
}

/// Internal simulator events.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// The connect handshake reached the acceptor (SYN arrival).
    ConnSynArrive { conn: ConnId },
    /// The connect handshake completed at the initiator.
    ConnEstablished { conn: ConnId },
    /// Wake-up at the end of a chunk's serialization, queued only when
    /// something waits behind the chunk.
    ChunkDone { conn: ConnId, dir: FlowDir },
    /// A complete message arrived at the receiving endpoint.
    MsgArrive {
        conn: ConnId,
        dir: FlowDir,
        msg: Vec<u8>,
    },
    /// A graceful close arrived at the receiving endpoint.
    CloseArrive { conn: ConnId, dir: FlowDir },
    /// A node timer fired. `inc` is the incarnation of the scheduling node:
    /// timers armed before a crash never fire on the restarted incarnation.
    Timer {
        node: NodeId,
        id: u64,
        tag: u64,
        inc: u32,
    },
    /// `node` abruptly learned its peer on `conn` vanished (crash or refused
    /// connect) — delivered as `on_conn_closed`, like a TCP reset.
    PeerGone { conn: ConnId, node: NodeId },
    /// A scheduled fault-plan action fires.
    Fault { action: FaultAction },
}

pub(crate) struct Event {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-priority queue of simulator events.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Pre-size for a busy run: even a small Tor network keeps hundreds of
    /// chunk/arrival events in flight, and growing the heap mid-run both
    /// reallocates and memmoves every pending event.
    const INITIAL_CAPACITY: usize = 1024;

    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(Self::INITIAL_CAPACITY),
            next_seq: 0,
        }
    }

    /// Schedule `kind` at absolute time `t`.
    pub fn push(&mut self, t: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time: t, seq, kind });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Remove and return the earliest event if it is due by `limit`.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<Event> {
        if self.peek_time()? > limit {
            return None;
        }
        self.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Ids of every timer event still in the queue (fired or not), in
    /// unspecified order. Used to prune the cancelled-timer tombstone set.
    pub fn live_timer_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.heap.iter().filter_map(|e| match e.kind {
            EventKind::Timer { id, .. } => Some(id),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        q.push(
            t(3),
            EventKind::Timer {
                node: NodeId(0),
                id: 3,
                tag: 3,
                inc: 0,
            },
        );
        q.push(
            t(1),
            EventKind::Timer {
                node: NodeId(0),
                id: 1,
                tag: 1,
                inc: 0,
            },
        );
        q.push(
            t(2),
            EventKind::Timer {
                node: NodeId(0),
                id: 2,
                tag: 2,
                inc: 0,
            },
        );
        let mut tags = Vec::new();
        while let Some(e) = q.pop() {
            if let EventKind::Timer { tag, .. } = e.kind {
                tags.push(tag);
            }
        }
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for tag in 0..10 {
            q.push(
                SimTime::ZERO,
                EventKind::Timer {
                    node: NodeId(0),
                    id: tag,
                    tag,
                    inc: 0,
                },
            );
        }
        let mut tags = Vec::new();
        while let Some(e) = q.pop() {
            if let EventKind::Timer { tag, .. } = e.kind {
                tags.push(tag);
            }
        }
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_tracks_minimum() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(
            SimTime(50),
            EventKind::Timer {
                node: NodeId(0),
                id: 0,
                tag: 0,
                inc: 0,
            },
        );
        q.push(
            SimTime(10),
            EventKind::Timer {
                node: NodeId(0),
                id: 1,
                tag: 1,
                inc: 0,
            },
        );
        assert_eq!(q.peek_time(), Some(SimTime(10)));
    }

    use proptest::prelude::*;

    proptest! {
        /// Pops come out in strictly increasing `(time, seq)` order for any
        /// push schedule — the invariant every deterministic run rests on.
        #[test]
        fn pops_totally_ordered(times in proptest::collection::vec(0u64..64, 1..256)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(
                    SimTime(t),
                    EventKind::Timer { node: NodeId(0), id: i as u64, tag: i as u64, inc: 0 },
                );
            }
            let mut last: Option<(SimTime, u64)> = None;
            let mut popped = 0usize;
            while let Some(e) = q.pop() {
                let key = (e.time, e.seq);
                if let Some(prev) = last {
                    prop_assert!(key > prev, "pop order regressed: {prev:?} then {key:?}");
                }
                // Equal times pop in insertion order (seq doubles as the
                // per-queue insertion index).
                if let EventKind::Timer { id, .. } = e.kind {
                    prop_assert_eq!(times[id as usize], e.time.0);
                }
                last = Some(key);
                popped += 1;
            }
            prop_assert_eq!(popped, times.len());
            prop_assert_eq!(q.len(), 0);
        }

        /// `live_timer_ids` reports exactly the timers still queued, at every
        /// point of a partial drain — the contract tombstone pruning needs.
        #[test]
        fn live_timer_ids_track_drain(
            times in proptest::collection::vec(0u64..32, 0..64),
            drain in 0usize..80,
        ) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(
                    SimTime(t),
                    EventKind::Timer { node: NodeId(0), id: i as u64, tag: 0, inc: 0 },
                );
                // Interleave non-timer events: they must never be reported.
                q.push(SimTime(t), EventKind::ConnEstablished { conn: ConnId(i as u64) });
            }
            let mut gone = std::collections::BTreeSet::new();
            for _ in 0..drain.min(q.len()) {
                if let Some(e) = q.pop() {
                    if let EventKind::Timer { id, .. } = e.kind {
                        gone.insert(id);
                    }
                }
            }
            let live: std::collections::BTreeSet<u64> = q.live_timer_ids().collect();
            let expect: std::collections::BTreeSet<u64> = (0..times.len() as u64)
                .filter(|id| !gone.contains(id))
                .collect();
            prop_assert_eq!(live, expect);
        }
    }
}
