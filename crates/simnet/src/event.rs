//! The event queue at the heart of the simulator.
//!
//! Events are ordered by `(time, sequence)`. The sequence number makes the
//! ordering *total* and insertion-ordered among simultaneous events, which is
//! what makes whole-simulation runs reproducible byte-for-byte.
//!
//! The queue is a calendar (R. Brown, CACM 1988) that pops in exactly that
//! order. Simulated time is cut into buckets of 2²⁰ ns (≈ 1.05 ms), and a ring
//! of 4 096 buckets covers the next ≈ 4.3 s after the *cursor*, the first
//! bucket not yet taken out of the ring:
//!
//! * Events live in one slab with a free list; a bucket is an intrusive
//!   singly linked list of slab slots, so a push is O(1) and, once the slab
//!   has grown to the run's peak depth, allocates nothing.
//! * An event past the ring's window waits in an *overflow* heap of
//!   `(time, seq, slot)` keys and moves into the ring as the cursor advances.
//!   When the ring is empty, the cursor jumps to the overflow's first bucket.
//! * When the earliest bucket comes due, its keys move into `current`,
//!   sorted once (descending, popped from the end) on one `u128` each: the
//!   time within the bucket, then `seq`, then the slot. All of a bucket's
//!   times share their high bits, so that integer orders exactly as
//!   `(time, seq)`, for every `u64` seq.
//! * An event pushed into a bucket already taken out of the ring goes to a
//!   small *side* heap; a pop takes the smaller of `current`'s last key and
//!   the side heap's top.
//!
//! Every key in `current` or the side heap lies in a bucket before the
//! cursor, and every key in the ring or the overflow heap in a bucket at or
//! after it, so the smaller of those two candidates is the global minimum.
//! `seq` is unique, so the `(time, seq)` order has no ties and the pop
//! sequence is the one a binary heap of the same pushes gives.

use crate::fault::FaultAction;
use crate::node::{ConnId, NodeId};
use crate::time::SimTime;
use std::cmp::Reverse;
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
    /// A cancelled timer stays queued, marked, and pops as a no-op.
    Timer {
        node: NodeId,
        tag: u64,
        inc: u32,
        cancelled: bool,
    },
    /// `node` abruptly learned its peer on `conn` vanished (crash or refused
    /// connect) — delivered as `on_conn_closed`, like a TCP reset.
    PeerGone { conn: ConnId, node: NodeId },
    /// A scheduled fault-plan action fires. Boxed: fault actions are rare,
    /// and unboxed the largest of them would widen every queued event.
    Fault { action: Box<FaultAction> },
}

pub(crate) struct Event {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

/// log₂ of a bucket's width in nanoseconds: 2²⁰ ns ≈ 1.05 ms.
const BUCKET_SHIFT: u32 = 20;
/// Buckets in the ring: 4 096 × 1.05 ms ≈ 4.3 s of simulated time.
const RING_BUCKETS: u64 = 4096;
/// End of a bucket's slot list.
const NIL: u32 = u32::MAX;

/// A queued event's place in the total order, and its slab slot.
type Key = (SimTime, u64, u32);

fn bucket_of(t: SimTime) -> u64 {
    t.0 >> BUCKET_SHIFT
}

/// `current`'s sort key for an event of the bucket being loaded: the time's
/// low [`BUCKET_SHIFT`] bits (its high bits are the bucket's), `seq` and the
/// slot, in 116 bits.
fn pack(t: SimTime, seq: u64, slot: u32) -> u128 {
    let sub = t.0 & ((1 << BUCKET_SHIFT) - 1);
    (u128::from(sub) << 96) | (u128::from(seq) << 32) | u128::from(slot)
}

/// The [`Key`] of a [`pack`]ed key of bucket `b`.
fn unpack(b: u64, k: u128) -> Key {
    let sub = (k >> 96) as u64;
    (
        SimTime((b << BUCKET_SHIFT) | sub),
        (k >> 32) as u64,
        k as u32,
    )
}

/// A deterministic min-priority queue of simulator events.
pub(crate) struct EventQueue {
    /// Every queued event; `None` marks a free slot.
    slab: Vec<Option<Event>>,
    /// `next[slot]`: the following slot in the same ring bucket's list, or
    /// in the free list; [`NIL`] ends both.
    next: Vec<u32>,
    /// Head of the free list: freed slots are reused last-freed first.
    free: u32,
    /// Occupied slots.
    len: usize,
    /// Head slot of each ring bucket's list; bucket `b` lives at
    /// `b % RING_BUCKETS` while `cursor <= b < cursor + RING_BUCKETS`.
    ring: Vec<u32>,
    /// Events linked into the ring.
    in_ring: usize,
    /// The first bucket not yet taken out of the ring.
    cursor: u64,
    /// The bucket last taken out of the ring: the one `current` holds.
    loaded: u64,
    /// [`pack`]ed keys of bucket `loaded`, sorted descending.
    current: Vec<u128>,
    /// Keys pushed into buckets before `cursor`.
    side: BinaryHeap<Reverse<Key>>,
    /// Keys in buckets at or past `cursor + RING_BUCKETS`.
    overflow: BinaryHeap<Reverse<Key>>,
    next_seq: u64,
}

impl EventQueue {
    /// Pre-size for a busy run: even a small Tor network keeps hundreds of
    /// chunk/arrival events in flight.
    const INITIAL_CAPACITY: usize = 1024;

    pub fn new() -> Self {
        EventQueue {
            slab: Vec::with_capacity(Self::INITIAL_CAPACITY),
            next: Vec::with_capacity(Self::INITIAL_CAPACITY),
            free: NIL,
            len: 0,
            ring: vec![NIL; RING_BUCKETS as usize],
            in_ring: 0,
            cursor: 0,
            loaded: 0,
            current: Vec::new(),
            side: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `kind` at absolute time `t`. Returns the event's slot and
    /// `seq`, which name it while it is queued (see [`Self::cancel_timer`]).
    pub fn push(&mut self, t: SimTime, kind: EventKind) -> (u32, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Some(Event { time: t, seq, kind });
        let slot = if self.free == NIL {
            self.slab.push(ev);
            self.next.push(NIL);
            (self.slab.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.next[slot as usize];
            self.slab[slot as usize] = ev;
            slot
        };
        self.len += 1;
        let b = bucket_of(t);
        if b < self.cursor {
            self.side.push(Reverse((t, seq, slot)));
        } else if b < self.cursor + RING_BUCKETS {
            self.link(b, slot);
        } else {
            self.overflow.push(Reverse((t, seq, slot)));
        }
        (slot, seq)
    }

    /// Mark the timer pushed as `(slot, seq)` cancelled, if it is still
    /// queued. Once it has popped, its slot is free or holds a later event
    /// with another `seq`, and this does nothing.
    pub fn cancel_timer(&mut self, slot: u32, seq: u64) {
        if let Some(Some(Event {
            seq: queued,
            kind: EventKind::Timer { cancelled, .. },
            ..
        })) = self.slab.get_mut(slot as usize)
        {
            if *queued == seq {
                *cancelled = true;
            }
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        let key = self.min_key()?;
        self.take(key)
    }

    /// Remove and return the earliest event if it is due by `limit`.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<Event> {
        if self.peek_time()? > limit {
            return None;
        }
        self.pop()
    }

    /// Time of the earliest pending event. Takes `&mut self` because it may
    /// take the next bucket out of the ring.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.min_key().map(|(t, ..)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Put `slot` at the head of ring bucket `b`'s list.
    fn link(&mut self, b: u64, slot: u32) {
        let head = &mut self.ring[(b % RING_BUCKETS) as usize];
        self.next[slot as usize] = *head;
        *head = slot;
        self.in_ring += 1;
    }

    /// The earliest key, taking the next bucket out of the ring first if
    /// `current` and the side heap are both empty.
    fn min_key(&mut self) -> Option<Key> {
        if self.current.is_empty() && self.side.is_empty() {
            self.load_next_bucket();
        }
        let current = self.current.last().map(|&k| unpack(self.loaded, k));
        match (current, self.side.peek()) {
            (Some(c), Some(&Reverse(s))) => Some(c.min(s)),
            (Some(c), None) => Some(c),
            (None, Some(&Reverse(s))) => Some(s),
            (None, None) => None,
        }
    }

    /// Remove `key` — the value [`Self::min_key`] just returned — and free
    /// its slot.
    fn take(&mut self, key: Key) -> Option<Event> {
        if self.current.last() == Some(&pack(key.0, key.1, key.2)) {
            self.current.pop();
        } else {
            self.side.pop();
        }
        let slot = key.2 as usize;
        self.next[slot] = self.free;
        self.free = key.2;
        self.len -= 1;
        self.slab[slot].take()
    }

    /// Move the earliest non-empty bucket's keys into `current`, sorted.
    /// Does nothing when the ring and the overflow heap are both empty.
    fn load_next_bucket(&mut self) {
        if self.in_ring == 0 {
            let Some(&Reverse((t, ..))) = self.overflow.peek() else {
                return;
            };
            self.cursor = bucket_of(t);
            self.refill_from_overflow();
        }
        // Every overflow key lies past the ring's window, so the first
        // non-empty bucket at or after the cursor is the earliest one.
        let mut slot = NIL;
        while slot == NIL {
            let i = (self.cursor % RING_BUCKETS) as usize;
            slot = std::mem::replace(&mut self.ring[i], NIL);
            self.loaded = self.cursor;
            self.cursor += 1;
        }
        while slot != NIL {
            if let Some(e) = &self.slab[slot as usize] {
                self.current.push(pack(e.time, e.seq, slot));
            }
            self.in_ring -= 1;
            slot = self.next[slot as usize];
        }
        self.current.sort_unstable_by(|a, b| b.cmp(a));
        self.refill_from_overflow();
    }

    /// Link into the ring every overflow key whose bucket the window now
    /// covers. Their ring positions belong to buckets the cursor has just
    /// passed, which are empty.
    fn refill_from_overflow(&mut self) {
        while let Some(&Reverse((t, _, slot))) = self.overflow.peek() {
            let b = bucket_of(t);
            if b >= self.cursor + RING_BUCKETS {
                break;
            }
            self.overflow.pop();
            self.link(b, slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::collections::BTreeMap;

    /// A timer event of node 0 with `tag`.
    fn timer(tag: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(0),
            tag,
            inc: 0,
            cancelled: false,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        q.push(t(3), timer(3));
        q.push(t(1), timer(1));
        q.push(t(2), timer(2));
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
            q.push(SimTime::ZERO, timer(tag));
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
        q.push(SimTime(50), timer(0));
        q.push(SimTime(10), timer(1));
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
                q.push(SimTime(t), timer(i as u64));
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
                if let EventKind::Timer { tag, .. } = e.kind {
                    prop_assert_eq!(times[tag as usize], e.time.0);
                }
                last = Some(key);
                popped += 1;
            }
            prop_assert_eq!(popped, times.len());
            prop_assert_eq!(q.len(), 0);
        }
    }

    /// Draws push times that hit the queue's edges: the clock itself and the
    /// rest of the due bucket, a few shared instants, bucket edges, the
    /// ring window's edges, and times past the window.
    fn draw_time(rng: &mut rand::rngs::StdRng, q: &EventQueue, now: u64) -> u64 {
        use rand::Rng;
        const BUCKET: u64 = 1 << BUCKET_SHIFT;
        const WINDOW: u64 = BUCKET * RING_BUCKETS;
        let edge = |b: u64, rng: &mut rand::rngs::StdRng| {
            (b * BUCKET + rng.gen_range(0..3)).saturating_sub(1)
        };
        match rng.gen_range(0..9) {
            0 => now,
            1 => now + rng.gen_range(0..BUCKET / 8),
            2 => (now / BUCKET + rng.gen_range(0..3)) * BUCKET + rng.gen_range(0..3) * 1000,
            3 => edge(now / BUCKET + rng.gen_range(0..64), rng),
            4 => edge(q.cursor, rng),
            5 => edge(q.cursor + RING_BUCKETS, rng),
            6 => edge(q.cursor + RING_BUCKETS - rng.gen_range(0..4), rng),
            7 => now + rng.gen_range(WINDOW..4 * WINDOW),
            _ => now + rng.gen_range(0..WINDOW),
        }
    }

    /// A timer the model pushed: its slot, whether it is still queued, and
    /// whether a cancel reached it there.
    struct TimerState {
        slot: u32,
        queued: bool,
        cancelled: bool,
    }

    /// The queue under test beside a reference binary heap of the same
    /// pushes, and every timer pushed, keyed by `seq`.
    struct Model {
        q: EventQueue,
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
        timers: BTreeMap<u64, TimerState>,
        seq: u64,
    }

    impl Model {
        /// Both sides' sequence numbers start at `first_seq`.
        fn new(first_seq: u64) -> Model {
            let mut q = EventQueue::new();
            q.next_seq = first_seq;
            Model {
                q,
                heap: BinaryHeap::new(),
                timers: BTreeMap::new(),
                seq: first_seq,
            }
        }

        /// Push at `t` into both; every other event is a timer.
        fn push(&mut self, t: u64) {
            let seq = self.seq;
            self.seq += 1;
            if seq.is_multiple_of(2) {
                let (slot, got) = self.q.push(SimTime(t), timer(seq));
                assert_eq!(got, seq);
                let state = TimerState {
                    slot,
                    queued: true,
                    cancelled: false,
                };
                self.timers.insert(seq, state);
            } else {
                self.q
                    .push(SimTime(t), EventKind::ConnEstablished { conn: ConnId(seq) });
            }
            self.heap.push(Reverse((SimTime(t), seq)));
        }

        /// Cancel a timer pushed earlier, popped or not: `pick` chooses it.
        /// Only one still queued becomes cancelled; one that has popped has
        /// its slot free or reused, and the event there must not change.
        fn cancel(&mut self, pick: usize) {
            let n = self.timers.len().max(1);
            let Some((&seq, t)) = self.timers.iter_mut().nth(pick % n) else {
                return;
            };
            self.q.cancel_timer(t.slot, seq);
            t.cancelled |= t.queued;
        }

        /// Pop from both — `pop_until(limit)` on the queue when `limit` is
        /// given — and assert the same `(time, seq)` and, for a timer, the
        /// same cancelled mark.
        fn pop(&mut self, limit: Option<u64>, seed: u64) -> Option<(SimTime, u64)> {
            let got = match limit {
                Some(l) => self.q.pop_until(SimTime(l)),
                None => self.q.pop(),
            };
            if let Some(Event {
                seq,
                kind: EventKind::Timer { cancelled, .. },
                ..
            }) = &got
            {
                let t = self.timers.get_mut(seq).expect("a timer the model pushed");
                assert_eq!(*cancelled, t.cancelled, "seed {seed}, timer {seq}");
                t.queued = false;
            }
            let got = got.map(|e| (e.time, e.seq));
            let want = match (self.heap.peek(), limit) {
                (Some(Reverse((t, _))), Some(l)) if t.0 > l => None,
                _ => self.heap.pop().map(|Reverse(k)| k),
            };
            assert_eq!(got, want, "seed {seed}");
            got
        }

        /// Assert the same `len` and `peek_time`.
        fn check(&mut self, seed: u64) {
            assert_eq!(self.q.len(), self.heap.len(), "seed {seed}");
            let want = self.heap.peek().map(|Reverse((t, _))| *t);
            assert_eq!(self.q.peek_time(), want, "seed {seed}");
        }
    }

    /// The calendar and a reference binary heap, driven by the same seeded
    /// schedules of pushes, timer cancels, pops, `pop_until`s and full
    /// drains, pop the same `(time, seq)` sequence with the same cancelled
    /// marks, and agree on `len` and `peek_time` at random points. A
    /// quarter of the seeds start `seq` just below 2³², 2⁴⁴ or 2⁶⁴ − 1000,
    /// so `seq`s cross the widths a narrower sort key would have to fit.
    #[test]
    fn matches_reference_heap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const WINDOW: u64 = (1 << BUCKET_SHIFT) * RING_BUCKETS;
        const HIGH_SEQ: [u64; 3] = [(1 << 32) - 100, (1 << 44) - 100, u64::MAX - 1000];
        for seed in 0..2000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let first_seq = if seed % 4 == 3 {
                HIGH_SEQ[(seed / 4 % 3) as usize]
            } else {
                0
            };
            let mut m = Model::new(first_seq);
            let mut now = 0u64;
            for _ in 0..rng.gen_range(1..400) {
                match rng.gen_range(0..18) {
                    0..=7 => {
                        let t = draw_time(&mut rng, &m.q, now);
                        m.push(t);
                    }
                    8..=10 => {
                        if let Some((t, _)) = m.pop(None, seed) {
                            now = now.max(t.0);
                        }
                    }
                    11..=13 => {
                        let limit = draw_time(&mut rng, &m.q, now);
                        while m.pop(Some(limit), seed).is_some() {}
                        now = now.max(limit);
                    }
                    14 => {
                        // Drain, then leave a gap longer than the ring.
                        while m.pop(None, seed).is_some() {}
                        now += rng.gen_range(WINDOW..8 * WINDOW);
                        m.push(now);
                    }
                    15 | 16 => m.cancel(rng.gen_range(0..usize::MAX)),
                    _ => m.check(seed),
                }
            }
            while m.pop(None, seed).is_some() {}
            m.check(seed);
        }
    }

    /// A slab slot is 56 bytes on a 64-bit target: the boxed fault action
    /// keeps the rarest event kind from widening every queued one.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn slab_slot_is_56_bytes() {
        assert_eq!(std::mem::size_of::<Option<Event>>(), 56);
    }

    /// Freed slab slots are reused: 1 000 rounds of push-k / pop-k never
    /// grow the slab past k slots.
    #[test]
    fn slab_reuses_freed_slots() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        const K: usize = 8;
        let mut rng = StdRng::seed_from_u64(1);
        let mut q = EventQueue::new();
        let mut now = 0u64;
        for _ in 0..1000 {
            for _ in 0..K {
                let t = draw_time(&mut rng, &q, now);
                q.push(SimTime(t), EventKind::ConnEstablished { conn: ConnId(0) });
            }
            for _ in 0..K {
                let e = q.pop();
                assert!(e.is_some());
                now = now.max(e.map_or(0, |e| e.time.0));
            }
            assert_eq!(q.len(), 0);
            assert!(q.slab.len() <= K, "slab grew to {}", q.slab.len());
        }
    }
}
