//! Link sniffing: directional, timestamped traces of a node's access link.
//!
//! A website-fingerprinting adversary in the Bento paper sits between a
//! client and its guard relay and records packet direction, size and timing.
//! [`TraceEvent`] is exactly that record; the simulator appends one per
//! message crossing a sniffed node's interface.

use crate::node::{ConnId, NodeId};
use crate::time::SimTime;

/// Direction of an observed transmission relative to the sniffed node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The sniffed node sent these bytes (upstream).
    Outgoing,
    /// The sniffed node received these bytes (downstream).
    Incoming,
}

impl Direction {
    /// +1 for outgoing, -1 for incoming — the signed convention used by the
    /// fingerprinting literature for direction sequences.
    pub fn sign(self) -> i8 {
        match self {
            Direction::Outgoing => 1,
            Direction::Incoming => -1,
        }
    }
}

/// One observed transmission on a sniffed access link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the transmission crossed the interface.
    pub time: SimTime,
    /// Direction relative to the sniffed node.
    pub dir: Direction,
    /// Application-message size in bytes (for Tor traffic: one cell).
    pub bytes: u32,
    /// The connection the message traveled on.
    pub conn: ConnId,
    /// The remote endpoint of that connection.
    pub peer: NodeId,
}

/// An in-memory recording of a node's link activity.
#[derive(Debug, Default, Clone)]
pub struct Sniffer {
    events: Vec<TraceEvent>,
}

impl Sniffer {
    /// New empty sniffer.
    pub fn new() -> Self {
        Sniffer { events: Vec::new() }
    }

    /// Add an observation, keeping the trace in time order. The serial
    /// engine records a departure when its serialization starts, stamped
    /// with the (later) instant it ends, so an observation made afterwards
    /// may belong before it; equal times keep recording order.
    pub fn record(&mut self, ev: TraceEvent) {
        // Walk back from the end: at most the few observations made while
        // one chunk serialized are later than `ev`.
        let later = (self.events.iter().rev())
            .take_while(|e| e.time > ev.time)
            .count();
        self.events.insert(self.events.len() - later, ev);
    }

    /// All observations so far, in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drop all recorded observations (e.g. between page loads).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Total bytes observed in `dir`.
    pub fn total_bytes(&self, dir: Direction) -> u64 {
        self.events
            .iter()
            .filter(|e| e.dir == dir)
            .map(|e| e.bytes as u64)
            .sum()
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, dir: Direction, bytes: u32) -> TraceEvent {
        TraceEvent {
            time: SimTime(t),
            dir,
            bytes,
            conn: ConnId(1),
            peer: NodeId(2),
        }
    }

    #[test]
    fn totals_split_by_direction() {
        let mut s = Sniffer::new();
        s.record(ev(1, Direction::Outgoing, 100));
        s.record(ev(2, Direction::Incoming, 514));
        s.record(ev(3, Direction::Incoming, 514));
        assert_eq!(s.total_bytes(Direction::Outgoing), 100);
        assert_eq!(s.total_bytes(Direction::Incoming), 1028);
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn a_late_record_of_an_earlier_instant_lands_in_time_order() {
        let mut s = Sniffer::new();
        s.record(ev(1, Direction::Incoming, 1));
        s.record(ev(9, Direction::Outgoing, 2)); // stamped with its chunk's end
        s.record(ev(4, Direction::Incoming, 3));
        s.record(ev(9, Direction::Incoming, 4)); // equal times: recording order
        s.record(ev(7, Direction::Incoming, 5));
        let order: Vec<(u64, u32)> = s.events().iter().map(|e| (e.time.0, e.bytes)).collect();
        assert_eq!(order, [(1, 1), (4, 3), (7, 5), (9, 2), (9, 4)]);
    }

    #[test]
    fn direction_signs_follow_wf_convention() {
        assert_eq!(Direction::Outgoing.sign(), 1);
        assert_eq!(Direction::Incoming.sign(), -1);
    }
}
