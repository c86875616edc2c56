//! What the client ([`crate::client::TorClient`]) and the relay
//! ([`crate::relay::RelayCore`]) both keep about their OR links and their
//! circuits' flow control.
//!
//! [`LinkTable`] holds a node's OR links: the ones it opened (outbound, one
//! per peer, reused by every circuit to that peer) and, at a relay, the ones
//! peers opened to it (inbound). It allocates circuit ids on outbound links,
//! queues the cells written on a link until the link is established, and
//! maps `(link, circ_id)` to the circuit's slot in the owner's table.
//!
//! [`CircEnd`] is the one send path of a circuit end — the client, or the
//! relay that terminates the circuit — from stream bytes to a sealed,
//! pooled wire cell on the link, with Tor's circuit-level SENDME flow
//! control (tor-spec §7.4): a package window of [`CIRC_WINDOW`] DATA cells
//! widened by [`SENDME_INCREMENT`] per SENDME, and never above
//! [`CIRC_WINDOW`] (a SENDME that would lift it higher is refused, and the
//! owner closes the circuit); the FIFO of what waits behind a closed window,
//! where an END never overtakes DATA; and the count of delivered DATA cells
//! that says when to send a SENDME. Stream bytes wait as *runs* — one owned
//! buffer and the offset of the next cell — so a message behind the window
//! is neither copied nor cut up until its cells are sent. The owner only
//! passes the closure that seals one payload for its side of the circuit.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::cell::{Cell, RelayCmd, CELL_LEN, MAX_RELAY_DATA, PAYLOAD_LEN};
use simnet::{ConnId, Ctx, NodeId};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};

/// Circuit-level flow-control window, in RELAY_DATA cells (Tor's 1000).
pub const CIRC_WINDOW: i32 = 1000;
/// A SENDME is sent for every this many delivered data cells (Tor's 100).
pub const SENDME_INCREMENT: i32 = 100;

struct Link {
    peer: NodeId,
    /// Cells written before the link was established, sent in order when it
    /// is; `None` once it is.
    queued: Option<Vec<Cell>>,
    /// The next circuit id this node hands out on the link. Only links this
    /// node opened allocate, and their ids are odd.
    next_circ_id: u32,
}

/// A node's OR links and the circuits on them.
#[derive(Default)]
pub(crate) struct LinkTable {
    links: BTreeMap<ConnId, Link>,
    /// The outbound link to each peer.
    by_peer: BTreeMap<NodeId, ConnId>,
    /// The circuit slot each `(link, circ_id)` names.
    circs: BTreeMap<(ConnId, u32), usize>,
}

impl LinkTable {
    /// Record a link a peer opened to this node; it is established already.
    pub fn accept(&mut self, conn: ConnId, peer: NodeId) {
        let link = Link {
            peer,
            queued: None,
            next_circ_id: 1,
        };
        self.links.insert(conn, link);
    }

    /// A fresh circuit id on the outbound link to `peer`, opening that link
    /// with `connect` when there is none.
    pub fn new_circ(&mut self, peer: NodeId, connect: impl FnOnce() -> ConnId) -> (ConnId, u32) {
        let conn = *self.by_peer.entry(peer).or_insert_with(connect);
        let link = self.links.entry(conn).or_insert(Link {
            peer,
            queued: Some(Vec::new()),
            next_circ_id: 1,
        });
        let circ_id = link.next_circ_id;
        link.next_circ_id = circ_id.wrapping_add(2);
        (conn, circ_id)
    }

    /// Whether `conn` is one of this table's links.
    pub fn contains(&self, conn: ConnId) -> bool {
        self.links.contains_key(&conn)
    }

    /// The circuit slot `(conn, circ_id)` names.
    pub fn circ(&self, conn: ConnId, circ_id: u32) -> Option<usize> {
        self.circs.get(&(conn, circ_id)).copied()
    }

    /// Let `(conn, circ_id)` name circuit `slot`.
    pub fn bind(&mut self, conn: ConnId, circ_id: u32, slot: usize) {
        self.circs.insert((conn, circ_id), slot);
    }

    /// Forget what `(conn, circ_id)` names.
    pub fn unbind(&mut self, conn: ConnId, circ_id: u32) {
        self.circs.remove(&(conn, circ_id));
    }

    /// Write `cell` on `conn`, or queue it while the link is being
    /// established. True when it was written.
    pub fn send_cell(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, cell: Cell) -> bool {
        if let Some(queue) = self.opening(conn) {
            queue.push(cell);
            return false;
        }
        let mut wire = ctx.take_buf(CELL_LEN);
        cell.encode_into(&mut wire);
        ctx.send(conn, wire);
        true
    }

    /// Write an encoded cell on `conn` without copying it. On a link still
    /// being established the cell is decoded into its queue and the buffer
    /// recycled. True when it was written.
    pub fn send_wire(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, wire: Vec<u8>) -> bool {
        if let Some(queue) = self.opening(conn) {
            queue.extend(Cell::decode(&wire));
            ctx.recycle_buf(wire);
            return false;
        }
        ctx.send(conn, wire);
        true
    }

    fn opening(&mut self, conn: ConnId) -> Option<&mut Vec<Cell>> {
        self.links.get_mut(&conn)?.queued.as_mut()
    }

    /// `conn` finished its handshake: write the cells queued on it, in
    /// order. Returns how many, or `None` when `conn` is no link.
    pub fn established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) -> Option<usize> {
        let queued = self.links.get_mut(&conn)?.queued.take().unwrap_or_default();
        let n = queued.len();
        for cell in queued {
            let mut wire = ctx.take_buf(CELL_LEN);
            cell.encode_into(&mut wire);
            ctx.send(conn, wire);
        }
        Some(n)
    }

    /// `conn` closed: forget the link, and return the slots of the circuits
    /// on it in ascending order — the circuit-allocation order, which their
    /// teardown must follow because it feeds events and the RNG. `None` when
    /// `conn` is no link. The peer keeps its outbound entry unless that entry
    /// names `conn`: an inbound link closing leaves the outbound one in use.
    pub fn close(&mut self, conn: ConnId) -> Option<Vec<usize>> {
        let link = self.links.remove(&conn)?;
        if self.by_peer.get(&link.peer) == Some(&conn) {
            self.by_peer.remove(&link.peer);
        }
        let mut slots: Vec<usize> = self
            .circs
            .range((conn, 0)..=(conn, u32::MAX))
            .map(|(_, &slot)| slot)
            .collect();
        slots.sort_unstable();
        Some(slots)
    }
}

/// What waits behind a closed package window, in send order.
enum Waiting {
    /// The DATA cells of one message still to be sent: `bytes[at..]`, cut
    /// every [`MAX_RELAY_DATA`] bytes from `at`. `at` is where the cells
    /// already sent stopped, so the cuts fall where `bytes.chunks`
    /// makes them. Never merged with another message.
    Run {
        stream_id: u16,
        bytes: Vec<u8>,
        at: usize,
    },
    /// An END, behind the DATA queued before it.
    End(u16),
}

/// One end of a circuit as the sender of relay cells: the client, which
/// seals them for the last hop, or the relay that terminates the circuit,
/// which seals them toward the origin. Its cells go out on link `conn` as
/// circuit `circ_id`, each written into a pooled wire buffer and sealed
/// there by the owner's closure.
pub(crate) struct CircEnd {
    /// The link this end's cells go out on.
    pub conn: ConnId,
    /// The circuit's id on `conn`.
    pub circ_id: u32,
    /// DATA cells this end may still send before the far end credits it.
    package: i32,
    /// DATA cells delivered here since this end last sent a SENDME.
    delivered: i32,
    /// What waits behind the package window, in send order. Whenever it is
    /// not empty its front is a run and the window is closed: the queue
    /// drains as soon as a SENDME opens it.
    queued: VecDeque<Waiting>,
}

impl CircEnd {
    pub fn new(conn: ConnId, circ_id: u32) -> CircEnd {
        CircEnd {
            conn,
            circ_id,
            package: CIRC_WINDOW,
            delivered: 0,
            queued: VecDeque::new(),
        }
    }

    /// Send a relay cell, sealed in its wire buffer by `seal`. DATA may be
    /// any length: it is cut every [`MAX_RELAY_DATA`] bytes, and the cells
    /// the package window does not admit wait as one run — in `data` itself
    /// when it is owned, else in a copy of the part that waits. An owned
    /// `data` that does not wait goes back to the buffer pool. An END waits
    /// behind any DATA queued before it; other cells never wait. Returns
    /// how many cells were written on the link.
    pub fn send(
        &mut self,
        links: &mut LinkTable,
        ctx: &mut Ctx<'_>,
        cmd: RelayCmd,
        stream_id: u16,
        data: Cow<'_, [u8]>,
        mut seal: impl FnMut(&mut [u8; PAYLOAD_LEN]),
    ) -> usize {
        match cmd {
            RelayCmd::Data => {
                let cells = data.len().div_ceil(MAX_RELAY_DATA);
                let now = if self.queued.is_empty() {
                    cells.min(usize::try_from(self.package).unwrap_or(0))
                } else {
                    0
                };
                self.package -= now as i32;
                let mut sent = 0;
                for chunk in data.chunks(MAX_RELAY_DATA).take(now) {
                    sent += self.write(links, ctx, cmd, stream_id, chunk, &mut seal);
                }
                let at = now * MAX_RELAY_DATA;
                match data {
                    Cow::Owned(bytes) if at < bytes.len() => self.wait(stream_id, bytes, at),
                    Cow::Owned(bytes) => ctx.recycle_buf(bytes),
                    Cow::Borrowed(bytes) if at < bytes.len() => {
                        self.wait(stream_id, bytes[at..].to_vec(), 0);
                    }
                    Cow::Borrowed(_) => {}
                }
                sent
            }
            RelayCmd::End if !self.queued.is_empty() => {
                self.queued.push_back(Waiting::End(stream_id));
                0
            }
            _ => self.write(links, ctx, cmd, stream_id, &data, seal),
        }
    }

    fn wait(&mut self, stream_id: u16, bytes: Vec<u8>, at: usize) {
        self.queued.push_back(Waiting::Run {
            stream_id,
            bytes,
            at,
        });
    }

    /// The far end sent a SENDME: widen the package window by
    /// [`SENDME_INCREMENT`] and send what it lets go, in queue order.
    /// Returns how many cells were written on the link; `None`, with
    /// nothing sent, when the SENDME would lift the window above
    /// [`CIRC_WINDOW`] — credit for cells never sent, which an honest far
    /// end (one SENDME per [`SENDME_INCREMENT`] cells delivered) never
    /// gives — and the owner must close the circuit.
    pub fn sendme_received(
        &mut self,
        links: &mut LinkTable,
        ctx: &mut Ctx<'_>,
        mut seal: impl FnMut(&mut [u8; PAYLOAD_LEN]),
    ) -> Option<usize> {
        if self.package > CIRC_WINDOW - SENDME_INCREMENT {
            return None;
        }
        self.package += SENDME_INCREMENT;
        let mut sent = 0;
        while let Some(waiting) = self.queued.pop_front() {
            match waiting {
                Waiting::End(stream_id) => {
                    sent += self.write(links, ctx, RelayCmd::End, stream_id, &[], &mut seal);
                }
                Waiting::Run { .. } if self.package <= 0 => {
                    self.queued.push_front(waiting);
                    break;
                }
                Waiting::Run {
                    stream_id,
                    bytes,
                    at,
                } => {
                    self.package -= 1;
                    let to = bytes.len().min(at + MAX_RELAY_DATA);
                    let cell = &bytes[at..to];
                    sent += self.write(links, ctx, RelayCmd::Data, stream_id, cell, &mut seal);
                    if to < bytes.len() {
                        self.queued.push_front(Waiting::Run {
                            stream_id,
                            bytes,
                            at: to,
                        });
                    }
                }
            }
        }
        Some(sent)
    }

    /// One DATA cell was delivered here: send a SENDME, sealed by `seal`,
    /// every [`SENDME_INCREMENT`] of them. Returns how many cells were
    /// written on the link.
    pub fn data_delivered(
        &mut self,
        links: &mut LinkTable,
        ctx: &mut Ctx<'_>,
        seal: impl FnMut(&mut [u8; PAYLOAD_LEN]),
    ) -> usize {
        self.delivered += 1;
        if self.delivered < SENDME_INCREMENT {
            return 0;
        }
        self.delivered -= SENDME_INCREMENT;
        self.write(links, ctx, RelayCmd::Sendme, 0, &[], seal)
    }

    /// Write one relay cell straight into a pooled wire buffer, seal it in
    /// place and send it: no intermediate payload or `RelayCell`.
    fn write(
        &self,
        links: &mut LinkTable,
        ctx: &mut Ctx<'_>,
        cmd: RelayCmd,
        stream_id: u16,
        data: &[u8],
        mut seal: impl FnMut(&mut [u8; PAYLOAD_LEN]),
    ) -> usize {
        let mut wire = ctx.take_buf(CELL_LEN);
        Cell::encode_relay_into(self.circ_id, cmd, stream_id, data, &mut wire);
        if let Some(payload) = Cell::wire_payload_mut(&mut wire) {
            seal(payload);
        }
        usize::from(links.send_wire(ctx, self.conn, wire))
    }

    /// Stream bytes waiting behind the package window.
    pub fn queued_bytes(&self) -> usize {
        self.queued
            .iter()
            .map(|w| match w {
                Waiting::Run { bytes, at, .. } => bytes.len() - at,
                Waiting::End(_) => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::RelayCell;

    #[test]
    fn closing_an_inbound_link_keeps_the_outbound_one_to_that_peer() {
        let peer = NodeId(7);
        let mut table = LinkTable::default();
        let (out, first) = table.new_circ(peer, || ConnId(10));
        table.accept(ConnId(11), peer);
        assert_eq!(table.close(ConnId(11)), Some(vec![]));
        // The next circuit to the peer reuses the open outbound link.
        let (conn, second) = table.new_circ(peer, || ConnId(12));
        assert_eq!((out, conn), (ConnId(10), ConnId(10)));
        assert_eq!((first, second), (1, 3));
        // Closing the outbound link does forget it.
        table.close(ConnId(10));
        assert_eq!(table.new_circ(peer, || ConnId(13)), (ConnId(13), 1));
    }

    #[test]
    fn close_returns_the_link_circuits_in_slot_order() {
        let mut table = LinkTable::default();
        let (a, _) = table.new_circ(NodeId(1), || ConnId(1));
        let (b, _) = table.new_circ(NodeId(2), || ConnId(2));
        for (circ_id, slot) in [(1, 5), (3, 2), (5, 9)] {
            table.bind(a, circ_id, slot);
        }
        table.bind(b, 1, 4);
        assert_eq!(table.close(a), Some(vec![2, 5, 9]));
        assert_eq!(table.close(a), None);
        assert_eq!(table.circ(b, 1), Some(4));
    }

    /// A circuit end on an established link, driven in a simulator's
    /// context, with every payload it seals recorded before sealing.
    struct Rig {
        sim: simnet::Simulator,
        node: NodeId,
        links: LinkTable,
        end: CircEnd,
        sealed: Vec<[u8; PAYLOAD_LEN]>,
    }

    struct Quiet;

    impl simnet::Node for Quiet {
        fn on_msg(&mut self, _: &mut Ctx<'_>, _: ConnId, _: Vec<u8>) {}
    }

    /// `data` as the owners hand it over: owned (an exit connection's
    /// message) or borrowed.
    fn input(owned: bool, data: &[u8]) -> Cow<'_, [u8]> {
        if owned {
            Cow::Owned(data.to_vec())
        } else {
            Cow::Borrowed(data)
        }
    }

    impl Rig {
        fn new() -> Rig {
            let mut sim = simnet::Simulator::with_seed(1);
            let iface = simnet::Iface::symmetric(simnet::SimDuration::from_millis(1), 0);
            let node = sim.add_node("end", iface, Box::new(Quiet));
            let mut links = LinkTable::default();
            links.accept(ConnId(0), NodeId(1));
            Rig {
                sim,
                node,
                links,
                end: CircEnd::new(ConnId(0), 7),
                sealed: Vec::new(),
            }
        }

        /// A rig with `units` of its package window left, and nothing
        /// recorded.
        fn open(units: usize) -> Rig {
            let mut rig = Rig::new();
            let spent = CIRC_WINDOW as usize - units;
            let window = vec![0; spent * MAX_RELAY_DATA];
            assert_eq!(rig.send(RelayCmd::Data, 9, input(false, &window)), spent);
            rig.sealed.clear();
            rig
        }

        /// A rig whose package window is spent, and nothing recorded.
        fn closed() -> Rig {
            Rig::open(0)
        }

        /// Run `f` on the end in the node's context, with a seal that
        /// records each payload.
        fn drive<R>(
            &mut self,
            f: impl FnOnce(
                &mut CircEnd,
                &mut LinkTable,
                &mut Ctx<'_>,
                &mut dyn FnMut(&mut [u8; PAYLOAD_LEN]),
            ) -> R,
        ) -> R {
            let Rig {
                sim,
                node,
                links,
                end,
                sealed,
            } = self;
            sim.with_node::<Quiet, _>(*node, |_, ctx| f(end, links, ctx, &mut |p| sealed.push(*p)))
        }

        fn send(&mut self, cmd: RelayCmd, stream_id: u16, data: Cow<'_, [u8]>) -> usize {
            self.drive(|end, links, ctx, seal| end.send(links, ctx, cmd, stream_id, data, seal))
        }

        fn sendme(&mut self) -> Option<usize> {
            self.drive(|end, links, ctx, seal| end.sendme_received(links, ctx, seal))
        }

        fn delivered(&mut self) -> usize {
            self.drive(|end, links, ctx, seal| end.data_delivered(links, ctx, seal))
        }

        /// The cells sealed since the last call, as command, stream id and
        /// data length.
        fn take(&mut self) -> Vec<(RelayCmd, u16, usize)> {
            self.sealed
                .drain(..)
                .filter_map(|p| RelayCell::parse_payload(&p))
                .map(|c| (c.cmd, c.stream_id, c.data.len()))
                .collect()
        }
    }

    #[test]
    fn end_waits_behind_queued_data_and_the_window_refills_by_sendme() {
        for owned in [false, true] {
            let mut rig = Rig::closed();
            assert_eq!(
                rig.send(RelayCmd::End, 2, input(owned, &[])),
                1,
                "nothing queued"
            );
            assert_eq!(rig.send(RelayCmd::Data, 1, input(owned, b"tail")), 0);
            assert_eq!(rig.send(RelayCmd::End, 1, input(owned, &[])), 0);
            assert_eq!(rig.send(RelayCmd::Sendme, 0, input(owned, &[])), 1);
            assert_eq!(rig.end.queued_bytes(), 4);
            assert_eq!(
                rig.take(),
                [(RelayCmd::End, 2, 0), (RelayCmd::Sendme, 0, 0)],
                "only what never waits went"
            );
            assert_eq!(rig.sendme(), Some(2));
            let order: Vec<RelayCmd> = rig.take().into_iter().map(|(cmd, ..)| cmd).collect();
            assert_eq!(order, [RelayCmd::Data, RelayCmd::End]);
            // One unit went to the queued DATA cell.
            let more = vec![0; 2 * SENDME_INCREMENT as usize * MAX_RELAY_DATA];
            assert_eq!(rig.send(RelayCmd::Data, 1, input(owned, &more)), 99);
            assert_eq!(rig.end.queued_bytes(), 101 * MAX_RELAY_DATA);
        }
    }

    /// Cells cut from a run — queued from its start, or after the window
    /// let some of its cells go — are exactly the cells
    /// `chunks(MAX_RELAY_DATA)` of the message makes.
    #[test]
    fn cells_cut_from_a_run_equal_the_per_chunk_cells() {
        for len in [1, 498, 499, 16 << 20 | 5] {
            let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let want: Vec<[u8; PAYLOAD_LEN]> = msg
                .chunks(MAX_RELAY_DATA)
                .map(|chunk| RelayCell::encode_payload_from(RelayCmd::Data, 3, chunk))
                .collect();
            for (sent_first, owned) in [(0, false), (1, false), (0, true), (1, true)] {
                let mut rig = Rig::open(sent_first);
                let now = rig.send(RelayCmd::Data, 3, input(owned, &msg));
                assert_eq!(now, sent_first.min(want.len()));
                while rig.sealed.len() < want.len() {
                    let before = rig.sealed.len();
                    let wrote = rig.sendme();
                    assert_eq!(wrote, Some(rig.sealed.len() - before));
                    assert!(rig.sealed.len() > before, "a SENDME moves the run");
                }
                assert_eq!(rig.sealed.len(), want.len(), "{len} bytes");
                assert!(rig.sealed == want, "{len} bytes, {sent_first} sent first");
                assert_eq!(rig.end.queued_bytes(), 0);
            }
        }
    }

    #[test]
    fn messages_queued_back_to_back_are_never_merged() {
        for owned in [false, true] {
            let mut rig = Rig::closed();
            for (id, msg) in [
                (1, vec![0xaa; 10]),
                (1, vec![0xbb; 600]),
                (2, vec![0xcc; 10]),
                (2, Vec::new()),
                (2, vec![0xdd; 10]),
            ] {
                assert_eq!(rig.send(RelayCmd::Data, id, input(owned, &msg)), 0);
            }
            assert_eq!(rig.end.queued_bytes(), 630);
            assert_eq!(rig.sendme(), Some(5));
            let sent = rig.take();
            let lens: Vec<(u16, usize)> = sent.iter().map(|&(_, id, len)| (id, len)).collect();
            assert_eq!(lens, [(1, 10), (1, 498), (1, 102), (2, 10), (2, 10)]);
            assert!(sent.iter().all(|(cmd, ..)| *cmd == RelayCmd::Data));
        }
    }

    #[test]
    fn an_end_never_overtakes_a_run() {
        for owned in [false, true] {
            let mut rig = Rig::closed();
            let (one, two) = (vec![1; 3 * MAX_RELAY_DATA], vec![2; 150 * MAX_RELAY_DATA]);
            assert_eq!(rig.send(RelayCmd::Data, 1, input(owned, &one)), 0);
            assert_eq!(rig.send(RelayCmd::End, 1, input(owned, &[])), 0);
            assert_eq!(rig.send(RelayCmd::Data, 2, input(owned, &two)), 0);
            assert_eq!(rig.send(RelayCmd::End, 2, input(owned, &[])), 0);
            assert_eq!(rig.sendme(), Some(101));
            let first = rig.take();
            assert_eq!(first.len(), 101, "three DATA, the first END, 97 DATA");
            assert_eq!(first[3], (RelayCmd::End, 1, 0));
            assert!(first.iter().filter(|c| c.0 == RelayCmd::End).count() == 1);
            assert_eq!(rig.sendme(), Some(54));
            let rest = rig.take();
            assert_eq!(rest.len(), 54);
            assert_eq!(rest.last(), Some(&(RelayCmd::End, 2, 0)));
            assert_eq!(
                rig.send(RelayCmd::End, 3, input(owned, &[])),
                1,
                "nothing queued"
            );
        }
    }

    /// A SENDME lets exactly `SENDME_INCREMENT` DATA cells go, wherever the
    /// runs they come from start and end.
    #[test]
    fn a_sendme_releases_exactly_an_increment_across_runs() {
        for owned in [false, true] {
            let mut rig = Rig::closed();
            for (id, cells) in [(1, 7), (2, 1), (3, 130), (4, 33), (5, 99)] {
                let msg = vec![id as u8; cells * MAX_RELAY_DATA - 1];
                assert_eq!(rig.send(RelayCmd::Data, id, input(owned, &msg)), 0);
            }
            let mut ids = Vec::new();
            for _ in 0..2 {
                assert_eq!(rig.sendme(), Some(SENDME_INCREMENT as usize));
                ids.extend(rig.take().iter().map(|c| c.1));
            }
            assert_eq!(ids.iter().filter(|&&id| id == 3).count(), 130);
            assert_eq!(
                ids.last(),
                Some(&5),
                "the second increment ends inside run 5"
            );
            assert_eq!(rig.sendme(), Some(70));
            assert_eq!(rig.end.queued_bytes(), 0);
        }
    }

    /// The package window never rises above `CIRC_WINDOW`: a SENDME that
    /// would lift it there is refused, sends nothing, and leaves the window
    /// as it was.
    #[test]
    fn a_sendme_that_over_credits_is_refused() {
        let mut rig = Rig::new();
        assert_eq!(rig.sendme(), None, "nothing sent yet");
        let msg = vec![0; (SENDME_INCREMENT as usize - 1) * MAX_RELAY_DATA];
        assert_eq!(rig.send(RelayCmd::Data, 1, input(false, &msg)), 99);
        assert_eq!(rig.sendme(), None, "99 cells earn no SENDME");
        assert_eq!(rig.send(RelayCmd::Data, 1, input(false, &[1])), 1);
        assert_eq!(rig.sendme(), Some(0));
        assert_eq!(rig.sendme(), None, "one SENDME per increment sent");
        assert_eq!(rig.end.package, CIRC_WINDOW);
    }

    #[test]
    fn a_sendme_is_due_every_increment_delivered_cells() {
        let mut rig = Rig::new();
        let due: Vec<usize> = (1..=3 * SENDME_INCREMENT as usize)
            .filter(|_| rig.delivered() == 1)
            .collect();
        assert_eq!(due, [100, 200, 300]);
        assert_eq!(rig.take(), [(RelayCmd::Sendme, 0, 0); 3]);
    }
}
