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
//! [`CircWindow`] is Tor's circuit-level SENDME flow control as one end of a
//! circuit (the client, or the relay that terminates it) sees it: a package
//! window of [`CIRC_WINDOW`] DATA cells widened by [`SENDME_INCREMENT`] per
//! SENDME, the FIFO of what waits behind a closed window, and the count of
//! delivered DATA cells that says when to send a SENDME. Stream bytes wait
//! as *runs* — one owned buffer and the offset of the next cell — so a
//! message behind the window is neither copied nor cut up until its cells
//! are sent.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::cell::{Cell, RelayCmd, CELL_LEN, MAX_RELAY_DATA};
use simnet::{ConnId, Ctx, NodeId};
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

/// One end's view of a circuit's SENDME flow control.
pub(crate) struct CircWindow {
    /// DATA cells this end may still send before the far end credits it.
    package: i32,
    /// DATA cells delivered here since this end last sent a SENDME.
    delivered: i32,
    /// What waits behind the package window, in send order. Whenever it is
    /// not empty its front is a run and the window is closed: the queue
    /// drains ([`CircWindow::next_ready`]) as soon as a SENDME opens it.
    queued: VecDeque<Waiting>,
}

impl CircWindow {
    pub fn new() -> CircWindow {
        CircWindow {
            package: CIRC_WINDOW,
            delivered: 0,
            queued: VecDeque::new(),
        }
    }

    /// The DATA cells of `data` that may be sent now, cut every
    /// [`MAX_RELAY_DATA`] bytes, with the package window spent on them; and
    /// where the rest starts when some must [`CircWindow::wait`].
    pub fn admit_data<'a>(
        &mut self,
        data: &'a [u8],
    ) -> (impl Iterator<Item = &'a [u8]>, Option<usize>) {
        let cells = data.len().div_ceil(MAX_RELAY_DATA);
        let now = self.spend(cells);
        let rest = (now < cells).then_some(now * MAX_RELAY_DATA);
        (data.chunks(MAX_RELAY_DATA).take(now), rest)
    }

    /// How many of the next `cells` DATA cells may be sent now; the
    /// package window is spent on them.
    fn spend(&mut self, cells: usize) -> usize {
        if !self.queued.is_empty() {
            return 0;
        }
        let now = cells.min(usize::try_from(self.package).unwrap_or(0));
        self.package -= now as i32;
        now
    }

    /// Queue the DATA cells of `bytes[at..]` behind the window, as one run
    /// that keeps `bytes` without copying it. Nothing is queued when
    /// nothing is left.
    pub fn wait(&mut self, stream_id: u16, bytes: Vec<u8>, at: usize) {
        if at < bytes.len() {
            self.queued.push_back(Waiting::Run {
                stream_id,
                bytes,
                at,
            });
        }
    }

    /// Whether an END for `stream_id` may be sent now. It waits while
    /// anything is queued, so it never overtakes its stream's DATA; then it
    /// is queued and `false` returned. Other cells than DATA and END never
    /// wait.
    pub fn admit_end(&mut self, stream_id: u16) -> bool {
        if self.queued.is_empty() {
            return true;
        }
        self.queued.push_back(Waiting::End(stream_id));
        false
    }

    /// The far end sent a SENDME: widen the package window. Drain
    /// [`CircWindow::next_ready`] afterwards.
    pub fn credit(&mut self) {
        self.package += SENDME_INCREMENT;
    }

    /// Hand the next queued cell that may be sent now (spending window for
    /// DATA) to `send`, as command, stream id and data, and return what it
    /// returns; `None` when nothing may go. A run is dropped once its last
    /// cell is cut.
    pub fn next_ready<R>(&mut self, send: impl FnOnce(RelayCmd, u16, &[u8]) -> R) -> Option<R> {
        let sent = match self.queued.front_mut()? {
            Waiting::End(stream_id) => send(RelayCmd::End, *stream_id, &[]),
            Waiting::Run { .. } if self.package <= 0 => return None,
            Waiting::Run {
                stream_id,
                bytes,
                at,
            } => {
                self.package -= 1;
                let from = *at;
                *at = bytes.len().min(from + MAX_RELAY_DATA);
                let sent = send(RelayCmd::Data, *stream_id, &bytes[from..*at]);
                if *at < bytes.len() {
                    return Some(sent);
                }
                sent
            }
        };
        self.queued.pop_front();
        Some(sent)
    }

    /// Stream bytes waiting behind the window.
    pub fn queued_bytes(&self) -> usize {
        self.queued
            .iter()
            .map(|w| match w {
                Waiting::Run { bytes, at, .. } => bytes.len() - at,
                Waiting::End(_) => 0,
            })
            .sum()
    }

    /// Count one DATA cell delivered here; true when a SENDME is due.
    pub fn delivered(&mut self) -> bool {
        self.delivered += 1;
        if self.delivered < SENDME_INCREMENT {
            return false;
        }
        self.delivered -= SENDME_INCREMENT;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A cell as [`CircWindow::next_ready`] hands it out.
    type Sent = (RelayCmd, u16, Vec<u8>);

    /// Everything the window lets go of now.
    fn drain(w: &mut CircWindow) -> Vec<Sent> {
        std::iter::from_fn(|| w.next_ready(|cmd, id, data| (cmd, id, data.to_vec()))).collect()
    }

    /// A window with its package window spent.
    fn closed() -> CircWindow {
        let mut w = CircWindow::new();
        assert_eq!(w.spend(2 * CIRC_WINDOW as usize), CIRC_WINDOW as usize);
        w
    }

    #[test]
    fn end_waits_behind_queued_data_and_the_window_refills_by_sendme() {
        let mut w = CircWindow::new();
        assert_eq!(w.spend(CIRC_WINDOW as usize), CIRC_WINDOW as usize);
        assert!(w.admit_end(2), "nothing queued yet");
        assert_eq!(w.spend(1), 0);
        w.wait(1, b"tail".to_vec(), 0);
        assert!(!w.admit_end(1));
        assert!(drain(&mut w).is_empty(), "window closed");
        assert_eq!(w.queued_bytes(), 4);
        w.credit();
        let order: Vec<RelayCmd> = drain(&mut w).into_iter().map(|(cmd, ..)| cmd).collect();
        assert_eq!(order, [RelayCmd::Data, RelayCmd::End]);
        // One unit went to the queued DATA cell.
        assert_eq!(w.spend(2 * SENDME_INCREMENT as usize), 99);
    }

    /// Cells cut from a run — queued from its start, or after the window
    /// let some of its cells go — are on the wire exactly the cells
    /// `chunks(MAX_RELAY_DATA)` of the message makes.
    #[test]
    fn cells_cut_from_a_run_equal_the_per_chunk_cells() {
        let wire = |cmd, id, data: &[u8]| {
            let mut out = Vec::new();
            Cell::encode_relay_into(7, cmd, id, data, &mut out);
            out
        };
        for len in [1, 498, 499, 16 << 20 | 5] {
            let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let want: Vec<Vec<u8>> = msg
                .chunks(MAX_RELAY_DATA)
                .map(|chunk| {
                    let payload =
                        crate::cell::RelayCell::encode_payload_from(RelayCmd::Data, 3, chunk);
                    Cell::with_payload(7, crate::cell::CellCmd::Relay, &payload).encode()
                })
                .collect();
            for sent_first in [0, 1] {
                let cells = want.len();
                let mut w = CircWindow::new();
                let first = w.spend(CIRC_WINDOW as usize - sent_first);
                assert_eq!(first, CIRC_WINDOW as usize - sent_first);
                let now = w.spend(cells);
                w.wait(3, msg.clone(), now * MAX_RELAY_DATA);
                let mut got: Vec<Vec<u8>> = msg
                    .chunks(MAX_RELAY_DATA)
                    .take(now)
                    .map(|c| wire(RelayCmd::Data, 3, c))
                    .collect();
                while got.len() < cells {
                    w.credit();
                    let before = got.len();
                    got.extend(
                        std::iter::from_fn(|| w.next_ready(|cmd, id, data| wire(cmd, id, data)))
                            .take(cells),
                    );
                    assert!(got.len() > before, "a SENDME moves the run");
                }
                assert_eq!(got.len(), cells, "{len} bytes");
                assert!(got == want, "{len} bytes, {sent_first} sent first");
                assert_eq!(w.queued_bytes(), 0);
            }
        }
    }

    #[test]
    fn messages_queued_back_to_back_are_never_merged() {
        let mut w = closed();
        w.wait(1, vec![0xaa; 10], 0);
        w.wait(1, vec![0xbb; 600], 0);
        w.wait(2, vec![0xcc; 10], 0);
        w.wait(2, Vec::new(), 0);
        w.wait(2, vec![0xdd; 10], 10);
        assert_eq!(w.queued_bytes(), 620);
        w.credit();
        let sent = drain(&mut w);
        let lens: Vec<(u16, usize)> = sent.iter().map(|(_, id, d)| (*id, d.len())).collect();
        assert_eq!(lens, [(1, 10), (1, 498), (1, 102), (2, 10)]);
        assert!(sent.iter().all(|(cmd, ..)| *cmd == RelayCmd::Data));
    }

    #[test]
    fn an_end_never_overtakes_a_run() {
        let mut w = closed();
        w.wait(1, vec![1; 3 * MAX_RELAY_DATA], 0);
        assert!(!w.admit_end(1));
        w.wait(2, vec![2; 150 * MAX_RELAY_DATA], 0);
        assert!(!w.admit_end(2));
        w.credit();
        let first = drain(&mut w);
        assert_eq!(first.len(), 101, "three DATA, the first END, 97 DATA");
        assert_eq!(first[3].0, RelayCmd::End);
        assert_eq!(first[3].1, 1);
        assert!(first.iter().filter(|c| c.0 == RelayCmd::End).count() == 1);
        w.credit();
        let rest = drain(&mut w);
        assert_eq!(rest.len(), 54);
        assert_eq!(rest.last().map(|c| (c.0, c.1)), Some((RelayCmd::End, 2)));
        assert!(w.admit_end(3), "nothing left queued");
    }

    /// A SENDME lets exactly `SENDME_INCREMENT` DATA cells go, wherever the
    /// runs they come from start and end.
    #[test]
    fn a_sendme_releases_exactly_an_increment_across_runs() {
        let mut w = closed();
        for (id, cells) in [(1, 7), (2, 1), (3, 130), (4, 33), (5, 99)] {
            w.wait(id, vec![id as u8; cells * MAX_RELAY_DATA - 1], 0);
        }
        let mut ids = Vec::new();
        for _ in 0..2 {
            w.credit();
            let sent = drain(&mut w);
            assert_eq!(sent.len(), SENDME_INCREMENT as usize);
            ids.extend(sent.iter().map(|c| c.1));
        }
        assert_eq!(ids.iter().filter(|&&id| id == 3).count(), 130);
        assert_eq!(
            ids.last(),
            Some(&5),
            "the second increment ends inside run 5"
        );
        w.credit();
        assert_eq!(drain(&mut w).len(), 70);
        assert_eq!(w.queued_bytes(), 0);
    }

    #[test]
    fn a_sendme_is_due_every_increment_delivered_cells() {
        let mut w = CircWindow::new();
        let due: Vec<usize> = (1..=3 * SENDME_INCREMENT as usize)
            .filter(|_| w.delivered())
            .collect();
        assert_eq!(due, [100, 200, 300]);
    }
}
