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
//! SENDME, the FIFO of cells waiting behind a closed window, and the count
//! of delivered DATA cells that says when to send a SENDME.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::cell::{Cell, RelayCell, RelayCmd, CELL_LEN};
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

/// One end's view of a circuit's SENDME flow control.
pub(crate) struct CircWindow {
    /// DATA cells this end may still send before the far end credits it.
    package: i32,
    /// DATA cells delivered here since this end last sent a SENDME.
    delivered: i32,
    /// Cells waiting behind the package window, in send order.
    queued: VecDeque<RelayCell>,
}

impl CircWindow {
    pub fn new() -> CircWindow {
        CircWindow {
            package: CIRC_WINDOW,
            delivered: 0,
            queued: VecDeque::new(),
        }
    }

    /// Whether a cell may be sent now. A DATA cell spends one unit of the
    /// package window. An END waits while cells are queued, so it never
    /// overtakes its stream's DATA. Any other cell always goes. A cell that
    /// must wait is queued, its data copied, and `false` returned.
    pub fn admit(&mut self, cmd: RelayCmd, stream_id: u16, data: &[u8]) -> bool {
        let wait = match cmd {
            RelayCmd::Data => self.package <= 0,
            RelayCmd::End => !self.queued.is_empty(),
            _ => false,
        };
        if wait {
            self.queued.push_back(RelayCell {
                cmd,
                stream_id,
                data: data.to_vec(),
            });
            return false;
        }
        if cmd == RelayCmd::Data {
            self.package -= 1;
        }
        true
    }

    /// The far end sent a SENDME: widen the package window. Drain
    /// [`CircWindow::next_ready`] afterwards.
    pub fn credit(&mut self) {
        self.package += SENDME_INCREMENT;
    }

    /// The next queued cell that may be sent now (spending window for DATA).
    pub fn next_ready(&mut self) -> Option<RelayCell> {
        if self.queued.front()?.cmd == RelayCmd::Data {
            if self.package <= 0 {
                return None;
            }
            self.package -= 1;
        }
        self.queued.pop_front()
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

    #[test]
    fn end_waits_behind_queued_data_and_the_window_refills_by_sendme() {
        let mut w = CircWindow::new();
        for _ in 0..CIRC_WINDOW {
            assert!(w.admit(RelayCmd::Data, 1, b"x"));
        }
        assert!(w.admit(RelayCmd::End, 2, &[]), "nothing queued yet");
        assert!(!w.admit(RelayCmd::Data, 1, b"tail"));
        assert!(
            w.admit(RelayCmd::Sendme, 0, &[]),
            "control cells never wait"
        );
        assert!(!w.admit(RelayCmd::End, 1, &[]));
        assert!(w.next_ready().is_none(), "window closed");
        w.credit();
        let order: Vec<RelayCmd> = std::iter::from_fn(|| w.next_ready())
            .map(|rc| rc.cmd)
            .collect();
        assert_eq!(order, [RelayCmd::Data, RelayCmd::End]);
        // One unit went to the queued DATA cell.
        for _ in 1..SENDME_INCREMENT {
            assert!(w.admit(RelayCmd::Data, 1, b"x"));
        }
        assert!(!w.admit(RelayCmd::Data, 1, b"x"));
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
