//! Tor cells: the fixed-size link-layer unit of the overlay.
//!
//! Every message on an OR connection is one 514-byte cell:
//!
//! ```text
//! circ_id (4) | command (1) | payload (509)
//! ```
//!
//! RELAY cells structure their payload further:
//!
//! ```text
//! relay_cmd (1) | recognized (2) | stream_id (2) | digest (4) | length (2) | data (498)
//! ```
//!
//! `recognized` is zero and `digest` is the first four bytes of the running
//! digest's tag — keyed POLYVAL over every cell addressed to that hop, masked
//! with AES — only at the hop a relay cell is addressed to; at every other
//! hop both fields are ciphertext (see [`crate::relay_crypto`]).
//!
//! Two relay-cell bodies have a layout of their own, each with one encoder
//! and one decoder here: EXTEND ([`ExtendBody`]) and BEGIN ([`StreamTarget`]).
//! Their decoders take bytes off the wire and refuse instead of panicking.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use onion_crypto::ntor::ONIONSKIN_LEN;
use simnet::NodeId;

/// Total cell length on the wire.
pub const CELL_LEN: usize = 514;
/// Payload length of every cell.
pub const PAYLOAD_LEN: usize = 509;
/// Relay-cell header length inside the payload.
pub const RELAY_HEADER_LEN: usize = 11;
/// Maximum data bytes carried by one RELAY_DATA cell.
pub const MAX_RELAY_DATA: usize = PAYLOAD_LEN - RELAY_HEADER_LEN; // 498

/// Link-level cell commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellCmd {
    /// Filler; ignored on receipt.
    Padding,
    /// Circuit-creation request carrying an ntor onionskin.
    Create,
    /// Circuit-creation reply.
    Created,
    /// An onion-encrypted relay cell.
    Relay,
    /// Circuit teardown.
    Destroy,
}

impl CellCmd {
    fn to_byte(self) -> u8 {
        match self {
            CellCmd::Padding => 0,
            CellCmd::Create => 1,
            CellCmd::Created => 2,
            CellCmd::Relay => 3,
            CellCmd::Destroy => 4,
        }
    }

    fn from_byte(b: u8) -> Option<CellCmd> {
        Some(match b {
            0 => CellCmd::Padding,
            1 => CellCmd::Create,
            2 => CellCmd::Created,
            3 => CellCmd::Relay,
            4 => CellCmd::Destroy,
            _ => return None,
        })
    }
}

/// Commands inside a relay cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelayCmd {
    /// Open a stream from the terminal hop.
    Begin,
    /// Stream payload bytes.
    Data,
    /// Close a stream.
    End,
    /// Stream successfully opened.
    Connected,
    /// Circuit-level flow-control credit.
    Sendme,
    /// Extend the circuit to another relay.
    Extend,
    /// Circuit extension complete.
    Extended,
    /// Long-range dummy cell (cover traffic); dropped at the terminal hop.
    Drop,
    /// Open a stream to the terminal relay's own directory service.
    BeginDir,
    /// Hidden service: register this circuit as an introduction point.
    EstablishIntro,
    /// Hidden service: introduction point registration acknowledged.
    IntroEstablished,
    /// Hidden service: client → intro point introduction request.
    Introduce1,
    /// Hidden service: intro point → service forwarded introduction.
    Introduce2,
    /// Hidden service: intro point → client acknowledgment.
    IntroduceAck,
    /// Hidden service: client registers a rendezvous cookie.
    EstablishRendezvous,
    /// Hidden service: rendezvous registration acknowledged.
    RendezvousEstablished,
    /// Hidden service: service → rendezvous point join.
    Rendezvous1,
    /// Hidden service: rendezvous point → client completion.
    Rendezvous2,
}

impl RelayCmd {
    fn to_byte(self) -> u8 {
        use RelayCmd::*;
        match self {
            Begin => 1,
            Data => 2,
            End => 3,
            Connected => 4,
            Sendme => 5,
            Extend => 6,
            Extended => 7,
            Drop => 8,
            BeginDir => 13,
            EstablishIntro => 32,
            IntroEstablished => 33,
            Introduce1 => 34,
            Introduce2 => 35,
            IntroduceAck => 40,
            EstablishRendezvous => 36,
            RendezvousEstablished => 37,
            Rendezvous1 => 38,
            Rendezvous2 => 39,
        }
    }

    fn from_byte(b: u8) -> Option<RelayCmd> {
        use RelayCmd::*;
        Some(match b {
            1 => Begin,
            2 => Data,
            3 => End,
            4 => Connected,
            5 => Sendme,
            6 => Extend,
            7 => Extended,
            8 => Drop,
            13 => BeginDir,
            32 => EstablishIntro,
            33 => IntroEstablished,
            34 => Introduce1,
            35 => Introduce2,
            40 => IntroduceAck,
            36 => EstablishRendezvous,
            37 => RendezvousEstablished,
            38 => Rendezvous1,
            39 => Rendezvous2,
            _ => return None,
        })
    }
}

/// A link cell.
#[derive(Clone)]
pub struct Cell {
    /// Which circuit on this connection the cell belongs to.
    pub circ_id: u32,
    /// Link command.
    pub cmd: CellCmd,
    /// Fixed-size payload (relay cells keep theirs encrypted here).
    pub payload: [u8; PAYLOAD_LEN],
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Cell(circ={}, cmd={:?})", self.circ_id, self.cmd)
    }
}

impl Cell {
    /// A cell with a zeroed payload.
    pub fn new(circ_id: u32, cmd: CellCmd) -> Cell {
        Cell {
            circ_id,
            cmd,
            payload: [0; PAYLOAD_LEN],
        }
    }

    /// A cell with the given payload prefix (rest zero-padded).
    ///
    /// # Panics
    /// If `data` exceeds the payload size.
    pub fn with_payload(circ_id: u32, cmd: CellCmd, data: &[u8]) -> Cell {
        assert!(data.len() <= PAYLOAD_LEN, "payload too large for a cell");
        let mut c = Cell::new(circ_id, cmd);
        c.payload[..data.len()].copy_from_slice(data);
        c
    }

    /// Encode to the 514-byte wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CELL_LEN);
        self.encode_into(&mut out);
        out
    }

    /// Append the 514-byte wire form to `out` — the allocation-free variant
    /// of [`Cell::encode`] for callers reusing pooled buffers.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(CELL_LEN);
        out.extend_from_slice(&self.circ_id.to_be_bytes());
        out.push(self.cmd.to_byte());
        out.extend_from_slice(&self.payload);
    }

    /// Append the wire form of a RELAY cell carrying `cmd` on `stream_id`
    /// with `data`, not yet sealed: the payload [`RelayCell::encode_payload_from`]
    /// makes, written straight into `out`. The ends of a circuit write a
    /// cell into a pooled wire buffer this way and seal it in place through
    /// [`Cell::wire_payload_mut`].
    ///
    /// # Panics
    /// If `data` exceeds [`MAX_RELAY_DATA`].
    pub fn encode_relay_into(
        circ_id: u32,
        cmd: RelayCmd,
        stream_id: u16,
        data: &[u8],
        out: &mut Vec<u8>,
    ) {
        assert!(data.len() <= MAX_RELAY_DATA, "relay data too large");
        out.reserve(CELL_LEN);
        out.extend_from_slice(&circ_id.to_be_bytes());
        out.push(CellCmd::Relay.to_byte());
        let start = out.len();
        out.extend_from_slice(&relay_header(cmd, stream_id, data.len()));
        out.extend_from_slice(data);
        out.resize(start + PAYLOAD_LEN, 0);
    }

    /// Decode from the wire; `None` for wrong length or unknown command.
    pub fn decode(buf: &[u8]) -> Option<Cell> {
        if buf.len() != CELL_LEN {
            return None;
        }
        let circ_id = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let cmd = CellCmd::from_byte(buf[4])?;
        let mut payload = [0u8; PAYLOAD_LEN];
        payload.copy_from_slice(&buf[5..]);
        Some(Cell {
            circ_id,
            cmd,
            payload,
        })
    }

    // ------------------------------------------------------------------
    // In-place wire accessors: let a relay re-encrypt and forward a cell
    // inside the buffer it arrived in, instead of decode → mutate → encode.
    // ------------------------------------------------------------------

    /// The circuit id of an encoded cell, without decoding it.
    /// `None` unless `wire` is exactly one cell.
    pub fn peek_circ_id(wire: &[u8]) -> Option<u32> {
        if wire.len() != CELL_LEN {
            return None;
        }
        Some(u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]))
    }

    /// The command of an encoded cell, without decoding it.
    /// `None` for a wrong length or unknown command byte.
    pub fn peek_cmd(wire: &[u8]) -> Option<CellCmd> {
        if wire.len() != CELL_LEN {
            return None;
        }
        CellCmd::from_byte(wire[4])
    }

    /// Rewrite the circuit id of an encoded cell in place.
    ///
    /// # Panics
    /// If `wire` is shorter than a cell header.
    pub fn set_wire_circ_id(wire: &mut [u8], circ_id: u32) {
        wire[..4].copy_from_slice(&circ_id.to_be_bytes());
    }

    /// Mutable view of the payload of an encoded cell, sized for the
    /// in-place [`crate::relay_crypto`] primitives. `None` for wrong length.
    pub fn wire_payload_mut(wire: &mut [u8]) -> Option<&mut [u8; PAYLOAD_LEN]> {
        if wire.len() != CELL_LEN {
            return None;
        }
        (&mut wire[5..]).try_into().ok()
    }

    /// Immutable view of the payload of an encoded cell. `None` for wrong
    /// length.
    pub fn wire_payload(wire: &[u8]) -> Option<&[u8; PAYLOAD_LEN]> {
        if wire.len() != CELL_LEN {
            return None;
        }
        wire[5..].try_into().ok()
    }
}

/// A parsed relay-cell payload (after decryption at the addressed hop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayCell {
    /// Relay command.
    pub cmd: RelayCmd,
    /// Stream the cell belongs to (0 for circuit-level commands).
    pub stream_id: u16,
    /// Data bytes.
    pub data: Vec<u8>,
}

impl RelayCell {
    /// New relay cell.
    ///
    /// # Panics
    /// If `data` exceeds [`MAX_RELAY_DATA`].
    pub fn new(cmd: RelayCmd, stream_id: u16, data: Vec<u8>) -> RelayCell {
        assert!(data.len() <= MAX_RELAY_DATA, "relay data too large");
        RelayCell {
            cmd,
            stream_id,
            data,
        }
    }

    /// Encode into a cell payload with `recognized = 0` and a zeroed digest
    /// field; [`crate::relay_crypto::LayerCrypto::seal`] fills the digest.
    pub fn encode_payload(&self) -> [u8; PAYLOAD_LEN] {
        Self::encode_payload_from(self.cmd, self.stream_id, &self.data)
    }

    /// Encode a relay payload directly from borrowed data, skipping the
    /// intermediate owned [`RelayCell`] — the zero-copy path for chunking
    /// stream bytes into DATA cells.
    ///
    /// # Panics
    /// If `data` exceeds [`MAX_RELAY_DATA`].
    pub fn encode_payload_from(cmd: RelayCmd, stream_id: u16, data: &[u8]) -> [u8; PAYLOAD_LEN] {
        assert!(data.len() <= MAX_RELAY_DATA, "relay data too large");
        let mut p = [0u8; PAYLOAD_LEN];
        p[..RELAY_HEADER_LEN].copy_from_slice(&relay_header(cmd, stream_id, data.len()));
        p[RELAY_HEADER_LEN..RELAY_HEADER_LEN + data.len()].copy_from_slice(data);
        p
    }

    /// Parse a decrypted, recognized payload. `None` if structurally invalid.
    pub fn parse_payload(p: &[u8; PAYLOAD_LEN]) -> Option<RelayCell> {
        let cmd = RelayCmd::from_byte(p[0])?;
        let stream_id = u16::from_be_bytes([p[3], p[4]]);
        let len = u16::from_be_bytes([p[9], p[10]]) as usize;
        if len > MAX_RELAY_DATA {
            return None;
        }
        Some(RelayCell {
            cmd,
            stream_id,
            data: p[11..11 + len].to_vec(),
        })
    }

    /// The `recognized` field of a payload.
    pub fn recognized_field(p: &[u8; PAYLOAD_LEN]) -> u16 {
        u16::from_be_bytes([p[1], p[2]])
    }
}

/// The relay header of an unsealed payload: command, `recognized` = 0,
/// stream id, a zeroed digest field (filled by
/// [`crate::relay_crypto::LayerCrypto::seal`]) and the data length.
fn relay_header(cmd: RelayCmd, stream_id: u16, len: usize) -> [u8; RELAY_HEADER_LEN] {
    let mut h = [0u8; RELAY_HEADER_LEN];
    h[0] = cmd.to_byte();
    h[3..5].copy_from_slice(&stream_id.to_be_bytes());
    h[9..11].copy_from_slice(&(len as u16).to_be_bytes());
    h
}

/// Where a stream should terminate: the body of a BEGIN cell.
///
/// ```text
/// Node: 0 | addr (4) | port (2)
/// Dir:  1
/// Hs:   2 | port (2)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamTarget {
    /// An external host:port, opened by the exit relay.
    Node(NodeId, u16),
    /// The terminal relay's own directory service.
    Dir,
    /// The hidden service at the far end of a rendezvous circuit.
    Hs(u16),
}

impl StreamTarget {
    /// Encode as a BEGIN body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            StreamTarget::Node(addr, port) => {
                [&[0][..], &addr.0.to_be_bytes(), &port.to_be_bytes()].concat()
            }
            StreamTarget::Dir => vec![1],
            StreamTarget::Hs(port) => [&[2][..], &port.to_be_bytes()].concat(),
        }
    }

    /// Decode a BEGIN body; `None` unless it is exactly one of the three
    /// layouts.
    pub fn decode(data: &[u8]) -> Option<StreamTarget> {
        match *data {
            [0, a, b, c, d, p, q] => Some(StreamTarget::Node(
                NodeId(u32::from_be_bytes([a, b, c, d])),
                u16::from_be_bytes([p, q]),
            )),
            [1] => Some(StreamTarget::Dir),
            [2, p, q] => Some(StreamTarget::Hs(u16::from_be_bytes([p, q]))),
            _ => None,
        }
    }
}

/// The body of an EXTEND cell, borrowed from the bytes it was decoded from:
///
/// ```text
/// fingerprint (20) | addr (4) | or_port (2) | onionskin (84)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtendBody<'a> {
    /// Identity fingerprint of the relay to extend to.
    pub fingerprint: [u8; 20],
    /// That relay's address.
    pub addr: NodeId,
    /// That relay's OR port.
    pub or_port: u16,
    /// The ntor onionskin for that relay.
    pub onionskin: &'a [u8],
}

impl<'a> ExtendBody<'a> {
    /// Length of an encoded body.
    pub const LEN: usize = 20 + 4 + 2 + ONIONSKIN_LEN;

    /// Encode as an EXTEND body.
    pub fn encode(&self) -> Vec<u8> {
        let (addr, or_port) = (self.addr.0.to_be_bytes(), self.or_port.to_be_bytes());
        [&self.fingerprint[..], &addr, &or_port, self.onionskin].concat()
    }

    /// Decode an EXTEND body; `None` unless it is exactly [`Self::LEN`]
    /// bytes long.
    pub fn decode(data: &'a [u8]) -> Option<ExtendBody<'a>> {
        if data.len() != Self::LEN {
            return None;
        }
        let (fingerprint, rest) = data.split_first_chunk::<20>()?;
        let (addr, rest) = rest.split_first_chunk::<4>()?;
        let (or_port, onionskin) = rest.split_first_chunk::<2>()?;
        Some(ExtendBody {
            fingerprint: *fingerprint,
            addr: NodeId(u32::from_be_bytes(*addr)),
            or_port: u16::from_be_bytes(*or_port),
            onionskin,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_roundtrip() {
        let c = Cell::with_payload(7, CellCmd::Create, b"onionskin bytes");
        let wire = c.encode();
        assert_eq!(wire.len(), CELL_LEN);
        let back = Cell::decode(&wire).unwrap();
        assert_eq!(back.circ_id, 7);
        assert_eq!(back.cmd, CellCmd::Create);
        assert_eq!(&back.payload[..15], b"onionskin bytes");
    }

    #[test]
    fn cell_decode_rejects_bad_input() {
        assert!(Cell::decode(&[0u8; 10]).is_none());
        assert!(Cell::decode(&[0u8; CELL_LEN + 1]).is_none());
        let mut wire = Cell::new(1, CellCmd::Relay).encode();
        wire[4] = 200; // unknown command
        assert!(Cell::decode(&wire).is_none());
    }

    #[test]
    fn relay_cell_roundtrip() {
        let rc = RelayCell::new(RelayCmd::Data, 42, vec![9u8; 100]);
        let payload = rc.encode_payload();
        assert_eq!(RelayCell::recognized_field(&payload), 0);
        let back = RelayCell::parse_payload(&payload).unwrap();
        assert_eq!(back, rc);
    }

    #[test]
    fn relay_cell_empty_and_max_data() {
        for len in [0usize, 1, MAX_RELAY_DATA] {
            let rc = RelayCell::new(RelayCmd::Data, 1, vec![7; len]);
            let back = RelayCell::parse_payload(&rc.encode_payload()).unwrap();
            assert_eq!(back.data.len(), len);
        }
    }

    #[test]
    #[should_panic(expected = "relay data too large")]
    fn relay_cell_rejects_oversize() {
        let _ = RelayCell::new(RelayCmd::Data, 1, vec![0; MAX_RELAY_DATA + 1]);
    }

    #[test]
    fn relay_cell_parse_rejects_bad_length_field() {
        let rc = RelayCell::new(RelayCmd::Data, 1, vec![1; 4]);
        let mut p = rc.encode_payload();
        p[9] = 0xFF;
        p[10] = 0xFF;
        assert!(RelayCell::parse_payload(&p).is_none());
    }

    #[test]
    fn all_relay_cmds_roundtrip() {
        use RelayCmd::*;
        for cmd in [
            Begin,
            Data,
            End,
            Connected,
            Sendme,
            Extend,
            Extended,
            Drop,
            BeginDir,
            EstablishIntro,
            IntroEstablished,
            Introduce1,
            Introduce2,
            IntroduceAck,
            EstablishRendezvous,
            RendezvousEstablished,
            Rendezvous1,
            Rendezvous2,
        ] {
            let rc = RelayCell::new(cmd, 3, vec![]);
            let back = RelayCell::parse_payload(&rc.encode_payload()).unwrap();
            assert_eq!(back.cmd, cmd);
        }
    }

    #[test]
    fn stream_target_roundtrip() {
        for t in [
            StreamTarget::Node(NodeId(7), 80),
            StreamTarget::Dir,
            StreamTarget::Hs(443),
        ] {
            assert_eq!(StreamTarget::decode(&t.encode()), Some(t));
        }
    }

    #[test]
    fn stream_target_rejects_malformed() {
        assert_eq!(StreamTarget::decode(&[]), None);
        assert_eq!(StreamTarget::decode(&[0, 1, 2]), None); // short Node
        assert_eq!(StreamTarget::decode(&[1, 9]), None); // long Dir
        assert_eq!(StreamTarget::decode(&[2, 1]), None); // short Hs
        assert_eq!(StreamTarget::decode(&[9]), None); // unknown tag
    }
}
