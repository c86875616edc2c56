//! Property-based tests: cell/frame codecs, onion-layer roundtrips, and
//! directory document robustness under arbitrary inputs.

use onion_crypto::ntor::{CircuitKeys, ONIONSKIN_LEN};
use proptest::prelude::*;
use simnet::NodeId;
use tor_net::cell::{
    Cell, ExtendBody, RelayCell, RelayCmd, StreamTarget, MAX_RELAY_DATA, PAYLOAD_LEN,
};
use tor_net::dir::{DirMsg, HsDescriptor, RelayInfo, SignedConsensus};
use tor_net::relay_crypto::{CircuitCrypto, LayerCrypto};
use tor_net::stream_frame::{encode_frame, FrameAssembler};

fn keys(tag: u8) -> CircuitKeys {
    CircuitKeys {
        kf: [tag; 32],
        kb: [tag ^ 0xFF; 32],
        df: [tag.wrapping_add(1); 32],
        db: [tag.wrapping_add(2); 32],
        nf: [tag; 12],
        nb: [tag ^ 0xFF; 12],
    }
}

proptest! {
    /// Any relay cell roundtrips through the payload codec.
    #[test]
    fn relay_cell_roundtrip(stream: u16,
                            data in proptest::collection::vec(any::<u8>(), 0..MAX_RELAY_DATA)) {
        let rc = RelayCell::new(RelayCmd::Data, stream, data);
        let payload = rc.encode_payload();
        prop_assert_eq!(RelayCell::parse_payload(&payload).unwrap(), rc);
    }

    /// Cell decode and the EXTEND and BEGIN body decoders never panic on
    /// arbitrary bytes.
    #[test]
    fn cell_decode_robust(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = Cell::decode(&bytes);
        let _ = ExtendBody::decode(&bytes);
        let _ = StreamTarget::decode(&bytes);
    }

    /// Any EXTEND body roundtrips through its codec, and so does any BEGIN
    /// body.
    #[test]
    fn extend_and_begin_bodies_roundtrip(
        fingerprint in proptest::collection::vec(any::<u8>(), 20..21),
        onionskin in proptest::collection::vec(any::<u8>(), ONIONSKIN_LEN..ONIONSKIN_LEN + 1),
        addr: u32,
        port: u16,
        kind in 0u8..3,
    ) {
        let mut fp = [0u8; 20];
        fp.copy_from_slice(&fingerprint);
        let body = ExtendBody {
            fingerprint: fp,
            addr: NodeId(addr),
            or_port: port,
            onionskin: &onionskin,
        };
        let wire = body.encode();
        prop_assert_eq!(ExtendBody::decode(&wire), Some(body));
        let target = match kind {
            0 => StreamTarget::Node(NodeId(addr), port),
            1 => StreamTarget::Dir,
            _ => StreamTarget::Hs(port),
        };
        prop_assert_eq!(StreamTarget::decode(&target.encode()), Some(target));
    }

    /// A cell sealed for any hop of a 1–4 hop circuit is recognized exactly
    /// there, and nowhere earlier.
    #[test]
    fn onion_layers_target_exact_hop(n_hops in 1usize..5, target in 0usize..5,
                                     data in proptest::collection::vec(any::<u8>(), 0..400)) {
        let target = target % n_hops;
        let mut client = CircuitCrypto::new();
        let mut relays = Vec::new();
        for t in 0..n_hops {
            let k = keys(t as u8 + 1);
            client.push_hop(LayerCrypto::client_side(&k));
            relays.push(LayerCrypto::relay_side(&k));
        }
        let rc = RelayCell::new(RelayCmd::Data, 1, data);
        let mut payload = rc.encode_payload();
        client.seal_for_hop(target, &mut payload);
        for (i, relay) in relays.iter_mut().enumerate().take(target + 1) {
            let recognized = relay.unseal(&mut payload);
            prop_assert_eq!(recognized, i == target, "hop {}", i);
        }
        prop_assert_eq!(RelayCell::parse_payload(&payload).unwrap(), rc);
    }

    /// Frames survive arbitrary re-chunking through the assembler.
    #[test]
    fn frames_survive_chunking(frames in proptest::collection::vec(
                                   proptest::collection::vec(any::<u8>(), 0..300), 0..8),
                               chunk in 1usize..97) {
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            asm.push(piece);
            got.extend(asm.drain_frames());
        }
        prop_assert_eq!(got, frames);
    }

    /// Directory decoders never panic on garbage.
    #[test]
    fn dir_decoders_robust(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = DirMsg::decode(&bytes);
        let _ = RelayInfo::decode(&bytes);
        let _ = SignedConsensus::decode(&bytes);
        let _ = HsDescriptor::decode_verified(&bytes);
    }

    /// Batched seal over arbitrary run splits — tail batches and
    /// single-cell runs included — matches cell-at-a-time seal byte for
    /// byte across the whole backward stream of one circuit.
    #[test]
    fn batched_seal_matches_sequential(sizes in proptest::collection::vec(1usize..12, 1..8)) {
        let mut seq = LayerCrypto::relay_side(&keys(7));
        let mut bat = LayerCrypto::relay_side(&keys(7));
        let mut idx = 0u8;
        for run_len in sizes {
            let mut cells: Vec<[u8; PAYLOAD_LEN]> = (0..run_len)
                .map(|_| {
                    idx = idx.wrapping_add(1);
                    RelayCell::new(RelayCmd::Data, 3, vec![idx; 64]).encode_payload()
                })
                .collect();
            let mut seq_cells = cells.clone();
            for p in seq_cells.iter_mut() {
                seq.seal(p);
            }
            let mut refs: Vec<&mut [u8; PAYLOAD_LEN]> = cells.iter_mut().collect();
            bat.seal_batch(&mut refs);
            prop_assert_eq!(cells, seq_cells);
        }
    }
}
