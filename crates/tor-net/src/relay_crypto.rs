//! Layered onion encryption for relay cells — Tor's tor1 scheme: AES-128 in
//! counter mode for the layers, as in Tor, with a keyed POLYVAL
//! Wegman–Carter tag in place of SHA-1 for the running digests.
//!
//! Each hop of a circuit holds a [`LayerCrypto`]: a pair of stream ciphers
//! (one per direction, positions advancing across cells) and a pair of
//! *running digests*. When an endpoint addresses a relay cell to a hop, it
//! feeds the cell (digest field zeroed) into that hop's running digest and
//! writes the first four bytes of the digest's tag into the cell, then
//! encrypts. A hop receiving a cell strips one cipher layer and checks
//! `recognized == 0` and the tag against its own running digest — a match
//! means "this cell is for me"; anything else is forwarded another hop.
//!
//! A running digest is POLYVAL (RFC 8452) keyed with the first 16 bytes of
//! the direction's digest key `df`/`db`, over every cell the direction has
//! addressed to the hop: each cell with its digest field zeroed and its 509
//! bytes zero-padded to 32 blocks. The tag of cell number `n` (from zero) is
//! `S ⊕ AES-128_K(0⁸ ‖ be64(n))` for `S` the accumulator after that cell and
//! `K` the key's last 16 bytes, so it authenticates the whole prefix, and a
//! replayed, reordered or skipped cell meets the wrong mask. Truncated to
//! four bytes, as tor1 truncates SHA-1, a forgery passes with probability
//! 2⁻³²; an unrecognised cell tears the circuit down, so an attacker gets
//! one try a circuit.

use crate::cell::PAYLOAD_LEN;
use onion_crypto::aes::{self, Aes128Ctr, RoundKeys};
use onion_crypto::ntor::CircuitKeys;
use onion_crypto::polyval::{Polyval, BLOCK_LEN};
use std::array::from_fn;

/// One direction's layer cipher. The ntor KDF hands out 32-byte keys and
/// 12-byte nonces; AES-128-CTR is keyed with the first 16 bytes of the key
/// and counts blocks (64-bit, big-endian, from zero) under the first 8
/// bytes of the nonce.
fn cell_cipher(key: &[u8; 32], nonce: &[u8; 12]) -> Aes128Ctr {
    Aes128Ctr::new(&from_fn(|i| key[i]), &from_fn(|i| nonce[i]))
}

/// Where the four tag bytes sit in a relay payload.
const TAG: std::ops::Range<usize> = 5..9;

/// One direction's running digest: the POLYVAL key and the mask key it was
/// made from, the accumulator and how many cells it has absorbed.
struct RunningDigest {
    hash: Polyval,
    mask_key: RoundKeys,
    acc: [u8; BLOCK_LEN],
    cells: u64,
}

impl RunningDigest {
    /// Keyed with a 32-byte digest key: POLYVAL with its first half, the
    /// tag mask with its second.
    fn new(key: &[u8; 32]) -> Self {
        let (h, mask) = key.split_at(BLOCK_LEN);
        RunningDigest {
            hash: Polyval::new(&from_fn(|i| h[i])),
            mask_key: aes::expand_key(&from_fn(|i| mask[i])),
            acc: [0; BLOCK_LEN],
            cells: 0,
        }
    }

    /// The accumulator after absorbing `payload` (digest field zeroed) and
    /// the tag that cell carries. Nothing is committed.
    fn trial(&self, payload: &[u8; PAYLOAD_LEN]) -> ([u8; BLOCK_LEN], [u8; 4]) {
        // The digest field is absorbed as zeros: its bytes, XORed into the
        // accumulator, cancel themselves in the first block.
        let mut acc = self.acc;
        for (a, p) in acc[TAG].iter_mut().zip(&payload[TAG]) {
            *a ^= p;
        }
        self.hash.update(&mut acc, payload);
        // AES-128 of `0⁸ ‖ be64(n)` is counter-mode keystream block `n`
        // under a zero nonce.
        let mut tag = acc;
        let nonce = [0; aes::NONCE_LEN];
        aes::ctr_xor(&self.mask_key, &nonce, self.cells, &mut tag);
        (acc, from_fn(|i| tag[i]))
    }

    /// Accept the cell a [`Self::trial`] returned `acc` for.
    fn commit(&mut self, acc: [u8; BLOCK_LEN]) {
        self.acc = acc;
        self.cells += 1;
    }
}

/// One hop's cryptographic state, from the perspective of one endpoint.
pub struct LayerCrypto {
    send_cipher: Aes128Ctr,
    recv_cipher: Aes128Ctr,
    send_digest: RunningDigest,
    recv_digest: RunningDigest,
}

impl LayerCrypto {
    /// The circuit originator's view of a hop: sends with the forward keys,
    /// receives with the backward keys.
    pub fn client_side(keys: &CircuitKeys) -> LayerCrypto {
        LayerCrypto {
            send_cipher: cell_cipher(&keys.kf, &keys.nf),
            recv_cipher: cell_cipher(&keys.kb, &keys.nb),
            send_digest: RunningDigest::new(&keys.df),
            recv_digest: RunningDigest::new(&keys.db),
        }
    }

    /// The relay's (or rendezvous-service's) view: sends with the backward
    /// keys, receives with the forward keys.
    pub fn relay_side(keys: &CircuitKeys) -> LayerCrypto {
        LayerCrypto {
            send_cipher: cell_cipher(&keys.kb, &keys.nb),
            recv_cipher: cell_cipher(&keys.kf, &keys.nf),
            send_digest: RunningDigest::new(&keys.db),
            recv_digest: RunningDigest::new(&keys.df),
        }
    }

    /// Does nothing: it used to switch on a keystream prefetch window that
    /// the AES-128-CTR layer cipher has no use for. Kept only because
    /// `benchmark/src/probes/ladder.rs`, which a change to this crate may
    /// not edit, still calls it; the `benchmark` follow-up that re-points
    /// the keystream probe (ROADMAP item 1, *Probes*) removes that call and
    /// this method together.
    pub fn enable_batch(&mut self) {}

    /// Seal a payload addressed to this hop: compute and write the running
    /// digest's tag, then apply this hop's send cipher.
    pub fn seal(&mut self, payload: &mut [u8; PAYLOAD_LEN]) {
        payload[1] = 0;
        payload[2] = 0; // recognized
        let (acc, tag) = self.send_digest.trial(payload);
        self.send_digest.commit(acc);
        payload[TAG].copy_from_slice(&tag);
        self.send_cipher.apply(payload);
    }

    /// Apply one layer of send-direction encryption without digesting
    /// (wrapping a cell addressed to a *later* hop).
    pub fn encrypt_layer(&mut self, payload: &mut [u8; PAYLOAD_LEN]) {
        self.send_cipher.apply(payload);
    }

    /// Strip one layer of receive-direction encryption and test whether the
    /// cell is addressed to this hop. On a match the running digest is
    /// committed; otherwise the payload is left decrypted-by-one-layer for
    /// forwarding (or further stripping by the caller).
    pub fn unseal(&mut self, payload: &mut [u8; PAYLOAD_LEN]) -> bool {
        self.recv_cipher.apply(payload);
        if payload[1] != 0 || payload[2] != 0 {
            return false;
        }
        let (acc, tag) = self.recv_digest.trial(payload);
        if tag != payload[TAG] {
            return false;
        }
        self.recv_digest.commit(acc);
        true
    }

    /// [`LayerCrypto::seal`] over each payload in order, nothing more: a run
    /// shares no work since the keystream prefetch window went. Called by
    /// nothing in this workspace; kept only because the crypto rung of
    /// `benchmark/src/probes/ladder.rs`, which a change to this crate may
    /// not edit, still calls it. The `benchmark` follow-up of ROADMAP item
    /// 1, *Probes*, writes that loop out in the probe and removes this
    /// method.
    pub fn seal_batch(&mut self, payloads: &mut [&mut [u8; PAYLOAD_LEN]]) {
        for payload in payloads.iter_mut() {
            self.seal(payload);
        }
    }

    /// [`LayerCrypto::encrypt_layer`] over each payload in order. Like
    /// [`LayerCrypto::seal_batch`], called only from
    /// `benchmark/src/probes/ladder.rs` and removed by the same follow-up.
    pub fn encrypt_layer_batch(&mut self, payloads: &mut [&mut [u8; PAYLOAD_LEN]]) {
        for payload in payloads.iter_mut() {
            self.encrypt_layer(payload);
        }
    }
}

/// The originator's whole-circuit view: an ordered stack of hop layers.
///
/// ```
/// use tor_net::relay_crypto::{CircuitCrypto, LayerCrypto};
/// use tor_net::cell::{RelayCell, RelayCmd};
/// use onion_crypto::ntor::CircuitKeys;
/// # fn keys(t: u8) -> CircuitKeys { CircuitKeys { kf: [t;32], kb: [t^1;32], df: [t^2;32], db: [t^3;32], nf: [t;12], nb: [t^1;12] } }
/// let (mut client, mut relay) = (CircuitCrypto::new(), LayerCrypto::relay_side(&keys(7)));
/// client.push_hop(LayerCrypto::client_side(&keys(7)));
/// let mut payload = RelayCell::new(RelayCmd::Data, 1, b"hi".to_vec()).encode_payload();
/// client.seal_for_last(&mut payload);
/// assert!(relay.unseal(&mut payload)); // recognized at the addressed hop
/// ```
#[derive(Default)]
pub struct CircuitCrypto {
    hops: Vec<LayerCrypto>,
}

impl CircuitCrypto {
    /// Empty (no hops yet).
    pub fn new() -> CircuitCrypto {
        CircuitCrypto { hops: Vec::new() }
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True when no hops have been added.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Append a hop (after a successful CREATE/EXTEND or an e2e rendezvous
    /// handshake).
    pub fn push_hop(&mut self, layer: LayerCrypto) {
        self.hops.push(layer);
    }

    /// Seal `payload` for the hop at `hop_index`, wrapping it in every
    /// earlier hop's layer.
    ///
    /// # Panics
    /// If `hop_index` is out of range.
    pub fn seal_for_hop(&mut self, hop_index: usize, payload: &mut [u8; PAYLOAD_LEN]) {
        self.hops[hop_index].seal(payload);
        for i in (0..hop_index).rev() {
            self.hops[i].encrypt_layer(payload);
        }
    }

    /// Seal for the terminal hop.
    pub fn seal_for_last(&mut self, payload: &mut [u8; PAYLOAD_LEN]) {
        let last = self.hops.len() - 1;
        self.seal_for_hop(last, payload);
    }

    /// Strip layers of an inbound (backward) cell until some hop recognizes
    /// it. Returns the index of the recognizing hop, or `None` if no hop
    /// recognized the cell (protocol violation or tagging attack).
    pub fn unwrap_inbound(&mut self, payload: &mut [u8; PAYLOAD_LEN]) -> Option<usize> {
        for (i, hop) in self.hops.iter_mut().enumerate() {
            if hop.unseal(payload) {
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cell::{RelayCell, RelayCmd};
    use onion_crypto::ntor::CircuitKeys;
    use onion_crypto::sha256::Sha256;

    /// Keys as the ntor KDF hands them out: pseudo-random bytes. A
    /// repeated-byte digest key is a structured field element, and some of
    /// its POLYVAL powers have 32 zero low bits: with `db = [5; 32]` a byte
    /// flipped at offset 174 or 203 left the four-byte tag unchanged.
    pub(crate) fn test_keys(tag: u8) -> CircuitKeys {
        let key = |part: u8| onion_crypto::sha256_digest(&[tag, part]);
        CircuitKeys {
            kf: key(0),
            kb: key(1),
            df: key(2),
            db: key(3),
            nf: *key(4).first_chunk().unwrap(),
            nb: *key(5).first_chunk().unwrap(),
        }
    }

    /// Builds a 3-hop circuit as (client stack, relay-side layers).
    fn three_hops() -> (CircuitCrypto, Vec<LayerCrypto>) {
        let mut client = CircuitCrypto::new();
        let mut relays = Vec::new();
        for tag in [1u8, 2, 3] {
            let keys = test_keys(tag);
            client.push_hop(LayerCrypto::client_side(&keys));
            relays.push(LayerCrypto::relay_side(&keys));
        }
        (client, relays)
    }

    #[test]
    fn forward_cell_recognized_only_at_target_hop() {
        let (mut client, mut relays) = three_hops();
        let rc = RelayCell::new(RelayCmd::Data, 5, b"to the exit".to_vec());
        let mut payload = rc.encode_payload();
        client.seal_for_hop(2, &mut payload);
        // Hop 0 (guard): strips a layer, does not recognize.
        assert!(!relays[0].unseal(&mut payload));
        // Hop 1 (middle): same.
        assert!(!relays[1].unseal(&mut payload));
        // Hop 2 (exit): recognizes and parses.
        assert!(relays[2].unseal(&mut payload));
        let parsed = RelayCell::parse_payload(&payload).unwrap();
        assert_eq!(parsed.cmd, RelayCmd::Data);
        assert_eq!(parsed.stream_id, 5);
        assert_eq!(parsed.data, b"to the exit");
    }

    #[test]
    fn forward_cell_to_middle_hop() {
        let (mut client, mut relays) = three_hops();
        let rc = RelayCell::new(RelayCmd::Sendme, 0, vec![]);
        let mut payload = rc.encode_payload();
        client.seal_for_hop(1, &mut payload);
        assert!(!relays[0].unseal(&mut payload));
        assert!(relays[1].unseal(&mut payload));
    }

    #[test]
    fn backward_cell_unwraps_at_origin() {
        let (mut client, mut relays) = three_hops();
        // Exit seals a reply; middle and guard each add a layer.
        let rc = RelayCell::new(RelayCmd::Data, 5, b"reply".to_vec());
        let mut payload = rc.encode_payload();
        relays[2].seal(&mut payload);
        relays[1].encrypt_layer(&mut payload);
        relays[0].encrypt_layer(&mut payload);
        let hop = client.unwrap_inbound(&mut payload);
        assert_eq!(hop, Some(2));
        let parsed = RelayCell::parse_payload(&payload).unwrap();
        assert_eq!(parsed.data, b"reply");
    }

    #[test]
    fn backward_cell_from_middle_hop() {
        let (mut client, mut relays) = three_hops();
        let rc = RelayCell::new(RelayCmd::Extended, 0, b"handshake".to_vec());
        let mut payload = rc.encode_payload();
        relays[1].seal(&mut payload);
        relays[0].encrypt_layer(&mut payload);
        assert_eq!(client.unwrap_inbound(&mut payload), Some(1));
    }

    #[test]
    fn digest_chains_across_many_cells() {
        let (mut client, mut relays) = three_hops();
        for i in 0..50u16 {
            let rc = RelayCell::new(RelayCmd::Data, i, vec![i as u8; (i as usize * 7) % 400]);
            let mut payload = rc.encode_payload();
            client.seal_for_hop(2, &mut payload);
            assert!(!relays[0].unseal(&mut payload));
            assert!(!relays[1].unseal(&mut payload));
            assert!(relays[2].unseal(&mut payload), "cell {i} unrecognized");
            assert_eq!(RelayCell::parse_payload(&payload).unwrap().stream_id, i);
        }
    }

    #[test]
    fn tampered_cell_is_not_recognized() {
        let (mut client, mut relays) = three_hops();
        let rc = RelayCell::new(RelayCmd::Data, 1, b"integrity".to_vec());
        let mut payload = rc.encode_payload();
        client.seal_for_hop(2, &mut payload);
        payload[100] ^= 0x01; // on-path tagging attempt
        assert!(!relays[0].unseal(&mut payload));
        assert!(!relays[1].unseal(&mut payload));
        assert!(
            !relays[2].unseal(&mut payload),
            "tampered cell must not verify"
        );
    }

    #[test]
    fn virtual_e2e_hop_composes() {
        // Simulate a rendezvous circuit: client has 3 relay hops + an e2e
        // hop whose counterpart is the hidden service.
        let (mut client, mut relays) = three_hops();
        let e2e = test_keys(9);
        client.push_hop(LayerCrypto::client_side(&e2e));
        let mut service = LayerCrypto::relay_side(&e2e);

        // Client → service.
        let rc = RelayCell::new(RelayCmd::Begin, 1, b"hs:443".to_vec());
        let mut payload = rc.encode_payload();
        client.seal_for_hop(3, &mut payload);
        assert!(!relays[0].unseal(&mut payload));
        assert!(!relays[1].unseal(&mut payload));
        assert!(!relays[2].unseal(&mut payload)); // RP strips, doesn't recognize
        assert!(service.unseal(&mut payload));
        assert_eq!(
            RelayCell::parse_payload(&payload).unwrap().cmd,
            RelayCmd::Begin
        );

        // Service → client: service seals, RP/middle/guard wrap.
        let rc = RelayCell::new(RelayCmd::Connected, 1, vec![]);
        let mut payload = rc.encode_payload();
        service.seal(&mut payload);
        relays[2].encrypt_layer(&mut payload);
        relays[1].encrypt_layer(&mut payload);
        relays[0].encrypt_layer(&mut payload);
        assert_eq!(client.unwrap_inbound(&mut payload), Some(3));
    }

    /// `seal_batch` / `encrypt_layer_batch` equal their sequential forms.
    #[test]
    fn seal_batch_matches_sequential() {
        let keys = test_keys(8);
        let mut seq = LayerCrypto::relay_side(&keys);
        let mut bat = LayerCrypto::relay_side(&keys);
        let make = |i: usize| {
            RelayCell::new(RelayCmd::Data, i as u16, vec![0xC3; 200 + i]).encode_payload()
        };
        let mut run_a: Vec<[u8; PAYLOAD_LEN]> = (0..9).map(make).collect();
        let mut run_b = run_a.clone();
        for p in run_a.iter_mut() {
            seq.seal(p);
        }
        let mut refs: Vec<&mut [u8; PAYLOAD_LEN]> = run_b.iter_mut().collect();
        bat.seal_batch(&mut refs);
        assert_eq!(run_a, run_b);

        let mut run_a: Vec<[u8; PAYLOAD_LEN]> = (0..5).map(make).collect();
        let mut run_b = run_a.clone();
        for p in run_a.iter_mut() {
            seq.encrypt_layer(p);
        }
        let mut refs: Vec<&mut [u8; PAYLOAD_LEN]> = run_b.iter_mut().collect();
        bat.encrypt_layer_batch(&mut refs);
        assert_eq!(run_a, run_b);
    }

    /// Keystream bytes `pos .. pos + len` of a layer cipher, from the
    /// portable block function applied by hand to the counter blocks
    /// [`cell_cipher`] is documented to use.
    fn keystream_by_hand(key: &[u8; 32], nonce: &[u8; 12], pos: usize, len: usize) -> Vec<u8> {
        let keys = onion_crypto::aes::expand_key(key.first_chunk().unwrap());
        let mut stream = Vec::new();
        for block in pos / 16..(pos + len).div_ceil(16) {
            let mut counter_block = [0u8; 16];
            counter_block[..8].copy_from_slice(&nonce[..8]);
            counter_block[8..].copy_from_slice(&(block as u64).to_be_bytes());
            stream.extend(onion_crypto::aes::encrypt_block(&keys, &counter_block));
        }
        stream[pos % 16..][..len].to_vec()
    }

    /// The tag of a cell by the definition: POLYVAL by its bitwise
    /// reference over the cell's 32 blocks (digest field zeroed), continued
    /// from `acc`, XORed with the portable AES block of `0⁸ ‖ be64(n)` for
    /// the cell's number `n`.
    fn tag_by_hand(key: &[u8; 32], acc: &mut [u8; 16], n: u64, payload: &[u8]) -> [u8; 4] {
        let mut cell = [0u8; 16 * PAYLOAD_LEN.div_ceil(16)];
        cell[..PAYLOAD_LEN].copy_from_slice(payload);
        cell[TAG].fill(0);
        for block in cell.chunks(16) {
            let x = from_fn(|i| acc[i] ^ block[i]);
            *acc = onion_crypto::polyval::dot_reference(&x, key.first_chunk().unwrap());
        }
        let mut counter_block = [0u8; 16];
        counter_block[8..].copy_from_slice(&n.to_be_bytes());
        let mask = aes::encrypt_block(&aes::expand_key(key.last_chunk().unwrap()), &counter_block);
        from_fn(|i| acc[i] ^ mask[i])
    }

    /// Fixed-key relay-cell stream: 64 backward cells sealed at the exit or
    /// the middle hop, wrapped by the hops below, unwrapped by the client.
    ///
    /// Two pins, one for the unwrapped payloads (plaintext plus every
    /// running-digest tag) and one for the wire bytes. Both were re-pinned
    /// when the tags went from a SHA-256 running digest to the keyed POLYVAL
    /// one and [`test_keys`] from repeated bytes to pseudo-random ones; the
    /// cell format stayed. Neither pin can drift together with the
    /// kernels: each cell is rebuilt from its plaintext with keystream made
    /// by hand from the portable AES block, and each tag is recomputed from
    /// POLYVAL's bitwise definition and the same block.
    #[test]
    fn relay_digest_stream_is_pinned() {
        let (mut client, mut relays) = three_hops();
        let (mut wire, mut plain) = (Sha256::new(), Sha256::new());
        let mut sent = [0usize; 3]; // bytes each relay has encrypted backward
        let mut accs = [[0u8; 16]; 3]; // each hop's running POLYVAL, by hand
        let mut tagged = [0u64; 3]; // cells each hop has sealed
        for i in 0..64u16 {
            let from = if i % 8 == 7 { 1 } else { 2 };
            let data = vec![i as u8; (i as usize * 37) % 490];
            let mut payload = RelayCell::new(RelayCmd::Data, i, data.clone()).encode_payload();
            relays[from].seal(&mut payload);
            for relay in relays[..from].iter_mut().rev() {
                relay.encrypt_layer(&mut payload);
            }
            wire.update(&payload);
            let on_wire = payload;
            assert_eq!(client.unwrap_inbound(&mut payload), Some(from), "cell {i}");
            assert_eq!(RelayCell::parse_payload(&payload).unwrap().data, data);
            plain.update(&payload);

            let db = test_keys(from as u8 + 1).db;
            let tag = tag_by_hand(&db, &mut accs[from], tagged[from], &payload);
            assert_eq!(tag, payload[TAG], "tag of cell {i}");
            tagged[from] += 1;

            let mut by_hand = payload;
            for (hop, sent) in sent.iter_mut().enumerate().take(from + 1) {
                let keys = test_keys(hop as u8 + 1);
                let layer = keystream_by_hand(&keys.kb, &keys.nb, *sent, PAYLOAD_LEN);
                by_hand.iter_mut().zip(layer).for_each(|(b, k)| *b ^= k);
                *sent += PAYLOAD_LEN;
            }
            assert_eq!(by_hand, on_wire, "cell {i}");
        }
        assert_eq!(
            onion_crypto::sha256::digest_hex(&plain.finalize()),
            "4676f99a71645a0b8ca7a93493b4409d6714b0679c7d5c56bd347055a196724e"
        );
        assert_eq!(
            onion_crypto::sha256::digest_hex(&wire.finalize()),
            "75eb8cfdf60732a2ae10c21b3e811568466113495162ca0c8dd2397ed0119311"
        );
    }

    /// A 3-hop circuit, and the same with the e2e hop of a rendezvous
    /// circuit on top: cells go to every hop and back, in an order that
    /// interleaves the hops, and each arrives at the hop it was sealed for
    /// (forward) or is attributed to the hop that sealed it (backward).
    #[test]
    fn round_trips_to_every_hop() {
        for e2e in [false, true] {
            let (mut client, mut relays) = three_hops();
            if e2e {
                client.push_hop(LayerCrypto::client_side(&test_keys(9)));
                relays.push(LayerCrypto::relay_side(&test_keys(9)));
            }
            let hops = relays.len();
            for i in 0..40usize {
                let hop = (i * 7 + i / 5) % hops;
                let data = vec![i as u8; (i * 53) % 499];
                let rc = RelayCell::new(RelayCmd::Data, i as u16, data);
                let mut payload = rc.encode_payload();
                client.seal_for_hop(hop, &mut payload);
                for (k, relay) in relays.iter_mut().enumerate().take(hop + 1) {
                    assert_eq!(relay.unseal(&mut payload), k == hop, "cell {i} at hop {k}");
                }
                assert_eq!(RelayCell::parse_payload(&payload).unwrap(), rc);

                let mut payload = rc.encode_payload();
                relays[hop].seal(&mut payload);
                for relay in relays[..hop].iter_mut().rev() {
                    relay.encrypt_layer(&mut payload);
                }
                assert_eq!(client.unwrap_inbound(&mut payload), Some(hop), "reply {i}");
                assert_eq!(RelayCell::parse_payload(&payload).unwrap(), rc);
            }
        }
    }

    /// One byte flipped on the wire, at sampled offsets (the header and the
    /// tag among them) and on every link up to the addressed hop, in both
    /// directions: the addressed hop refuses the cell, and so does every
    /// hop before it.
    #[test]
    fn flipped_byte_at_any_hop_is_refused() {
        let offsets = (0..PAYLOAD_LEN).step_by(29).chain([1, 2, 5, 8, 9, 508]);
        for offset in offsets {
            for target in 0..3 {
                for link in 0..=target {
                    // Forward: flipped before hop `link` strips its layer.
                    let (mut client, mut relays) = three_hops();
                    let rc = RelayCell::new(RelayCmd::Data, 1, vec![0x42; 300]);
                    let mut payload = rc.encode_payload();
                    client.seal_for_hop(target, &mut payload);
                    for (k, relay) in relays.iter_mut().enumerate().take(target + 1) {
                        if k == link {
                            payload[offset] ^= 0x10;
                        }
                        assert!(!relay.unseal(&mut payload), "{offset} on link {link}");
                    }
                    // Backward: flipped after hop `link` added its layer.
                    let mut payload = rc.encode_payload();
                    relays[target].seal(&mut payload);
                    if link == target {
                        payload[offset] ^= 0x10;
                    }
                    for k in (0..target).rev() {
                        relays[k].encrypt_layer(&mut payload);
                        if k == link {
                            payload[offset] ^= 0x10;
                        }
                    }
                    assert_eq!(client.unwrap_inbound(&mut payload), None, "{offset} back");
                }
            }
        }
    }

    /// A replayed, reordered or skipped cell is refused, on the wire of a
    /// 3-hop circuit and by the running digest alone (plaintext cells, so
    /// the layer cipher plays no part). At the digest, a refused cell
    /// leaves the stream in step: the next expected cell still passes.
    #[test]
    fn replayed_reordered_or_skipped_cell_is_refused() {
        let cell = |i: u16| RelayCell::new(RelayCmd::Data, i, vec![7; 100]).encode_payload();
        // On the wire: three cells for the exit, delivered in `order`.
        let wire_accepts = |order: &[usize]| -> Vec<bool> {
            let (mut client, mut relays) = three_hops();
            let sealed: Vec<_> = (0..3)
                .map(|i| {
                    let mut payload = cell(i);
                    client.seal_for_hop(2, &mut payload);
                    payload
                })
                .collect();
            let mut deliver = |mut payload: [u8; PAYLOAD_LEN]| {
                relays.iter_mut().any(|relay| relay.unseal(&mut payload))
            };
            order.iter().map(|&i| deliver(sealed[i])).collect()
        };
        assert_eq!(wire_accepts(&[0, 1, 2]), [true; 3]);
        assert_eq!(wire_accepts(&[0, 0]), [true, false], "replay");
        assert_eq!(wire_accepts(&[1, 0]), [false, false], "reorder");
        assert_eq!(wire_accepts(&[0, 2]), [true, false], "skip");

        // The digest alone.
        let key = test_keys(4).df;
        let mut sender = RunningDigest::new(&key);
        let sealed: Vec<_> = (0..3)
            .map(|i| {
                let mut payload = cell(i);
                let (acc, tag) = sender.trial(&payload);
                sender.commit(acc);
                payload[TAG].copy_from_slice(&tag);
                payload
            })
            .collect();
        let digest_accepts = |order: &[usize]| -> Vec<bool> {
            let mut receiver = RunningDigest::new(&key);
            let mut accept = |payload: &[u8; PAYLOAD_LEN]| {
                let (acc, tag) = receiver.trial(payload);
                let ok = tag == payload[TAG];
                if ok {
                    receiver.commit(acc);
                }
                ok
            };
            order.iter().map(|&i| accept(&sealed[i])).collect()
        };
        assert_eq!(digest_accepts(&[0, 1, 2]), [true; 3]);
        assert_eq!(digest_accepts(&[0, 0, 1, 2]), [true, false, true, true]);
        assert_eq!(digest_accepts(&[1, 0, 2, 1]), [false, true, false, true]);
        assert_eq!(digest_accepts(&[0, 2, 1]), [true, false, true]);
    }
}
