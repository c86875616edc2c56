//! Layered onion encryption for relay cells — Tor's scheme: AES-128 in
//! counter mode for the layers, as in Tor, with SHA-256 in place of SHA-1
//! for the running digests.
//!
//! Each hop of a circuit holds a [`LayerCrypto`]: a pair of stream ciphers
//! (one per direction, positions advancing across cells) and a pair of
//! *running digests*. When an endpoint addresses a relay cell to a hop, it
//! feeds the cell (digest field zeroed) into that hop's running digest and
//! writes the first four digest bytes into the cell, then encrypts. A hop
//! receiving a cell strips one cipher layer and checks `recognized == 0`
//! and the digest against its own running digest — a match means "this cell
//! is for me"; anything else is forwarded another hop.

use crate::cell::PAYLOAD_LEN;
use onion_crypto::aes::Aes128Ctr;
use onion_crypto::ntor::CircuitKeys;
use onion_crypto::sha256::Sha256;
use std::array::from_fn;

/// One direction's layer cipher. The ntor KDF hands out 32-byte keys and
/// 12-byte nonces; AES-128-CTR is keyed with the first 16 bytes of the key
/// and counts blocks (64-bit, big-endian, from zero) under the first 8
/// bytes of the nonce.
fn cell_cipher(key: &[u8; 32], nonce: &[u8; 12]) -> Aes128Ctr {
    Aes128Ctr::new(&from_fn(|i| key[i]), &from_fn(|i| nonce[i]))
}

/// One hop's cryptographic state, from the perspective of one endpoint.
pub struct LayerCrypto {
    send_cipher: Aes128Ctr,
    recv_cipher: Aes128Ctr,
    send_digest: Sha256,
    recv_digest: Sha256,
}

fn seeded_digest(seed: &[u8; 32]) -> Sha256 {
    let mut d = Sha256::new();
    d.update(seed);
    d
}

impl LayerCrypto {
    /// The circuit originator's view of a hop: sends with the forward keys,
    /// receives with the backward keys.
    pub fn client_side(keys: &CircuitKeys) -> LayerCrypto {
        LayerCrypto {
            send_cipher: cell_cipher(&keys.kf, &keys.nf),
            recv_cipher: cell_cipher(&keys.kb, &keys.nb),
            send_digest: seeded_digest(&keys.df),
            recv_digest: seeded_digest(&keys.db),
        }
    }

    /// The relay's (or rendezvous-service's) view: sends with the backward
    /// keys, receives with the forward keys.
    pub fn relay_side(keys: &CircuitKeys) -> LayerCrypto {
        LayerCrypto {
            send_cipher: cell_cipher(&keys.kb, &keys.nb),
            recv_cipher: cell_cipher(&keys.kf, &keys.nf),
            send_digest: seeded_digest(&keys.db),
            recv_digest: seeded_digest(&keys.df),
        }
    }

    /// Does nothing: it used to switch on a keystream prefetch window that
    /// the AES-128-CTR layer cipher has no use for. Kept only because
    /// `benchmark/src/probes/ladder.rs`, which a change to this crate may
    /// not edit, still calls it; the `benchmark` follow-up that re-points
    /// the keystream probe (ROADMAP item 7(ii)) removes that call and this
    /// method together.
    pub fn enable_batch(&mut self) {}

    /// Seal a payload addressed to this hop: compute and write the running
    /// digest, then apply this hop's send cipher.
    pub fn seal(&mut self, payload: &mut [u8; PAYLOAD_LEN]) {
        payload[1] = 0;
        payload[2] = 0; // recognized
                        // Absorb the payload with the digest field zeroed by feeding three
                        // slices — no zeroed copy of the cell is ever materialized.
        self.send_digest
            .update(&payload[..5])
            .update(&[0; 4])
            .update(&payload[9..]);
        let full = self.send_digest.clone_finalize();
        payload[5..9].copy_from_slice(&full[..4]);
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
        // Digest the cell as three slices (digest field replaced by zeros)
        // against a single trial clone — no payload copy, and the check
        // itself peeks via `clone_finalize` rather than cloning the hasher.
        let mut trial = self.recv_digest.clone();
        trial
            .update(&payload[..5])
            .update(&[0; 4])
            .update(&payload[9..]);
        let full = trial.clone_finalize();
        if full[..4] != payload[5..9] {
            return false;
        }
        self.recv_digest = trial;
        true
    }

    /// [`LayerCrypto::seal`] over each payload in order, nothing more: a run
    /// shares no work since the keystream prefetch window went. Called by
    /// nothing in this workspace; kept only because the crypto rung of
    /// `benchmark/src/probes/ladder.rs`, which a change to this crate may
    /// not edit, still calls it. The `benchmark` follow-up of ROADMAP item
    /// 7(ii) writes that loop out in the probe and removes this method.
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
mod tests {
    use super::*;
    use crate::cell::{RelayCell, RelayCmd};
    use onion_crypto::ntor::CircuitKeys;

    fn test_keys(tag: u8) -> CircuitKeys {
        CircuitKeys {
            kf: [tag; 32],
            kb: [tag ^ 0xFF; 32],
            df: [tag.wrapping_add(1); 32],
            db: [tag.wrapping_add(2); 32],
            nf: [tag; 12],
            nb: [tag ^ 0xFF; 12],
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

    /// Fixed-key relay-cell stream: 64 backward cells sealed at the exit or
    /// the middle hop, wrapped by the hops below, unwrapped by the client.
    ///
    /// Two pins. The unwrapped payloads — plaintext plus every
    /// running-digest tag — do not depend on the layer cipher, and their
    /// hash is the one the code produced under the stream cipher AES
    /// replaced: the swap changed nothing but the cipher. The wire
    /// bytes do depend on it; their hash is pinned for AES-128-CTR and each
    /// cell is also rebuilt from its plaintext with keystream made by hand,
    /// so the pin cannot drift together with the cipher's wiring.
    #[test]
    fn relay_digest_stream_is_pinned() {
        let (mut client, mut relays) = three_hops();
        let (mut wire, mut plain) = (Sha256::new(), Sha256::new());
        let mut sent = [0usize; 3]; // bytes each relay has encrypted backward
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
            "4f5087cbd3dd73108c4de76b03c6cb2784a97808e2f55ee9bc97d11af59d1b21"
        );
        assert_eq!(
            onion_crypto::sha256::digest_hex(&wire.finalize()),
            "2a2f643f4b4919bf028cb210e5cb32d57d49a2cce7eeecbfd2c1324bbf0eddb0"
        );
    }
}
