//! The ChaCha20 stream cipher (RFC 8439): the cipher half of [`crate::aead`],
//! and so of the conclave channel, sealed storage and the FS Protect
//! filesystem. (Relay cells are layered with [`crate::aes`], as in Tor.)
//!
//! One scalar block function and one buffered keystream: every message
//! this cipher sees is a few hundred bytes at most, so a block at a time
//! is the whole cost. The position is continuous across calls of any
//! length.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// A ChaCha20 cipher instance: key + nonce + stream position.
#[derive(Clone)]
pub struct ChaCha20 {
    /// The initial block state; word 12 is the next block counter.
    state: [u32; 16],
    /// Buffered keystream of the current block.
    block: [u8; 64],
    /// Offset into `block` of the next unused keystream byte (64 = exhausted).
    offset: usize,
}

/// Fill `words` with the little-endian words of `bytes`.
fn load_le(words: &mut [u32], bytes: &[u8]) {
    for (word, chunk) in words.iter_mut().zip(bytes.chunks_exact(4)) {
        *word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
}

fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(16);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(12);
    x[a] = x[a].wrapping_add(x[b]);
    x[d] = (x[d] ^ x[a]).rotate_left(8);
    x[c] = x[c].wrapping_add(x[d]);
    x[b] = (x[b] ^ x[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Create a cipher with block counter starting at 0.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        load_le(&mut state[4..12], key);
        load_le(&mut state[13..], nonce);
        ChaCha20 {
            state,
            block: [0; 64],
            offset: 64,
        }
    }

    /// Compute the keystream block for the current counter into `block`
    /// and advance the counter.
    fn refill(&mut self) {
        let mut x = self.state;
        for _ in 0..10 {
            // column rounds
            quarter(&mut x, 0, 4, 8, 12);
            quarter(&mut x, 1, 5, 9, 13);
            quarter(&mut x, 2, 6, 10, 14);
            quarter(&mut x, 3, 7, 11, 15);
            // diagonal rounds
            quarter(&mut x, 0, 5, 10, 15);
            quarter(&mut x, 1, 6, 11, 12);
            quarter(&mut x, 2, 7, 8, 13);
            quarter(&mut x, 3, 4, 9, 14);
        }
        for ((out, word), init) in self.block.chunks_exact_mut(4).zip(x).zip(self.state) {
            out.copy_from_slice(&word.wrapping_add(init).to_le_bytes());
        }
        self.state[12] = self.state[12].wrapping_add(1);
        self.offset = 0;
    }

    /// XOR the keystream into `data` in place, advancing the stream position.
    /// Encryption and decryption are the same operation.
    pub fn apply(&mut self, mut data: &mut [u8]) {
        while !data.is_empty() {
            if self.offset == 64 {
                self.refill();
            }
            let take = (64 - self.offset).min(data.len());
            let (now, rest) = data.split_at_mut(take);
            for (byte, ks) in now.iter_mut().zip(&self.block[self.offset..]) {
                *byte ^= ks;
            }
            self.offset += take;
            data = rest;
        }
    }

    /// Convenience: XOR a copy of `data` and return it.
    pub fn apply_copy(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{hex, Sha256};

    /// RFC 8439 §2.4.2: the "sunscreen" plaintext and its ciphertext
    /// under key 00..1f, nonce `00:00:00:00:00:00:00:4a:00:00:00:00`,
    /// counter 1.
    const SUNSCREEN: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
    const SUNSCREEN_CT: &str = "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
         f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
         07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
         5af90bbf74a35be6b40b8eedf2785e42874d";

    /// The §2.4.2 cipher, at counter 1: 64 bytes into its stream.
    fn sunscreen_cipher() -> ChaCha20 {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let mut c = ChaCha20::new(&key, &[0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0]);
        c.apply(&mut [0u8; 64]);
        c
    }

    #[test]
    fn rfc8439_sunscreen() {
        assert_eq!(hex(&sunscreen_cipher().apply_copy(SUNSCREEN)), SUNSCREEN_CT);
    }

    /// RFC 8439 §2.3.2 keystream block check via zero plaintext.
    #[test]
    fn rfc8439_block_function() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut c = ChaCha20::new(&key, &nonce);
        c.apply(&mut [0u8; 64]); // counter = 1
        let ks = c.apply_copy(&[0u8; 64]);
        assert_eq!(
            hex(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    /// The RFC 8439 §2.4.2 vector fed one-shot and in chunk patterns that
    /// cross block boundaries mid-vector. All must produce the RFC
    /// ciphertext.
    #[test]
    fn rfc8439_sunscreen_across_chunk_boundaries() {
        for chunks in [
            vec![114usize],  // one shot
            vec![1, 63, 50], // partial, then exactly to the block edge
            vec![64, 50],    // whole block, then partial
            vec![63, 1, 50], // partial up to the edge, then cross it
            vec![65, 49],    // whole block plus one byte
            vec![7; 17],     // never aligned
        ] {
            let mut c = sunscreen_cipher();
            let mut ct = Vec::new();
            let mut rest = SUNSCREEN;
            for take in chunks.iter().copied() {
                let take = take.min(rest.len());
                ct.extend_from_slice(&c.apply_copy(&rest[..take]));
                rest = &rest[take..];
            }
            assert_eq!(hex(&ct), SUNSCREEN_CT, "chunks {chunks:?}");
        }
    }

    #[test]
    fn roundtrip_decrypts() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let msg: Vec<u8> = (0..1000u16).map(|i| (i % 256) as u8).collect();
        let ct = ChaCha20::new(&key, &nonce).apply_copy(&msg);
        assert_ne!(ct, msg);
        let pt = ChaCha20::new(&key, &nonce).apply_copy(&ct);
        assert_eq!(pt, msg);
    }

    #[test]
    fn streaming_is_position_continuous() {
        // Applying in many small pieces equals one big application.
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let msg = vec![0xABu8; 517];
        let whole = ChaCha20::new(&key, &nonce).apply_copy(&msg);
        let mut c = ChaCha20::new(&key, &nonce);
        let mut pieced = Vec::new();
        for chunk in msg.chunks(13) {
            pieced.extend_from_slice(&c.apply_copy(chunk));
        }
        assert_eq!(pieced, whole);
    }

    /// The keystream for every length 0..=1100, from a fresh cipher and
    /// from one a byte into its stream, hashed in order into one digest per
    /// start. Pinned from the block-parallel cipher this module replaced,
    /// whose 4-, 8- and 16-lane paths switched at lengths up to 1 KiB: the
    /// lengths cross every one of their boundaries.
    #[test]
    fn keystream_is_pinned_across_lengths() {
        let key: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(29) ^ 0x5c);
        let nonce: [u8; 12] = core::array::from_fn(|i| 0xa0 + i as u8);
        let zeros = [0u8; 1100];
        let digest = |skip: usize| {
            let mut h = Sha256::new();
            for len in 0..=zeros.len() {
                let mut c = ChaCha20::new(&key, &nonce);
                c.apply(&mut [0u8; 1][..skip]);
                h.update(&c.apply_copy(&zeros[..len]));
            }
            hex(&h.finalize())
        };
        let pins = [
            "de31637e434b61d9b86f401f45a72b9fbda62812ed959f6f6262ea7de9726295",
            "40e0ef065d85f5ac960464c803ff339cfb0a553015a75b2abf4695c08f0dabce",
        ];
        assert_eq!([digest(0), digest(1)], pins);
    }

    #[test]
    fn different_nonces_differ() {
        let key = [5u8; 32];
        let a = ChaCha20::new(&key, &[0u8; 12]).apply_copy(&[0u8; 64]);
        let b = ChaCha20::new(&key, &[1u8; 12]).apply_copy(&[0u8; 64]);
        assert_ne!(a, b);
    }
}
