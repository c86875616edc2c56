//! The ChaCha20 stream cipher (RFC 8439): the cipher half of [`crate::aead`],
//! and so of the conclave channel, sealed storage and the FS Protect
//! filesystem. (Relay cells are layered with [`crate::aes`], as in Tor.)
//!
//! The cipher exposes both a one-shot XOR ([`ChaCha20::apply`]) and a
//! seekable keystream ([`ChaCha20::seek`]); the position is continuous
//! across calls of any length.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// How many blocks the bulk fast path computes per round-function pass.
const WIDE: usize = 8;
/// Lane count of the narrower pass that picks up runs too short for the
/// bulk path: an AEAD message of a few hundred bytes is two to four blocks.
const NARROW: usize = 4;

/// `N` lanes of one ChaCha state word, one lane per block. Whole-value
/// semantics (every op returns a fresh `Lanes`) keep the dataflow free of
/// aliasing so the elementwise loops compile to single vector instructions
/// on targets with ≥`N`×32-bit SIMD.
#[derive(Copy, Clone)]
struct Lanes<const N: usize>([u32; N]);

impl<const N: usize> Lanes<N> {
    #[inline(always)]
    fn splat(x: u32) -> Self {
        Lanes([x; N])
    }

    #[inline(always)]
    fn add(self, other: Self) -> Self {
        let mut out = self.0;
        for (o, x) in out.iter_mut().zip(other.0.iter()) {
            *o = o.wrapping_add(*x);
        }
        Lanes(out)
    }

    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        let mut out = self.0;
        for (o, x) in out.iter_mut().zip(other.0.iter()) {
            *o ^= *x;
        }
        Lanes(out)
    }

    #[inline(always)]
    fn rotl(self, r: u32) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = o.rotate_left(r);
        }
        Lanes(out)
    }
}

/// One ChaCha quarter round across all lanes of four state rows.
macro_rules! quarter_wide {
    ($x:ident, $a:tt, $b:tt, $c:tt, $d:tt) => {
        $x[$a] = $x[$a].add($x[$b]);
        $x[$d] = $x[$d].xor($x[$a]).rotl(16);
        $x[$c] = $x[$c].add($x[$d]);
        $x[$b] = $x[$b].xor($x[$c]).rotl(12);
        $x[$a] = $x[$a].add($x[$b]);
        $x[$d] = $x[$d].xor($x[$a]).rotl(8);
        $x[$c] = $x[$c].add($x[$d]);
        $x[$b] = $x[$b].xor($x[$c]).rotl(7);
    };
}

/// A ChaCha20 cipher instance: key + nonce + stream position.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    /// Next block counter.
    counter: u32,
    /// Buffered keystream of the current block.
    block: [u8; 64],
    /// Offset into `block` of the next unused keystream byte (64 = exhausted).
    offset: usize,
}

impl ChaCha20 {
    /// Create a cipher with block counter starting at 0.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        let mut k = [0u32; 8];
        for (i, item) in k.iter_mut().enumerate() {
            *item =
                u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
        }
        let mut n = [0u32; 3];
        for (i, item) in n.iter_mut().enumerate() {
            *item = u32::from_le_bytes([
                nonce[i * 4],
                nonce[i * 4 + 1],
                nonce[i * 4 + 2],
                nonce[i * 4 + 3],
            ]);
        }
        ChaCha20 {
            key: k,
            nonce: n,
            counter: 0,
            block: [0; 64],
            offset: 64,
        }
    }

    /// Reposition the keystream to absolute byte `pos`.
    ///
    /// The IETF ChaCha20 block counter is 32 bits, so the keystream is
    /// 2^38 bytes (256 GiB) long; positions past the end are debug-asserted
    /// and saturate to the final block in release builds rather than
    /// silently truncating to a wrapped-around counter.
    pub fn seek(&mut self, pos: u64) {
        let block = pos / 64;
        debug_assert!(
            block <= u64::from(u32::MAX),
            "ChaCha20::seek past the end of the 2^38-byte keystream"
        );
        self.counter = block.min(u64::from(u32::MAX)) as u32;
        let within = (pos % 64) as usize;
        if within == 0 {
            self.offset = 64;
        } else {
            self.refill();
            // refill() advanced counter; it generated the block for the
            // pre-increment counter, which is what we want.
            self.offset = within;
        }
    }

    fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    /// The initial block state for a given counter value.
    #[inline]
    fn init_state(&self, counter: u32) -> [u32; 16] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);
        state
    }

    /// The keystream block for `counter`, as 16 little-endian words.
    fn block_words(&self, counter: u32) -> [u32; 16] {
        let initial = self.init_state(counter);
        let mut state = initial;
        for _ in 0..10 {
            // column rounds
            Self::quarter(&mut state, 0, 4, 8, 12);
            Self::quarter(&mut state, 1, 5, 9, 13);
            Self::quarter(&mut state, 2, 6, 10, 14);
            Self::quarter(&mut state, 3, 7, 11, 15);
            // diagonal rounds
            Self::quarter(&mut state, 0, 5, 10, 15);
            Self::quarter(&mut state, 1, 6, 11, 12);
            Self::quarter(&mut state, 2, 7, 8, 13);
            Self::quarter(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter_mut().zip(initial.iter()) {
            *word = word.wrapping_add(*init);
        }
        state
    }

    /// `N` consecutive keystream blocks starting at `counter`, laid out
    /// word-major (`[word][lane]`). Lane `l` is the block for
    /// `counter + l`; the rounds run elementwise across lanes. Inlined so
    /// the key/nonce splats hoist out of the caller's per-group loop.
    #[inline(always)]
    fn wide_block_words<const N: usize>(&self, counter: u32) -> [[u32; N]; 16] {
        let template = self.init_state(counter);
        let mut initial = [Lanes::<N>::splat(0); 16];
        for (row, word) in initial.iter_mut().zip(template.iter()) {
            *row = Lanes::splat(*word);
        }
        let mut counters = [0u32; N];
        for (l, c) in counters.iter_mut().enumerate() {
            *c = counter.wrapping_add(l as u32);
        }
        initial[12] = Lanes(counters);
        let mut x = initial;
        for _ in 0..10 {
            // column rounds
            quarter_wide!(x, 0, 4, 8, 12);
            quarter_wide!(x, 1, 5, 9, 13);
            quarter_wide!(x, 2, 6, 10, 14);
            quarter_wide!(x, 3, 7, 11, 15);
            // diagonal rounds
            quarter_wide!(x, 0, 5, 10, 15);
            quarter_wide!(x, 1, 6, 11, 12);
            quarter_wide!(x, 2, 7, 8, 13);
            quarter_wide!(x, 3, 4, 9, 14);
        }
        let mut out = [[0u32; N]; 16];
        for ((row, init_row), out_row) in x.iter().zip(initial.iter()).zip(out.iter_mut()) {
            *out_row = row.add(*init_row).0;
        }
        out
    }

    /// XOR `N` keystream blocks (word-major) into a `64 * N`-byte group,
    /// reading and writing the data in `u64` lanes.
    #[inline(always)]
    fn xor_group<const N: usize>(group: &mut [u8], words: &[[u32; N]; 16]) {
        debug_assert_eq!(group.len(), 64 * N);
        for (l, chunk) in group.chunks_exact_mut(64).enumerate() {
            for (bytes, pair) in chunk.chunks_exact_mut(8).zip(words.chunks_exact(2)) {
                let ks = u64::from(pair[0][l]) | (u64::from(pair[1][l]) << 32);
                let data = u64::from_le_bytes(bytes.try_into().expect("8-byte lane"));
                bytes.copy_from_slice(&(data ^ ks).to_le_bytes());
            }
        }
    }

    /// Generate `N` blocks of keystream and XOR them into a `64 * N`-byte
    /// group, advancing the counter.
    #[inline(always)]
    fn apply_wide<const N: usize>(&mut self, group: &mut [u8]) {
        let words = self.wide_block_words::<N>(self.counter);
        self.counter = self.counter.wrapping_add(N as u32);
        Self::xor_group(group, &words);
    }

    /// The bulk path: two independent [`WIDE`]-lane states advanced through
    /// the rounds in lockstep. One [`WIDE`]-lane state is a serial chain of
    /// vector ops per quarter round; interleaving a second chain roughly
    /// doubles the instruction-level parallelism and keeps the vector
    /// pipelines full (measurably faster than one 2×[`WIDE`]-lane state,
    /// which overflows the register file).
    fn apply_wide_pair(&mut self, group: &mut [u8]) {
        debug_assert_eq!(group.len(), 64 * 2 * WIDE);
        let counter = self.counter;
        let template = self.init_state(counter);
        let mut ix = [Lanes::<WIDE>::splat(0); 16];
        for (row, word) in ix.iter_mut().zip(template.iter()) {
            *row = Lanes::splat(*word);
        }
        let mut iy = ix;
        let mut cx = [0u32; WIDE];
        let mut cy = [0u32; WIDE];
        for (l, c) in cx.iter_mut().enumerate() {
            *c = counter.wrapping_add(l as u32);
        }
        for (l, c) in cy.iter_mut().enumerate() {
            *c = counter.wrapping_add((WIDE + l) as u32);
        }
        ix[12] = Lanes(cx);
        iy[12] = Lanes(cy);
        let mut x = ix;
        let mut y = iy;
        macro_rules! quarter_pair {
            ($a:tt, $b:tt, $c:tt, $d:tt) => {
                quarter_wide!(x, $a, $b, $c, $d);
                quarter_wide!(y, $a, $b, $c, $d);
            };
        }
        for _ in 0..10 {
            // column rounds
            quarter_pair!(0, 4, 8, 12);
            quarter_pair!(1, 5, 9, 13);
            quarter_pair!(2, 6, 10, 14);
            quarter_pair!(3, 7, 11, 15);
            // diagonal rounds
            quarter_pair!(0, 5, 10, 15);
            quarter_pair!(1, 6, 11, 12);
            quarter_pair!(2, 7, 8, 13);
            quarter_pair!(3, 4, 9, 14);
        }
        let mut ox = [[0u32; WIDE]; 16];
        let mut oy = [[0u32; WIDE]; 16];
        for ((o, s), i) in ox.iter_mut().zip(x.iter()).zip(ix.iter()) {
            *o = s.add(*i).0;
        }
        for ((o, s), i) in oy.iter_mut().zip(y.iter()).zip(iy.iter()) {
            *o = s.add(*i).0;
        }
        self.counter = counter.wrapping_add(2 * WIDE as u32);
        let (gx, gy) = group.split_at_mut(64 * WIDE);
        Self::xor_group(gx, &ox);
        Self::xor_group(gy, &oy);
    }

    /// XOR one keystream block (as words) into a 64-byte chunk, eight
    /// `u64` lanes at a time. Two consecutive little-endian `u32` keystream
    /// words are one little-endian `u64`.
    #[inline(always)]
    fn xor_block(chunk: &mut [u8], words: &[u32; 16]) {
        debug_assert_eq!(chunk.len(), 64);
        for (pair, bytes) in words.chunks_exact(2).zip(chunk.chunks_exact_mut(8)) {
            let ks = u64::from(pair[0]) | (u64::from(pair[1]) << 32);
            let data = u64::from_le_bytes(bytes.try_into().expect("8-byte lane"));
            bytes.copy_from_slice(&(data ^ ks).to_le_bytes());
        }
    }

    /// Finish a sub-group-sized run (`0 < data.len() <= 64 * N`) with a
    /// single `N`-lane pass: whole blocks are XORed lane by lane, and a
    /// trailing partial block lands in the keystream buffer so the next
    /// call resumes mid-block — no scalar per-block passes at all. This is
    /// what keeps a short AEAD message at one wide or narrow pass total.
    #[inline(always)]
    fn apply_tail<const N: usize>(&mut self, data: &mut [u8]) {
        debug_assert!(!data.is_empty() && data.len() <= 64 * N);
        let words = self.wide_block_words::<N>(self.counter);
        let mut blocks = data.chunks_exact_mut(64);
        let mut lane = 0;
        for chunk in &mut blocks {
            for (pair, bytes) in words.chunks_exact(2).zip(chunk.chunks_exact_mut(8)) {
                let ks = u64::from(pair[0][lane]) | (u64::from(pair[1][lane]) << 32);
                let d = u64::from_le_bytes(bytes.try_into().expect("8-byte lane"));
                bytes.copy_from_slice(&(d ^ ks).to_le_bytes());
            }
            lane += 1;
        }
        self.counter = self.counter.wrapping_add(lane as u32);
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            for (i, row) in words.iter().enumerate() {
                self.block[i * 4..i * 4 + 4].copy_from_slice(&row[lane].to_le_bytes());
            }
            self.counter = self.counter.wrapping_add(1);
            for (byte, ks) in tail.iter_mut().zip(self.block.iter()) {
                *byte ^= ks;
            }
            self.offset = tail.len();
        }
    }

    fn refill(&mut self) {
        let words = self.block_words(self.counter);
        for (i, word) in words.iter().enumerate() {
            self.block[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        self.counter = self.counter.wrapping_add(1);
        self.offset = 0;
    }

    /// XOR the keystream into `data` in place, advancing the stream position.
    /// Encryption and decryption are the same operation.
    ///
    /// Fast path: after draining any buffered partial block, keystream is
    /// generated [`WIDE`] blocks per round-function pass ([`NARROW`] for a
    /// remainder of up to four blocks) and XORed in `u64` lanes; only a trailing
    /// partial block goes through the byte-at-a-time buffer.
    pub fn apply(&mut self, data: &mut [u8]) {
        let mut data = data;
        if self.offset < 64 {
            // Drain the buffered partial block from a previous call.
            let take = (64 - self.offset).min(data.len());
            for (byte, ks) in data[..take]
                .iter_mut()
                .zip(self.block[self.offset..self.offset + take].iter())
            {
                *byte ^= ks;
            }
            self.offset += take;
            data = &mut data[take..];
        }
        // Bulk path: two interleaved WIDE-lane passes per group.
        let mut pair = data.chunks_exact_mut(64 * 2 * WIDE);
        for group in &mut pair {
            self.apply_wide_pair(group);
        }
        data = pair.into_remainder();
        // One single-state wide pass for a half-group remainder.
        let mut wide = data.chunks_exact_mut(64 * WIDE);
        for group in &mut wide {
            self.apply_wide::<WIDE>(group);
        }
        data = wide.into_remainder();
        // Everything left fits in one wide or one narrow pass (plus a
        // buffered partial block); a lone whole block keeps the scalar path.
        if data.len() > 64 * NARROW {
            self.apply_tail::<WIDE>(data);
        } else if data.len() > 64 {
            self.apply_tail::<NARROW>(data);
        } else if data.len() == 64 {
            let words = self.block_words(self.counter);
            self.counter = self.counter.wrapping_add(1);
            Self::xor_block(data, &words);
        } else if !data.is_empty() {
            // Trailing partial block: buffer a fresh keystream block and
            // leave the unused part for the next call.
            self.refill();
            let tail = data;
            for (byte, ks) in tail.iter_mut().zip(self.block.iter()) {
                *byte ^= ks;
            }
            self.offset = tail.len();
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 8439 §2.4.2: the "sunscreen" test vector (counter starts at 1).
    #[test]
    fn rfc8439_sunscreen() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut c = ChaCha20::new(&key, &nonce);
        c.seek(64); // counter = 1 per the RFC vector
        let ct = c.apply_copy(plaintext);
        assert_eq!(
            hex(&ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    /// RFC 8439 §2.3.2 keystream block check via zero plaintext.
    #[test]
    fn rfc8439_block_function() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut c = ChaCha20::new(&key, &nonce);
        c.seek(64); // counter = 1
        let ks = c.apply_copy(&[0u8; 64]);
        assert_eq!(
            hex(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    /// The RFC 8439 §2.4.2 vector fed through every path: one-shot, and in
    /// chunk patterns that cross the buffered-partial / whole-block
    /// boundaries mid-vector. All must produce the RFC ciphertext.
    #[test]
    fn rfc8439_sunscreen_across_chunk_boundaries() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let expected = "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d";
        for chunks in [
            vec![114usize],  // one shot
            vec![1, 63, 50], // partial, then exactly to the block edge
            vec![64, 50],    // whole block, then partial
            vec![63, 1, 50], // partial up to the edge, then cross it
            vec![65, 49],    // whole block plus one byte
            vec![7; 17],     // never aligned
        ] {
            let mut c = ChaCha20::new(&key, &nonce);
            c.seek(64); // counter = 1 per the RFC vector
            let mut ct = Vec::new();
            let mut rest = plaintext;
            for take in chunks.iter().copied() {
                let take = take.min(rest.len());
                ct.extend_from_slice(&c.apply_copy(&rest[..take]));
                rest = &rest[take..];
            }
            assert_eq!(hex(&ct), expected, "chunks {chunks:?}");
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

    #[test]
    fn seek_matches_sequential() {
        let key = [3u8; 32];
        let nonce = [4u8; 12];
        let msg = vec![0u8; 300];
        let whole = ChaCha20::new(&key, &nonce).apply_copy(&msg);
        for pos in [0u64, 1, 63, 64, 65, 130, 299] {
            let mut c = ChaCha20::new(&key, &nonce);
            c.seek(pos);
            let tail = c.apply_copy(&msg[pos as usize..]);
            assert_eq!(&tail[..], &whole[pos as usize..], "seek to {pos}");
        }
    }

    #[test]
    fn different_nonces_differ() {
        let key = [5u8; 32];
        let a = ChaCha20::new(&key, &[0u8; 12]).apply_copy(&[0u8; 64]);
        let b = ChaCha20::new(&key, &[1u8; 12]).apply_copy(&[0u8; 64]);
        assert_ne!(a, b);
    }
}
