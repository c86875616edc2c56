//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! Supports both one-shot hashing ([`sha256`]) and incremental hashing
//! ([`Sha256`]). Verified against the NIST test vectors in the unit tests.
//!
//! The compression function has two backends, chosen when the crate is
//! compiled: [`compress_portable`] (scalar, every target) and, when the
//! build's target features include the x86 SHA extensions, the `ni` module.
//! [`compress`] is whichever the build selected and [`Sha256::backend`]
//! names it; there is no runtime detection. Both produce the same bytes —
//! the unit tests compare them block for block.
//!
//! The sixteen-lane code behind hash chains and lane HMACs
//! (`chain_lanes`) has two backends the same way: portable lane arrays
//! (`chain_lanes_portable`) and, when the build's target features include
//! AVX-512F, the `zmm` module; [`Sha256::lanes_backend`] names the one built.

/// Hardware backend: present only when the build proves its instructions.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "sha",
    target_feature = "sse4.1",
    target_feature = "ssse3"
))]
mod ni;

/// Lane backend: present only when the build proves its instructions.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod zmm;

/// Digest length in bytes.
pub const DIGEST_LEN: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// New hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Name of the compression backend this build selected:
    /// `"x86-sha-ni"` or `"portable"`.
    pub fn backend() -> &'static str {
        if cfg!(all(
            target_arch = "x86_64",
            target_feature = "sha",
            target_feature = "sse4.1",
            target_feature = "ssse3"
        )) {
            "x86-sha-ni"
        } else {
            "portable"
        }
    }

    /// Name of the sixteen-lane backend this build selected:
    /// `"x86-avx512f"` or `"portable"`.
    pub fn lanes_backend() -> &'static str {
        if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
            "x86-avx512f"
        } else {
            "portable"
        }
    }

    /// Resume from `state`, reached by absorbing `absorbed` bytes of whole
    /// blocks — how a keyed hash skips its constant first block.
    pub(crate) fn from_midstate(state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0);
        Sha256 {
            state,
            buf: [0; 64],
            buf_len: 0,
            total_len: absorbed,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return self;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buf));
        }
        // Every whole block of the slice goes to the backend in one call,
        // so the state crosses memory once per slice, not once per block.
        let (blocks, tail) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
        self
    }

    /// Finish and produce the digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.clone_finalize()
    }

    /// Produce the digest of everything absorbed so far without consuming
    /// the hasher — the running state is untouched and can keep absorbing.
    ///
    /// Equivalent to `self.clone().finalize()` but pads into a scratch
    /// block instead of cloning the whole hasher.
    pub fn clone_finalize(&self) -> [u8; DIGEST_LEN] {
        let mut out = [0u8; DIGEST_LEN];
        self.finalize_into(&mut out);
        out
    }

    /// [`Self::clone_finalize`] writing into a caller-provided buffer.
    pub fn finalize_into(&self, out: &mut [u8; DIGEST_LEN]) {
        let mut state = self.state;
        let bit_len = self.total_len.wrapping_mul(8);
        // Build the final padded block(s) directly: the buffered tail,
        // 0x80, zeros, then the 8-byte big-endian bit length. Two blocks
        // when the tail leaves fewer than 9 free bytes.
        let mut block = [0u8; 64];
        block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        block[self.buf_len] = 0x80;
        if self.buf_len >= 56 {
            Self::compress_into(&mut state, &block);
            block = [0u8; 64];
        }
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        Self::compress_into(&mut state, &block);
        for (chunk, w) in out.chunks_exact_mut(4).zip(state.iter()) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
    }

    /// One block through the active backend ([`compress`]).
    pub(crate) fn compress_into(state: &mut [u32; 8], block: &[u8; 64]) {
        compress(state, std::slice::from_ref(block));
    }

    /// The FIPS 180-4 compression function, fully unrolled.
    ///
    /// The message schedule is kept as a rolling 16-word window updated in
    /// place (`w[i & 15]`), instead of a precomputed 64-entry array — half
    /// the memory traffic. The eight working variables rotate by *renaming*
    /// across the unrolled rounds rather than by shifting eight registers
    /// every round, so each round is just the two Σ/ch/maj adds.
    fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        // One round: consumes the round constant + schedule word, writes the
        // `$d`/`$h` slots. Callers rotate the variable names between rounds.
        macro_rules! rnd {
            ($a:ident, $b:ident, $c:ident, $d:ident,
                 $e:ident, $f:ident, $g:ident, $h:ident, $i:expr, $w:expr) => {
                let t1 = $h
                    .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                    .wrapping_add(($e & $f) ^ (!$e & $g))
                    .wrapping_add(K[$i])
                    .wrapping_add($w);
                let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                    .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
                $d = $d.wrapping_add(t1);
                $h = t1.wrapping_add(t2);
            };
        }
        // Schedule word for round $i (16..64), updating the rolling window.
        macro_rules! wnext {
            ($i:expr) => {{
                let w15 = w[($i + 1) & 15];
                let w2 = w[($i + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[$i & 15] = w[$i & 15]
                    .wrapping_add(s0)
                    .wrapping_add(w[($i + 9) & 15])
                    .wrapping_add(s1);
                w[$i & 15]
            }};
        }
        // Eight rounds with the register rotation spelled out; `$w` maps a
        // round index to its schedule word (direct read or rolling update).
        macro_rules! round8 {
            ($base:expr, $w:ident) => {
                rnd!(a, b, c, d, e, f, g, h, $base, $w!($base));
                rnd!(h, a, b, c, d, e, f, g, $base + 1, $w!($base + 1));
                rnd!(g, h, a, b, c, d, e, f, $base + 2, $w!($base + 2));
                rnd!(f, g, h, a, b, c, d, e, $base + 3, $w!($base + 3));
                rnd!(e, f, g, h, a, b, c, d, $base + 4, $w!($base + 4));
                rnd!(d, e, f, g, h, a, b, c, $base + 5, $w!($base + 5));
                rnd!(c, d, e, f, g, h, a, b, $base + 6, $w!($base + 6));
                rnd!(b, c, d, e, f, g, h, a, $base + 7, $w!($base + 7));
            };
        }
        macro_rules! wdirect {
            ($i:expr) => {
                w[$i & 15]
            };
        }
        round8!(0, wdirect);
        round8!(8, wdirect);
        round8!(16, wnext);
        round8!(24, wnext);
        round8!(32, wnext);
        round8!(40, wnext);
        round8!(48, wnext);
        round8!(56, wnext);

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The compression function over `blocks`, in order, on the backend this
/// build selected (see [`Sha256::backend`]).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "sha",
    target_feature = "sse4.1",
    target_feature = "ssse3"
))]
#[expect(unsafe_code, reason = "the cfg above proves the target features")]
#[inline]
pub fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    // SAFETY: the callee's only precondition is that the CPU has the target
    // features it enables (sha, ssse3, sse4.1), and the cfg on this very
    // item admits it to the build only when the compiler targets all three.
    unsafe { ni::compress(state, blocks) }
}

#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "sha",
    target_feature = "sse4.1",
    target_feature = "ssse3"
)))]
pub use compress_portable as compress;

/// The compression function over `blocks`, in order, in portable scalar
/// code: the backend of every build without the x86 SHA extensions, and the
/// reference the hardware backend is tested against on builds with them.
pub fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        Sha256::compress_block(state, block);
    }
}

/// How many independent hashes the lane code computes at once.
pub(crate) const LANES: usize = 16;

/// One 32-bit word of `LANES` independent hash computations.
pub(crate) type Lanes = [u32; LANES];

/// [`Sha256::compress_into`] on `LANES` independent (state, block) pairs in
/// structure-of-arrays form: `state[i][l]` and `w[i][l]` are word `i` of
/// lane `l`, the block's words already big-endian decoded. Every statement
/// is the same operation on all lanes of a row, which the compiler turns
/// into vector instructions.
fn compress_lanes(state: &mut [Lanes; 8], mut w: [Lanes; 16]) {
    use std::array::from_fn;
    let mut v = *state;
    for i in 0..64 {
        if i >= 16 {
            let (w15, w2) = (w[(i + 1) & 15], w[(i + 14) & 15]);
            let (w7, w16) = (w[(i + 9) & 15], w[i & 15]);
            w[i & 15] = from_fn(|l| {
                let s0 = w15[l].rotate_right(7) ^ w15[l].rotate_right(18) ^ (w15[l] >> 3);
                let s1 = w2[l].rotate_right(17) ^ w2[l].rotate_right(19) ^ (w2[l] >> 10);
                w16[l].wrapping_add(s0).wrapping_add(w7[l]).wrapping_add(s1)
            });
        }
        let (wi, [a, b, c, d, e, f, g, h]) = (w[i & 15], v);
        let t1: Lanes = from_fn(|l| {
            h[l].wrapping_add(e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25))
                .wrapping_add((e[l] & f[l]) ^ (!e[l] & g[l]))
                .wrapping_add(K[i])
                .wrapping_add(wi[l])
        });
        let t2: Lanes = from_fn(|l| {
            (a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22))
                .wrapping_add((a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]))
        });
        let new_a = from_fn(|l| t1[l].wrapping_add(t2[l]));
        let new_e = from_fn(|l| d[l].wrapping_add(t1[l]));
        v = [new_a, a, b, c, new_e, e, f, g];
    }
    for (s, x) in state.iter_mut().zip(v) {
        *s = from_fn(|l| s[l].wrapping_add(x[l]));
    }
}

/// The last block of `LANES` messages that have absorbed `prior_bytes`
/// (whole blocks) and end in the words `tail[..][l]`, at most 13 so that
/// they pad into one block.
pub(crate) fn pad_lanes(prior_bytes: u32, tail: &[Lanes]) -> [Lanes; 16] {
    let mut w = [[0u32; LANES]; 16];
    w[..tail.len()].copy_from_slice(tail);
    w[tail.len()] = [0x8000_0000; LANES];
    w[15] = [(prior_bytes + 4 * tail.len() as u32) * 8; LANES];
    w
}

/// `LANES` hash chains in lockstep, on the backend this build selected (see
/// [`Sha256::lanes_backend`]). Lane `l` holds the padded last block
/// `block[..][l]` of a message hashed from `state`, whose words `at..at + 8`
/// are the chain's value; a step replaces them with the block's digest, and
/// lane `l` takes `steps[l]` steps. Returns the value words after the
/// steps. With every step count 1, that is one digest per lane whatever
/// `at` is.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[expect(unsafe_code, reason = "the cfg above proves the target feature")]
#[inline]
pub(crate) fn chain_lanes(
    state: [u32; 8],
    block: [Lanes; 16],
    at: usize,
    steps: Lanes,
) -> [Lanes; 8] {
    // SAFETY: the callee's only precondition is that the CPU has the target
    // feature it enables (avx512f), and the cfg on this very item admits it
    // to the build only when the compiler targets it.
    unsafe { zmm::chain_lanes(state, block, at, steps) }
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
pub(crate) use chain_lanes_portable as chain_lanes;

/// [`chain_lanes`] in portable lane arrays: the backend of every build
/// without AVX-512F, and the reference the `zmm` backend is tested against
/// on builds with it.
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "avx512f", not(test)),
    expect(dead_code, reason = "the zmm backend replaces it outside the tests")
)]
pub(crate) fn chain_lanes_portable(
    state: [u32; 8],
    mut block: [Lanes; 16],
    at: usize,
    steps: Lanes,
) -> [Lanes; 8] {
    let start = state.map(|word| [word; LANES]);
    for i in 0..steps.into_iter().max().unwrap_or(0) {
        let mut digest = start;
        compress_lanes(&mut digest, block);
        for (row, word) in block[at..at + 8].iter_mut().zip(digest) {
            *row = std::array::from_fn(|l| if i < steps[l] { word[l] } else { row[l] });
        }
    }
    std::array::from_fn(|r| block[at + r])
}

/// Finish `LANES` hashes at once: each has absorbed `prior_bytes` (whole
/// blocks) to reach `state`, and lane `l`'s remaining message is the words
/// `tail[..][l]`, at most 13 so that it pads into one block. The digests
/// come back in word form, ready to be the next call's `tail` — which is
/// what HMAC's outer hash wants.
pub(crate) fn finish_lanes(state: [u32; 8], prior_bytes: u32, tail: &[Lanes]) -> [Lanes; 8] {
    chain_lanes(state, pad_lanes(prior_bytes, tail), 0, [1; LANES])
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of the concatenation of several byte strings, without allocating.
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Render a digest as lowercase hex (debugging, descriptor ids).
pub fn digest_hex(digest: &[u8; DIGEST_LEN]) -> String {
    hex(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nist_empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let whole = sha256(&data);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    /// SHA-256 of `data` by the definition: pad into one buffer, run the
    /// portable compression over it. Shares nothing with `update`'s
    /// buffering or with the build's active backend.
    fn reference_digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        padded.resize((data.len() + 9).div_ceil(64) * 64 - 8, 0);
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let (blocks, rest) = padded.as_chunks::<64>();
        assert!(rest.is_empty());
        let mut state = H0;
        compress_portable(&mut state, blocks);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, w) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Whatever backend this build selected computes exactly what the
    /// portable one does, from any state, over any number of blocks.
    #[test]
    fn active_backend_equals_portable() {
        use rand::{Rng, SeedableRng};
        use std::array::from_fn;
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        for case in 0..200 {
            let start: [u32; 8] = from_fn(|_| rng.gen());
            let blocks: Vec<[u8; 64]> = (0..case % 10).map(|_| from_fn(|_| rng.gen())).collect();
            let (mut active, mut portable) = (start, start);
            compress(&mut active, &blocks);
            compress_portable(&mut portable, &blocks);
            assert_eq!(
                active,
                portable,
                "{} blocks on {}",
                blocks.len(),
                Sha256::backend()
            );
            if blocks.is_empty() {
                assert_eq!(active, start);
            }
        }
    }

    /// `update` splits its input into a buffered head, a run of whole
    /// blocks handed to the backend at once, and a tail: every two-way split
    /// of a 1 100-byte message must agree with the definition.
    #[test]
    fn update_agrees_with_definition_at_every_split_of_1100_bytes() {
        let data: Vec<u8> = (0..1100u32).map(|i| (i * 7 % 251) as u8).collect();
        let whole = reference_digest(&data);
        assert_eq!(sha256(&data), whole);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]).update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    /// The relay's per-cell pattern — a 32-byte seed, then 5 + 4 + 500 bytes
    /// per cell with a peek at the running digest after each — over enough
    /// cells that the buffered remainder walks through many offsets.
    #[test]
    fn relay_three_slice_pattern_agrees_with_definition() {
        let mut running = Sha256::new();
        let mut absorbed = vec![0x5Au8; 32];
        running.update(&absorbed);
        for cell in 0..20u8 {
            let payload: [u8; 509] = std::array::from_fn(|i| cell.wrapping_mul(31) ^ i as u8);
            running
                .update(&payload[..5])
                .update(&[0; 4])
                .update(&payload[9..]);
            absorbed.extend_from_slice(&payload[..5]);
            absorbed.extend_from_slice(&[0; 4]);
            absorbed.extend_from_slice(&payload[9..]);
            assert_eq!(
                running.clone_finalize(),
                reference_digest(&absorbed),
                "cell {cell}"
            );
        }
    }

    #[test]
    fn concat_helper_matches_manual_concat() {
        let a = b"hello ";
        let b = b"world";
        let joined: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(sha256_concat(&[a, b]), sha256(&joined));
    }

    /// The active lane backend computes what the portable lane code does,
    /// and both what a scalar chain over `compress_portable` does lane by
    /// lane: random states and blocks in every lane, 0–15 steps per lane,
    /// the chain's value anywhere in the block.
    #[test]
    fn chain_lanes_equal_portable_and_scalar_in_every_lane() {
        use rand::{Rng, SeedableRng};
        use std::array::from_fn;
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for case in 0..36 {
            let state: [u32; 8] = from_fn(|_| rng.gen());
            let block: [Lanes; 16] = from_fn(|_| from_fn(|_| rng.gen()));
            let at = case % 9;
            let steps: Lanes = from_fn(|_| rng.gen_range(0..16));
            let active = chain_lanes(state, block, at, steps);
            let what = format!("case {case} on {}", Sha256::lanes_backend());
            assert_eq!(
                active,
                chain_lanes_portable(state, block, at, steps),
                "{what}"
            );
            for l in 0..LANES {
                let mut words: [u32; 16] = from_fn(|i| block[i][l]);
                for _ in 0..steps[l] {
                    let bytes: [u8; 64] = from_fn(|b| words[b / 4].to_be_bytes()[b % 4]);
                    let mut digest = state;
                    compress_portable(&mut digest, &[bytes]);
                    words[at..at + 8].copy_from_slice(&digest);
                }
                assert_eq!(
                    active.map(|row| row[l]),
                    words[at..at + 8],
                    "{what}, lane {l}"
                );
            }
        }
    }

    #[test]
    fn compress_lanes_equals_scalar_in_every_lane() {
        use rand::{Rng, SeedableRng};
        use std::array::from_fn;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..32 {
            let mut states: [[u32; 8]; LANES] = from_fn(|_| from_fn(|_| rng.gen()));
            let blocks: [[u8; 64]; LANES] = from_fn(|_| from_fn(|_| rng.gen()));
            let mut lane_state: [Lanes; 8] = from_fn(|i| from_fn(|l| states[l][i]));
            let words = from_fn(|i| {
                from_fn(|l| u32::from_be_bytes(blocks[l][4 * i..4 * i + 4].try_into().unwrap()))
            });
            compress_lanes(&mut lane_state, words);
            for (l, (state, block)) in states.iter_mut().zip(&blocks).enumerate() {
                Sha256::compress_into(state, block);
                assert_eq!(lane_state.map(|row| row[l]), *state, "lane {l}");
            }
        }
    }
}
