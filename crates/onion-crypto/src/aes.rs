//! AES-128 (FIPS 197) and its counter mode (SP 800-38A §6.5), implemented
//! from the specifications: the cipher Tor applies to relay cells, one
//! layer per hop.
//!
//! [`Aes128Ctr`] is a byte-granular stream with the contract
//! [`ChaCha20`](crate::chacha20::ChaCha20) has — [`Aes128Ctr::apply`] XORs
//! the keystream into a buffer of any length and the position carries over
//! to the next call. The counter block is an 8-byte nonce followed by a
//! 64-bit big-endian block counter starting at zero, so a stream is 2⁶⁸
//! bytes long and no caller can reach its end.
//!
//! The keystream has two backends, chosen when the crate is compiled:
//! [`ctr_xor_portable`] (table-driven, every target) and, when the build's
//! target features include the x86 AES instructions, the `ni` module.
//! [`ctr_xor`] is whichever the build selected and [`Aes128Ctr::backend`]
//! names it; there is no runtime detection. Both produce the same bytes —
//! the unit tests compare them over random keys, lengths and counters.
//!
//! The portable backend indexes a table with key-dependent bytes, so it is
//! not constant-time; the hardware backend is.

/// Hardware backend: present only when the build proves its instructions.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "aes",
    target_feature = "sse2"
))]
mod ni;

/// Key length in bytes.
pub const KEY_LEN: usize = 16;
/// Nonce length in bytes: the half of the counter block that never changes.
pub const NONCE_LEN: usize = 8;
/// Block length in bytes.
pub const BLOCK_LEN: usize = 16;

/// The eleven round keys of one AES-128 key, each in block byte order.
pub type RoundKeys = [[u8; BLOCK_LEN]; 11];

/// Multiplication by `x` in GF(2⁸) modulo x⁸ + x⁴ + x³ + x + 1.
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ ((a >> 7) * 0x1b)
}

/// The S-box (FIPS 197 §5.1.1) by its definition: the multiplicative
/// inverse in GF(2⁸) followed by the affine map. `p` walks the powers of
/// the generator 3 while `q` walks the powers of its inverse, so `q` is
/// always `p`⁻¹ and one loop visits every non-zero element.
const SBOX: [u8; 256] = {
    let mut sbox = [0u8; 256];
    let (mut p, mut q) = (1u8, 1u8);
    loop {
        p ^= xtime(p);
        // Dividing by 3 is multiplying by 0xf6.
        q ^= q << 1;
        q ^= q << 2;
        q ^= q << 4;
        q ^= (q >> 7) * 0x09;
        sbox[p as usize] =
            0x63 ^ q ^ q.rotate_left(1) ^ q.rotate_left(2) ^ q.rotate_left(3) ^ q.rotate_left(4);
        if p == 1 {
            break;
        }
    }
    sbox[0] = 0x63; // zero has no inverse and maps to the affine constant
    sbox
};

/// SubBytes and MixColumns of one state byte as a column word, row 0 in the
/// most significant byte: `(2·S[a], S[a], S[a], 3·S[a])`. Row `r` of a
/// column uses this entry rotated right by `8 r` bits.
const TE0: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut a = 0;
    while a < 256 {
        let s = SBOX[a];
        table[a] = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        a += 1;
    }
    table
};

/// Byte `row` (0 = most significant) of a column word.
#[inline(always)]
fn byte(word: u32, row: u32) -> usize {
    (word >> (24 - 8 * row)) as usize & 0xff
}

/// SubWord (FIPS 197 §5.2): the S-box on each byte of a word.
#[inline(always)]
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// A block as four column words, row 0 in the most significant byte.
#[inline(always)]
fn to_words(block: &[u8; BLOCK_LEN]) -> [u32; 4] {
    let (cols, _) = block.as_chunks::<4>();
    std::array::from_fn(|c| u32::from_be_bytes(cols[c]))
}

/// The inverse of [`to_words`].
#[inline(always)]
fn to_bytes(words: [u32; 4]) -> [u8; BLOCK_LEN] {
    let mut block = [0u8; BLOCK_LEN];
    let (cols, _) = block.as_chunks_mut::<4>();
    for (col, w) in cols.iter_mut().zip(words) {
        *col = w.to_be_bytes();
    }
    block
}

/// The key schedule (FIPS 197 §5.2).
pub fn expand_key(key: &[u8; KEY_LEN]) -> RoundKeys {
    let mut w = to_words(key);
    let mut keys = [[0u8; BLOCK_LEN]; 11];
    let mut rcon = 1u8;
    for (round, out) in keys.iter_mut().enumerate() {
        if round > 0 {
            w[0] ^= sub_word(w[3].rotate_left(8)) ^ u32::from(rcon) << 24;
            w[1] ^= w[0];
            w[2] ^= w[1];
            w[3] ^= w[2];
            rcon = xtime(rcon);
        }
        *out = to_bytes(w);
    }
    keys
}

/// Round keys as column words, the form the table rounds consume.
fn key_words(keys: &RoundKeys) -> [[u32; 4]; 11] {
    keys.map(|key| to_words(&key))
}

/// The cipher (FIPS 197 §5.1) on a state held as four column words.
#[inline]
fn encrypt_words(rk: &[[u32; 4]; 11], block: [u32; 4]) -> [u32; 4] {
    use std::array::from_fn;
    let mut s: [u32; 4] = from_fn(|c| block[c] ^ rk[0][c]);
    for key in &rk[1..10] {
        // ShiftRows: row `r` of output column `c` comes from column `c + r`.
        s = from_fn(|c| {
            TE0[byte(s[c], 0)]
                ^ TE0[byte(s[(c + 1) % 4], 1)].rotate_right(8)
                ^ TE0[byte(s[(c + 2) % 4], 2)].rotate_right(16)
                ^ TE0[byte(s[(c + 3) % 4], 3)].rotate_right(24)
                ^ key[c]
        });
    }
    // The last round has no MixColumns.
    from_fn(|c| u32::from_be_bytes(from_fn(|r| SBOX[byte(s[(c + r) % 4], r as u32)])) ^ rk[10][c])
}

/// Encrypt one block, in portable code: the definition the counter-mode
/// backends are checked against.
pub fn encrypt_block(keys: &RoundKeys, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
    to_bytes(encrypt_words(&key_words(keys), to_words(block)))
}

/// XOR the keystream that starts at block `counter` into `data`, which may
/// end in a partial block, on the backend this build selected (see
/// [`Aes128Ctr::backend`]). Returns the keystream block covering that
/// partial block, for the caller to continue from; the return value means
/// nothing when `data` is whole blocks.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "aes",
    target_feature = "sse2"
))]
#[allow(unsafe_code)]
#[inline]
pub fn ctr_xor(
    keys: &RoundKeys,
    nonce: &[u8; NONCE_LEN],
    counter: u64,
    data: &mut [u8],
) -> [u8; BLOCK_LEN] {
    // SAFETY: the callee's only precondition is that the CPU has the target
    // features it enables (aes, sse2), and the cfg on this very item admits
    // it to the build only when the compiler targets both.
    unsafe { ni::ctr_xor(keys, nonce, counter, data) }
}

#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "aes",
    target_feature = "sse2"
)))]
pub use ctr_xor_portable as ctr_xor;

/// [`ctr_xor`] in portable code: the backend of every build without the x86
/// AES instructions, and the reference the hardware backend is tested
/// against on builds with them.
pub fn ctr_xor_portable(
    keys: &RoundKeys,
    nonce: &[u8; NONCE_LEN],
    counter: u64,
    data: &mut [u8],
) -> [u8; BLOCK_LEN] {
    let rk = key_words(keys);
    let keystream = |index: usize| {
        let mut block = [0u8; BLOCK_LEN];
        let (fixed, count) = block.split_at_mut(NONCE_LEN);
        fixed.copy_from_slice(nonce);
        count.copy_from_slice(&counter.wrapping_add(index as u64).to_be_bytes());
        to_bytes(encrypt_words(&rk, to_words(&block)))
    };
    let (blocks, tail) = data.as_chunks_mut::<BLOCK_LEN>();
    let whole = blocks.len();
    for (index, block) in blocks.iter_mut().enumerate() {
        xor_into(block, &keystream(index));
    }
    let mut last = [0u8; BLOCK_LEN];
    if !tail.is_empty() {
        last = keystream(whole);
        xor_into(tail, &last);
    }
    last
}

/// `data[i] ^= keystream[i]` over the shorter of the two.
#[inline(always)]
fn xor_into(data: &mut [u8], keystream: &[u8]) {
    for (byte, ks) in data.iter_mut().zip(keystream) {
        *byte ^= ks;
    }
}

/// An AES-128-CTR stream: key + nonce + stream position.
#[derive(Clone)]
pub struct Aes128Ctr {
    keys: RoundKeys,
    nonce: [u8; NONCE_LEN],
    /// Next block counter.
    counter: u64,
    /// Keystream of the block in progress.
    block: [u8; BLOCK_LEN],
    /// Offset into `block` of the next unused keystream byte
    /// (`BLOCK_LEN` = none buffered).
    offset: usize,
}

impl Aes128Ctr {
    /// A stream at position zero: the first counter block is `nonce`
    /// followed by eight zero bytes.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        Aes128Ctr {
            keys: expand_key(key),
            nonce: *nonce,
            counter: 0,
            block: [0; BLOCK_LEN],
            offset: BLOCK_LEN,
        }
    }

    /// A stream whose first counter block is `block`; the published CTR
    /// vectors and the counter-carry tests start from arbitrary blocks.
    #[cfg(test)]
    fn from_counter_block(key: &[u8; KEY_LEN], block: &[u8; BLOCK_LEN]) -> Self {
        let (nonce, counter) = block.split_at(NONCE_LEN);
        let mut stream = Self::new(key, nonce.try_into().unwrap());
        stream.counter = u64::from_be_bytes(counter.try_into().unwrap());
        stream
    }

    /// Name of the keystream backend this build selected: `"x86-aes-ni"`
    /// or `"portable"`.
    pub fn backend() -> &'static str {
        if cfg!(all(
            target_arch = "x86_64",
            target_feature = "aes",
            target_feature = "sse2"
        )) {
            "x86-aes-ni"
        } else {
            "portable"
        }
    }

    /// XOR the keystream into `data` in place, advancing the stream
    /// position. Encryption and decryption are the same operation.
    #[inline]
    pub fn apply(&mut self, data: &mut [u8]) {
        self.apply_on(ctr_xor, data);
    }

    /// [`Self::apply`] on the portable backend whatever the build selected;
    /// the two may be interleaved on one stream.
    pub fn apply_portable(&mut self, data: &mut [u8]) {
        self.apply_on(ctr_xor_portable, data);
    }

    #[inline(always)]
    fn apply_on(
        &mut self,
        backend: impl Fn(&RoundKeys, &[u8; NONCE_LEN], u64, &mut [u8]) -> [u8; BLOCK_LEN],
        data: &mut [u8],
    ) {
        // Drain what is left of the block a previous call stopped inside.
        let buffered = &self.block[self.offset..];
        let (head, data) = data.split_at_mut(buffered.len().min(data.len()));
        xor_into(head, buffered);
        self.offset += head.len();
        if data.is_empty() {
            return;
        }
        // Everything else starts on a block boundary and goes to the
        // backend in one call, a trailing partial block included.
        let last = backend(&self.keys, &self.nonce, self.counter, data);
        self.counter = self
            .counter
            .wrapping_add(data.len().div_ceil(BLOCK_LEN) as u64);
        if data.len() % BLOCK_LEN != 0 {
            self.block = last;
            self.offset = data.len() % BLOCK_LEN;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::array::from_fn;

    fn unhex<const N: usize>(s: &str) -> [u8; N] {
        from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    #[test]
    fn sbox_matches_fips197_figure_7() {
        assert_eq!(SBOX[..4], [0x63, 0x7c, 0x77, 0x7b]);
        assert_eq!(SBOX[0x53], 0xed); // the worked example of §5.1.1
        assert_eq!(SBOX[0xff], 0x16);
        let mut seen = [false; 256];
        for s in SBOX {
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "the S-box is a permutation");
    }

    /// FIPS 197 Appendix A.1: the last round key of the example key.
    #[test]
    fn fips197_key_expansion() {
        let keys = expand_key(&unhex("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(keys[1], unhex("a0fafe1788542cb123a339392a6c7605"));
        assert_eq!(keys[10], unhex("d014f9a8c9ee2589e13f0cc8b6630ca6"));
    }

    /// FIPS 197 Appendix C.1, through the block function and — with the
    /// plaintext as the counter block — through both CTR backends.
    #[test]
    fn fips197_c1_example_vector() {
        let key = unhex("000102030405060708090a0b0c0d0e0f");
        let plain = unhex("00112233445566778899aabbccddeeff");
        let cipher: [u8; 16] = unhex("69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_eq!(encrypt_block(&expand_key(&key), &plain), cipher);
        let mut active = [0u8; 16];
        Aes128Ctr::from_counter_block(&key, &plain).apply(&mut active);
        assert_eq!(active, cipher, "{}", Aes128Ctr::backend());
        let mut portable = [0u8; 16];
        Aes128Ctr::from_counter_block(&key, &plain).apply_portable(&mut portable);
        assert_eq!(portable, cipher);
    }

    /// SP 800-38A F.5.1 (CTR-AES128.Encrypt), four blocks.
    #[test]
    fn sp800_38a_f51_ctr_vector() {
        let key = unhex("2b7e151628aed2a6abf7158809cf4f3c");
        let counter = unhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
        let plain: [u8; 64] = unhex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        let cipher: [u8; 64] = unhex(
            "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee",
        );
        let mut active = plain;
        Aes128Ctr::from_counter_block(&key, &counter).apply(&mut active);
        assert_eq!(active, cipher, "{}", Aes128Ctr::backend());
        let mut portable = plain;
        Aes128Ctr::from_counter_block(&key, &counter).apply_portable(&mut portable);
        assert_eq!(portable, cipher);
        // Decryption is the same operation.
        Aes128Ctr::from_counter_block(&key, &counter).apply(&mut active);
        assert_eq!(active, plain);
    }

    /// Counter mode by the definition: block `i` of the keystream is the
    /// block function on `nonce ‖ be64(counter + i)`.
    fn reference_ctr(key: &[u8; 16], first: &[u8; 16], data: &mut [u8]) {
        let keys = expand_key(key);
        let start = u64::from_be_bytes(first[8..].try_into().unwrap());
        for (i, chunk) in data.chunks_mut(16).enumerate() {
            let mut block = *first;
            block[8..].copy_from_slice(&start.wrapping_add(i as u64).to_be_bytes());
            xor_into(chunk, &encrypt_block(&keys, &block));
        }
    }

    /// Whatever backend this build selected computes exactly what the
    /// portable one and the definition do: random keys, 0–40 blocks plus a
    /// ragged tail, counters that carry out of the low 32 bits, out of the
    /// low byte, and around the end of the 64-bit counter.
    #[test]
    fn active_backend_equals_portable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let starts = [0, 0xff, u64::from(u32::MAX) - 3, u64::MAX - 5];
        for case in 0..400usize {
            let key: [u8; 16] = from_fn(|_| rng.gen());
            let mut first: [u8; 16] = from_fn(|_| rng.gen());
            let start = starts[case % 4].wrapping_sub(rng.gen_range(0..3));
            first[8..].copy_from_slice(&start.to_be_bytes());
            let len = (case / 4 % 41) * 16 + [0, 0, 1, 15][case % 4];
            let plain: Vec<u8> = (0..len).map(|_| rng.gen()).collect();

            let mut expect = plain.clone();
            reference_ctr(&key, &first, &mut expect);
            let mut active = plain.clone();
            let mut stream = Aes128Ctr::from_counter_block(&key, &first);
            stream.apply(&mut active);
            let what = format!("{len} bytes from {start:#x} on {}", Aes128Ctr::backend());
            assert_eq!(active, expect, "{what}");
            let mut portable = plain;
            let mut reference = Aes128Ctr::from_counter_block(&key, &first);
            reference.apply_portable(&mut portable);
            assert_eq!(portable, expect, "portable: {what}");
            // Both left the stream at the same place.
            let (mut a, mut b) = ([0u8; 40], [0u8; 40]);
            stream.apply(&mut a);
            reference.apply_portable(&mut b);
            assert_eq!(a, b, "continuation: {what}");
        }
    }

    /// `apply` in two calls equals one call, at every split of a 1 100-byte
    /// message (buffered head, whole blocks, ragged tail in every
    /// combination).
    #[test]
    fn apply_is_position_continuous_at_every_split_of_1100_bytes() {
        let (key, nonce) = ([0x16u8; 16], [0x61u8; 8]);
        let plain: Vec<u8> = (0..1100u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut whole = plain.clone();
        reference_ctr(
            &key,
            &from_fn(|i| if i < 8 { nonce[i] } else { 0 }),
            &mut whole,
        );
        for split in 0..=plain.len() {
            let mut pieced = plain.clone();
            let mut stream = Aes128Ctr::new(&key, &nonce);
            let (a, b) = pieced.split_at_mut(split);
            stream.apply(a);
            stream.apply(b);
            assert_eq!(pieced, whole, "split at {split}");
        }
    }

    /// The relay's cadence: 509-byte cells back to back, so each cell starts
    /// three bytes further into a block than the last; plus a few other
    /// strides, and the portable backend interleaved on the same stream.
    #[test]
    fn apply_in_cell_sized_steps_equals_one_shot() {
        let (key, nonce) = ([7u8; 16], [9u8; 8]);
        let plain: Vec<u8> = (0..20 * 509u32).map(|i| (i % 253) as u8).collect();
        let mut whole = plain.clone();
        Aes128Ctr::new(&key, &nonce).apply(&mut whole);
        assert_ne!(whole, plain);
        for step in [1usize, 13, 16, 17, 509, 1024] {
            let mut pieced = plain.clone();
            let mut stream = Aes128Ctr::new(&key, &nonce);
            for (i, chunk) in pieced.chunks_mut(step).enumerate() {
                if i % 3 == 2 {
                    stream.apply_portable(chunk);
                } else {
                    stream.apply(chunk);
                }
            }
            assert_eq!(pieced, whole, "step {step}");
        }
    }

    #[test]
    fn different_nonces_and_keys_differ() {
        let stream = |key: u8, nonce: u8| {
            let mut out = [0u8; 64];
            Aes128Ctr::new(&[key; 16], &[nonce; 8]).apply(&mut out);
            out
        };
        assert_ne!(stream(5, 0), stream(5, 1));
        assert_ne!(stream(5, 0), stream(6, 0));
    }
}
