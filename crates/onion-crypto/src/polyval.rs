//! POLYVAL (RFC 8452 §3), implemented from the specification: the
//! universal hash of AES-GCM-SIV, and the keyed running digest of relay
//! cells.
//!
//! Elements of GF(2¹²⁸) are sixteen bytes, little-endian: bit `i` of the
//! 128-bit integer `u128::from_le_bytes(bytes)` is the coefficient of `xⁱ`.
//! The field polynomial is `x¹²⁸ + x¹²⁷ + x¹²⁶ + x¹²¹ + 1`, and the
//! product POLYVAL uses is `dot(a, b) = a·b·x⁻¹²⁸`. Under a key `H`,
//! absorbing blocks `X₁ … Xₙ` into an accumulator `S` computes
//! `Sⱼ = dot(Sⱼ₋₁ ⊕ Xⱼ, H)`; from `S₀ = 0` the result is
//! `POLYVAL(H, X₁, …, Xₙ)`. [`Polyval`] holds a key and its powers, the
//! accumulator belongs to the caller, so a running hash that may or may not
//! commit a trial is sixteen bytes to copy.
//!
//! The multiply has two backends, chosen when the crate is compiled: the
//! portable one (constant-time integer multiplies, every target) and, when
//! the build's target features include the x86 carry-less multiply, the
//! `clmul` module. That one has two widths: with VPCLMULQDQ and AVX-512F it
//! absorbs 32 blocks — one zero-padded 509-byte relay cell — against the
//! powers `H³² … H¹` in four-block 512-bit units with one reduction;
//! otherwise eight blocks against `H⁸ … H¹` on the 128-bit `pclmulqdq`.
//! [`Polyval::update`] runs whichever the build selected and
//! [`Polyval::backend`] names it; there is no runtime detection. All
//! produce the same bytes — the unit tests compare them, and a
//! shift-and-add [`dot_reference`], over random keys and lengths.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Hardware backend: present only when the build proves its instructions.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "pclmulqdq",
    target_feature = "sse2"
))]
mod clmul;

/// Key and block length in bytes.
pub const BLOCK_LEN: usize = 16;

/// Powers of the key a [`Polyval`] keeps: how many blocks the hardware
/// backend absorbs per reduction.
const POWERS: usize = if WIDE { 32 } else { 8 };

/// Whether the build selects the four-block `vpclmulqdq` unit.
const WIDE: bool = cfg!(all(
    target_arch = "x86_64",
    target_feature = "pclmulqdq",
    target_feature = "sse2",
    target_feature = "vpclmulqdq",
    target_feature = "avx512f"
));

/// The field polynomial without its `x¹²⁸` term.
const POLY: u128 = 1 << 127 | 1 << 126 | 1 << 121 | 1;

/// POLYVAL under one key `H`: the key and its `dot`-powers, highest first.
#[derive(Clone)]
pub struct Polyval {
    /// `powers[POWERS - 1 - i]` is the element whose `dot` with `a`
    /// multiplies `a` by `(H·x⁻¹²⁸)ⁱ⁺¹`: `H` itself in the last slot, and
    /// `dot(powers[j + 1], H)` in each slot `j` before it. Highest first,
    /// so the powers the last `n` blocks of an input are multiplied by are
    /// the slice `powers[POWERS - n..]`, in order.
    powers: [u128; POWERS],
}

impl Polyval {
    /// The hash keyed with `h`. Each power is one zero block absorbed into
    /// the power below it, on the build's backend: `dot(Hⁱ ⊕ 0, H)`.
    pub fn new(h: &[u8; BLOCK_LEN]) -> Self {
        let mut powers = [u128::from_le_bytes(*h); POWERS];
        for j in (0..POWERS - 1).rev() {
            powers[j] = update_bytes(&powers, powers[j + 1], &[0; BLOCK_LEN]);
        }
        Polyval { powers }
    }

    /// Name of the backend this build selected: `"x86-vpclmulqdq-avx512"`
    /// (four blocks a 512-bit `vpclmulqdq`), `"x86-pclmulqdq"` (one block a
    /// 128-bit `pclmulqdq`) or `"portable"`.
    pub fn backend() -> &'static str {
        if WIDE {
            "x86-vpclmulqdq-avx512"
        } else if cfg!(all(
            target_arch = "x86_64",
            target_feature = "pclmulqdq",
            target_feature = "sse2"
        )) {
            "x86-pclmulqdq"
        } else {
            "portable"
        }
    }

    /// Absorb `data`, zero-padded to whole blocks, into the accumulator
    /// `acc`: the padding RFC 8452 gives the AAD and the plaintext.
    #[inline]
    pub fn update(&self, acc: &mut [u8; BLOCK_LEN], data: &[u8]) {
        *acc = update_bytes(&self.powers, u128::from_le_bytes(*acc), data).to_le_bytes();
    }

    /// [`Self::update`] on the portable backend whatever the build selected.
    pub fn update_portable(&self, acc: &mut [u8; BLOCK_LEN], data: &[u8]) {
        *acc = update_portable(&self.powers, u128::from_le_bytes(*acc), data).to_le_bytes();
    }
}

/// The accumulator after absorbing `data`, zero-padded, on the backend
/// this build selected.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "pclmulqdq",
    target_feature = "sse2"
))]
#[expect(unsafe_code, reason = "the cfg above proves the target features")]
#[inline]
fn update_bytes(powers: &[u128; POWERS], acc: u128, data: &[u8]) -> u128 {
    // SAFETY: the callee's only precondition is that the CPU has the target
    // features it enables: pclmulqdq and sse2, which the cfg on this very
    // item admits to the build only when the compiler targets both, and
    // vpclmulqdq and avx512f only under a `cfg_attr` on the callee that
    // requires the compiler to target both.
    unsafe { clmul::update(powers, acc, data) }
}

#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "pclmulqdq",
    target_feature = "sse2"
)))]
use update_portable as update_bytes;

/// [`update_bytes`] in portable code: one `dot` with `H` a block.
fn update_portable(powers: &[u128; POWERS], acc: u128, data: &[u8]) -> u128 {
    let h = powers[POWERS - 1];
    let (blocks, tail) = data.as_chunks::<BLOCK_LEN>();
    blocks
        .iter()
        .copied()
        .chain(padded(tail))
        .fold(acc, |acc, block| dot(acc ^ u128::from_le_bytes(block), h))
}

/// A partial last block, zero-padded; `None` when there is none.
#[inline(always)]
fn padded(tail: &[u8]) -> Option<[u8; BLOCK_LEN]> {
    (!tail.is_empty()).then(|| {
        let mut block = [0u8; BLOCK_LEN];
        block[..tail.len()].copy_from_slice(tail);
        block
    })
}

/// The low 64 bits of the carry-less product `x·y`, by integer multiplies
/// on masked operands: each keeps every fourth bit, so sixteen products
/// cover all pairs of bits. One product has fewer than sixteen terms in any
/// position below bit 60, so its carries stop short of the next kept bit
/// below bit 64.
#[inline(always)]
fn clmul_lo(x: u64, y: u64) -> u64 {
    const M: [u64; 4] = [
        0x1111_1111_1111_1111,
        0x2222_2222_2222_2222,
        0x4444_4444_4444_4444,
        0x8888_8888_8888_8888,
    ];
    let xs = M.map(|m| x & m);
    let ys = M.map(|m| y & m);
    let mut z = 0;
    for (k, m) in M.iter().enumerate() {
        // Bits at positions ≡ k (mod 4) come from pairs (i, j) with
        // i + j ≡ k.
        let mut sum = 0u64;
        for (i, x) in xs.iter().enumerate() {
            sum ^= x.wrapping_mul(ys[(k + 4 - i) % 4]);
        }
        z |= sum & m;
    }
    z
}

/// The full 128-bit carry-less product `x·y`. The high half is the low half
/// of the product of the bit-reversed operands, reversed back: the product
/// has degree at most 126, so reversal maps its bits 64..127 onto bits
/// 62..0 of the reversed product, shifted by one.
#[inline(always)]
fn clmul64(x: u64, y: u64) -> u128 {
    let hi = clmul_lo(x.reverse_bits(), y.reverse_bits()).reverse_bits() >> 1;
    u128::from(hi) << 64 | u128::from(clmul_lo(x, y))
}

/// `dot(a, b) = a·b·x⁻¹²⁸` in portable code: a Karatsuba product of three
/// 64-bit carry-less multiplies, then a Montgomery reduction that cancels
/// the low 64 bits twice by adding multiples of the field polynomial.
fn dot(a: u128, b: u128) -> u128 {
    let (a0, a1) = (a as u64, (a >> 64) as u64);
    let (b0, b1) = (b as u64, (b >> 64) as u64);
    let lo = clmul64(a0, b0);
    let hi = clmul64(a1, b1);
    let mid = clmul64(a0 ^ a1, b0 ^ b1) ^ lo ^ hi;
    reduce(lo ^ mid << 64, hi ^ mid >> 64)
}

/// `(hi·x¹²⁸ + lo)·x⁻¹²⁸` modulo the field polynomial `P`, which is
/// `x¹²⁸ + c·x⁶⁴ + 1` with `c = x⁶³ + x⁶² + x⁵⁷`. Adding `w·P` for `w` the
/// lowest 64-bit word clears that word; two such steps clear `lo`, and
/// what is left, `hi`, is the product divided by `x¹²⁸`.
#[inline(always)]
fn reduce(lo: u128, hi: u128) -> u128 {
    // `w·c`: three shifted copies of `w`.
    let times_c = |w: u64| {
        let w = u128::from(w);
        w << 63 ^ w << 62 ^ w << 57
    };
    let w = lo as u64;
    let t = times_c(w);
    let (lo, hi) = (lo ^ t << 64, hi ^ u128::from(w) ^ t >> 64);
    let w = (lo >> 64) as u64;
    hi ^ u128::from(w) << 64 ^ times_c(w)
}

/// `dot(a, b) = a·b·x⁻¹²⁸` by its definition: shift-and-add modulo the
/// field polynomial, then 128 divisions by `x`. Bit by bit and slow; the
/// reference the backends, and the relay-cell tags in `tor-net`'s pinned
/// stream, are checked against.
pub fn dot_reference(a: &[u8; BLOCK_LEN], b: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
    let (mut a, b) = (u128::from_le_bytes(*a), u128::from_le_bytes(*b));
    let mut product = 0u128;
    for i in 0..128 {
        if b >> i & 1 == 1 {
            product ^= a;
        }
        // a ← a·x: the x¹²⁸ term that shifts out comes back as POLY.
        a = (a << 1) ^ ((a >> 127) * POLY);
    }
    for _ in 0..128 {
        // product ← product·x⁻¹: add the polynomial if the constant term is
        // set, so the division is exact; its x¹²⁸ term lands in bit 127.
        product = if product & 1 == 1 {
            (product ^ POLY) >> 1 | 1 << 127
        } else {
            product >> 1
        };
    }
    product.to_le_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::{encrypt_block, expand_key};
    use rand::{Rng, SeedableRng};
    use std::array::from_fn;

    fn unhex<const N: usize>(s: &str) -> [u8; N] {
        from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    /// POLYVAL by its definition: [`dot_reference`] a block at a time.
    fn polyval_reference(h: &[u8; 16], blocks: &[[u8; 16]]) -> [u8; 16] {
        blocks.iter().fold([0; 16], |acc, block| {
            dot_reference(&from_fn(|i| acc[i] ^ block[i]), h)
        })
    }

    /// RFC 8452 Appendix A: POLYVAL of two blocks.
    #[test]
    fn rfc8452_appendix_a_example() {
        let h = unhex("25629347589242761d31f826ba4b757b");
        let blocks = [
            unhex("4f4f95668c83dfb6401762bb2d01a262"),
            unhex("d1a24ddd2721d006bbe45f20d3c9f362"),
        ];
        let expect: [u8; 16] = unhex("f7a3b47b846119fae5b7866cf5e5b77e");
        assert_eq!(polyval_reference(&h, &blocks), expect);
        let hash = Polyval::new(&h);
        let (mut active, mut portable) = ([0; 16], [0; 16]);
        hash.update(&mut active, blocks.as_flattened());
        hash.update_portable(&mut portable, blocks.as_flattened());
        assert_eq!(active, expect, "{}", Polyval::backend());
        assert_eq!(portable, expect);
    }

    /// The portable multiply equals the shift-and-add definition on random
    /// elements and on the edges: zero, one, `x¹²⁷`, all bits set and the
    /// polynomial's low terms.
    #[test]
    fn portable_dot_equals_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8452);
        let edges = [0u128, 1, 1 << 127, u128::MAX, POLY];
        for case in 0..400 {
            let (a, b) = if case < 25 {
                (edges[case % 5], edges[case / 5])
            } else {
                let mut element =
                    || u128::from(rng.gen::<u64>()) << 64 | u128::from(rng.gen::<u64>());
                (element(), element())
            };
            let expect = dot_reference(&a.to_le_bytes(), &b.to_le_bytes());
            assert_eq!(dot(a, b).to_le_bytes(), expect, "{a:#x} · {b:#x}");
        }
    }

    /// Whatever backend this build selected computes what the portable one
    /// and the definition do: random keys and accumulators, 0–100 whole
    /// blocks (three full 32-block groups, twelve eight-block ones, and
    /// every remainder), with and without a ragged last block — 31 whole
    /// blocks and 13 bytes is a 509-byte relay cell — each input also split
    /// in two calls at a random block boundary.
    #[test]
    fn active_backend_equals_portable_and_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(359);
        for whole in 0..=100usize {
            for ragged in [0, 0, 1, 13, 15] {
                let h: [u8; 16] = from_fn(|_| rng.gen());
                let start: [u8; 16] = from_fn(|_| rng.gen());
                let data: Vec<u8> = (0..whole * 16 + ragged).map(|_| rng.gen()).collect();
                // The definition, continued from `start` over the padded
                // blocks.
                let mut expect = start;
                for chunk in data.chunks(16) {
                    let block: [u8; 16] = from_fn(|i| chunk.get(i).copied().unwrap_or(0));
                    expect = dot_reference(&from_fn(|i| expect[i] ^ block[i]), &h);
                }
                let hash = Polyval::new(&h);
                let what = format!("{} bytes on {}", data.len(), Polyval::backend());
                let mut active = start;
                hash.update(&mut active, &data);
                assert_eq!(active, expect, "{what}");
                let mut portable = start;
                hash.update_portable(&mut portable, &data);
                assert_eq!(portable, expect, "portable: {what}");
                let split = 16 * rng.gen_range(0..=whole);
                let mut pieced = start;
                hash.update(&mut pieced, &data[..split]);
                hash.update(&mut pieced, &data[split..]);
                assert_eq!(pieced, expect, "split at {split}: {what}");
            }
        }
    }

    /// `new` builds each power on the build's backend; every one equals
    /// the shift-and-add definition's, on random keys and the edges.
    #[test]
    fn powers_equal_reference_powers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let edges = [0u128, 1, 1 << 127, u128::MAX, POLY];
        for case in 0..40 {
            let h: [u8; 16] = match edges.get(case) {
                Some(edge) => edge.to_le_bytes(),
                None => from_fn(|_| rng.gen()),
            };
            let hash = Polyval::new(&h);
            let mut power = h;
            for (i, got) in hash.powers.iter().rev().enumerate() {
                assert_eq!(got.to_le_bytes(), power, "H^{} of {h:02x?}", i + 1);
                power = dot_reference(&power, &h);
            }
        }
    }

    /// `backend` names the kernel the target features select: four blocks a
    /// 512-bit `vpclmulqdq` with VPCLMULQDQ and AVX-512F, one block a
    /// 128-bit `pclmulqdq` with only PCLMULQDQ. The line printed is what
    /// CI's native-backends and 128-bit steps report and grep for.
    #[test]
    fn backend_names_the_kernel_the_target_features_select() {
        let clmul = cfg!(all(
            target_arch = "x86_64",
            target_feature = "pclmulqdq",
            target_feature = "sse2"
        ));
        let wide = cfg!(all(
            target_feature = "vpclmulqdq",
            target_feature = "avx512f"
        ));
        let expect = match (clmul, wide) {
            (false, _) => "portable",
            (true, false) => "x86-pclmulqdq",
            (true, true) => "x86-vpclmulqdq-avx512",
        };
        println!("polyval backend: {}", Polyval::backend());
        assert_eq!(Polyval::backend(), expect);
    }

    /// The AES-128-GCM-SIV tag (RFC 8452 §4) of `aad` and `plain`, from
    /// [`Polyval`] and the portable AES block.
    fn gcm_siv_tag(key: &[u8; 16], nonce: &[u8; 12], aad: &[u8], plain: &[u8]) -> [u8; 16] {
        let keys = expand_key(key);
        // Key derivation: the first half of AES(le32(i) ‖ nonce), i = 0..4;
        // blocks 0 and 1 make the POLYVAL key, 2 and 3 the AES key.
        let half = |i: u32| {
            let mut block = [0u8; 16];
            block[..4].copy_from_slice(&i.to_le_bytes());
            block[4..].copy_from_slice(nonce);
            encrypt_block(&keys, &block)
        };
        let auth: [u8; 16] = from_fn(|i| half(i as u32 / 8)[i % 8]);
        let enc: [u8; 16] = from_fn(|i| half(2 + i as u32 / 8)[i % 8]);
        // POLYVAL over the zero-padded AAD, the zero-padded plaintext and
        // the two bit lengths.
        let lengths = ((plain.len() as u128 * 8) << 64) | (aad.len() as u128 * 8);
        let hash = Polyval::new(&auth);
        let mut s = [0u8; 16];
        hash.update(&mut s, aad);
        hash.update(&mut s, plain);
        hash.update(&mut s, &lengths.to_le_bytes());
        for (s, n) in s.iter_mut().zip(nonce) {
            *s ^= n;
        }
        s[15] &= 0x7f;
        encrypt_block(&expand_key(&enc), &s)
    }

    /// Tags from AES-128-GCM-SIV in the Python `cryptography` package
    /// (`AESGCMSIV(key).encrypt(nonce, plain, aad)[-16:]`), made once and
    /// checked in. Key and nonce are the first 16 and 12 bytes of
    /// SHA-256("key{i}") and SHA-256("nonce{i}"); the AAD is
    /// `pattern(2 i + 1, aad_len)` and the plaintext
    /// `pattern(2 i + 2, plain_len)`, with byte `j` of `pattern(s, n)`
    /// equal to `(31 s + 7 j + j / 8) mod 256`.
    #[test]
    fn aes_gcm_siv_tags_match_the_oracle() {
        let pattern = |seed: usize, len: usize| -> Vec<u8> {
            (0..len)
                .map(|j| ((seed * 31 + j * 7 + j / 8) % 256) as u8)
                .collect()
        };
        let vectors = [
            (
                "a819408ce5010ca2e09ef59ac3d89f5f",
                "648f8e193a06c30767e71fb3",
                0,
                0,
                "62b3b5d3becfed962d89ec59a91e5f83",
            ),
            (
                "8174099687a26621f4e2cdd7cc03b3da",
                "0a78009591722cc84825ca95",
                0,
                1,
                "7fa21916255aa73228849fdb1f771daa",
            ),
            (
                "b10253764c8b233fb37542e23401c7b4",
                "626e1e3b6935c66a2c8ab9c8",
                1,
                0,
                "40834b7c3f363d90075f384f1cc91473",
            ),
            (
                "f576104eebeab09651d83acffc77c8b8",
                "0f5f924500a4d703b9a48030",
                15,
                16,
                "9b91ce428c414605134b0629df371476",
            ),
            (
                "a4b3504c2769fce9547f6dda310dd8b0",
                "6970041381069bfeb0598421",
                16,
                15,
                "95d4261312b9a0fb8123ae8e39fe7911",
            ),
            (
                "07e7394e0702340d9fd1d777fbbad280",
                "0a99cdf5244ff16a73f4da62",
                16,
                16,
                "f57c0298da3046ebcadd61d173d43ed1",
            ),
            (
                "8dfad052fee5c62957d3ebe1752219a0",
                "5df4e9601f82ce317dbbd8ae",
                17,
                0,
                "41c83bdd258dcb9cc0a4055c82be9b03",
            ),
            (
                "1e3f92d0f678eb83b0bf93855d90699d",
                "e4f85dc8b6539ca709dd518a",
                0,
                17,
                "6c1ac054e42a43bf76def7b75897f81d",
            ),
            (
                "5bda7a9c0fb9e5102411342f9bedf63f",
                "5c5c3db578dd5aba852e7724",
                20,
                100,
                "67c6c3fd8ccb96939128393824f48fb6",
            ),
            (
                "dd9d6e0266d0a3f9adf3748ba973419b",
                "f52e32a034671f16b2400de6",
                32,
                128,
                "144975ab0a53dad748667a7f58b141d9",
            ),
            (
                "148bc7fa770e6e057657d90f45b92553",
                "581f7d45f3a8f4770f1fd63f",
                7,
                129,
                "9bc87875d34d0bdd06653798eadef855",
            ),
            (
                "e964e91cb42e10c4f7e0ecd1a344d4fa",
                "62951c0825b486dbd7cf9248",
                0,
                255,
                "fd928b5cc0fcbd437eb4f0299760b595",
            ),
            (
                "040623b913f92eb696aa476bd8f9bf94",
                "9829940d4af3a1d23702bf85",
                64,
                256,
                "7e25c9ef671b6adcb5694e8171293342",
            ),
            (
                "485246e6c73d3289378a31c7e47401cd",
                "150751ecd3e205ea618adde7",
                13,
                509,
                "1ec12358e3f5e13999e5a53fed2687b1",
            ),
            (
                "1e0c92fd487aae4027971e42724db2c2",
                "0700dda201043cece7a688ed",
                0,
                512,
                "2741c03f0bb7dea29be06902482c5145",
            ),
            (
                "6b4e7621b69f1b9e9a0579f021f78c34",
                "5e47fbf849d7ff1c10d93993",
                100,
                600,
                "968b59d79372c8d8df62cdfd588db892",
            ),
            (
                "a94963d1046f43c9b6749c90fbf32ed9",
                "6e601a9b134d7d304c3bd32a",
                128,
                128,
                "61585b04b22f017f969c7ae9bcc3d507",
            ),
            (
                "aa9289d9eb73a66807b3df01bdc5dd9c",
                "a14f2c44eca3fc13f6801f82",
                3,
                1000,
                "b0bb2364b883ee6df76b2e91ecea3613",
            ),
            (
                "4b28763730692691823ebf2fd1112886",
                "fdcc73356c07c72b0639a540",
                250,
                333,
                "27fb0b8316b05268d051d7bfb7740ef0",
            ),
            (
                "be003d98279fed79b6332ec717f4c4e9",
                "b6da308969194e35f7ea3e5b",
                31,
                4096,
                "6eac7be39931307c984f8b92c7a64d2e",
            ),
        ];
        for (i, (key, nonce, aad_len, plain_len, tag)) in vectors.into_iter().enumerate() {
            let aad = pattern(2 * i + 1, aad_len);
            let plain = pattern(2 * i + 2, plain_len);
            let got = gcm_siv_tag(&unhex(key), &unhex(nonce), &aad, &plain);
            assert_eq!(
                got,
                unhex::<16>(tag),
                "vector {i} on {}",
                Polyval::backend()
            );
        }
    }
}
