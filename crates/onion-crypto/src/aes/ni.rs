//! AES-128-CTR on the x86 AES instructions (`aesenc`, `aesenclast`),
//! written with value intrinsics only: no pointer, no transmute. The parent
//! module compiles this file in only when the build's target features
//! include everything enabled below.

use super::{xor_into, RoundKeys, BLOCK_LEN, NONCE_LEN};
use std::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_set_epi64x,
    _mm_unpackhi_epi64, _mm_xor_si128,
};

/// Counter blocks in flight at once. One `aesenc` has a latency of three to
/// four cycles and one or two issue a cycle, so it takes four to eight
/// independent blocks to keep the unit busy; eight of them and the eleven
/// round keys still fit the register file.
const LANES: usize = 8;

/// Sixteen bytes as they lie.
#[inline]
#[target_feature(enable = "sse2")]
fn load(block: &[u8; BLOCK_LEN]) -> __m128i {
    let v = u128::from_le_bytes(*block);
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// The inverse of [`load`].
#[inline]
#[target_feature(enable = "sse2")]
fn store(block: &mut [u8; BLOCK_LEN], v: __m128i) {
    let lo = _mm_cvtsi128_si64(v) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
    *block = (u128::from(hi) << 64 | u128::from(lo)).to_le_bytes();
}

/// The keystream blocks for `counter .. counter + LANES`: each round runs
/// across all lanes before the next begins.
#[inline]
#[target_feature(enable = "aes,sse2")]
fn keystream(rk: &[__m128i; 11], nonce: i64, counter: u64) -> [__m128i; LANES] {
    let mut s = [rk[0]; LANES];
    for (lane, s) in s.iter_mut().enumerate() {
        // The counter is big-endian in the block's last eight bytes.
        let count = counter.wrapping_add(lane as u64).swap_bytes();
        *s = _mm_xor_si128(*s, _mm_set_epi64x(count as i64, nonce));
    }
    for key in &rk[1..10] {
        for s in s.iter_mut() {
            *s = _mm_aesenc_si128(*s, *key);
        }
    }
    for s in s.iter_mut() {
        *s = _mm_aesenclast_si128(*s, rk[10]);
    }
    s
}

/// [`super::ctr_xor_portable`] on the AES instructions.
///
/// Out of line on purpose: a real call boundary is where the compiler
/// places the `vzeroupper` that keeps 128-bit code apart from a caller's
/// live 512-bit values (DESIGN.md §7, "Hardware SHA-256"), and under
/// `target-cpu=native` the body is VEX-encoded (`vaesenc`), which carries
/// no legacy-SSE transition penalty in the first place.
#[inline(never)]
#[target_feature(enable = "aes,sse2")]
pub(super) fn ctr_xor(
    keys: &RoundKeys,
    nonce: &[u8; NONCE_LEN],
    counter: u64,
    data: &mut [u8],
) -> [u8; BLOCK_LEN] {
    let mut rk = [load(&keys[0]); 11];
    for (rk, key) in rk.iter_mut().zip(keys) {
        *rk = load(key);
    }
    let nonce = i64::from_le_bytes(*nonce);
    let mut counter = counter;
    let (blocks, tail) = data.as_chunks_mut::<BLOCK_LEN>();
    let (groups, rest) = blocks.as_chunks_mut::<LANES>();
    for group in groups {
        for (block, ks) in group.iter_mut().zip(keystream(&rk, nonce, counter)) {
            store(block, _mm_xor_si128(load(block), ks));
        }
        counter = counter.wrapping_add(LANES as u64);
    }
    // What is left — up to seven whole blocks and a partial one — is at most
    // `LANES` blocks of keystream: one more pass, unused lanes discarded.
    let mut last = [0u8; BLOCK_LEN];
    if !(rest.is_empty() && tail.is_empty()) {
        let mut lanes = keystream(&rk, nonce, counter).into_iter();
        for (block, ks) in rest.iter_mut().zip(&mut lanes) {
            store(block, _mm_xor_si128(load(block), ks));
        }
        if let (false, Some(ks)) = (tail.is_empty(), lanes.next()) {
            store(&mut last, ks);
            xor_into(tail, &last);
        }
    }
    last
}
