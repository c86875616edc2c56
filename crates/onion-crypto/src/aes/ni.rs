//! AES-128-CTR on the x86 AES instructions (`aesenc`, `aesenclast`),
//! written with value intrinsics only: no pointer, no transmute. The parent
//! module compiles this file in only when the build's target features
//! include `aes` and `sse2`.
//!
//! One counter-mode kernel runs over a *unit* of blocks, and the build's
//! target features pick the unit (module `unit`): with VAES, AVX-512F and
//! AVX-512BW it is a 512-bit register holding four blocks, which one
//! `vaesenc` advances by a round; otherwise it is a 128-bit register
//! holding one block. The loop, the lanes in flight, the tail and the
//! returned partial block are shared.

use super::{xor_into, RoundKeys, BLOCK_LEN, NONCE_LEN};
use std::arch::x86_64::{
    __m128i, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_unpackhi_epi64, _mm_xor_si128,
};
use unit::{aesenc, aesenclast, broadcast, counters, join, split, xor, Unit, BLOCKS};

/// What [`super::Aes128Ctr::backend`] reports for this build.
pub(super) const NAME: &str = unit::NAME;

/// Units in flight at once. One `aesenc` has a latency of three to four
/// cycles and one or two issue a cycle, so it takes four to eight
/// independent units to keep the AES execution unit busy; eight of them and
/// the eleven round keys still fit the register file.
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
fn store(v: __m128i) -> [u8; BLOCK_LEN] {
    let lo = _mm_cvtsi128_si64(v) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
    (u128::from(hi) << 64 | u128::from(lo)).to_le_bytes()
}

/// Four blocks to a 512-bit register.
#[cfg(all(
    target_feature = "vaes",
    target_feature = "avx512f",
    target_feature = "avx512bw"
))]
mod unit {
    use super::{load, BLOCK_LEN};
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_add_epi64, _mm512_aesenc_epi128, _mm512_aesenclast_epi128,
        _mm512_broadcast_i32x4, _mm512_castsi128_si512, _mm512_castsi512_si128,
        _mm512_extracti32x4_epi32, _mm512_inserti32x4, _mm512_set1_epi64, _mm512_setr_epi64,
        _mm512_shuffle_epi8, _mm512_xor_si512, _mm_set_epi64x,
    };

    pub(super) type Unit = __m512i;
    pub(super) const BLOCKS: usize = 4;
    pub(super) const NAME: &str = "x86-vaes-avx512";

    /// One block in all four slots.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn broadcast(block: &[u8; BLOCK_LEN]) -> Unit {
        _mm512_broadcast_i32x4(load(block))
    }

    /// Counter blocks `counter .. counter + 4` XORed with `first`, which is
    /// `nonce ‖ 0` XOR round key 0 in every slot. Slot `i` adds `i` to the
    /// counter in its low half; one byte shuffle then moves that half,
    /// big-endian, to the high half and zeroes the low one. (Four byte-
    /// swapped counters set one by one cost about a hundred instructions a
    /// pass.)
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) fn counters(first: Unit, counter: u64) -> Unit {
        let count = _mm512_add_epi64(
            _mm512_set1_epi64(counter as i64),
            _mm512_setr_epi64(0, 0, 1, 0, 2, 0, 3, 0),
        );
        // Shuffle indices per slot: bytes 0..8 zero (high bit set), bytes
        // 8..16 from bytes 7..0.
        let swap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x8080_8080_8080_8080_u64 as i64);
        let swapped = _mm512_shuffle_epi8(count, _mm512_broadcast_i32x4(swap));
        _mm512_xor_si512(swapped, first)
    }

    #[inline]
    #[target_feature(enable = "vaes,avx512f")]
    pub(super) fn aesenc(s: Unit, key: Unit) -> Unit {
        _mm512_aesenc_epi128(s, key)
    }

    #[inline]
    #[target_feature(enable = "vaes,avx512f")]
    pub(super) fn aesenclast(s: Unit, key: Unit) -> Unit {
        _mm512_aesenclast_epi128(s, key)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn xor(a: Unit, b: Unit) -> Unit {
        _mm512_xor_si512(a, b)
    }

    /// Four consecutive blocks, the first in the low slot: the data side of
    /// a unit is XORed as one register, not slot by slot.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn join(blocks: &[[u8; BLOCK_LEN]; BLOCKS]) -> Unit {
        let v = _mm512_castsi128_si512(load(&blocks[0]));
        let v = _mm512_inserti32x4::<1>(v, load(&blocks[1]));
        let v = _mm512_inserti32x4::<2>(v, load(&blocks[2]));
        _mm512_inserti32x4::<3>(v, load(&blocks[3]))
    }

    /// The four slots, the low one first.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn split(v: Unit) -> [__m128i; BLOCKS] {
        [
            _mm512_castsi512_si128(v),
            _mm512_extracti32x4_epi32::<1>(v),
            _mm512_extracti32x4_epi32::<2>(v),
            _mm512_extracti32x4_epi32::<3>(v),
        ]
    }
}

/// One block to a 128-bit register.
#[cfg(not(all(
    target_feature = "vaes",
    target_feature = "avx512f",
    target_feature = "avx512bw"
)))]
mod unit {
    use super::{load, BLOCK_LEN};
    use std::arch::x86_64::{
        __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_set_epi64x, _mm_xor_si128,
    };

    pub(super) type Unit = __m128i;
    pub(super) const BLOCKS: usize = 1;
    pub(super) const NAME: &str = "x86-aes-ni";

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn broadcast(block: &[u8; BLOCK_LEN]) -> Unit {
        load(block)
    }

    /// Counter block `counter` XORed with `first`, which is `nonce ‖ 0`
    /// XOR round key 0: the counter is big-endian in the high half.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn counters(first: Unit, counter: u64) -> Unit {
        _mm_xor_si128(_mm_set_epi64x(counter.swap_bytes() as i64, 0), first)
    }

    #[inline]
    #[target_feature(enable = "aes,sse2")]
    pub(super) fn aesenc(s: Unit, key: Unit) -> Unit {
        _mm_aesenc_si128(s, key)
    }

    #[inline]
    #[target_feature(enable = "aes,sse2")]
    pub(super) fn aesenclast(s: Unit, key: Unit) -> Unit {
        _mm_aesenclast_si128(s, key)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn xor(a: Unit, b: Unit) -> Unit {
        _mm_xor_si128(a, b)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn join(blocks: &[[u8; BLOCK_LEN]; BLOCKS]) -> Unit {
        load(&blocks[0])
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn split(v: Unit) -> [__m128i; BLOCKS] {
        [v]
    }
}

/// [`super::ctr_xor_portable`] on the AES instructions.
///
/// Out of line on purpose: a real call boundary is where the compiler
/// places the `vzeroupper` that keeps this code's 512-bit registers apart
/// from a caller's legacy-SSE code, and a caller's live 512-bit values
/// apart from this code (DESIGN.md §7, "Hardware SHA-256"). The rounds
/// stay in this body: a keystream helper the compiler keeps out of line
/// returns its lanes through the stack.
#[inline(never)]
#[target_feature(enable = "aes,sse2")]
#[cfg_attr(
    all(
        target_feature = "vaes",
        target_feature = "avx512f",
        target_feature = "avx512bw"
    ),
    target_feature(enable = "vaes,avx512f,avx512bw")
)]
pub(super) fn ctr_xor(
    keys: &RoundKeys,
    nonce: &[u8; NONCE_LEN],
    counter: u64,
    data: &mut [u8],
) -> [u8; BLOCK_LEN] {
    if data.is_empty() {
        return [0; BLOCK_LEN];
    }
    let mut rk = [broadcast(&keys[0]); 11];
    for (rk, key) in rk.iter_mut().zip(keys) {
        *rk = broadcast(key);
    }
    // The counter block's fixed half, whitened with round key 0 once.
    let mut first = keys[0];
    xor_into(&mut first, nonce);
    let first = broadcast(&first);

    let short = data.len() <= BLOCKS * BLOCK_LEN;
    let (blocks, tail) = data.as_chunks_mut::<BLOCK_LEN>();
    let (units, loose) = blocks.as_chunks_mut::<BLOCKS>();
    if short {
        // At most one unit — a relay tag mask is sixteen bytes: one unit of
        // keystream, not a pass of `LANES`.
        let mut s = counters(first, counter);
        for key in &rk[1..10] {
            s = aesenc(s, *key);
        }
        let ks = aesenclast(s, rk[10]);
        if let Some(unit) = units.first_mut() {
            xor_unit(unit, ks);
        }
        return finish(ks, loose, tail);
    }
    let (groups, rest) = units.as_chunks_mut::<LANES>();
    // One pass a group of `LANES` units, then one more if anything is left:
    // fewer than `LANES` whole units, then fewer than `BLOCKS` whole blocks
    // and a partial one, which together fit in the pass's lanes.
    let passes =
        groups.len() + usize::from(!(rest.is_empty() && loose.is_empty() && tail.is_empty()));
    let mut groups = groups.iter_mut();
    let mut counter = counter;
    let mut last = [0u8; BLOCK_LEN];
    for _ in 0..passes {
        // Each round runs across all lanes before the next begins.
        let mut s = [first; LANES];
        for (lane, s) in s.iter_mut().enumerate() {
            *s = counters(first, counter.wrapping_add((lane * BLOCKS) as u64));
        }
        for key in &rk[1..10] {
            for s in s.iter_mut() {
                *s = aesenc(*s, *key);
            }
        }
        for s in s.iter_mut() {
            *s = aesenclast(*s, rk[10]);
        }
        counter = counter.wrapping_add((LANES * BLOCKS) as u64);

        if let Some(group) = groups.next() {
            for (unit, ks) in group.iter_mut().zip(s) {
                xor_unit(unit, ks);
            }
            continue;
        }
        // The last pass: the whole units, then the first lane past them for
        // the loose blocks and the partial one. Every lane is visited at a
        // fixed index, so none leaves its register; the rest are discarded.
        let whole = rest.len();
        let mut spare = s[0];
        for (lane, ks) in s.into_iter().enumerate() {
            match rest.get_mut(lane) {
                Some(unit) => xor_unit(unit, ks),
                None if lane == whole => spare = ks,
                None => {}
            }
        }
        last = finish(spare, loose, tail);
    }
    last
}

/// XOR one unit of keystream into one unit of data.
#[inline]
#[target_feature(enable = "sse2")]
#[cfg_attr(
    all(
        target_feature = "vaes",
        target_feature = "avx512f",
        target_feature = "avx512bw"
    ),
    target_feature(enable = "avx512f")
)]
fn xor_unit(unit: &mut [[u8; BLOCK_LEN]; BLOCKS], ks: Unit) {
    let out = split(xor(join(unit), ks));
    for (block, out) in unit.iter_mut().zip(out) {
        *block = store(out);
    }
}

/// XOR the slots of `ks` into the loose whole blocks, then the slot after
/// them into the partial block `tail`; returns that slot's keystream.
#[inline]
#[target_feature(enable = "sse2")]
#[cfg_attr(
    all(
        target_feature = "vaes",
        target_feature = "avx512f",
        target_feature = "avx512bw"
    ),
    target_feature(enable = "avx512f")
)]
fn finish(ks: Unit, loose: &mut [[u8; BLOCK_LEN]], tail: &mut [u8]) -> [u8; BLOCK_LEN] {
    let loose_len = loose.len();
    let ks = split(ks);
    let mut partial = ks[0];
    for (slot, ks) in ks.into_iter().enumerate() {
        match loose.get_mut(slot) {
            Some(block) => *block = store(_mm_xor_si128(load(block), ks)),
            None if slot == loose_len => partial = ks,
            None => {}
        }
    }
    let last = store(partial);
    xor_into(tail, &last);
    last
}
