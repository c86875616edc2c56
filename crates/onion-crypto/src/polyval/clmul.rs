//! POLYVAL on the x86 carry-less multiply (`pclmulqdq`), written with value
//! intrinsics only: no pointer, no transmute. The parent module compiles
//! this file in only when the build's target features include `pclmulqdq`
//! and `sse2`.
//!
//! POLYVAL's bit order is the natural one, so a block is its sixteen bytes
//! as they lie and a product needs no byte reflection. A *group* of
//! [`POWERS`] blocks is absorbed at once: `(S ⊕ X₁)·Hⁿ ⊕ X₂·Hⁿ⁻¹ ⊕ … ⊕
//! Xₙ·H¹`, with the 256-bit products summed unreduced and one reduction at
//! the end (the reduction is linear, so this equals `n` reduced steps).
//!
//! The build's target features pick the unit a group runs on (module
//! `unit`): with VPCLMULQDQ and AVX-512F it is a 512-bit register holding
//! four blocks, and a group is 32 blocks — one zero-padded 509-byte relay
//! cell — in eight units; otherwise it is eight blocks, one a 128-bit
//! register. What is left after the last group runs one block a 128-bit
//! register, still with one reduction.

use super::{padded, BLOCK_LEN, POLY, POWERS};
use std::arch::x86_64::{
    __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_setzero_si128,
    _mm_shuffle_epi32, _mm_slli_si128, _mm_srli_si128, _mm_unpackhi_epi64, _mm_xor_si128,
};
use unit::{fold, join, sums, widen, xor, zero, BLOCKS};

/// A field element in a register, `x⁰` in bit 0.
#[inline]
#[target_feature(enable = "sse2")]
fn load(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

/// The inverse of [`load`].
#[inline]
#[target_feature(enable = "sse2")]
fn store(v: __m128i) -> u128 {
    let lo = _mm_cvtsi128_si64(v) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
    u128::from(hi) << 64 | u128::from(lo)
}

/// A 256-bit product before reduction, as `hi·x¹²⁸ + mid·x⁶⁴ + lo`.
#[derive(Clone, Copy)]
struct Wide {
    lo: __m128i,
    mid: __m128i,
    hi: __m128i,
}

/// `acc + a·b`, schoolbook: four 64-bit carry-less multiplies.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
fn mul_add(acc: Wide, a: __m128i, b: __m128i) -> Wide {
    let cross = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x01>(a, b),
        _mm_clmulepi64_si128::<0x10>(a, b),
    );
    Wide {
        lo: _mm_xor_si128(acc.lo, _mm_clmulepi64_si128::<0x00>(a, b)),
        mid: _mm_xor_si128(acc.mid, cross),
        hi: _mm_xor_si128(acc.hi, _mm_clmulepi64_si128::<0x11>(a, b)),
    }
}

/// `p·x⁻¹²⁸` modulo the field polynomial: the portable `reduce` with each
/// 64-bit fold one carry-less multiply by `c = x⁶³ + x⁶² + x⁵⁷`. A fold
/// adds `w·c` one word up and `w` two words up; swapping the halves of the
/// low register lines both up at once.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
fn reduce(p: Wide) -> __m128i {
    let c = _mm_set_epi64x(0, (POLY >> 64) as i64);
    let lo = _mm_xor_si128(p.lo, _mm_slli_si128::<8>(p.mid));
    let hi = _mm_xor_si128(p.hi, _mm_srli_si128::<8>(p.mid));
    let lo = _mm_xor_si128(
        _mm_shuffle_epi32::<0x4e>(lo),
        _mm_clmulepi64_si128::<0x00>(lo, c),
    );
    let lo = _mm_xor_si128(
        _mm_shuffle_epi32::<0x4e>(lo),
        _mm_clmulepi64_si128::<0x00>(lo, c),
    );
    _mm_xor_si128(hi, lo)
}

/// Absorb `blocks`, then `tail` if any — at most [`POWERS`] blocks in all —
/// into `acc` with one reduction, one block a 128-bit register: block `j`
/// of `n` is multiplied by `powers[POWERS - n + j]`, `H` to the power
/// `n - j`.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
fn absorb(
    powers: &[u128; POWERS],
    acc: __m128i,
    blocks: &[[u8; BLOCK_LEN]],
    tail: Option<u128>,
) -> __m128i {
    let zero = _mm_setzero_si128();
    let mut sum = Wide {
        lo: zero,
        mid: zero,
        hi: zero,
    };
    let mut carry = acc;
    let n = blocks.len() + usize::from(tail.is_some());
    let all = blocks.iter().map(|b| u128::from_le_bytes(*b)).chain(tail);
    for (block, power) in all.zip(&powers[POWERS - n..]) {
        let x = _mm_xor_si128(load(block), carry);
        carry = zero;
        sum = mul_add(sum, x, load(*power));
    }
    reduce(sum)
}

/// The partial last block of `data`, zero-padded; `None` when there is
/// none. Past the first block it is the last sixteen bytes shifted down,
/// with no copy of a variable length.
#[inline]
fn tail_block(data: &[u8]) -> Option<u128> {
    let ragged = data.len() % BLOCK_LEN;
    match data.last_chunk::<BLOCK_LEN>() {
        _ if ragged == 0 => None,
        Some(last) => Some(u128::from_le_bytes(*last) >> (8 * (BLOCK_LEN - ragged))),
        None => padded(data).map(u128::from_le_bytes),
    }
}

/// Four blocks to a 512-bit register, eight units a 32-block group.
#[cfg(all(target_feature = "vpclmulqdq", target_feature = "avx512f"))]
mod unit {
    use super::{load, Wide};
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_castsi128_si512, _mm512_castsi512_si128, _mm512_clmulepi64_epi128,
        _mm512_extracti32x4_epi32, _mm512_inserti32x4, _mm512_setzero_si512, _mm512_xor_si512,
        _mm512_zextsi128_si512, _mm_xor_si128,
    };

    pub(super) type Unit = __m512i;
    pub(super) const BLOCKS: usize = 4;

    /// Unreduced products summed slot by slot, as [`Wide`] per slot.
    #[derive(Clone, Copy)]
    pub(super) struct Sums {
        lo: Unit,
        mid: Unit,
        hi: Unit,
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn zero() -> Unit {
        _mm512_setzero_si512()
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn sums() -> Sums {
        let zero = zero();
        Sums {
            lo: zero,
            mid: zero,
            hi: zero,
        }
    }

    /// `acc` in the low slot and zeros above it: what a group's first unit
    /// is XORed with.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn widen(acc: __m128i) -> Unit {
        _mm512_zextsi128_si512(acc)
    }

    /// Four field elements, the first in the low slot.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn join(v: &[u128; BLOCKS]) -> Unit {
        let u = _mm512_castsi128_si512(load(v[0]));
        let u = _mm512_inserti32x4::<1>(u, load(v[1]));
        let u = _mm512_inserti32x4::<2>(u, load(v[2]));
        _mm512_inserti32x4::<3>(u, load(v[3]))
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn xor(a: Unit, b: Unit) -> Unit {
        _mm512_xor_si512(a, b)
    }

    /// `acc + a·b` in every slot, schoolbook.
    #[inline]
    #[target_feature(enable = "vpclmulqdq,avx512f")]
    pub(super) fn mul_add(acc: Sums, a: Unit, b: Unit) -> Sums {
        let cross = xor(
            _mm512_clmulepi64_epi128::<0x01>(a, b),
            _mm512_clmulepi64_epi128::<0x10>(a, b),
        );
        Sums {
            lo: xor(acc.lo, _mm512_clmulepi64_epi128::<0x00>(a, b)),
            mid: xor(acc.mid, cross),
            hi: xor(acc.hi, _mm512_clmulepi64_epi128::<0x11>(a, b)),
        }
    }

    /// The XOR of the four slots.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn fold_slots(v: Unit) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(_mm512_castsi512_si128(v), _mm512_extracti32x4_epi32::<1>(v)),
            _mm_xor_si128(
                _mm512_extracti32x4_epi32::<2>(v),
                _mm512_extracti32x4_epi32::<3>(v),
            ),
        )
    }

    /// The sum of all slots' products, still unreduced.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn fold(s: Sums) -> Wide {
        Wide {
            lo: fold_slots(s.lo),
            mid: fold_slots(s.mid),
            hi: fold_slots(s.hi),
        }
    }
}

/// One block to a 128-bit register, eight units an eight-block group.
#[cfg(not(all(target_feature = "vpclmulqdq", target_feature = "avx512f")))]
mod unit {
    use super::{load, Wide};
    use std::arch::x86_64::{__m128i, _mm_setzero_si128, _mm_xor_si128};

    pub(super) use super::mul_add;
    pub(super) type Unit = __m128i;
    pub(super) type Sums = Wide;
    pub(super) const BLOCKS: usize = 1;

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn zero() -> Unit {
        _mm_setzero_si128()
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn sums() -> Sums {
        let zero = zero();
        Wide {
            lo: zero,
            mid: zero,
            hi: zero,
        }
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn widen(acc: __m128i) -> Unit {
        acc
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn join(v: &[u128; BLOCKS]) -> Unit {
        load(v[0])
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn xor(a: Unit, b: Unit) -> Unit {
        _mm_xor_si128(a, b)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn fold(s: Sums) -> Wide {
        s
    }
}

/// Units in a group: eight in either width.
const UNITS: usize = POWERS / BLOCKS;
/// Whole blocks a group starts with, before the unit that closes it.
const HEAD: usize = POWERS - BLOCKS;

/// [`super::update_portable`] on the carry-less multiply.
///
/// Out of line on purpose, like the AES and SHA-256 kernels: a real call
/// boundary is where the compiler places the `vzeroupper` that keeps this
/// code's 512-bit registers apart from a caller's legacy-SSE code, and a
/// caller's live 512-bit values apart from this code's legacy-SSE
/// instructions (DESIGN.md §7, "Hardware SHA-256"). The group loop stays
/// in this body, like the AES rounds: a helper the compiler keeps out of
/// line passes its units through the stack.
#[inline(never)]
#[target_feature(enable = "pclmulqdq,sse2")]
#[cfg_attr(
    all(target_feature = "vpclmulqdq", target_feature = "avx512f"),
    target_feature(enable = "vpclmulqdq,avx512f")
)]
pub(super) fn update(powers: &[u128; POWERS], acc: u128, data: &[u8]) -> u128 {
    let (blocks, _) = data.as_chunks::<BLOCK_LEN>();
    let (groups, rest) = blocks.as_chunks::<POWERS>();
    let tail = tail_block(data);
    // Whole blocks one short of a group and a partial one — a relay cell —
    // make a last group too.
    let last = tail.filter(|_| rest.len() == POWERS - 1);
    let mut acc = load(acc);
    if !groups.is_empty() || last.is_some() {
        let mut h = [zero(); UNITS];
        for (h, power) in h.iter_mut().zip(powers.as_chunks::<BLOCKS>().0) {
            *h = join(power);
        }
        let groups = groups.iter().map(|group| (&group[..], None));
        for (blocks, tail) in groups.chain(last.map(|tail| (rest, Some(tail)))) {
            // Every group has `HEAD` whole blocks, then the unit that closes
            // it: `BLOCKS` whole ones, or one fewer and the tail.
            let Some((head, closing)) = blocks.split_first_chunk::<HEAD>() else {
                break;
            };
            let mut last = [0u128; BLOCKS];
            let closing = closing.iter().map(|b| u128::from_le_bytes(*b)).chain(tail);
            for (slot, block) in last.iter_mut().zip(closing) {
                *slot = block;
            }
            let mut sums = sums();
            let mut carry = widen(acc);
            let (units, _) = head.as_chunks::<BLOCKS>();
            for (unit, power) in units.iter().zip(&h) {
                let x = xor(join(&unit.map(u128::from_le_bytes)), carry);
                carry = zero();
                sums = unit::mul_add(sums, x, *power);
            }
            sums = unit::mul_add(sums, xor(join(&last), carry), h[UNITS - 1]);
            acc = reduce(fold(sums));
        }
        if last.is_some() {
            return store(acc);
        }
    }
    if !rest.is_empty() || tail.is_some() {
        acc = absorb(powers, acc, rest, tail);
    }
    store(acc)
}
