//! POLYVAL on the x86 carry-less multiply (`pclmulqdq`), written with value
//! intrinsics only: no pointer, no transmute. The parent module compiles
//! this file in only when the build's target features include `pclmulqdq`
//! and `sse2`.
//!
//! POLYVAL's bit order is the natural one, so a block is its sixteen bytes
//! as they lie and a product needs no byte reflection. Eight blocks are
//! absorbed at once: `(S ⊕ X₁)·H⁸ ⊕ X₂·H⁷ ⊕ … ⊕ X₈·H¹`, with the 256-bit
//! products summed unreduced and one reduction at the end (the reduction is
//! linear, so this equals eight reduced steps).

use super::{padded, BLOCK_LEN, POLY, POWERS};
use std::arch::x86_64::{
    __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_setzero_si128,
    _mm_shuffle_epi32, _mm_slli_si128, _mm_srli_si128, _mm_unpackhi_epi64, _mm_xor_si128,
};

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
/// into `acc` with one reduction: block `j` of `n` is multiplied by `H` to
/// the power `n - j`.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
fn absorb(
    h: &[__m128i; POWERS],
    acc: __m128i,
    blocks: &[[u8; BLOCK_LEN]],
    tail: Option<[u8; BLOCK_LEN]>,
) -> __m128i {
    let zero = _mm_setzero_si128();
    let mut sum = Wide {
        lo: zero,
        mid: zero,
        hi: zero,
    };
    let mut carry = acc;
    let n = blocks.len() + usize::from(tail.is_some());
    let all = blocks.iter().copied().chain(tail);
    for (block, power) in all.zip(h[..n].iter().rev()) {
        let x = _mm_xor_si128(load(u128::from_le_bytes(block)), carry);
        carry = zero;
        sum = mul_add(sum, x, *power);
    }
    reduce(sum)
}

/// [`super::update_portable`] on the carry-less multiply.
///
/// Out of line on purpose, like the AES and SHA-256 kernels: a real call
/// boundary is where the compiler places the `vzeroupper` that keeps this
/// code's legacy-SSE instructions apart from a caller's live 512-bit
/// values (DESIGN.md §7, "Hardware SHA-256").
#[inline(never)]
#[target_feature(enable = "pclmulqdq,sse2")]
pub(super) fn update(powers: &[u128; POWERS], acc: u128, data: &[u8]) -> u128 {
    let mut h = [_mm_setzero_si128(); POWERS];
    for (h, power) in h.iter_mut().zip(powers) {
        *h = load(*power);
    }
    let (blocks, tail) = data.as_chunks::<BLOCK_LEN>();
    let (groups, rest) = blocks.as_chunks::<POWERS>();
    let mut acc = load(acc);
    for group in groups {
        acc = absorb(&h, acc, group, None);
    }
    let tail = padded(tail);
    if !rest.is_empty() || tail.is_some() {
        acc = absorb(&h, acc, rest, tail);
    }
    store(acc)
}
