//! Two X25519 Montgomery ladders at once on AVX-512 IFMA (`vpmadd52luq`,
//! `vpmadd52huq`), written with value intrinsics only: no pointer, no
//! transmute. The parent module compiles this file in only when the build's
//! target features include everything enabled below.
//!
//! A [`Fe8`] is eight field elements in radix 2^51, one per 64-bit lane:
//! register `i` holds limb `i` of all eight. Lanes 0–3 belong to the first
//! ladder and lanes 4–7 to the second, each ladder's four holding the
//! operands of one stage of its step, so every operation below runs both
//! ladders' stages side by side. The multiplier reads only the low 52 bits
//! of a lane, so every value fed to [`mul`] has limbs below 2^52: [`mul`]
//! and [`carry`] return them so, and a sum or difference goes through
//! [`carry`] before it is multiplied.

use super::{clamp, Fe, MASK51};
use std::arch::x86_64::{
    __m512i, __mmask8, _mm512_add_epi64, _mm512_and_si512, _mm512_castsi512_si128,
    _mm512_madd52hi_epu64, _mm512_madd52lo_epu64, _mm512_mask_add_epi64, _mm512_mask_blend_epi64,
    _mm512_permutex_epi64, _mm512_permutexvar_epi64, _mm512_set1_epi64, _mm512_set_epi64,
    _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srli_epi64, _mm512_sub_epi64,
    _mm_cvtsi128_si64,
};

/// Eight field elements: `fe[i]` is limb `i` of every lane.
type Fe8 = [__m512i; 5];

/// The lanes of both ladders whose position within the ladder is set in
/// `pattern` (bit `j` = the ladder's lane `j`).
const fn both(pattern: __mmask8) -> __mmask8 {
    pattern | pattern << 4
}

/// A `vpermq` control that reorders each ladder's four lanes: output lane
/// `j` takes input lane `from[j]`.
const fn order(from: [i32; 4]) -> i32 {
    from[0] | from[1] << 2 | from[2] << 4 | from[3] << 6
}

/// One element per lane, lane 0 first.
#[inline]
#[target_feature(enable = "avx512f")]
fn pack(lanes: [Fe; 8]) -> Fe8 {
    let limb = |i: usize| {
        let l = lanes.map(|fe| fe.0[i] as i64);
        _mm512_set_epi64(l[7], l[6], l[5], l[4], l[3], l[2], l[1], l[0])
    };
    [limb(0), limb(1), limb(2), limb(3), limb(4)]
}

/// The element in lane `lane`.
#[inline]
#[target_feature(enable = "avx512f")]
fn unpack(v: Fe8, lane: i64) -> Fe {
    let index = _mm512_set1_epi64(lane);
    Fe(v.map(|limb| {
        let first = _mm512_castsi512_si128(_mm512_permutexvar_epi64(index, limb));
        _mm_cvtsi128_si64(first) as u64
    }))
}

/// Every lane the same constant, limbwise.
#[inline]
#[target_feature(enable = "avx512f")]
fn splat(limbs: [u64; 5]) -> Fe8 {
    limbs.map(|limb| _mm512_set1_epi64(limb as i64))
}

#[inline]
#[target_feature(enable = "avx512f")]
fn zip(a: Fe8, b: Fe8, op: impl Fn(__m512i, __m512i) -> __m512i) -> Fe8 {
    [
        op(a[0], b[0]),
        op(a[1], b[1]),
        op(a[2], b[2]),
        op(a[3], b[3]),
        op(a[4], b[4]),
    ]
}

#[inline]
#[target_feature(enable = "avx512f")]
fn add(a: Fe8, b: Fe8) -> Fe8 {
    zip(a, b, |x, y| _mm512_add_epi64(x, y))
}

/// `a + 4p − b`, limbwise: no limb underflows for `b` below 2^52.
#[inline]
#[target_feature(enable = "avx512f")]
fn sub(a: Fe8, b: Fe8) -> Fe8 {
    const FOUR_P: [u64; 5] = [
        (MASK51 - 18) << 2,
        MASK51 << 2,
        MASK51 << 2,
        MASK51 << 2,
        MASK51 << 2,
    ];
    zip(add(a, splat(FOUR_P)), b, |x, y| _mm512_sub_epi64(x, y))
}

/// Lanes in `k` from `b`, the rest from `a`.
#[inline]
#[target_feature(enable = "avx512f")]
fn blend(k: __mmask8, a: Fe8, b: Fe8) -> Fe8 {
    zip(a, b, |x, y| _mm512_mask_blend_epi64(k, x, y))
}

/// Each ladder's lanes reordered by the control `IMM` (see [`order`]).
#[inline]
#[target_feature(enable = "avx512f")]
fn permute<const IMM: i32>(v: Fe8) -> Fe8 {
    v.map(|limb| _mm512_permutex_epi64::<IMM>(limb))
}

/// Each ladder's lanes 0 and 2, and its lanes 1 and 3, each copied into the
/// lane after it: `[v0, v0, v2, v2]` and `[v1, v1, v3, v3]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn spread(v: Fe8) -> (Fe8, Fe8) {
    (
        permute::<{ order([0, 0, 2, 2]) }>(v),
        permute::<{ order([1, 1, 3, 3]) }>(v),
    )
}

/// `[x2, z2, x3, z3]` becomes `[x3, z3, x2, z2]` in each ladder whose bit
/// (0 or 1) is 1. The blend mask is made from the bits by arithmetic — 0 − 1
/// is all ones, 0 − 0 none — so no branch depends on a bit and no index is
/// one.
#[inline]
#[target_feature(enable = "avx512f")]
fn cswap(s: Fe8, bit_a: u8, bit_b: u8) -> Fe8 {
    let k = 0x0F & bit_a.wrapping_neg() | 0xF0 & bit_b.wrapping_neg();
    blend(k, s, permute::<{ order([2, 3, 0, 1]) }>(s))
}

/// `19 · x` as `x + 2x + 16x`.
#[inline]
#[target_feature(enable = "avx512f")]
fn times19(x: __m512i) -> __m512i {
    _mm512_add_epi64(
        x,
        _mm512_add_epi64(_mm512_slli_epi64::<1>(x), _mm512_slli_epi64::<4>(x)),
    )
}

/// One parallel carry pass, the top carry wrapping into limb 0 times 19:
/// limbs below 2^64 come out below 2^52.
#[inline]
#[target_feature(enable = "avx512f")]
fn carry(v: Fe8) -> Fe8 {
    let mask = _mm512_set1_epi64(MASK51 as i64);
    let low = v.map(|limb| _mm512_and_si512(limb, mask));
    let up = v.map(|limb| _mm512_srli_epi64::<51>(limb));
    [
        _mm512_add_epi64(low[0], times19(up[4])),
        _mm512_add_epi64(low[1], up[0]),
        _mm512_add_epi64(low[2], up[1]),
        _mm512_add_epi64(low[3], up[2]),
        _mm512_add_epi64(low[4], up[3]),
    ]
}

/// Eight products at once, limbs below 2^52 in and out.
///
/// `a_i · b_j` is below 2^104 and splits at bit 52 into a low half, which
/// weighs 2^(51(i+j)), and a high half, which weighs 2^(51(i+j+1)) twice.
/// Column `c` is then `lo[c] + 2·hi[c]`, below 15 · 2^52; columns 5–9 fold
/// into 0–4 times 19 (2^255 ≡ 19), leaving sums below 2^61 for [`carry`].
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul(a: Fe8, b: Fe8) -> Fe8 {
    let zero = _mm512_setzero_si512();
    let (mut lo, mut hi) = ([zero; 10], [zero; 10]);
    for i in 0..5 {
        for j in 0..5 {
            lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a[i], b[j]);
            hi[i + j + 1] = _mm512_madd52hi_epu64(hi[i + j + 1], a[i], b[j]);
        }
    }
    let column = |c: usize| _mm512_add_epi64(lo[c], _mm512_slli_epi64::<1>(hi[c]));
    carry([0, 1, 2, 3, 4].map(|c| _mm512_add_epi64(column(c), times19(column(c + 5)))))
}

/// The ladder of [`super::x25519_portable`] on two (scalar, point) pairs,
/// up to its projective result `(x2, z2)` for each.
///
/// Each ladder's lanes hold `[x2, z2, x3, z3]` between steps. A step is
/// three multiplications of eight lanes:
///
/// ```text
/// [a, b, d, c]            · [a, b, a, b]                = [aa, bb, da, cb]
/// [aa, e, da+cb, da−cb]   · [bb, 121665, da+cb, da−cb]  = [x2', 121665e, x3', t]
/// [·, e, ·, x1]           · [·, aa+121665e, ·, t]       = [·, z2', ·, z3']
/// ```
///
/// with a, b = x2 ± z2, c, d = x3 ± z3, e = aa − bb; the lanes marked `·`
/// compute products nobody reads.
#[inline(never)]
#[target_feature(enable = "avx512f,avx512ifma")]
pub(super) fn ladder_pair(pairs: [([u8; 32], [u8; 32]); 2]) -> [(Fe, Fe); 2] {
    let [(ka, ua), (kb, ub)] = pairs.map(|(k, u)| (clamp(k), Fe::from_bytes(&u)));
    let (one, zero) = (Fe::ONE, Fe::ZERO);
    let x1 = pack([ua, ua, ua, ua, ub, ub, ub, ub]);
    let a24 = splat(Fe::small(121665).0);
    let mut s = pack([one, zero, ua, one, one, zero, ub, one]);
    let (mut swap_a, mut swap_b) = (0u8, 0u8);
    for t in (0..255).rev() {
        let (bit_a, bit_b) = ((ka[t / 8] >> (t % 8)) & 1, (kb[t / 8] >> (t % 8)) & 1);
        s = cswap(s, swap_a ^ bit_a, swap_b ^ bit_b);
        (swap_a, swap_b) = (bit_a, bit_b);

        let (p, q) = spread(s);
        let u = carry(blend(both(0b0110), add(p, q), sub(p, q)));
        let m1 = mul(u, permute::<{ order([0, 1, 0, 1]) }>(u));

        let (p, q) = spread(m1);
        let base = carry(blend(both(0b0100), sub(p, q), add(p, q)));
        let x = blend(both(0b0001), base, p);
        let y = blend(both(0b0010), blend(both(0b0001), base, q), a24);
        let m2 = mul(x, y);

        let (aa, _) = spread(x);
        let y = carry(zip(m2, aa, |m, a| {
            _mm512_mask_add_epi64(m, both(0b0010), m, a)
        }));
        let m3 = mul(blend(both(0b1000), x, x1), y);
        s = blend(both(0b1010), m2, m3);
    }
    s = cswap(s, swap_a, swap_b);
    [(unpack(s, 0), unpack(s, 1)), (unpack(s, 4), unpack(s, 5))]
}
