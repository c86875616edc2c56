//! Sixteen SHA-256 compressions at once on AVX-512F, written with value
//! intrinsics only: no pointer, no reinterpreting cast. The parent module
//! compiles this file in only when the build's target features include
//! `avx512f`.
//!
//! A row is one 32-bit word of sixteen independent computations, lane `l`
//! in the register's slot `l`, so every instruction below works on all
//! sixteen hashes. Rotations are `vprord`; Σ, σ, Ch and Maj are each one
//! `vpternlogd` over their three inputs; a lane that has taken its last
//! step keeps its value through a masked move.

use super::{Lanes, K, LANES};
use std::arch::x86_64::{
    __m512i, _mm512_add_epi32, _mm512_cmpgt_epu32_mask, _mm512_cvtsi512_si32,
    _mm512_mask_mov_epi32, _mm512_permutexvar_epi32, _mm512_ror_epi32, _mm512_set1_epi32,
    _mm512_setr_epi32, _mm512_srli_epi32, _mm512_ternarylogic_epi32,
};

/// `vpternlogd` truth tables over (a, b, c): `a ^ b ^ c`, `a ? b : c` and
/// the majority.
const XOR3: i32 = 0x96;
const CH: i32 = 0xCA;
const MAJ: i32 = 0xE8;

/// A lane row into a register, lane 0 in slot 0.
#[inline]
#[target_feature(enable = "avx512f")]
fn load(row: Lanes) -> __m512i {
    let r = row.map(|word| word as i32);
    _mm512_setr_epi32(
        r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8], r[9], r[10], r[11], r[12], r[13],
        r[14], r[15],
    )
}

/// A register back into a lane row.
#[inline]
#[target_feature(enable = "avx512f")]
fn store(v: __m512i) -> Lanes {
    std::array::from_fn(|l| {
        let slot = _mm512_permutexvar_epi32(_mm512_set1_epi32(l as i32), v);
        _mm512_cvtsi512_si32(slot) as u32
    })
}

#[inline]
#[target_feature(enable = "avx512f")]
fn add(a: __m512i, b: __m512i) -> __m512i {
    _mm512_add_epi32(a, b)
}

/// `Σ0(a)`.
#[inline]
#[target_feature(enable = "avx512f")]
fn big_sigma0(a: __m512i) -> __m512i {
    _mm512_ternarylogic_epi32::<XOR3>(
        _mm512_ror_epi32::<2>(a),
        _mm512_ror_epi32::<13>(a),
        _mm512_ror_epi32::<22>(a),
    )
}

/// `Σ1(e)`.
#[inline]
#[target_feature(enable = "avx512f")]
fn big_sigma1(e: __m512i) -> __m512i {
    _mm512_ternarylogic_epi32::<XOR3>(
        _mm512_ror_epi32::<6>(e),
        _mm512_ror_epi32::<11>(e),
        _mm512_ror_epi32::<25>(e),
    )
}

/// Schedule word `i` (16..64) from the rolling window, written back into
/// it: `w[i] = w[i-16] + σ0(w[i-15]) + w[i-7] + σ1(w[i-2])`.
#[inline]
#[target_feature(enable = "avx512f")]
fn schedule(w: &mut [__m512i; 16], i: usize) -> __m512i {
    let (w15, w2) = (w[(i + 1) & 15], w[(i + 14) & 15]);
    let s0 = _mm512_ternarylogic_epi32::<XOR3>(
        _mm512_ror_epi32::<7>(w15),
        _mm512_ror_epi32::<18>(w15),
        _mm512_srli_epi32::<3>(w15),
    );
    let s1 = _mm512_ternarylogic_epi32::<XOR3>(
        _mm512_ror_epi32::<17>(w2),
        _mm512_ror_epi32::<19>(w2),
        _mm512_srli_epi32::<10>(w2),
    );
    w[i & 15] = add(add(w[i & 15], s0), add(w[(i + 9) & 15], s1));
    w[i & 15]
}

/// One round on the working variables, which rotate by one place.
#[inline]
#[target_feature(enable = "avx512f")]
fn round(v: &mut [__m512i; 8], k: u32, w: __m512i) {
    let [a, b, c, d, e, f, g, h] = *v;
    let ch = _mm512_ternarylogic_epi32::<CH>(e, f, g);
    let t1 = add(
        add(h, big_sigma1(e)),
        add(ch, add(_mm512_set1_epi32(k as i32), w)),
    );
    let t2 = add(big_sigma0(a), _mm512_ternarylogic_epi32::<MAJ>(a, b, c));
    *v = [add(t1, t2), a, b, c, add(d, t1), e, f, g];
}

/// The compression function of sixteen (state, block) pairs. Sixteen
/// rounds are spelled out per pass, so every window index is a constant
/// and the window and the working variables can live in registers.
#[inline]
#[target_feature(enable = "avx512f")]
fn compress(state: [__m512i; 8], mut w: [__m512i; 16]) -> [__m512i; 8] {
    let mut v = state;
    for base in (0..64).step_by(16) {
        macro_rules! rounds {
            ($($j:literal)*) => {$(
                let word = if base == 0 { w[$j] } else { schedule(&mut w, $j) };
                round(&mut v, K[base + $j], word);
            )*};
        }
        rounds!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
    }
    [0, 1, 2, 3, 4, 5, 6, 7].map(|i| add(state[i], v[i]))
}

/// [`super::chain_lanes_portable`] in `zmm` registers: the block enters
/// and leaves vector form once a call, not once a step, and after each step
/// a masked move writes the digest into the value words of the lanes still
/// running.
#[inline(never)]
#[target_feature(enable = "avx512f")]
pub(super) fn chain_lanes(
    state: [u32; 8],
    block: [Lanes; 16],
    at: usize,
    steps: Lanes,
) -> [Lanes; 8] {
    let start = state.map(|word| _mm512_set1_epi32(word as i32));
    let mut block = block.map(|row| load(row));
    let remaining = load(steps);
    for i in 0..steps.into_iter().max().unwrap_or(0) {
        let running = _mm512_cmpgt_epu32_mask(remaining, _mm512_set1_epi32(i as i32));
        let digest = compress(start, block);
        for (row, word) in block[at..at + 8].iter_mut().zip(digest) {
            *row = _mm512_mask_mov_epi32(*row, running, word);
        }
    }
    std::array::from_fn(|r| store(block[at + r]))
}

const _: () = assert!(LANES == 16, "one lane per 32-bit slot of a zmm register");
