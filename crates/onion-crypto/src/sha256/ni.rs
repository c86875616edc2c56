//! SHA-256 compression on the x86 SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`), written with value intrinsics only: no
//! pointer, no transmute. The parent module compiles this file in only when
//! the build's target features include everything enabled below.

use super::K;
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8,
};

/// Four consecutive 32-bit words, the first in the lowest lane.
#[inline]
#[target_feature(enable = "sse2")]
fn vec4(w: [u32; 4]) -> __m128i {
    _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
}

/// Message words `4 * i .. 4 * i + 4` of `block`, big-endian decoded: the
/// sixteen bytes as they lie (the compiler fuses the two halves into one
/// unaligned load), then a byte swap within each word.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn load4(block: &[u8; 64], i: usize) -> __m128i {
    let (quads, _) = block.as_chunks::<8>();
    let raw = _mm_set_epi64x(
        i64::from_le_bytes(quads[2 * i + 1]),
        i64::from_le_bytes(quads[2 * i]),
    );
    _mm_shuffle_epi8(
        raw,
        vec4([0x0001_0203, 0x0405_0607, 0x0809_0a0b, 0x0c0d_0e0f]),
    )
}

/// Rounds `4 * i .. 4 * i + 4` on the schedule words in `w`: two from the
/// low half of `w + K`, two from the high half.
#[inline]
#[target_feature(enable = "sha,sse2")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
    let wk = _mm_add_epi32(
        w,
        vec4([K[4 * i], K[4 * i + 1], K[4 * i + 2], K[4 * i + 3]]),
    );
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
}

/// The four schedule words that follow `w0..w3` (sixteen consecutive words,
/// four a vector): σ0 terms by `msg1`, `W[t-7]` by the `alignr`, σ1 terms by
/// `msg2`.
#[inline]
#[target_feature(enable = "sha,ssse3")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(partial, w3)
}

/// The FIPS 180-4 compression function over `blocks`, in order. The state
/// lives in two registers, in the `(a, b, e, f)` / `(c, d, g, h)` halves the
/// round instruction wants, from the first block to the last.
///
/// Out of line on purpose. The SHA instructions have only legacy-SSE
/// encodings; inlined into a caller that holds live 512-bit values, the
/// prototype of this routine ran at 5 400 ns a block on the bench host
/// instead of 45, and a real call boundary is where the compiler places the
/// `vzeroupper` that prevents it (DESIGN.md §7, "Hardware SHA-256").
#[inline(never)]
#[target_feature(enable = "sha,ssse3,sse4.1")]
pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let [a, b, c, d, e, f, g, h] = *state;
    let mut abef = vec4([f, e, b, a]);
    let mut cdgh = vec4([h, g, d, c]);
    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // The schedule is a rolling window of four vectors; each line of
        // the loop replaces the oldest with the next and consumes it.
        let mut w0 = load4(block, 0);
        let mut w1 = load4(block, 1);
        let mut w2 = load4(block, 2);
        let mut w3 = load4(block, 3);
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for i in [4, 8, 12] {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, i + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, i + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, i + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    *state = [
        _mm_extract_epi32::<3>(abef) as u32,
        _mm_extract_epi32::<2>(abef) as u32,
        _mm_extract_epi32::<3>(cdgh) as u32,
        _mm_extract_epi32::<2>(cdgh) as u32,
        _mm_extract_epi32::<1>(abef) as u32,
        _mm_extract_epi32::<0>(abef) as u32,
        _mm_extract_epi32::<1>(cdgh) as u32,
        _mm_extract_epi32::<0>(cdgh) as u32,
    ];
}
