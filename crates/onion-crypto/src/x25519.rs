//! X25519 Diffie–Hellman (RFC 7748): the Montgomery ladder on Curve25519
//! over GF(2^255 − 19), with field arithmetic in radix-2^51.
//!
//! This is the primitive under Tor's ntor handshake: a relay's identity and
//! onion keys are X25519 keys, and circuit extension is two DH operations.
//! Verified against the RFC 7748 test vectors.
//!
//! Key generation ([`x25519_base`]) does not run the ladder: the base point
//! is fixed, so it adds precomputed multiples of it on the birationally
//! equivalent Edwards curve (see [`base_table`]) and maps the sum back.
//!
//! Limbs are reduced lazily. `mul`, `square`, `mul_small` and `sub` return
//! limbs below 2^52 and accept limbs below 2^54, so a sum of two of their
//! outputs feeds the next product with no carry pass in between; only
//! [`Fe::to_bytes`] reduces fully.
//!
//! The variable-base ladder has two backends, chosen when the crate is
//! compiled: [`x25519_portable`] (scalar, every target) and, when the
//! build's target features include AVX-512 IFMA, the `ifma` module, which
//! runs two ladders at once in eight vector lanes. [`x25519_pair`] is two
//! scalar multiplications on whichever the build selected, [`x25519`] one
//! (the second lane a copy of the first), and [`backend`] names it; there
//! is no runtime detection. Both produce the same bytes — the unit tests
//! compare them on random pairs and on the edge cases of the encoding.

/// Hardware backend: present only when the build proves its instructions.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma"
))]
mod ifma;

/// Whether this build runs the ladder on the `ifma` backend.
const IFMA: bool = cfg!(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma"
));

/// A field element mod 2^255 − 19, five 51-bit limbs, little-endian.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

const MASK51: u64 = (1 << 51) - 1;

fn m(x: u64, y: u64) -> u128 {
    x as u128 * y as u128
}

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    const fn small(n: u64) -> Fe {
        Fe([n, 0, 0, 0, 0])
    }

    fn from_bytes(b: &[u8; 32]) -> Fe {
        let load = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        // 255 bits packed in 32 bytes; top bit masked per RFC 7748.
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// The canonical encoding: the unique representative below p.
    fn to_bytes(self) -> [u8; 32] {
        let mut l = self.weak_reduce().0;
        // Limbs are below 2^52, so the value is below 2p: q is 1 exactly
        // when it is ≥ p, and adding 19q then dropping bit 255 subtracts qp.
        let mut q = (l[0] + 19) >> 51;
        for limb in &l[1..] {
            q = (limb + q) >> 51;
        }
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK51;
        }
        l[4] &= MASK51;
        let words = [
            l[0] | l[1] << 51,
            l[1] >> 13 | l[2] << 38,
            l[2] >> 26 | l[3] << 25,
            l[3] >> 39 | l[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// One parallel carry pass: limbs below 2^64 come out below 2^52.
    fn weak_reduce(self) -> Fe {
        let l = self.0;
        Fe([
            (l[0] & MASK51) + (l[4] >> 51) * 19,
            (l[1] & MASK51) + (l[0] >> 51),
            (l[2] & MASK51) + (l[1] >> 51),
            (l[3] & MASK51) + (l[2] >> 51),
            (l[4] & MASK51) + (l[3] >> 51),
        ])
    }

    /// Carry-free: the caller keeps sums below 2^54 (see the module docs).
    fn add(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    fn sub(self, rhs: Fe) -> Fe {
        // a + 16p - b limbwise cannot underflow for b below 2^54.
        let (a, b) = (self.0, rhs.0);
        Fe([
            a[0] + 0x7FFFFFFFFFFED0 - b[0],
            a[1] + 0x7FFFFFFFFFFFF0 - b[1],
            a[2] + 0x7FFFFFFFFFFFF0 - b[2],
            a[3] + 0x7FFFFFFFFFFFF0 - b[3],
            a[4] + 0x7FFFFFFFFFFFF0 - b[4],
        ])
        .weak_reduce()
    }

    /// Fold five wide column sums into limbs below 2^52: one serial carry
    /// pass, the top carry wrapping into limb 0 times 19.
    fn carry_wide(mut r: [u128; 5]) -> Fe {
        let mut l = [0u64; 5];
        for i in 0..4 {
            r[i + 1] += r[i] >> 51;
            l[i] = r[i] as u64 & MASK51;
        }
        l[4] = r[4] as u64 & MASK51;
        l[0] += (r[4] >> 51) as u64 * 19;
        l[1] += l[0] >> 51;
        l[0] &= MASK51;
        Fe(l)
    }

    fn mul(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        let (b1, b2, b3, b4) = (b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19);
        Fe::carry_wide([
            m(a[0], b[0]) + m(a[1], b4) + m(a[2], b3) + m(a[3], b2) + m(a[4], b1),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4) + m(a[3], b3) + m(a[4], b2),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4) + m(a[4], b3),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// `mul(self, self)` with the symmetric products taken once: 15, not 25.
    fn square(self) -> Fe {
        let a = self.0;
        let (a3, a4) = (a[3] * 19, a[4] * 19);
        Fe::carry_wide([
            m(a[0], a[0]) + 2 * (m(a[1], a4) + m(a[2], a3)),
            m(a[3], a3) + 2 * (m(a[0], a[1]) + m(a[2], a4)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3)),
            m(a[4], a4) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    /// `self^(2^k)` by repeated squaring.
    fn pow2k(self, k: u32) -> Fe {
        let mut t = self;
        for _ in 0..k {
            t = t.square();
        }
        t
    }

    fn mul_small(self, n: u64) -> Fe {
        Fe::carry_wide(self.0.map(|limb| m(limb, n)))
    }

    /// `(self^(2^250 − 1), self^11)`: the head the two ref10 addition chains
    /// below share.
    fn pow_250_and_11(self) -> (Fe, Fe) {
        let z = self;
        let z2 = z.square(); // 2
        let z8 = z2.pow2k(2); // 8
        let z9 = z8.mul(z); // 9
        let z11 = z9.mul(z2); // 11
        let z22 = z11.square(); // 22
        let z_5_0 = z22.mul(z9); // 2^5 - 1
        let z_10_0 = z_5_0.pow2k(5).mul(z_5_0); // 2^10 - 1
        let z_20_0 = z_10_0.pow2k(10).mul(z_10_0); // 2^20 - 1
        let z_40_0 = z_20_0.pow2k(20).mul(z_20_0); // 2^40 - 1
        let z_50_0 = z_40_0.pow2k(10).mul(z_10_0); // 2^50 - 1
        let z_100_0 = z_50_0.pow2k(50).mul(z_50_0); // 2^100 - 1
        let z_200_0 = z_100_0.pow2k(100).mul(z_100_0); // 2^200 - 1
        let z_250_0 = z_200_0.pow2k(50).mul(z_50_0); // 2^250 - 1
        (z_250_0, z11)
    }

    /// Multiplicative inverse via Fermat: `self^(p-2)` with the ref10 chain.
    fn invert(self) -> Fe {
        let (z_250_0, z11) = self.pow_250_and_11();
        z_250_0.pow2k(5).mul(z11) // 2^255 - 21
    }

    /// `self^((p-5)/8)`, the exponent square roots are taken through.
    fn pow_p58(self) -> Fe {
        let (z_250_0, _) = self.pow_250_and_11();
        z_250_0.pow2k(2).mul(self) // 2^252 - 3
    }

    /// A square root, if `self` is a square (p ≡ 5 mod 8: `self^((p+3)/8)`
    /// is a root of `self` or of `-self`, and √−1 = 2^((p−1)/4) turns the
    /// second into the first).
    fn sqrt(self) -> Option<Fe> {
        let root = self.mul(self.pow_p58());
        let sqrt_m1 = Fe::small(2).pow_p58().square().mul_small(2);
        [root, root.mul(sqrt_m1)]
            .into_iter()
            .find(|r| r.square().to_bytes() == self.to_bytes())
    }

    fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// `other` where `mask` is all ones, `self` where it is zero.
    fn select(self, other: Fe, mask: u64) -> Fe {
        let mut out = self.0;
        for (x, y) in out.iter_mut().zip(other.0) {
            *x ^= mask & (*x ^ y);
        }
        Fe(out)
    }

    /// Swap `a` and `b` when `bit` is 1, with a mask instead of a branch.
    fn cswap(a: &mut Fe, b: &mut Fe, bit: u64) {
        let mask = bit.wrapping_neg();
        for (x, y) in a.0.iter_mut().zip(b.0.iter_mut()) {
            let t = mask & (*x ^ *y);
            *x ^= t;
            *y ^= t;
        }
    }
}

/// Clamp a scalar per RFC 7748: a multiple of 8 in [2^254, 2^255).
fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] = k[31] & 127 | 64;
    k
}

/// Name of the ladder backend this build selected: `"x86-avx512-ifma"` or
/// `"portable"`.
pub fn backend() -> &'static str {
    if IFMA {
        "x86-avx512-ifma"
    } else {
        "portable"
    }
}

/// X25519 scalar multiplication: `scalar * u_point`, on the backend this
/// build selected (see [`backend`]).
pub fn x25519(k: [u8; 32], u_point: [u8; 32]) -> [u8; 32] {
    if IFMA {
        let [end, _] = ladder_pair([(k, u_point); 2]);
        affine(end)
    } else {
        x25519_portable(k, u_point)
    }
}

/// Two X25519 scalar multiplications, `k * u` for each `(k, u)`, on the
/// backend this build selected: one pass of the `ifma` backend, or two of
/// the portable ladder.
pub fn x25519_pair(pairs: [([u8; 32], [u8; 32]); 2]) -> [[u8; 32]; 2] {
    ladder_pair(pairs).map(affine)
}

/// [`x25519`] in portable scalar code: the backend of every build without
/// AVX-512 IFMA, and the reference the hardware backend is tested against
/// on builds with it.
pub fn x25519_portable(k: [u8; 32], u_point: [u8; 32]) -> [u8; 32] {
    affine(ladder(k, u_point))
}

/// The projective ladder results `(x2, z2)` of two pairs on the backend
/// this build selected.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma"
))]
#[allow(unsafe_code)]
#[inline]
fn ladder_pair(pairs: [([u8; 32], [u8; 32]); 2]) -> [(Fe, Fe); 2] {
    // SAFETY: the callee's only precondition is that the CPU has the target
    // features it enables (avx512f, avx512ifma), and the cfg on this very
    // item admits it to the build only when the compiler targets both.
    unsafe { ifma::ladder_pair(pairs) }
}

#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512ifma"
)))]
fn ladder_pair(pairs: [([u8; 32], [u8; 32]); 2]) -> [(Fe, Fe); 2] {
    pairs.map(|(k, u)| ladder(k, u))
}

/// The encoding of x2 / z2, where every ladder ends. A small-order point
/// leaves z2 = 0, whose "inverse" 0^(p−2) is 0, so the output is all zero.
fn affine((x2, z2): (Fe, Fe)) -> [u8; 32] {
    x2.mul(z2.invert()).to_bytes()
}

/// The Montgomery ladder of RFC 7748 §5, up to its projective result.
fn ladder(k: [u8; 32], u_point: [u8; 32]) -> (Fe, Fe) {
    let k = clamp(k);
    let x1 = Fe::from_bytes(&u_point);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0;
    for t in (0..255).rev() {
        let bit = ((k[t / 8] >> (t % 8)) & 1) as u64;
        Fe::cswap(&mut x2, &mut x3, swap ^ bit);
        Fe::cswap(&mut z2, &mut z3, swap ^ bit);
        swap = bit;
        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121665)));
    }
    Fe::cswap(&mut x2, &mut x3, swap);
    Fe::cswap(&mut z2, &mut z3, swap);
    (x2, z2)
}

/// A point on the Edwards curve −x² + y² = 1 + d·x²y², d = −121665/121666,
/// in extended coordinates: x = X/Z, y = Y/Z, xy = T/Z. The curve is
/// Curve25519 under u = (1 + y)/(1 − y).
#[derive(Clone, Copy)]
struct EdPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// An affine point as the mixed addition wants it: y + x, y − x, 2d·xy.
#[derive(Clone, Copy)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Niels {
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    fn select(self, other: &Niels, mask: u64) -> Niels {
        Niels {
            y_plus_x: self.y_plus_x.select(other.y_plus_x, mask),
            y_minus_x: self.y_minus_x.select(other.y_minus_x, mask),
            xy2d: self.xy2d.select(other.xy2d, mask),
        }
    }

    fn neg(self) -> Niels {
        Niels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: self.xy2d.neg(),
        }
    }
}

impl EdPoint {
    const IDENTITY: EdPoint = EdPoint {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// `self + q`: seven multiplications (madd-2008-hwcd-3). Like `double`,
    /// every sum fed to a product is of two reduced values, so stays under
    /// the 2^54 the module docs allow.
    fn add_niels(self, q: &Niels) -> EdPoint {
        let a = self.y.sub(self.x).mul(q.y_minus_x);
        let b = self.y.add(self.x).mul(q.y_plus_x);
        let c = self.t.mul(q.xy2d);
        let d = self.z.add(self.z);
        let (e, f, g, h) = (b.sub(a), d.sub(c), d.add(c), b.add(a));
        EdPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// `2·self` (dbl-2008-hwcd with a = −1).
    fn double(self) -> EdPoint {
        let (xx, yy) = (self.x.square(), self.y.square());
        let zz = self.z.square();
        let zz2 = zz.add(zz);
        let h = yy.add(xx);
        let g = yy.sub(xx);
        let e = self.x.add(self.y).square().sub(h);
        let f = zz2.sub(g);
        EdPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// The affine form, one inversion. `d2` is 2d.
    fn to_niels(self, d2: Fe) -> Niels {
        let zinv = self.z.invert();
        let (x, y) = (self.x.mul(zinv), self.y.mul(zinv));
        Niels {
            y_plus_x: y.add(x).weak_reduce(),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(d2),
        }
    }
}

fn edwards_d() -> Fe {
    Fe::small(121665).neg().mul(Fe::small(121666).invert())
}

/// `BASE_TABLE[i][j]` = (j + 1)·256^i·B, for B the Edwards point that maps
/// to u = 9: every scalar below 2^256 is a sum of 64 signed radix-16 digits
/// times one entry each. 32 × 8 × 120 bytes = 30 KiB, built on first use
/// (288 inversions, about 1.2 ms).
fn base_table() -> &'static [[Niels; 8]; 32] {
    static BASE_TABLE: std::sync::OnceLock<[[Niels; 8]; 32]> = std::sync::OnceLock::new();
    BASE_TABLE.get_or_init(|| {
        let d = edwards_d();
        let d2 = d.add(d).weak_reduce();
        let mut point = base_point(d);
        let mut table = [[Niels::IDENTITY; 8]; 32];
        for row in &mut table {
            let step = point.to_niels(d2);
            let mut multiple = EdPoint::IDENTITY;
            for entry in row.iter_mut() {
                multiple = multiple.add_niels(&step);
                *entry = multiple.to_niels(d2);
            }
            for _ in 0..8 {
                point = point.double();
            }
        }
        table
    })
}

/// B, derived rather than transcribed: y = 4/5 and x a root of the curve
/// equation (either root — ±B share their u), checked to sit over u = 9.
fn base_point(d: Fe) -> EdPoint {
    let y = Fe::small(4).mul(Fe::small(5).invert());
    let yy = y.square();
    let x = yy
        .sub(Fe::ONE)
        .mul(d.mul(yy).add(Fe::ONE).invert())
        .sqrt()
        .expect("y = 4/5 is on the curve");
    let u = Fe::ONE.add(y).mul(Fe::ONE.sub(y).invert());
    assert_eq!(
        u.to_bytes(),
        Fe::small(9).to_bytes(),
        "base point maps to u = 9"
    );
    EdPoint {
        x,
        y,
        z: Fe::ONE,
        t: x.mul(y),
    }
}

/// Table entry `digit`·256^i·B for `digit` in −8..=8, read with masks
/// rather than an index so the access pattern does not depend on the scalar.
fn select_multiple(row: &[Niels; 8], digit: i8) -> Niels {
    let magnitude = digit.unsigned_abs();
    let mut out = Niels::IDENTITY;
    for (j, entry) in row.iter().enumerate() {
        let hit = (u64::from(magnitude ^ (j as u8 + 1)).wrapping_sub(1) >> 63).wrapping_neg();
        out = out.select(entry, hit);
    }
    let negative = ((digit as u8 >> 7) as u64).wrapping_neg();
    out.select(&out.neg(), negative)
}

/// X25519 with the standard base point (u = 9): derive a public key. The
/// same function as `x25519(scalar, 9)`, computed as a fixed-base comb: 64
/// table additions and 4 doublings in place of the ladder's 255 steps.
pub fn x25519_base(k: [u8; 32]) -> [u8; 32] {
    // Signed radix 16: k = Σ digits[i]·16^i with every digit in −8..=8 (the
    // top one is at most 8 because the clamped scalar is below 2^255).
    let mut digits = [0i8; 64];
    for (pair, byte) in digits.chunks_exact_mut(2).zip(clamp(k)) {
        pair[0] = (byte & 15) as i8;
        pair[1] = (byte >> 4) as i8;
    }
    let mut carry = 0;
    for digit in &mut digits[..63] {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    digits[63] += carry;

    // Odd digits first, times 16, then the even ones: both halves use the
    // same 256^i table rows.
    let add_digits = |mut sum: EdPoint, parity: usize| {
        for (row, pair) in base_table().iter().zip(digits.chunks_exact(2)) {
            sum = sum.add_niels(&select_multiple(row, pair[parity]));
        }
        sum
    };
    let mut sum = add_digits(EdPoint::IDENTITY, 1);
    for _ in 0..4 {
        sum = sum.double();
    }
    let sum = add_digits(sum, 0);
    // u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y). B has prime order and a clamped
    // scalar is no multiple of it, so the sum is never the identity (Z = Y).
    sum.z.add(sum.y).mul(sum.z.sub(sum.y).invert()).to_bytes()
}

/// Decode 64 hex digits (at compile time for the table below).
const fn unhex(s: &str) -> [u8; 32] {
    let (s, mut out, mut i) = (s.as_bytes(), [0u8; 32], 0);
    while i < 64 {
        let digit = match s[i] {
            c @ b'0'..=b'9' => c - b'0',
            c @ b'a'..=b'f' => c - b'a' + 10,
            _ => panic!("not a hex digit"),
        };
        out[i / 2] = out[i / 2] << 4 | digit;
        i += 1;
    }
    out
}

/// Every `u` below 2^255 of order 1, 2, 4 or 8 on the curve or its twist
/// (0, 1, the two order-8 points, p − 1, p, p + 1): the points for which
/// [`x25519`] returns all zero whatever the scalar. Bit 255 is ignored, so
/// each also arrives with it set. For tests of whatever takes a peer's key.
pub const SMALL_ORDER_POINTS: [[u8; 32]; 7] = [
    unhex("0000000000000000000000000000000000000000000000000000000000000000"),
    unhex("0100000000000000000000000000000000000000000000000000000000000000"),
    unhex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
    unhex("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
    unhex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
    unhex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
    unhex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
];

/// A long-term X25519 secret key, with its public key computed once.
#[derive(Clone)]
pub struct StaticSecret {
    secret: [u8; 32],
    public: PublicKey,
}

/// An X25519 public key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey(pub [u8; 32]);

impl StaticSecret {
    /// Create from raw bytes (clamped on use).
    pub fn from_bytes(b: [u8; 32]) -> Self {
        StaticSecret {
            secret: b,
            public: PublicKey(x25519_base(b)),
        }
    }

    /// Generate from an RNG.
    pub fn random(rng: &mut impl rand::Rng) -> Self {
        let mut b = [0u8; 32];
        rng.fill(&mut b);
        StaticSecret::from_bytes(b)
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Diffie–Hellman with a peer's public key. `None` when the shared
    /// secret is all zero: the peer sent a small-order point, which would
    /// let it fix the derived keys whatever our secret is (RFC 7748 §6.1).
    pub fn diffie_hellman(&self, peer: &PublicKey) -> Option<[u8; 32]> {
        refuse_zero(x25519(self.secret, peer.0))
    }

    /// [`Self::diffie_hellman`] on two (secret, peer) pairs at once, through
    /// [`x25519_pair`]; each output is refused on its own.
    pub fn diffie_hellman_pair(pairs: [(&StaticSecret, &PublicKey); 2]) -> [Option<[u8; 32]>; 2] {
        x25519_pair(pairs.map(|(secret, peer)| (secret.secret, peer.0))).map(refuse_zero)
    }
}

/// `None` for the all-zero shared secret of a small-order peer key.
fn refuse_zero(shared: [u8; 32]) -> Option<[u8; 32]> {
    (shared.iter().fold(0, |acc, b| acc | b) != 0).then_some(shared)
}

impl PublicKey {
    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7748 §5.2's two test vectors: (scalar, u, output).
    const VECTORS: [([u8; 32], [u8; 32], [u8; 32]); 2] = [
        (
            unhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"),
            unhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"),
            unhex("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"),
        ),
        (
            unhex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"),
            unhex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"),
            unhex("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"),
        ),
    ];

    /// RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let (k, u, want) = VECTORS[0];
        assert_eq!(x25519(k, u), want, "{}", backend());
        assert_eq!(x25519_portable(k, u), want);
    }

    /// RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector2() {
        let (k, u, want) = VECTORS[1];
        assert_eq!(x25519(k, u), want, "{}", backend());
        assert_eq!(x25519_portable(k, u), want);
    }

    /// Both §5.2 vectors side by side through [`x25519_pair`], in both lane
    /// orders.
    #[test]
    fn rfc7748_vectors_through_pair() {
        let [(k1, u1, want1), (k2, u2, want2)] = VECTORS;
        assert_eq!(x25519_pair([(k1, u1), (k2, u2)]), [want1, want2]);
        assert_eq!(x25519_pair([(k2, u2), (k1, u1)]), [want2, want1]);
    }

    /// RFC 7748 §6.1 Diffie–Hellman test.
    #[test]
    fn rfc7748_dh() {
        let a_priv = unhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let b_priv = unhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let a_pub = x25519_base(a_priv);
        let b_pub = x25519_base(b_priv);
        assert_eq!(
            a_pub,
            unhex("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
        );
        assert_eq!(
            b_pub,
            unhex("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
        );
        let shared_a = x25519(a_priv, b_pub);
        let shared_b = x25519(b_priv, a_pub);
        let expected = unhex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
        assert_eq!(shared_a, expected);
        assert_eq!(shared_b, expected);
        // Both sides in one pair call, in both lane orders.
        assert_eq!(
            x25519_pair([(a_priv, b_pub), (b_priv, a_pub)]),
            [expected; 2]
        );
        assert_eq!(
            x25519_pair([(b_priv, a_pub), (a_priv, b_pub)]),
            [expected; 2]
        );
    }

    /// RFC 7748 §5.2 iterated test, 1 iteration (k = u = base).
    #[test]
    fn rfc7748_iterated_once() {
        let mut k = [0u8; 32];
        k[0] = 9;
        let u = k;
        let out = x25519(k, u);
        assert_eq!(
            out,
            unhex("422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079")
        );
    }

    /// RFC 7748 §5.2 iterated test, 1000 iterations (slow but important).
    #[test]
    fn rfc7748_iterated_1000() {
        let mut k = [0u8; 32];
        k[0] = 9;
        let mut u = k;
        for _ in 0..1000 {
            let out = x25519(k, u);
            u = k;
            k = out;
        }
        assert_eq!(
            k,
            unhex("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51")
        );
    }

    /// The ladder on u = 9: what [`x25519_base`] computed before the comb,
    /// and the reference it must agree with on every scalar.
    fn ladder_base(k: [u8; 32]) -> [u8; 32] {
        let mut base = [0u8; 32];
        base[0] = 9;
        x25519(k, base)
    }

    #[test]
    fn comb_matches_ladder_on_fixed_scalars() {
        let mut low_digits = [0x88u8; 32]; // every signed digit −8 or carries
        low_digits[0] = 0xf8;
        for k in [
            unhex("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"),
            unhex("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"),
            [0x00; 32], // clamps to 2^254: one non-zero digit
            [0xff; 32], // clamps to 2^255 − 8: the carry runs to the top digit
            [0x77; 32], // no digit recodes
            low_digits,
        ] {
            assert_eq!(x25519_base(k), ladder_base(k), "scalar {k:02x?}");
        }
    }

    #[test]
    fn comb_matches_ladder_on_random_scalars() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0B);
        let mut k = [0u8; 32];
        for _ in 0..1000 {
            rng.fill(&mut k);
            assert_eq!(x25519_base(k), ladder_base(k), "scalar {k:02x?}");
        }
    }

    /// The derived base point is on the curve and is the point RFC 8032
    /// names (up to sign): y = 4/5 encodes as 0x58 then thirty-one 0x66.
    #[test]
    fn derived_base_point_is_ed25519s() {
        let d = edwards_d();
        let b = base_point(d); // asserts u = 9 itself
        let mut y = [0x66u8; 32];
        y[0] = 0x58;
        assert_eq!(b.y.to_bytes(), y);
        let (xx, yy) = (b.x.square(), b.y.square());
        assert_eq!(
            yy.sub(xx).to_bytes(),
            Fe::ONE.add(d.mul(xx).mul(yy)).to_bytes()
        );
        // Row 0, entry 0 of the table is B itself; entry 1 doubles it.
        let twice = EdPoint::IDENTITY
            .add_niels(&base_table()[0][0])
            .add_niels(&base_table()[0][0]);
        let doubled = EdPoint::IDENTITY.add_niels(&base_table()[0][1]);
        assert_eq!(
            twice.y.mul(doubled.z).to_bytes(),
            doubled.y.mul(twice.z).to_bytes()
        );
    }

    #[test]
    fn sqrt_finds_roots_and_refuses_non_squares() {
        // 4 takes the first candidate; −1 = 1·(−1) takes the √−1 one
        // ((p+3)/8 is even); 2 is a non-residue for p ≡ 5 mod 8.
        for square in [Fe::small(4), Fe::ONE.neg()] {
            let root = square.sqrt().expect("a square");
            assert_eq!(root.square().to_bytes(), square.to_bytes());
        }
        assert!(Fe::small(2).sqrt().is_none());
    }

    #[test]
    fn static_secret_dh_agrees() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let a = StaticSecret::random(&mut rng);
        let b = StaticSecret::random(&mut rng);
        let s1 = a.diffie_hellman(&b.public_key());
        let s2 = b.diffie_hellman(&a.public_key());
        assert_eq!(s1, s2);
        assert!(s1.is_some());
    }

    /// Whatever backend this build selected computes exactly what the
    /// portable ladder does, with a different scalar and point in each lane.
    #[test]
    fn active_backend_equals_portable() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1F3A);
        let mut bytes = || {
            let mut b = [0u8; 32];
            rng.fill(&mut b);
            b
        };
        for case in 0..1000 {
            let (ka, ua, kb, ub) = (bytes(), bytes(), bytes(), bytes());
            let want = [x25519_portable(ka, ua), x25519_portable(kb, ub)];
            assert_eq!(
                x25519_pair([(ka, ua), (kb, ub)]),
                want,
                "case {case} on {}",
                backend()
            );
            if case % 10 == 0 {
                assert_eq!(x25519(ka, ua), want[0], "case {case} on {}", backend());
            }
        }
    }

    /// A non-canonical `u` in either lane — one of the 19 values in
    /// [p, 2^255), or any value with bit 255 set — multiplies like its
    /// reduced form, beside an ordinary point in the other lane.
    #[test]
    fn noncanonical_u_in_either_lane() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x255);
        let mut bytes = || {
            let mut b = [0u8; 32];
            rng.fill(&mut b);
            b
        };
        for d in 0..19u8 {
            let (mut above_p, mut reduced) = ([0xffu8; 32], [0u8; 32]);
            above_p[0] = 0xed + d;
            above_p[31] = 0x7f;
            reduced[0] = d;
            let mut high = bytes();
            let mut masked = high;
            high[31] |= 0x80;
            masked[31] &= 0x7f;
            let (k, k2, other) = (bytes(), bytes(), bytes());
            let normal = x25519_portable(k2, other);
            for (odd, plain) in [(above_p, reduced), (high, masked)] {
                let want = x25519_portable(k, plain);
                assert_eq!(x25519_portable(k, odd), want);
                assert_eq!(x25519_pair([(k, odd), (k2, other)]), [want, normal]);
                assert_eq!(x25519_pair([(k2, other), (k, odd)]), [normal, want]);
            }
        }
    }

    /// A small-order point in one lane sends that lane to zero and leaves
    /// the other alone; `diffie_hellman_pair` refuses only that lane.
    #[test]
    fn small_order_point_stays_in_its_lane() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let (ours, theirs) = (
            StaticSecret::random(&mut rng),
            StaticSecret::random(&mut rng),
        );
        let peer = theirs.public_key();
        let shared = ours.diffie_hellman(&peer).expect("an ordinary point");
        for mut point in SMALL_ORDER_POINTS {
            for top in [0, 0x80] {
                point[31] |= top;
                let bad = PublicKey(point);
                assert_eq!(
                    x25519_pair([(ours.secret, point), (ours.secret, peer.0)]),
                    [[0; 32], shared]
                );
                assert_eq!(
                    StaticSecret::diffie_hellman_pair([(&ours, &bad), (&ours, &peer)]),
                    [None, Some(shared)]
                );
                assert_eq!(
                    StaticSecret::diffie_hellman_pair([(&ours, &peer), (&theirs, &bad)]),
                    [Some(shared), None]
                );
            }
        }
    }

    proptest::proptest! {
        /// Encoding a decoded element gives the one representative below p:
        /// bit 255 dropped, p subtracted from the 19 values in [p, 2^255).
        #[test]
        fn field_encoding_is_canonical(mut bytes in proptest::array::uniform32(proptest::prelude::any::<u8>()),
                                       above_p in proptest::option::of(0u8..19)) {
            let mut want = bytes;
            want[31] &= 0x7f;
            if let Some(d) = above_p {
                bytes[0] = 0xed + d;
                bytes[1..31].fill(0xff);
                bytes[31] |= 0x7f;
                want = [0u8; 32];
                want[0] = d;
            }
            proptest::prop_assert_eq!(Fe::from_bytes(&bytes).to_bytes(), want);
        }
    }
}
