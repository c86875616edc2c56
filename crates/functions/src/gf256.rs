//! GF(2^8) arithmetic (AES polynomial 0x11B) — the field under Shard's
//! erasure code.

/// Multiply two field elements.
pub fn mul(a: u8, b: u8) -> u8 {
    let mut a = a as u16;
    let mut b = b as u16;
    let mut p = 0u16;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a <<= 1;
        if a & 0x100 != 0 {
            a ^= 0x11B;
        }
        b >>= 1;
    }
    p as u8
}

/// Add (== subtract) in GF(2^8).
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// `a^n`.
pub fn pow(mut a: u8, mut n: u32) -> u8 {
    let mut r = 1u8;
    while n > 0 {
        if n & 1 == 1 {
            r = mul(r, a);
        }
        a = mul(a, a);
        n >>= 1;
    }
    r
}

/// Multiplicative inverse; panics on 0.
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "division by zero in GF(256)");
    // a^(2^8 - 2) = a^254.
    pow(a, 254)
}

/// `a / b`.
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// Multiply-accumulate a slice: `dst ^= coeff * src`, elementwise.
pub fn mul_acc(dst: &mut [u8], coeff: u8, src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    if coeff == 0 {
        return;
    }
    if coeff == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
        return;
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= mul(coeff, *s);
    }
}

/// Invert a square matrix over GF(256) by Gauss–Jordan. `None` if singular.
pub fn invert_matrix(m: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let n = m.len();
    let mut a: Vec<Vec<u8>> = m.to_vec();
    let mut b: Vec<Vec<u8>> = (0..n)
        .map(|i| (0..n).map(|j| (i == j) as u8).collect())
        .collect();
    for col in 0..n {
        // Find a pivot.
        let pivot = (col..n).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        b.swap(col, pivot);
        let p = inv(a[col][col]);
        for j in 0..n {
            a[col][j] = mul(a[col][j], p);
            b[col][j] = mul(b[col][j], p);
        }
        for r in 0..n {
            if r != col && a[r][col] != 0 {
                let f = a[r][col];
                for j in 0..n {
                    a[r][j] ^= mul(f, a[col][j]);
                    b[r][j] ^= mul(f, b[col][j]);
                }
            }
        }
    }
    Some(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_hold() {
        // Spot-check associativity/commutativity/distributivity over a
        // sample of triples.
        for a in (1u8..=255).step_by(17) {
            for b in (1u8..=255).step_by(23) {
                for c in (1u8..=255).step_by(31) {
                    assert_eq!(mul(a, b), mul(b, a));
                    assert_eq!(mul(a, mul(b, c)), mul(mul(a, b), c));
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn known_products() {
        // Classic AES-field vectors.
        assert_eq!(mul(0x53, 0xCA), 0x01);
        assert_eq!(mul(0x02, 0x87), 0x15);
        assert_eq!(mul(0xFF, 0x00), 0x00);
        assert_eq!(mul(0x01, 0xAB), 0xAB);
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1u8..=255 {
            assert_eq!(mul(a, inv(a)), 1, "inverse of {a}");
        }
    }

    #[test]
    fn div_is_mul_by_inverse() {
        assert_eq!(div(mul(7, 9), 9), 7);
        assert_eq!(div(0, 5), 0);
    }

    #[test]
    #[expect(
        clippy::needless_range_loop,
        reason = "index math mirrors the A*A^-1 formula"
    )]
    fn matrix_inversion_roundtrip() {
        // A Vandermonde matrix is invertible; A * A^-1 = I.
        let n = 5;
        let m: Vec<Vec<u8>> = (0..n)
            .map(|i| (0..n).map(|j| pow((i + 1) as u8, j as u32)).collect())
            .collect();
        let mi = invert_matrix(&m).expect("invertible");
        for i in 0..n {
            for j in 0..n {
                let mut s = 0u8;
                for k in 0..n {
                    s ^= mul(m[i][k], mi[k][j]);
                }
                assert_eq!(s, (i == j) as u8, "({i},{j})");
            }
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let m = vec![vec![1, 2], vec![1, 2]];
        assert!(invert_matrix(&m).is_none());
    }

    #[test]
    fn mul_acc_matches_scalar_loop() {
        let src = [1u8, 2, 3, 200, 255];
        let mut dst = [9u8, 8, 7, 6, 5];
        let mut expect = dst;
        for (d, s) in expect.iter_mut().zip(src.iter()) {
            *d ^= mul(0x1D, *s);
        }
        mul_acc(&mut dst, 0x1D, &src);
        assert_eq!(dst, expect);
    }
}
