//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//!
//! HKDF is how circuit handshakes expand a shared secret into the forward
//! and backward onion keys, and how FS Protect derives its file keys.

use crate::sha256::{finish_lanes, Lanes, Sha256, DIGEST_LEN, H0};

const BLOCK: usize = 64;

/// HMAC-SHA256 of `msg` under `key`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256_parts(key, &[msg])
}

/// The inner and outer key blocks: the key (hashed first if longer than a
/// block) zero-padded and XORed with 0x36 and 0x5c.
fn key_pads(key: &[u8]) -> [[u8; BLOCK]; 2] {
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        k[..DIGEST_LEN].copy_from_slice(&crate::sha256::sha256(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    [0x36, 0x5c].map(|pad| k.map(|b| b ^ pad))
}

/// An HMAC-SHA256 key with its inner and outer key blocks already
/// compressed: two of a short message's four or five compressions, paid
/// once per key instead of once per tag.
#[derive(Clone)]
pub(crate) struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    pub(crate) fn new(key: &[u8]) -> Self {
        let [inner, outer] = key_pads(key).map(|block| {
            let mut state = H0;
            Sha256::compress_into(&mut state, &block);
            state
        });
        HmacKey { inner, outer }
    }

    /// The tag over the concatenation of `parts`.
    pub(crate) fn mac_parts(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut inner = Sha256::from_midstate(self.inner, BLOCK as u64);
        for p in parts {
            inner.update(p);
        }
        let mut outer = Sha256::from_midstate(self.outer, BLOCK as u64);
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// `LANES` tags at once, for messages of at most 13 words each
    /// (`msg[i][l]` is word `i` of lane `l`'s message); the tags in word
    /// form. Equal to [`hmac_sha256`] lane by lane.
    pub(crate) fn mac_lanes(&self, msg: &[Lanes]) -> [Lanes; 8] {
        let inner = finish_lanes(self.inner, BLOCK as u32, msg);
        finish_lanes(self.outer, BLOCK as u32, &inner)
    }
}

/// HMAC over multiple message parts, streamed straight into the inner hash
/// (the message is never concatenated into a scratch buffer).
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac_parts(parts)
}

/// HKDF-Extract: a pseudorandom key from input keying material and salt.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: `N` bytes of output keying material from a PRK and info.
///
/// # Panics
/// If `N > 255 * 32` (the RFC 5869 limit).
pub fn hkdf_expand<const N: usize>(prk: &[u8; DIGEST_LEN], info: &[u8]) -> [u8; N] {
    assert!(N <= 255 * DIGEST_LEN, "HKDF output too long");
    let mut out = [0u8; N];
    let mut t = [0u8; DIGEST_LEN];
    for (i, chunk) in out.chunks_mut(DIGEST_LEN).enumerate() {
        // T(i) = HMAC(prk, T(i-1) | info | i), with T(0) empty.
        let prev = if i == 0 { &[][..] } else { &t[..] };
        t = hmac_sha256_parts(prk, &[prev, info, &[i as u8 + 1]]);
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
    out
}

/// Full HKDF: extract then expand to `N` bytes.
pub fn hkdf<const N: usize>(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; N] {
    hkdf_expand(&hkdf_extract(salt, ikm), info)
}

/// Constant-time equality for MACs and tokens.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&out),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&out),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let out = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            hex(&out),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: oversized key is hashed first.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let out = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&out),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let okm: [u8; 42] = hkdf(&salt, &ikm, &info);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 test case 3: empty salt and info.
    #[test]
    fn rfc5869_case3() {
        let ikm = [0x0b; 22];
        let okm: [u8; 42] = hkdf(&[], &ikm, &[]);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn hkdf_expand_rejects_oversize() {
        let prk = [0u8; 32];
        let r = std::panic::catch_unwind(|| hkdf_expand::<{ 255 * 32 + 1 }>(&prk, b""));
        assert!(r.is_err());
    }

    #[test]
    fn ct_eq_behaves() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sane"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }

    /// Sixteen lane tags, on the build's lane backend, equal the scalar
    /// tag of each lane's message, for every message length the lanes take
    /// and for a key longer than a block.
    #[test]
    fn mac_lanes_equals_scalar_in_every_lane() {
        use crate::sha256::LANES;
        use rand::{Rng, SeedableRng};
        use std::array::from_fn;
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for words in 0..=13 {
            let key: Vec<u8> = (0..[32, 20, 100][words % 3]).map(|_| rng.gen()).collect();
            let msg: Vec<Lanes> = (0..words).map(|_| from_fn(|_| rng.gen())).collect();
            let tags = HmacKey::new(&key).mac_lanes(&msg);
            for l in 0..LANES {
                let bytes: Vec<u8> = msg.iter().flat_map(|row| row[l].to_be_bytes()).collect();
                let want = hmac_sha256(&key, &bytes);
                let got: Vec<u8> = tags.iter().flat_map(|row| row[l].to_be_bytes()).collect();
                assert_eq!(got, want, "{words} words, lane {l}");
            }
        }
    }

    #[test]
    fn parts_equals_concat() {
        assert_eq!(
            hmac_sha256_parts(b"k", &[b"a", b"bc", b""]),
            hmac_sha256(b"k", b"abc")
        );
    }
}
