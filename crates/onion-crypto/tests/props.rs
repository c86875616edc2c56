//! Property-based tests of the crypto substrate.

use onion_crypto::aead::{open, open_in_place, seal, seal_in_place, AeadKey, TAG_LEN};
use onion_crypto::chacha20::ChaCha20;
use onion_crypto::hashsig::{MerkleSigner, Signature};
use onion_crypto::sha256::{sha256, Sha256};
use onion_crypto::x25519::{x25519, x25519_base, PublicKey, StaticSecret, SMALL_ORDER_POINTS};
use proptest::prelude::*;

proptest! {
    /// Incremental hashing equals one-shot for any split.
    #[test]
    fn sha256_incremental(data in proptest::collection::vec(any::<u8>(), 0..4096),
                          split in 0usize..4096) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// ChaCha20 is an involution under the same key/nonce and position.
    #[test]
    fn chacha_roundtrip(key in proptest::array::uniform32(any::<u8>()),
                        nonce in proptest::array::uniform12(any::<u8>()),
                        data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let ct = ChaCha20::new(&key, &nonce).apply_copy(&data);
        let pt = ChaCha20::new(&key, &nonce).apply_copy(&ct);
        prop_assert_eq!(pt, data);
    }

    /// Streaming in arbitrary chunk sizes equals one-shot encryption.
    #[test]
    fn chacha_chunking(data in proptest::collection::vec(any::<u8>(), 1..2048),
                       chunk in 1usize..257) {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let whole = ChaCha20::new(&key, &nonce).apply_copy(&data);
        let mut c = ChaCha20::new(&key, &nonce);
        let mut pieced = Vec::new();
        for part in data.chunks(chunk) {
            pieced.extend_from_slice(&c.apply_copy(part));
        }
        prop_assert_eq!(pieced, whole);
    }

    /// AEAD roundtrips; any single-bit flip is rejected.
    #[test]
    fn aead_roundtrip_and_tamper(master in proptest::array::uniform32(any::<u8>()),
                                 nonce in proptest::array::uniform12(any::<u8>()),
                                 aad in proptest::collection::vec(any::<u8>(), 0..64),
                                 pt in proptest::collection::vec(any::<u8>(), 0..1024),
                                 flip_byte in 0usize..1056, flip_bit in 0u8..8) {
        let key = AeadKey::from_master(&master);
        let sealed = seal(&key, &nonce, &aad, &pt);
        prop_assert_eq!(open(&key, &nonce, &aad, &sealed).unwrap(), pt);
        let mut bad = sealed.clone();
        let idx = flip_byte % bad.len();
        bad[idx] ^= 1 << flip_bit;
        prop_assert!(open(&key, &nonce, &aad, &bad).is_err());
    }

    /// Streaming through a *random sequence* of chunk sizes equals one-shot:
    /// every boundary between the buffered path, the narrow pass, and the
    /// wide pass is crossed at some point.
    #[test]
    fn chacha_random_chunk_sizes(data in proptest::collection::vec(any::<u8>(), 1..4096),
                                 cuts in proptest::collection::vec(1usize..1200, 1..16)) {
        let key = [3u8; 32];
        let nonce = [1u8; 12];
        let whole = ChaCha20::new(&key, &nonce).apply_copy(&data);
        let mut c = ChaCha20::new(&key, &nonce);
        let mut pieced = Vec::new();
        let mut rest: &[u8] = &data;
        let mut i = 0;
        while !rest.is_empty() {
            let take = cuts[i % cuts.len()].min(rest.len());
            i += 1;
            pieced.extend_from_slice(&c.apply_copy(&rest[..take]));
            rest = &rest[take..];
        }
        prop_assert_eq!(pieced, whole);
    }

    /// `clone_finalize` equals `clone().finalize()` at any prefix length and
    /// leaves the running state untouched.
    #[test]
    fn sha256_clone_finalize(data in proptest::collection::vec(any::<u8>(), 0..2048),
                             split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        prop_assert_eq!(h.clone_finalize(), h.clone().finalize());
        prop_assert_eq!(h.clone_finalize(), sha256(&data[..split]));
        // The peek must not disturb the running digest.
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// The in-place AEAD agrees with the allocating API in both directions.
    #[test]
    fn aead_in_place_matches(master in proptest::array::uniform32(any::<u8>()),
                             nonce in proptest::array::uniform12(any::<u8>()),
                             aad in proptest::collection::vec(any::<u8>(), 0..64),
                             pt in proptest::collection::vec(any::<u8>(), 0..1024)) {
        let key = AeadKey::from_master(&master);
        let mut buf = pt.clone();
        seal_in_place(&key, &nonce, &aad, &mut buf);
        prop_assert_eq!(&buf, &seal(&key, &nonce, &aad, &pt));
        prop_assert_eq!(buf.len(), pt.len() + TAG_LEN);
        open_in_place(&key, &nonce, &aad, &mut buf).unwrap();
        prop_assert_eq!(&buf, &pt);
        // A tampered buffer is rejected with the ciphertext left intact.
        let mut bad = seal(&key, &nonce, &aad, &pt);
        let idx = bad.len() - 1;
        bad[idx] ^= 1;
        let snapshot = bad.clone();
        prop_assert!(open_in_place(&key, &nonce, &aad, &mut bad).is_err());
        prop_assert_eq!(bad, snapshot);
    }

    /// Signature decode never panics, and decode(encode(sig)) is identity.
    #[test]
    fn hashsig_codec(msg in proptest::collection::vec(any::<u8>(), 0..256),
                     garbage in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut signer = MerkleSigner::generate([5u8; 32], 1);
        let sig = signer.sign(&msg).unwrap();
        let back = Signature::from_bytes(&sig.to_bytes()).unwrap();
        prop_assert_eq!(&back, &sig);
        prop_assert!(signer.verify_key().verify(&msg, &back));
        let _ = Signature::from_bytes(&garbage); // must not panic
    }

    /// Both sides of a Diffie–Hellman exchange reach the same secret.
    #[test]
    fn x25519_dh_commutes(a in proptest::array::uniform32(any::<u8>()),
                          b in proptest::array::uniform32(any::<u8>())) {
        prop_assert_eq!(x25519(a, x25519_base(b)), x25519(b, x25519_base(a)));
    }

    /// A non-canonical `u` — bit 255 set, or one of the 19 values in
    /// [p, 2^255) — multiplies like its reduced form.
    #[test]
    fn x25519_reduces_noncanonical_u(k in proptest::array::uniform32(any::<u8>()),
                                     u in proptest::array::uniform32(any::<u8>()),
                                     d in 0u8..19) {
        let (mut masked, mut high) = (u, u);
        masked[31] &= 0x7f;
        high[31] |= 0x80;
        prop_assert_eq!(x25519(k, high), x25519(k, masked));
        let (mut reduced, mut above_p) = ([0u8; 32], [0xffu8; 32]);
        reduced[0] = d;
        above_p[0] = 0xed + d;
        above_p[31] = 0x7f;
        prop_assert_eq!(x25519(k, above_p), x25519(k, reduced));
    }

    /// Every small-order point, with bit 255 clear or set, sends every
    /// scalar to zero, and `diffie_hellman` refuses it.
    #[test]
    fn x25519_small_order_points_are_refused(k in proptest::array::uniform32(any::<u8>())) {
        for mut point in SMALL_ORDER_POINTS {
            for top in [0, 0x80] {
                point[31] |= top;
                prop_assert_eq!(x25519(k, point), [0u8; 32]);
                prop_assert_eq!(StaticSecret::from_bytes(k).diffie_hellman(&PublicKey(point)), None);
            }
        }
    }
}
