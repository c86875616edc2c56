//! Hash-based few-time signatures: Winternitz one-time signatures (w = 16)
//! under a Merkle tree, in the style of XMSS.
//!
//! Directory authorities and hidden services in this reproduction sign
//! consensus documents and service descriptors. Rather than pull in (or
//! reimplement) a full elliptic-curve signature scheme, we use a hash-based
//! scheme built entirely on the SHA-256 module: genuinely unforgeable under
//! standard assumptions, simple to audit, and a few-time property (2^h
//! signatures per key) that fits the epoch-signed documents it is used for.

use crate::hmac::HmacKey;
use crate::sha256::{chain_lanes, pad_lanes, sha256_concat, Lanes, DIGEST_LEN, H0, LANES};
use std::array::from_fn;

/// Winternitz parameter: 4 bits per chain.
const W_BITS: usize = 4;
const W: usize = 1 << W_BITS; // 16
/// Number of message chains (256-bit digest, 4 bits each).
const L1: usize = 256 / W_BITS; // 64
/// Number of checksum chains (max checksum 64*15 = 960 < 16^3).
const L2: usize = 3;
/// Total chains per one-time key.
const L: usize = L1 + L2; // 67

/// One signature: the Merkle leaf index, the WOTS chain values, and the
/// authentication path to the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Which one-time key was used.
    pub leaf_index: u32,
    /// The 67 revealed chain values.
    pub wots: Vec<[u8; DIGEST_LEN]>,
    /// Sibling hashes from leaf to root.
    pub auth_path: Vec<[u8; DIGEST_LEN]>,
}

impl Signature {
    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        4 + (self.wots.len() + self.auth_path.len()) * DIGEST_LEN + 2
    }

    /// Encode to bytes (leaf index, path length, chains, path).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&self.leaf_index.to_be_bytes());
        out.push(self.wots.len() as u8);
        out.push(self.auth_path.len() as u8);
        for c in &self.wots {
            out.extend_from_slice(c);
        }
        for a in &self.auth_path {
            out.extend_from_slice(a);
        }
        out
    }

    /// Decode from bytes; `None` on any structural problem.
    pub fn from_bytes(b: &[u8]) -> Option<Signature> {
        if b.len() < 6 {
            return None;
        }
        let leaf_index = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        let n_wots = b[4] as usize;
        let n_auth = b[5] as usize;
        if n_wots != L || n_auth > 32 {
            return None;
        }
        let need = 6 + (n_wots + n_auth) * DIGEST_LEN;
        if b.len() != need {
            return None;
        }
        let mut pos = 6;
        let mut take = || {
            let mut a = [0u8; DIGEST_LEN];
            a.copy_from_slice(&b[pos..pos + DIGEST_LEN]);
            pos += DIGEST_LEN;
            a
        };
        let wots = (0..n_wots).map(|_| take()).collect();
        let auth_path = (0..n_auth).map(|_| take()).collect();
        Some(Signature {
            leaf_index,
            wots,
            auth_path,
        })
    }
}

/// Split a digest into 4-bit digits plus checksum digits.
fn digits(msg_digest: &[u8; DIGEST_LEN]) -> [u8; L] {
    let mut d = [0u8; L];
    for (i, byte) in msg_digest.iter().enumerate() {
        d[2 * i] = byte >> 4;
        d[2 * i + 1] = byte & 0x0f;
    }
    let checksum: u32 = d[..L1].iter().map(|&x| (W - 1) as u32 - x as u32).sum();
    d[L1] = ((checksum >> 8) & 0x0f) as u8;
    d[L1 + 1] = ((checksum >> 4) & 0x0f) as u8;
    d[L1 + 2] = (checksum & 0x0f) as u8;
    d
}

/// The first `N` big-endian words of `bytes`.
fn be_words<const N: usize>(bytes: &[u8]) -> [u32; N] {
    from_fn(|i| u32::from_be_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes")))
}

/// `LANES` chains advanced in lockstep, lane `l` by `steps[l]` applications
/// of the step function `x -> SHA-256("bento-wots-chain" ‖ x)` (lanes past
/// the end of `steps` stand still). A digest's words are the next block's
/// message words, so the chain never leaves word form.
fn advance(x: &mut [Lanes; 8], steps: &[u8]) {
    let steps: Lanes = from_fn(|l| steps.get(l).map_or(0, |&s| s as u32));
    let mut msg = [[0u32; LANES]; 12];
    for (row, word) in msg.iter_mut().zip(be_words::<4>(b"bento-wots-chain")) {
        *row = [word; LANES];
    }
    msg[4..].copy_from_slice(x);
    *x = chain_lanes(H0, pad_lanes(0, &msg), 4, steps);
}

/// Secret chain starts `HMAC(seed, leaf ‖ chain)`, one per lane, for the
/// key's chains `first..first + LANES` counted across leaves: chain `n` of
/// the key is chain `n % L` of leaf `n / L`.
fn secret_lanes(key: &HmacKey, first: usize) -> [Lanes; 8] {
    let info = [
        from_fn(|l| ((first + l) / L) as u32),
        from_fn(|l| ((first + l) % L) as u32),
    ];
    key.mac_lanes(&info)
}

/// Lane `l` of `x` as bytes.
fn lane_bytes(x: &[Lanes; 8], l: usize) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, row) in out.chunks_exact_mut(4).zip(x) {
        bytes.copy_from_slice(&row[l].to_be_bytes());
    }
    out
}

/// Run all `L` chains of one WOTS key, `LANES` at a time: chain `c` starts
/// from lane `c - first` of `start(first)` and takes `steps[c]` steps.
fn run_chains(steps: &[u8; L], start: impl Fn(usize) -> [Lanes; 8]) -> [[u8; DIGEST_LEN]; L] {
    let mut out = [[0u8; DIGEST_LEN]; L];
    for (group, (vals, steps)) in out.chunks_mut(LANES).zip(steps.chunks(LANES)).enumerate() {
        let mut x = start(group * LANES);
        advance(&mut x, steps);
        for (l, val) in vals.iter_mut().enumerate() {
            *val = lane_bytes(&x, l);
        }
    }
    out
}

/// Compress the 67 chain tops into a leaf hash.
fn leaf_hash(tops: &[[u8; DIGEST_LEN]]) -> [u8; DIGEST_LEN] {
    let mut parts: Vec<&[u8]> = Vec::with_capacity(tops.len() + 1);
    parts.push(b"bento-wots-leaf");
    for t in tops {
        parts.push(t);
    }
    sha256_concat(&parts)
}

fn node_hash(left: &[u8; DIGEST_LEN], right: &[u8; DIGEST_LEN]) -> [u8; DIGEST_LEN] {
    sha256_concat(&[b"bento-merkle-node", left, right])
}

/// A signing key: a seed, a signature budget of `2^height`, and the
/// precomputed Merkle tree.
pub struct MerkleSigner {
    seed: [u8; 32],
    height: usize,
    /// tree[0] = leaves, tree[h] = [root]
    tree: Vec<Vec<[u8; DIGEST_LEN]>>,
    next_leaf: u32,
}

/// The verification key: the Merkle root and tree height.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MerkleVerifyKey {
    /// Merkle root committing to all one-time public keys.
    pub root: [u8; DIGEST_LEN],
    /// Tree height (`2^height` signatures available).
    pub height: u8,
}

impl MerkleSigner {
    /// Generate a signer from a seed. `height` of 4–8 is typical. Keygen
    /// runs `2^height * 67` chains of 15 steps, each step one compression,
    /// plus two HMAC compressions for each chain's secret, plus one leaf
    /// hash (34 compressions) a leaf. The chains of consecutive leaves share
    /// lane groups, so only the key's last group can have idle lanes.
    pub fn generate(seed: [u8; 32], height: usize) -> Self {
        assert!((1..=16).contains(&height), "unreasonable tree height");
        let key = HmacKey::new(&seed);
        let n_chains = L << height;
        let mut leaves = Vec::with_capacity(1 << height);
        let mut tops = [[0u8; DIGEST_LEN]; L];
        for first in (0..n_chains).step_by(LANES) {
            let lanes = LANES.min(n_chains - first);
            let mut x = secret_lanes(&key, first);
            advance(&mut x, &[W as u8 - 1; LANES][..lanes]);
            for l in 0..lanes {
                let chain = (first + l) % L;
                tops[chain] = lane_bytes(&x, l);
                if chain == L - 1 {
                    leaves.push(leaf_hash(&tops));
                }
            }
        }
        let mut tree = vec![leaves];
        for level in 0..height {
            let prev = &tree[level];
            let next: Vec<[u8; DIGEST_LEN]> = prev
                .chunks(2)
                .map(|pair| node_hash(&pair[0], &pair[1]))
                .collect();
            tree.push(next);
        }
        MerkleSigner {
            seed,
            height,
            tree,
            next_leaf: 0,
        }
    }

    /// The verification key.
    pub fn verify_key(&self) -> MerkleVerifyKey {
        MerkleVerifyKey {
            root: self.tree[self.height][0],
            height: self.height as u8,
        }
    }

    /// Signatures remaining before the key is exhausted.
    pub fn remaining(&self) -> u32 {
        (1u32 << self.height) - self.next_leaf
    }

    /// Sign `msg`; consumes one one-time key. `None` when exhausted.
    pub fn sign(&mut self, msg: &[u8]) -> Option<Signature> {
        if self.remaining() == 0 {
            return None;
        }
        let leaf = self.next_leaf;
        self.next_leaf += 1;
        let digest = sha256_concat(&[b"bento-wots-msg", msg]);
        let d = digits(&digest);
        let key = HmacKey::new(&self.seed);
        let wots = run_chains(&d, |c| secret_lanes(&key, leaf as usize * L + c)).to_vec();
        let mut auth_path = Vec::with_capacity(self.height);
        let mut idx = leaf as usize;
        for level in 0..self.height {
            auth_path.push(self.tree[level][idx ^ 1]);
            idx >>= 1;
        }
        Some(Signature {
            leaf_index: leaf,
            wots,
            auth_path,
        })
    }
}

impl MerkleVerifyKey {
    /// Verify `sig` over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        if sig.wots.len() != L || sig.auth_path.len() != self.height as usize {
            return false;
        }
        if sig.leaf_index as u64 >= 1u64 << self.height {
            return false;
        }
        let digest = sha256_concat(&[b"bento-wots-msg", msg]);
        let d = digits(&digest);
        let tops = run_chains(&d.map(|x| W as u8 - 1 - x), |first| {
            let vals = &sig.wots[first..L.min(first + LANES)];
            from_fn(|i| from_fn(|l| vals.get(l).map_or(0, |v| be_words::<8>(v)[i])))
        });
        let mut node = leaf_hash(&tops);
        let mut idx = sig.leaf_index as usize;
        for sibling in &sig.auth_path {
            node = if idx & 1 == 0 {
                node_hash(&node, sibling)
            } else {
                node_hash(sibling, &node)
            };
            idx >>= 1;
        }
        node == self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signer() -> MerkleSigner {
        MerkleSigner::generate([7u8; 32], 3)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut s = signer();
        let vk = s.verify_key();
        let sig = s.sign(b"consensus document").unwrap();
        assert!(vk.verify(b"consensus document", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut s = signer();
        let vk = s.verify_key();
        let sig = s.sign(b"real").unwrap();
        assert!(!vk.verify(b"fake", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut s = signer();
        let vk = s.verify_key();
        let mut sig = s.sign(b"m").unwrap();
        sig.wots[3][0] ^= 1;
        assert!(!vk.verify(b"m", &sig));
        let mut sig2 = s.sign(b"m").unwrap();
        sig2.auth_path[0][5] ^= 0x80;
        assert!(!vk.verify(b"m", &sig2));
    }

    #[test]
    fn all_leaves_usable_then_exhausted() {
        let mut s = signer();
        let vk = s.verify_key();
        for i in 0..8 {
            let msg = format!("epoch {i}");
            let sig = s.sign(msg.as_bytes()).unwrap();
            assert_eq!(sig.leaf_index, i);
            assert!(vk.verify(msg.as_bytes(), &sig));
        }
        assert_eq!(s.remaining(), 0);
        assert!(s.sign(b"one too many").is_none());
    }

    #[test]
    fn signature_under_wrong_key_rejected() {
        let mut s1 = signer();
        let mut s2 = MerkleSigner::generate([8u8; 32], 3);
        let vk1 = s1.verify_key();
        let sig2 = s2.sign(b"m").unwrap();
        assert!(!vk1.verify(b"m", &sig2));
        let sig1 = s1.sign(b"m").unwrap();
        assert!(vk1.verify(b"m", &sig1));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut s = signer();
        let vk = s.verify_key();
        let sig = s.sign(b"wire").unwrap();
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), sig.encoded_len());
        let back = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(back, sig);
        assert!(vk.verify(b"wire", &back));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Signature::from_bytes(&[]).is_none());
        assert!(Signature::from_bytes(&[0; 5]).is_none());
        let mut s = signer();
        let mut bytes = s.sign(b"x").unwrap().to_bytes();
        bytes.pop();
        assert!(Signature::from_bytes(&bytes).is_none());
        bytes.push(0);
        bytes.push(0);
        assert!(Signature::from_bytes(&bytes).is_none());
    }

    #[test]
    fn out_of_range_leaf_index_rejected() {
        let mut s = signer();
        let vk = s.verify_key();
        let mut sig = s.sign(b"m").unwrap();
        sig.leaf_index = 1 << 10;
        assert!(!vk.verify(b"m", &sig));
    }

    /// Every lane of `advance` is the scalar chain, for step lists of every
    /// length up to `LANES` (the lanes past the end stand still).
    #[test]
    fn advance_equals_scalar_chains_for_short_step_lists() {
        use crate::sha256::sha256;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        for len in 0..=LANES {
            let start: [Lanes; 8] = from_fn(|_| from_fn(|_| rng.gen()));
            let steps: Vec<u8> = (0..len).map(|_| rng.gen_range(0..W as u8)).collect();
            let mut x = start;
            advance(&mut x, &steps);
            for l in 0..LANES {
                let mut want = lane_bytes(&start, l);
                for _ in 0..steps.get(l).copied().unwrap_or(0) {
                    want = sha256(&[&b"bento-wots-chain"[..], &want].concat());
                }
                assert_eq!(lane_bytes(&x, l), want, "{len} steps given, lane {l}");
            }
        }
    }

    /// Roots and first signatures pinned from the scalar code: keys and
    /// signatures are a function of the seed alone, whatever computes them.
    #[test]
    fn keys_and_signatures_are_pinned() {
        use crate::sha256::{digest_hex, sha256};
        let pinned = [
            (
                "4a0c857e4fc9629761ae594e950b3b2a6e2b7e7d34b0f03be463cb77e8486d16",
                "f9c5a71d2a0610912b3427382b0c821ba3a0c2e50eb5bd4ab38471f2294ebbd4",
            ),
            (
                "44009ebc7091291a7769b69ac8a81ad3c99bfc26e73cb268bb25d6c18898f621",
                "bf707ad43775f681b6644111d39ee45d692e240856512655e00ba933013e1c36",
            ),
            (
                "0b764515e21928379e9ba1dacc2d7150dabc6809d1ab0b25be4ea2ac193b3604",
                "877f29cb8f8d0e78d83e187c4899f97a3d471ffa634c47588de0c3683f1bee2b",
            ),
            (
                "c8e6f34cfebdc8f4a1a6d624e6684b75911f07bf61305c122b2ccfdbdda8ecd6",
                "9d24a80e60002cccbce6316466220badfc01f648aec7c4178ecafeb10e717128",
            ),
            (
                "0a240df413ac6a8eb5dd3bd50ccc2a990b282e2c09f3668dc308bb9658101fe3",
                "bd6fe56072698e7b2b6998c4d3ce944c8c74699cb763c7c3ab9a5c27ee3e60ec",
            ),
            (
                "230e6b9078065487f9d3f7de14e21711d05f14e8c88b9a20ff1cbd08ec1865e7",
                "abb90fd3c057f948c0ded3779295238b3a9ede90033d416fc7d345afeb1a6737",
            ),
        ];
        for (height, (root, sig_digest)) in (1..=6).zip(pinned) {
            let mut s = MerkleSigner::generate([0x5e; 32], height);
            let sig = s.sign(b"pinned message").unwrap();
            assert_eq!(digest_hex(&s.verify_key().root), root, "height {height}");
            assert_eq!(
                digest_hex(&sha256(&sig.to_bytes())),
                sig_digest,
                "height {height}"
            );
            assert!(s.verify_key().verify(b"pinned message", &sig));
        }
    }
}
