//! # onion-crypto — from-scratch primitives for the Bento reproduction
//!
//! Everything Tor-shaped in this workspace rests on a handful of primitives,
//! all implemented here with no external dependencies so the repository is
//! self-contained and auditable:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256; its compression function runs on the
//!   x86 SHA extensions when the build targets a CPU that has them
//!   ([`Sha256::backend`] says which), in portable scalar code otherwise.
//! * [`hmac`] — HMAC-SHA256 and HKDF (RFC 5869).
//! * [`aes`] — AES-128 (FIPS 197) in counter mode, Tor's relay-cell layer
//!   cipher; its keystream runs on the x86 AES instructions when the build
//!   targets a CPU that has them ([`Aes128Ctr::backend`] says which), in
//!   portable table-driven code otherwise.
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439), the cipher half
//!   of [`aead`].
//! * [`x25519`] — Curve25519 Diffie–Hellman (RFC 7748) via the Montgomery
//!   ladder over GF(2^255 − 19); the basis of the ntor circuit handshake.
//! * [`hashsig`] — Winternitz one-time signatures under a Merkle tree
//!   (an XMSS-style few-time scheme), used for directory and descriptor
//!   signatures; hash-based so it needs nothing beyond SHA-256, sixteen
//!   chains to a vectorized compression call.
//! * [`aead`] — encrypt-then-MAC authenticated encryption from ChaCha20 +
//!   HMAC-SHA256: the conclave channel, sealed storage and FS Protect.
//! * [`ntor`] — the ntor-style authenticated circuit handshake.
//!
//! These are *real* implementations — the test vectors in each module come
//! from the relevant RFCs — but this crate has not been audited. The X25519
//! ladder swaps with a mask, not a branch, its field arithmetic has no
//! secret-dependent branch or index, and MACs are compared in constant
//! time; nothing checks that the compiler keeps any of that so, and the
//! portable AES backend indexes tables with secret bytes. The crate
//! exists to make the reproduction's code paths genuine, not to protect
//! production traffic.

// `deny`, not `forbid`, for one reason, met twice: `sha256::compress` and
// `aes::ctr_xor` carry the workspace's only two `allow(unsafe_code)`, each
// a single call from a function without `#[target_feature]` into one with
// it, under a `cfg` on the same item that proves the features at compile
// time. Every other crate forbids.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod aes;
pub mod chacha20;
pub mod hashsig;
pub mod hmac;
pub mod ntor;
pub mod sha256;
pub mod x25519;

pub use aead::{open, seal, AeadError, AeadKey};
pub use aes::Aes128Ctr;
pub use chacha20::ChaCha20;
pub use hashsig::{MerkleSigner, MerkleVerifyKey, Signature};
pub use hmac::{hkdf, hmac_sha256};
pub use ntor::{client_begin, client_finish, server_respond, CircuitKeys, NtorError};
pub use sha256::sha256 as sha256_digest;
pub use sha256::Sha256;
pub use x25519::x25519 as x25519_mul;
pub use x25519::{x25519_base, PublicKey, StaticSecret};
