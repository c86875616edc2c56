//! # bento-functions — the paper's middlebox functions
//!
//! Every function the paper presents, implemented against the
//! [`bento::Function`] API:
//!
//! * [`browser::Browser`] (§7) — fetches a whole page at the exit node,
//!   compresses it into a single digest, pads it to a multiple of the
//!   requested size, and ships it back: the website-fingerprinting defense
//!   of Table 1 and Table 2.
//! * [`cover::Cover`] (§9.1) — keeps a fixed-rate stream of cover traffic
//!   flowing so observed volume is independent of real activity.
//! * [`dropbox::Dropbox`] (§9.2) — ephemeral in-network storage with
//!   capability (invocation-token) access, get limits and expiry.
//! * [`shard::Shard`] (§9.3) — spreads a file across multiple Dropboxes
//!   with a systematic Reed–Solomon code (the "digital fountain approach"):
//!   any k of N shards reconstruct.
//! * [`load_balancer`] (§8) — a hidden-service front end that forwards each
//!   INTRODUCE2 to the least-loaded replica and auto-scales the replica set
//!   between watermarks; replicas share the service key material.
//!
//! §9.4's future-work items: [`multipath`] (split one fetch across k
//! circuits) is here. Proof-of-work-gated introductions are not: they live
//! in `tor-net` (`tor_net::hs::solve_pow` + `HiddenServiceHost::with_pow`),
//! no function here calls them, and only `tor-net`'s own network test
//! drives them — the HS DoS defence is parked (ROADMAP "Parked").
//!
//! Plus the substrate those functions need: a [`web`] page model shared
//! with the fingerprinting harness, a small [`compress`] codec (the
//! paper's zlib step), [`gf256`]/[`erasure`] for Shard, and [`boxlink`],
//! the in-function Bento client used for *function composition* (Figure 2:
//! Browser deploying a Dropbox).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boxlink;
pub mod browser;
pub mod compress;
pub mod cover;
pub mod dropbox;
pub mod erasure;
pub mod gf256;
pub mod load_balancer;
pub mod multipath;
pub mod registry;
pub mod shard;
pub mod web;

pub use registry::standard_registry;
