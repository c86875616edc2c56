//! # tor-net — a Tor overlay network on the `simnet` simulator
//!
//! This crate implements, from scratch, everything the Bento paper assumes
//! of the Tor substrate it runs on:
//!
//! * **Cells** ([`cell`]): fixed 514-byte link cells with the relay-cell
//!   sublayout (recognized / stream id / digest / length), and the EXTEND
//!   and BEGIN bodies.
//! * **Layered onion crypto** ([`relay_crypto`]): per-hop AES-128-CTR
//!   streams, as in Tor, and running "recognized" digests — Tor's scheme
//!   with SHA-256 in place of SHA-1.
//! * **Relays** ([`relay`]): OR-port cell switching, circuit extension via
//!   the ntor handshake, exit streams with exit policies, directory
//!   service (authority and HSDir roles), introduction and rendezvous
//!   point roles, and local-stream events ([`relay::RelayEvent`]) that let
//!   a co-resident service (the Bento server) receive streams addressed to
//!   the relay itself — the paper's "exit policy allows connecting to the
//!   Bento server via localhost" deployment.
//! * **Clients** ([`client`]): the onion-proxy component — consensus
//!   bootstrap, weighted path selection, circuit construction, streams,
//!   circuit-level SENDME flow control, cover (DROP) cells, and the
//!   client side of rendezvous with an end-to-end virtual hop.
//! * **Links** (`link`, private): the OR-link table and the circuit
//!   window both of the above use — links, circuit ids, cells queued
//!   until a link is up, and SENDME flow control.
//! * **Hidden services** ([`hs`]): descriptor publication to HSDirs,
//!   introduction-point management, and rendezvous-side splicing — plus
//!   the hook the LoadBalancer function uses to hand an INTRODUCE2 to a
//!   replica instead of answering itself.
//! * **Directory** ([`dir`]): authority consensus (hash-signed), relay
//!   descriptor upload, HS descriptor storage on HSDir relays.
//!
//! Components are designed for *composition*: a host [`simnet::Node`] can
//! embed a [`relay::RelayCore`] and/or a [`client::TorClient`] and dispatch
//! callbacks to them, which is how the Bento crate builds a middlebox node
//! that is simultaneously a Tor relay, a Bento server, and an onion proxy
//! (Figure 3 of the paper).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod client;
pub mod dir;
pub mod hs;
mod link;
pub mod netbuild;
pub mod ports;
pub mod relay;
pub mod relay_crypto;
pub mod retry;
pub mod stream_frame;

pub use cell::{Cell, CellCmd, RelayCmd, StreamTarget, CELL_LEN, MAX_RELAY_DATA};
pub use client::{CircuitHandle, TorClient, TorEvent};
pub use dir::OnionAddr;
pub use dir::{Consensus, ExitPolicy, Fingerprint, RelayFlags, RelayInfo};
pub use hs::{HiddenServiceHost, HsEvent};
pub use netbuild::{NetworkBuilder, TestClientNode, TorNetwork, WebServerNode};
pub use relay::{LocalStream, RelayConfig, RelayCore, RelayEvent, RelayNode};
pub use retry::{Backoff, BackoffPolicy, FailureCache};
