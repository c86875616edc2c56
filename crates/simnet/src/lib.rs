//! # simnet — deterministic discrete-event network simulator
//!
//! `simnet` is the substrate every other crate in this workspace builds on.
//! It models a set of **nodes**, each attached to the "internet core" through
//! an access interface with configurable latency and asymmetric bandwidth,
//! exchanging reliable, ordered **messages** over point-to-point connections
//! with a TCP-like cost model (handshake round trip, slow start, congestion
//! avoidance, max-min fair sharing of access links).
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** The simulator is single-threaded; every run with the
//!    same seed and the same program produces the same event trace. All
//!    randomness flows from one seeded [`rand::rngs::StdRng`].
//! 2. **Honest cost model.** We do not simulate packets; we simulate *flows*
//!    in chunks, with rates bounded by congestion window and by the fair
//!    share of the sender's uplink and receiver's downlink. This reproduces
//!    the two effects the Bento paper's evaluation depends on: RTT-dominated
//!    small transfers (slow start) and bandwidth sharing among concurrent
//!    clients of one host.
//! 3. **Observability.** Any node's access link can be *sniffed*, producing a
//!    timestamped directional trace of transmissions — exactly what a website
//!    fingerprinting adversary positioned between a client and its guard
//!    observes.
//!
//! The crate deliberately avoids an async runtime: a discrete-event core is
//! smaller, fully deterministic and trivially replayable, which matters more
//! for reproducing published experiments than wall-clock concurrency. There
//! is one engine, [`Simulator`]; a connection's state lives from `connect`
//! until the connection dies and is freed then, so memory follows the
//! connections open now. (A sharded conservative engine was tried and
//! removed; DESIGN.md §12 has the record.)

// The run loop must not panic: a panic anywhere in the crate is a crashed
// experiment, not a recovered fault. Test code is exempt (`clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod iface;
pub mod node;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;
pub mod transport;
pub mod wire;

pub use fault::{FaultAction, FaultPlan, FaultStats, LinkFault};
pub use iface::Iface;
pub use node::{ConnId, Ctx, Node, NodeId};
pub use sim::{SimConfig, Simulator};
pub use stats::TimeSeries;
pub use time::{SimDuration, SimTime};
pub use trace::{Direction, TraceEvent};
pub use transport::TransportCfg;
pub use wire::{Reader, WireError, Writer};
