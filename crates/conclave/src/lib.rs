//! # conclave — simulated trusted execution (SGX-like enclaves, "containers
//! of enclaves")
//!
//! Bento protects functions *from* the middleboxes they run on with
//! conclaves (Herwig et al.): legacy applications inside interconnected SGX
//! enclaves, with an encrypted filesystem and remote attestation. No SGX
//! hardware is available here, so this crate models the parts of the TEE
//! the paper's design and evaluation actually depend on:
//!
//! * [`epc`] — the Enclave Page Cache: 128 MiB of protected memory of which
//!   ~93 MiB is usable by applications (§7.3), with paging cost accounting
//!   when demand exceeds it.
//! * [`enclave`] — enclaves with code measurement, TCB versioning, and
//!   per-call transition (swap-in/out) costs.
//! * [`attest`] — quotes MAC'd by a platform key and a simulated Intel
//!   Attestation Service that signs verification reports, stapled by the
//!   server (the paper's OCSP-style §5.4 flow).
//! * [`sealed`] — sealed storage bound to (platform, measurement).
//! * [`fsprotect`] — FS Protect: the encrypted, integrity-protected
//!   filesystem with an ephemeral in-enclave key; the operator only ever
//!   sees ciphertext (plausible deniability, §6.2).
//! * [`channel`] — the attested secure channel a Bento client uploads its
//!   function over: ephemeral DH bound to the quote's report data.
//!
//! The crypto is real ([`onion_crypto`]); what is simulated is the
//! *hardware root of trust* — a platform key standing in for CPU fuses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod channel;
pub mod enclave;
pub mod epc;
pub mod fsprotect;
pub mod sealed;

pub use attest::{AttestationError, Ias, IasReport, Platform, Quote};
pub use channel::{AttestedChannel, ChannelError};
pub use enclave::{Enclave, EnclaveState};
pub use epc::{Epc, PagingStats, EPC_TOTAL_BYTES, EPC_USABLE_BYTES};
pub use fsprotect::FsProtect;
pub use sealed::{seal_data, unseal_data, SealError};
