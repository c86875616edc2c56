//! Middlebox node policies (§5.5): what an operator is willing to do on
//! behalf of others.
//!
//! "Bento's middlebox node policies are boolean values over the set of API
//! calls that Bento exposes to functions. Every system call and Stem
//! library function that can be exposed to functions is also specified in
//! the middlebox node policy." Plus resource ceilings and the container
//! images offered.

// Policies are decoded off the wire, and manifests checked against them
// come from whoever uploads a function: no panics here.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::manifest::Manifest;
use crate::protocol::ImageKind;
use crate::stem::StemCall;
use sandbox::seccomp::SyscallClass;
use simnet::wire::{Reader, WireError, Writer};
use std::collections::BTreeSet;

/// A middlebox operator's policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiddleboxPolicy {
    /// System-call classes functions may request.
    pub syscalls: BTreeSet<SyscallClass>,
    /// Stem routines functions may request.
    pub stem: BTreeSet<StemCall>,
    /// Per-function memory ceiling (bytes).
    pub max_memory: u64,
    /// Per-function CPU ceiling (ms).
    pub max_cpu_ms: u64,
    /// Per-function disk ceiling (bytes).
    pub max_disk: u64,
    /// Maximum concurrently loaded functions.
    pub max_functions: u32,
    /// Whether the plain Python image is offered.
    pub offers_plain: bool,
    /// Whether the Python-OP-SGX (conclave) image is offered.
    pub offers_sgx: bool,
}

impl MiddleboxPolicy {
    /// A permissive default: everything except process spawning; both
    /// images; paper-scale resource ceilings.
    pub fn permissive() -> MiddleboxPolicy {
        let mut syscalls: BTreeSet<SyscallClass> = SyscallClass::ALL.iter().copied().collect();
        syscalls.remove(&SyscallClass::Fork);
        syscalls.remove(&SyscallClass::Exec);
        MiddleboxPolicy {
            syscalls,
            stem: StemCall::ALL.iter().copied().collect(),
            max_memory: 128 << 20,
            max_cpu_ms: 600_000,
            max_disk: 256 << 20,
            max_functions: 16,
            offers_plain: true,
            offers_sgx: true,
        }
    }

    /// A restrictive policy: no filesystem persistence, no hidden services
    /// (the paper's "operator can protect themselves by setting a policy
    /// that prevents functions from accessing the filesystem", §6.2).
    pub fn no_storage() -> MiddleboxPolicy {
        let mut p = MiddleboxPolicy::permissive();
        p.syscalls.remove(&SyscallClass::Write);
        p.syscalls.remove(&SyscallClass::Unlink);
        p.max_disk = 0;
        p
    }

    /// Does this policy permit everything `manifest` requests?
    /// Returns the first refusal reason, or `None` if acceptable.
    pub fn refuses(&self, manifest: &Manifest) -> Option<String> {
        for sc in &manifest.syscalls {
            if !self.syscalls.contains(sc) {
                return Some(format!("syscall {} not offered", sc.name()));
            }
        }
        for st in &manifest.stem {
            if !self.stem.contains(st) {
                return Some(format!("stem call {} not offered", st.name()));
            }
        }
        if manifest.memory > self.max_memory {
            return Some(format!(
                "memory {} exceeds offered {}",
                manifest.memory, self.max_memory
            ));
        }
        if manifest.disk > self.max_disk {
            return Some(format!(
                "disk {} exceeds offered {}",
                manifest.disk, self.max_disk
            ));
        }
        match manifest.image {
            ImageKind::Plain if !self.offers_plain => Some("plain image not offered".into()),
            ImageKind::Sgx if !self.offers_sgx => Some("SGX image not offered".into()),
            _ => None,
        }
    }

    /// Encode for dissemination (policy-query responses, consensus).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.varu64(self.syscalls.len() as u64);
        for sc in &self.syscalls {
            w.u8(sc.id());
        }
        w.varu64(self.stem.len() as u64);
        for st in &self.stem {
            w.u8(st.id());
        }
        w.u64(self.max_memory);
        w.u64(self.max_cpu_ms);
        w.u64(self.max_disk);
        w.u32(self.max_functions);
        w.bool(self.offers_plain);
        w.bool(self.offers_sgx);
        w.into_bytes()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<MiddleboxPolicy, WireError> {
        let mut r = Reader::new(buf);
        let n = r.varu64()?.min(64);
        let mut syscalls = BTreeSet::new();
        for _ in 0..n {
            let id = r.u8()?;
            syscalls.insert(SyscallClass::from_id(id).ok_or(WireError::BadDiscriminant {
                what: "syscall class",
                value: id as u64,
            })?);
        }
        let m = r.varu64()?.min(64);
        let mut stem = BTreeSet::new();
        for _ in 0..m {
            let id = r.u8()?;
            stem.insert(StemCall::from_id(id).ok_or(WireError::BadDiscriminant {
                what: "stem call",
                value: id as u64,
            })?);
        }
        let max_memory = r.u64()?;
        let max_cpu_ms = r.u64()?;
        let max_disk = r.u64()?;
        let max_functions = r.u32()?;
        let offers_plain = r.bool()?;
        let offers_sgx = r.bool()?;
        r.finish()?;
        Ok(MiddleboxPolicy {
            syscalls,
            stem,
            max_memory,
            max_cpu_ms,
            max_disk,
            max_functions,
            offers_plain,
            offers_sgx,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for p in [MiddleboxPolicy::permissive(), MiddleboxPolicy::no_storage()] {
            let back = MiddleboxPolicy::decode(&p.encode()).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn permissive_accepts_typical_manifest() {
        let p = MiddleboxPolicy::permissive();
        let m = Manifest::minimal("browser")
            .with_syscalls([SyscallClass::Connect, SyscallClass::Write])
            .with_stem([StemCall::OpenStream]);
        assert_eq!(p.refuses(&m), None);
    }

    #[test]
    fn fork_always_refused_by_default_policy() {
        let p = MiddleboxPolicy::permissive();
        let m = Manifest::minimal("evil").with_syscalls([SyscallClass::Fork]);
        assert!(p.refuses(&m).unwrap().contains("fork"));
    }

    #[test]
    fn no_storage_refuses_writes() {
        let p = MiddleboxPolicy::no_storage();
        let m = Manifest::minimal("dropbox").with_syscalls([SyscallClass::Write]);
        assert!(p.refuses(&m).is_some());
        let ok = Manifest::minimal("cover").with_stem([StemCall::SendDrop]);
        assert_eq!(p.refuses(&ok), None);
    }

    #[test]
    fn resource_ceilings_enforced() {
        let p = MiddleboxPolicy::permissive();
        let mut m = Manifest::minimal("hog");
        m.memory = p.max_memory + 1;
        assert!(p.refuses(&m).unwrap().contains("memory"));
        m.memory = 1;
        m.disk = p.max_disk + 1;
        assert!(p.refuses(&m).unwrap().contains("disk"));
    }

    #[test]
    fn image_offering_checked() {
        let mut p = MiddleboxPolicy::permissive();
        p.offers_sgx = false;
        let mut m = Manifest::minimal("private");
        m.image = ImageKind::Sgx;
        assert!(p.refuses(&m).unwrap().contains("SGX"));
        m.image = ImageKind::Plain;
        assert_eq!(p.refuses(&m), None);
    }

    #[test]
    fn decode_rejects_bad_ids() {
        let mut bytes = MiddleboxPolicy::permissive().encode();
        bytes[1] = 200; // first syscall id -> invalid
        assert!(MiddleboxPolicy::decode(&bytes).is_err());
    }
}
