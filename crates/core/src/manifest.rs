//! Function manifests (§5.5): what a function asks permission for.
//!
//! "Upon receiving the manifest, Bento compares it to its own middlebox
//! node policy; if the manifest asks for more permissions than the node's
//! policy permits, then the function is rejected. Otherwise, the Bento
//! server sets up the execution environment, and constrains the sandbox or
//! conclave to permit only the specific API calls that the manifest file
//! requested (even if the middlebox policy allowed for more)."

// Manifests come from whoever uploads a function: no panics here.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::protocol::ImageKind;
use crate::stem::StemCall;
use sandbox::seccomp::{SeccompFilter, SyscallClass};
use simnet::wire::{Reader, WireError, Writer};
use std::collections::BTreeSet;

/// A function's permission request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Function name (registry key).
    pub name: String,
    /// System-call classes the function needs.
    pub syscalls: BTreeSet<SyscallClass>,
    /// Stem routines the function needs.
    pub stem: BTreeSet<StemCall>,
    /// Memory it may use (bytes).
    pub memory: u64,
    /// Disk it may use (bytes).
    pub disk: u64,
    /// Which container image it targets.
    pub image: ImageKind,
}

impl Manifest {
    /// A minimal manifest: clock and randomness only, tiny footprint,
    /// plain image.
    pub fn minimal(name: &str) -> Manifest {
        Manifest {
            name: name.to_string(),
            syscalls: [SyscallClass::GetTime, SyscallClass::GetRandom]
                .into_iter()
                .collect(),
            stem: BTreeSet::new(),
            memory: 16 << 20,
            disk: 0,
            image: ImageKind::Plain,
        }
    }

    /// Add syscall requests.
    pub fn with_syscalls(mut self, extra: impl IntoIterator<Item = SyscallClass>) -> Manifest {
        self.syscalls.extend(extra);
        self
    }

    /// Add Stem requests.
    pub fn with_stem(mut self, extra: impl IntoIterator<Item = StemCall>) -> Manifest {
        self.stem.extend(extra);
        self
    }

    /// Request the SGX (conclave) image.
    pub fn with_sgx(mut self) -> Manifest {
        self.image = ImageKind::Sgx;
        self
    }

    /// Request disk space.
    pub fn with_disk(mut self, bytes: u64) -> Manifest {
        self.disk = bytes;
        if bytes > 0 {
            self.syscalls.insert(SyscallClass::Open);
            self.syscalls.insert(SyscallClass::Read);
            self.syscalls.insert(SyscallClass::Write);
            self.syscalls.insert(SyscallClass::Unlink);
        }
        self
    }

    /// The seccomp filter the server installs: deny-by-default, allowing
    /// exactly what the manifest requested.
    pub fn to_seccomp(&self) -> SeccompFilter {
        let mut f = SeccompFilter::deny_all();
        for sc in &self.syscalls {
            f = f.allow(*sc);
        }
        f
    }

    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(&self.name);
        w.varu64(self.syscalls.len() as u64);
        for sc in &self.syscalls {
            w.u8(sc.id());
        }
        w.varu64(self.stem.len() as u64);
        for st in &self.stem {
            w.u8(st.id());
        }
        w.u64(self.memory);
        w.u64(self.disk);
        w.u8(self.image.id());
        w.into_bytes()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<Manifest, WireError> {
        let mut r = Reader::new(buf);
        let m = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(m)
    }

    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<Manifest, WireError> {
        let name = r.str("manifest name")?;
        let n = r.varu64()?.min(64);
        let mut syscalls = BTreeSet::new();
        for _ in 0..n {
            let id = r.u8()?;
            syscalls.insert(SyscallClass::from_id(id).ok_or(WireError::BadDiscriminant {
                what: "syscall class",
                value: id as u64,
            })?);
        }
        let k = r.varu64()?.min(64);
        let mut stem = BTreeSet::new();
        for _ in 0..k {
            let id = r.u8()?;
            stem.insert(StemCall::from_id(id).ok_or(WireError::BadDiscriminant {
                what: "stem call",
                value: id as u64,
            })?);
        }
        let memory = r.u64()?;
        let disk = r.u64()?;
        let image = ImageKind::from_id(r.u8()?).ok_or(WireError::BadDiscriminant {
            what: "image kind",
            value: 255,
        })?;
        Ok(Manifest {
            name,
            syscalls,
            stem,
            memory,
            disk,
            image,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let m = Manifest::minimal("browser")
            .with_syscalls([SyscallClass::Connect])
            .with_stem([StemCall::NewCircuit, StemCall::OpenStream])
            .with_disk(1 << 20)
            .with_sgx();
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn seccomp_is_least_privilege() {
        // Even if the node policy allows more, the installed filter only
        // has what the manifest asked for.
        let m = Manifest::minimal("cover");
        let f = m.to_seccomp();
        assert!(f.permits(SyscallClass::GetTime));
        assert!(f.permits(SyscallClass::GetRandom));
        assert!(!f.permits(SyscallClass::Connect));
        assert!(!f.permits(SyscallClass::Write));
        assert!(!f.permits(SyscallClass::Fork));
    }

    #[test]
    fn with_disk_implies_file_syscalls() {
        let m = Manifest::minimal("dropbox").with_disk(1024);
        assert!(m.syscalls.contains(&SyscallClass::Write));
        assert!(m.syscalls.contains(&SyscallClass::Read));
        assert!(m.syscalls.contains(&SyscallClass::Unlink));
        assert_eq!(m.disk, 1024);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Manifest::decode(&[]).is_err());
        let mut ok = Manifest::minimal("x").encode();
        ok.push(7);
        assert!(Manifest::decode(&ok).is_err(), "trailing bytes rejected");
    }
}
