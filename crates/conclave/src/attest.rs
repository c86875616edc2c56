//! Remote attestation: quotes, the (simulated) Intel Attestation Service,
//! and verification reports.
//!
//! The trust chain mirrors SGX EPID attestation as the paper uses it
//! (§5.4): the *platform* MACs a quote over (measurement, TCB version,
//! report data) with a key provisioned by the attestation service; the
//! service verifies the MAC, checks the TCB against known vulnerabilities,
//! and signs a verification report that anyone holding the service's public
//! key can check. The server staples the report to its reply (the paper's
//! OCSP-stapling flow, which hides the client from the attestation
//! service); the paper's other flow, where the client submits the quote
//! itself, is not modelled.
//!
//! A box reaches [`Ias::verify_quote`] for every SGX container it spawns,
//! so a refusal here is a typed error, never a panic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::enclave::Enclave;
use onion_crypto::hashsig::{MerkleSigner, MerkleVerifyKey, Signature};
use onion_crypto::hmac::{ct_eq, hmac_sha256};
use onion_crypto::sha256::sha256;
use std::collections::BTreeMap;

/// Attestation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttestationError {
    /// The quote's platform is not provisioned with this service.
    UnknownPlatform,
    /// The quote MAC is invalid (forged or corrupted).
    BadQuoteMac,
    /// The platform's TCB is below the service's minimum (unpatched).
    TcbOutOfDate {
        /// TCB in the quote.
        got: u32,
        /// Minimum acceptable.
        min: u32,
    },
    /// The report signature failed to verify.
    BadReportSignature,
    /// The report does not cover this quote.
    QuoteMismatch,
    /// The service has used every one-time signature of its key.
    ServiceExhausted,
}

impl std::fmt::Display for AttestationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttestationError::UnknownPlatform => write!(f, "unknown platform"),
            AttestationError::BadQuoteMac => write!(f, "quote MAC invalid"),
            AttestationError::TcbOutOfDate { got, min } => {
                write!(f, "TCB {got} below minimum {min}")
            }
            AttestationError::BadReportSignature => write!(f, "report signature invalid"),
            AttestationError::QuoteMismatch => write!(f, "report does not match quote"),
            AttestationError::ServiceExhausted => write!(f, "attestation service key exhausted"),
        }
    }
}

impl std::error::Error for AttestationError {}

/// A quote: the platform's claim that an enclave with `measurement` runs on
/// hardware at `tcb_version`, binding 32 bytes of `report_data`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Platform identity.
    pub platform_id: u64,
    /// MRENCLAVE analog.
    pub measurement: [u8; 32],
    /// Platform TCB version.
    pub tcb_version: u32,
    /// Caller-chosen binding data (e.g. a channel key hash).
    pub report_data: [u8; 32],
    /// MAC under the platform's provisioned key.
    pub mac: [u8; 32],
}

impl Quote {
    fn mac_input(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(8 + 32 + 4 + 32);
        v.extend_from_slice(&self.platform_id.to_be_bytes());
        v.extend_from_slice(&self.measurement);
        v.extend_from_slice(&self.tcb_version.to_be_bytes());
        v.extend_from_slice(&self.report_data);
        v
    }

    /// Hash identifying this quote (what reports sign over).
    pub fn digest(&self) -> [u8; 32] {
        let mut v = self.mac_input();
        v.extend_from_slice(&self.mac);
        sha256(&v)
    }
}

/// A platform (machine with a TEE): holds the provisioned attestation key.
/// Stands in for CPU fuses + the quoting enclave.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Platform identity registered with the attestation service.
    pub id: u64,
    key: [u8; 32],
    /// Current TCB version (increases with microcode patches).
    pub tcb_version: u32,
}

impl Platform {
    /// A platform with the given provisioning key.
    pub fn new(id: u64, key: [u8; 32], tcb_version: u32) -> Platform {
        Platform {
            id,
            key,
            tcb_version,
        }
    }

    /// The platform's sealing secret — derived from the provisioned key and
    /// never leaving the machine (the EGETKEY analog). Feed it to
    /// [`crate::sealed::seal_data`] so sealed blobs survive reboots of the
    /// same platform but are useless anywhere else.
    pub fn sealing_secret(&self) -> [u8; 32] {
        hmac_sha256(&self.key, b"sealing-secret")
    }

    /// Produce a quote for an enclave running on this platform.
    pub fn quote(&self, enclave: &Enclave, report_data: [u8; 32]) -> Quote {
        let mut q = Quote {
            platform_id: self.id,
            measurement: enclave.measurement,
            tcb_version: self.tcb_version,
            report_data,
            mac: [0; 32],
        };
        q.mac = hmac_sha256(&self.key, &q.mac_input());
        q
    }
}

/// A signed verification report from the attestation service.
#[derive(Debug, Clone)]
pub struct IasReport {
    /// Digest of the quote this report covers.
    pub quote_digest: [u8; 32],
    /// Whether the TCB met the service's minimum.
    pub tcb_ok: bool,
    /// Service signature over (quote_digest, tcb_ok).
    pub signature: Signature,
}

impl IasReport {
    fn signed_body(quote_digest: &[u8; 32], tcb_ok: bool) -> Vec<u8> {
        let mut v = Vec::with_capacity(33);
        v.extend_from_slice(quote_digest);
        v.push(tcb_ok as u8);
        v
    }

    /// Verify this report against the service's public key and the quote it
    /// claims to cover: the client's check of a stapled report (§5.4).
    pub fn verify(
        &self,
        service_key: &MerkleVerifyKey,
        quote: &Quote,
    ) -> Result<(), AttestationError> {
        if self.quote_digest != quote.digest() {
            return Err(AttestationError::QuoteMismatch);
        }
        let body = Self::signed_body(&self.quote_digest, self.tcb_ok);
        if !service_key.verify(&body, &self.signature) {
            return Err(AttestationError::BadReportSignature);
        }
        if !self.tcb_ok {
            return Err(AttestationError::TcbOutOfDate { got: 0, min: 0 });
        }
        Ok(())
    }
}

/// The simulated Intel Attestation Service.
pub struct Ias {
    signer: MerkleSigner,
    platforms: BTreeMap<u64, [u8; 32]>,
    min_tcb: u32,
}

impl Ias {
    /// A service with a signing seed and a minimum acceptable TCB.
    pub fn new(seed: [u8; 32], min_tcb: u32) -> Ias {
        Ias {
            signer: MerkleSigner::generate(seed, 6),
            platforms: BTreeMap::new(),
            min_tcb,
        }
    }

    /// The public key relying parties pin.
    pub fn verify_key(&self) -> MerkleVerifyKey {
        self.signer.verify_key()
    }

    /// Provision a platform (returns the key it will quote with).
    pub fn provision_platform(&mut self, id: u64, rng: &mut impl rand::Rng) -> Platform {
        let mut key = [0u8; 32];
        rng.fill(&mut key);
        self.platforms.insert(id, key);
        Platform::new(id, key, self.min_tcb)
    }

    /// Raise the minimum TCB (a vulnerability was published; §5.4's "check
    /// the current TCB version ... to see if it has been patched").
    pub fn set_min_tcb(&mut self, min: u32) {
        self.min_tcb = min;
    }

    /// Verify a quote and issue a signed report. The signing key holds 64
    /// one-time signatures; past them every quote is refused.
    pub fn verify_quote(&mut self, quote: &Quote) -> Result<IasReport, AttestationError> {
        let key = self
            .platforms
            .get(&quote.platform_id)
            .ok_or(AttestationError::UnknownPlatform)?;
        let expect = hmac_sha256(key, &quote.mac_input());
        if !ct_eq(&expect, &quote.mac) {
            return Err(AttestationError::BadQuoteMac);
        }
        let tcb_ok = quote.tcb_version >= self.min_tcb;
        let digest = quote.digest();
        let body = IasReport::signed_body(&digest, tcb_ok);
        let signature = self
            .signer
            .sign(&body)
            .ok_or(AttestationError::ServiceExhausted)?;
        Ok(IasReport {
            quote_digest: digest,
            tcb_ok,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (Ias, Platform, Enclave) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut ias = Ias::new([1u8; 32], 3);
        let platform = ias.provision_platform(42, &mut rng);
        let enclave = Enclave::create(1, b"bento conclave image", 20 << 20, platform.tcb_version);
        (ias, platform, enclave)
    }

    #[test]
    fn quote_verifies_end_to_end() {
        let (mut ias, platform, enclave) = setup();
        let quote = platform.quote(&enclave, [9u8; 32]);
        let report = ias.verify_quote(&quote).unwrap();
        assert!(report.tcb_ok);
        report.verify(&ias.verify_key(), &quote).unwrap();
    }

    #[test]
    fn forged_quote_rejected() {
        let (mut ias, platform, enclave) = setup();
        let mut quote = platform.quote(&enclave, [9u8; 32]);
        quote.measurement[0] ^= 1; // claim a different image
        assert!(matches!(
            ias.verify_quote(&quote),
            Err(AttestationError::BadQuoteMac)
        ));
    }

    #[test]
    fn unknown_platform_rejected() {
        let (mut ias, platform, enclave) = setup();
        let mut quote = platform.quote(&enclave, [0u8; 32]);
        quote.platform_id = 999;
        assert!(matches!(
            ias.verify_quote(&quote),
            Err(AttestationError::UnknownPlatform)
        ));
    }

    #[test]
    fn stale_tcb_flagged_and_rejected_by_client() {
        let (mut ias, platform, enclave) = setup();
        let quote = platform.quote(&enclave, [0u8; 32]);
        // A vulnerability is published; IAS raises the bar beyond this
        // platform's patch level.
        ias.set_min_tcb(platform.tcb_version + 1);
        let report = ias.verify_quote(&quote).unwrap();
        assert!(!report.tcb_ok);
        assert!(matches!(
            report.verify(&ias.verify_key(), &quote),
            Err(AttestationError::TcbOutOfDate { .. })
        ));
    }

    #[test]
    fn report_bound_to_specific_quote() {
        let (mut ias, platform, enclave) = setup();
        let q1 = platform.quote(&enclave, [1u8; 32]);
        let q2 = platform.quote(&enclave, [2u8; 32]);
        let report1 = ias.verify_quote(&q1).unwrap();
        assert_eq!(
            report1.verify(&ias.verify_key(), &q2),
            Err(AttestationError::QuoteMismatch)
        );
    }

    #[test]
    fn report_signature_tamper_rejected() {
        let (mut ias, platform, enclave) = setup();
        let quote = platform.quote(&enclave, [0u8; 32]);
        let mut report = ias.verify_quote(&quote).unwrap();
        report.tcb_ok = true; // no-op here, but tamper the signature:
        report.signature.wots[0][0] ^= 1;
        assert_eq!(
            report.verify(&ias.verify_key(), &quote),
            Err(AttestationError::BadReportSignature)
        );
    }

    #[test]
    fn wrong_ias_key_rejected() {
        let (mut ias, platform, enclave) = setup();
        let quote = platform.quote(&enclave, [0u8; 32]);
        let report = ias.verify_quote(&quote).unwrap();
        let other = Ias::new([2u8; 32], 0).verify_key();
        assert_eq!(
            report.verify(&other, &quote),
            Err(AttestationError::BadReportSignature)
        );
    }
}
