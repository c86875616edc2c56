//! Sealed storage: data encrypted under a key derived from the platform
//! secret and the enclave measurement, so only the same code on the same
//! machine can recover it.

use onion_crypto::aead::{open, seal, AeadError, AeadKey};
use onion_crypto::hmac::hkdf;

static T_SEAL_BYTES: telemetry::Counter = telemetry::Counter::new("conclave.sealed_bytes");
static T_UNSEAL_BYTES: telemetry::Counter = telemetry::Counter::new("conclave.unsealed_bytes");
static T_UNSEAL_FAILURES: telemetry::Counter = telemetry::Counter::new("conclave.unseal_failures");

/// Sealing failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Decryption failed: wrong platform, wrong measurement, or tampering.
    Unsealable,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sealed blob cannot be opened on this platform/enclave")
    }
}

impl std::error::Error for SealError {}

fn sealing_key(platform_secret: &[u8; 32], measurement: &[u8; 32]) -> AeadKey {
    AeadKey::from_master(&hkdf(b"sgx-seal", platform_secret, measurement))
}

/// Seal `data` to (platform, measurement).
pub fn seal_data(platform_secret: &[u8; 32], measurement: &[u8; 32], data: &[u8]) -> Vec<u8> {
    T_SEAL_BYTES.add(data.len() as u64);
    let key = sealing_key(platform_secret, measurement);
    seal(&key, &[0u8; 12], b"sealed", data)
}

/// Unseal a blob sealed by [`seal_data`] with the same identity.
pub fn unseal_data(
    platform_secret: &[u8; 32],
    measurement: &[u8; 32],
    blob: &[u8],
) -> Result<Vec<u8>, SealError> {
    let key = sealing_key(platform_secret, measurement);
    open(&key, &[0u8; 12], b"sealed", blob)
        .inspect(|data| T_UNSEAL_BYTES.add(data.len() as u64))
        .map_err(|_: AeadError| {
            T_UNSEAL_FAILURES.inc();
            SealError::Unsealable
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrip() {
        let blob = seal_data(&[1; 32], &[2; 32], b"key material");
        assert_ne!(&blob[..12], b"key material");
        assert_eq!(
            unseal_data(&[1; 32], &[2; 32], &blob).unwrap(),
            b"key material"
        );
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let blob = seal_data(&[1; 32], &[2; 32], b"secret");
        assert_eq!(
            unseal_data(&[9; 32], &[2; 32], &blob),
            Err(SealError::Unsealable)
        );
    }

    #[test]
    fn different_measurement_cannot_unseal() {
        // A modified enclave image must not read the original's seals.
        let blob = seal_data(&[1; 32], &[2; 32], b"secret");
        assert_eq!(
            unseal_data(&[1; 32], &[3; 32], &blob),
            Err(SealError::Unsealable)
        );
    }

    #[test]
    fn tampered_blob_rejected() {
        let mut blob = seal_data(&[1; 32], &[2; 32], b"secret");
        blob[0] ^= 1;
        assert_eq!(
            unseal_data(&[1; 32], &[2; 32], &blob),
            Err(SealError::Unsealable)
        );
    }
}
