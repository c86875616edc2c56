//! The attested secure channel: how a Bento client uploads its function so
//! that only the attested conclave — not the operator — can read it (§5.4).
//!
//! One round trip: the client sends a nonce; the conclave responds with an
//! ephemeral DH key, a quote whose report data binds that key and the
//! nonce, and a *stapled* attestation-service report (the OCSP-stapling
//! flow, so the attestation service never observes the client). The client
//! verifies report → quote → binding → expected measurement, then both
//! sides derive AEAD keys for the upload.

use crate::attest::{AttestationError, Ias, IasReport, Platform, Quote};
use crate::enclave::Enclave;
use onion_crypto::aead::{open_in_place, seal_in_place, AeadKey, TAG_LEN};
use onion_crypto::hashsig::Signature;
use onion_crypto::hmac::hkdf;
use onion_crypto::sha256::sha256;
use onion_crypto::x25519::{PublicKey, StaticSecret};

/// Channel failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelError {
    /// Malformed hello message.
    Malformed,
    /// Attestation failed.
    Attestation(AttestationError),
    /// The quote's report data does not bind this channel.
    BindingMismatch,
    /// The enclave is not running the image the client expects.
    WrongMeasurement,
    /// A sealed message failed to authenticate or arrived out of order.
    BadMessage,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::Malformed => write!(f, "malformed channel message"),
            ChannelError::Attestation(e) => write!(f, "attestation: {e}"),
            ChannelError::BindingMismatch => write!(f, "quote does not bind this channel"),
            ChannelError::WrongMeasurement => write!(f, "unexpected enclave measurement"),
            ChannelError::BadMessage => write!(f, "message authentication failed"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// An established channel endpoint.
pub struct AttestedChannel {
    key: AeadKey,
    send_counter: u64,
    recv_counter: u64,
    /// True on the client side (affects nonce directionality).
    is_client: bool,
}

/// Client state between hello and finish.
pub struct ClientHello {
    nonce: [u8; 32],
    eph: StaticSecret,
}

fn derive_key(shared: &[u8; 32], transcript: &[u8]) -> AeadKey {
    AeadKey::from_master(&hkdf(b"attested-channel", shared, transcript))
}

/// The DH step both sides share. A small-order peer key makes the message
/// malformed: the channel key would not depend on our secret.
fn dh(eph: &StaticSecret, peer: [u8; 32]) -> Result<[u8; 32], ChannelError> {
    eph.diffie_hellman(&PublicKey(peer))
        .ok_or(ChannelError::Malformed)
}

fn dir_nonce(counter: u64, from_client: bool) -> [u8; 12] {
    let mut n = [0u8; 12];
    n[0] = from_client as u8;
    n[4..].copy_from_slice(&counter.to_be_bytes());
    n
}

impl AttestedChannel {
    /// Server step (non-stapled variant): respond with the quote alone; the
    /// client submits it to the attestation service itself — the paper's
    /// first §5.4 flow ("the server generates an attestation report and
    /// returns the report to the client, who could then present the report
    /// to IAS for verification"), which avoids the server ever contacting
    /// IAS at container-spawn time.
    pub fn server_respond_unstapled(
        rng: &mut impl rand::Rng,
        enclave: &Enclave,
        platform: &Platform,
        client_hello: &[u8],
    ) -> Result<(Vec<u8>, AttestedChannel), ChannelError> {
        if client_hello.len() != 64 {
            return Err(ChannelError::Malformed);
        }
        let mut client_pub = [0u8; 32];
        client_pub.copy_from_slice(&client_hello[32..]);
        let eph = StaticSecret::random(rng);
        let eph_pub = eph.public_key();
        let shared = dh(&eph, client_pub)?;
        let mut binding = Vec::with_capacity(96);
        binding.extend_from_slice(eph_pub.as_bytes());
        binding.extend_from_slice(client_hello);
        let report_data = sha256(&binding);
        let quote = platform.quote(enclave, report_data);
        // Serialize: eph_pub | quote (no report).
        let mut msg = Vec::new();
        msg.extend_from_slice(eph_pub.as_bytes());
        msg.extend_from_slice(&quote.platform_id.to_be_bytes());
        msg.extend_from_slice(&quote.measurement);
        msg.extend_from_slice(&quote.tcb_version.to_be_bytes());
        msg.extend_from_slice(&quote.report_data);
        msg.extend_from_slice(&quote.mac);
        let mut transcript = client_hello.to_vec();
        transcript.extend_from_slice(eph_pub.as_bytes());
        let key = derive_key(&shared, &transcript);
        Ok((
            msg,
            AttestedChannel {
                key,
                send_counter: 0,
                recv_counter: 0,
                is_client: false,
            },
        ))
    }

    /// Client step 2 (non-stapled variant): parse the quote, submit it to
    /// the attestation service directly, verify, and derive the channel.
    /// This can be done "at any time before a client loads the function,
    /// preventing any correlation between client and function load" (§5.4).
    pub fn client_finish_with_ias(
        state: &ClientHello,
        server_hello: &[u8],
        ias: &mut Ias,
        expected_measurement: &[u8; 32],
    ) -> Result<AttestedChannel, ChannelError> {
        // 32 eph | 8 pid | 32 meas | 4 tcb | 32 rd | 32 mac
        if server_hello.len() != 32 + 8 + 32 + 4 + 32 + 32 {
            return Err(ChannelError::Malformed);
        }
        let mut pos = 0usize;
        let mut take = |n: usize| {
            let s = &server_hello[pos..pos + n];
            pos += n;
            s
        };
        let mut eph_pub = [0u8; 32];
        eph_pub.copy_from_slice(take(32));
        let shared = dh(&state.eph, eph_pub)?;
        let platform_id = u64::from_be_bytes(take(8).try_into().expect("len"));
        let mut measurement = [0u8; 32];
        measurement.copy_from_slice(take(32));
        let tcb_version = u32::from_be_bytes(take(4).try_into().expect("len"));
        let mut report_data = [0u8; 32];
        report_data.copy_from_slice(take(32));
        let mut mac = [0u8; 32];
        mac.copy_from_slice(take(32));
        let quote = Quote {
            platform_id,
            measurement,
            tcb_version,
            report_data,
            mac,
        };
        // The client presents the quote to the attestation service itself.
        let report = ias
            .verify_quote(&quote)
            .map_err(ChannelError::Attestation)?;
        report
            .verify(&ias.verify_key(), &quote)
            .map_err(ChannelError::Attestation)?;
        let mut binding = Vec::with_capacity(96);
        binding.extend_from_slice(&eph_pub);
        binding.extend_from_slice(&state.nonce);
        binding.extend_from_slice(state.eph.public_key().as_bytes());
        if sha256(&binding) != report_data {
            return Err(ChannelError::BindingMismatch);
        }
        if &measurement != expected_measurement {
            return Err(ChannelError::WrongMeasurement);
        }
        let mut transcript = Vec::with_capacity(96);
        transcript.extend_from_slice(&state.nonce);
        transcript.extend_from_slice(state.eph.public_key().as_bytes());
        transcript.extend_from_slice(&eph_pub);
        let key = derive_key(&shared, &transcript);
        Ok(AttestedChannel {
            key,
            send_counter: 0,
            recv_counter: 0,
            is_client: true,
        })
    }

    /// Client step 1: produce the hello message (nonce ‖ eph key).
    pub fn client_hello(rng: &mut impl rand::Rng) -> (ClientHello, Vec<u8>) {
        let mut nonce = [0u8; 32];
        rng.fill(&mut nonce);
        let eph = StaticSecret::random(rng);
        let mut msg = Vec::with_capacity(64);
        msg.extend_from_slice(&nonce);
        msg.extend_from_slice(eph.public_key().as_bytes());
        (ClientHello { nonce, eph }, msg)
    }

    /// Server step: attest and respond. The conclave quotes over a digest
    /// binding its ephemeral key and the client's hello, fetches (staples)
    /// the IAS report, and derives its channel endpoint.
    pub fn server_respond(
        rng: &mut impl rand::Rng,
        enclave: &Enclave,
        platform: &Platform,
        ias: &mut Ias,
        client_hello: &[u8],
    ) -> Result<(Vec<u8>, AttestedChannel), ChannelError> {
        if client_hello.len() != 64 {
            return Err(ChannelError::Malformed);
        }
        let mut client_pub = [0u8; 32];
        client_pub.copy_from_slice(&client_hello[32..]);
        let eph = StaticSecret::random(rng);
        let eph_pub = eph.public_key();
        let shared = dh(&eph, client_pub)?;
        // Bind the DH key and the entire client hello into the quote.
        let mut binding = Vec::with_capacity(96);
        binding.extend_from_slice(eph_pub.as_bytes());
        binding.extend_from_slice(client_hello);
        let report_data = sha256(&binding);
        let quote = platform.quote(enclave, report_data);
        let report = ias
            .verify_quote(&quote)
            .map_err(ChannelError::Attestation)?;
        // Serialize: eph_pub | quote | report.
        let mut msg = Vec::new();
        msg.extend_from_slice(eph_pub.as_bytes());
        msg.extend_from_slice(&quote.platform_id.to_be_bytes());
        msg.extend_from_slice(&quote.measurement);
        msg.extend_from_slice(&quote.tcb_version.to_be_bytes());
        msg.extend_from_slice(&quote.report_data);
        msg.extend_from_slice(&quote.mac);
        msg.extend_from_slice(&report.quote_digest);
        msg.push(report.tcb_ok as u8);
        let sig = report.signature.to_bytes();
        msg.extend_from_slice(&(sig.len() as u32).to_be_bytes());
        msg.extend_from_slice(&sig);

        let mut transcript = client_hello.to_vec();
        transcript.extend_from_slice(eph_pub.as_bytes());
        let key = derive_key(&shared, &transcript);
        Ok((
            msg,
            AttestedChannel {
                key,
                send_counter: 0,
                recv_counter: 0,
                is_client: false,
            },
        ))
    }

    /// Client step 2: verify the stapled report and derive the channel.
    /// `expected_measurement` pins the conclave image (Bento execution
    /// environment, not the individual function — §5.4).
    pub fn client_finish(
        state: &ClientHello,
        server_hello: &[u8],
        ias_key: &onion_crypto::hashsig::MerkleVerifyKey,
        expected_measurement: &[u8; 32],
    ) -> Result<AttestedChannel, ChannelError> {
        // 32 eph | 8 pid | 32 meas | 4 tcb | 32 rd | 32 mac | 32 digest |
        // 1 ok | 4 siglen | sig
        if server_hello.len() < 32 + 8 + 32 + 4 + 32 + 32 + 32 + 1 + 4 {
            return Err(ChannelError::Malformed);
        }
        let mut pos = 0usize;
        let mut take = |n: usize| {
            let s = &server_hello[pos..pos + n];
            pos += n;
            s
        };
        let mut eph_pub = [0u8; 32];
        eph_pub.copy_from_slice(take(32));
        let shared = dh(&state.eph, eph_pub)?;
        let platform_id = u64::from_be_bytes(take(8).try_into().expect("len"));
        let mut measurement = [0u8; 32];
        measurement.copy_from_slice(take(32));
        let tcb_version = u32::from_be_bytes(take(4).try_into().expect("len"));
        let mut report_data = [0u8; 32];
        report_data.copy_from_slice(take(32));
        let mut mac = [0u8; 32];
        mac.copy_from_slice(take(32));
        let mut quote_digest = [0u8; 32];
        quote_digest.copy_from_slice(take(32));
        let tcb_ok = take(1)[0] != 0;
        let sig_len = u32::from_be_bytes(take(4).try_into().expect("len")) as usize;
        if server_hello.len() != 32 + 8 + 32 + 4 + 32 + 32 + 32 + 1 + 4 + sig_len {
            return Err(ChannelError::Malformed);
        }
        let signature = Signature::from_bytes(take(sig_len)).ok_or(ChannelError::Malformed)?;

        let quote = Quote {
            platform_id,
            measurement,
            tcb_version,
            report_data,
            mac,
        };
        let report = IasReport {
            quote_digest,
            tcb_ok,
            signature,
        };
        report
            .verify(ias_key, &quote)
            .map_err(ChannelError::Attestation)?;
        // Check the channel binding.
        let mut binding = Vec::with_capacity(96);
        binding.extend_from_slice(&eph_pub);
        binding.extend_from_slice(&state.nonce);
        binding.extend_from_slice(state.eph.public_key().as_bytes());
        if sha256(&binding) != report_data {
            return Err(ChannelError::BindingMismatch);
        }
        if &measurement != expected_measurement {
            return Err(ChannelError::WrongMeasurement);
        }
        let mut transcript = Vec::with_capacity(96);
        transcript.extend_from_slice(&state.nonce);
        transcript.extend_from_slice(state.eph.public_key().as_bytes());
        transcript.extend_from_slice(&eph_pub);
        let key = derive_key(&shared, &transcript);
        Ok(AttestedChannel {
            key,
            send_counter: 0,
            recv_counter: 0,
            is_client: true,
        })
    }

    /// Encrypt a message in place (nonce = direction ‖ counter: in-order
    /// delivery is enforced). `buf` grows by the tag length.
    pub fn seal_msg_in_place(&mut self, buf: &mut Vec<u8>) {
        let nonce = dir_nonce(self.send_counter, self.is_client);
        self.send_counter += 1;
        seal_in_place(&self.key, &nonce, b"", buf);
    }

    /// Encrypt a message, allocating the output buffer.
    pub fn seal_msg(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(plaintext.len() + TAG_LEN);
        buf.extend_from_slice(plaintext);
        self.seal_msg_in_place(&mut buf);
        buf
    }

    /// Decrypt the next message from the peer in place. On success `buf`
    /// shrinks to the plaintext; on failure it is untouched and the receive
    /// counter does not advance.
    pub fn open_msg_in_place(&mut self, buf: &mut Vec<u8>) -> Result<(), ChannelError> {
        let nonce = dir_nonce(self.recv_counter, !self.is_client);
        open_in_place(&self.key, &nonce, b"", buf).map_err(|_| ChannelError::BadMessage)?;
        self.recv_counter += 1;
        Ok(())
    }

    /// Decrypt the next message from the peer.
    pub fn open_msg(&mut self, sealed: &[u8]) -> Result<Vec<u8>, ChannelError> {
        let mut buf = sealed.to_vec();
        self.open_msg_in_place(&mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    struct Setup {
        rng: rand::rngs::StdRng,
        ias: Ias,
        platform: Platform,
        enclave: Enclave,
    }

    fn setup() -> Setup {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut ias = Ias::new([7u8; 32], 2);
        let platform = ias.provision_platform(1, &mut rng);
        let enclave = Enclave::create(1, b"bento conclave", 20 << 20, platform.tcb_version);
        Setup {
            rng,
            ias,
            platform,
            enclave,
        }
    }

    #[test]
    fn channel_establishes_and_carries_messages() {
        let mut s = setup();
        let (state, hello) = AttestedChannel::client_hello(&mut s.rng);
        let (reply, mut server) = AttestedChannel::server_respond(
            &mut s.rng,
            &s.enclave,
            &s.platform,
            &mut s.ias,
            &hello,
        )
        .unwrap();
        let mut client = AttestedChannel::client_finish(
            &state,
            &reply,
            &s.ias.verify_key(),
            &s.enclave.measurement,
        )
        .unwrap();
        // Client uploads the function; only the enclave can read it.
        let upload = client.seal_msg(b"def browser(url, padding): ...");
        assert_eq!(
            server.open_msg(&upload).unwrap(),
            b"def browser(url, padding): ..."
        );
        // And the reverse direction.
        let resp = server.seal_msg(b"invocation-token");
        assert_eq!(client.open_msg(&resp).unwrap(), b"invocation-token");
    }

    #[test]
    fn wrong_measurement_rejected() {
        let mut s = setup();
        let (state, hello) = AttestedChannel::client_hello(&mut s.rng);
        let (reply, _) = AttestedChannel::server_respond(
            &mut s.rng,
            &s.enclave,
            &s.platform,
            &mut s.ias,
            &hello,
        )
        .unwrap();
        let wrong = sha256(b"a different image");
        assert_eq!(
            AttestedChannel::client_finish(&state, &reply, &s.ias.verify_key(), &wrong)
                .err()
                .unwrap(),
            ChannelError::WrongMeasurement
        );
    }

    #[test]
    fn substituted_dh_key_breaks_binding() {
        let mut s = setup();
        let (state, hello) = AttestedChannel::client_hello(&mut s.rng);
        let (mut reply, _) = AttestedChannel::server_respond(
            &mut s.rng,
            &s.enclave,
            &s.platform,
            &mut s.ias,
            &hello,
        )
        .unwrap();
        // An operator-in-the-middle swaps the DH key to its own.
        let mallory = StaticSecret::random(&mut s.rng);
        reply[..32].copy_from_slice(mallory.public_key().as_bytes());
        let r = AttestedChannel::client_finish(
            &state,
            &reply,
            &s.ias.verify_key(),
            &s.enclave.measurement,
        );
        assert_eq!(r.err().unwrap(), ChannelError::BindingMismatch);
    }

    #[test]
    fn replayed_hello_yields_distinct_keys() {
        let mut s = setup();
        let (state, hello) = AttestedChannel::client_hello(&mut s.rng);
        let (r1, mut srv1) = AttestedChannel::server_respond(
            &mut s.rng,
            &s.enclave,
            &s.platform,
            &mut s.ias,
            &hello,
        )
        .unwrap();
        let (_r2, mut srv2) = AttestedChannel::server_respond(
            &mut s.rng,
            &s.enclave,
            &s.platform,
            &mut s.ias,
            &hello,
        )
        .unwrap();
        let mut client = AttestedChannel::client_finish(
            &state,
            &r1,
            &s.ias.verify_key(),
            &s.enclave.measurement,
        )
        .unwrap();
        let m = client.seal_msg(b"for server 1 only");
        assert!(srv1.open_msg(&m).is_ok());
        let m2 = client.seal_msg(b"again");
        assert!(srv2.open_msg(&m2).is_err(), "different session keys");
    }

    #[test]
    fn out_of_order_messages_rejected() {
        let mut s = setup();
        let (state, hello) = AttestedChannel::client_hello(&mut s.rng);
        let (reply, mut server) = AttestedChannel::server_respond(
            &mut s.rng,
            &s.enclave,
            &s.platform,
            &mut s.ias,
            &hello,
        )
        .unwrap();
        let mut client = AttestedChannel::client_finish(
            &state,
            &reply,
            &s.ias.verify_key(),
            &s.enclave.measurement,
        )
        .unwrap();
        let m1 = client.seal_msg(b"first");
        let m2 = client.seal_msg(b"second");
        // Replaying/reordering fails.
        assert!(server.open_msg(&m2).is_err());
        assert!(server.open_msg(&m1).is_ok());
        assert!(server.open_msg(&m1).is_err(), "replay rejected");
        assert!(server.open_msg(&m2).is_ok());
    }

    #[test]
    fn stale_tcb_platform_rejected_by_client() {
        let mut s = setup();
        s.ias.set_min_tcb(s.platform.tcb_version + 1);
        let (state, hello) = AttestedChannel::client_hello(&mut s.rng);
        let (reply, _) = AttestedChannel::server_respond(
            &mut s.rng,
            &s.enclave,
            &s.platform,
            &mut s.ias,
            &hello,
        )
        .unwrap();
        let r = AttestedChannel::client_finish(
            &state,
            &reply,
            &s.ias.verify_key(),
            &s.enclave.measurement,
        );
        assert!(matches!(
            r,
            Err(ChannelError::Attestation(
                AttestationError::TcbOutOfDate { .. }
            ))
        ));
    }

    #[test]
    fn small_order_keys_are_malformed() {
        let mut s = setup();
        let (ias_key, meas) = (s.ias.verify_key(), s.enclave.measurement);
        for point in onion_crypto::x25519::SMALL_ORDER_POINTS {
            let (state, hello) = AttestedChannel::client_hello(&mut s.rng);
            // From the client, in the hello, to either server flow...
            let mut bad = hello.clone();
            bad[32..].copy_from_slice(&point);
            let stapled = AttestedChannel::server_respond(
                &mut s.rng,
                &s.enclave,
                &s.platform,
                &mut s.ias,
                &bad,
            );
            assert_eq!(stapled.err(), Some(ChannelError::Malformed));
            let unstapled = AttestedChannel::server_respond_unstapled(
                &mut s.rng,
                &s.enclave,
                &s.platform,
                &bad,
            );
            assert_eq!(unstapled.err(), Some(ChannelError::Malformed));
            // ...and from the conclave, in place of its key in honest replies.
            let (mut reply, _) = AttestedChannel::server_respond(
                &mut s.rng,
                &s.enclave,
                &s.platform,
                &mut s.ias,
                &hello,
            )
            .unwrap();
            reply[..32].copy_from_slice(&point);
            let finished = AttestedChannel::client_finish(&state, &reply, &ias_key, &meas);
            assert_eq!(finished.err(), Some(ChannelError::Malformed));
            let (mut reply, _) = AttestedChannel::server_respond_unstapled(
                &mut s.rng,
                &s.enclave,
                &s.platform,
                &hello,
            )
            .unwrap();
            reply[..32].copy_from_slice(&point);
            let finished =
                AttestedChannel::client_finish_with_ias(&state, &reply, &mut s.ias, &meas);
            assert_eq!(finished.err(), Some(ChannelError::Malformed));
        }
    }

    #[test]
    fn malformed_messages_rejected() {
        let mut s = setup();
        assert!(matches!(
            AttestedChannel::server_respond(
                &mut s.rng,
                &s.enclave,
                &s.platform,
                &mut s.ias,
                b"short"
            ),
            Err(ChannelError::Malformed)
        ));
        let (state, _hello) = AttestedChannel::client_hello(&mut s.rng);
        assert!(matches!(
            AttestedChannel::client_finish(
                &state,
                b"short",
                &s.ias.verify_key(),
                &s.enclave.measurement
            ),
            Err(ChannelError::Malformed)
        ));
    }
}

#[cfg(test)]
mod unstapled_tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn unstapled_flow_establishes_channel() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut ias = Ias::new([4u8; 32], 2);
        let platform = ias.provision_platform(2, &mut rng);
        let enclave = Enclave::create(2, b"image", 1 << 20, platform.tcb_version);
        let (state, hello) = AttestedChannel::client_hello(&mut rng);
        let (reply, mut server) =
            AttestedChannel::server_respond_unstapled(&mut rng, &enclave, &platform, &hello)
                .unwrap();
        let mut client =
            AttestedChannel::client_finish_with_ias(&state, &reply, &mut ias, &enclave.measurement)
                .unwrap();
        let m = client.seal_msg(b"function source");
        assert_eq!(server.open_msg(&m).unwrap(), b"function source");
    }

    #[test]
    fn unstapled_rejects_unknown_platform_and_wrong_image() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut ias = Ias::new([4u8; 32], 2);
        let platform = ias.provision_platform(3, &mut rng);
        let enclave = Enclave::create(3, b"image", 1 << 20, platform.tcb_version);
        // A rogue platform IAS never provisioned.
        let rogue = Platform::new(99, [9u8; 32], 5);
        let (state, hello) = AttestedChannel::client_hello(&mut rng);
        let (reply, _) =
            AttestedChannel::server_respond_unstapled(&mut rng, &enclave, &rogue, &hello).unwrap();
        assert!(matches!(
            AttestedChannel::client_finish_with_ias(&state, &reply, &mut ias, &enclave.measurement),
            Err(ChannelError::Attestation(AttestationError::UnknownPlatform))
        ));
        // Honest platform but unexpected image.
        let (state, hello) = AttestedChannel::client_hello(&mut rng);
        let (reply, _) =
            AttestedChannel::server_respond_unstapled(&mut rng, &enclave, &platform, &hello)
                .unwrap();
        let wrong = sha256(b"different image");
        assert!(matches!(
            AttestedChannel::client_finish_with_ias(&state, &reply, &mut ias, &wrong),
            Err(ChannelError::WrongMeasurement)
        ));
    }
}
