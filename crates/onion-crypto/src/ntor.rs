//! An ntor-style authenticated circuit handshake (after Tor's ntor,
//! Goldberg–Stebila–Ustaoglu).
//!
//! The client knows the relay's identity fingerprint and long-term onion
//! (X25519) public key from the directory. One round trip establishes
//! forward/backward keys with server authentication:
//!
//! ```text
//! client: x, X = xG            -->  node_id, B, X          (the "onionskin")
//! server: y, Y = yG            <--  Y, AUTH
//! secret_input = X·y (=Y·x) || X·b (=B·x) || ID || B || X || Y || PROTOID
//! AUTH = HMAC(t_mac, verify || ID || B || Y || X || PROTOID || "Server")
//! keys = HKDF(secret_input)
//! ```
//!
//! Only a party holding the relay's private identity key can compute `AUTH`,
//! so a man in the middle who substitutes its own `Y` is detected by the
//! client (exercised in the tests).

use crate::hmac::{ct_eq, hkdf, hmac_sha256, hmac_sha256_parts};
use crate::x25519::{PublicKey, StaticSecret};

const PROTOID: &[u8] = b"bento-ntor-curve25519-sha256-1";

// Handshakes are per-circuit (cold path); counted inline.
static T_CLIENT_BEGIN: telemetry::Counter = telemetry::Counter::new("ntor.client_begin");
static T_SERVER_RESPOND: telemetry::Counter = telemetry::Counter::new("ntor.server_respond");
static T_CLIENT_FINISH: telemetry::Counter = telemetry::Counter::new("ntor.client_finish");
static T_FAILURES: telemetry::Counter = telemetry::Counter::new("ntor.failures");

/// Relay identity fingerprint (hash of its identity keys, assigned by the
/// directory).
pub type NodeId = [u8; 20];

/// Handshake failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NtorError {
    /// The onionskin or reply was structurally malformed.
    Malformed,
    /// The server's AUTH tag did not verify: wrong relay or active attack.
    AuthFailed,
}

impl std::fmt::Display for NtorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NtorError::Malformed => write!(f, "malformed ntor message"),
            NtorError::AuthFailed => write!(f, "ntor server authentication failed"),
        }
    }
}

impl std::error::Error for NtorError {}

/// The symmetric key material a completed handshake yields: independent
/// cipher keys, digest seeds, and nonces for each direction.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq, Eq))]
pub struct CircuitKeys {
    /// Forward (client→relay) cipher key.
    pub kf: [u8; 32],
    /// Backward (relay→client) cipher key.
    pub kb: [u8; 32],
    /// Forward running-digest seed.
    pub df: [u8; 32],
    /// Backward running-digest seed.
    pub db: [u8; 32],
    /// Forward cipher nonce.
    pub nf: [u8; 12],
    /// Backward cipher nonce.
    pub nb: [u8; 12],
}

impl CircuitKeys {
    fn from_okm(okm: &[u8; OKM_LEN]) -> CircuitKeys {
        let mut kf = [0u8; 32];
        let mut kb = [0u8; 32];
        let mut df = [0u8; 32];
        let mut db = [0u8; 32];
        let mut nf = [0u8; 12];
        let mut nb = [0u8; 12];
        kf.copy_from_slice(&okm[0..32]);
        kb.copy_from_slice(&okm[32..64]);
        df.copy_from_slice(&okm[64..96]);
        db.copy_from_slice(&okm[96..128]);
        nf.copy_from_slice(&okm[128..140]);
        nb.copy_from_slice(&okm[140..152]);
        CircuitKeys {
            kf,
            kb,
            df,
            db,
            nf,
            nb,
        }
    }
}

/// Client-side state held between [`client_begin`] and [`client_finish`].
pub struct ClientHandshake {
    node_id: NodeId,
    relay_onion_key: PublicKey,
    eph: StaticSecret,
}

/// Size of the onionskin the client sends.
pub const ONIONSKIN_LEN: usize = 20 + 32 + 32;
/// Size of the server's reply.
pub const REPLY_LEN: usize = 32 + 32;

/// Begin a handshake toward a relay with the given identity and onion key.
/// Returns the state to keep and the onionskin to send.
pub fn client_begin(
    rng: &mut impl rand::Rng,
    node_id: NodeId,
    relay_onion_key: PublicKey,
) -> (ClientHandshake, Vec<u8>) {
    T_CLIENT_BEGIN.inc();
    let eph = StaticSecret::random(rng);
    let mut onionskin = Vec::with_capacity(ONIONSKIN_LEN);
    onionskin.extend_from_slice(&node_id);
    onionskin.extend_from_slice(relay_onion_key.as_bytes());
    onionskin.extend_from_slice(eph.public_key().as_bytes());
    (
        ClientHandshake {
            node_id,
            relay_onion_key,
            eph,
        },
        onionskin,
    )
}

const SECRET_INPUT_LEN: usize = 32 * 5 + 20 + PROTOID.len();
const OKM_LEN: usize = 32 * 4 + 12 * 2;

fn secret_input(
    xy: &[u8; 32],
    xb: &[u8; 32],
    node_id: &NodeId,
    b: &PublicKey,
    x: &PublicKey,
    y: &PublicKey,
) -> [u8; SECRET_INPUT_LEN] {
    let parts: [&[u8]; 7] = [
        xy,
        xb,
        node_id,
        b.as_bytes(),
        x.as_bytes(),
        y.as_bytes(),
        PROTOID,
    ];
    let mut s = [0u8; SECRET_INPUT_LEN];
    let mut pos = 0;
    for part in parts {
        s[pos..pos + part.len()].copy_from_slice(part);
        pos += part.len();
    }
    s
}

fn auth_tag(
    secret: &[u8],
    node_id: &NodeId,
    b: &PublicKey,
    y: &PublicKey,
    x: &PublicKey,
) -> [u8; 32] {
    let verify = hmac_sha256(secret, b"ntor-verify");
    hmac_sha256_parts(
        b"ntor-mac",
        &[
            &verify,
            node_id,
            b.as_bytes(),
            y.as_bytes(),
            x.as_bytes(),
            PROTOID,
            b"Server",
        ],
    )
}

fn derive_keys(secret: &[u8]) -> CircuitKeys {
    CircuitKeys::from_okm(&hkdf(b"ntor-key-extract", secret, b"ntor-key-expand"))
}

/// Server side: process an onionskin, produce the reply and circuit keys.
///
/// `identity` is the relay's long-term onion secret whose public half the
/// directory advertises.
pub fn server_respond(
    rng: &mut impl rand::Rng,
    node_id: NodeId,
    identity: &StaticSecret,
    onionskin: &[u8],
) -> Result<(Vec<u8>, CircuitKeys), NtorError> {
    T_SERVER_RESPOND.inc();
    if onionskin.len() != ONIONSKIN_LEN {
        T_FAILURES.inc();
        return Err(NtorError::Malformed);
    }
    let mut claimed_id = [0u8; 20];
    claimed_id.copy_from_slice(&onionskin[..20]);
    let mut b_bytes = [0u8; 32];
    b_bytes.copy_from_slice(&onionskin[20..52]);
    let mut x_bytes = [0u8; 32];
    x_bytes.copy_from_slice(&onionskin[52..84]);
    let b_pub = identity.public_key();
    if claimed_id != node_id || b_bytes != *b_pub.as_bytes() {
        // The client was aiming at a different relay or stale keys.
        T_FAILURES.inc();
        return Err(NtorError::AuthFailed);
    }
    let x = PublicKey(x_bytes);
    let eph = StaticSecret::random(rng);
    let y = eph.public_key();
    let (Some(xy), Some(xb)) = (eph.diffie_hellman(&x), identity.diffie_hellman(&x)) else {
        // A small-order X: the keys would not depend on either secret.
        T_FAILURES.inc();
        return Err(NtorError::Malformed);
    };
    let secret = secret_input(&xy, &xb, &node_id, &b_pub, &x, &y);
    let auth = auth_tag(&secret, &node_id, &b_pub, &y, &x);
    let mut reply = Vec::with_capacity(REPLY_LEN);
    reply.extend_from_slice(y.as_bytes());
    reply.extend_from_slice(&auth);
    Ok((reply, derive_keys(&secret)))
}

/// Client side: verify the server's reply and derive circuit keys.
pub fn client_finish(state: &ClientHandshake, reply: &[u8]) -> Result<CircuitKeys, NtorError> {
    T_CLIENT_FINISH.inc();
    if reply.len() != REPLY_LEN {
        T_FAILURES.inc();
        return Err(NtorError::Malformed);
    }
    let mut y_bytes = [0u8; 32];
    y_bytes.copy_from_slice(&reply[..32]);
    let y = PublicKey(y_bytes);
    let (Some(xy), Some(xb)) = (
        state.eph.diffie_hellman(&y),
        state.eph.diffie_hellman(&state.relay_onion_key),
    ) else {
        T_FAILURES.inc();
        return Err(NtorError::Malformed);
    };
    let (id, b, x) = (
        &state.node_id,
        &state.relay_onion_key,
        state.eph.public_key(),
    );
    let secret = secret_input(&xy, &xb, id, b, &x, &y);
    let expect = auth_tag(&secret, id, b, &y, &x);
    if !ct_eq(&expect, &reply[32..]) {
        T_FAILURES.inc();
        return Err(NtorError::AuthFailed);
    }
    Ok(derive_keys(&secret))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (StdRng, NodeId, StaticSecret) {
        let mut rng = StdRng::seed_from_u64(99);
        let identity = StaticSecret::random(&mut rng);
        (rng, [5u8; 20], identity)
    }

    #[test]
    fn handshake_derives_matching_keys() {
        let (mut rng, node_id, identity) = setup();
        let (state, onionskin) = client_begin(&mut rng, node_id, identity.public_key());
        let (reply, server_keys) =
            server_respond(&mut rng, node_id, &identity, &onionskin).unwrap();
        let client_keys = client_finish(&state, &reply).unwrap();
        assert_eq!(client_keys.kf, server_keys.kf);
        assert_eq!(client_keys.kb, server_keys.kb);
        assert_eq!(client_keys.df, server_keys.df);
        assert_eq!(client_keys.db, server_keys.db);
        assert_eq!(client_keys.nf, server_keys.nf);
        assert_eq!(client_keys.nb, server_keys.nb);
        assert_ne!(client_keys.kf, client_keys.kb);
    }

    #[test]
    fn mitm_substituting_y_is_detected() {
        let (mut rng, node_id, identity) = setup();
        let (state, onionskin) = client_begin(&mut rng, node_id, identity.public_key());
        let (mut reply, _) = server_respond(&mut rng, node_id, &identity, &onionskin).unwrap();
        // Attacker replaces Y with its own ephemeral key.
        let mallory = StaticSecret::random(&mut rng);
        reply[..32].copy_from_slice(mallory.public_key().as_bytes());
        assert!(matches!(
            client_finish(&state, &reply),
            Err(NtorError::AuthFailed)
        ));
    }

    #[test]
    fn wrong_identity_key_is_detected() {
        let (mut rng, node_id, identity) = setup();
        let imposter = StaticSecret::random(&mut rng);
        // Client aims at the honest relay's advertised key, but an imposter
        // without the private key answers: the onionskin names a key the
        // imposter does not hold, so it cannot accept it.
        let (_state, onionskin) = client_begin(&mut rng, node_id, identity.public_key());
        match server_respond(&mut rng, node_id, &imposter, &onionskin) {
            Err(NtorError::AuthFailed) => {}
            other => panic!("expected AuthFailed, got {:?}", other.map(|(r, _)| r)),
        }
    }

    #[test]
    fn malformed_messages_rejected() {
        let (mut rng, node_id, identity) = setup();
        assert!(matches!(
            server_respond(&mut rng, node_id, &identity, b"short"),
            Err(NtorError::Malformed)
        ));
        let (state, _skin) = client_begin(&mut rng, node_id, identity.public_key());
        assert!(matches!(
            client_finish(&state, b"short"),
            Err(NtorError::Malformed)
        ));
    }

    #[test]
    fn distinct_handshakes_yield_distinct_keys() {
        let (mut rng, node_id, identity) = setup();
        let run = |rng: &mut StdRng| {
            let (state, skin) = client_begin(rng, node_id, identity.public_key());
            let (reply, _) = server_respond(rng, node_id, &identity, &skin).unwrap();
            client_finish(&state, &reply).unwrap()
        };
        let k1 = run(&mut rng);
        let k2 = run(&mut rng);
        assert_ne!(k1.kf, k2.kf);
    }

    #[test]
    fn corrupted_auth_rejected() {
        let (mut rng, node_id, identity) = setup();
        let (state, onionskin) = client_begin(&mut rng, node_id, identity.public_key());
        let (mut reply, _) = server_respond(&mut rng, node_id, &identity, &onionskin).unwrap();
        reply[40] ^= 1;
        assert!(matches!(
            client_finish(&state, &reply),
            Err(NtorError::AuthFailed)
        ));
    }

    #[test]
    fn small_order_points_are_malformed() {
        let (mut rng, node_id, identity) = setup();
        for point in crate::x25519::SMALL_ORDER_POINTS {
            // As the client's X in an otherwise honest onionskin...
            let (state, mut skin) = client_begin(&mut rng, node_id, identity.public_key());
            skin[52..].copy_from_slice(&point);
            assert!(matches!(
                server_respond(&mut rng, node_id, &identity, &skin),
                Err(NtorError::Malformed)
            ));
            // ...and as the server's Y in the reply.
            let mut reply = [0u8; REPLY_LEN];
            reply[..32].copy_from_slice(&point);
            assert!(matches!(
                client_finish(&state, &reply),
                Err(NtorError::Malformed)
            ));
        }
    }

    /// Fixed-seed transcript pinned from the code before the handshake fast
    /// path: every simulated key, path and timing in `results/` hangs off
    /// these bytes, so a refactor that changes them re-keys every artifact.
    #[test]
    fn golden_transcript_is_pinned() {
        let (mut rng, node_id, identity) = setup();
        let (state, skin) = client_begin(&mut rng, node_id, identity.public_key());
        let (reply, server_keys) = server_respond(&mut rng, node_id, &identity, &skin).unwrap();
        let k = client_finish(&state, &reply).unwrap();
        assert_eq!(k, server_keys);
        let digest = crate::sha256::sha256_concat(&[
            &skin, &reply, &k.kf, &k.kb, &k.df, &k.db, &k.nf, &k.nb,
        ]);
        assert_eq!(
            crate::sha256::digest_hex(&digest),
            "b77ea6cfee5221c4725e0d664c68fe1bf2c6a82fad5f3ec3ffb05146bdd1ba39"
        );
    }
}
