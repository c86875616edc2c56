//! The hidden-service host component: descriptor publication, introduction
//! points, and the service side of rendezvous.
//!
//! [`HiddenServiceHost`] drives a [`TorClient`]: it builds intro circuits,
//! registers at introduction points, signs and publishes its descriptor to
//! the responsible HSDir, and answers INTRODUCE2 by building a circuit to
//! the client's rendezvous point and joining with RENDEZVOUS1 plus an
//! end-to-end virtual hop.
//!
//! For the paper's LoadBalancer (§8): construct with `auto_rendezvous =
//! false` and the host receives [`HsEvent::Introduction`] instead — it can
//! forward the raw introduction to a *replica*, which calls
//! [`HiddenServiceHost::handle_introduction`] itself. Replicas share the
//! service's key material ("copies all files including the hostname and
//! private key", §8.2), so a replica's RENDEZVOUS1 authenticates correctly.
//!
//! An introduction is bytes any client chose, relayed by an intro point
//! that may be hostile, so decoding one refuses instead of panicking.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::cell::RelayCmd;
use crate::client::{CircuitHandle, TerminalReq, TorClient, TorEvent};
use crate::dir::{Consensus, DirMsg, Fingerprint, HsDescriptor, OnionAddr};
use onion_crypto::aead::{open as aead_open, AeadKey};
use onion_crypto::hashsig::MerkleSigner;
use onion_crypto::hmac::hkdf;
use onion_crypto::ntor;
use onion_crypto::sha256::sha256;
use onion_crypto::x25519::{PublicKey, StaticSecret};
use simnet::Ctx;
use std::collections::{BTreeMap, BTreeSet};

pub use crate::dir::OnionAddr as HsAddr;

/// Pick the HSDir responsible for an onion address by rendezvous hashing —
/// service and client derive the same answer from the same consensus.
pub fn responsible_hsdir(cons: &Consensus, addr: &OnionAddr) -> Option<Fingerprint> {
    cons.with_flags(crate::dir::RelayFlags::HSDIR)
        .into_iter()
        .min_by_key(|r| {
            let mut input = Vec::with_capacity(52);
            input.extend_from_slice(&r.fingerprint);
            input.extend_from_slice(&addr.0);
            sha256(&input)
        })
        .map(|r| r.fingerprint)
}

/// Events the hidden-service component surfaces to its host.
#[derive(Debug)]
pub enum HsEvent {
    /// The descriptor is published; clients can now connect.
    Published(OnionAddr),
    /// An INTRODUCE2 arrived and `auto_rendezvous` is off: the host decides
    /// who answers (the LoadBalancer hook).
    Introduction(Vec<u8>),
    /// A rendezvous circuit to a client is live; incoming streams on it
    /// arrive as ordinary [`TorEvent`]s.
    ClientCircuit(CircuitHandle),
}

struct PendingRendezvous {
    cookie: [u8; 20],
    reply: Vec<u8>,
    keys: ntor::CircuitKeys,
}

/// The service component.
pub struct HiddenServiceHost {
    signer: MerkleSigner,
    enc_secret: StaticSecret,
    n_intro: usize,
    auto_rendezvous: bool,
    /// Rendezvous cookies already answered (replay protection: a malicious
    /// intro point re-forwarding an INTRODUCE2 must not make the service
    /// build endless rendezvous circuits).
    seen_cookies: BTreeSet<[u8; 20]>,
    /// Introductions dropped as replays.
    pub replay_rejections: u64,
    onion_addr: OnionAddr,
    /// intro circuit slot -> (fingerprint, established).
    /// Keyed by circuit handle; a `BTreeMap` so every iteration (notably
    /// the descriptor's intro point list) is deterministic.
    intro_circs: BTreeMap<usize, (Fingerprint, bool)>,
    /// Intro relays whose circuits died; avoided when picking replacements
    /// (failing open when the consensus offers nothing else). A set, so it
    /// holds at most one entry per relay in the consensus.
    intro_failures: BTreeSet<Fingerprint>,
    /// Intro circuits lost and rebuilt since `start()`.
    pub intro_rebuilds: u64,
    /// The published descriptor no longer matches the live intro set
    /// (an intro circuit died); republish once all circuits re-establish.
    desc_stale: bool,
    hsdir_circ: Option<CircuitHandle>,
    desc_bytes: Option<Vec<u8>>,
    pending_rendezvous: BTreeMap<usize, PendingRendezvous>,
    client_circs: Vec<CircuitHandle>,
    published: bool,
    revision: u64,
    events: Vec<HsEvent>,
}

impl HiddenServiceHost {
    /// Create a service whose keys derive deterministically from `seed`.
    /// `auto_rendezvous = false` defers introductions to the host.
    pub fn new(seed: [u8; 32], n_intro: usize, auto_rendezvous: bool) -> HiddenServiceHost {
        let signer = MerkleSigner::generate(seed, 6);
        let enc_secret = StaticSecret::from_bytes(sha256(&[&seed[..], b"enc"].concat()));
        let onion_addr = OnionAddr::from_service_key(&signer.verify_key());
        HiddenServiceHost {
            signer,
            enc_secret,
            n_intro,
            auto_rendezvous,
            seen_cookies: BTreeSet::new(),
            replay_rejections: 0,
            onion_addr,
            intro_circs: BTreeMap::new(),
            intro_failures: BTreeSet::new(),
            intro_rebuilds: 0,
            desc_stale: false,
            hsdir_circ: None,
            desc_bytes: None,
            pending_rendezvous: BTreeMap::new(),
            client_circs: Vec::new(),
            published: false,
            revision: 0,
            events: Vec::new(),
        }
    }

    /// The service's onion address.
    pub fn onion_addr(&self) -> OnionAddr {
        self.onion_addr
    }

    /// Whether the descriptor has been published.
    pub fn is_published(&self) -> bool {
        self.published
    }

    /// Drain service events.
    pub fn drain_events(&mut self) -> Vec<HsEvent> {
        std::mem::take(&mut self.events)
    }

    /// Fingerprints of the current intro relays (established or building),
    /// in circuit-handle order.
    pub fn intro_points(&self) -> Vec<Fingerprint> {
        self.intro_circs.values().map(|(fp, _)| *fp).collect()
    }

    /// Number of intro circuits currently established.
    pub fn intro_established(&self) -> usize {
        self.intro_circs.values().filter(|(_, est)| *est).count()
    }

    /// Begin establishing introduction points (requires the client to have
    /// a consensus). Call once.
    pub fn start(&mut self, ctx: &mut Ctx<'_>, client: &mut TorClient) {
        let Some(cons) = client.consensus() else {
            return;
        };
        // Pick intro relays: walk the consensus in order, skipping any the
        // client cannot end a circuit at (e.g. a Bento box's own relay),
        // until n_intro circuits are building.
        let all: Vec<Fingerprint> = cons
            .with_flags(crate::dir::RelayFlags::FAST)
            .iter()
            .map(|r| r.fingerprint)
            .collect();
        let mut established = 0usize;
        for fp in all {
            if established >= self.n_intro {
                break;
            }
            if let Some(path) = client.select_path(ctx, TerminalReq::Specific(fp)) {
                if let Some(h) = client.build_circuit(ctx, path) {
                    self.intro_circs.insert(h.0, (fp, false));
                    established += 1;
                }
            }
        }
    }

    /// Shut the service down: destroy its intro, HSDir, pending-rendezvous
    /// and client circuits. Each intro relay drops the registration with
    /// its circuit, so nothing answers for the service any more.
    pub fn close(&mut self, ctx: &mut Ctx<'_>, client: &mut TorClient) {
        let intro = std::mem::take(&mut self.intro_circs).into_keys();
        let pending = std::mem::take(&mut self.pending_rendezvous).into_keys();
        let hsdir = self.hsdir_circ.take().map(|h| h.0);
        let clients = std::mem::take(&mut self.client_circs)
            .into_iter()
            .map(|h| h.0);
        for slot in intro.chain(hsdir).chain(pending).chain(clients) {
            client.destroy_circuit(ctx, CircuitHandle(slot));
        }
    }

    /// Answer an introduction (raw INTRODUCE2 payload): decrypt, build a
    /// circuit to the rendezvous point, join, and add the e2e hop.
    /// This is the entry point a LoadBalancer replica uses.
    pub fn handle_introduction(
        &mut self,
        ctx: &mut Ctx<'_>,
        client: &mut TorClient,
        data: &[u8],
    ) -> bool {
        // data = onion_addr(32) | eph_pub(32) | sealed(rp_fp 20 | rp_addr 4 |
        //        rp_port 2 | cookie 20 | onionskin 84 | tag 32)
        let Some((&addr, rest)) = data.split_first_chunk::<32>() else {
            return false;
        };
        if OnionAddr(addr) != self.onion_addr {
            return false;
        }
        let Some((&eph, sealed)) = rest.split_first_chunk::<32>() else {
            return false;
        };
        // X25519 ignores the top bit, so a key with it set is a second
        // encoding of an honest one: a relay could alter it undetected.
        if eph[31] & 0x80 != 0 {
            return false;
        }
        // A small-order key would let anyone seal a blob we accept.
        let Some(shared) = self.enc_secret.diffie_hellman(&PublicKey(eph)) else {
            return false;
        };
        let key = AeadKey::from_master(&hkdf(b"bento-intro", &shared, b"blob"));
        let Ok(plain) = aead_open(&key, &[0u8; 12], &addr, sealed) else {
            return false;
        };
        const BASE: usize = 20 + 4 + 2 + 20 + ntor::ONIONSKIN_LEN;
        if plain.len() != BASE {
            return false;
        }
        let mut rp_fp = [0u8; 20];
        rp_fp.copy_from_slice(&plain[..20]);
        let mut cookie = [0u8; 20];
        cookie.copy_from_slice(&plain[26..46]);
        if !self.seen_cookies.insert(cookie) {
            self.replay_rejections += 1;
            return false;
        }
        let onionskin = &plain[46..];
        // E2E handshake: we are the "server"; our identity is the enc key.
        let mut svc_id = [0u8; 20];
        svc_id.copy_from_slice(&addr[..20]);
        let Ok((reply, keys)) =
            ntor::server_respond(ctx.rng(), svc_id, &self.enc_secret, onionskin)
        else {
            return false;
        };
        // Circuit to the client's rendezvous point.
        let Some(path) = client.select_path(ctx, TerminalReq::Specific(rp_fp)) else {
            return false;
        };
        let Some(h) = client.build_circuit(ctx, path) else {
            return false;
        };
        self.pending_rendezvous.insert(
            h.0,
            PendingRendezvous {
                cookie,
                reply,
                keys,
            },
        );
        true
    }

    /// Feed a client event through the service machinery. Returns the event
    /// back if it was not service-related (the host should handle it).
    pub fn handle_event(
        &mut self,
        ctx: &mut Ctx<'_>,
        client: &mut TorClient,
        ev: TorEvent,
    ) -> Option<TorEvent> {
        match ev {
            TorEvent::CircuitReady(h) => {
                if self.intro_circs.contains_key(&h.0) {
                    client.send_control(
                        ctx,
                        h,
                        RelayCmd::EstablishIntro,
                        self.onion_addr.0.to_vec(),
                    );
                    return None;
                }
                if Some(h) == self.hsdir_circ {
                    if let Some(bytes) = self.desc_bytes.clone() {
                        client.dir_request(ctx, h, DirMsg::PublishHsDesc(bytes));
                    }
                    return None;
                }
                if let Some(pr) = self.pending_rendezvous.remove(&h.0) {
                    let mut data = Vec::with_capacity(20 + pr.reply.len());
                    data.extend_from_slice(&pr.cookie);
                    data.extend_from_slice(&pr.reply);
                    // Seal RENDEZVOUS1 for the RP (the current last hop)
                    // *before* adding the e2e hop.
                    client.send_control(ctx, h, RelayCmd::Rendezvous1, data);
                    client.push_virtual_hop_server(h, &pr.keys);
                    self.client_circs.push(h);
                    self.events.push(HsEvent::ClientCircuit(h));
                    return None;
                }
                Some(TorEvent::CircuitReady(h))
            }
            TorEvent::ControlCell(h, RelayCmd::IntroEstablished, _) => {
                if let Some(entry) = self.intro_circs.get_mut(&h.0) {
                    entry.1 = true;
                }
                if (!self.published || self.desc_stale)
                    && !self.intro_circs.is_empty()
                    && self.intro_circs.values().all(|(_, est)| *est)
                {
                    self.publish_descriptor(ctx, client);
                }
                None
            }
            TorEvent::CircuitClosed(h) => {
                if self.intro_lost(h) {
                    // An intro circuit died (relay crash, link loss): the
                    // descriptor now advertises a dead intro point. Rebuild
                    // on a fresh path and republish once re-established —
                    // without this, a host that loses every intro point
                    // stays unreachable until restart.
                    self.rebuild_intro_circuits(ctx, client);
                    return None;
                }
                if Some(h) == self.hsdir_circ {
                    // The publish circuit died before DescAck: ship the
                    // already-signed descriptor over a fresh circuit.
                    self.hsdir_circ = None;
                    self.ship_descriptor(ctx, client);
                    return None;
                }
                if self.pending_rendezvous.remove(&h.0).is_some() {
                    // The rendezvous circuit failed before RENDEZVOUS1; the
                    // client's own retry machinery re-introduces.
                    return None;
                }
                if let Some(pos) = self.client_circs.iter().position(|&c| c == h) {
                    self.client_circs.remove(pos);
                    return None;
                }
                Some(TorEvent::CircuitClosed(h))
            }
            TorEvent::ControlCell(h, RelayCmd::Introduce2, data) => {
                if self.intro_circs.contains_key(&h.0) {
                    if self.auto_rendezvous {
                        self.handle_introduction(ctx, client, &data);
                    } else {
                        self.events.push(HsEvent::Introduction(data));
                    }
                    return None;
                }
                Some(TorEvent::ControlCell(h, RelayCmd::Introduce2, data))
            }
            TorEvent::DirResponse(h, _, DirMsg::DescAck) => {
                if Some(h) == self.hsdir_circ {
                    self.hsdir_circ = None;
                    client.destroy_circuit(ctx, h);
                    if !self.published {
                        self.published = true;
                        self.events.push(HsEvent::Published(self.onion_addr));
                    }
                    return None;
                }
                Some(TorEvent::DirResponse(h, 0, DirMsg::DescAck))
            }
            other => Some(other),
        }
    }

    /// Sign the current descriptor and ship it to the responsible HSDir.
    fn publish_descriptor(&mut self, ctx: &mut Ctx<'_>, client: &mut TorClient) {
        self.revision += 1;
        let desc = HsDescriptor {
            service_key: self.signer.verify_key(),
            enc_key: self.enc_secret.public_key(),
            intro_points: self.intro_circs.values().map(|(fp, _)| *fp).collect(),
            revision: self.revision,
        };
        let Some(bytes) = desc.encode_signed(&mut self.signer) else {
            return;
        };
        self.desc_bytes = Some(bytes);
        self.desc_stale = false;
        self.ship_descriptor(ctx, client);
    }

    /// Build a circuit to the responsible HSDir carrying the already-signed
    /// descriptor (the CircuitReady arm sends the publish request).
    fn ship_descriptor(&mut self, ctx: &mut Ctx<'_>, client: &mut TorClient) {
        if self.desc_bytes.is_none() || self.hsdir_circ.is_some() {
            return;
        }
        let Some(cons) = client.consensus() else {
            return;
        };
        let Some(hsdir_fp) = responsible_hsdir(cons, &self.onion_addr) else {
            return;
        };
        if let Some(path) = client.select_path(ctx, TerminalReq::Specific(hsdir_fp)) {
            if let Some(h) = client.build_circuit(ctx, path) {
                self.hsdir_circ = Some(h);
            }
        }
    }

    /// Forget circuit `h` if it was an intro circuit: remember its relay as
    /// failed and mark the descriptor stale. Returns whether it was one.
    fn intro_lost(&mut self, h: CircuitHandle) -> bool {
        let Some((dead_fp, _)) = self.intro_circs.remove(&h.0) else {
            return false;
        };
        self.intro_failures.insert(dead_fp);
        self.intro_rebuilds += 1;
        self.desc_stale = true;
        true
    }

    /// Top the intro set back up to `n_intro` circuits after losses. Walks
    /// the consensus FAST relays in order — the same deterministic policy
    /// as [`HiddenServiceHost::start`] — skipping relays already serving as
    /// intro points; relays whose circuits died on us are taken only as a
    /// last resort (failing open, like the client's own failure cache).
    fn rebuild_intro_circuits(&mut self, ctx: &mut Ctx<'_>, client: &mut TorClient) {
        let Some(cons) = client.consensus() else {
            return;
        };
        let candidates: Vec<Fingerprint> = cons
            .with_flags(crate::dir::RelayFlags::FAST)
            .iter()
            .map(|r| r.fingerprint)
            .collect();
        let mut in_use: BTreeSet<Fingerprint> =
            self.intro_circs.values().map(|(fp, _)| *fp).collect();
        for avoid_failed in [true, false] {
            for &fp in &candidates {
                if self.intro_circs.len() >= self.n_intro {
                    return;
                }
                if in_use.contains(&fp) {
                    continue;
                }
                if avoid_failed && self.intro_failures.contains(&fp) {
                    continue;
                }
                if let Some(path) = client.select_path(ctx, TerminalReq::Specific(fp)) {
                    if let Some(h) = client.build_circuit(ctx, path) {
                        self.intro_circs.insert(h.0, (fp, false));
                        in_use.insert(fp);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::{ExitPolicy, RelayFlags, RelayInfo};
    use onion_crypto::hashsig::MerkleSigner;
    use simnet::NodeId;

    fn consensus_with_hsdirs(n: u8) -> Consensus {
        Consensus {
            epoch: 1,
            relays: (0..n)
                .map(|i| RelayInfo {
                    fingerprint: [i; 20],
                    nickname: format!("r{i}"),
                    addr: NodeId(i as u32),
                    or_port: 9001,
                    dir_port: 9030,
                    onion_key: PublicKey([i; 32]),
                    flags: RelayFlags::default().with(RelayFlags::HSDIR),
                    bandwidth: 1000,
                    exit_policy: ExitPolicy::reject_all(),
                    bento_port: None,
                })
                .collect(),
        }
    }

    #[test]
    fn responsible_hsdir_is_deterministic_and_balanced() {
        let cons = consensus_with_hsdirs(8);
        let addr_a = OnionAddr([1u8; 32]);
        let _addr_b = OnionAddr([2u8; 32]);
        let a1 = responsible_hsdir(&cons, &addr_a).unwrap();
        let a2 = responsible_hsdir(&cons, &addr_a).unwrap();
        assert_eq!(a1, a2, "same inputs, same HSDir");
        // Over many addresses, more than one HSDir should be used.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..32u8 {
            let addr = OnionAddr([i; 32]);
            seen.insert(responsible_hsdir(&cons, &addr).unwrap());
        }
        assert!(seen.len() > 1, "rendezvous hashing should spread load");
    }

    #[test]
    fn no_hsdirs_yields_none() {
        let mut cons = consensus_with_hsdirs(3);
        for r in &mut cons.relays {
            r.flags = RelayFlags::default();
        }
        assert!(responsible_hsdir(&cons, &OnionAddr([0u8; 32])).is_none());
    }

    #[test]
    fn onion_addr_derives_from_seed_deterministically() {
        let a = HiddenServiceHost::new([7u8; 32], 3, true);
        let b = HiddenServiceHost::new([7u8; 32], 3, true);
        let c = HiddenServiceHost::new([8u8; 32], 3, true);
        assert_eq!(a.onion_addr(), b.onion_addr());
        assert_ne!(a.onion_addr(), c.onion_addr());
    }

    #[test]
    fn replica_shares_identity_with_same_seed() {
        // The LoadBalancer's replica construction contract: same seed =>
        // same onion address and same enc key (can answer introductions).
        let primary = HiddenServiceHost::new([9u8; 32], 3, false);
        let replica = HiddenServiceHost::new([9u8; 32], 0, true);
        assert_eq!(primary.onion_addr(), replica.onion_addr());
        assert_eq!(
            primary.enc_secret.public_key(),
            replica.enc_secret.public_key()
        );
    }

    #[test]
    fn losing_one_intro_relay_twice_leaves_one_failure() {
        let mut hs = HiddenServiceHost::new([4u8; 32], 2, true);
        let relay = [6u8; 20];
        for slot in [1, 2] {
            hs.intro_circs.insert(slot, (relay, true));
            assert!(hs.intro_lost(CircuitHandle(slot)));
        }
        assert!(!hs.intro_lost(CircuitHandle(3)), "not an intro circuit");
        assert_eq!(hs.intro_rebuilds, 2);
        assert_eq!(hs.intro_failures.len(), 1);
        assert!(hs.intro_failures.contains(&relay));
    }

    #[test]
    fn descriptor_round_trips_through_signer() {
        let mut signer = MerkleSigner::generate([3u8; 32], 4);
        let desc = HsDescriptor {
            service_key: signer.verify_key(),
            enc_key: PublicKey([5u8; 32]),
            intro_points: vec![[1u8; 20]],
            revision: 1,
        };
        let bytes = desc.encode_signed(&mut signer).unwrap();
        assert_eq!(HsDescriptor::decode_verified(&bytes).unwrap(), desc);
    }
}
