//! Directory documents: relay descriptors, exit policies, the signed
//! consensus, and hidden-service descriptors, plus the directory protocol
//! messages exchanged on DIR streams/connections.
//!
//! The authority signs the consensus with a hash-based Merkle signature
//! ([`onion_crypto::hashsig`]); clients verify against a pinned authority
//! key, mirroring Tor's hardcoded directory-authority keys.
//!
//! Every document here is decoded from bytes a peer sent, so decoding
//! refuses instead of panicking.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use onion_crypto::hashsig::{MerkleVerifyKey, Signature};
use onion_crypto::sha256::sha256;
use onion_crypto::x25519::PublicKey;
use simnet::wire::{Reader, WireError, Writer};
use simnet::NodeId;

/// A relay's identity fingerprint (20 bytes, hash of its identity key).
pub type Fingerprint = [u8; 20];

/// A hidden service's address: the hash of its identity (signing) key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OnionAddr(pub [u8; 32]);

impl OnionAddr {
    /// Derive the onion address from a service's identity verify key.
    pub fn from_service_key(vk: &MerkleVerifyKey) -> OnionAddr {
        let mut input = Vec::with_capacity(33);
        input.extend_from_slice(&vk.root);
        input.push(vk.height);
        OnionAddr(sha256(&input))
    }

    /// Short printable form ("abcdef0123.onion").
    pub fn to_string_short(&self) -> String {
        let hex: String = self.0[..5].iter().map(|b| format!("{b:02x}")).collect();
        format!("{hex}.onion")
    }
}

/// Role/capability flags in the consensus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelayFlags(pub u16);

impl RelayFlags {
    /// Suitable as an entry guard.
    pub const GUARD: u16 = 1 << 0;
    /// Willing to be an exit (has a usable exit policy).
    pub const EXIT: u16 = 1 << 1;
    /// Stores hidden-service descriptors.
    pub const HSDIR: u16 = 1 << 2;
    /// Runs a Bento server (the paper's middlebox opt-in).
    pub const BENTO: u16 = 1 << 3;
    /// Directory authority.
    pub const AUTHORITY: u16 = 1 << 4;
    /// Fast/stable relay (eligible for any position).
    pub const FAST: u16 = 1 << 5;

    /// Does this flag set contain all bits of `mask`?
    pub fn has(self, mask: u16) -> bool {
        self.0 & mask == mask
    }

    /// Set `mask` bits.
    pub fn with(mut self, mask: u16) -> Self {
        self.0 |= mask;
        self
    }
}

/// One exit-policy rule: accept or reject a destination/port pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyRule {
    /// Accept (true) or reject (false).
    pub accept: bool,
    /// Destination host; `None` is a wildcard.
    pub host: Option<NodeId>,
    /// Inclusive port range.
    pub ports: (u16, u16),
}

impl PolicyRule {
    fn matches(&self, host: NodeId, port: u16) -> bool {
        self.host.map(|h| h == host).unwrap_or(true) && port >= self.ports.0 && port <= self.ports.1
    }
}

/// An ordered exit policy: first matching rule wins; default reject.
///
/// The Bento server converts this same policy into per-container network
/// rules (the paper's iptables translation, §5.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExitPolicy {
    /// Rules in priority order.
    pub rules: Vec<PolicyRule>,
}

impl ExitPolicy {
    /// Reject everything (a non-exit relay).
    pub fn reject_all() -> ExitPolicy {
        ExitPolicy { rules: Vec::new() }
    }

    /// Accept any destination on any port.
    pub fn accept_all() -> ExitPolicy {
        ExitPolicy {
            rules: vec![PolicyRule {
                accept: true,
                host: None,
                ports: (0, u16::MAX),
            }],
        }
    }

    /// Accept only web ports (80/443) anywhere — a typical exit.
    pub fn web_only() -> ExitPolicy {
        ExitPolicy {
            rules: vec![
                PolicyRule {
                    accept: true,
                    host: None,
                    ports: (80, 80),
                },
                PolicyRule {
                    accept: true,
                    host: None,
                    ports: (443, 443),
                },
            ],
        }
    }

    /// Append an accept rule for one host:port (e.g. localhost Bento).
    pub fn with_accept(mut self, host: NodeId, port: u16) -> Self {
        self.rules.push(PolicyRule {
            accept: true,
            host: Some(host),
            ports: (port, port),
        });
        self
    }

    /// Evaluate the policy.
    pub fn allows(&self, host: NodeId, port: u16) -> bool {
        for r in &self.rules {
            if r.matches(host, port) {
                return r.accept;
            }
        }
        false
    }

    fn encode_into(&self, w: &mut Writer) {
        w.varu64(self.rules.len() as u64);
        for r in &self.rules {
            w.bool(r.accept);
            match r.host {
                Some(h) => {
                    w.u8(1);
                    w.u32(h.0);
                }
                None => {
                    w.u8(0);
                }
            }
            w.u16(r.ports.0);
            w.u16(r.ports.1);
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<ExitPolicy, WireError> {
        let n = r.varu64()?;
        if n > 1024 {
            return Err(WireError::LengthTooLarge {
                what: "exit policy rules",
                announced: n,
                max: 1024,
            });
        }
        let mut rules = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let accept = r.bool()?;
            let host = match r.u8()? {
                0 => None,
                1 => Some(NodeId(r.u32()?)),
                v => {
                    return Err(WireError::BadDiscriminant {
                        what: "policy host",
                        value: v as u64,
                    })
                }
            };
            let ports = (r.u16()?, r.u16()?);
            rules.push(PolicyRule {
                accept,
                host,
                ports,
            });
        }
        Ok(ExitPolicy { rules })
    }
}

/// One relay's entry in the consensus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayInfo {
    /// Identity fingerprint.
    pub fingerprint: Fingerprint,
    /// Human-readable nickname.
    pub nickname: String,
    /// Simulated-network address.
    pub addr: NodeId,
    /// OR (cell) port.
    pub or_port: u16,
    /// Directory port.
    pub dir_port: u16,
    /// Long-term ntor onion key.
    pub onion_key: PublicKey,
    /// Role flags.
    pub flags: RelayFlags,
    /// Advertised bandwidth (bytes/s) for weighted path selection.
    pub bandwidth: u64,
    /// Exit policy.
    pub exit_policy: ExitPolicy,
    /// Bento server port, if this relay opts into running one.
    pub bento_port: Option<u16>,
}

impl RelayInfo {
    /// Upper bound on this entry's encoded size, for pre-sizing writers.
    fn encoded_size_hint(&self) -> usize {
        96 + self.nickname.len() + 10 * self.exit_policy.rules.len()
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(self.encoded_size_hint());
        self.encode_into(&mut w);
        w.into_bytes()
    }

    fn encode_into(&self, w: &mut Writer) {
        w.raw(&self.fingerprint);
        w.str(&self.nickname);
        w.u32(self.addr.0);
        w.u16(self.or_port);
        w.u16(self.dir_port);
        w.raw(self.onion_key.as_bytes());
        w.u16(self.flags.0);
        w.u64(self.bandwidth);
        self.exit_policy.encode_into(w);
        match self.bento_port {
            Some(p) => {
                w.u8(1);
                w.u16(p);
            }
            None => {
                w.u8(0);
            }
        }
    }

    /// Decode from bytes.
    pub fn decode(buf: &[u8]) -> Result<RelayInfo, WireError> {
        let mut r = Reader::new(buf);
        let info = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(info)
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<RelayInfo, WireError> {
        let fingerprint: Fingerprint = r.array("fingerprint")?;
        let nickname = r.str("nickname")?;
        let addr = NodeId(r.u32()?);
        let or_port = r.u16()?;
        let dir_port = r.u16()?;
        let onion_key = PublicKey(r.array("onion key")?);
        let flags = RelayFlags(r.u16()?);
        let bandwidth = r.u64()?;
        let exit_policy = ExitPolicy::decode_from(r)?;
        let bento_port = match r.u8()? {
            0 => None,
            1 => Some(r.u16()?),
            v => {
                return Err(WireError::BadDiscriminant {
                    what: "bento port flag",
                    value: v as u64,
                })
            }
        };
        Ok(RelayInfo {
            fingerprint,
            nickname,
            addr,
            or_port,
            dir_port,
            onion_key,
            flags,
            bandwidth,
            exit_policy,
            bento_port,
        })
    }
}

/// The network consensus: the relay list for an epoch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Consensus {
    /// Consensus epoch (monotonic).
    pub epoch: u64,
    /// All known relays.
    pub relays: Vec<RelayInfo>,
}

impl Consensus {
    /// Encode the unsigned body.
    pub fn encode(&self) -> Vec<u8> {
        // Size the buffer for the whole relay list up front: a consensus is
        // re-encoded per directory fetch, and growing it entry by entry is
        // the dominant allocation in the bootstrap phase.
        let hint: usize = 18
            + self
                .relays
                .iter()
                .map(RelayInfo::encoded_size_hint)
                .sum::<usize>();
        let mut w = Writer::with_capacity(hint);
        w.u64(self.epoch);
        w.varu64(self.relays.len() as u64);
        for rel in &self.relays {
            rel.encode_into(&mut w);
        }
        w.into_bytes()
    }

    /// Decode an unsigned body.
    pub fn decode(buf: &[u8]) -> Result<Consensus, WireError> {
        let mut r = Reader::new(buf);
        let epoch = r.u64()?;
        let n = r.varu64()?;
        if n > 100_000 {
            return Err(WireError::LengthTooLarge {
                what: "consensus relays",
                announced: n,
                max: 100_000,
            });
        }
        let mut relays = Vec::with_capacity(n as usize);
        for _ in 0..n {
            relays.push(RelayInfo::decode_from(&mut r)?);
        }
        r.finish()?;
        Ok(Consensus { epoch, relays })
    }

    /// Find a relay by fingerprint.
    pub fn relay(&self, fp: &Fingerprint) -> Option<&RelayInfo> {
        self.relays.iter().find(|r| &r.fingerprint == fp)
    }

    /// Relays whose flags include all bits of `mask`.
    pub fn with_flags(&self, mask: u16) -> Vec<&RelayInfo> {
        self.relays.iter().filter(|r| r.flags.has(mask)).collect()
    }

    /// Pick a relay weighted by advertised bandwidth among those matching
    /// `mask` and the extra predicate. `None` if no candidate.
    pub fn pick_weighted(
        &self,
        rng: &mut impl rand::Rng,
        mask: u16,
        extra: impl Fn(&RelayInfo) -> bool,
    ) -> Option<&RelayInfo> {
        let candidates: Vec<&RelayInfo> = self
            .relays
            .iter()
            .filter(|r| r.flags.has(mask) && extra(r))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let total: u64 = candidates.iter().map(|r| r.bandwidth.max(1)).sum();
        let mut target = rng.gen_range(0..total);
        for c in &candidates {
            let w = c.bandwidth.max(1);
            if target < w {
                return Some(c);
            }
            target -= w;
        }
        candidates.last().copied()
    }
}

/// A consensus with the authority's signature over its encoding.
#[derive(Debug, Clone)]
pub struct SignedConsensus {
    /// The encoded consensus body.
    pub body: Vec<u8>,
    /// Authority signature over `body`.
    pub signature: Signature,
}

impl SignedConsensus {
    /// Encode (body, signature).
    pub fn encode(&self) -> Vec<u8> {
        let sig = self.signature.to_bytes();
        let mut w = Writer::with_capacity(self.body.len() + sig.len() + 20);
        w.bytes(&self.body);
        w.bytes(&sig);
        w.into_bytes()
    }

    /// Decode; structural checks only (verify separately).
    pub fn decode(buf: &[u8]) -> Result<SignedConsensus, WireError> {
        let mut r = Reader::new(buf);
        let body = r.bytes_vec("consensus body")?;
        let sig_bytes = r.bytes_vec("consensus signature")?;
        r.finish()?;
        let signature = Signature::from_bytes(&sig_bytes).ok_or(WireError::BadDiscriminant {
            what: "signature",
            value: 0,
        })?;
        Ok(SignedConsensus { body, signature })
    }

    /// Verify against the pinned authority key and decode the body.
    pub fn verify(&self, authority: &MerkleVerifyKey) -> Option<Consensus> {
        if !authority.verify(&self.body, &self.signature) {
            return None;
        }
        Consensus::decode(&self.body).ok()
    }
}

/// A hidden-service descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HsDescriptor {
    /// The service's identity verify key (its onion address preimage).
    pub service_key: MerkleVerifyKey,
    /// The service's encryption (x25519) key for INTRODUCE payloads.
    pub enc_key: PublicKey,
    /// Fingerprints of the current introduction points.
    pub intro_points: Vec<Fingerprint>,
    /// Revision counter.
    pub revision: u64,
}

impl HsDescriptor {
    /// The onion address this descriptor belongs to.
    pub fn onion_addr(&self) -> OnionAddr {
        OnionAddr::from_service_key(&self.service_key)
    }

    fn body_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(96 + 32 * self.intro_points.len());
        w.raw(&self.service_key.root);
        w.u8(self.service_key.height);
        w.raw(self.enc_key.as_bytes());
        w.varu64(self.intro_points.len() as u64);
        for ip in &self.intro_points {
            w.raw(ip);
        }
        w.u64(self.revision);
        w.into_bytes()
    }

    /// Sign and encode with the service's signer.
    pub fn encode_signed(
        &self,
        signer: &mut onion_crypto::hashsig::MerkleSigner,
    ) -> Option<Vec<u8>> {
        let body = self.body_bytes();
        let sig = signer.sign(&body)?.to_bytes();
        let mut w = Writer::with_capacity(body.len() + sig.len() + 20);
        w.bytes(&body);
        w.bytes(&sig);
        Some(w.into_bytes())
    }

    /// Decode and verify a signed descriptor; the signature must verify
    /// under the service key *inside* the descriptor (self-certifying: the
    /// onion address is the hash of that key).
    pub fn decode_verified(buf: &[u8]) -> Option<HsDescriptor> {
        let mut r = Reader::new(buf);
        let body = r.bytes_vec("hs desc body").ok()?;
        let sig_bytes = r.bytes_vec("hs desc sig").ok()?;
        r.finish().ok()?;
        let sig = Signature::from_bytes(&sig_bytes)?;
        let desc = Self::decode_body(&body)?;
        if !desc.service_key.verify(&body, &sig) {
            return None;
        }
        Some(desc)
    }

    fn decode_body(body: &[u8]) -> Option<HsDescriptor> {
        let mut r = Reader::new(body);
        let root: [u8; 32] = r.array("service key root").ok()?;
        let height = r.u8().ok()?;
        let service_key = MerkleVerifyKey { root, height };
        let enc_key = PublicKey(r.array("enc key").ok()?);
        let n = r.varu64().ok()?;
        if n > 32 {
            return None;
        }
        let mut intro_points = Vec::with_capacity(n as usize);
        for _ in 0..n {
            intro_points.push(r.array("intro fp").ok()?);
        }
        let revision = r.u64().ok()?;
        r.finish().ok()?;
        Some(HsDescriptor {
            service_key,
            enc_key,
            intro_points,
            revision,
        })
    }
}

/// Directory protocol messages (on DIR-port connections and DIR streams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirMsg {
    /// Request the current consensus.
    FetchConsensus,
    /// The signed consensus.
    ConsensusResp(Vec<u8>),
    /// A relay uploading its descriptor to the authority.
    PublishDesc(Vec<u8>),
    /// Upload acknowledged.
    DescAck,
    /// A hidden service publishing its signed descriptor to an HSDir.
    PublishHsDesc(Vec<u8>),
    /// Request a hidden service descriptor by onion address.
    FetchHsDesc(OnionAddr),
    /// Descriptor response (`None` = not found).
    HsDescResp(Option<Vec<u8>>),
}

impl DirMsg {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        // Responses carry a whole consensus or descriptor; reserve for the
        // payload instead of growing through it.
        let hint = match self {
            DirMsg::ConsensusResp(b) | DirMsg::PublishDesc(b) | DirMsg::PublishHsDesc(b) => {
                b.len() + 10
            }
            DirMsg::HsDescResp(Some(b)) => b.len() + 11,
            _ => 40,
        };
        let mut w = Writer::with_capacity(hint);
        match self {
            DirMsg::FetchConsensus => {
                w.u8(1);
            }
            DirMsg::ConsensusResp(b) => {
                w.u8(2);
                w.bytes(b);
            }
            DirMsg::PublishDesc(b) => {
                w.u8(3);
                w.bytes(b);
            }
            DirMsg::DescAck => {
                w.u8(4);
            }
            DirMsg::PublishHsDesc(b) => {
                w.u8(5);
                w.bytes(b);
            }
            DirMsg::FetchHsDesc(addr) => {
                w.u8(6);
                w.raw(&addr.0);
            }
            DirMsg::HsDescResp(opt) => {
                w.u8(7);
                match opt {
                    Some(b) => {
                        w.u8(1);
                        w.bytes(b);
                    }
                    None => {
                        w.u8(0);
                    }
                }
            }
        }
        w.into_bytes()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<DirMsg, WireError> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let msg = match tag {
            1 => DirMsg::FetchConsensus,
            2 => DirMsg::ConsensusResp(r.bytes_vec("consensus")?),
            3 => DirMsg::PublishDesc(r.bytes_vec("descriptor")?),
            4 => DirMsg::DescAck,
            5 => DirMsg::PublishHsDesc(r.bytes_vec("hs descriptor")?),
            6 => DirMsg::FetchHsDesc(OnionAddr(r.array("onion addr")?)),
            7 => match r.u8()? {
                0 => DirMsg::HsDescResp(None),
                1 => DirMsg::HsDescResp(Some(r.bytes_vec("hs descriptor")?)),
                v => {
                    return Err(WireError::BadDiscriminant {
                        what: "hs desc option",
                        value: v as u64,
                    })
                }
            },
            v => {
                return Err(WireError::BadDiscriminant {
                    what: "dir message",
                    value: v as u64,
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_crypto::hashsig::MerkleSigner;
    use rand::SeedableRng;

    fn sample_relay(i: u8) -> RelayInfo {
        RelayInfo {
            fingerprint: [i; 20],
            nickname: format!("relay{i}"),
            addr: NodeId(i as u32),
            or_port: 9001,
            dir_port: 9030,
            onion_key: PublicKey([i ^ 0x55; 32]),
            flags: RelayFlags::default().with(RelayFlags::GUARD | RelayFlags::FAST),
            bandwidth: 1000 * (i as u64 + 1),
            exit_policy: ExitPolicy::web_only(),
            bento_port: if i.is_multiple_of(2) {
                Some(5005)
            } else {
                None
            },
        }
    }

    #[test]
    fn relay_info_roundtrip() {
        let r = sample_relay(3);
        let back = RelayInfo::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn consensus_roundtrip_and_queries() {
        let c = Consensus {
            epoch: 9,
            relays: (0..10).map(sample_relay).collect(),
        };
        let back = Consensus::decode(&c.encode()).unwrap();
        assert_eq!(back, c);
        assert!(back.relay(&[3u8; 20]).is_some());
        assert!(back.relay(&[99u8; 20]).is_none());
        assert_eq!(back.with_flags(RelayFlags::GUARD).len(), 10);
        assert_eq!(back.with_flags(RelayFlags::AUTHORITY).len(), 0);
    }

    #[test]
    fn signed_consensus_verifies_and_rejects_tamper() {
        let mut signer = MerkleSigner::generate([1u8; 32], 2);
        let vk = signer.verify_key();
        let c = Consensus {
            epoch: 1,
            relays: vec![sample_relay(1)],
        };
        let body = c.encode();
        let sc = SignedConsensus {
            signature: signer.sign(&body).unwrap(),
            body,
        };
        let wire = sc.encode();
        let back = SignedConsensus::decode(&wire).unwrap();
        assert_eq!(back.verify(&vk).unwrap(), c);

        // Tamper: flip a byte in the body.
        let mut tampered = back.clone();
        tampered.body[3] ^= 1;
        assert!(tampered.verify(&vk).is_none());

        // Wrong authority key.
        let other = MerkleSigner::generate([2u8; 32], 2).verify_key();
        assert!(back.verify(&other).is_none());
    }

    #[test]
    fn exit_policy_first_match_wins() {
        let p = ExitPolicy {
            rules: vec![
                PolicyRule {
                    accept: false,
                    host: Some(NodeId(5)),
                    ports: (0, u16::MAX),
                },
                PolicyRule {
                    accept: true,
                    host: None,
                    ports: (80, 80),
                },
            ],
        };
        assert!(!p.allows(NodeId(5), 80)); // rejected by the earlier rule
        assert!(p.allows(NodeId(6), 80));
        assert!(!p.allows(NodeId(6), 81)); // default reject
    }

    #[test]
    fn exit_policy_presets() {
        assert!(!ExitPolicy::reject_all().allows(NodeId(1), 80));
        assert!(ExitPolicy::accept_all().allows(NodeId(1), 12345));
        let web = ExitPolicy::web_only();
        assert!(web.allows(NodeId(1), 80));
        assert!(web.allows(NodeId(1), 443));
        assert!(!web.allows(NodeId(1), 22));
        let with_local = ExitPolicy::reject_all().with_accept(NodeId(7), 5005);
        assert!(with_local.allows(NodeId(7), 5005));
        assert!(!with_local.allows(NodeId(8), 5005));
    }

    #[test]
    fn weighted_pick_respects_flags_and_weights() {
        let mut c = Consensus {
            epoch: 1,
            relays: (0..4).map(sample_relay).collect(),
        };
        c.relays[0].flags = RelayFlags::default(); // no flags
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let r = c
                .pick_weighted(&mut rng, RelayFlags::GUARD, |_| true)
                .unwrap();
            seen.insert(r.fingerprint);
            assert!(r.flags.has(RelayFlags::GUARD));
        }
        assert_eq!(seen.len(), 3, "all eligible relays should appear");
        // Predicate exclusion works.
        assert!(c
            .pick_weighted(&mut rng, RelayFlags::GUARD, |r| r.addr != NodeId(1)
                && r.addr != NodeId(2)
                && r.addr != NodeId(3))
            .is_none());
    }

    #[test]
    fn hs_descriptor_sign_verify_roundtrip() {
        let mut signer = MerkleSigner::generate([9u8; 32], 3);
        let desc = HsDescriptor {
            service_key: signer.verify_key(),
            enc_key: PublicKey([4u8; 32]),
            intro_points: vec![[1u8; 20], [2u8; 20], [3u8; 20]],
            revision: 7,
        };
        let wire = desc.encode_signed(&mut signer).unwrap();
        let back = HsDescriptor::decode_verified(&wire).unwrap();
        assert_eq!(back, desc);
        assert_eq!(back.onion_addr(), desc.onion_addr());
    }

    #[test]
    fn hs_descriptor_forgery_rejected() {
        let mut signer = MerkleSigner::generate([9u8; 32], 3);
        let mut imposter = MerkleSigner::generate([10u8; 32], 3);
        let desc = HsDescriptor {
            service_key: signer.verify_key(),
            enc_key: PublicKey([4u8; 32]),
            intro_points: vec![[1u8; 20]],
            revision: 1,
        };
        // Signed by the wrong key: self-certification fails.
        let forged = HsDescriptor {
            service_key: signer.verify_key(), // claims the victim's identity
            ..desc.clone()
        }
        .encode_signed(&mut imposter)
        .unwrap();
        assert!(HsDescriptor::decode_verified(&forged).is_none());
        // Tampered intro list.
        let mut wire = desc.encode_signed(&mut signer).unwrap();
        let n = wire.len();
        wire[n / 2] ^= 1;
        assert!(HsDescriptor::decode_verified(&wire).is_none());
    }

    #[test]
    fn dir_msgs_roundtrip() {
        let msgs = vec![
            DirMsg::FetchConsensus,
            DirMsg::ConsensusResp(vec![1, 2, 3]),
            DirMsg::PublishDesc(vec![4; 100]),
            DirMsg::DescAck,
            DirMsg::PublishHsDesc(vec![5; 50]),
            DirMsg::FetchHsDesc(OnionAddr([6u8; 32])),
            DirMsg::HsDescResp(None),
            DirMsg::HsDescResp(Some(vec![7; 10])),
        ];
        for m in msgs {
            let back = DirMsg::decode(&m.encode()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn dir_msg_decode_rejects_garbage() {
        assert!(DirMsg::decode(&[]).is_err());
        assert!(DirMsg::decode(&[200]).is_err());
        assert!(DirMsg::decode(&[2, 0xFF]).is_err()); // truncated bytes field
        let mut ok = DirMsg::DescAck.encode();
        ok.push(0); // trailing byte
        assert!(DirMsg::decode(&ok).is_err());
    }

    #[test]
    fn onion_addr_is_key_binding() {
        let a = MerkleSigner::generate([1u8; 32], 2).verify_key();
        let b = MerkleSigner::generate([2u8; 32], 2).verify_key();
        assert_ne!(
            OnionAddr::from_service_key(&a),
            OnionAddr::from_service_key(&b)
        );
        let s = OnionAddr::from_service_key(&a).to_string_short();
        assert!(s.ends_with(".onion"));
    }
}
