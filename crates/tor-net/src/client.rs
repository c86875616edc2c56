//! The onion-proxy component: what runs inside a Tor client (and inside a
//! Bento box's "Onion Proxy for functions", Figure 3 of the paper).
//!
//! [`TorClient`] bootstraps from the directory authority, builds circuits
//! with weighted path selection, opens streams (to exit destinations, to
//! relay directory services, and to hidden services over rendezvous
//! circuits), enforces circuit-level SENDME flow control, can emit cover
//! (DROP) cells, and runs the client side of the hidden-service rendezvous
//! protocol — including the end-to-end virtual hop.

use crate::cell::{Cell, CellCmd, RelayCell, RelayCmd, CELL_LEN, MAX_RELAY_DATA, PAYLOAD_LEN};
use crate::dir::{
    Consensus, DirMsg, Fingerprint, HsDescriptor, OnionAddr, RelayFlags, RelayInfo, SignedConsensus,
};
use crate::ports::DIR_PORT;
use crate::relay::{CIRC_WINDOW, SENDME_INCREMENT};
use crate::relay_crypto::{CircuitCrypto, LayerCrypto};
use crate::retry::{Backoff, BackoffPolicy, FailureCache};
use crate::stream_frame::{encode_frame, FrameAssembler};
use onion_crypto::aead::{seal as aead_seal, AeadKey};
use onion_crypto::hashsig::MerkleVerifyKey;
use onion_crypto::hmac::hkdf;
use onion_crypto::ntor;
use onion_crypto::x25519::StaticSecret;
use rand::Rng;
use simnet::node::TimerId;
use simnet::{ConnId, Ctx, NodeId, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

// Recovery-path instruments: every one of these sits on a cold path (a
// failure, a retry, a timeout), so inline registry access is fine.
static T_CONSENSUS_RETRIES: telemetry::Counter =
    telemetry::Counter::new("tornet.client.consensus_retries");
static T_CIRC_REBUILDS: telemetry::Counter = telemetry::Counter::new("tornet.client.circ_rebuilds");
static T_BUILD_TIMEOUTS: telemetry::Counter =
    telemetry::Counter::new("tornet.client.build_timeouts");
static T_STREAM_TIMEOUTS: telemetry::Counter =
    telemetry::Counter::new("tornet.client.stream_timeouts");
static T_HS_RETRIES: telemetry::Counter = telemetry::Counter::new("tornet.client.hs_retries");
static T_FAILCACHE_BYPASS: telemetry::Counter =
    telemetry::Counter::new("tornet.client.failcache_bypass");
static T_RECOVER_MS: telemetry::Histo =
    telemetry::Histo::new("tornet.client.circ_time_to_recover_ms");

/// Timer-tag namespace reserved by the client component.
pub const CLIENT_TAG_BASE: u64 = 0x0200_0000_0000_0000;
const TAG_FETCH_RETRY: u64 = CLIENT_TAG_BASE + 1;
/// Per-category sub-namespaces under [`CLIENT_TAG_BASE`]; each holds a
/// slot/token in its low 28 bits.
const TAG_SPAN: u64 = 0x1000_0000;
const TAG_BUILD_TIMEOUT_BASE: u64 = CLIENT_TAG_BASE + 0x1000_0000;
const TAG_STREAM_TIMEOUT_BASE: u64 = CLIENT_TAG_BASE + 0x2000_0000;
const TAG_REBUILD_BASE: u64 = CLIENT_TAG_BASE + 0x3000_0000;
/// Introduction/HSDir retries per onion connection before giving up.
const MAX_HS_RETRIES: u32 = 3;

/// Handle to a client circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CircuitHandle(pub usize);

/// Where a stream should terminate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamTarget {
    /// An external host:port, opened by the exit relay.
    Node(NodeId, u16),
    /// The terminal relay's own directory service.
    Dir,
    /// The hidden service at the far end of a rendezvous circuit.
    Hs(u16),
}

impl StreamTarget {
    fn encode(&self) -> Vec<u8> {
        match self {
            StreamTarget::Node(addr, port) => {
                let mut v = vec![0u8];
                v.extend_from_slice(&addr.0.to_be_bytes());
                v.extend_from_slice(&port.to_be_bytes());
                v
            }
            StreamTarget::Dir => vec![1u8],
            StreamTarget::Hs(port) => {
                let mut v = vec![2u8];
                v.extend_from_slice(&port.to_be_bytes());
                v
            }
        }
    }

    /// Parse from Begin data (used by the service side of rendezvous).
    pub fn decode(data: &[u8]) -> Option<StreamTarget> {
        match data.first()? {
            0 if data.len() == 7 => Some(StreamTarget::Node(
                NodeId(u32::from_be_bytes([data[1], data[2], data[3], data[4]])),
                u16::from_be_bytes([data[5], data[6]]),
            )),
            1 if data.len() == 1 => Some(StreamTarget::Dir),
            2 if data.len() == 3 => Some(StreamTarget::Hs(u16::from_be_bytes([data[1], data[2]]))),
            _ => None,
        }
    }
}

/// Events the client surfaces to its host.
#[derive(Debug)]
pub enum TorEvent {
    /// The verified consensus is available.
    ConsensusReady,
    /// A circuit finished building and is usable.
    CircuitReady(CircuitHandle),
    /// A circuit could not be built or was destroyed.
    CircuitClosed(CircuitHandle),
    /// A stream opened with [`TorClient::open_stream`] is connected.
    StreamConnected(CircuitHandle, u16),
    /// Stream data arrived.
    StreamData(CircuitHandle, u16, Vec<u8>),
    /// The far end closed a stream.
    StreamEnded(CircuitHandle, u16),
    /// The far end of a rendezvous circuit opened a stream toward us
    /// (hidden-service side). Respond with [`TorClient::respond_incoming`].
    IncomingStream(CircuitHandle, u16, u16),
    /// A control cell addressed to us that the client does not consume
    /// internally (hidden-service machinery: INTRODUCE2, INTRO_ESTABLISHED).
    ControlCell(CircuitHandle, RelayCmd, Vec<u8>),
    /// A directory response arrived on a dir stream.
    DirResponse(CircuitHandle, u16, DirMsg),
    /// `connect_onion` completed: the circuit now ends at the hidden
    /// service with end-to-end crypto.
    RendezvousReady(CircuitHandle),
    /// `connect_onion` failed (no descriptor, no intro points, ...).
    RendezvousFailed(CircuitHandle, String),
    /// A managed circuit (built with [`TorClient::build_circuit_managed`])
    /// that failed has been rebuilt on a fresh path: `(old, new)`. Emitted
    /// just before the new circuit's [`TorEvent::CircuitReady`].
    CircuitRebuilt(CircuitHandle, CircuitHandle),
}

enum StreamKind {
    App,
    Dir(FrameAssembler),
    Incoming,
}

struct ClientStream {
    kind: StreamKind,
    connected: bool,
    /// Frames queued before the stream connected.
    pending: Vec<Vec<u8>>,
    /// Connect-timeout timer (recovery mode only).
    timeout: Option<TimerId>,
}

struct BuildState {
    /// Index of the hop currently being created/extended.
    hop: usize,
    handshake: ntor::ClientHandshake,
}

struct ClientCircuit {
    path: Vec<RelayInfo>,
    conn: ConnId,
    circ_id: u32,
    crypto: CircuitCrypto,
    building: Option<BuildState>,
    ready: bool,
    alive: bool,
    streams: BTreeMap<u16, ClientStream>,
    package_window: i32,
    delivered_since_sendme: i32,
    queued_data: VecDeque<(u16, Vec<u8>)>,
    /// Outstanding e2e handshake awaiting RENDEZVOUS2.
    pending_e2e: Option<ntor::ClientHandshake>,
    /// Index into `hs_conns` if this circuit belongs to an onion connection.
    hs_conn: Option<usize>,
    /// Build-timeout timer (recovery mode only).
    build_timer: Option<TimerId>,
    /// Present on circuits the client rebuilds automatically on failure.
    managed: Option<ManagedCirc>,
}

/// Rebuild state carried by a managed circuit across its incarnations.
struct ManagedCirc {
    req: TerminalReq,
    backoff: Backoff,
    /// When the previous incarnation died (drives the time-to-recover
    /// histogram); cleared once a rebuild succeeds.
    failed_at: Option<SimTime>,
    /// Slot of the incarnation that most recently failed, if any.
    origin: Option<usize>,
}

/// Knobs of the client's failure-recovery machinery. Recovery is off by
/// default — [`TorClient::enable_recovery`] switches it on — so programs
/// that never opt in keep their exact pre-recovery event and RNG streams.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// A circuit still building after this long is abandoned (and the hop
    /// being extended is recorded in the failure cache).
    pub build_timeout: SimDuration,
    /// A stream not Connected after this long is torn down.
    pub stream_timeout: SimDuration,
    /// Backoff between rebuild attempts of a managed circuit.
    pub rebuild_backoff: BackoffPolicy,
    /// How long a failed relay stays avoided during path selection.
    pub failure_decay: SimDuration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            build_timeout: SimDuration::from_secs(8),
            stream_timeout: SimDuration::from_secs(10),
            rebuild_backoff: BackoffPolicy::new(
                SimDuration::from_millis(300),
                SimDuration::from_secs(10),
            )
            .with_max_attempts(12),
            failure_decay: SimDuration::from_secs(30),
        }
    }
}

struct LinkState {
    established: bool,
    queued: Vec<Cell>,
    next_circ_id: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HsPhase {
    Starting,
    Waiting,
    Introduced,
    Done,
    Failed,
}

struct HsConn {
    addr: OnionAddr,
    pow_bits: u8,
    rendezvous_circ: usize,
    hsdir_circ: Option<usize>,
    intro_circ: Option<usize>,
    cookie: [u8; 20],
    rp_established: bool,
    est_sent: bool,
    desc_requested: bool,
    desc: Option<HsDescriptor>,
    phase: HsPhase,
    /// Failed introduction attempts so far (capped at [`MAX_HS_RETRIES`]).
    intro_retries: u32,
    /// Failed HSDir fetch circuits so far.
    hsdir_retries: u32,
    /// Intro points already tried; retries prefer untried ones.
    used_intros: Vec<Fingerprint>,
}

/// What a path must satisfy at its terminal hop.
#[derive(Debug, Clone, Copy)]
pub enum TerminalReq {
    /// Any relay.
    Any,
    /// An exit whose policy allows this destination.
    ExitTo(NodeId, u16),
    /// A specific relay.
    Specific(Fingerprint),
    /// A relay with the HSDir flag.
    HsDir,
    /// A relay with the Bento flag.
    Bento,
}

/// The client component.
pub struct TorClient {
    authority_addr: NodeId,
    authority_key: MerkleVerifyKey,
    /// A relay this client must never include in its paths — the co-resident
    /// relay when this client is a Bento box's onion proxy (a node cannot
    /// hold both ends of a loopback OR link).
    excluded: Option<Fingerprint>,
    consensus: Option<Consensus>,
    dir_conn: Option<ConnId>,
    links: BTreeMap<ConnId, LinkState>,
    links_by_peer: BTreeMap<NodeId, ConnId>,
    circuits: Vec<ClientCircuit>,
    circ_lookup: BTreeMap<(ConnId, u32), usize>,
    hs_conns: Vec<HsConn>,
    next_stream_id: u16,
    events: VecDeque<TorEvent>,
    /// Consensus-fetch retry schedule (jittered exponential backoff).
    fetch_backoff: Backoff,
    /// Consensus-fetch retries performed (also mirrored to telemetry).
    consensus_retries: u64,
    /// `Some` once [`TorClient::enable_recovery`] has been called.
    recovery: Option<RecoveryConfig>,
    /// Relays that recently failed us; avoided during path selection until
    /// their entries decay.
    failures: FailureCache,
    /// Managed circuits waiting out a rebuild backoff, keyed by timer token.
    pending_rebuilds: BTreeMap<u64, ManagedCirc>,
    next_rebuild_token: u64,
}

impl TorClient {
    /// A client that trusts the given directory authority.
    pub fn new(authority_addr: NodeId, authority_key: MerkleVerifyKey) -> TorClient {
        TorClient {
            authority_addr,
            authority_key,
            excluded: None,
            consensus: None,
            dir_conn: None,
            links: BTreeMap::new(),
            links_by_peer: BTreeMap::new(),
            circuits: Vec::new(),
            circ_lookup: BTreeMap::new(),
            hs_conns: Vec::new(),
            next_stream_id: 1,
            events: VecDeque::new(),
            fetch_backoff: Backoff::new(Self::FETCH_BACKOFF),
            consensus_retries: 0,
            recovery: None,
            failures: FailureCache::new(SimDuration::from_secs(30)),
            pending_rebuilds: BTreeMap::new(),
            next_rebuild_token: 0,
        }
    }

    /// Consensus-fetch retry schedule: the first retry lands around the old
    /// fixed 200 ms delay, then backs off toward 5 s.
    const FETCH_BACKOFF: BackoffPolicy = BackoffPolicy {
        base: SimDuration(200_000_000),  // 200 ms
        cap: SimDuration(5_000_000_000), // 5 s
        max_attempts: 0,
    };

    /// Exclude a relay (by fingerprint) from every path this client builds;
    /// used by Bento boxes to keep their onion proxy off their own relay.
    pub fn exclude_relay(&mut self, fp: Fingerprint) {
        self.excluded = Some(fp);
    }

    /// Switch on failure recovery: circuit build and stream connect
    /// timeouts, the recently-failed relay cache, and automatic rebuild of
    /// managed circuits. Off by default so recovery-oblivious programs keep
    /// their exact event streams.
    pub fn enable_recovery(&mut self) {
        self.enable_recovery_with(RecoveryConfig::default());
    }

    /// [`TorClient::enable_recovery`] with explicit knobs.
    pub fn enable_recovery_with(&mut self, cfg: RecoveryConfig) {
        self.failures = FailureCache::new(cfg.failure_decay);
        self.recovery = Some(cfg);
    }

    /// Consensus-fetch retries performed so far.
    pub fn consensus_retries(&self) -> u64 {
        self.consensus_retries
    }

    /// Drop all volatile state, as a host crash would: consensus, links,
    /// circuits, onion connections, queued events. Configuration (authority,
    /// trust key, exclusions, recovery knobs) survives, like files on disk.
    /// The simulator suppresses the old incarnation's timers, so stale tags
    /// can never reach the reborn client.
    pub fn reset(&mut self) {
        self.consensus = None;
        self.dir_conn = None;
        self.links.clear();
        self.links_by_peer.clear();
        self.circuits.clear();
        self.circ_lookup.clear();
        self.hs_conns.clear();
        self.next_stream_id = 1;
        self.events.clear();
        self.fetch_backoff.reset();
        self.failures.clear();
        self.pending_rebuilds.clear();
    }

    /// Fetch (and keep retrying for) the consensus.
    pub fn bootstrap(&mut self, ctx: &mut Ctx<'_>) {
        if self.dir_conn.is_some() || self.consensus.is_some() {
            return;
        }
        let conn = ctx.connect(self.authority_addr, DIR_PORT);
        ctx.send(conn, DirMsg::FetchConsensus.encode());
        self.dir_conn = Some(conn);
    }

    /// The verified consensus, once ready.
    pub fn consensus(&self) -> Option<&Consensus> {
        self.consensus.as_ref()
    }

    /// Drain pending events.
    pub fn poll_events(&mut self) -> Vec<TorEvent> {
        self.events.drain(..).collect()
    }

    /// Whether a circuit is ready for streams.
    pub fn is_ready(&self, circ: CircuitHandle) -> bool {
        self.circuits
            .get(circ.0)
            .map(|c| c.ready && c.alive)
            .unwrap_or(false)
    }

    /// Number of hops (including any virtual hop) on a circuit.
    pub fn hops(&self, circ: CircuitHandle) -> usize {
        self.circuits
            .get(circ.0)
            .map(|c| c.crypto.len())
            .unwrap_or(0)
    }

    /// Fingerprints of the relays on a circuit's path, guard first
    /// (inspection for tests and experiments; empty for unknown handles).
    pub fn circuit_path(&self, circ: CircuitHandle) -> Vec<Fingerprint> {
        self.circuits
            .get(circ.0)
            .map(|c| c.path.iter().map(|r| r.fingerprint).collect())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Path selection.
    // ------------------------------------------------------------------

    /// Choose a 3-hop path meeting `req` at the terminal position. Relays
    /// are weighted by bandwidth; hops are distinct.
    pub fn select_path(&self, ctx: &mut Ctx<'_>, req: TerminalReq) -> Option<Vec<Fingerprint>> {
        self.select_path_avoiding(ctx, req, &[])
    }

    /// Like [`TorClient::select_path`], additionally refusing every relay
    /// in `avoid` at every position — the client-side half of §9.4's
    /// geographical avoidance: the caller maps regions to fingerprints
    /// (e.g. all relays in a jurisdiction) and no chosen path touches them.
    /// Returns `None` when no compliant path exists (fail closed).
    pub fn select_path_avoiding(
        &self,
        ctx: &mut Ctx<'_>,
        req: TerminalReq,
        avoid: &[Fingerprint],
    ) -> Option<Vec<Fingerprint>> {
        let cons = self.consensus.as_ref()?;
        // The exclusion only applies to the *guard* position: a client that
        // dialed its own co-resident relay's OR port would hold both ends
        // of a loopback link. Later hops at the own relay are reached over
        // ordinary remote links and are fine (a function may even target
        // its own box when composing).
        let excluded = self.excluded;
        let avoided = |r: &RelayInfo| avoid.contains(&r.fingerprint);
        let guard_ok = |r: &RelayInfo| excluded.map(|x| r.fingerprint != x).unwrap_or(true);
        let rng = ctx.rng();
        let exit = match req {
            TerminalReq::Any => cons.pick_weighted(rng, RelayFlags::FAST, |r| !avoided(r))?,
            TerminalReq::ExitTo(addr, port) => cons.pick_weighted(rng, RelayFlags::EXIT, |r| {
                !avoided(r) && r.exit_policy.allows(addr, port)
            })?,
            TerminalReq::Specific(fp) => {
                let r = cons.relay(&fp)?;
                if avoided(r) {
                    return None;
                }
                r
            }
            TerminalReq::HsDir => cons.pick_weighted(rng, RelayFlags::HSDIR, |r| !avoided(r))?,
            TerminalReq::Bento => cons.pick_weighted(rng, RelayFlags::BENTO, |r| {
                !avoided(r) && r.bento_port.is_some()
            })?,
        };
        let exit_fp = exit.fingerprint;
        let guard = cons.pick_weighted(rng, RelayFlags::GUARD, |r| {
            !avoided(r) && guard_ok(r) && r.fingerprint != exit_fp
        })?;
        let guard_fp = guard.fingerprint;
        let middle = cons.pick_weighted(rng, RelayFlags::FAST, |r| {
            !avoided(r) && r.fingerprint != exit_fp && r.fingerprint != guard_fp
        })?;
        Some(vec![guard_fp, middle.fingerprint, exit_fp])
    }

    /// Path selection that avoids recently-failed relays, failing *open*:
    /// if no path exists without them (small networks under heavy churn),
    /// retry ignoring the failure cache rather than stalling forever.
    fn select_path_resilient(
        &self,
        ctx: &mut Ctx<'_>,
        req: TerminalReq,
    ) -> Option<Vec<Fingerprint>> {
        let failed = self.failures.snapshot(ctx.now());
        if failed.is_empty() {
            return self.select_path(ctx, req);
        }
        match self.select_path_avoiding(ctx, req, &failed) {
            Some(path) => Some(path),
            None => {
                T_FAILCACHE_BYPASS.inc();
                self.select_path(ctx, req)
            }
        }
    }

    // ------------------------------------------------------------------
    // Circuits.
    // ------------------------------------------------------------------

    /// Begin building a circuit along `path`. Emits
    /// [`TorEvent::CircuitReady`] when complete.
    pub fn build_circuit(
        &mut self,
        ctx: &mut Ctx<'_>,
        path: Vec<Fingerprint>,
    ) -> Option<CircuitHandle> {
        let cons = self.consensus.as_ref()?;
        let mut infos = Vec::with_capacity(path.len());
        for fp in &path {
            infos.push(cons.relay(fp)?.clone());
        }
        let guard = infos.first()?.clone();
        // Reuse or open the guard link.
        let conn = match self.links_by_peer.get(&guard.addr) {
            Some(&c) => c,
            None => {
                let c = ctx.connect(guard.addr, guard.or_port);
                self.links.insert(
                    c,
                    LinkState {
                        established: false,
                        queued: Vec::new(),
                        next_circ_id: 1,
                    },
                );
                self.links_by_peer.insert(guard.addr, c);
                c
            }
        };
        let circ_id = {
            // bento-lint: allow(BL005) -- the link was found or inserted in the match above
            let link = self.links.get_mut(&conn).expect("link exists");
            let id = link.next_circ_id;
            link.next_circ_id += 2;
            id
        };
        let (handshake, onionskin) =
            ntor::client_begin(ctx.rng(), guard.fingerprint, guard.onion_key);
        let slot = self.circuits.len();
        self.circuits.push(ClientCircuit {
            path: infos,
            conn,
            circ_id,
            crypto: CircuitCrypto::new(),
            building: Some(BuildState { hop: 0, handshake }),
            ready: false,
            alive: true,
            streams: BTreeMap::new(),
            package_window: CIRC_WINDOW,
            delivered_since_sendme: 0,
            queued_data: VecDeque::new(),
            pending_e2e: None,
            hs_conn: None,
            build_timer: None,
            managed: None,
        });
        self.circ_lookup.insert((conn, circ_id), slot);
        if let Some(rc) = self.recovery {
            let t = ctx.set_timer(rc.build_timeout, TAG_BUILD_TIMEOUT_BASE + slot as u64);
            self.circuits[slot].build_timer = Some(t);
        }
        let create = Cell::with_payload(circ_id, CellCmd::Create, &onionskin);
        self.send_cell(ctx, conn, create);
        Some(CircuitHandle(slot))
    }

    /// Build a circuit whose terminal hop satisfies `req`, selecting a path
    /// that avoids recently-failed relays — and keep it alive: if it fails
    /// to build or dies later, the client automatically rebuilds it on a
    /// fresh path after a jittered exponential backoff, emitting
    /// [`TorEvent::CircuitRebuilt`] when the replacement is ready. Requires
    /// [`TorClient::enable_recovery`].
    pub fn build_circuit_managed(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: TerminalReq,
    ) -> Option<CircuitHandle> {
        let rc = self.recovery?;
        let path = self.select_path_resilient(ctx, req)?;
        let handle = self.build_circuit(ctx, path)?;
        self.circuits[handle.0].managed = Some(ManagedCirc {
            req,
            backoff: Backoff::new(rc.rebuild_backoff),
            failed_at: None,
            origin: None,
        });
        Some(handle)
    }

    /// Tear down a circuit.
    pub fn destroy_circuit(&mut self, ctx: &mut Ctx<'_>, circ: CircuitHandle) {
        let Some(c) = self.circuits.get_mut(circ.0) else {
            return;
        };
        if !c.alive {
            return;
        }
        c.alive = false;
        let destroy = Cell::new(c.circ_id, CellCmd::Destroy);
        let conn = c.conn;
        self.circ_lookup
            .remove(&(conn, self.circuits[circ.0].circ_id));
        self.send_cell(ctx, conn, destroy);
    }

    // ------------------------------------------------------------------
    // Streams.
    // ------------------------------------------------------------------

    /// Open a stream on a ready circuit. Returns the stream id; watch for
    /// [`TorEvent::StreamConnected`].
    pub fn open_stream(
        &mut self,
        ctx: &mut Ctx<'_>,
        circ: CircuitHandle,
        target: StreamTarget,
    ) -> Option<u16> {
        if !self.is_ready(circ) {
            return None;
        }
        let stream_id = self.next_stream_id;
        self.next_stream_id = self.next_stream_id.wrapping_add(1).max(1);
        let kind = match target {
            StreamTarget::Dir => StreamKind::Dir(FrameAssembler::new()),
            _ => StreamKind::App,
        };
        let timeout = self.recovery.map(|rc| {
            let tag = TAG_STREAM_TIMEOUT_BASE + ((circ.0 as u64) << 16 | stream_id as u64);
            ctx.set_timer(rc.stream_timeout, tag)
        });
        self.circuits[circ.0].streams.insert(
            stream_id,
            ClientStream {
                kind,
                connected: false,
                pending: Vec::new(),
                timeout,
            },
        );
        let cmd = if matches!(target, StreamTarget::Dir) {
            RelayCmd::BeginDir
        } else {
            RelayCmd::Begin
        };
        let data = if matches!(target, StreamTarget::Dir) {
            vec![]
        } else {
            target.encode()
        };
        self.send_relay_last(ctx, circ.0, RelayCell::new(cmd, stream_id, data));
        Some(stream_id)
    }

    /// Send application bytes on a stream (chunked into data cells, subject
    /// to the circuit window).
    pub fn send_stream(
        &mut self,
        ctx: &mut Ctx<'_>,
        circ: CircuitHandle,
        stream: u16,
        data: &[u8],
    ) {
        for chunk in data.chunks(MAX_RELAY_DATA) {
            self.send_data_chunk(ctx, circ.0, stream, chunk);
        }
    }

    /// Close a stream.
    pub fn close_stream(&mut self, ctx: &mut Ctx<'_>, circ: CircuitHandle, stream: u16) {
        let Some(c) = self.circuits.get_mut(circ.0) else {
            return;
        };
        if let Some(s) = c.streams.remove(&stream) {
            if let Some(t) = s.timeout {
                ctx.cancel_timer(t);
            }
            self.send_relay_last(ctx, circ.0, RelayCell::new(RelayCmd::End, stream, vec![]));
        }
    }

    /// Accept (or refuse) an incoming stream on a rendezvous circuit.
    pub fn respond_incoming(
        &mut self,
        ctx: &mut Ctx<'_>,
        circ: CircuitHandle,
        stream: u16,
        accept: bool,
    ) {
        if accept {
            if let Some(c) = self.circuits.get_mut(circ.0) {
                if let Some(s) = c.streams.get_mut(&stream) {
                    s.connected = true;
                }
            }
            self.send_relay_last(
                ctx,
                circ.0,
                RelayCell::new(RelayCmd::Connected, stream, vec![]),
            );
        } else {
            if let Some(c) = self.circuits.get_mut(circ.0) {
                c.streams.remove(&stream);
            }
            self.send_relay_last(ctx, circ.0, RelayCell::new(RelayCmd::End, stream, vec![]));
        }
    }

    /// Send a cover (DROP) cell the full length of the circuit: to an
    /// observer it is indistinguishable from data.
    pub fn send_drop(&mut self, ctx: &mut Ctx<'_>, circ: CircuitHandle) {
        if self.is_ready(circ) {
            self.send_relay_last(ctx, circ.0, RelayCell::new(RelayCmd::Drop, 0, vec![]));
        }
    }

    /// Send a control relay cell sealed for the terminal hop.
    pub fn send_control(
        &mut self,
        ctx: &mut Ctx<'_>,
        circ: CircuitHandle,
        cmd: RelayCmd,
        data: Vec<u8>,
    ) {
        self.send_relay_last(ctx, circ.0, RelayCell::new(cmd, 0, data));
    }

    /// Open a dir stream on `circ` and send one directory request; the
    /// response arrives as [`TorEvent::DirResponse`].
    pub fn dir_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        circ: CircuitHandle,
        msg: DirMsg,
    ) -> Option<u16> {
        let stream = self.open_stream(ctx, circ, StreamTarget::Dir)?;
        if let Some(c) = self.circuits.get_mut(circ.0) {
            if let Some(s) = c.streams.get_mut(&stream) {
                s.pending.push(encode_frame(&msg.encode()));
            }
        }
        Some(stream)
    }

    /// Append a server-side end-to-end hop (hidden service use).
    pub fn push_virtual_hop_server(&mut self, circ: CircuitHandle, keys: &ntor::CircuitKeys) {
        if let Some(c) = self.circuits.get_mut(circ.0) {
            c.crypto.push_hop(LayerCrypto::relay_side(keys));
        }
    }

    // ------------------------------------------------------------------
    // Hidden-service client: connect to an onion address.
    // ------------------------------------------------------------------

    /// Start connecting to a hidden service. Returns the handle of the
    /// rendezvous circuit; wait for [`TorEvent::RendezvousReady`] before
    /// opening streams on it with [`StreamTarget::Hs`].
    pub fn connect_onion(&mut self, ctx: &mut Ctx<'_>, addr: OnionAddr) -> Option<CircuitHandle> {
        self.connect_onion_with_pow(ctx, addr, 0)
    }

    /// Like [`TorClient::connect_onion`], attaching `bits` of hashcash over
    /// the rendezvous cookie to the introduction — for services running the
    /// §9.4 DDoS defense.
    pub fn connect_onion_with_pow(
        &mut self,
        ctx: &mut Ctx<'_>,
        addr: OnionAddr,
        pow_bits: u8,
    ) -> Option<CircuitHandle> {
        // Rendezvous circuit: 3 arbitrary hops.
        let rp_path = self.select_path(ctx, TerminalReq::Any)?;
        let rendezvous = self.build_circuit(ctx, rp_path)?;
        // HSDir circuit for the descriptor: rendezvous-hash to the same
        // HSDir the service published to.
        let hsdir_fp = crate::hs::responsible_hsdir(self.consensus.as_ref()?, &addr)?;
        let dir_path = self.select_path(ctx, TerminalReq::Specific(hsdir_fp))?;
        let hsdir = self.build_circuit(ctx, dir_path)?;
        let mut cookie = [0u8; 20];
        ctx.rng().fill(&mut cookie);
        let idx = self.hs_conns.len();
        self.hs_conns.push(HsConn {
            addr,
            pow_bits,
            rendezvous_circ: rendezvous.0,
            hsdir_circ: Some(hsdir.0),
            intro_circ: None,
            cookie,
            rp_established: false,
            est_sent: false,
            desc_requested: false,
            desc: None,
            phase: HsPhase::Starting,
            intro_retries: 0,
            hsdir_retries: 0,
            used_intros: Vec::new(),
        });
        self.circuits[rendezvous.0].hs_conn = Some(idx);
        self.circuits[hsdir.0].hs_conn = Some(idx);
        Some(rendezvous)
    }

    // ------------------------------------------------------------------
    // Host-delegated callbacks.
    // ------------------------------------------------------------------

    /// Delegate of [`simnet::Node::on_conn_established`].
    pub fn handle_conn_established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) -> bool {
        if Some(conn) == self.dir_conn {
            return true;
        }
        if let Some(link) = self.links.get_mut(&conn) {
            link.established = true;
            let queued = std::mem::take(&mut link.queued);
            for cell in queued {
                let mut wire = ctx.take_buf(CELL_LEN);
                cell.encode_into(&mut wire);
                ctx.send(conn, wire);
            }
            return true;
        }
        false
    }

    /// Delegate of [`simnet::Node::on_msg`].
    pub fn handle_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) -> bool {
        if Some(conn) == self.dir_conn {
            if let Ok(DirMsg::ConsensusResp(bytes)) = DirMsg::decode(&msg) {
                if bytes.is_empty() {
                    // Authority not ready: retry after a jittered exponential
                    // backoff (starts near the old fixed 200 ms, caps at 5 s).
                    self.schedule_fetch_retry(ctx);
                } else if let Ok(sc) = SignedConsensus::decode(&bytes) {
                    if let Some(cons) = sc.verify(&self.authority_key) {
                        self.consensus = Some(cons);
                        self.fetch_backoff.reset();
                        if let Some(c) = self.dir_conn.take() {
                            ctx.close(c);
                        }
                        self.events.push_back(TorEvent::ConsensusReady);
                    }
                }
            }
            return true;
        }
        if self.links.contains_key(&conn) {
            if let Some(cell) = Cell::decode(&msg) {
                ctx.recycle_buf(msg);
                self.handle_cell(ctx, conn, cell);
            }
            return true;
        }
        false
    }

    /// Delegate of [`simnet::Node::on_conn_closed`].
    pub fn handle_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) -> bool {
        if Some(conn) == self.dir_conn {
            self.dir_conn = None;
            if self.consensus.is_none() {
                // The authority link died before we got a consensus (crash,
                // partition): back off and redial.
                self.schedule_fetch_retry(ctx);
            }
            return true;
        }
        if self.links.remove(&conn).is_some() {
            self.links_by_peer.retain(|_, c| *c != conn);
            let mut slots: Vec<usize> = self
                .circ_lookup
                .iter()
                .filter(|((c, _), _)| *c == conn)
                .map(|(_, &s)| s)
                .collect();
            // Sorted by slot so teardown order (which feeds the shared RNG)
            // is the circuit-allocation order, not the map's key order.
            slots.sort_unstable();
            for slot in slots {
                if self.recovery.is_some() {
                    // The guard link died under this circuit: remember the
                    // guard so rebuilds steer around it while it decays.
                    if let Some(fp) = self.circuits[slot].path.first().map(|r| r.fingerprint) {
                        self.failures.record(fp, ctx.now());
                    }
                }
                self.circuit_closed(ctx, slot);
            }
            return true;
        }
        false
    }

    /// Delegate of [`simnet::Node::on_timer`]; claims client-namespace tags.
    pub fn handle_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> bool {
        if tag == TAG_FETCH_RETRY {
            if self.consensus.is_some() {
                return true;
            }
            match self.dir_conn {
                Some(conn) => {
                    ctx.send(conn, DirMsg::FetchConsensus.encode());
                }
                None => self.bootstrap(ctx),
            }
            return true;
        }
        if (TAG_BUILD_TIMEOUT_BASE..TAG_BUILD_TIMEOUT_BASE + TAG_SPAN).contains(&tag) {
            self.fire_build_timeout(ctx, (tag - TAG_BUILD_TIMEOUT_BASE) as usize);
            return true;
        }
        if (TAG_STREAM_TIMEOUT_BASE..TAG_STREAM_TIMEOUT_BASE + TAG_SPAN).contains(&tag) {
            let sub = tag - TAG_STREAM_TIMEOUT_BASE;
            self.fire_stream_timeout(ctx, (sub >> 16) as usize, (sub & 0xFFFF) as u16);
            return true;
        }
        if (TAG_REBUILD_BASE..TAG_REBUILD_BASE + TAG_SPAN).contains(&tag) {
            self.fire_rebuild(ctx, tag - TAG_REBUILD_BASE);
            return true;
        }
        false
    }

    // ------------------------------------------------------------------
    // Recovery internals.
    // ------------------------------------------------------------------

    /// Arm the consensus-fetch retry timer and count the retry. With
    /// recovery on, delays follow a jittered exponential backoff; without
    /// it, the legacy fixed 200 ms retry — which draws nothing from the
    /// shared RNG — so recovery-oblivious programs keep their exact event
    /// and RNG streams.
    fn schedule_fetch_retry(&mut self, ctx: &mut Ctx<'_>) {
        let delay = if self.recovery.is_some() {
            self.fetch_backoff
                .next_delay(ctx.rng())
                .unwrap_or(Self::FETCH_BACKOFF.cap)
        } else {
            SimDuration::from_millis(200)
        };
        ctx.set_timer(delay, TAG_FETCH_RETRY);
        self.consensus_retries += 1;
        T_CONSENSUS_RETRIES.inc();
    }

    /// A circuit took longer than `build_timeout` to finish building: blame
    /// the hop being extended, tear the circuit down, and (if managed) let
    /// `circuit_closed` schedule the rebuild.
    fn fire_build_timeout(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let Some(c) = self.circuits.get_mut(slot) else {
            return;
        };
        c.build_timer = None;
        if !c.alive || c.ready {
            return;
        }
        T_BUILD_TIMEOUTS.inc();
        if self.recovery.is_some() {
            let blamed = c
                .building
                .as_ref()
                .and_then(|b| c.path.get(b.hop))
                .map(|r| r.fingerprint);
            if let Some(fp) = blamed {
                self.failures.record(fp, ctx.now());
            }
        }
        self.destroy_circuit(ctx, CircuitHandle(slot));
        self.circuit_closed(ctx, slot);
    }

    /// A stream never reached Connected within `stream_timeout`: end it.
    fn fire_stream_timeout(&mut self, ctx: &mut Ctx<'_>, slot: usize, stream: u16) {
        let Some(c) = self.circuits.get_mut(slot) else {
            return;
        };
        let timed_out = c
            .streams
            .get(&stream)
            .map(|s| !s.connected)
            .unwrap_or(false);
        if !timed_out {
            return;
        }
        c.streams.remove(&stream);
        T_STREAM_TIMEOUTS.inc();
        self.send_relay_last(ctx, slot, RelayCell::new(RelayCmd::End, stream, vec![]));
        self.emit_or_hs(
            ctx,
            slot,
            TorEvent::StreamEnded(CircuitHandle(slot), stream),
        );
    }

    /// Park a managed circuit's rebuild behind its next backoff delay.
    fn schedule_rebuild(&mut self, ctx: &mut Ctx<'_>, mut managed: ManagedCirc) {
        let Some(delay) = managed.backoff.next_delay(ctx.rng()) else {
            return; // attempts exhausted: the circuit stays down
        };
        let token = self.next_rebuild_token;
        self.next_rebuild_token += 1;
        self.pending_rebuilds.insert(token, managed);
        ctx.set_timer(delay, TAG_REBUILD_BASE + token);
    }

    /// A rebuild backoff expired: try building the replacement circuit.
    fn fire_rebuild(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(managed) = self.pending_rebuilds.remove(&token) else {
            return;
        };
        if self.consensus.is_none() {
            // Still re-bootstrapping; try again after another backoff.
            self.schedule_rebuild(ctx, managed);
            return;
        }
        let req = managed.req;
        let attempt = self
            .select_path_resilient(ctx, req)
            .and_then(|path| self.build_circuit(ctx, path));
        match attempt {
            Some(handle) => {
                self.circuits[handle.0].managed = Some(managed);
            }
            None => self.schedule_rebuild(ctx, managed),
        }
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn send_cell(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, cell: Cell) {
        if let Some(link) = self.links.get_mut(&conn) {
            if !link.established {
                link.queued.push(cell);
                return;
            }
        }
        let mut wire = ctx.take_buf(CELL_LEN);
        cell.encode_into(&mut wire);
        ctx.send(conn, wire);
    }

    fn send_relay_last(&mut self, ctx: &mut Ctx<'_>, slot: usize, rc: RelayCell) {
        self.send_relay_last_payload(ctx, slot, rc.encode_payload());
    }

    fn send_relay_last_payload(
        &mut self,
        ctx: &mut Ctx<'_>,
        slot: usize,
        mut payload: [u8; PAYLOAD_LEN],
    ) {
        let Some(c) = self.circuits.get_mut(slot) else {
            return;
        };
        if !c.alive || c.crypto.is_empty() {
            return;
        }
        c.crypto.seal_for_last(&mut payload);
        let cell = Cell {
            circ_id: c.circ_id,
            cmd: CellCmd::Relay,
            payload,
        };
        let conn = c.conn;
        self.send_cell(ctx, conn, cell);
    }

    /// Package borrowed stream bytes into one DATA cell; bytes are only
    /// copied to the heap when the package window is closed and the chunk
    /// must be queued.
    fn send_data_chunk(&mut self, ctx: &mut Ctx<'_>, slot: usize, stream: u16, chunk: &[u8]) {
        {
            let Some(c) = self.circuits.get_mut(slot) else {
                return;
            };
            if c.package_window <= 0 {
                c.queued_data.push_back((stream, chunk.to_vec()));
                return;
            }
            c.package_window -= 1;
        }
        let payload = RelayCell::encode_payload_from(RelayCmd::Data, stream, chunk);
        self.send_relay_last_payload(ctx, slot, payload);
    }

    fn flush_queued_data(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        loop {
            let item = {
                let Some(c) = self.circuits.get_mut(slot) else {
                    return;
                };
                if c.package_window <= 0 {
                    return;
                }
                match c.queued_data.pop_front() {
                    Some(x) => {
                        c.package_window -= 1;
                        x
                    }
                    None => return,
                }
            };
            self.send_relay_last(ctx, slot, RelayCell::new(RelayCmd::Data, item.0, item.1));
        }
    }

    fn handle_cell(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, mut cell: Cell) {
        let Some(&slot) = self.circ_lookup.get(&(conn, cell.circ_id)) else {
            return;
        };
        match cell.cmd {
            CellCmd::Created => {
                let reply = cell.payload[..ntor::REPLY_LEN].to_vec();
                self.handle_hop_complete(ctx, slot, &reply);
            }
            CellCmd::Relay => {
                let recognized = self.circuits[slot].crypto.unwrap_inbound(&mut cell.payload);
                match recognized {
                    Some(hop) => {
                        if let Some(rc) = RelayCell::parse_payload(&cell.payload) {
                            self.handle_inbound_relay(ctx, slot, hop, rc);
                        }
                    }
                    None => {
                        // Unrecognized backward cell: integrity violation.
                        self.destroy_circuit(ctx, CircuitHandle(slot));
                        self.circuit_closed(ctx, slot);
                    }
                }
            }
            CellCmd::Destroy => {
                self.circuit_closed(ctx, slot);
            }
            CellCmd::Create | CellCmd::Padding => {}
        }
    }

    /// CREATED or EXTENDED completed hop `building.hop`.
    fn handle_hop_complete(&mut self, ctx: &mut Ctx<'_>, slot: usize, reply: &[u8]) {
        let Some(build) = self.circuits[slot].building.take() else {
            return;
        };
        let Ok(keys) = ntor::client_finish(&build.handshake, reply) else {
            self.destroy_circuit(ctx, CircuitHandle(slot));
            self.circuit_closed(ctx, slot);
            return;
        };
        self.circuits[slot]
            .crypto
            .push_hop(LayerCrypto::client_side(&keys));
        let next_hop = build.hop + 1;
        if next_hop < self.circuits[slot].path.len() {
            // Extend to the next relay.
            let next = self.circuits[slot].path[next_hop].clone();
            let (handshake, onionskin) =
                ntor::client_begin(ctx.rng(), next.fingerprint, next.onion_key);
            self.circuits[slot].building = Some(BuildState {
                hop: next_hop,
                handshake,
            });
            let mut data = Vec::with_capacity(26 + onionskin.len());
            data.extend_from_slice(&next.fingerprint);
            data.extend_from_slice(&next.addr.0.to_be_bytes());
            data.extend_from_slice(&next.or_port.to_be_bytes());
            data.extend_from_slice(&onionskin);
            self.send_relay_last(ctx, slot, RelayCell::new(RelayCmd::Extend, 0, data));
        } else {
            self.circuits[slot].ready = true;
            if let Some(t) = self.circuits[slot].build_timer.take() {
                ctx.cancel_timer(t);
            }
            // A managed circuit coming up: if this is a rebuild, record the
            // recovery and announce old → new before CircuitReady.
            let mut rebuilt_from = None;
            if let Some(m) = self.circuits[slot].managed.as_mut() {
                m.backoff.reset();
                rebuilt_from = m.origin.take();
                if let Some(t0) = m.failed_at.take() {
                    T_RECOVER_MS.record((ctx.now() - t0).as_millis());
                }
            }
            if let Some(old) = rebuilt_from {
                T_CIRC_REBUILDS.inc();
                self.emit_or_hs(
                    ctx,
                    slot,
                    TorEvent::CircuitRebuilt(CircuitHandle(old), CircuitHandle(slot)),
                );
            }
            self.emit_or_hs(ctx, slot, TorEvent::CircuitReady(CircuitHandle(slot)));
        }
    }

    fn handle_inbound_relay(&mut self, ctx: &mut Ctx<'_>, slot: usize, _hop: usize, rc: RelayCell) {
        match rc.cmd {
            RelayCmd::Extended => {
                self.handle_hop_complete(ctx, slot, &rc.data);
            }
            RelayCmd::Connected => {
                let mut flush = Vec::new();
                let mut timer = None;
                if let Some(s) = self.circuits[slot].streams.get_mut(&rc.stream_id) {
                    s.connected = true;
                    flush = std::mem::take(&mut s.pending);
                    timer = s.timeout.take();
                }
                if let Some(t) = timer {
                    ctx.cancel_timer(t);
                }
                for frame in flush {
                    self.send_stream(ctx, CircuitHandle(slot), rc.stream_id, &frame);
                }
                self.emit_or_hs(
                    ctx,
                    slot,
                    TorEvent::StreamConnected(CircuitHandle(slot), rc.stream_id),
                );
            }
            RelayCmd::Data => {
                self.account_delivery(ctx, slot);
                enum D {
                    App(Vec<u8>),
                    Dir(Vec<Vec<u8>>),
                    None,
                }
                let d = match self.circuits[slot].streams.get_mut(&rc.stream_id) {
                    Some(s) => match &mut s.kind {
                        StreamKind::Dir(asm) => {
                            asm.push(&rc.data);
                            D::Dir(asm.drain_frames())
                        }
                        _ => D::App(rc.data),
                    },
                    None => D::None,
                };
                match d {
                    D::App(data) => {
                        self.emit_or_hs(
                            ctx,
                            slot,
                            TorEvent::StreamData(CircuitHandle(slot), rc.stream_id, data),
                        );
                    }
                    D::Dir(frames) => {
                        for f in frames {
                            if let Ok(dm) = DirMsg::decode(&f) {
                                self.emit_or_hs(
                                    ctx,
                                    slot,
                                    TorEvent::DirResponse(CircuitHandle(slot), rc.stream_id, dm),
                                );
                            }
                        }
                    }
                    D::None => {}
                }
            }
            RelayCmd::End => {
                if let Some(s) = self.circuits[slot].streams.remove(&rc.stream_id) {
                    if let Some(t) = s.timeout {
                        ctx.cancel_timer(t);
                    }
                }
                self.emit_or_hs(
                    ctx,
                    slot,
                    TorEvent::StreamEnded(CircuitHandle(slot), rc.stream_id),
                );
            }
            RelayCmd::Begin => {
                // Far end of a rendezvous circuit opening a stream toward us.
                let port = StreamTarget::decode(&rc.data)
                    .and_then(|t| match t {
                        StreamTarget::Hs(p) => Some(p),
                        _ => None,
                    })
                    .unwrap_or(0);
                self.circuits[slot].streams.insert(
                    rc.stream_id,
                    ClientStream {
                        kind: StreamKind::Incoming,
                        connected: false,
                        pending: Vec::new(),
                        timeout: None,
                    },
                );
                self.emit_or_hs(
                    ctx,
                    slot,
                    TorEvent::IncomingStream(CircuitHandle(slot), rc.stream_id, port),
                );
            }
            RelayCmd::Sendme => {
                self.circuits[slot].package_window += SENDME_INCREMENT;
                self.flush_queued_data(ctx, slot);
            }
            RelayCmd::Drop => {}
            RelayCmd::Rendezvous2 => {
                self.handle_rendezvous2(ctx, slot, &rc.data);
            }
            RelayCmd::RendezvousEstablished => {
                if let Some(idx) = self.circuits[slot].hs_conn {
                    self.hs_conns[idx].rp_established = true;
                    self.hs_advance(ctx, idx);
                } else {
                    self.events.push_back(TorEvent::ControlCell(
                        CircuitHandle(slot),
                        rc.cmd,
                        rc.data,
                    ));
                }
            }
            RelayCmd::IntroduceAck => {
                if let Some(idx) = self.circuits[slot].hs_conn {
                    if !rc.data.is_empty() {
                        self.hs_fail(ctx, idx, "introduction NACK");
                    }
                    // ACK: nothing to do but wait for RENDEZVOUS2.
                } else {
                    self.events.push_back(TorEvent::ControlCell(
                        CircuitHandle(slot),
                        rc.cmd,
                        rc.data,
                    ));
                }
            }
            // Surfaced for the hidden-service host component.
            RelayCmd::IntroEstablished | RelayCmd::Introduce2 => {
                self.events
                    .push_back(TorEvent::ControlCell(CircuitHandle(slot), rc.cmd, rc.data));
            }
            // Never legitimately addressed to a client.
            RelayCmd::Extend
            | RelayCmd::BeginDir
            | RelayCmd::EstablishIntro
            | RelayCmd::Introduce1
            | RelayCmd::EstablishRendezvous
            | RelayCmd::Rendezvous1 => {}
        }
    }

    fn account_delivery(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let send_sendme = {
            let c = &mut self.circuits[slot];
            c.delivered_since_sendme += 1;
            if c.delivered_since_sendme >= SENDME_INCREMENT {
                c.delivered_since_sendme -= SENDME_INCREMENT;
                true
            } else {
                false
            }
        };
        if send_sendme {
            self.send_relay_last(ctx, slot, RelayCell::new(RelayCmd::Sendme, 0, vec![]));
        }
    }

    /// Route an event to the hidden-service state machine if the circuit
    /// belongs to one; otherwise emit it to the host.
    fn emit_or_hs(&mut self, ctx: &mut Ctx<'_>, slot: usize, ev: TorEvent) {
        let Some(idx) = self.circuits[slot].hs_conn else {
            self.events.push_back(ev);
            return;
        };
        match ev {
            TorEvent::CircuitReady(_) => {
                self.hs_advance(ctx, idx);
            }
            TorEvent::DirResponse(_, _, DirMsg::HsDescResp(resp)) => {
                match resp.and_then(|b| HsDescriptor::decode_verified(&b)) {
                    Some(desc) if desc.onion_addr() == self.hs_conns[idx].addr => {
                        // Done with the HSDir circuit.
                        if let Some(hsdir) = self.hs_conns[idx].hsdir_circ.take() {
                            self.destroy_circuit(ctx, CircuitHandle(hsdir));
                        }
                        self.hs_conns[idx].desc = Some(desc);
                        self.hs_advance(ctx, idx);
                    }
                    _ => self.hs_fail(ctx, idx, "descriptor missing or invalid"),
                }
            }
            TorEvent::StreamConnected(circ, stream) => {
                // Dir stream connected: pending request flushes via the
                // normal path; also surface stream events for the
                // rendezvous circuit itself.
                if self.hs_conns[idx].rendezvous_circ == circ.0 {
                    self.events
                        .push_back(TorEvent::StreamConnected(circ, stream));
                }
            }
            TorEvent::CircuitClosed(circ) => {
                let (rendezvous, phase, intro, hsdir, have_desc) = {
                    let h = &self.hs_conns[idx];
                    (
                        h.rendezvous_circ,
                        h.phase,
                        h.intro_circ,
                        h.hsdir_circ,
                        h.desc.is_some(),
                    )
                };
                if rendezvous == circ.0 && phase != HsPhase::Done {
                    self.hs_fail(ctx, idx, "rendezvous circuit closed");
                } else if phase == HsPhase::Done {
                    self.events.push_back(TorEvent::CircuitClosed(circ));
                } else if self.recovery.is_some() && phase != HsPhase::Failed {
                    // Recovery mode: a support circuit (intro / HSDir) dying
                    // mid-handshake is retried on a fresh path, up to
                    // MAX_HS_RETRIES per role.
                    if intro == Some(circ.0) {
                        self.hs_conns[idx].intro_circ = None;
                        self.hs_conns[idx].intro_retries += 1;
                        T_HS_RETRIES.inc();
                        if self.hs_conns[idx].phase == HsPhase::Introduced {
                            self.hs_conns[idx].phase = HsPhase::Waiting;
                        }
                        if self.hs_conns[idx].intro_retries > MAX_HS_RETRIES {
                            self.hs_fail(ctx, idx, "introduction retries exhausted");
                        } else {
                            self.maybe_introduce(ctx, idx);
                        }
                    } else if hsdir == Some(circ.0) && !have_desc {
                        self.hs_conns[idx].hsdir_circ = None;
                        self.hs_conns[idx].hsdir_retries += 1;
                        T_HS_RETRIES.inc();
                        if self.hs_conns[idx].hsdir_retries > MAX_HS_RETRIES {
                            self.hs_fail(ctx, idx, "descriptor fetch retries exhausted");
                        } else {
                            self.retry_hsdir(ctx, idx);
                        }
                    }
                }
            }
            // Data/End on the rendezvous circuit post-handshake flow to the
            // host directly.
            other => {
                self.events.push_back(other);
            }
        }
    }

    /// Progress an onion connection whenever one of its inputs changes.
    fn hs_advance(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        if matches!(self.hs_conns[idx].phase, HsPhase::Done | HsPhase::Failed) {
            return;
        }
        // 1. Request the descriptor once the HSDir circuit is up.
        let hsdir_circ = self.hs_conns[idx].hsdir_circ;
        let hsdir_ready = hsdir_circ.map(|c| self.circuits[c].ready).unwrap_or(false);
        if let Some(hsdir) = hsdir_circ {
            if hsdir_ready
                && self.hs_conns[idx].desc.is_none()
                && !self.hs_conns[idx].desc_requested
            {
                self.hs_conns[idx].desc_requested = true;
                let addr = self.hs_conns[idx].addr;
                self.dir_request(ctx, CircuitHandle(hsdir), DirMsg::FetchHsDesc(addr));
            }
        }
        // 2. Register the rendezvous cookie once that circuit is up.
        let rendezvous_circ = self.hs_conns[idx].rendezvous_circ;
        if self.circuits[rendezvous_circ].ready && !self.hs_conns[idx].est_sent {
            self.hs_conns[idx].est_sent = true;
            let cookie = self.hs_conns[idx].cookie;
            self.send_relay_last(
                ctx,
                rendezvous_circ,
                RelayCell::new(RelayCmd::EstablishRendezvous, 0, cookie.to_vec()),
            );
            self.hs_conns[idx].phase = HsPhase::Waiting;
        }
        // 3. Introduce when everything is in hand.
        self.maybe_introduce(ctx, idx);
    }

    /// If the descriptor and the rendezvous registration are both in hand
    /// and the intro circuit is ready (building it if needed), introduce.
    fn maybe_introduce(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        if self.hs_conns[idx].desc.is_none() || !self.hs_conns[idx].rp_established {
            return;
        }
        if self.hs_conns[idx].phase == HsPhase::Introduced {
            return;
        }
        match self.hs_conns[idx].intro_circ {
            None => {
                // Build a circuit to one of the service's intro points,
                // preferring ones this connection has not tried yet. On the
                // first attempt nothing is used, so the RNG draw is the same
                // range as a retry-oblivious client's.
                let intro_fp = {
                    let h = &self.hs_conns[idx];
                    let Some(desc) = h.desc.as_ref() else {
                        self.hs_fail(ctx, idx, "descriptor missing");
                        return;
                    };
                    if desc.intro_points.is_empty() {
                        self.hs_fail(ctx, idx, "descriptor has no intro points");
                        return;
                    }
                    let fresh: Vec<Fingerprint> = desc
                        .intro_points
                        .iter()
                        .filter(|fp| !h.used_intros.contains(fp))
                        .copied()
                        .collect();
                    let pool: &[Fingerprint] = if fresh.is_empty() {
                        &desc.intro_points
                    } else {
                        &fresh
                    };
                    let pick = ctx.rng().gen_range(0..pool.len());
                    pool[pick]
                };
                self.hs_conns[idx].used_intros.push(intro_fp);
                let Some(path) = self.select_path_resilient(ctx, TerminalReq::Specific(intro_fp))
                else {
                    self.hs_fail(ctx, idx, "intro point not in consensus");
                    return;
                };
                let Some(circ) = self.build_circuit(ctx, path) else {
                    self.hs_fail(ctx, idx, "could not build intro circuit");
                    return;
                };
                self.circuits[circ.0].hs_conn = Some(idx);
                self.hs_conns[idx].intro_circ = Some(circ.0);
            }
            Some(intro) if self.circuits[intro].ready => {
                self.send_introduce1(ctx, idx, intro);
            }
            Some(_) => {} // still building
        }
    }

    fn send_introduce1(&mut self, ctx: &mut Ctx<'_>, idx: usize, intro_slot: usize) {
        let (addr, cookie, enc_key, rp_info) = {
            let h = &self.hs_conns[idx];
            let Some(desc) = h.desc.as_ref() else {
                self.hs_fail(ctx, idx, "descriptor missing");
                return;
            };
            let Some(rp) = self.circuits[h.rendezvous_circ].path.last() else {
                self.hs_fail(ctx, idx, "rendezvous circuit has no path");
                return;
            };
            (h.addr, h.cookie, desc.enc_key, rp.clone())
        };
        // E2E ntor handshake toward the service's encryption key; the
        // service id for the handshake is the first 20 bytes of the onion
        // address.
        let mut svc_id = [0u8; 20];
        svc_id.copy_from_slice(&addr.0[..20]);
        let (handshake, onionskin) = ntor::client_begin(ctx.rng(), svc_id, enc_key);
        self.circuits[self.hs_conns[idx].rendezvous_circ].pending_e2e = Some(handshake);

        // Encrypt the introduction payload to the service's key.
        let eph = StaticSecret::random(ctx.rng());
        let Some(shared) = eph.diffie_hellman(&enc_key) else {
            self.hs_fail(ctx, idx, "descriptor carries a small-order encryption key");
            return;
        };
        let key = AeadKey::from_master(&hkdf(b"bento-intro", &shared, b"blob"));
        let mut plain = Vec::new();
        plain.extend_from_slice(&rp_info.fingerprint);
        plain.extend_from_slice(&rp_info.addr.0.to_be_bytes());
        plain.extend_from_slice(&rp_info.or_port.to_be_bytes());
        plain.extend_from_slice(&cookie);
        plain.extend_from_slice(&onionskin);
        let pow_bits = self.hs_conns[idx].pow_bits;
        if pow_bits > 0 {
            let nonce = crate::hs::solve_pow(&cookie, pow_bits);
            plain.extend_from_slice(&nonce.to_be_bytes());
        }
        let sealed = aead_seal(&key, &[0u8; 12], &addr.0, &plain);

        let mut data = Vec::new();
        data.extend_from_slice(&addr.0);
        data.extend_from_slice(eph.public_key().as_bytes());
        data.extend_from_slice(&sealed);
        self.send_relay_last(
            ctx,
            intro_slot,
            RelayCell::new(RelayCmd::Introduce1, 0, data),
        );
        self.hs_conns[idx].phase = HsPhase::Introduced;
    }

    fn handle_rendezvous2(&mut self, ctx: &mut Ctx<'_>, slot: usize, reply: &[u8]) {
        let Some(handshake) = self.circuits[slot].pending_e2e.take() else {
            return;
        };
        let Ok(keys) = ntor::client_finish(&handshake, reply) else {
            if let Some(idx) = self.circuits[slot].hs_conn {
                self.hs_fail(ctx, idx, "e2e handshake authentication failed");
            }
            return;
        };
        self.circuits[slot]
            .crypto
            .push_hop(LayerCrypto::client_side(&keys));
        if let Some(idx) = self.circuits[slot].hs_conn {
            self.hs_conns[idx].phase = HsPhase::Done;
            if let Some(intro) = self.hs_conns[idx].intro_circ.take() {
                self.destroy_circuit(ctx, CircuitHandle(intro));
            }
        }
        self.events
            .push_back(TorEvent::RendezvousReady(CircuitHandle(slot)));
    }

    /// Rebuild the HSDir circuit of an onion connection whose descriptor
    /// fetch failed, and re-arm the fetch.
    fn retry_hsdir(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let addr = self.hs_conns[idx].addr;
        let Some(hsdir_fp) = self
            .consensus
            .as_ref()
            .and_then(|c| crate::hs::responsible_hsdir(c, &addr))
        else {
            self.hs_fail(ctx, idx, "no responsible HSDir in consensus");
            return;
        };
        let Some(path) = self.select_path_resilient(ctx, TerminalReq::Specific(hsdir_fp)) else {
            self.hs_fail(ctx, idx, "no path to HSDir");
            return;
        };
        let Some(circ) = self.build_circuit(ctx, path) else {
            self.hs_fail(ctx, idx, "could not rebuild HSDir circuit");
            return;
        };
        self.circuits[circ.0].hs_conn = Some(idx);
        self.hs_conns[idx].hsdir_circ = Some(circ.0);
        self.hs_conns[idx].desc_requested = false;
        self.hs_advance(ctx, idx);
    }

    fn hs_fail(&mut self, ctx: &mut Ctx<'_>, idx: usize, why: &str) {
        if self.hs_conns[idx].phase == HsPhase::Failed {
            return;
        }
        self.hs_conns[idx].phase = HsPhase::Failed;
        let rendezvous = self.hs_conns[idx].rendezvous_circ;
        for circ in [
            Some(rendezvous),
            self.hs_conns[idx].hsdir_circ,
            self.hs_conns[idx].intro_circ,
        ]
        .into_iter()
        .flatten()
        {
            self.destroy_circuit(ctx, CircuitHandle(circ));
        }
        self.events.push_back(TorEvent::RendezvousFailed(
            CircuitHandle(rendezvous),
            why.to_string(),
        ));
    }

    fn circuit_closed(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        if !self.circuits[slot].alive {
            return;
        }
        self.circuits[slot].alive = false;
        self.circuits[slot].ready = false;
        let conn = self.circuits[slot].conn;
        let circ_id = self.circuits[slot].circ_id;
        self.circ_lookup.remove(&(conn, circ_id));
        // Quiesce every timer owned by the dead circuit before its slot can
        // be misread by a later firing.
        let mut timers: Vec<TimerId> = self.circuits[slot].build_timer.take().into_iter().collect();
        for s in self.circuits[slot].streams.values_mut() {
            timers.extend(s.timeout.take());
        }
        for t in timers {
            ctx.cancel_timer(t);
        }
        // A managed circuit dying is not the end: carry its rebuild state
        // into the backoff queue.
        if let Some(mut m) = self.circuits[slot].managed.take() {
            m.origin = Some(slot);
            if m.failed_at.is_none() {
                m.failed_at = Some(ctx.now());
            }
            self.schedule_rebuild(ctx, m);
        }
        self.emit_or_hs(ctx, slot, TorEvent::CircuitClosed(CircuitHandle(slot)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_target_roundtrip() {
        for t in [
            StreamTarget::Node(NodeId(7), 80),
            StreamTarget::Dir,
            StreamTarget::Hs(443),
        ] {
            assert_eq!(StreamTarget::decode(&t.encode()), Some(t));
        }
    }

    #[test]
    fn stream_target_rejects_malformed() {
        assert_eq!(StreamTarget::decode(&[]), None);
        assert_eq!(StreamTarget::decode(&[0, 1, 2]), None); // short Node
        assert_eq!(StreamTarget::decode(&[1, 9]), None); // long Dir
        assert_eq!(StreamTarget::decode(&[2, 1]), None); // short Hs
        assert_eq!(StreamTarget::decode(&[9]), None); // unknown tag
    }

    #[test]
    fn client_without_consensus_cannot_build() {
        // Structural guard: select_path and build_circuit require a
        // consensus; before bootstrap they return None instead of panicking.
        use onion_crypto::hashsig::MerkleSigner;
        let key = MerkleSigner::generate([0u8; 32], 1).verify_key();
        let client = TorClient::new(NodeId(0), key);
        assert!(client.consensus().is_none());
        assert!(!client.is_ready(CircuitHandle(0)));
        assert_eq!(client.hops(CircuitHandle(0)), 0);
    }
}
