//! The onion-proxy component: what runs inside a Tor client (and inside a
//! Bento box's "Onion Proxy for functions", Figure 3 of the paper).
//!
//! [`TorClient`] bootstraps from the directory authority, builds circuits
//! with weighted path selection, opens streams (to exit destinations, to
//! relay directory services, and to hidden services over rendezvous
//! circuits), enforces circuit-level SENDME flow control, can emit cover
//! (DROP) cells, and runs the client side of the hidden-service rendezvous
//! protocol — including the end-to-end virtual hop.

// A fault-recovery path: a panic here turns a recoverable fault into a
// crash.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::cell::{
    Cell, CellCmd, ExtendBody, RelayCell, RelayCmd, StreamTarget, MAX_RELAY_DATA, PAYLOAD_LEN,
};
use crate::dir::{
    Consensus, DirMsg, Fingerprint, HsDescriptor, OnionAddr, RelayFlags, RelayInfo, SignedConsensus,
};
use crate::link::{CircWindow, LinkTable};
use crate::ports::DIR_PORT;
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

/// Timer-tag namespace reserved by the client component: the 2⁵⁶ tags up
/// to the functions' namespace.
pub const CLIENT_TAG_BASE: u64 = 0x0200_0000_0000_0000;
/// Width of each [`ClientTimer`] category's sub-namespace under
/// [`CLIENT_TAG_BASE`]: a slot or token below 2⁵², or a circuit handle
/// below 2³⁶ beside its 16-bit stream id. The four categories take 2⁵⁴.
const TAG_SPAN: u64 = 1 << 52;

/// A timer the client arms, and the tag it travels under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientTimer {
    /// Retry the consensus fetch.
    FetchRetry,
    /// The build of the circuit in this slot is taking too long.
    BuildTimeout(usize),
    /// This stream of this circuit has not connected in time.
    StreamTimeout(usize, u16),
    /// The parked rebuild with this token is due.
    Rebuild(u64),
}

impl ClientTimer {
    fn tag(self) -> u64 {
        let (category, sub) = match self {
            ClientTimer::FetchRetry => (0, 1),
            ClientTimer::BuildTimeout(slot) => (1, slot as u64),
            ClientTimer::StreamTimeout(circ, stream) => (2, (circ as u64) << 16 | stream as u64),
            ClientTimer::Rebuild(token) => (3, token),
        };
        CLIENT_TAG_BASE + category * TAG_SPAN + sub
    }

    /// The client timer `tag` names, if it is one.
    fn from_tag(tag: u64) -> Option<ClientTimer> {
        let offset = tag.checked_sub(CLIENT_TAG_BASE)?;
        let sub = offset % TAG_SPAN;
        Some(match offset / TAG_SPAN {
            0 if sub == 1 => ClientTimer::FetchRetry,
            1 => ClientTimer::BuildTimeout(sub as usize),
            2 => ClientTimer::StreamTimeout((sub >> 16) as usize, sub as u16),
            3 => ClientTimer::Rebuild(sub),
            _ => return None,
        })
    }
}

/// Introduction/HSDir retries per onion connection before giving up.
const MAX_HS_RETRIES: u32 = 3;

/// Handle to a client circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CircuitHandle(pub usize);

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
    streams: BTreeMap<u16, ClientStream>,
    /// Flow control of the cells this client sends to the last hop.
    window: CircWindow,
    /// Outstanding e2e handshake awaiting RENDEZVOUS2.
    pending_e2e: Option<ntor::ClientHandshake>,
    /// Key in `hs_conns` of the onion connection this circuit serves.
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
    /// Handle of the failed incarnation its owner holds: the one the next
    /// `CircuitRebuilt` names, however many attempts fail in between.
    origin: Option<usize>,
}

/// An onion connection still being set up. It leaves `hs_conns` when it
/// fails or when RENDEZVOUS2 completes it.
struct HsConn {
    addr: OnionAddr,
    rendezvous_circ: usize,
    hsdir_circ: Option<usize>,
    intro_circ: Option<usize>,
    cookie: [u8; 20],
    rp_established: bool,
    est_sent: bool,
    desc_requested: bool,
    desc: Option<HsDescriptor>,
    /// INTRODUCE1 went out on the current intro circuit.
    introduced: bool,
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
    links: LinkTable,
    /// Live circuits by handle. A circuit leaves when it dies, and handles
    /// count up from 0 (again after [`TorClient::reset`]), never reused.
    circuits: BTreeMap<usize, ClientCircuit>,
    next_circ: usize,
    /// Onion connections being set up, keyed the same way.
    hs_conns: BTreeMap<usize, HsConn>,
    next_hs_conn: usize,
    next_stream_id: u16,
    events: VecDeque<TorEvent>,
    /// Consensus-fetch retry schedule (jittered exponential backoff).
    fetch_backoff: Backoff,
    /// Consensus-fetch retries performed (also mirrored to telemetry).
    consensus_retries: u64,
    /// Set once [`TorClient::enable_recovery`] has been called.
    recovery: bool,
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
            links: LinkTable::default(),
            circuits: BTreeMap::new(),
            next_circ: 0,
            hs_conns: BTreeMap::new(),
            next_hs_conn: 0,
            next_stream_id: 1,
            events: VecDeque::new(),
            fetch_backoff: Backoff::new(Self::FETCH_BACKOFF),
            consensus_retries: 0,
            recovery: false,
            failures: FailureCache::new(Self::FAILURE_DECAY),
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

    /// Recovery mode: a circuit still building after this long is abandoned
    /// (and the hop being extended is recorded in the failure cache).
    const BUILD_TIMEOUT: SimDuration = SimDuration(8_000_000_000);

    /// Recovery mode: a stream not Connected after this long is torn down.
    const STREAM_TIMEOUT: SimDuration = SimDuration(10_000_000_000);

    /// Recovery mode: backoff between rebuild attempts of a managed circuit.
    const REBUILD_BACKOFF: BackoffPolicy = BackoffPolicy {
        base: SimDuration(300_000_000),   // 300 ms
        cap: SimDuration(10_000_000_000), // 10 s
        max_attempts: 12,
    };

    /// How long a failed relay stays avoided during path selection.
    const FAILURE_DECAY: SimDuration = SimDuration(30_000_000_000);

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
        self.recovery = true;
    }

    /// Consensus-fetch retries performed so far.
    pub fn consensus_retries(&self) -> u64 {
        self.consensus_retries
    }

    /// Drop all volatile state, as a host crash would: consensus, links,
    /// circuits, onion connections, queued events. Configuration (authority,
    /// trust key, exclusions, the recovery switch) survives, like files on disk.
    /// The simulator suppresses the old incarnation's timers, so stale tags
    /// can never reach the reborn client.
    pub fn reset(&mut self) {
        self.consensus = None;
        self.dir_conn = None;
        self.links = LinkTable::default();
        self.circuits.clear();
        self.next_circ = 0;
        self.hs_conns.clear();
        self.next_hs_conn = 0;
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
        self.circuits.get(&circ.0).is_some_and(|c| c.ready)
    }

    /// Number of hops (including any virtual hop) on a circuit.
    pub fn hops(&self, circ: CircuitHandle) -> usize {
        self.circuits.get(&circ.0).map_or(0, |c| c.crypto.len())
    }

    /// Fingerprints of the relays on a circuit's path, guard first
    /// (inspection for tests and experiments; empty for unknown handles).
    pub fn circuit_path(&self, circ: CircuitHandle) -> Vec<Fingerprint> {
        self.circuits
            .get(&circ.0)
            .map(|c| c.path.iter().map(|r| r.fingerprint).collect())
            .unwrap_or_default()
    }

    /// Circuits this client holds now, building or built. A dead circuit
    /// is gone at once, so this is what a leak check counts.
    pub fn live_circuits(&self) -> usize {
        self.circuits.len()
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
        let (conn, circ_id) = self
            .links
            .new_circ(guard.addr, || ctx.connect(guard.addr, guard.or_port));
        let (handshake, onionskin) =
            ntor::client_begin(ctx.rng(), guard.fingerprint, guard.onion_key);
        let slot = self.next_circ;
        self.next_circ += 1;
        self.links.bind(conn, circ_id, slot);
        let build_timer = self
            .recovery
            .then(|| ctx.set_timer(Self::BUILD_TIMEOUT, ClientTimer::BuildTimeout(slot).tag()));
        self.circuits.insert(
            slot,
            ClientCircuit {
                path: infos,
                conn,
                circ_id,
                crypto: CircuitCrypto::new(),
                building: Some(BuildState { hop: 0, handshake }),
                ready: false,
                streams: BTreeMap::new(),
                window: CircWindow::new(),
                pending_e2e: None,
                hs_conn: None,
                build_timer,
                managed: None,
            },
        );
        let create = Cell::with_payload(circ_id, CellCmd::Create, &onionskin);
        self.links.send_cell(ctx, conn, create);
        Some(CircuitHandle(slot))
    }

    /// Build a circuit whose terminal hop satisfies `req`, selecting a path
    /// that avoids recently-failed relays — and keep it up: if it fails
    /// to build or dies later, the client automatically rebuilds it on a
    /// fresh path after a jittered exponential backoff, emitting
    /// [`TorEvent::CircuitRebuilt`] when the replacement is ready. Requires
    /// [`TorClient::enable_recovery`].
    pub fn build_circuit_managed(
        &mut self,
        ctx: &mut Ctx<'_>,
        req: TerminalReq,
    ) -> Option<CircuitHandle> {
        if !self.recovery {
            return None;
        }
        let path = self.select_path_resilient(ctx, req)?;
        let handle = self.build_circuit(ctx, path)?;
        let c = self.circuits.get_mut(&handle.0)?;
        c.managed = Some(ManagedCirc {
            req,
            backoff: Backoff::new(Self::REBUILD_BACKOFF),
            failed_at: None,
            origin: None,
        });
        Some(handle)
    }

    /// Tear down a circuit. Its timers find nothing when they fire.
    /// Destroying the rendezvous circuit of an onion connection still being
    /// set up abandons that connection and its other circuits too.
    pub fn destroy_circuit(&mut self, ctx: &mut Ctx<'_>, circ: CircuitHandle) {
        let Some(c) = self.circuits.remove(&circ.0) else {
            return;
        };
        self.links.unbind(c.conn, c.circ_id);
        self.links
            .send_cell(ctx, c.conn, Cell::new(c.circ_id, CellCmd::Destroy));
        let abandoned = c.hs_conn.filter(|idx| {
            self.hs_conns
                .get(idx)
                .is_some_and(|h| h.rendezvous_circ == circ.0)
        });
        if let Some(idx) = abandoned {
            self.drop_hs(ctx, idx);
        }
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
        let c = self.circuits.get_mut(&circ.0).filter(|c| c.ready)?;
        let stream_id = self.next_stream_id;
        self.next_stream_id = self.next_stream_id.wrapping_add(1).max(1);
        let kind = match target {
            StreamTarget::Dir => StreamKind::Dir(FrameAssembler::new()),
            _ => StreamKind::App,
        };
        let timeout = self.recovery.then(|| {
            let tag = ClientTimer::StreamTimeout(circ.0, stream_id).tag();
            ctx.set_timer(Self::STREAM_TIMEOUT, tag)
        });
        c.streams.insert(
            stream_id,
            ClientStream {
                kind,
                connected: false,
                pending: Vec::new(),
                timeout,
            },
        );
        let (cmd, data) = match target {
            StreamTarget::Dir => (RelayCmd::BeginDir, vec![]),
            _ => (RelayCmd::Begin, target.encode()),
        };
        self.send_relay(ctx, circ.0, cmd, stream_id, &data);
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
            self.send_relay(ctx, circ.0, RelayCmd::Data, stream, chunk);
        }
    }

    /// Close a stream. Its END follows any of its DATA still waiting for
    /// the circuit window.
    pub fn close_stream(&mut self, ctx: &mut Ctx<'_>, circ: CircuitHandle, stream: u16) {
        let Some(c) = self.circuits.get_mut(&circ.0) else {
            return;
        };
        if let Some(s) = c.streams.remove(&stream) {
            if let Some(t) = s.timeout {
                ctx.cancel_timer(t);
            }
            self.send_relay(ctx, circ.0, RelayCmd::End, stream, &[]);
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
            if let Some(c) = self.circuits.get_mut(&circ.0) {
                if let Some(s) = c.streams.get_mut(&stream) {
                    s.connected = true;
                }
            }
            self.send_relay(ctx, circ.0, RelayCmd::Connected, stream, &[]);
        } else {
            if let Some(c) = self.circuits.get_mut(&circ.0) {
                c.streams.remove(&stream);
            }
            self.send_relay(ctx, circ.0, RelayCmd::End, stream, &[]);
        }
    }

    /// Send a cover (DROP) cell the full length of the circuit: to an
    /// observer it is indistinguishable from data.
    pub fn send_drop(&mut self, ctx: &mut Ctx<'_>, circ: CircuitHandle) {
        if self.is_ready(circ) {
            self.send_relay(ctx, circ.0, RelayCmd::Drop, 0, &[]);
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
        self.send_relay(ctx, circ.0, cmd, 0, &data);
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
        if let Some(c) = self.circuits.get_mut(&circ.0) {
            if let Some(s) = c.streams.get_mut(&stream) {
                s.pending.push(encode_frame(&msg.encode()));
            }
        }
        Some(stream)
    }

    /// Append a server-side end-to-end hop (hidden service use).
    pub fn push_virtual_hop_server(&mut self, circ: CircuitHandle, keys: &ntor::CircuitKeys) {
        if let Some(c) = self.circuits.get_mut(&circ.0) {
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
        let idx = self.next_hs_conn;
        self.next_hs_conn += 1;
        self.hs_conns.insert(
            idx,
            HsConn {
                addr,
                rendezvous_circ: rendezvous.0,
                hsdir_circ: Some(hsdir.0),
                intro_circ: None,
                cookie,
                rp_established: false,
                est_sent: false,
                desc_requested: false,
                desc: None,
                introduced: false,
                intro_retries: 0,
                hsdir_retries: 0,
                used_intros: Vec::new(),
            },
        );
        for circ in [rendezvous, hsdir] {
            if let Some(c) = self.circuits.get_mut(&circ.0) {
                c.hs_conn = Some(idx);
            }
        }
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
        self.links.established(ctx, conn).is_some()
    }

    /// Delegate of [`simnet::Node::on_msg`]. Hands `msg` back when it is
    /// not for the client.
    pub fn handle_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) -> Option<Vec<u8>> {
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
            return None;
        }
        if self.links.contains(conn) {
            if let Some(cell) = Cell::decode(&msg) {
                ctx.recycle_buf(msg);
                self.handle_cell(ctx, conn, cell);
            }
            return None;
        }
        Some(msg)
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
        if let Some(slots) = self.links.close(conn) {
            for slot in slots {
                if self.recovery {
                    // The guard link died under this circuit: remember the
                    // guard so rebuilds steer around it while it decays.
                    let guard = self.circuits.get(&slot).and_then(|c| c.path.first());
                    if let Some(fp) = guard.map(|r| r.fingerprint) {
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
        let Some(timer) = ClientTimer::from_tag(tag) else {
            return false;
        };
        match timer {
            ClientTimer::FetchRetry => {
                if self.consensus.is_some() {
                    return true;
                }
                match self.dir_conn {
                    Some(conn) => {
                        ctx.send(conn, DirMsg::FetchConsensus.encode());
                    }
                    None => self.bootstrap(ctx),
                }
            }
            ClientTimer::BuildTimeout(slot) => self.fire_build_timeout(ctx, slot),
            ClientTimer::StreamTimeout(circ, stream) => self.fire_stream_timeout(ctx, circ, stream),
            ClientTimer::Rebuild(token) => self.fire_rebuild(ctx, token),
        }
        true
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
        let delay = if self.recovery {
            self.fetch_backoff
                .next_delay(ctx.rng())
                .unwrap_or(Self::FETCH_BACKOFF.cap)
        } else {
            SimDuration::from_millis(200)
        };
        ctx.set_timer(delay, ClientTimer::FetchRetry.tag());
        self.consensus_retries += 1;
        T_CONSENSUS_RETRIES.inc();
    }

    /// A circuit took longer than `BUILD_TIMEOUT` to finish building: blame
    /// the hop being extended, tear the circuit down, and (if managed) let
    /// `circuit_closed` schedule the rebuild.
    fn fire_build_timeout(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let Some(c) = self.circuits.get_mut(&slot) else {
            return;
        };
        c.build_timer = None;
        if c.ready {
            return;
        }
        T_BUILD_TIMEOUTS.inc();
        if self.recovery {
            let blamed = c
                .building
                .as_ref()
                .and_then(|b| c.path.get(b.hop))
                .map(|r| r.fingerprint);
            if let Some(fp) = blamed {
                self.failures.record(fp, ctx.now());
            }
        }
        self.refuse_circuit(ctx, slot);
    }

    /// A stream never reached Connected within `STREAM_TIMEOUT`: end it.
    fn fire_stream_timeout(&mut self, ctx: &mut Ctx<'_>, slot: usize, stream: u16) {
        let Some(c) = self.circuits.get_mut(&slot) else {
            return;
        };
        if c.streams.get(&stream).is_none_or(|s| s.connected) {
            return;
        }
        c.streams.remove(&stream);
        let hs = c.hs_conn;
        T_STREAM_TIMEOUTS.inc();
        self.send_relay(ctx, slot, RelayCmd::End, stream, &[]);
        self.emit_or_hs(ctx, hs, TorEvent::StreamEnded(CircuitHandle(slot), stream));
    }

    /// Park a managed circuit's rebuild behind its next backoff delay.
    fn schedule_rebuild(&mut self, ctx: &mut Ctx<'_>, mut managed: ManagedCirc) {
        let Some(delay) = managed.backoff.next_delay(ctx.rng()) else {
            return; // attempts exhausted: the circuit stays down
        };
        let token = self.next_rebuild_token;
        self.next_rebuild_token += 1;
        self.pending_rebuilds.insert(token, managed);
        ctx.set_timer(delay, ClientTimer::Rebuild(token).tag());
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
        match attempt.and_then(|handle| self.circuits.get_mut(&handle.0)) {
            Some(c) => c.managed = Some(managed),
            None => self.schedule_rebuild(ctx, managed),
        }
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// Send a relay cell to the circuit's last hop through the circuit
    /// window. The data is borrowed, and copied to the heap only when the
    /// cell must wait in the window's queue.
    fn send_relay(
        &mut self,
        ctx: &mut Ctx<'_>,
        slot: usize,
        cmd: RelayCmd,
        stream: u16,
        data: &[u8],
    ) {
        let Some(c) = self.circuits.get_mut(&slot) else {
            return;
        };
        if c.window.admit(cmd, stream, data) {
            let payload = RelayCell::encode_payload_from(cmd, stream, data);
            Self::seal_for_last(&mut self.links, ctx, c, payload);
        }
    }

    fn seal_for_last(
        links: &mut LinkTable,
        ctx: &mut Ctx<'_>,
        c: &mut ClientCircuit,
        mut payload: [u8; PAYLOAD_LEN],
    ) {
        if c.crypto.is_empty() {
            return;
        }
        c.crypto.seal_for_last(&mut payload);
        let cell = Cell {
            circ_id: c.circ_id,
            cmd: CellCmd::Relay,
            payload,
        };
        links.send_cell(ctx, c.conn, cell);
    }

    fn handle_cell(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, mut cell: Cell) {
        let Some(slot) = self.links.circ(conn, cell.circ_id) else {
            return;
        };
        match cell.cmd {
            CellCmd::Created => {
                let reply = cell.payload[..ntor::REPLY_LEN].to_vec();
                self.handle_hop_complete(ctx, slot, &reply);
            }
            CellCmd::Relay => {
                let Some(c) = self.circuits.get_mut(&slot) else {
                    return;
                };
                if c.crypto.unwrap_inbound(&mut cell.payload).is_none() {
                    // Unrecognized backward cell: integrity violation.
                    self.refuse_circuit(ctx, slot);
                    return;
                }
                let Some(rc) = RelayCell::parse_payload(&cell.payload) else {
                    return;
                };
                let hs = c.hs_conn;
                if rc.cmd != RelayCmd::Data {
                    self.handle_inbound_relay(ctx, slot, hs, rc);
                    return;
                }
                // The data path works from the one lookup above.
                let sendme = c.window.delivered();
                enum D {
                    App(Vec<u8>),
                    Dir(Vec<Vec<u8>>),
                }
                let d = c.streams.get_mut(&rc.stream_id).map(|s| match &mut s.kind {
                    StreamKind::Dir(asm) => {
                        asm.push(&rc.data);
                        D::Dir(asm.drain_frames())
                    }
                    _ => D::App(rc.data),
                });
                if sendme {
                    self.send_relay(ctx, slot, RelayCmd::Sendme, 0, &[]);
                }
                let h = CircuitHandle(slot);
                match d {
                    Some(D::App(data)) => {
                        self.emit_or_hs(ctx, hs, TorEvent::StreamData(h, rc.stream_id, data));
                    }
                    Some(D::Dir(frames)) => {
                        for f in frames {
                            if let Ok(dm) = DirMsg::decode(&f) {
                                self.emit_or_hs(
                                    ctx,
                                    hs,
                                    TorEvent::DirResponse(h, rc.stream_id, dm),
                                );
                            }
                        }
                    }
                    None => {}
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
        let Some(c) = self.circuits.get_mut(&slot) else {
            return;
        };
        let Some(build) = c.building.take() else {
            return;
        };
        let Ok(keys) = ntor::client_finish(&build.handshake, reply) else {
            self.refuse_circuit(ctx, slot);
            return;
        };
        c.crypto.push_hop(LayerCrypto::client_side(&keys));
        let next_hop = build.hop + 1;
        if let Some(next) = c.path.get(next_hop).cloned() {
            // Extend to the next relay.
            let (handshake, onionskin) =
                ntor::client_begin(ctx.rng(), next.fingerprint, next.onion_key);
            c.building = Some(BuildState {
                hop: next_hop,
                handshake,
            });
            let body = ExtendBody {
                fingerprint: next.fingerprint,
                addr: next.addr,
                or_port: next.or_port,
                onionskin: &onionskin,
            };
            self.send_relay(ctx, slot, RelayCmd::Extend, 0, &body.encode());
        } else {
            c.ready = true;
            if let Some(t) = c.build_timer.take() {
                ctx.cancel_timer(t);
            }
            // A managed circuit coming up: if this is a rebuild, record the
            // recovery and announce old → new before CircuitReady.
            let mut rebuilt_from = None;
            if let Some(m) = c.managed.as_mut() {
                m.backoff.reset();
                rebuilt_from = m.origin.take();
                if let Some(t0) = m.failed_at.take() {
                    T_RECOVER_MS.record((ctx.now() - t0).as_millis());
                }
            }
            let hs = c.hs_conn;
            if let Some(old) = rebuilt_from {
                T_CIRC_REBUILDS.inc();
                self.emit_or_hs(
                    ctx,
                    hs,
                    TorEvent::CircuitRebuilt(CircuitHandle(old), CircuitHandle(slot)),
                );
            }
            self.emit_or_hs(ctx, hs, TorEvent::CircuitReady(CircuitHandle(slot)));
        }
    }

    /// A recognized relay cell other than DATA, on circuit `slot` of onion
    /// connection `hs` (if any).
    fn handle_inbound_relay(
        &mut self,
        ctx: &mut Ctx<'_>,
        slot: usize,
        hs: Option<usize>,
        rc: RelayCell,
    ) {
        let h = CircuitHandle(slot);
        match (rc.cmd, hs) {
            (RelayCmd::Extended, _) => {
                self.handle_hop_complete(ctx, slot, &rc.data);
            }
            (RelayCmd::Connected, _) => {
                let stream = self
                    .circuits
                    .get_mut(&slot)
                    .and_then(|c| c.streams.get_mut(&rc.stream_id));
                let mut flush = Vec::new();
                if let Some(s) = stream {
                    s.connected = true;
                    flush = std::mem::take(&mut s.pending);
                    if let Some(t) = s.timeout.take() {
                        ctx.cancel_timer(t);
                    }
                }
                for frame in flush {
                    self.send_stream(ctx, h, rc.stream_id, &frame);
                }
                self.emit_or_hs(ctx, hs, TorEvent::StreamConnected(h, rc.stream_id));
            }
            (RelayCmd::End, _) => {
                let stream = self
                    .circuits
                    .get_mut(&slot)
                    .and_then(|c| c.streams.remove(&rc.stream_id));
                if let Some(t) = stream.and_then(|s| s.timeout) {
                    ctx.cancel_timer(t);
                }
                self.emit_or_hs(ctx, hs, TorEvent::StreamEnded(h, rc.stream_id));
            }
            (RelayCmd::Begin, _) => {
                // Far end of a rendezvous circuit opening a stream toward us.
                let port = StreamTarget::decode(&rc.data)
                    .and_then(|t| match t {
                        StreamTarget::Hs(p) => Some(p),
                        _ => None,
                    })
                    .unwrap_or(0);
                if let Some(c) = self.circuits.get_mut(&slot) {
                    c.streams.insert(
                        rc.stream_id,
                        ClientStream {
                            kind: StreamKind::Incoming,
                            connected: false,
                            pending: Vec::new(),
                            timeout: None,
                        },
                    );
                }
                self.emit_or_hs(ctx, hs, TorEvent::IncomingStream(h, rc.stream_id, port));
            }
            (RelayCmd::Sendme, _) => {
                if let Some(c) = self.circuits.get_mut(&slot) {
                    c.window.credit();
                    while let Some(rc) = c.window.next_ready() {
                        Self::seal_for_last(&mut self.links, ctx, c, rc.encode_payload());
                    }
                }
            }
            (RelayCmd::Data | RelayCmd::Drop, _) => {}
            (RelayCmd::Rendezvous2, _) => {
                self.handle_rendezvous2(ctx, slot, &rc.data);
            }
            (RelayCmd::RendezvousEstablished, Some(idx)) => {
                if let Some(h) = self.hs_conns.get_mut(&idx) {
                    h.rp_established = true;
                }
                self.hs_advance(ctx, idx);
            }
            // A NACK fails the introduction; after an ACK, RENDEZVOUS2 is
            // what is left to wait for.
            (RelayCmd::IntroduceAck, Some(idx)) if !rc.data.is_empty() => {
                self.hs_fail(ctx, idx, "introduction NACK");
            }
            (RelayCmd::IntroduceAck, Some(_)) => {}
            // Surfaced for the hidden-service host component.
            (
                RelayCmd::IntroEstablished
                | RelayCmd::Introduce2
                | RelayCmd::RendezvousEstablished
                | RelayCmd::IntroduceAck,
                _,
            ) => {
                self.events
                    .push_back(TorEvent::ControlCell(h, rc.cmd, rc.data));
            }
            // Never legitimately addressed to a client.
            (
                RelayCmd::Extend
                | RelayCmd::BeginDir
                | RelayCmd::EstablishIntro
                | RelayCmd::Introduce1
                | RelayCmd::EstablishRendezvous
                | RelayCmd::Rendezvous1,
                _,
            ) => {}
        }
    }

    /// Route an event of a circuit serving onion connection `hs` to that
    /// connection's state machine; emit it to the host when there is none.
    fn emit_or_hs(&mut self, ctx: &mut Ctx<'_>, hs: Option<usize>, ev: TorEvent) {
        let Some(idx) = hs.filter(|idx| self.hs_conns.contains_key(idx)) else {
            self.events.push_back(ev);
            return;
        };
        match ev {
            TorEvent::CircuitReady(_) => {
                self.hs_advance(ctx, idx);
            }
            TorEvent::DirResponse(_, _, DirMsg::HsDescResp(resp)) => {
                let desc = resp.and_then(|b| HsDescriptor::decode_verified(&b));
                let Some(h) = self.hs_conns.get_mut(&idx) else {
                    return;
                };
                match desc {
                    Some(desc) if desc.onion_addr() == h.addr => {
                        h.desc = Some(desc);
                        // Done with the HSDir circuit.
                        if let Some(hsdir) = h.hsdir_circ.take() {
                            self.destroy_circuit(ctx, CircuitHandle(hsdir));
                        }
                        self.hs_advance(ctx, idx);
                    }
                    _ => self.hs_fail(ctx, idx, "descriptor missing or invalid"),
                }
            }
            // The HSDir circuit's dir stream connected and flushed its
            // request; only the response matters. (The rendezvous circuit
            // carries streams only once RENDEZVOUS2 has completed it.)
            TorEvent::StreamConnected(..) => {}
            TorEvent::CircuitClosed(circ) => {
                let Some(h) = self.hs_conns.get_mut(&idx) else {
                    return;
                };
                if h.rendezvous_circ == circ.0 {
                    self.hs_fail(ctx, idx, "rendezvous circuit closed");
                } else if self.recovery && h.intro_circ == Some(circ.0) {
                    // Recovery mode: a support circuit (intro / HSDir) dying
                    // mid-handshake is retried on a fresh path, up to
                    // MAX_HS_RETRIES per role.
                    h.intro_circ = None;
                    h.intro_retries += 1;
                    h.introduced = false;
                    T_HS_RETRIES.inc();
                    if h.intro_retries > MAX_HS_RETRIES {
                        self.hs_fail(ctx, idx, "introduction retries exhausted");
                    } else {
                        self.maybe_introduce(ctx, idx);
                    }
                } else if self.recovery && h.hsdir_circ == Some(circ.0) && h.desc.is_none() {
                    h.hsdir_circ = None;
                    h.hsdir_retries += 1;
                    T_HS_RETRIES.inc();
                    if h.hsdir_retries > MAX_HS_RETRIES {
                        self.hs_fail(ctx, idx, "descriptor fetch retries exhausted");
                    } else {
                        self.retry_hsdir(ctx, idx);
                    }
                }
            }
            // Anything else goes to the host, as for any circuit.
            other => {
                self.events.push_back(other);
            }
        }
    }

    /// Progress an onion connection whenever one of its inputs changes.
    fn hs_advance(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let Some(h) = self.hs_conns.get_mut(&idx) else {
            return;
        };
        let ready = |slot: usize| self.circuits.get(&slot).is_some_and(|c| c.ready);
        // 1. Request the descriptor once the HSDir circuit is up.
        let fetch_on = h
            .hsdir_circ
            .filter(|&c| ready(c) && h.desc.is_none() && !h.desc_requested);
        // 2. Register the rendezvous cookie once that circuit is up.
        let establish = !h.est_sent && ready(h.rendezvous_circ);
        h.desc_requested |= fetch_on.is_some();
        h.est_sent |= establish;
        let (addr, cookie, rendezvous) = (h.addr, h.cookie, h.rendezvous_circ);
        if let Some(hsdir) = fetch_on {
            self.dir_request(ctx, CircuitHandle(hsdir), DirMsg::FetchHsDesc(addr));
        }
        if establish {
            self.send_relay(ctx, rendezvous, RelayCmd::EstablishRendezvous, 0, &cookie);
        }
        // 3. Introduce when everything is in hand.
        self.maybe_introduce(ctx, idx);
    }

    /// If the descriptor and the rendezvous registration are both in hand
    /// and the intro circuit is ready (building it if needed), introduce.
    fn maybe_introduce(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let Some(h) = self.hs_conns.get(&idx) else {
            return;
        };
        if h.desc.is_none() || !h.rp_established || h.introduced {
            return;
        }
        match h.intro_circ {
            None => {
                // Build a circuit to one of the service's intro points,
                // preferring ones this connection has not tried yet. On the
                // first attempt nothing is used, so the RNG draw is the same
                // range as a retry-oblivious client's.
                let intro_fp = {
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
                let Some(path) = self.select_path_resilient(ctx, TerminalReq::Specific(intro_fp))
                else {
                    self.hs_fail(ctx, idx, "intro point not in consensus");
                    return;
                };
                let Some(circ) = self.build_circuit(ctx, path) else {
                    self.hs_fail(ctx, idx, "could not build intro circuit");
                    return;
                };
                let conn = self.hs_conns.get_mut(&idx);
                if let (Some(c), Some(h)) = (self.circuits.get_mut(&circ.0), conn) {
                    c.hs_conn = Some(idx);
                    h.used_intros.push(intro_fp);
                    h.intro_circ = Some(circ.0);
                }
            }
            Some(intro) if self.is_ready(CircuitHandle(intro)) => {
                self.send_introduce1(ctx, idx, intro);
            }
            Some(_) => {} // still building
        }
    }

    fn send_introduce1(&mut self, ctx: &mut Ctx<'_>, idx: usize, intro_slot: usize) {
        let Some(h) = self.hs_conns.get(&idx) else {
            return;
        };
        let (addr, cookie, rendezvous) = (h.addr, h.cookie, h.rendezvous_circ);
        let rp = self.circuits.get(&rendezvous).and_then(|c| c.path.last());
        let (Some(enc_key), Some(rp_info)) = (h.desc.as_ref().map(|d| d.enc_key), rp.cloned())
        else {
            self.hs_fail(ctx, idx, "descriptor or rendezvous path missing");
            return;
        };
        // E2E ntor handshake toward the service's encryption key; the
        // service id for the handshake is the first 20 bytes of the onion
        // address.
        let mut svc_id = [0u8; 20];
        svc_id.copy_from_slice(&addr.0[..20]);
        let (handshake, onionskin) = ntor::client_begin(ctx.rng(), svc_id, enc_key);
        if let Some(c) = self.circuits.get_mut(&rendezvous) {
            c.pending_e2e = Some(handshake);
        }

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
        let sealed = aead_seal(&key, &[0u8; 12], &addr.0, &plain);

        let mut data = Vec::new();
        data.extend_from_slice(&addr.0);
        data.extend_from_slice(eph.public_key().as_bytes());
        data.extend_from_slice(&sealed);
        self.send_relay(ctx, intro_slot, RelayCmd::Introduce1, 0, &data);
        if let Some(h) = self.hs_conns.get_mut(&idx) {
            h.introduced = true;
        }
    }

    fn handle_rendezvous2(&mut self, ctx: &mut Ctx<'_>, slot: usize, reply: &[u8]) {
        let Some(c) = self.circuits.get_mut(&slot) else {
            return;
        };
        let Some(handshake) = c.pending_e2e.take() else {
            return;
        };
        let Ok(keys) = ntor::client_finish(&handshake, reply) else {
            if let Some(idx) = c.hs_conn {
                self.hs_fail(ctx, idx, "e2e handshake authentication failed");
            }
            return;
        };
        c.crypto.push_hop(LayerCrypto::client_side(&keys));
        // The onion connection is complete: it leaves its table, and the
        // rendezvous circuit carries on as an ordinary circuit.
        let done = c.hs_conn.take().and_then(|idx| self.hs_conns.remove(&idx));
        if let Some(intro) = done.and_then(|h| h.intro_circ) {
            self.destroy_circuit(ctx, CircuitHandle(intro));
        }
        self.events
            .push_back(TorEvent::RendezvousReady(CircuitHandle(slot)));
    }

    /// Rebuild the HSDir circuit of an onion connection whose descriptor
    /// fetch failed, and re-arm the fetch.
    fn retry_hsdir(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let Some(addr) = self.hs_conns.get(&idx).map(|h| h.addr) else {
            return;
        };
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
        let conn = self.hs_conns.get_mut(&idx);
        if let (Some(c), Some(h)) = (self.circuits.get_mut(&circ.0), conn) {
            c.hs_conn = Some(idx);
            h.hsdir_circ = Some(circ.0);
            h.desc_requested = false;
        }
        self.hs_advance(ctx, idx);
    }

    fn hs_fail(&mut self, ctx: &mut Ctx<'_>, idx: usize, why: &str) {
        if let Some(rendezvous) = self.drop_hs(ctx, idx) {
            self.events.push_back(TorEvent::RendezvousFailed(
                CircuitHandle(rendezvous),
                why.to_string(),
            ));
        }
    }

    /// Remove an onion connection and destroy its circuits. Returns its
    /// rendezvous circuit, or `None` if it was already gone.
    fn drop_hs(&mut self, ctx: &mut Ctx<'_>, idx: usize) -> Option<usize> {
        let h = self.hs_conns.remove(&idx)?;
        for circ in [Some(h.rendezvous_circ), h.hsdir_circ, h.intro_circ]
            .into_iter()
            .flatten()
        {
            self.destroy_circuit(ctx, CircuitHandle(circ));
        }
        Some(h.rendezvous_circ)
    }

    /// The client gives up on a circuit itself (a build timeout, a failed
    /// handshake, an unrecognized cell): DESTROY goes out, then the same
    /// close bookkeeping as when the far side closes it.
    fn refuse_circuit(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let Some(c) = self.circuits.get(&slot) else {
            return;
        };
        let (conn, destroy) = (c.conn, Cell::new(c.circ_id, CellCmd::Destroy));
        self.links.send_cell(ctx, conn, destroy);
        self.circuit_closed(ctx, slot);
    }

    /// A circuit died: remove it with its lookup entry and timers, queue a
    /// managed circuit's rebuild and emit [`TorEvent::CircuitClosed`].
    fn circuit_closed(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let Some(c) = self.circuits.remove(&slot) else {
            return;
        };
        self.links.unbind(c.conn, c.circ_id);
        let timeouts = c.streams.values().filter_map(|s| s.timeout);
        for t in c.build_timer.into_iter().chain(timeouts) {
            ctx.cancel_timer(t);
        }
        // A managed circuit dying is not the end: carry its rebuild state
        // into the backoff queue. A replacement that dies before it is ready
        // keeps the origin its owner holds, so the eventual
        // `CircuitRebuilt` names that circuit, not a failed attempt.
        if let Some(mut m) = c.managed {
            m.origin.get_or_insert(slot);
            if m.failed_at.is_none() {
                m.failed_at = Some(ctx.now());
            }
            self.schedule_rebuild(ctx, m);
        }
        self.emit_or_hs(ctx, c.hs_conn, TorEvent::CircuitClosed(CircuitHandle(slot)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every client timer decodes from its tag as itself, at circuit
    /// handles, slots and tokens on both sides of 4 096 (where a stream
    /// timeout's circuit used to spill into the rebuild namespace) and at
    /// `u32::MAX`; no tag outside the client's namespace decodes.
    #[test]
    fn timer_tags_decode_as_what_they_encode() {
        for h in [0, 1, 4_095, 4_096, u32::MAX as usize] {
            for timer in [
                ClientTimer::FetchRetry,
                ClientTimer::BuildTimeout(h),
                ClientTimer::StreamTimeout(h, 0),
                ClientTimer::StreamTimeout(h, u16::MAX),
                ClientTimer::Rebuild(h as u64),
            ] {
                let tag = timer.tag();
                assert_eq!(ClientTimer::from_tag(tag), Some(timer), "{tag:#x}");
                // The functions' namespace starts 2⁵⁶ above the client's.
                assert!((CLIENT_TAG_BASE..CLIENT_TAG_BASE + (1 << 56)).contains(&tag));
            }
        }
        assert_eq!(ClientTimer::from_tag(CLIENT_TAG_BASE), None);
        assert_eq!(ClientTimer::from_tag(CLIENT_TAG_BASE - 1), None);
        assert_eq!(ClientTimer::from_tag(CLIENT_TAG_BASE + 4 * TAG_SPAN), None);
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
