//! The onion router: cell switching, circuit extension, exit streams,
//! directory service, introduction/rendezvous roles, and local streams for a
//! co-resident service (the Bento server).
//!
//! [`RelayCore`] is a *component*: a host [`simnet::Node`] delegates its
//! callbacks here (see [`RelayNode`] for the standalone wrapper). This is
//! what lets the Bento crate build one host that is simultaneously a Tor
//! relay, a Bento server and an onion proxy, as in Figure 3 of the paper.
//!
//! Every cell a relay handles comes off a link a stranger may hold, so
//! nothing here may panic on it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::cell::{
    Cell, CellCmd, ExtendBody, RelayCell, RelayCmd, StreamTarget, CELL_LEN, MAX_RELAY_DATA,
    PAYLOAD_LEN,
};
use crate::dir::{
    Consensus, DirMsg, ExitPolicy, Fingerprint, OnionAddr, RelayFlags, RelayInfo, SignedConsensus,
};
use crate::link::{CircWindow, LinkTable};
use crate::ports::{DIR_PORT, OR_PORT};
use crate::relay_crypto::LayerCrypto;
use crate::stream_frame::{encode_frame, FrameAssembler};
use onion_crypto::hashsig::MerkleSigner;
use onion_crypto::ntor;
use onion_crypto::sha256::sha256;
use onion_crypto::x25519::StaticSecret;
use simnet::{ConnId, Ctx, Node, NodeId, SimDuration};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

// Data-plane telemetry. The per-cell hot path bumps plain [`RelayStats`]
// fields only; [`RelayCore::flush_telemetry`] (driven once per
// `Simulator::run_until` through `Node::flush_telemetry`) folds the deltas
// into these statics, so forwarding a cell never touches the registry.
static T_CELLS_IN: telemetry::Counter = telemetry::Counter::new("tor.cells_in");
static T_CELLS_OUT: telemetry::Counter = telemetry::Counter::new("tor.cells_out");
static T_CELLS_FWD: telemetry::Counter = telemetry::Counter::new("tor.cells_forwarded");
static T_CRYPTO_BYTES: telemetry::Counter = telemetry::Counter::new("tor.crypto_bytes");
static T_CIRCUITS: telemetry::Counter = telemetry::Counter::new("tor.circuits_built");
static T_EXIT_STREAMS: telemetry::Counter = telemetry::Counter::new("tor.exit_streams_opened");
/// Sizes, in messages, of the coalesced deliveries that arrived on links
/// (full-telemetry runs only; merged at flush like the rest).
static T_BATCH_CELLS: telemetry::Histo = telemetry::Histo::new("relay.batch_cells");

/// Timer-tag namespace reserved by the relay component.
pub const RELAY_TAG_BASE: u64 = 0x0100_0000_0000_0000;
const TAG_BUILD_CONSENSUS: u64 = RELAY_TAG_BASE + 1;

/// Configuration of one relay.
#[derive(Clone)]
pub struct RelayConfig {
    /// Nickname for the consensus.
    pub nickname: String,
    /// Seed for deterministic identity/onion keys.
    pub identity_seed: [u8; 32],
    /// Role flags advertised in the consensus.
    pub flags: RelayFlags,
    /// Advertised bandwidth (bytes/s) for weighted selection.
    pub bandwidth: u64,
    /// Exit policy.
    pub exit_policy: ExitPolicy,
    /// Bento server port, if this relay hosts one.
    pub bento_port: Option<u16>,
    /// Directory authority to publish the descriptor to (None for the
    /// authority itself).
    pub authority_addr: Option<NodeId>,
    /// If this relay *is* the authority: its consensus signer. Shared with
    /// the test harness via `Arc<Mutex>` so `RelayNode` stays `Send`, as
    /// every simulator node must.
    pub authority_signer: Option<std::sync::Arc<std::sync::Mutex<MerkleSigner>>>,
    /// How long after start the authority waits before building the
    /// consensus (letting descriptors arrive).
    pub consensus_delay: SimDuration,
    /// Read by nothing: it used to select between a run-batched and a
    /// per-cell relay data plane, and the per-cell one is now the only one.
    /// Kept only because `benchmark/src/probes/fetch.rs`, which a change to
    /// this crate may not edit, still assigns it; the `benchmark` follow-up
    /// that retires `tor-net.relay_ns_per_cell_b1` (ROADMAP item 7(ii))
    /// removes that assignment and this field together.
    pub batch: bool,
}

impl RelayConfig {
    /// A plain middle relay.
    pub fn middle(nickname: &str, seed: [u8; 32]) -> RelayConfig {
        RelayConfig {
            nickname: nickname.to_string(),
            identity_seed: seed,
            flags: RelayFlags::default().with(RelayFlags::GUARD | RelayFlags::FAST),
            bandwidth: 2_000_000,
            exit_policy: ExitPolicy::reject_all(),
            bento_port: None,
            authority_addr: None,
            authority_signer: None,
            consensus_delay: SimDuration::from_millis(500),
            batch: true,
        }
    }
}

/// A handle to a stream terminated at this relay for a co-resident local
/// service (the Bento server's "localhost" streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocalStream(pub u64);

/// Events a relay surfaces to its host node.
#[derive(Debug)]
pub enum RelayEvent {
    /// A Tor stream addressed to this relay's local service port opened.
    LocalStreamOpened {
        /// Stream handle for subsequent sends.
        stream: LocalStream,
        /// The port the stream targeted.
        port: u16,
    },
    /// Data arrived on a local-service stream.
    LocalStreamData {
        /// Stream handle.
        stream: LocalStream,
        /// Raw stream bytes (cell-sized chunks).
        data: Vec<u8>,
    },
    /// A local-service stream closed.
    LocalStreamClosed {
        /// Stream handle.
        stream: LocalStream,
    },
}

/// Where a stream that ends at this relay goes.
enum Stream {
    /// To an external destination whose connection is still opening; data
    /// cells wait here until it is ready.
    Opening(ConnId, Vec<Vec<u8>>),
    /// To an external destination over a ready connection.
    Exit(ConnId),
    /// To this relay's directory service.
    Dir(FrameAssembler),
    /// To the co-resident local service.
    Local(u64),
}

struct RelayCircuit {
    prev: (ConnId, u32),
    next: Option<(ConnId, u32)>,
    crypto: LayerCrypto,
    /// Waiting for CREATED from the next hop (circ id allocated there).
    pending_extend: bool,
    streams: BTreeMap<u16, Stream>,
    /// Rendezvous splice partner (slot index).
    splice: Option<usize>,
    /// Set if this circuit registered as an introduction circuit.
    intro_service: Option<OnionAddr>,
    /// Set if this circuit registered a rendezvous cookie.
    rendezvous_cookie: Option<[u8; 20]>,
    /// Flow control of the cells this relay sends toward the origin.
    window: CircWindow,
}

impl RelayCircuit {
    fn new(prev: (ConnId, u32), crypto: LayerCrypto) -> RelayCircuit {
        RelayCircuit {
            prev,
            next: None,
            crypto,
            pending_extend: false,
            streams: BTreeMap::new(),
            splice: None,
            intro_service: None,
            rendezvous_cookie: None,
            window: CircWindow::new(),
        }
    }
}

/// Aggregate relay counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct RelayStats {
    /// Cells received on OR connections.
    pub cells_in: u64,
    /// Cells sent on OR connections.
    pub cells_out: u64,
    /// Cells switched through (forwarded between hops or spliced).
    pub cells_forwarded: u64,
    /// Relay-payload bytes run through per-hop layer crypto.
    pub crypto_bytes: u64,
    /// Circuits created through this relay.
    pub circuits: u64,
    /// Exit streams opened.
    pub exit_streams: u64,
}

/// The relay component.
pub struct RelayCore {
    cfg: RelayConfig,
    fingerprint: Fingerprint,
    onion_secret: StaticSecret,
    links: LinkTable,
    dir_conns: BTreeSet<ConnId>,
    circuits: Vec<Option<RelayCircuit>>,
    exit_conns: BTreeMap<ConnId, (usize, u16)>,
    /// Authority state: received descriptors and the signed consensus.
    received_descs: Vec<RelayInfo>,
    signed_consensus: Option<Vec<u8>>,
    /// HSDir storage.
    hs_descs: BTreeMap<OnionAddr, (u64, Vec<u8>)>,
    /// Intro-point registrations: onion addr -> circuit slot.
    intro_points: BTreeMap<OnionAddr, usize>,
    /// Rendezvous registrations: cookie -> circuit slot.
    rendezvous: BTreeMap<[u8; 20], usize>,
    /// Local-service streams: id -> (slot, stream id).
    local_streams: BTreeMap<u64, (usize, u16)>,
    next_local_stream: u64,
    events: VecDeque<RelayEvent>,
    stats: RelayStats,
    /// Stats already folded into the telemetry statics (see `flush_telemetry`).
    flushed: RelayStats,
    /// Sizes of the coalesced link deliveries seen, folded into
    /// [`T_BATCH_CELLS`] at flush time (full-telemetry runs only).
    batch_hist: telemetry::hist::LogHistogram,
}

impl RelayCore {
    /// Build a relay from its configuration. Keys are derived
    /// deterministically from the identity seed.
    pub fn new(cfg: RelayConfig) -> RelayCore {
        let onion_secret = StaticSecret::from_bytes(sha256(&cfg.identity_seed));
        let pk = onion_secret.public_key();
        let digest = sha256(pk.as_bytes());
        let mut fingerprint = [0u8; 20];
        fingerprint.copy_from_slice(&digest[..20]);
        RelayCore {
            cfg,
            fingerprint,
            onion_secret,
            links: LinkTable::default(),
            dir_conns: BTreeSet::new(),
            circuits: Vec::new(),
            exit_conns: BTreeMap::new(),
            received_descs: Vec::new(),
            signed_consensus: None,
            hs_descs: BTreeMap::new(),
            intro_points: BTreeMap::new(),
            rendezvous: BTreeMap::new(),
            local_streams: BTreeMap::new(),
            next_local_stream: 1,
            events: VecDeque::new(),
            stats: RelayStats::default(),
            flushed: RelayStats::default(),
            batch_hist: telemetry::hist::LogHistogram::new(),
        }
    }

    /// This relay's identity fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Drop all volatile state, as a host crash would. Identity keys are
    /// derived from the configured seed, so the reborn relay has the same
    /// fingerprint — it rejoins the network as the *same* relay, the way a
    /// real relay restarts from its keys on disk.
    pub fn reset(&mut self) {
        *self = RelayCore::new(self.cfg.clone());
    }

    /// Counters.
    pub fn stats(&self) -> RelayStats {
        self.stats
    }

    /// Circuits this relay holds now.
    pub fn live_circuits(&self) -> usize {
        self.circuits.iter().flatten().count()
    }

    /// Fold the stats accumulated since the last flush into the process
    /// telemetry. The simulator drives this once per `run_until` (through
    /// `Node::flush_telemetry`), so the per-cell hot path never pays a
    /// registry access.
    pub fn flush_telemetry(&mut self) {
        fn delta(counter: &telemetry::Counter, now: u64, then: u64) {
            if now > then {
                counter.add(now - then);
            }
        }
        let (now, then) = (self.stats, self.flushed);
        delta(&T_CELLS_IN, now.cells_in, then.cells_in);
        delta(&T_CELLS_OUT, now.cells_out, then.cells_out);
        delta(&T_CELLS_FWD, now.cells_forwarded, then.cells_forwarded);
        delta(&T_CRYPTO_BYTES, now.crypto_bytes, then.crypto_bytes);
        delta(&T_CIRCUITS, now.circuits, then.circuits);
        delta(&T_EXIT_STREAMS, now.exit_streams, then.exit_streams);
        self.flushed = now;
        if !self.batch_hist.is_empty() {
            T_BATCH_CELLS.merge_from(&std::mem::take(&mut self.batch_hist));
        }
    }

    /// The descriptor this relay advertises.
    pub fn descriptor(&self, addr: NodeId) -> RelayInfo {
        RelayInfo {
            fingerprint: self.fingerprint,
            nickname: self.cfg.nickname.clone(),
            addr,
            or_port: OR_PORT,
            dir_port: DIR_PORT,
            onion_key: self.onion_secret.public_key(),
            flags: self.cfg.flags,
            bandwidth: self.cfg.bandwidth,
            exit_policy: self.cfg.exit_policy.clone(),
            bento_port: self.cfg.bento_port,
        }
    }

    /// Drain pending host events (local-service streams).
    pub fn drain_events(&mut self) -> Vec<RelayEvent> {
        self.events.drain(..).collect()
    }

    // ------------------------------------------------------------------
    // Host-delegated callbacks. Each returns true when the relay claimed
    // the event.
    // ------------------------------------------------------------------

    /// Delegate of [`Node::on_start`].
    pub fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.authority_signer.is_some() {
            // We are the authority: include our own descriptor and schedule
            // consensus construction.
            let me = ctx.me();
            let desc = self.descriptor(me);
            self.received_descs.push(desc);
            ctx.set_timer(self.cfg.consensus_delay, TAG_BUILD_CONSENSUS);
        } else if let Some(auth) = self.cfg.authority_addr {
            // Publish our descriptor to the authority.
            let conn = ctx.connect(auth, DIR_PORT);
            let me = ctx.me();
            let desc = self.descriptor(me);
            ctx.send(conn, DirMsg::PublishDesc(desc.encode()).encode());
            ctx.close(conn);
        }
    }

    /// Delegate of [`Node::on_conn_open`]. Claims OR- and DIR-port conns.
    pub fn on_conn_open(
        &mut self,
        _ctx: &mut Ctx<'_>,
        conn: ConnId,
        peer: NodeId,
        port: u16,
    ) -> bool {
        match port {
            OR_PORT => {
                self.links.accept(conn, peer);
                true
            }
            DIR_PORT => {
                self.dir_conns.insert(conn);
                true
            }
            _ => false,
        }
    }

    /// Delegate of [`Node::on_conn_established`]. Claims conns this relay
    /// opened (outbound OR links and exit streams).
    pub fn on_conn_established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: NodeId) -> bool {
        if let Some(sent) = self.links.established(ctx, conn) {
            self.stats.cells_out += sent as u64;
            return true;
        }
        if let Some(&(slot, stream_id)) = self.exit_conns.get(&conn) {
            // Outbound exit connection ready: flush buffered data, confirm.
            let Some(stream) = self.circuits[slot]
                .as_mut()
                .and_then(|c| c.streams.get_mut(&stream_id))
            else {
                return true;
            };
            if let Stream::Opening(exit, pending) = stream {
                let (exit, pending) = (*exit, std::mem::take(pending));
                *stream = Stream::Exit(exit);
                for chunk in pending {
                    ctx.send(conn, chunk);
                }
            }
            self.send_to_origin(ctx, slot, RelayCmd::Connected, stream_id, &[]);
            return true;
        }
        false
    }

    /// Delegate of [`Node::on_msg`]. Hands `msg` back when it is not for
    /// the relay.
    pub fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) -> Option<Vec<u8>> {
        if self.links.contains(conn) {
            match Cell::peek_cmd(&msg) {
                Some(CellCmd::Relay) => {
                    // The hot path: switched in place inside `msg`, which is
                    // either forwarded as-is or recycled.
                    self.stats.cells_in += 1;
                    self.handle_relay_wire(ctx, conn, msg);
                }
                Some(_) => {
                    if let Some(cell) = Cell::decode(&msg) {
                        self.stats.cells_in += 1;
                        ctx.recycle_buf(msg);
                        self.handle_cell(ctx, conn, cell);
                    }
                }
                None => {}
            }
            return None;
        }
        if self.dir_conns.contains(&conn) {
            if let Ok(dm) = DirMsg::decode(&msg) {
                ctx.recycle_buf(msg);
                if let Some(resp) = self.handle_dir_msg(dm) {
                    ctx.send(conn, resp.encode());
                }
            }
            return None;
        }
        if let Some(&(slot, stream_id)) = self.exit_conns.get(&conn) {
            // Data from an external destination: package into cells.
            for chunk in msg.chunks(MAX_RELAY_DATA) {
                self.send_to_origin(ctx, slot, RelayCmd::Data, stream_id, chunk);
            }
            ctx.recycle_buf(msg);
            return None;
        }
        Some(msg)
    }

    /// Delegate of [`Node::on_msgs`]: a run of messages for `conn`,
    /// dispatched message by message through [`RelayCore::on_msg`] in
    /// arrival order. On a link the run's size goes into
    /// `relay.batch_cells`. Neither `simnet` engine forms a run any more;
    /// this stays for the callers that do (the repo benchmark's fetch probe
    /// and the hostile-delivery test in `tests/network.rs`).
    pub fn on_msgs(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msgs: Vec<Vec<u8>>) -> bool {
        if self.links.contains(conn) {
            self.batch_hist.record(msgs.len() as u64);
        }
        let mut claimed = false;
        for msg in msgs {
            claimed |= self.on_msg(ctx, conn, msg).is_none();
        }
        claimed
    }

    /// Delegate of [`Node::on_conn_closed`].
    pub fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) -> bool {
        if let Some(slots) = self.links.close(conn) {
            // Tear down the circuits using this link: each circuit's *other*
            // side hears a Destroy and can start recovering; the send toward
            // the dead link itself no-ops.
            for slot in slots {
                self.teardown_circuit(ctx, slot);
            }
            return true;
        }
        if self.dir_conns.remove(&conn) {
            return true;
        }
        if let Some((slot, stream_id)) = self.exit_conns.remove(&conn) {
            self.end_stream(ctx, slot, stream_id);
            return true;
        }
        false
    }

    /// Delegate of [`Node::on_timer`]. Claims tags in the relay namespace.
    pub fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) -> bool {
        if tag == TAG_BUILD_CONSENSUS {
            self.build_consensus();
            return true;
        }
        false
    }

    // ------------------------------------------------------------------
    // Local-service stream API (used by the Bento server host).
    // ------------------------------------------------------------------

    /// Send bytes on a local-service stream (they travel backward to the
    /// stream's anonymous opener).
    pub fn local_send(&mut self, ctx: &mut Ctx<'_>, stream: LocalStream, data: &[u8]) {
        let Some(&(slot, stream_id)) = self.local_streams.get(&stream.0) else {
            return;
        };
        for chunk in data.chunks(MAX_RELAY_DATA) {
            self.send_to_origin(ctx, slot, RelayCmd::Data, stream_id, chunk);
        }
    }

    /// Close a local-service stream.
    pub fn local_close(&mut self, ctx: &mut Ctx<'_>, stream: LocalStream) {
        if let Some((slot, stream_id)) = self.local_streams.remove(&stream.0) {
            self.end_stream(ctx, slot, stream_id);
        }
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    /// A stream ending at this relay closed on this side: forget it and
    /// send END toward the origin, behind any DATA still queued for it.
    fn end_stream(&mut self, ctx: &mut Ctx<'_>, slot: usize, stream_id: u16) {
        let removed = self.circuits[slot]
            .as_mut()
            .and_then(|c| c.streams.remove(&stream_id));
        if removed.is_some() {
            self.send_to_origin(ctx, slot, RelayCmd::End, stream_id, &[]);
        }
    }

    fn send_cell(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, cell: Cell) {
        if self.links.send_cell(ctx, conn, cell) {
            self.stats.cells_out += 1;
        }
    }

    /// Send an already-encoded cell buffer without copying it.
    fn send_wire(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, wire: Vec<u8>) {
        if self.links.send_wire(ctx, conn, wire) {
            self.stats.cells_out += 1;
        }
    }

    fn handle_cell(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, cell: Cell) {
        match cell.cmd {
            CellCmd::Padding => {}
            CellCmd::Create => self.handle_create(ctx, conn, cell),
            CellCmd::Created => self.handle_created(ctx, conn, cell),
            // Relay cells never reach here: on_msg routes them to the
            // in-place wire path (handle_relay_wire).
            CellCmd::Relay => {}
            CellCmd::Destroy => {
                if let Some(slot) = self.links.circ(conn, cell.circ_id) {
                    self.teardown_circuit(ctx, slot);
                }
            }
        }
    }

    fn handle_create(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, cell: Cell) {
        // A CREATE naming a circuit id already in use on this link is
        // dropped, as Tor does: binding it would orphan the circuit that id
        // names, out of reach of the link's close and of any DESTROY.
        if self.links.circ(conn, cell.circ_id).is_some() {
            return;
        }
        let onionskin = &cell.payload[..ntor::ONIONSKIN_LEN];
        let result =
            ntor::server_respond(ctx.rng(), self.fingerprint, &self.onion_secret, onionskin);
        let Ok((reply, keys)) = result else {
            let destroy = Cell::new(cell.circ_id, CellCmd::Destroy);
            self.send_cell(ctx, conn, destroy);
            return;
        };
        let crypto = LayerCrypto::relay_side(&keys);
        let slot = self.alloc_circuit(RelayCircuit::new((conn, cell.circ_id), crypto));
        self.links.bind(conn, cell.circ_id, slot);
        self.stats.circuits += 1;
        let created = Cell::with_payload(cell.circ_id, CellCmd::Created, &reply);
        self.send_cell(ctx, conn, created);
    }

    fn handle_created(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, cell: Cell) {
        // A next-hop circuit we extended finished its handshake: relay the
        // reply backward as EXTENDED.
        let Some(slot) = self.links.circ(conn, cell.circ_id) else {
            return;
        };
        let Some(c) = self.circuits[slot].as_mut().filter(|c| c.pending_extend) else {
            return;
        };
        c.pending_extend = false;
        let reply = &cell.payload[..ntor::REPLY_LEN];
        self.send_to_origin(ctx, slot, RelayCmd::Extended, 0, reply);
    }

    /// Relay-cell switching, performed directly on the encoded buffer the
    /// cell arrived in: this hop's layer is stripped (forward) or added
    /// (backward) in place, the circuit id is rewritten, and the *same*
    /// allocation is re-queued toward the next link — a relayed cell costs
    /// zero heap allocations per hop.
    fn handle_relay_wire(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, mut msg: Vec<u8>) {
        let Some(circ_id) = Cell::peek_circ_id(&msg) else {
            return;
        };
        let Some(slot) = self.links.circ(conn, circ_id) else {
            ctx.recycle_buf(msg);
            return;
        };
        let from_prev = match self.circuits[slot].as_ref() {
            Some(c) => c.prev == (conn, circ_id),
            None => {
                ctx.recycle_buf(msg);
                return;
            }
        };
        if from_prev {
            // Forward direction: strip our layer, maybe recognize.
            let recognized = {
                let Some(c) = self.circuits[slot].as_mut() else {
                    ctx.recycle_buf(msg);
                    return;
                };
                match Cell::wire_payload_mut(&mut msg) {
                    Some(payload) => {
                        self.stats.crypto_bytes += payload.len() as u64;
                        c.crypto.unseal(payload)
                    }
                    None => {
                        ctx.recycle_buf(msg);
                        return;
                    }
                }
            };
            if recognized {
                let rc = Cell::wire_payload(&msg).and_then(RelayCell::parse_payload);
                ctx.recycle_buf(msg);
                if let Some(rc) = rc {
                    self.handle_recognized(ctx, slot, rc);
                }
                return;
            }
            // Not for us: pass along in the buffer it arrived in.
            let next = self.circuits[slot].as_ref().and_then(|c| c.next);
            if let Some((nconn, ncirc)) = next {
                Cell::set_wire_circ_id(&mut msg, ncirc);
                self.stats.cells_forwarded += 1;
                self.send_wire(ctx, nconn, msg);
                return;
            }
            let splice = self.circuits[slot].as_ref().and_then(|c| c.splice);
            if let Some(other) = splice {
                self.stats.cells_forwarded += 1;
                self.send_backward_wire(ctx, other, msg);
                return;
            }
            // Unrecognized cell at the end of an unspliced circuit: a
            // protocol violation or tagging attack, so tear the circuit down.
            ctx.recycle_buf(msg);
            self.teardown_circuit(ctx, slot);
        } else {
            self.stats.cells_forwarded += 1;
            self.send_backward_wire(ctx, slot, msg);
        }
    }

    /// Add this hop's layer to an encoded relay cell in place and pass it
    /// toward the origin of circuit `slot`: the backward direction, and the
    /// far side of a rendezvous splice.
    fn send_backward_wire(&mut self, ctx: &mut Ctx<'_>, slot: usize, mut msg: Vec<u8>) {
        let prev = {
            let Some(c) = self.circuits[slot].as_mut() else {
                ctx.recycle_buf(msg);
                return;
            };
            match Cell::wire_payload_mut(&mut msg) {
                Some(payload) => {
                    self.stats.crypto_bytes += payload.len() as u64;
                    c.crypto.encrypt_layer(payload)
                }
                None => {
                    ctx.recycle_buf(msg);
                    return;
                }
            }
            c.prev
        };
        Cell::set_wire_circ_id(&mut msg, prev.1);
        self.send_wire(ctx, prev.0, msg);
    }

    /// Seal a relay cell as the terminal hop and send it toward the origin
    /// through the circuit window. The data is borrowed, and copied to the
    /// heap only when the cell must wait in the window's queue.
    fn send_to_origin(
        &mut self,
        ctx: &mut Ctx<'_>,
        slot: usize,
        cmd: RelayCmd,
        stream_id: u16,
        data: &[u8],
    ) {
        let Some(c) = self.circuits[slot].as_mut() else {
            return;
        };
        if c.window.admit(cmd, stream_id, data) {
            let payload = RelayCell::encode_payload_from(cmd, stream_id, data);
            self.seal_and_send_to_origin(ctx, slot, payload);
        }
    }

    fn seal_and_send_to_origin(
        &mut self,
        ctx: &mut Ctx<'_>,
        slot: usize,
        mut payload: [u8; PAYLOAD_LEN],
    ) {
        let prev = {
            let Some(c) = self.circuits[slot].as_mut() else {
                return;
            };
            c.crypto.seal(&mut payload);
            self.stats.crypto_bytes += PAYLOAD_LEN as u64;
            c.prev
        };
        // Encode straight into a pooled wire buffer: no intermediate
        // `Cell` value, no second 509-byte payload copy.
        let mut wire = ctx.take_buf(CELL_LEN);
        Cell::encode_parts_into(prev.1, CellCmd::Relay, &payload, &mut wire);
        self.send_wire(ctx, prev.0, wire);
    }

    /// Send what the window lets go of after a SENDME.
    fn flush_to_origin(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        while let Some(rc) = self.circuits[slot]
            .as_mut()
            .and_then(|c| c.window.next_ready())
        {
            self.seal_and_send_to_origin(ctx, slot, rc.encode_payload());
        }
    }

    /// A relay cell addressed to this hop.
    fn handle_recognized(&mut self, ctx: &mut Ctx<'_>, slot: usize, rc: RelayCell) {
        match rc.cmd {
            RelayCmd::Extend => self.handle_extend(ctx, slot, rc),
            RelayCmd::Begin => self.handle_begin(ctx, slot, rc),
            RelayCmd::BeginDir => self.handle_begin_dir(ctx, slot, rc),
            RelayCmd::Data => self.handle_stream_data(ctx, slot, rc),
            RelayCmd::End => self.handle_stream_end(ctx, slot, rc),
            RelayCmd::Sendme => {
                if let Some(c) = self.circuits[slot].as_mut() {
                    c.window.credit();
                }
                self.flush_to_origin(ctx, slot);
            }
            RelayCmd::Drop => {
                // Long-range cover traffic: absorbed silently.
            }
            RelayCmd::EstablishIntro => self.handle_establish_intro(ctx, slot, rc),
            RelayCmd::Introduce1 => self.handle_introduce1(ctx, slot, rc),
            RelayCmd::EstablishRendezvous => self.handle_establish_rendezvous(ctx, slot, rc),
            RelayCmd::Rendezvous1 => self.handle_rendezvous1(ctx, slot, rc),
            // Cells only ever addressed to origins; ignore at a relay.
            RelayCmd::Extended
            | RelayCmd::Connected
            | RelayCmd::IntroEstablished
            | RelayCmd::Introduce2
            | RelayCmd::IntroduceAck
            | RelayCmd::RendezvousEstablished
            | RelayCmd::Rendezvous2 => {}
        }
    }

    fn handle_extend(&mut self, ctx: &mut Ctx<'_>, slot: usize, rc: RelayCell) {
        let Some(body) = ExtendBody::decode(&rc.data) else {
            return;
        };
        // Reuse the link to that relay or open one.
        let (conn, circ_id) = self
            .links
            .new_circ(body.addr, || ctx.connect(body.addr, body.or_port));
        if let Some(c) = self.circuits[slot].as_mut() {
            c.next = Some((conn, circ_id));
            c.pending_extend = true;
        }
        self.links.bind(conn, circ_id, slot);
        let create = Cell::with_payload(circ_id, CellCmd::Create, body.onionskin);
        self.send_cell(ctx, conn, create);
    }

    fn handle_begin(&mut self, ctx: &mut Ctx<'_>, slot: usize, rc: RelayCell) {
        // Only an external host:port is opened here.
        let Some(StreamTarget::Node(addr, port)) = StreamTarget::decode(&rc.data) else {
            self.send_to_origin(ctx, slot, RelayCmd::End, rc.stream_id, &[]);
            return;
        };
        let me = ctx.me();
        // Local service port? Advertising a bento_port *is* the operator's
        // exit-policy opt-in for localhost (§5 of the paper).
        if addr == me && Some(port) == self.cfg.bento_port {
            let id = self.next_local_stream;
            self.next_local_stream += 1;
            self.local_streams.insert(id, (slot, rc.stream_id));
            if let Some(c) = self.circuits[slot].as_mut() {
                c.streams.insert(rc.stream_id, Stream::Local(id));
            }
            self.events.push_back(RelayEvent::LocalStreamOpened {
                stream: LocalStream(id),
                port,
            });
            self.send_to_origin(ctx, slot, RelayCmd::Connected, rc.stream_id, &[]);
            return;
        }
        // Exit policy check (never exit back into ourselves otherwise).
        if addr == me || !self.cfg.exit_policy.allows(addr, port) {
            self.send_to_origin(ctx, slot, RelayCmd::End, rc.stream_id, &[]);
            return;
        }
        let conn = ctx.connect(addr, port);
        self.exit_conns.insert(conn, (slot, rc.stream_id));
        self.stats.exit_streams += 1;
        if let Some(c) = self.circuits[slot].as_mut() {
            c.streams
                .insert(rc.stream_id, Stream::Opening(conn, Vec::new()));
        }
        // CONNECTED is sent from on_conn_established.
    }

    fn handle_begin_dir(&mut self, ctx: &mut Ctx<'_>, slot: usize, rc: RelayCell) {
        if let Some(c) = self.circuits[slot].as_mut() {
            c.streams
                .insert(rc.stream_id, Stream::Dir(FrameAssembler::new()));
        }
        self.send_to_origin(ctx, slot, RelayCmd::Connected, rc.stream_id, &[]);
    }

    fn handle_stream_data(&mut self, ctx: &mut Ctx<'_>, slot: usize, rc: RelayCell) {
        // Count toward the deliver window and credit the sender as needed.
        let Some(c) = self.circuits[slot].as_mut() else {
            return;
        };
        if c.window.delivered() {
            self.send_to_origin(ctx, slot, RelayCmd::Sendme, 0, &[]);
        }
        let Some(c) = self.circuits[slot].as_mut() else {
            return;
        };
        match c.streams.get_mut(&rc.stream_id) {
            Some(Stream::Opening(_, pending)) => pending.push(rc.data),
            Some(Stream::Exit(conn)) => {
                ctx.send(*conn, rc.data);
            }
            Some(Stream::Dir(asm)) => {
                asm.push(&rc.data);
                for frame in asm.drain_frames() {
                    let Ok(dm) = DirMsg::decode(&frame) else {
                        continue;
                    };
                    if let Some(resp) = self.handle_dir_msg(dm) {
                        let framed = encode_frame(&resp.encode());
                        for chunk in framed.chunks(MAX_RELAY_DATA) {
                            self.send_to_origin(ctx, slot, RelayCmd::Data, rc.stream_id, chunk);
                        }
                    }
                }
            }
            Some(Stream::Local(id)) => {
                let stream = LocalStream(*id);
                self.events.push_back(RelayEvent::LocalStreamData {
                    stream,
                    data: rc.data,
                });
            }
            None => {}
        }
    }

    fn handle_stream_end(&mut self, ctx: &mut Ctx<'_>, slot: usize, rc: RelayCell) {
        let removed = self.circuits[slot]
            .as_mut()
            .and_then(|c| c.streams.remove(&rc.stream_id));
        if let Some(stream) = removed {
            self.release_stream(ctx, stream);
        }
    }

    /// Let go of what a stream that is gone held: its exit connection, or
    /// its local-service handle (the host hears it closed).
    fn release_stream(&mut self, ctx: &mut Ctx<'_>, stream: Stream) {
        match stream {
            Stream::Opening(conn, _) | Stream::Exit(conn) => {
                self.exit_conns.remove(&conn);
                ctx.close(conn);
            }
            Stream::Local(id) => {
                self.local_streams.remove(&id);
                self.events.push_back(RelayEvent::LocalStreamClosed {
                    stream: LocalStream(id),
                });
            }
            Stream::Dir(_) => {}
        }
    }

    fn handle_establish_intro(&mut self, ctx: &mut Ctx<'_>, slot: usize, rc: RelayCell) {
        let Ok(addr) = <[u8; 32]>::try_from(rc.data.as_slice()) else {
            return;
        };
        let addr = OnionAddr(addr);
        self.intro_points.insert(addr, slot);
        if let Some(c) = self.circuits[slot].as_mut() {
            c.intro_service = Some(addr);
        }
        self.send_to_origin(ctx, slot, RelayCmd::IntroEstablished, 0, &[]);
    }

    fn handle_introduce1(&mut self, ctx: &mut Ctx<'_>, slot: usize, rc: RelayCell) {
        let Some(&addr) = rc.data.first_chunk::<32>() else {
            return;
        };
        let Some(&service_slot) = self.intro_points.get(&OnionAddr(addr)) else {
            // Unknown service: NACK with a nonempty payload.
            self.send_to_origin(ctx, slot, RelayCmd::IntroduceAck, 0, &[1]);
            return;
        };
        // Forward the whole payload to the service as INTRODUCE2.
        self.send_to_origin(ctx, service_slot, RelayCmd::Introduce2, 0, &rc.data);
        self.send_to_origin(ctx, slot, RelayCmd::IntroduceAck, 0, &[]);
    }

    fn handle_establish_rendezvous(&mut self, ctx: &mut Ctx<'_>, slot: usize, rc: RelayCell) {
        let Ok(cookie) = <[u8; 20]>::try_from(rc.data.as_slice()) else {
            return;
        };
        self.rendezvous.insert(cookie, slot);
        if let Some(c) = self.circuits[slot].as_mut() {
            c.rendezvous_cookie = Some(cookie);
        }
        self.send_to_origin(ctx, slot, RelayCmd::RendezvousEstablished, 0, &[]);
    }

    fn handle_rendezvous1(&mut self, ctx: &mut Ctx<'_>, slot: usize, rc: RelayCell) {
        let Some((cookie, reply)) = rc.data.split_first_chunk::<20>() else {
            return;
        };
        let Some(client_slot) = self.rendezvous.remove(cookie) else {
            return;
        };
        // Splice the two circuits.
        if let Some(c) = self.circuits[client_slot].as_mut() {
            c.splice = Some(slot);
        }
        if let Some(c) = self.circuits[slot].as_mut() {
            c.splice = Some(client_slot);
        }
        // Deliver the handshake reply to the waiting client.
        self.send_to_origin(ctx, client_slot, RelayCmd::Rendezvous2, 0, reply);
    }

    fn handle_dir_msg(&mut self, dm: DirMsg) -> Option<DirMsg> {
        match dm {
            DirMsg::FetchConsensus => Some(DirMsg::ConsensusResp(
                self.signed_consensus.clone().unwrap_or_default(),
            )),
            DirMsg::PublishDesc(bytes) => {
                if self.cfg.authority_signer.is_some() {
                    if let Ok(info) = RelayInfo::decode(&bytes) {
                        self.received_descs
                            .retain(|d| d.fingerprint != info.fingerprint);
                        self.received_descs.push(info);
                    }
                }
                Some(DirMsg::DescAck)
            }
            DirMsg::PublishHsDesc(bytes) => {
                if let Some(desc) = crate::dir::HsDescriptor::decode_verified(&bytes) {
                    let addr = desc.onion_addr();
                    let newer = self
                        .hs_descs
                        .get(&addr)
                        .map(|(rev, _)| desc.revision > *rev)
                        .unwrap_or(true);
                    if newer {
                        self.hs_descs.insert(addr, (desc.revision, bytes));
                    }
                }
                Some(DirMsg::DescAck)
            }
            DirMsg::FetchHsDesc(addr) => Some(DirMsg::HsDescResp(
                self.hs_descs.get(&addr).map(|(_, b)| b.clone()),
            )),
            // Responses arriving at a relay are ignored.
            DirMsg::ConsensusResp(_) | DirMsg::DescAck | DirMsg::HsDescResp(_) => None,
        }
    }

    fn build_consensus(&mut self) {
        let Some(signer) = self.cfg.authority_signer.as_ref() else {
            return;
        };
        let mut relays = self.received_descs.clone();
        relays.sort_by_key(|a| a.fingerprint);
        let body = Consensus { epoch: 1, relays }.encode();
        // A poisoned lock or a signer out of one-time keys is a refusal: the
        // authority keeps answering "not ready" (an empty `ConsensusResp`)
        // and keeps relaying.
        let Some(signature) = signer.lock().ok().and_then(|mut s| s.sign(&body)) else {
            return;
        };
        self.signed_consensus = Some(SignedConsensus { body, signature }.encode());
    }

    fn alloc_circuit(&mut self, circ: RelayCircuit) -> usize {
        for (i, slot) in self.circuits.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(circ);
                return i;
            }
        }
        self.circuits.push(Some(circ));
        self.circuits.len() - 1
    }

    /// Free a circuit and everything it holds, and send DESTROY both ways.
    fn teardown_circuit(&mut self, ctx: &mut Ctx<'_>, slot: usize) {
        let Some(circ) = self.circuits.get_mut(slot).and_then(Option::take) else {
            return;
        };
        self.links.unbind(circ.prev.0, circ.prev.1);
        if let Some(next) = circ.next {
            self.links.unbind(next.0, next.1);
            self.send_cell(ctx, next.0, Cell::new(next.1, CellCmd::Destroy));
        }
        self.send_cell(ctx, circ.prev.0, Cell::new(circ.prev.1, CellCmd::Destroy));
        for stream in circ.streams.into_values() {
            self.release_stream(ctx, stream);
        }
        // A registration another circuit has since taken over stays.
        if let Some(addr) = circ.intro_service {
            if self.intro_points.get(&addr) == Some(&slot) {
                self.intro_points.remove(&addr);
            }
        }
        if let Some(cookie) = circ.rendezvous_cookie {
            if self.rendezvous.get(&cookie) == Some(&slot) {
                self.rendezvous.remove(&cookie);
            }
        }
        if let Some(other) = circ.splice {
            if let Some(Some(o)) = self.circuits.get_mut(other) {
                o.splice = None;
            }
        }
    }
}

/// A standalone relay host node: a [`RelayCore`] and nothing else. Local
/// service streams are refused (no co-resident service).
pub struct RelayNode {
    /// The relay component.
    pub relay: RelayCore,
}

impl RelayNode {
    /// Wrap a relay core.
    pub fn new(cfg: RelayConfig) -> RelayNode {
        RelayNode {
            relay: RelayCore::new(cfg),
        }
    }
}

impl Node for RelayNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.relay.on_start(ctx);
    }
    fn on_conn_open(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: NodeId, port: u16) {
        self.relay.on_conn_open(ctx, conn, peer, port);
    }
    fn on_conn_established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: NodeId) {
        self.relay.on_conn_established(ctx, conn, peer);
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        self.relay.on_msg(ctx, conn, msg);
        // A bare relay has no local service: close anything that opens.
        for ev in self.relay.drain_events() {
            if let RelayEvent::LocalStreamOpened { stream, .. } = ev {
                self.relay.local_close(ctx, stream);
            }
        }
    }
    fn on_msgs(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msgs: Vec<Vec<u8>>) {
        self.relay.on_msgs(ctx, conn, msgs);
        for ev in self.relay.drain_events() {
            if let RelayEvent::LocalStreamOpened { stream, .. } = ev {
                self.relay.local_close(ctx, stream);
            }
        }
    }
    fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.relay.on_conn_closed(ctx, conn);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.relay.on_timer(ctx, tag);
    }
    fn on_crash(&mut self) {
        self.relay.reset();
    }
    // Default on_restart → on_start: the reborn relay re-registers with the
    // authority under its (seed-derived, therefore unchanged) identity.
    fn batches_telemetry(&self) -> bool {
        true
    }
    fn flush_telemetry(&mut self) {
        self.relay.flush_telemetry();
    }
}
