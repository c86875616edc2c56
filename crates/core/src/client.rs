//! The Bento client: discover boxes, fetch policies, attest, upload,
//! invoke, compose, shut down — all over ordinary Tor circuits.

// Every frame a box sends arrives off the wire: no panics here.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::policy::MiddleboxPolicy;
use crate::protocol::{BentoMsg, FunctionSpec, ImageKind};
use crate::tokens::Token;
use conclave::channel::{AttestedChannel, ClientHello};
use onion_crypto::hashsig::MerkleVerifyKey;
use simnet::{ConnId, Ctx, Node, NodeId};
use std::collections::{BTreeMap, VecDeque};
use tor_net::client::{CircuitHandle, TerminalReq, TorClient, TorEvent};
use tor_net::dir::{RelayFlags, RelayInfo};
use tor_net::stream_frame::{encode_frame, FrameAssembler};
use tor_net::StreamTarget;

/// Handle to one client↔box session (a Tor stream to the box's Bento port).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoxConn(pub usize);

/// Events the Bento client surfaces.
#[derive(Debug)]
pub enum BentoEvent {
    /// The stream to the box is connected; requests may be sent.
    Connected(BoxConn),
    /// The box's middlebox node policy.
    Policy(BoxConn, MiddleboxPolicy),
    /// A container is ready (attestation, if any, verified).
    ContainerReady {
        /// Session.
        conn: BoxConn,
        /// Container id for the upload.
        container: u64,
        /// Invocation capability.
        invocation: Token,
        /// Shutdown capability.
        shutdown: Token,
    },
    /// Attestation of the box's conclave failed; do not upload.
    AttestationFailed(BoxConn, String),
    /// The function was installed.
    UploadOk(BoxConn, u64),
    /// The box refused a request.
    Rejected(BoxConn, String),
    /// Function output.
    Output(BoxConn, Vec<u8>),
    /// The function finished this invocation's output.
    OutputEnd(BoxConn),
    /// The container was shut down.
    ShutdownAck(BoxConn),
    /// The session closed.
    Closed(BoxConn),
}

/// A session's stream to the box's Bento port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoxStream {
    /// No stream: the circuit is still building, or the session closed.
    Unopened,
    /// Opened, not yet connected: frames queue.
    Opening(u16),
    /// Connected: frames go out at once.
    Connected(u16),
}

impl BoxStream {
    fn id(self) -> Option<u16> {
        match self {
            BoxStream::Unopened => None,
            BoxStream::Opening(id) | BoxStream::Connected(id) => Some(id),
        }
    }
}

struct Session {
    circ: CircuitHandle,
    stream: BoxStream,
    relay_addr: NodeId,
    bento_port: u16,
    assembler: FrameAssembler,
    /// Queued frames awaiting stream establishment.
    queued: Vec<Vec<u8>>,
    pending_hello: Option<ClientHello>,
    channel: Option<AttestedChannel>,
}

/// The Bento client component (drives a [`TorClient`]).
pub struct BentoClient {
    /// Open sessions by [`BoxConn`] number. A session leaves when it
    /// closes; numbers count up from 0 and are never reused.
    sessions: BTreeMap<usize, Session>,
    next_session: usize,
    events: VecDeque<BentoEvent>,
    ias_key: MerkleVerifyKey,
    expected_measurement: [u8; 32],
}

impl BentoClient {
    /// A client that pins the attestation service key and the expected
    /// conclave image measurement (the "Bento execution environment,
    /// including Python" — §5.4).
    pub fn new(ias_key: MerkleVerifyKey, expected_measurement: [u8; 32]) -> BentoClient {
        BentoClient {
            sessions: BTreeMap::new(),
            next_session: 0,
            events: VecDeque::new(),
            ias_key,
            expected_measurement,
        }
    }

    /// Drain pending events.
    pub fn poll_events(&mut self) -> Vec<BentoEvent> {
        self.events.drain(..).collect()
    }

    /// Sessions open now: a closed one is gone at once, so this is what a
    /// leak check counts.
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Bento boxes advertised in the consensus.
    pub fn discover_boxes(tor: &TorClient) -> Vec<&RelayInfo> {
        tor.consensus()
            .map(|c| {
                c.with_flags(RelayFlags::BENTO)
                    .into_iter()
                    .filter(|r| r.bento_port.is_some())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Open a session to a Bento box: a circuit terminating at the box's
    /// relay, then a stream to its Bento port via the relay's "localhost"
    /// exit.
    pub fn connect_box(
        &mut self,
        ctx: &mut Ctx<'_>,
        tor: &mut TorClient,
        relay: &RelayInfo,
    ) -> Option<BoxConn> {
        let bento_port = relay.bento_port?;
        let path = tor.select_path(ctx, TerminalReq::Specific(relay.fingerprint))?;
        let circ = tor.build_circuit(ctx, path)?;
        let id = self.next_session;
        self.next_session += 1;
        self.sessions.insert(
            id,
            Session {
                circ,
                stream: BoxStream::Unopened,
                relay_addr: relay.addr,
                bento_port,
                assembler: FrameAssembler::new(),
                queued: Vec::new(),
                pending_hello: None,
                channel: None,
            },
        );
        Some(BoxConn(id))
    }

    fn send_msg(&mut self, ctx: &mut Ctx<'_>, tor: &mut TorClient, conn: BoxConn, msg: &BentoMsg) {
        let Some(s) = self.sessions.get_mut(&conn.0) else {
            return;
        };
        let frame = encode_frame(&msg.encode());
        match s.stream {
            BoxStream::Connected(stream) => tor.send_stream(ctx, s.circ, stream, &frame),
            _ => s.queued.push(frame),
        }
    }

    /// Request the box's middlebox node policy.
    pub fn get_policy(&mut self, ctx: &mut Ctx<'_>, tor: &mut TorClient, conn: BoxConn) {
        self.send_msg(ctx, tor, conn, &BentoMsg::GetPolicy);
    }

    /// Request a container. For [`ImageKind::Sgx`] the attested-channel
    /// handshake is performed automatically.
    pub fn request_container(
        &mut self,
        ctx: &mut Ctx<'_>,
        tor: &mut TorClient,
        conn: BoxConn,
        image: ImageKind,
    ) {
        let client_hello = match image {
            ImageKind::Plain => None,
            ImageKind::Sgx => {
                let (state, hello) = AttestedChannel::client_hello(ctx.rng());
                if let Some(s) = self.sessions.get_mut(&conn.0) {
                    s.pending_hello = Some(state);
                }
                Some(hello)
            }
        };
        self.send_msg(
            ctx,
            tor,
            conn,
            &BentoMsg::RequestContainer {
                image,
                client_hello,
            },
        );
    }

    /// Upload a function spec; sealed under the attested channel when the
    /// container is a conclave.
    pub fn upload(
        &mut self,
        ctx: &mut Ctx<'_>,
        tor: &mut TorClient,
        conn: BoxConn,
        container: u64,
        spec: &FunctionSpec,
    ) {
        let plain = spec.encode();
        let (payload, sealed) = match self
            .sessions
            .get_mut(&conn.0)
            .and_then(|s| s.channel.as_mut())
        {
            Some(ch) => (ch.seal_msg(&plain), true),
            None => (plain, false),
        };
        self.send_msg(
            ctx,
            tor,
            conn,
            &BentoMsg::UploadFunction {
                container_id: container,
                payload,
                sealed,
            },
        );
    }

    /// Invoke a function by its invocation token.
    pub fn invoke(
        &mut self,
        ctx: &mut Ctx<'_>,
        tor: &mut TorClient,
        conn: BoxConn,
        token: Token,
        input: Vec<u8>,
    ) {
        self.send_msg(
            ctx,
            tor,
            conn,
            &BentoMsg::Invoke {
                token: token.0,
                input,
            },
        );
    }

    /// Close a session: end the stream and tear down its circuit. The
    /// container (if any) keeps running — only the transport goes away;
    /// tokens remain valid for future sessions.
    pub fn close_box(&mut self, ctx: &mut Ctx<'_>, tor: &mut TorClient, conn: BoxConn) {
        let Some(s) = self.sessions.remove(&conn.0) else {
            return;
        };
        if let Some(stream) = s.stream.id() {
            tor.close_stream(ctx, s.circ, stream);
        }
        tor.destroy_circuit(ctx, s.circ);
    }

    /// Shut a container down by its shutdown token.
    pub fn shutdown(
        &mut self,
        ctx: &mut Ctx<'_>,
        tor: &mut TorClient,
        conn: BoxConn,
        token: Token,
    ) {
        self.send_msg(ctx, tor, conn, &BentoMsg::Shutdown { token: token.0 });
    }

    /// Feed a Tor event through the Bento client. Returns the event back if
    /// it did not belong to a Bento session.
    pub fn handle_tor_event(
        &mut self,
        ctx: &mut Ctx<'_>,
        tor: &mut TorClient,
        ev: TorEvent,
    ) -> Option<TorEvent> {
        // A session has its circuit to itself, and one stream on it.
        let (h, sid) = match &ev {
            TorEvent::CircuitReady(h) | TorEvent::CircuitClosed(h) => (*h, None),
            TorEvent::StreamConnected(h, sid)
            | TorEvent::StreamData(h, sid, _)
            | TorEvent::StreamEnded(h, sid) => (*h, Some(*sid)),
            _ => return Some(ev),
        };
        let session = self
            .sessions
            .iter_mut()
            .find(|(_, s)| s.circ == h && sid.is_none_or(|sid| s.stream.id() == Some(sid)));
        let Some((&id, s)) = session else {
            return Some(ev);
        };
        let conn = BoxConn(id);
        match ev {
            TorEvent::CircuitReady(_) => {
                let target = StreamTarget::Node(s.relay_addr, s.bento_port);
                s.stream = tor
                    .open_stream(ctx, h, target)
                    .map_or(BoxStream::Unopened, BoxStream::Opening);
            }
            TorEvent::StreamConnected(_, sid) => {
                s.stream = BoxStream::Connected(sid);
                for frame in std::mem::take(&mut s.queued) {
                    tor.send_stream(ctx, h, sid, &frame);
                }
                self.events.push_back(BentoEvent::Connected(conn));
            }
            TorEvent::StreamData(_, _, data) => {
                s.assembler.push(&data);
                for frame in s.assembler.drain_frames() {
                    if let Ok(msg) = BentoMsg::decode(&frame) {
                        self.handle_box_msg(conn, msg);
                    }
                }
            }
            // The stream or the circuit ended, and with it the session: the
            // circuit it alone used goes too.
            _ => {
                self.close_box(ctx, tor, conn);
                self.events.push_back(BentoEvent::Closed(conn));
            }
        }
        None
    }

    fn handle_box_msg(&mut self, conn: BoxConn, msg: BentoMsg) {
        match msg {
            BentoMsg::Policy(bytes) => {
                if let Ok(p) = MiddleboxPolicy::decode(&bytes) {
                    self.events.push_back(BentoEvent::Policy(conn, p));
                }
            }
            BentoMsg::ContainerReady {
                container_id,
                invocation_token,
                shutdown_token,
                server_hello,
            } => {
                // Verify attestation when the container is a conclave.
                if let Some(hello) = server_hello {
                    let state = self
                        .sessions
                        .get_mut(&conn.0)
                        .and_then(|s| s.pending_hello.take());
                    let Some(state) = state else {
                        self.events.push_back(BentoEvent::AttestationFailed(
                            conn,
                            "unexpected attestation reply".into(),
                        ));
                        return;
                    };
                    match AttestedChannel::client_finish(
                        &state,
                        &hello,
                        &self.ias_key,
                        &self.expected_measurement,
                    ) {
                        Ok(channel) => {
                            if let Some(s) = self.sessions.get_mut(&conn.0) {
                                s.channel = Some(channel);
                            }
                        }
                        Err(e) => {
                            self.events
                                .push_back(BentoEvent::AttestationFailed(conn, e.to_string()));
                            return;
                        }
                    }
                }
                self.events.push_back(BentoEvent::ContainerReady {
                    conn,
                    container: container_id,
                    invocation: Token(invocation_token),
                    shutdown: Token(shutdown_token),
                });
            }
            BentoMsg::UploadOk { container_id } => {
                self.events
                    .push_back(BentoEvent::UploadOk(conn, container_id));
            }
            BentoMsg::Rejected { reason } => {
                self.events.push_back(BentoEvent::Rejected(conn, reason));
            }
            BentoMsg::Output { data } => {
                self.events.push_back(BentoEvent::Output(conn, data));
            }
            BentoMsg::OutputEnd => {
                self.events.push_back(BentoEvent::OutputEnd(conn));
            }
            BentoMsg::ShutdownAck => {
                self.events.push_back(BentoEvent::ShutdownAck(conn));
            }
            // Server-bound messages arriving at the client: ignore.
            _ => {}
        }
    }
}

/// A scriptable user node: onion proxy + Bento client + event logs. Used by
/// tests, examples and benches.
pub struct BentoClientNode {
    /// The onion proxy.
    pub tor: TorClient,
    /// The Bento client.
    pub bento: BentoClient,
    /// Un-consumed Tor events.
    pub tor_events: Vec<TorEvent>,
    /// Bento events, in order.
    pub bento_events: Vec<BentoEvent>,
}

impl BentoClientNode {
    /// Assemble a client node.
    pub fn new(tor: TorClient, bento: BentoClient) -> BentoClientNode {
        BentoClientNode {
            tor,
            bento,
            tor_events: Vec::new(),
            bento_events: Vec::new(),
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        for ev in self.tor.poll_events() {
            if let Some(ev) = self.bento.handle_tor_event(ctx, &mut self.tor, ev) {
                self.tor_events.push(ev);
            }
        }
        self.bento_events.extend(self.bento.poll_events());
    }

    /// All output bytes received on a session, concatenated in order.
    pub fn output_bytes(&self, conn: BoxConn) -> Vec<u8> {
        let mut out = Vec::new();
        for e in &self.bento_events {
            if let BentoEvent::Output(c, d) = e {
                if *c == conn {
                    out.extend_from_slice(d);
                }
            }
        }
        out
    }

    /// Whether an OutputEnd was seen for this session.
    pub fn output_done(&self, conn: BoxConn) -> bool {
        self.bento_events
            .iter()
            .any(|e| matches!(e, BentoEvent::OutputEnd(c) if *c == conn))
    }

    /// First ContainerReady event for this session.
    pub fn container_ready(&self, conn: BoxConn) -> Option<(u64, Token, Token)> {
        self.bento_events.iter().find_map(|e| match e {
            BentoEvent::ContainerReady {
                conn: c,
                container,
                invocation,
                shutdown,
            } if *c == conn => Some((*container, *invocation, *shutdown)),
            _ => None,
        })
    }

    /// Whether the upload completed for this session.
    pub fn upload_ok(&self, conn: BoxConn) -> bool {
        self.bento_events
            .iter()
            .any(|e| matches!(e, BentoEvent::UploadOk(c, _) if *c == conn))
    }

    /// First rejection reason for this session.
    pub fn rejection(&self, conn: BoxConn) -> Option<&str> {
        self.bento_events.iter().find_map(|e| match e {
            BentoEvent::Rejected(c, r) if *c == conn => Some(r.as_str()),
            _ => None,
        })
    }
}

impl Node for BentoClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.tor.bootstrap(ctx);
    }
    fn on_conn_established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: NodeId) {
        self.tor.handle_conn_established(ctx, conn);
        self.pump(ctx);
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        self.tor.handle_msg(ctx, conn, msg);
        self.pump(ctx);
    }
    fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.tor.handle_conn_closed(ctx, conn);
        self.pump(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.tor.handle_timer(ctx, tag);
        self.pump(ctx);
    }
}
