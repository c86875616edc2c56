//! Convenience builders: stand up a whole Tor network (authority, relays,
//! web servers, clients) in a few lines. Used by the integration tests, the
//! examples, and the benchmark harness.

use crate::client::{CircuitHandle, TorClient, TorEvent};
use crate::dir::{ExitPolicy, Fingerprint, RelayFlags};
use crate::hs::{HiddenServiceHost, HsEvent};
use crate::relay::{RelayConfig, RelayNode};
use crate::stream_frame::{encode_frame, FrameAssembler};
use onion_crypto::hashsig::{MerkleSigner, MerkleVerifyKey};
use simnet::{ConnId, Ctx, Iface, Node, NodeId, SimConfig, SimDuration, Simulator};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A built network: the simulator plus everything needed to attach clients.
pub struct TorNetwork {
    /// The simulator (add more nodes before running).
    pub sim: Simulator,
    /// The directory authority's address.
    pub authority: NodeId,
    /// The pinned authority verification key clients need.
    pub authority_key: MerkleVerifyKey,
    /// (address, fingerprint) of every relay, authority first.
    pub relays: Vec<(NodeId, Fingerprint)>,
}

impl TorNetwork {
    /// Run the simulation long enough for descriptors to upload and the
    /// consensus to publish (relative to simulation start).
    pub fn settle(&mut self) {
        self.sim
            .run_until(simnet::SimTime::ZERO + SimDuration::from_millis(800));
    }

    /// Attach a fresh [`TestClientNode`] with a residential interface.
    pub fn add_client(&mut self, name: &str) -> NodeId {
        let client = TestClientNode::new(self.authority, self.authority_key);
        self.sim
            .add_node(name, Iface::residential(), Box::new(client))
    }

    /// Attach a [`WebServerNode`] serving the given pages.
    pub fn add_web_server(&mut self, name: &str, pages: Vec<(String, Vec<Vec<u8>>)>) -> NodeId {
        let server = WebServerNode::new(pages);
        self.sim
            .add_node(name, Iface::datacenter(), Box::new(server))
    }
}

/// Declarative network construction.
pub struct NetworkBuilder {
    seed: u64,
    n_middles: usize,
    n_exits: usize,
    n_hsdirs: usize,
    relay_iface: Iface,
    relay_bandwidth: u64,
    consensus_delay: SimDuration,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        NetworkBuilder {
            seed: 7,
            n_middles: 6,
            n_exits: 3,
            n_hsdirs: 2,
            relay_iface: Iface::tor_relay(),
            relay_bandwidth: 2_000_000,
            consensus_delay: SimDuration::from_millis(500),
        }
    }
}

impl NetworkBuilder {
    /// Start from defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// RNG seed for the whole simulation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of middle/guard relays.
    pub fn middles(mut self, n: usize) -> Self {
        self.n_middles = n;
        self
    }

    /// Number of exit relays (web-only policy).
    pub fn exits(mut self, n: usize) -> Self {
        self.n_exits = n;
        self
    }

    /// Number of HSDir relays.
    pub fn hsdirs(mut self, n: usize) -> Self {
        self.n_hsdirs = n;
        self
    }

    /// Access interface for every relay.
    pub fn relay_iface(mut self, iface: Iface) -> Self {
        self.relay_iface = iface;
        self
    }

    /// Advertised relay bandwidth (affects path weighting only).
    pub fn relay_bandwidth(mut self, bw: u64) -> Self {
        self.relay_bandwidth = bw;
        self
    }

    /// Does nothing and returns the builder unchanged: it used to select
    /// the relays' run-batched or per-cell data plane, and there is only the
    /// per-cell one now. Kept only because `benchmark/src/probes/fetch.rs`,
    /// which a change to this crate may not edit, still calls it; the
    /// `benchmark` follow-up that retires `tor-net.relay_ns_per_cell_b1`
    /// (ROADMAP item 7(ii)) removes that call and this method together.
    pub fn batch(self, _on: bool) -> Self {
        self
    }

    /// Build the simulator, authority, and relays.
    pub fn build(self) -> TorNetwork {
        let mut sim = Simulator::new(SimConfig {
            seed: self.seed,
            ..SimConfig::default()
        });
        let signer = Arc::new(Mutex::new(MerkleSigner::generate(
            [0xA0; 32], 4, // 16 consensus signatures available
        )));
        let authority_key = signer.lock().expect("signer lock").verify_key();

        let mut relays = Vec::new();
        // The authority is itself a guard+hsdir relay.
        let mut auth_cfg = RelayConfig::middle("authority", [0xA1; 32]);
        auth_cfg.flags = RelayFlags::default()
            .with(RelayFlags::AUTHORITY | RelayFlags::GUARD | RelayFlags::FAST | RelayFlags::HSDIR);
        auth_cfg.bandwidth = self.relay_bandwidth;
        auth_cfg.authority_signer = Some(signer);
        auth_cfg.consensus_delay = self.consensus_delay;
        let auth_node = RelayNode::new(auth_cfg);
        let auth_fp = auth_node.relay.fingerprint();
        let authority = sim.add_node("authority", self.relay_iface, Box::new(auth_node));
        relays.push((authority, auth_fp));

        let add_relay = |sim: &mut Simulator,
                         name: String,
                         seed_byte: u8,
                         flags: RelayFlags,
                         policy: ExitPolicy| {
            let mut cfg = RelayConfig::middle(&name, [seed_byte; 32]);
            cfg.flags = flags;
            cfg.exit_policy = policy;
            cfg.bandwidth = self.relay_bandwidth;
            cfg.authority_addr = Some(authority);
            let node = RelayNode::new(cfg);
            let fp = node.relay.fingerprint();
            let addr = sim.add_node(&name, self.relay_iface, Box::new(node));
            (addr, fp)
        };

        let mut seed_byte = 1u8;
        for i in 0..self.n_middles {
            let flags = RelayFlags::default().with(RelayFlags::GUARD | RelayFlags::FAST);
            relays.push(add_relay(
                &mut sim,
                format!("middle{i}"),
                seed_byte,
                flags,
                ExitPolicy::reject_all(),
            ));
            seed_byte += 1;
        }
        for i in 0..self.n_exits {
            let flags = RelayFlags::default().with(RelayFlags::EXIT | RelayFlags::FAST);
            relays.push(add_relay(
                &mut sim,
                format!("exit{i}"),
                seed_byte,
                flags,
                ExitPolicy::web_only(),
            ));
            seed_byte += 1;
        }
        for i in 0..self.n_hsdirs {
            let flags = RelayFlags::default().with(RelayFlags::HSDIR | RelayFlags::FAST);
            relays.push(add_relay(
                &mut sim,
                format!("hsdir{i}"),
                seed_byte,
                flags,
                ExitPolicy::reject_all(),
            ));
            seed_byte += 1;
        }

        TorNetwork {
            sim,
            authority,
            authority_key,
            relays,
        }
    }
}

/// A scriptable client host node for tests, examples and benches: wraps a
/// [`TorClient`] (and optionally a [`HiddenServiceHost`]), accumulates
/// events, and can auto-accept/echo incoming hidden-service streams.
pub struct TestClientNode {
    /// The onion proxy.
    pub tor: TorClient,
    /// Optional hidden-service host driven by `tor`.
    pub hs: Option<HiddenServiceHost>,
    /// Events not consumed by the service machinery, in arrival order.
    pub events: Vec<TorEvent>,
    /// Service events.
    pub hs_events: Vec<HsEvent>,
    /// Accept incoming streams automatically.
    pub auto_accept: bool,
    /// Echo data received on incoming streams back to the sender.
    pub echo: bool,
    /// Serve `serve_bytes` in response to any data on an incoming stream
    /// (checked before `echo`); used as a trivial hidden-service "file".
    pub serve_bytes: Option<usize>,
    /// Bootstrap automatically at simulation start.
    pub auto_bootstrap: bool,
    /// Start the hidden service as soon as the consensus arrives.
    pub auto_start_hs: bool,
}

impl TestClientNode {
    /// A plain client.
    pub fn new(authority: NodeId, authority_key: MerkleVerifyKey) -> TestClientNode {
        TestClientNode {
            tor: TorClient::new(authority, authority_key),
            hs: None,
            events: Vec::new(),
            hs_events: Vec::new(),
            auto_accept: true,
            echo: false,
            serve_bytes: None,
            auto_bootstrap: true,
            auto_start_hs: false,
        }
    }

    /// Attach a hidden service to this node.
    pub fn with_hs(mut self, hs: HiddenServiceHost) -> Self {
        self.hs = Some(hs);
        self.auto_start_hs = true;
        self
    }

    /// Route all pending tor events through the service machinery and into
    /// the event log, applying auto-accept/echo behavior.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let evs = self.tor.poll_events();
        for ev in evs {
            // Auto-start the hidden service on consensus.
            if matches!(ev, TorEvent::ConsensusReady) {
                if self.auto_start_hs {
                    if let Some(hs) = self.hs.as_mut() {
                        hs.start(ctx, &mut self.tor);
                    }
                }
                self.events.push(ev);
                continue;
            }
            let remaining = match self.hs.as_mut() {
                Some(hs) => hs.handle_event(ctx, &mut self.tor, ev),
                None => Some(ev),
            };
            let Some(ev) = remaining else { continue };
            match &ev {
                TorEvent::IncomingStream(circ, stream, _port) if self.auto_accept => {
                    self.tor.respond_incoming(ctx, *circ, *stream, true);
                }
                TorEvent::StreamData(circ, stream, data) => {
                    if let Some(n) = self.serve_bytes {
                        let _ = data;
                        let payload = vec![0xAB; n];
                        self.tor.send_stream(ctx, *circ, *stream, &payload);
                    } else if self.echo {
                        let d = data.clone();
                        self.tor.send_stream(ctx, *circ, *stream, &d);
                    }
                }
                _ => {}
            }
            self.events.push(ev);
        }
        if let Some(hs) = self.hs.as_mut() {
            self.hs_events.extend(hs.drain_events());
        }
        // Event handling may have produced more events (e.g. service start
        // building circuits completes instantly on loopback); drain once
        // more if needed.
        let more = self.tor.poll_events();
        for ev in more {
            let remaining = match self.hs.as_mut() {
                Some(hs) => hs.handle_event(ctx, &mut self.tor, ev),
                None => Some(ev),
            };
            if let Some(ev) = remaining {
                self.events.push(ev);
            }
        }
    }

    /// Take all accumulated (non-service) events.
    pub fn take_events(&mut self) -> Vec<TorEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether any event satisfies the predicate.
    pub fn has_event(&self, pred: impl Fn(&TorEvent) -> bool) -> bool {
        self.events.iter().any(pred)
    }

    /// Concatenated data received on (circ, stream).
    pub fn stream_bytes(&self, circ: CircuitHandle, stream: u16) -> Vec<u8> {
        let mut out = Vec::new();
        for e in &self.events {
            if let TorEvent::StreamData(c, s, d) = e {
                if *c == circ && *s == stream {
                    out.extend_from_slice(d);
                }
            }
        }
        out
    }

    /// Total bytes received on (circ, stream), without concatenating them.
    ///
    /// Progress polls (benches, long-transfer tests) want only the count;
    /// [`Self::stream_bytes`] rebuilds the whole buffer each call, which is
    /// quadratic when polled during a multi-MB fetch.
    pub fn stream_len(&self, circ: CircuitHandle, stream: u16) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                TorEvent::StreamData(c, s, d) if *c == circ && *s == stream => d.len(),
                _ => 0,
            })
            .sum()
    }

    /// Whether (circ, stream) has ended.
    pub fn stream_ended(&self, circ: CircuitHandle, stream: u16) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, TorEvent::StreamEnded(c, s) if *c == circ && *s == stream))
    }
}

impl Node for TestClientNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.auto_bootstrap {
            self.tor.bootstrap(ctx);
        }
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
    fn on_crash(&mut self) {
        // Volatile Tor state dies with the host; configuration (authority,
        // trust key, the recovery switch) persists like files on disk.
        self.tor.reset();
        self.events.clear();
        self.hs_events.clear();
    }
    // Default on_restart → on_start re-bootstraps when auto_bootstrap is on.
}

/// A simple framed web server: maps a requested path to one or more
/// response parts, each sent as its own frame (modeling HTML + assets).
pub struct WebServerNode {
    pages: BTreeMap<String, Vec<Vec<u8>>>,
    assemblers: BTreeMap<ConnId, FrameAssembler>,
    /// Total requests served.
    pub requests: u64,
}

impl WebServerNode {
    /// Serve the given (path, parts) pages.
    pub fn new(pages: Vec<(String, Vec<Vec<u8>>)>) -> WebServerNode {
        WebServerNode {
            pages: pages.into_iter().collect(),
            assemblers: BTreeMap::new(),
            requests: 0,
        }
    }
}

impl Node for WebServerNode {
    fn on_conn_open(&mut self, _ctx: &mut Ctx<'_>, conn: ConnId, _peer: NodeId, _port: u16) {
        self.assemblers.insert(conn, FrameAssembler::new());
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        let Some(asm) = self.assemblers.get_mut(&conn) else {
            return;
        };
        asm.push(&msg);
        let frames = asm.drain_frames();
        for frame in frames {
            let raw = String::from_utf8_lossy(&frame).to_string();
            self.requests += 1;
            // Range syntax: "path#start-end" serves bytes [start, end) of
            // the page's first part (used by the multipath function).
            let (path, range) = match raw.split_once('#') {
                Some((p, r)) => {
                    let range = r.split_once('-').and_then(|(a, b)| {
                        Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?))
                    });
                    (p.to_string(), range)
                }
                None => (raw, None),
            };
            match (self.pages.get(&path), range) {
                (Some(parts), None) => {
                    for part in parts {
                        ctx.send(conn, encode_frame(part));
                    }
                }
                (Some(parts), Some((start, end))) => {
                    let body = &parts[0];
                    let start = start.min(body.len());
                    let end = end.clamp(start, body.len());
                    ctx.send(conn, encode_frame(&body[start..end]));
                }
                (None, _) => {
                    ctx.send(conn, encode_frame(b"404"));
                }
            }
        }
    }
    fn on_conn_closed(&mut self, _ctx: &mut Ctx<'_>, conn: ConnId) {
        self.assemblers.remove(&conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimDuration, SimTime, Simulator};

    /// Drive a WebServerNode directly over simnet and collect replies.
    struct Probe {
        server: NodeId,
        to_send: Vec<Vec<u8>>,
        asm: FrameAssembler,
        replies: Vec<Vec<u8>>,
    }
    impl simnet::Node for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let c = ctx.connect(self.server, 80);
            for f in self.to_send.drain(..) {
                ctx.send(c, encode_frame(&f));
            }
        }
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, msg: Vec<u8>) {
            self.asm.push(&msg);
            self.replies.extend(self.asm.drain_frames());
        }
    }

    #[test]
    fn web_server_serves_pages_ranges_and_404() {
        let mut sim = Simulator::with_seed(1);
        let body: Vec<u8> = (0..1000u16).map(|i| (i % 256) as u8).collect();
        let server = sim.add_node(
            "web",
            simnet::Iface::ideal(),
            Box::new(WebServerNode::new(vec![(
                "/page".to_string(),
                vec![body.clone()],
            )])),
        );
        let probe = sim.add_node(
            "probe",
            simnet::Iface::ideal(),
            Box::new(Probe {
                server,
                to_send: vec![
                    b"/page".to_vec(),
                    b"/page#100-300".to_vec(),
                    b"/page#900-5000".to_vec(), // end clamped
                    b"/page#40-40".to_vec(),    // empty range
                    b"/missing".to_vec(),
                    b"/page#x-y".to_vec(), // malformed range -> 404-ish
                ],
                asm: FrameAssembler::new(),
                replies: Vec::new(),
            }),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));
        let p: &Probe = sim.node_ref(probe);
        assert_eq!(p.replies.len(), 6);
        assert_eq!(p.replies[0], body);
        assert_eq!(p.replies[1], body[100..300].to_vec());
        assert_eq!(p.replies[2], body[900..].to_vec());
        assert_eq!(p.replies[3], Vec::<u8>::new());
        assert_eq!(p.replies[4], b"404");
        // Malformed range falls back to the whole page (range = None).
        assert_eq!(p.replies[5], body);
    }
}
