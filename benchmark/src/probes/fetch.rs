//! The probe fetch: `bulk_fetch`'s cell stream on a network whose relays
//! and client are thin wrappers, defined here, around `tor-net`'s public
//! `RelayCore` and `TorClient`. Each wrapper times its calls into the core
//! with the host clock — the layer is measured from outside, on the real
//! stream, at the batch sizes the simulator actually delivers — and the time
//! the simulator spends between those calls is not counted.
//!
//! The path is pinned (one guard, one middle, one exit), so which relay does
//! what is known without reaching into any crate's private state.

use crate::workloads::bulk_fetch::{fast_iface, SIM_SEED};
use crate::workloads::secs;
use simnet::{ConnId, Ctx, Node, NodeId, SimDuration};
use std::time::Instant;
use tor_net::dir::{Consensus, ExitPolicy, RelayFlags, RelayInfo};
use tor_net::netbuild::{NetworkBuilder, TorNetwork};
use tor_net::ports::HTTP_PORT;
use tor_net::relay::{RelayConfig, RelayCore, RelayEvent};
use tor_net::stream_frame::encode_frame;
use tor_net::{StreamTarget, TorClient, TorEvent};

/// A relay host node that times every delivery into its `RelayCore`.
pub struct ProbeRelay {
    relay: RelayCore,
    /// Host nanoseconds spent inside `RelayCore::on_msg`/`on_msgs`.
    pub busy_ns: u64,
}

impl ProbeRelay {
    fn new(cfg: RelayConfig) -> ProbeRelay {
        ProbeRelay {
            relay: RelayCore::new(cfg),
            busy_ns: 0,
        }
    }

    /// A bare relay has no local service: close anything that opens.
    fn refuse_local_streams(&mut self, ctx: &mut Ctx<'_>) {
        for ev in self.relay.drain_events() {
            if let RelayEvent::LocalStreamOpened { stream, .. } = ev {
                self.relay.local_close(ctx, stream);
            }
        }
    }
}

impl Node for ProbeRelay {
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
        let t = Instant::now();
        self.relay.on_msg(ctx, conn, msg);
        self.busy_ns += t.elapsed().as_nanos() as u64;
        self.refuse_local_streams(ctx);
    }
    fn on_msgs(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msgs: Vec<Vec<u8>>) {
        let t = Instant::now();
        self.relay.on_msgs(ctx, conn, msgs);
        self.busy_ns += t.elapsed().as_nanos() as u64;
        self.refuse_local_streams(ctx);
    }
    fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.relay.on_conn_closed(ctx, conn);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.relay.on_timer(ctx, tag);
    }
}

/// A client host node that times every delivery into its `TorClient`.
pub struct ProbeClient {
    tor: TorClient,
    events: Vec<TorEvent>,
    /// Host nanoseconds spent inside `TorClient::handle_msg`.
    pub busy_ns: u64,
}

impl ProbeClient {
    fn pump(&mut self) {
        self.events.extend(self.tor.poll_events());
    }
}

impl Node for ProbeClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.tor.bootstrap(ctx);
    }
    fn on_conn_established(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _peer: NodeId) {
        self.tor.handle_conn_established(ctx, conn);
        self.pump();
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        self.on_msgs(ctx, conn, vec![msg]);
    }
    fn on_msgs(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msgs: Vec<Vec<u8>>) {
        // One clock pair per delivery, not per cell, so the probe's own
        // cost stays far below what it measures.
        let t = Instant::now();
        for msg in msgs {
            self.tor.handle_msg(ctx, conn, msg);
        }
        self.busy_ns += t.elapsed().as_nanos() as u64;
        self.pump();
    }
    fn on_conn_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId) {
        self.tor.handle_conn_closed(ctx, conn);
        self.pump();
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.tor.handle_timer(ctx, tag);
        self.pump();
    }
}

/// What one probe fetch measured.
#[derive(Debug, Clone, Default)]
pub struct ProbeFetch {
    /// Host ns inside the three relays' cores during the transfer.
    pub relay_busy_ns: u64,
    /// Host ns inside the client's core during the transfer.
    pub client_busy_ns: u64,
    /// Host microseconds to build the 3-hop circuit (three ntor handshakes
    /// at both ends plus the simulator carrying them).
    pub circuit_build_us: f64,
    /// The consensus the client bootstrapped with, for the codec probe.
    pub consensus: Consensus,
}

/// Run `content` through guard → middle → exit once and return the in-core
/// times. `batch` selects the relays' batched data plane; off, every cell
/// takes the single-cell path — the data plane at batch size 1.
pub fn probe_fetch(content: &[u8], framed_len: usize, batch: bool) -> ProbeFetch {
    // Only the authority comes from the builder; the three relays on the
    // path are probe nodes registered the way `BentoNetwork` registers its
    // boxes.
    let mut net: TorNetwork = NetworkBuilder::new()
        .seed(SIM_SEED)
        .middles(0)
        .exits(0)
        .relay_iface(fast_iface())
        .batch(batch)
        .build();
    let add = |net: &mut TorNetwork, name: &str, tag: u8, flags: u16, exit: bool| {
        let mut cfg = RelayConfig::middle(name, [tag; 32]);
        cfg.flags = RelayFlags::default().with(flags | RelayFlags::FAST);
        cfg.authority_addr = Some(net.authority);
        cfg.batch = batch;
        if exit {
            cfg.exit_policy = ExitPolicy::web_only();
        }
        let node = ProbeRelay::new(cfg);
        let fp = node.relay.fingerprint();
        let id = net.sim.add_node(name, fast_iface(), Box::new(node));
        net.relays.push((id, fp));
        (id, fp)
    };
    let guard = add(&mut net, "guard", 0x61, RelayFlags::GUARD, false);
    let middle = add(&mut net, "middle", 0x62, RelayFlags::GUARD, false);
    let exit = add(&mut net, "exit", 0x63, RelayFlags::EXIT, true);
    let relays = [guard.0, middle.0, exit.0];
    let server = net.add_web_server("web", vec![("/big".to_string(), vec![content.to_vec()])]);
    let client = net.sim.add_node(
        "alice",
        simnet::Iface::residential(),
        Box::new(ProbeClient {
            tor: TorClient::new(net.authority, net.authority_key),
            events: Vec::new(),
            busy_ns: 0,
        }),
    );
    net.sim.run_until(secs(2));

    let t = Instant::now();
    let circ = net.sim.with_node::<ProbeClient, _>(client, |n, ctx| {
        n.tor
            .build_circuit(ctx, vec![guard.1, middle.1, exit.1])
            .expect("the consensus lists the three probe relays")
    });
    net.sim.run_until(secs(4));
    let circuit_build_us = t.elapsed().as_secs_f64() * 1e6;

    let stream = net.sim.with_node::<ProbeClient, _>(client, |n, ctx| {
        assert!(n.tor.is_ready(circ), "probe circuit ready within 2 s");
        n.tor
            .open_stream(ctx, circ, StreamTarget::Node(server, HTTP_PORT))
            .expect("stream opens")
    });
    net.sim.run_until(secs(5));

    // Only the transfer counts: take the clocks and counters before it.
    let before: Vec<u64> = relays
        .iter()
        .map(|r| net.sim.node_ref::<ProbeRelay>(*r).busy_ns)
        .collect();
    let client_before = net.sim.node_ref::<ProbeClient>(client).busy_ns;
    net.sim.with_node::<ProbeClient, _>(client, |n, ctx| {
        n.tor.send_stream(ctx, circ, stream, &encode_frame(b"/big"));
    });
    let (mut seen, mut got) = (0usize, 0usize);
    while got < framed_len {
        assert!(
            net.sim.now() < secs(600),
            "probe fetch stalled at {got} bytes"
        );
        let now = net.sim.now();
        net.sim.run_until(now + SimDuration::from_millis(1));
        let n = net.sim.node_ref::<ProbeClient>(client);
        got += n.events[seen..]
            .iter()
            .map(|e| match e {
                TorEvent::StreamData(c, s, d) if *c == circ && *s == stream => d.len(),
                _ => 0,
            })
            .sum::<usize>();
        seen = n.events.len();
    }

    let mut out = ProbeFetch {
        circuit_build_us,
        ..ProbeFetch::default()
    };
    for (r, busy0) in relays.iter().zip(before) {
        out.relay_busy_ns += net.sim.node_ref::<ProbeRelay>(*r).busy_ns - busy0;
    }
    let n = net.sim.node_ref::<ProbeClient>(client);
    out.client_busy_ns = n.busy_ns - client_before;
    out.consensus = n.tor.consensus().cloned().unwrap_or_default();
    out
}

/// `tor-net.dir_codec_us`: encode the consensus and every descriptor in it,
/// then decode them all — what one bootstrap pays in the directory codecs.
pub fn dir_codec_us(consensus: &Consensus) -> f64 {
    super::time_ns(|| {
        let body = consensus.encode();
        let back = Consensus::decode(&body).expect("own encoding decodes");
        for relay in &back.relays {
            let desc = relay.encode();
            std::hint::black_box(RelayInfo::decode(&desc).expect("own encoding decodes"));
        }
    }) / 1e3
}
