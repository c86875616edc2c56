//! `bulk_fetch` — steady-state cell forwarding. One client, one 3-hop
//! circuit, one 16 MiB fetch over 5 ms / 50 MB/s relay links on the default
//! (serial) engine: `bench_sim`'s `relay_fetch`, with seeded content that is
//! checked on arrival.
//!
//! Why it exists: per-cell symmetric crypto (`onion-crypto`), the relay data
//! plane with long same-circuit batches (`tor-net`) and saturated transport
//! (`simnet`) do all the work; `conclave`, `sandbox`, `core` and `functions`
//! do none.

use super::{fill_bytes, secs, splitmix, work_of, Prepared, Rep, Slicer};
use crate::trace::Tracer;
use onion_crypto::sha256::{sha256, Sha256};
use simnet::wire::Writer;
use simnet::{Iface, NodeId, SimDuration};
use std::sync::Arc;
use std::time::Instant;
use tor_net::cell::MAX_RELAY_DATA;
use tor_net::client::TerminalReq;
use tor_net::netbuild::{NetworkBuilder, TestClientNode, TorNetwork};
use tor_net::ports::HTTP_PORT;
use tor_net::stream_frame::encode_frame;
use tor_net::{CircuitHandle, StreamTarget, TorEvent};

/// Generously provisioned relay links: the transfer finishes fast in
/// simulated time, so host time is per-cell processing.
pub fn fast_iface() -> Iface {
    Iface::symmetric(SimDuration::from_millis(5), 50_000_000)
}

/// A fetch that has not finished by then has stalled.
const HORIZON_S: u64 = 600;
/// `bench_sim`'s simulation seed. The benchmark seed generates the file; the
/// simulator's seed picks keys and the path, which is configuration of the
/// system under test, and stays fixed.
pub const SIM_SEED: u64 = 7;

/// Generated inputs.
pub struct BulkFetch {
    content: Vec<u8>,
    digest: [u8; 32],
    /// Stream bytes of the response: one frame holding the file.
    framed_len: usize,
}

impl BulkFetch {
    /// 16 MiB plus up to 63 cells of seed-derived length (under 0.2%), so
    /// different seeds are different inputs even in simulated time, filled
    /// with seed-derived bytes.
    pub fn new(seed: u64, smoke: bool) -> BulkFetch {
        let base: usize = if smoke { 1 << 20 } else { 16 << 20 };
        let extra_cells = (splitmix(&mut seed.clone()) % 64) as usize;
        let mut content = vec![0u8; base + extra_cells * MAX_RELAY_DATA];
        fill_bytes(seed, &mut content);
        let digest = sha256(&content);
        let mut header = Writer::new();
        header.varu64(content.len() as u64);
        BulkFetch {
            framed_len: header.into_bytes().len() + content.len(),
            content,
            digest,
        }
    }

    /// The file each rep delivers.
    pub fn content(&self) -> &[u8] {
        &self.content
    }

    /// Stream bytes of the response.
    pub fn framed_len(&self) -> usize {
        self.framed_len
    }

    /// Relay data cells the file occupies: the ladder's per-cell divisor.
    pub fn data_cells(&self) -> u64 {
        self.content.len().div_ceil(MAX_RELAY_DATA) as u64
    }
}

/// A network with the circuit built, the stream open and the request about
/// to be sent: everything the set-up section produces.
struct ReadyFetch {
    /// The network.
    net: TorNetwork,
    /// The fetching client.
    client: NodeId,
    /// Its circuit.
    circ: CircuitHandle,
    /// Its stream to the web server.
    stream: u16,
}

/// Set-up: build the network, bootstrap, build the circuit, open the
/// stream. Each phase gets its own span under `parent`.
fn set_up(
    content: &[u8],
    tracer: &Tracer,
    parent: Option<crate::trace::SpanId>,
    rep: u32,
) -> ReadyFetch {
    let span = tracer.begin("net_build", parent, rep, 0);
    let mut net = NetworkBuilder::new()
        .seed(SIM_SEED)
        .middles(4)
        .exits(2)
        .relay_iface(fast_iface())
        .build();
    let server = net.add_web_server("web", vec![("/big".to_string(), vec![content.to_vec()])]);
    let client = net.add_client("alice");
    tracer.end(span, 0);

    let span = tracer.begin("bootstrap", parent, rep, 0);
    net.sim.run_until(secs(2));
    tracer.end(span, net.sim.now().as_nanos());

    let span = tracer.begin("circuit_build", parent, rep, net.sim.now().as_nanos());
    let circ = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        let path = n
            .tor
            .select_path(ctx, TerminalReq::ExitTo(server, HTTP_PORT))
            .expect("consensus has an exit for the web server");
        n.tor
            .build_circuit(ctx, path)
            .expect("circuit build starts")
    });
    net.sim.run_until(secs(4));
    tracer.end(span, net.sim.now().as_nanos());

    let span = tracer.begin("stream_open", parent, rep, net.sim.now().as_nanos());
    let stream = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        assert!(n.tor.is_ready(circ), "circuit ready within 2 s");
        n.tor
            .open_stream(ctx, circ, StreamTarget::Node(server, HTTP_PORT))
            .expect("stream opens")
    });
    net.sim.run_until(secs(5));
    tracer.end(span, net.sim.now().as_nanos());
    ReadyFetch {
        net,
        client,
        circ,
        stream,
    }
}

/// Simulated milliseconds of transfer per slice: 100 is 3 ms of host time.
const SLICE_MS: u32 = 100;

/// The measured section: send the request, run until the last byte, cutting
/// a slice every `SLICE_MS` simulated milliseconds. Returns simulated
/// seconds from request to last byte (at the 1 ms poll granularity), or
/// `None` if the fetch missed the horizon.
fn transfer(ready: &mut ReadyFetch, want: usize, slicer: &mut Slicer) -> Option<f64> {
    let ReadyFetch {
        net,
        client,
        circ,
        stream,
    } = ready;
    let (circ, stream) = (*circ, *stream);
    net.sim.with_node::<TestClientNode, _>(*client, |n, ctx| {
        assert!(n.has_event(
            |e| matches!(e, TorEvent::StreamConnected(c, s) if *c == circ && *s == stream)
        ));
        n.tor.send_stream(ctx, circ, stream, &encode_frame(b"/big"));
    });
    let t0 = net.sim.now();
    // Only events logged since the last poll are scanned, so polling every
    // simulated millisecond costs nothing measurable and pins the arrival
    // time of the last byte to that millisecond.
    let (mut seen, mut got, mut polls) = (0usize, 0usize, 0u32);
    while got < want {
        if net.sim.now() >= secs(HORIZON_S) {
            return None;
        }
        polls += 1;
        if polls % SLICE_MS == 0 {
            slicer.cut();
        }
        let now = net.sim.now();
        net.sim.run_until(now + SimDuration::from_millis(1));
        got += net.sim.with_node::<TestClientNode, _>(*client, |n, _| {
            let fresh = n.events[seen..]
                .iter()
                .map(|e| match e {
                    TorEvent::StreamData(c, s, d) if *c == circ && *s == stream => d.len(),
                    _ => 0,
                })
                .sum::<usize>();
            seen = n.events.len();
            fresh
        });
    }
    Some(net.sim.now().since(t0).as_secs_f64())
}

impl Prepared for BulkFetch {
    fn rep(&self, rep: u32, tracer: &Arc<Tracer>) -> Rep {
        let root = tracer.begin("rep", None, rep, 0);
        let t = Instant::now();
        let mut ready = set_up(&self.content, tracer, root, rep);
        let setup_s = t.elapsed().as_secs_f64();

        let span = tracer.begin("transfer", root, rep, ready.net.sim.now().as_nanos());
        let mut slicer = Slicer::start();
        let sim_s = transfer(&mut ready, self.framed_len, &mut slicer);
        let slices = slicer.finish();
        tracer.end(span, ready.net.sim.now().as_nanos());

        // Untimed: the stream must hold one frame whose body is the file,
        // byte for byte. Hashed piecewise from the logged events, so checking
        // does not add a second copy of the file to the peak RSS.
        let header = self.framed_len - self.content.len();
        let (circ, stream) = (ready.circ, ready.stream);
        let node = ready.net.sim.node_ref::<TestClientNode>(ready.client);
        let (mut digest, mut skipped, mut hashed) = (Sha256::new(), 0, 0);
        for e in &node.events {
            if let TorEvent::StreamData(c, s, d) = e {
                if *c == circ && *s == stream {
                    let skip = (header - skipped).min(d.len());
                    skipped += skip;
                    digest.update(&d[skip..]);
                    hashed += d.len() - skip;
                }
            }
        }
        let intact = hashed == self.content.len() && digest.finalize() == self.digest;
        let ok = sim_s.is_some() && intact;
        tracer.end(root, ready.net.sim.now().as_nanos());
        Rep {
            setup_s,
            wall_s: slices.iter().sum(),
            slices,
            sim_s: sim_s.unwrap_or(0.0),
            payload_bytes: if ok { self.content.len() as u64 } else { 0 },
            attempted: 1,
            failed: u64::from(!ok),
            work: work_of(ready.net.sim.stats()),
            derived: Vec::new(),
        }
    }
}
