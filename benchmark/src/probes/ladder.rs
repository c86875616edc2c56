//! The layer ladder over `bulk_fetch`'s cell stream: what the same data
//! cells cost in `onion-crypto` alone, in `tor-net`'s cores alone, and in
//! `simnet` alone, so that adjacent differences are each layer's cost and
//! the rungs can be checked against the fetch they are meant to explain.
//! Every rung is nanoseconds per *delivered data cell* (file bytes / 498).

use crate::workloads::bulk_fetch::{fast_iface, SIM_SEED};
use onion_crypto::ntor::CircuitKeys;
use simnet::{ConnId, Ctx, Node, NodeId, Simulator};
use std::time::Instant;
use tor_net::cell::{RelayCell, RelayCmd, CELL_LEN, MAX_RELAY_DATA, PAYLOAD_LEN};
use tor_net::relay_crypto::{CircuitCrypto, LayerCrypto};

/// Cells per run in the crypto rung: the relay batch size `bulk_fetch`
/// delivers (`relay.batch_cells` p50).
const RUN: usize = 28;

fn keys(tag: u8) -> CircuitKeys {
    CircuitKeys {
        kf: [tag; 32],
        kb: [tag ^ 0xFF; 32],
        df: [tag.wrapping_add(1); 32],
        db: [tag.wrapping_add(2); 32],
        nf: [tag; 12],
        nb: [tag ^ 0xFF; 12],
    }
}

/// Rung 1, `onion-crypto` through `tor-net`'s relay-crypto wrappers and
/// nothing else: every symmetric operation a delivered cell pays on its way
/// back from the exit — the exit's seal (digest + keystream), the middle's
/// and guard's layers (keystream), and the client's three-layer unwrap
/// (three keystreams + the recognising digest). Returns ns per cell for the
/// relay side and for the client side.
pub fn crypto_ns_per_cell(content: &[u8]) -> (f64, f64) {
    let mut relays: Vec<LayerCrypto> = [1u8, 2, 3]
        .iter()
        .map(|t| {
            let mut layer = LayerCrypto::relay_side(&keys(*t));
            layer.enable_batch();
            layer
        })
        .collect();
    let mut client = CircuitCrypto::new();
    for t in [1u8, 2, 3] {
        client.push_hop(LayerCrypto::client_side(&keys(t)));
    }
    let mut cells: Vec<[u8; PAYLOAD_LEN]> = Vec::with_capacity(RUN);
    let (mut relay_ns, mut client_ns) = (0u64, 0u64);
    for run in content.chunks(RUN * MAX_RELAY_DATA) {
        // Packaging the payloads is tor-net's work, not crypto: untimed.
        cells.clear();
        cells.extend(
            run.chunks(MAX_RELAY_DATA)
                .map(|chunk| RelayCell::encode_payload_from(RelayCmd::Data, 1, chunk)),
        );
        let t = Instant::now();
        let mut refs: Vec<&mut [u8; PAYLOAD_LEN]> = cells.iter_mut().collect();
        let (exit, inner) = relays.split_last_mut().expect("three relays");
        exit.seal_batch(&mut refs);
        for relay in inner.iter_mut().rev() {
            relay.encrypt_layer_batch(&mut refs);
        }
        relay_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        for cell in refs {
            let hop = client.unwrap_inbound(cell);
            assert_eq!(hop, Some(2), "the exit's cell is recognised at hop 3");
        }
        client_ns += t.elapsed().as_nanos() as u64;
    }
    let cells = content.len().div_ceil(MAX_RELAY_DATA) as f64;
    (relay_ns as f64 / cells, client_ns as f64 / cells)
}

/// The exit's position in the transport rung: receives the file as one
/// message and re-sends it toward the client as cell-sized messages.
struct Chopper {
    next: NodeId,
    conn: Option<ConnId>,
}

impl Node for Chopper {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = Some(ctx.connect(self.next, 9001));
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, msg: Vec<u8>) {
        let out = self.conn.expect("connected at start");
        for chunk in msg.chunks(MAX_RELAY_DATA) {
            let mut cell = ctx.take_buf(CELL_LEN);
            cell.extend_from_slice(chunk);
            cell.resize(CELL_LEN, 0);
            ctx.send(out, cell);
        }
        ctx.recycle_buf(msg);
    }
}

/// A middle or guard position: passes every message on unchanged.
struct Forwarder {
    next: NodeId,
    conn: Option<ConnId>,
}

impl Node for Forwarder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = Some(ctx.connect(self.next, 9001));
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, msg: Vec<u8>) {
        ctx.send(self.conn.expect("connected at start"), msg);
    }
}

/// The client's position: counts and recycles.
struct Sink {
    cells: u64,
}

impl Node for Sink {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, _conn: ConnId, msg: Vec<u8>) {
        self.cells += 1;
        ctx.recycle_buf(msg);
    }
}

/// The web server's position: sends the file as one message.
struct Source {
    next: NodeId,
    file: Option<Vec<u8>>,
}

impl Node for Source {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let conn = ctx.connect(self.next, 80);
        ctx.send(conn, self.file.take().expect("started once"));
    }
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
}

/// Rung 3, `simnet` alone: the same number of 514-byte messages over the
/// same five-node chain and the same interfaces as the fetch, through plain
/// forwarding nodes — no cells parsed, no crypto. Returns ns per cell.
pub fn transport_ns_per_cell(content: &[u8]) -> f64 {
    let mut sim = Simulator::with_seed(SIM_SEED);
    // Nodes are added sink-first so each knows its next hop's id.
    let client = sim.add_node(
        "client",
        simnet::Iface::residential(),
        Box::new(Sink { cells: 0 }),
    );
    let mut next = client;
    for name in ["guard", "middle"] {
        next = sim.add_node(name, fast_iface(), Box::new(Forwarder { next, conn: None }));
    }
    let exit = sim.add_node("exit", fast_iface(), Box::new(Chopper { next, conn: None }));
    sim.add_node(
        "web",
        simnet::Iface::datacenter(),
        Box::new(Source {
            next: exit,
            file: Some(content.to_vec()),
        }),
    );
    let t = Instant::now();
    sim.run_to_quiescence();
    let ns = t.elapsed().as_nanos() as f64;
    let cells = content.len().div_ceil(MAX_RELAY_DATA) as u64;
    assert_eq!(
        sim.node_ref::<Sink>(client).cells,
        cells,
        "every cell crossed the chain"
    );
    ns / cells as f64
}
