//! Delivery batches on the sharded engine: the whole messages one packed
//! chunk carried reach the receiver as a single [`Node::on_msgs`] run, in
//! order, with per-message stats accounting intact — and a message that
//! crosses alone takes the plain `on_msg` path. (The serial engine
//! serializes one message per chunk and never forms a batch.)

use simnet::{ConnId, Ctx, Iface, Node, NodeId, SimConfig, Simulator};

/// Records every delivery exactly as the event loop hands it over.
#[derive(Default)]
struct BatchSink {
    /// One entry per dispatch: the messages it carried.
    deliveries: Vec<Vec<Vec<u8>>>,
}

impl Node for BatchSink {
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, msg: Vec<u8>) {
        self.deliveries.push(vec![msg]);
    }
    fn on_msgs(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, msgs: Vec<Vec<u8>>) {
        self.deliveries.push(msgs);
    }
}

/// Sends `n` back-to-back messages at start; small ones share a chunk and
/// arrive at the same instant.
struct Burst {
    dst: NodeId,
    n: u8,
    msg_len: usize,
}

impl Node for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let conn = ctx.connect(self.dst, 80);
        for i in 0..self.n {
            ctx.send(conn, vec![i; self.msg_len]);
        }
    }
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}
}

fn one_shard() -> Simulator {
    Simulator::new(SimConfig {
        shards: 1,
        ..SimConfig::default()
    })
}

#[test]
fn same_tick_arrivals_coalesce_in_order() {
    let mut sim = one_shard();
    let sink = sim.add_node("sink", Iface::ideal(), Box::new(BatchSink::default()));
    sim.add_node(
        "burst",
        Iface::ideal(),
        Box::new(Burst {
            dst: sink,
            n: 5,
            msg_len: 16,
        }),
    );
    sim.run_to_quiescence();
    assert_eq!(sim.stats().msgs_delivered, 5);
    let sink = sim.node_ref::<BatchSink>(sink);
    assert_eq!(sink.deliveries.len(), 1, "one coalesced dispatch");
    let batch = &sink.deliveries[0];
    assert_eq!(batch.len(), 5);
    for (i, msg) in batch.iter().enumerate() {
        assert_eq!(msg, &vec![i as u8; 16], "delivery order preserved");
    }
}

#[test]
fn single_arrivals_use_on_msg() {
    // Messages larger than the serialization quantum never share a chunk,
    // so each completes on its own chunk boundary at a distinct time:
    // every delivery is a singleton and takes the plain on_msg path of the
    // default impl.
    let mut sim = one_shard();
    let iface = Iface::symmetric(simnet::SimDuration::from_millis(5), 100_000);
    let sink = sim.add_node("sink", iface, Box::new(BatchSink::default()));
    sim.add_node(
        "burst",
        iface,
        Box::new(Burst {
            dst: sink,
            n: 4,
            msg_len: 20_000,
        }),
    );
    sim.run_to_quiescence();
    assert_eq!(sim.stats().msgs_delivered, 4);
    let sink = sim.node_ref::<BatchSink>(sink);
    assert_eq!(sink.deliveries.len(), 4, "spaced arrivals stay per-message");
    assert!(sink.deliveries.iter().all(|d| d.len() == 1));
}
