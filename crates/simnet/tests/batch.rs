//! The simulator forms no delivery batch: it serializes one message per
//! chunk, so every message reaches its receiver through `Node::on_msg` at its own
//! arrival, in order — however many were queued at one instant. What is
//! left of [`Node::on_msgs`] is its default, for callers that hand a node a
//! run of messages themselves.

use simnet::{ConnId, Ctx, Iface, Node, NodeId, Simulator};

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

/// Keeps the default `on_msgs`.
#[derive(Default)]
struct PlainSink {
    got: Vec<Vec<u8>>,
}

impl Node for PlainSink {
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, msg: Vec<u8>) {
        self.got.push(msg);
    }
}

/// Sends `n` back-to-back messages at start.
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

#[test]
fn same_tick_arrivals_stay_per_message_in_order() {
    // Ideal interfaces: all five serialize in no time and arrive at the
    // same instant — as five dispatches.
    let mut sim = Simulator::with_seed(1);
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
    let expect: Vec<Vec<Vec<u8>>> = (0..5).map(|i| vec![vec![i; 16]]).collect();
    assert_eq!(sink.deliveries, expect);
}

#[test]
fn default_on_msgs_hands_each_message_to_on_msg_in_order() {
    let mut sim = Simulator::with_seed(1);
    let sink = sim.add_node("sink", Iface::ideal(), Box::new(PlainSink::default()));
    let run: Vec<Vec<u8>> = (0..4).map(|i| vec![i; 8]).collect();
    sim.with_node::<PlainSink, _>(sink, |n, ctx| n.on_msgs(ctx, ConnId(0), run.clone()));
    assert_eq!(sim.node_ref::<PlainSink>(sink).got, run);
}

#[test]
fn single_arrivals_use_on_msg() {
    // Messages larger than a chunk complete on their own chunk boundaries
    // at distinct times: every delivery is a singleton through on_msg.
    let mut sim = Simulator::with_seed(1);
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
