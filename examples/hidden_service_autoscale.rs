//! §8: the hidden-service LoadBalancer. An operator installs the
//! LoadBalancer function on a Bento box; it establishes the introduction
//! points and publishes one descriptor. As clients pile on, it forwards
//! each INTRODUCE2 to the least-loaded replica, spinning replicas up on
//! other boxes past the watermark — replica creation is transparent to
//! clients, who never learn the hidden service nodes' identities.
//!
//!     cargo run -p bento --example hidden_service_autoscale

use bento::protocol::FunctionSpec;
use bento::testnet::BentoNetwork;
use bento::{BentoClientNode, MiddleboxPolicy};
use bento_functions::load_balancer::{lb_manifest, LbParams, ServiceParams};
use bento_functions::standard_registry;
use simnet::{NodeId, SimDuration, SimTime};
use tor_net::netbuild::TestClientNode;
use tor_net::ports::{BENTO_PORT, HS_VIRTUAL_PORT};
use tor_net::{HiddenServiceHost, StreamTarget, TorEvent};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn main() {
    // Three Bento boxes: the balancer's plus two replica hosts.
    let mut bn = BentoNetwork::build(15, 3, MiddleboxPolicy::permissive(), standard_registry);
    let operator = bn.add_bento_client("operator");
    bn.net.sim.run_until(secs(2));

    let seed = [0xA7; 32];
    let file_len = 300_000u64;
    let onion = HiddenServiceHost::new(seed, 0, true).onion_addr();
    println!("service address: {}", onion.to_string_short());

    let replica_boxes: Vec<(NodeId, u16)> =
        bn.boxes[1..3].iter().map(|b| (*b, BENTO_PORT)).collect();
    let spec = FunctionSpec {
        params: LbParams {
            service: ServiceParams { seed, file_len },
            n_intro: 3,
            max_per_replica: 1, // aggressive watermark for the demo
            replica_boxes,
        }
        .encode(),
        manifest: lb_manifest(),
    };
    // `boxes[1]` is the box a client finds first in the consensus (relays
    // sort by fingerprint); the balancer shares it with the first replica.
    let balancer = bn.install(operator, 1, &spec, [secs(5), secs(8), secs(25)]);
    println!("LoadBalancer installed; descriptor published.");

    // Three clients connect in quick succession.
    let mut clients = Vec::new();
    for name in ["c1", "c2", "c3"] {
        clients.push(bn.net.add_client(name));
    }
    bn.net.sim.run_until(secs(27));
    let mut rend = Vec::new();
    for (i, &c) in clients.iter().enumerate() {
        bn.net.sim.run_until(secs(27 + i as u64));
        rend.push(bn.net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
            n.tor.connect_onion(ctx, onion).expect("connect")
        }));
    }
    bn.net.sim.run_until(secs(45));
    for (i, (&c, &r)) in clients.iter().zip(&rend).enumerate() {
        bn.net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
            assert!(
                n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == r)),
                "client {i} rendezvous"
            );
            let s = n
                .tor
                .open_stream(ctx, r, StreamTarget::Hs(HS_VIRTUAL_PORT))
                .unwrap();
            n.tor.send_stream(ctx, r, s, b"GET");
        });
    }
    bn.net.sim.run_until(secs(120));
    for (i, &c) in clients.iter().enumerate() {
        let got = bn.net.sim.with_node::<TestClientNode, _>(c, |n, _| {
            n.events
                .iter()
                .filter_map(|e| match e {
                    TorEvent::StreamData(_, _, d) => Some(d.len()),
                    _ => None,
                })
                .sum::<usize>()
        });
        println!("client {} downloaded {} KB", i + 1, got / 1024);
        assert_eq!(got as u64, file_len);
    }
    // Ask the balancer how many machines ended up serving.
    bn.invoke(&balancer, vec![]);
    bn.net.sim.run_until(secs(130));
    let out = bn
        .net
        .sim
        .node_ref::<BentoClientNode>(operator)
        .output_bytes(balancer.conn);
    if out.len() >= 13 && out.starts_with(b"machines:") {
        let machines = u32::from_be_bytes([out[9], out[10], out[11], out[12]]);
        println!("balancer reports {machines} machine(s) serving (watermark 1 forced scale-up)");
    }
}
