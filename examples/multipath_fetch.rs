//! §9.4, implemented: multipath routing as a Bento function. One 2 MiB
//! resource is fetched in three byte-ranges over three separate Tor
//! circuits and reassembled at the box — no Tor modifications, just a
//! function.
//!
//!     cargo run -p bento --example multipath_fetch

use bento::protocol::FunctionSpec;
use bento::testnet::BentoNetwork;
use bento::{BentoClientNode, MiddleboxPolicy};
use bento_functions::multipath::{self, MultipathRequest};
use bento_functions::standard_registry;
use simnet::{SimDuration, SimTime};
use tor_net::ports::HTTP_PORT;

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn main() {
    let mut bn = BentoNetwork::build(33, 1, MiddleboxPolicy::permissive(), standard_registry);
    let body: Vec<u8> = (0..(2u32 << 20)).map(|i| (i % 251) as u8).collect();
    let server = bn
        .net
        .add_web_server("web", vec![("/big".to_string(), vec![body.clone()])]);
    let alice = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));

    let spec = FunctionSpec {
        params: vec![],
        manifest: multipath::manifest(),
    };
    let session = bn.install(alice, 0, &spec, [secs(5), secs(8), secs(12)]);
    println!("multipath function installed; fetching 2 MiB over 3 circuits...");
    let req = MultipathRequest {
        server,
        port: HTTP_PORT,
        path: "/big".into(),
        total_len: body.len() as u64,
        k: 3,
    };
    bn.invoke(&session, req.encode());
    bn.net.sim.run_until(secs(120));
    let n: &BentoClientNode = bn.net.sim.node_ref(alice);
    assert!(n.output_done(session.conn), "fetch completed");
    let got = n.output_bytes(session.conn);
    assert_eq!(got, body, "ranges reassembled in order");
    println!(
        "received {} KiB, byte-identical to the origin resource.",
        got.len() / 1024
    );
    println!(
        "see `cargo run -p bench --release --bin multipath_sweep` for the k-scaling ablation."
    );
}
