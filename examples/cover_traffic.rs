//! §9.1: the Cover function. "Anonymity systems that offer strong
//! anonymity send cover traffic whenever there are hosts with nothing to
//! send" — Tor chose not to; Bento lets a user opt in, for just herself,
//! when she wants it. We run the same activity pattern with and without
//! Cover and print what a volume-watching adversary sees per 10-second
//! window.
//!
//!     cargo run -p bento --example cover_traffic

use bento::protocol::FunctionSpec;
use bento::testnet::BentoNetwork;
use bento::MiddleboxPolicy;
use bento_functions::cover::{self, CoverRequest, Mode};
use bento_functions::standard_registry;
use simnet::trace::Direction;
use simnet::{NodeId, SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn window_kb(bn: &BentoNetwork, client: NodeId, from: u64, to: u64) -> f64 {
    bn.net
        .sim
        .sniffer(client)
        .events()
        .iter()
        .filter(|e| e.dir == Direction::Incoming && e.time >= secs(from) && e.time < secs(to))
        .map(|e| e.bytes as f64 / 1024.0)
        .sum()
}

fn main() {
    let mut bn = BentoNetwork::build(21, 1, MiddleboxPolicy::permissive(), standard_registry);
    let alice = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: cover::manifest(false),
    };
    let session = bn.install(alice, 0, &spec, [secs(5), secs(8), secs(12)]);
    bn.net.sim.enable_sniffer(alice);

    // Start a fixed 25 KB/s downstream cover stream for ~60 seconds.
    let req = CoverRequest {
        interval_ms: 20,
        count: 3000,
        chunk: 498,
        mode: Mode::Downstream,
    };
    bn.invoke(&session, req.encode());
    bn.net.sim.run_until(secs(80));

    println!("downstream volume per 10s window (constant-rate cover running):");
    for w in 0..6 {
        let from = 15 + w * 10;
        let kb = window_kb(&bn, alice, from, from + 10);
        println!(
            "  [{:>3}s..{:>3}s)  {:>8.1} KB  {}",
            from,
            from + 10,
            kb,
            bar(kb)
        );
    }
    println!("\nEvery window carries the same fixed-rate stream: whether Alice");
    println!("was actually doing anything inside any window is not observable");
    println!("from volume alone. Composed with Browser (section 9.1), the page");
    println!("download hides inside this constant envelope.");
}

fn bar(kb: f64) -> String {
    "#".repeat((kb / 25.0).round() as usize)
}
