//! Whole-stack determinism: two runs of the same seeded experiment produce
//! byte-identical outcomes. This is the property that makes every number
//! in EXPERIMENTS.md reproducible with `cargo run -p bench`.

use bento::manifest::Manifest;
use bento::protocol::FunctionSpec;
use bento::testnet::BentoNetwork;
use bento::{BentoClientNode, MiddleboxPolicy};
use bento_functions::standard_registry;
use simnet::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// A full Bento session (connect → container → upload → invoke → output),
/// reduced to comparable numbers.
fn run_once(seed: u64) -> (u64, usize, Vec<u8>, [u8; 32]) {
    let mut bn = BentoNetwork::build(seed, 1, MiddleboxPolicy::permissive(), standard_registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: bento_functions::dropbox::Params {
            max_gets: 2,
            expiry_ms: 0,
            max_bytes: 0,
        }
        .encode(),
        manifest: Manifest::minimal("dropbox").with_disk(1 << 20),
    };
    let session = bn.install(client, 0, &spec, [secs(5), secs(9), secs(13)]);
    let mut put = vec![b'P'];
    put.extend_from_slice(&vec![0x11; 30_000]);
    bn.invoke(&session, put);
    bn.net.sim.run_until(secs(17));
    bn.invoke(&session, b"G".to_vec());
    bn.net.sim.run_until(secs(40));
    let events = bn.net.sim.stats().events;
    let out_bytes = bn
        .net
        .sim
        .node_ref::<BentoClientNode>(client)
        .output_bytes(session.conn);
    let digest = onion_crypto::sha256::sha256(&out_bytes);
    (
        events,
        out_bytes.len(),
        out_bytes[..8.min(out_bytes.len())].to_vec(),
        digest,
    )
}

#[test]
fn identical_seeds_identical_runs() {
    let a = run_once(77);
    let b = run_once(77);
    assert_eq!(a.0, b.0, "event counts match");
    assert_eq!(a, b, "full outcome matches");
}

#[test]
fn different_seeds_still_succeed() {
    // The protocol works under many path/keys choices, not just one lucky
    // seed.
    for seed in [1u64, 2, 3, 99, 1234] {
        let (_, out_len, _, _) = run_once(seed);
        assert!(out_len >= 30_000, "seed {seed}: got {out_len} bytes");
    }
}
