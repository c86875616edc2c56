//! End-to-end tests of the paper's functions over the full simulated Tor
//! network: Browser (§7), Cover (§9.1), Dropbox (§9.2), Shard (§9.3),
//! LoadBalancer (§8), and the Figure 2 Browser+Dropbox composition.

use bento::protocol::FunctionSpec;
use bento::testnet::BentoNetwork;
use bento::tokens::Token;
use bento::{BentoClientNode, BentoEvent, MiddleboxPolicy};
use bento_functions::browser::{self, BrowseRequest};
use bento_functions::cover::{self, CoverRequest, Mode};
use bento_functions::dropbox;
use bento_functions::erasure;
use bento_functions::load_balancer::{LbParams, ServiceParams};
use bento_functions::shard::{self, decode_locators, ShardRequest};
use bento_functions::standard_registry;
use bento_functions::web::SiteModel;
use simnet::{NodeId, SimDuration, SimTime};
use tor_net::ports::{BENTO_PORT, HS_VIRTUAL_PORT, HTTP_PORT};
use tor_net::{HiddenServiceHost, StreamTarget, TorEvent};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

#[test]
fn browser_fetches_compresses_and_pads() {
    let mut bn = BentoNetwork::build(201, 1, MiddleboxPolicy::permissive(), standard_registry);
    let site = SiteModel::generate(0, 77);
    let server = bn.net.add_web_server("web", site.server_pages());
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: browser::manifest(false),
    };
    let session = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    let padding = 1 << 20;
    let req = BrowseRequest {
        server,
        port: HTTP_PORT,
        path: site.html_path(),
        padding,
        dropbox_on: None,
    };
    assert!(
        bn.invoke_and_wait(&session, req.encode(), SimDuration::from_secs(1), secs(90)),
        "browse completed"
    );
    // Output 1 = compressed digest, output 2 = padding.
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    let outputs: Vec<&Vec<u8>> = n
        .bento_events
        .iter()
        .filter_map(|e| match e {
            BentoEvent::Output(c, d) if *c == session.conn => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(outputs.len(), 2, "digest then padding");
    let digest = bento_functions::compress::decompress(outputs[0]).expect("valid digest");
    // The digest contains the HTML followed by every asset.
    let html = site.html.encode();
    assert_eq!(&digest[..html.len()], &html[..]);
    assert_eq!(
        digest.len() as u64,
        site.total_bytes() + html.len() as u64 - site.html.inline_len as u64
    );
    // Total transfer is a multiple of the padding quantum.
    let total = (outputs[0].len() + outputs[1].len()) as u64;
    assert_eq!(total % padding, 0, "padded to a multiple of {padding}");
}

#[test]
fn browser_composes_with_dropbox_figure2() {
    let mut bn = BentoNetwork::build(202, 2, MiddleboxPolicy::permissive(), standard_registry);
    let site = SiteModel::generate(1, 77);
    let server = bn.net.add_web_server("web", site.server_pages());
    let dropbox_box = bn.boxes[1];
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: browser::manifest(true),
    };
    let session = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    let req = BrowseRequest {
        server,
        port: HTTP_PORT,
        path: site.html_path(),
        padding: 0,
        dropbox_on: Some((dropbox_box, BENTO_PORT)),
    };
    // Alice "goes offline completely during the website download".
    assert!(
        bn.invoke_and_wait(&session, req.encode(), SimDuration::from_secs(1), secs(120)),
        "compose finished"
    );
    // The browser's final output is the dropbox locator.
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    let locator = n.output_bytes(session.conn);
    assert!(locator.starts_with(b"DROPBOX:"), "locator: {locator:?}");
    let token = Token::from_bytes(&locator[12..44]).expect("token bytes");
    // Alice comes back online and fetches from the dropbox directly, with
    // the one thing she holds of it: the locator's invocation token.
    let conn2 = bn.connect(client, 1);
    bn.net.sim.run_until(secs(125));
    bn.net
        .sim
        .with_node::<BentoClientNode, _>(client, |n, ctx| {
            n.bento.invoke(ctx, &mut n.tor, conn2, token, b"G".to_vec());
        });
    bn.net.sim.run_until(secs(180));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    let fetched = n.output_bytes(conn2);
    let digest = bento_functions::compress::decompress(&fetched).expect("digest");
    let html = site.html.encode();
    assert_eq!(&digest[..html.len()], &html[..], "page stored via dropbox");
}

#[test]
fn cover_emits_fixed_rate_downstream_junk() {
    let mut bn = BentoNetwork::build(203, 1, MiddleboxPolicy::permissive(), standard_registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: cover::manifest(false),
    };
    let session = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    let req = CoverRequest {
        interval_ms: 100,
        count: 20,
        chunk: 498,
        mode: Mode::Downstream,
    };
    assert!(bn.invoke_and_wait(&session, req.encode(), SimDuration::from_secs(1), secs(30)));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    let junk: Vec<usize> = n
        .bento_events
        .iter()
        .filter_map(|e| match e {
            BentoEvent::Output(c, d) if *c == session.conn => Some(d.len()),
            _ => None,
        })
        .collect();
    assert_eq!(junk.len(), 20, "one emission per tick");
    assert!(junk.iter().all(|&l| l == 498));
}

#[test]
fn dropbox_over_network_put_get_limit() {
    let mut bn = BentoNetwork::build(204, 1, MiddleboxPolicy::permissive(), standard_registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: dropbox::Params {
            max_gets: 1,
            expiry_ms: 0,
            max_bytes: 0,
        }
        .encode(),
        manifest: dropbox::manifest(),
    };
    let session = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    let mut put = vec![b'P'];
    put.extend_from_slice(&vec![0xAD; 50_000]);
    bn.invoke(&session, put);
    bn.net.sim.run_until(secs(15));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert!(n.output_bytes(session.conn).ends_with(b"OK"));
    bn.invoke(&session, b"G".to_vec());
    bn.net.sim.run_until(secs(40));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    let out = n.output_bytes(session.conn);
    assert!(out.len() >= 50_002 && out[2..].iter().all(|&b| b == 0xAD));
    // max_gets = 1: the dropbox has self-destructed; further gets fail.
    bn.invoke(&session, b"G".to_vec());
    bn.net.sim.run_until(secs(50));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert_eq!(
        n.rejection(session.conn),
        Some("bad invocation token"),
        "terminated dropbox no longer answers its token"
    );
}

#[test]
fn shard_deploys_and_any_k_reconstruct() {
    // Box 0 runs Shard; boxes 1..3 receive Dropbox deployments.
    let mut bn = BentoNetwork::build(205, 4, MiddleboxPolicy::permissive(), standard_registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: shard::manifest(),
    };
    let session = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    let file: Vec<u8> = (0..60_000u32).map(|i| (i * 31 % 251) as u8).collect();
    let targets: Vec<(NodeId, u16)> = bn.boxes[1..4].iter().map(|b| (*b, BENTO_PORT)).collect();
    let req = ShardRequest {
        k: 2,
        targets,
        file: file.clone(),
    };
    assert!(
        bn.invoke_and_wait(&session, req.encode(), SimDuration::from_secs(1), secs(120)),
        "shard deployment finished"
    );
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    let locators = decode_locators(&n.output_bytes(session.conn)).expect("locator list");
    assert_eq!(locators.len(), 3, "one shard per target");
    // Fetch only k = 2 shards (skip the first) and reconstruct.
    let mut pieces = Vec::new();
    for (i, loc) in locators.iter().enumerate().skip(1) {
        let box_idx = bn.boxes.iter().position(|b| *b == loc.box_addr).unwrap();
        let conn_i = bn.connect(client, box_idx);
        bn.net.sim.run_until(secs(125 + i as u64 * 20));
        bn.net
            .sim
            .with_node::<BentoClientNode, _>(client, |n, ctx| {
                n.bento
                    .invoke(ctx, &mut n.tor, conn_i, Token(loc.token), b"G".to_vec());
            });
        bn.net.sim.run_until(secs(140 + i as u64 * 20));
        let n: &BentoClientNode = bn.net.sim.node_ref(client);
        let bytes = n.output_bytes(conn_i);
        let piece = erasure::ShardPiece::from_bytes(&bytes).expect("shard piece");
        pieces.push(piece);
    }
    assert_eq!(erasure::decode(&pieces).expect("reconstruct"), file);
}

#[test]
fn load_balancer_serves_and_scales() {
    // Box 0 runs the LoadBalancer; box 1 hosts a replica.
    let mut bn = BentoNetwork::build(206, 2, MiddleboxPolicy::permissive(), standard_registry);
    let operator = bn.add_bento_client("operator");
    bn.net.sim.run_until(secs(2));
    let seed = [0x5E; 32];
    let file_len = 200_000u64;
    let lb_params = LbParams {
        service: ServiceParams { seed, file_len },
        n_intro: 2,
        max_per_replica: 1,
        replica_boxes: vec![(bn.boxes[1], BENTO_PORT)],
    };
    let spec = FunctionSpec {
        params: lb_params.encode(),
        manifest: bento_functions::load_balancer::lb_manifest(),
    };
    bn.install(operator, 0, &spec, [secs(5), secs(8), secs(11)]);
    // Let the service publish its descriptor.
    bn.net.sim.run_until(secs(25));
    let onion = HiddenServiceHost::new(seed, 0, true).onion_addr();
    // Two ordinary Tor clients download concurrently: watermark 1 forces a
    // replica spawn for the second.
    let mut client_nodes = Vec::new();
    for name in ["c1", "c2"] {
        client_nodes.push(bn.net.add_client(name));
    }
    bn.net.sim.run_until(secs(28));
    let mut rend = Vec::new();
    for (i, &c) in client_nodes.iter().enumerate() {
        bn.net.sim.run_until(secs(28 + i as u64));
        let r = bn
            .net
            .sim
            .with_node::<tor_net::netbuild::TestClientNode, _>(c, |n, ctx| {
                n.tor.connect_onion(ctx, onion).expect("onion connect")
            });
        rend.push(r);
    }
    bn.net.sim.run_until(secs(45));
    let mut streams = Vec::new();
    for (&c, &r) in client_nodes.iter().zip(rend.iter()) {
        let s = bn
            .net
            .sim
            .with_node::<tor_net::netbuild::TestClientNode, _>(c, |n, ctx| {
                assert!(
                    n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == r)),
                    "rendezvous ready for client; events: {:?}",
                    n.events
                );

                n.tor
                    .open_stream(ctx, r, StreamTarget::Hs(HS_VIRTUAL_PORT))
                    .expect("stream")
            });
        streams.push(s);
    }
    bn.net.sim.run_until(secs(50));
    for (&c, (&r, &s)) in client_nodes.iter().zip(rend.iter().zip(streams.iter())) {
        bn.net
            .sim
            .with_node::<tor_net::netbuild::TestClientNode, _>(c, |n, ctx| {
                n.tor.send_stream(ctx, r, s, b"GET");
            });
    }
    bn.net.sim.run_until(secs(160));
    for (&c, (&r, &s)) in client_nodes.iter().zip(rend.iter().zip(streams.iter())) {
        bn.net
            .sim
            .with_node::<tor_net::netbuild::TestClientNode, _>(c, |n, _| {
                let got = n.stream_bytes(r, s).len() as u64;
                assert_eq!(got, file_len, "full file downloaded");
            });
    }
}

#[test]
fn multipath_fetch_reassembles_over_k_circuits() {
    use bento_functions::multipath::{self, MultipathRequest};
    let mut bn = BentoNetwork::build(207, 1, MiddleboxPolicy::permissive(), standard_registry);
    // A single-part 600 KB resource.
    let body: Vec<u8> = (0..600_000u32).map(|i| (i % 251) as u8).collect();
    let server = bn
        .net
        .add_web_server("web", vec![("/big".to_string(), vec![body.clone()])]);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: multipath::manifest(),
    };
    let session = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    let req = MultipathRequest {
        server,
        port: HTTP_PORT,
        path: "/big".into(),
        total_len: body.len() as u64,
        k: 3,
    };
    assert!(
        bn.invoke_and_wait(&session, req.encode(), SimDuration::from_secs(1), secs(90)),
        "multipath finished"
    );
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert_eq!(
        n.output_bytes(session.conn),
        body,
        "ranges reassembled in order"
    );
}

#[test]
fn load_balancer_fails_over_when_replica_goes_silent() {
    // Box 1 runs the LoadBalancer; box 0 hosts a replica that will be
    // partitioned away — a *silent* death: its circuits to the balancer
    // stay up, so only the missed-heartbeat health sweep can detect it.
    // Clients arriving afterwards must be redirected to a live machine
    // (the balancer itself) instead of being forwarded into the void.
    let mut bn = BentoNetwork::build(213, 2, MiddleboxPolicy::permissive(), standard_registry);
    let operator = bn.add_bento_client("operator");
    bn.net.sim.run_until(secs(2));
    let replica_box = bn.boxes[0];
    let seed = [0x6A; 32];
    let file_len = 200_000u64;
    let lb_params = LbParams {
        service: ServiceParams { seed, file_len },
        n_intro: 2,
        max_per_replica: 1,
        replica_boxes: vec![(replica_box, BENTO_PORT)],
    };
    let spec = FunctionSpec {
        params: lb_params.encode(),
        manifest: bento_functions::load_balancer::lb_manifest(),
    };
    bn.install(operator, 1, &spec, [secs(5), secs(8), secs(11)]);
    bn.net.sim.run_until(secs(25));
    let onion = HiddenServiceHost::new(seed, 0, true).onion_addr();

    // Phase 1 — two clients force the replica up (watermark 1) and both
    // download; afterwards the replica is idle and heartbeating "load 0".
    // Times are "no earlier than secs(t0)" — the closure advances the clock
    // relative to wherever the previous download left it.
    let download = |bn: &mut BentoNetwork, name: &str, t0: u64| -> (NodeId, u64) {
        let c = bn.net.add_client(name);
        let arrived = bn.net.sim.now().max(secs(t0));
        // Let the newcomer bootstrap (fetch a consensus) before dialing.
        bn.net.sim.run_until(arrived + SimDuration::from_secs(4));
        let mut r = bn
            .net
            .sim
            .with_node::<tor_net::netbuild::TestClientNode, _>(c, |n, ctx| {
                n.tor.connect_onion(ctx, onion).expect("onion connect")
            });
        // Like a real Tor client: retry a stalled or failed rendezvous (a
        // partitioned box is still in the consensus, so circuits routed
        // through it hang or die — a fresh attempt picks a fresh path).
        for _ in 0..4 {
            let dialed = bn.net.sim.now();
            bn.net.sim.run_until(dialed + SimDuration::from_secs(15));
            let ready = bn
                .net
                .sim
                .with_node::<tor_net::netbuild::TestClientNode, _>(c, |n, _| {
                    n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == r))
                });
            if ready {
                break;
            }
            r = bn
                .net
                .sim
                .with_node::<tor_net::netbuild::TestClientNode, _>(c, |n, ctx| {
                    n.tor.connect_onion(ctx, onion).expect("onion reconnect")
                });
        }
        let s = bn
            .net
            .sim
            .with_node::<tor_net::netbuild::TestClientNode, _>(c, |n, ctx| {
                assert!(
                    n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == r)),
                    "{name}: rendezvous ready; events: {:?}",
                    n.events
                );
                let s = n
                    .tor
                    .open_stream(ctx, r, StreamTarget::Hs(HS_VIRTUAL_PORT))
                    .expect("stream");
                n.tor.send_stream(ctx, r, s, b"GET");
                s
            });
        (c, (r.0 as u64) << 32 | s as u64)
    };
    let (c1, k1) = download(&mut bn, "c1", 28);
    let (c2, k2) = download(&mut bn, "c2", 29);
    bn.net.sim.run_until(secs(150));
    for (c, k) in [(c1, k1), (c2, k2)] {
        bn.net
            .sim
            .with_node::<tor_net::netbuild::TestClientNode, _>(c, |n, _| {
                let (r, s) = (tor_net::CircuitHandle((k >> 32) as usize), k as u16);
                assert_eq!(n.stream_bytes(r, s).len() as u64, file_len);
            });
    }

    // Phase 2 — the replica box drops off the network without closing
    // anything. Its load reports stop; after DEAD_AFTER the sweep marks it
    // Failed.
    bn.net.sim.inject_fault(
        secs(160),
        simnet::FaultAction::Partition {
            group: vec![replica_box],
        },
    );

    // Phase 3 — two more clients, staggered so the second one's
    // introduction arrives while the balancer is already busy with the
    // first: without the health sweep it would be forwarded to the silent
    // replica (stale load 0) and hang forever.
    let (c3, k3) = download(&mut bn, "c3", 172);
    let (c4, k4) = download(&mut bn, "c4", 176);
    bn.net.sim.run_until(secs(300));
    for (c, k) in [(c3, k3), (c4, k4)] {
        bn.net
            .sim
            .with_node::<tor_net::netbuild::TestClientNode, _>(c, |n, _| {
                let (r, s) = (tor_net::CircuitHandle((k >> 32) as usize), k as u16);
                assert_eq!(
                    n.stream_bytes(r, s).len() as u64,
                    file_len,
                    "served by a live machine after the failover"
                );
            });
    }
}
