//! End-to-end tests of the Tor overlay: bootstrap, circuits, exit streams,
//! directory streams, cover traffic, hidden services, and flow control.

use simnet::{ConnId, Ctx, Node, NodeId, SimDuration, SimTime};
use tor_net::client::TerminalReq;
use tor_net::dir::DirMsg;
use tor_net::netbuild::{NetworkBuilder, TestClientNode};
use tor_net::ports::{HS_VIRTUAL_PORT, HTTP_PORT};
use tor_net::stream_frame::encode_frame;
use tor_net::{HiddenServiceHost, StreamTarget, TorEvent};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

#[test]
fn client_bootstraps_and_verifies_consensus() {
    let mut net = NetworkBuilder::new().build();
    let client = net.add_client("alice");
    net.sim.run_until(secs(2));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        assert!(n.has_event(|e| matches!(e, TorEvent::ConsensusReady)));
        let cons = n.tor.consensus().expect("consensus");
        // authority + 6 middles + 3 exits + 2 hsdirs
        assert_eq!(cons.relays.len(), 12);
    });
}

#[test]
fn three_hop_circuit_builds() {
    let mut net = NetworkBuilder::new().seed(11).build();
    let client = net.add_client("alice");
    net.sim.run_until(secs(2));
    let circ = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        let path = n.tor.select_path(ctx, TerminalReq::Any).expect("path");
        assert_eq!(path.len(), 3);
        n.tor.build_circuit(ctx, path).expect("build started")
    });
    net.sim.run_until(secs(4));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        assert!(n.tor.is_ready(circ), "circuit should be ready");
        assert_eq!(n.tor.hops(circ), 3);
    });
}

#[test]
fn exit_stream_fetches_web_page() {
    let mut net = NetworkBuilder::new().seed(13).build();
    let page = vec![vec![7u8; 20_000]];
    let server = net.add_web_server("web", vec![("/index".to_string(), page)]);
    let client = net.add_client("alice");
    net.sim.run_until(secs(2));
    let circ = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        let path = n
            .tor
            .select_path(ctx, TerminalReq::ExitTo(server, HTTP_PORT))
            .expect("exit path");
        n.tor.build_circuit(ctx, path).unwrap()
    });
    net.sim.run_until(secs(4));
    let stream = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        assert!(n.tor.is_ready(circ));

        n.tor
            .open_stream(ctx, circ, StreamTarget::Node(server, HTTP_PORT))
            .expect("stream")
    });
    net.sim.run_until(secs(5));
    net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        assert!(n.has_event(
            |e| matches!(e, TorEvent::StreamConnected(c, s) if *c == circ && *s == stream)
        ));
        n.tor
            .send_stream(ctx, circ, stream, &encode_frame(b"/index"));
    });
    net.sim.run_until(secs(30));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        let bytes = n.stream_bytes(circ, stream);
        // frame header + 20 KB page
        assert!(
            bytes.len() >= 20_000,
            "got {} bytes of the page back",
            bytes.len()
        );
    });
}

#[test]
fn exit_policy_refuses_disallowed_port() {
    let mut net = NetworkBuilder::new().seed(17).build();
    let server = net.add_web_server("web", vec![]);
    let client = net.add_client("alice");
    net.sim.run_until(secs(2));
    let circ = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        let path = n
            .tor
            .select_path(ctx, TerminalReq::ExitTo(server, HTTP_PORT))
            .unwrap();
        n.tor.build_circuit(ctx, path).unwrap()
    });
    net.sim.run_until(secs(4));
    let stream = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        // Port 22 is not in the web-only exit policy.
        n.tor
            .open_stream(ctx, circ, StreamTarget::Node(server, 22))
            .expect("stream id allocated")
    });
    net.sim.run_until(secs(6));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        assert!(
            n.stream_ended(circ, stream),
            "policy-violating stream must be refused with END"
        );
        assert!(!n.has_event(
            |e| matches!(e, TorEvent::StreamConnected(c, s) if *c == circ && *s == stream)
        ));
    });
}

#[test]
fn dir_stream_fetches_consensus_anonymously() {
    let mut net = NetworkBuilder::new().seed(19).build();
    let authority_fp = net.relays[0].1;
    let client = net.add_client("alice");
    net.sim.run_until(secs(2));
    let circ = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        let path = n
            .tor
            .select_path(ctx, TerminalReq::Specific(authority_fp))
            .unwrap();
        n.tor.build_circuit(ctx, path).unwrap()
    });
    net.sim.run_until(secs(4));
    net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        n.tor.dir_request(ctx, circ, DirMsg::FetchConsensus);
    });
    net.sim.run_until(secs(10));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        assert!(n.has_event(|e| matches!(
            e,
            TorEvent::DirResponse(c, _, DirMsg::ConsensusResp(bytes)) if *c == circ && !bytes.is_empty()
        )));
    });
}

#[test]
fn cover_drop_cells_are_absorbed() {
    let mut net = NetworkBuilder::new().seed(23).build();
    let client = net.add_client("alice");
    net.sim.run_until(secs(2));
    let circ = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        let path = n.tor.select_path(ctx, TerminalReq::Any).unwrap();
        n.tor.build_circuit(ctx, path).unwrap()
    });
    net.sim.run_until(secs(4));
    net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        assert!(n.tor.is_ready(circ));
        for _ in 0..50 {
            n.tor.send_drop(ctx, circ);
        }
    });
    let before = net.sim.stats().msgs_delivered;
    net.sim.run_until(secs(8));
    let after = net.sim.stats().msgs_delivered;
    // The 50 drop cells crossed three links each but produced no stream
    // events at the client.
    assert!(after - before >= 150, "drops traverse the circuit");
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        assert!(!n.has_event(|e| matches!(e, TorEvent::StreamData(..))));
    });
}

#[test]
fn hidden_service_end_to_end() {
    let mut net = NetworkBuilder::new().seed(29).middles(8).build();
    // Service host.
    let service = {
        let hs = HiddenServiceHost::new([0x55; 32], 3, true);
        let node = TestClientNode::new(net.authority, net.authority_key).with_hs(hs);
        net.sim
            .add_node("service", simnet::Iface::datacenter(), Box::new(node))
    };
    let client = net.add_client("alice");
    // Let the service publish.
    net.sim.run_until(secs(6));
    let onion = net.sim.with_node::<TestClientNode, _>(service, |n, _| {
        let hs = n.hs.as_ref().unwrap();
        assert!(hs.is_published(), "descriptor should be published");
        hs.onion_addr()
    });
    // Client connects.
    let rendezvous = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        n.tor.connect_onion(ctx, onion).expect("onion connection")
    });
    net.sim.run_until(secs(12));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        assert!(
            n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == rendezvous)),
            "rendezvous must complete; events: {:?}",
            n.events
        );
        // 3 relay hops + 1 virtual e2e hop.
        assert_eq!(n.tor.hops(rendezvous), 4);
    });
    // Open a stream and exchange data (service echoes).
    let stream = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        n.tor
            .open_stream(ctx, rendezvous, StreamTarget::Hs(HS_VIRTUAL_PORT))
            .expect("stream")
    });
    net.sim.with_node::<TestClientNode, _>(service, |n, _| {
        n.echo = true;
    });
    net.sim.run_until(secs(16));
    net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        assert!(n.has_event(
            |e| matches!(e, TorEvent::StreamConnected(c, s) if *c == rendezvous && *s == stream)
        ));
        n.tor
            .send_stream(ctx, rendezvous, stream, b"hello hidden world");
    });
    net.sim.run_until(secs(22));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        assert_eq!(
            n.stream_bytes(rendezvous, stream),
            b"hello hidden world",
            "echo through 6 relays + e2e crypto"
        );
    });
}

#[test]
fn hidden_service_bulk_transfer_with_flow_control() {
    let mut net = NetworkBuilder::new().seed(31).middles(8).build();
    let service = {
        let hs = HiddenServiceHost::new([0x66; 32], 2, true);
        let mut node = TestClientNode::new(net.authority, net.authority_key).with_hs(hs);
        node.serve_bytes = Some(600_000); // > one circuit window of cells
        net.sim
            .add_node("service", simnet::Iface::datacenter(), Box::new(node))
    };
    let _ = service;
    let client = net.add_client("alice");
    net.sim.run_until(secs(6));
    let onion = net.sim.with_node::<TestClientNode, _>(service, |n, _| {
        assert!(n.hs.as_ref().unwrap().is_published());
        n.hs.as_ref().unwrap().onion_addr()
    });
    let rendezvous = net
        .sim
        .with_node::<TestClientNode, _>(client, |n, ctx| n.tor.connect_onion(ctx, onion).unwrap());
    net.sim.run_until(secs(12));
    let stream = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        assert!(n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == rendezvous)));
        n.tor
            .open_stream(ctx, rendezvous, StreamTarget::Hs(HS_VIRTUAL_PORT))
            .unwrap()
    });
    net.sim.run_until(secs(14));
    net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        n.tor.send_stream(ctx, rendezvous, stream, b"GET");
    });
    net.sim.run_until(secs(120));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        let got = n.stream_bytes(rendezvous, stream).len();
        assert_eq!(
            got, 600_000,
            "the full file must arrive despite the 1000-cell window"
        );
    });
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut net = NetworkBuilder::new().seed(41).build();
        let server = net.add_web_server("web", vec![("/".to_string(), vec![vec![1u8; 50_000]])]);
        let client = net.add_client("alice");
        net.sim.run_until(secs(2));
        let circ = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
            let path = n
                .tor
                .select_path(ctx, TerminalReq::ExitTo(server, HTTP_PORT))
                .unwrap();
            n.tor.build_circuit(ctx, path).unwrap()
        });
        net.sim.run_until(secs(4));
        let stream = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
            let s = n
                .tor
                .open_stream(ctx, circ, StreamTarget::Node(server, HTTP_PORT))
                .unwrap();
            n.tor.send_stream(ctx, circ, s, &encode_frame(b"/"));
            s
        });
        net.sim.run_until(secs(60));
        let events = net.sim.stats().events;
        let bytes = net
            .sim
            .with_node::<TestClientNode, _>(client, |n, _| n.stream_bytes(circ, stream).len());
        (events, bytes)
    };
    assert_eq!(run(), run());
}

#[test]
fn pow_gated_service_rejects_unpaid_introductions() {
    use tor_net::hs::{check_pow, solve_pow};
    // The puzzle primitive behaves.
    let cookie = [7u8; 20];
    let nonce = solve_pow(&cookie, 8);
    assert!(check_pow(&cookie, nonce, 8));
    assert!(!check_pow(&cookie, nonce.wrapping_add(1), 16) || nonce == u64::MAX);

    // A service requiring 8 bits of work.
    let mut net = NetworkBuilder::new().seed(47).middles(8).build();
    let service = {
        let hs = HiddenServiceHost::new([0x77; 32], 2, true).with_pow(8);
        let node = TestClientNode::new(net.authority, net.authority_key).with_hs(hs);
        net.sim
            .add_node("service", simnet::Iface::datacenter(), Box::new(node))
    };
    let freeloader = net.add_client("freeloader");
    let payer = net.add_client("payer");
    net.sim.run_until(secs(6));
    let onion = net.sim.with_node::<TestClientNode, _>(service, |n, _| {
        assert!(n.hs.as_ref().unwrap().is_published());
        n.hs.as_ref().unwrap().onion_addr()
    });
    // The freeloader introduces without solving the puzzle.
    let r_free = net
        .sim
        .with_node::<TestClientNode, _>(freeloader, |n, ctx| {
            n.tor.connect_onion(ctx, onion).unwrap()
        });
    // The payer attaches the proof of work.
    let r_paid = net.sim.with_node::<TestClientNode, _>(payer, |n, ctx| {
        n.tor.connect_onion_with_pow(ctx, onion, 8).unwrap()
    });
    net.sim.run_until(secs(15));
    net.sim.with_node::<TestClientNode, _>(freeloader, |n, _| {
        assert!(
            !n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == r_free)),
            "unpaid introduction must be dropped"
        );
    });
    net.sim.with_node::<TestClientNode, _>(payer, |n, _| {
        assert!(
            n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == r_paid)),
            "paid introduction completes: {:?}",
            n.events
        );
    });
    net.sim.with_node::<TestClientNode, _>(service, |n, _| {
        assert_eq!(n.hs.as_ref().unwrap().pow_rejections, 1);
    });
}

#[test]
fn destroy_circuit_tears_down_exit_stream() {
    let mut net = NetworkBuilder::new().seed(53).build();
    let server = net.add_web_server("web", vec![("/".to_string(), vec![vec![1u8; 6_000_000]])]);
    let client = net.add_client("alice");
    net.sim.run_until(secs(2));
    let circ = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        let path = n
            .tor
            .select_path(ctx, TerminalReq::ExitTo(server, HTTP_PORT))
            .unwrap();
        n.tor.build_circuit(ctx, path).unwrap()
    });
    net.sim.run_until(secs(4));
    let stream = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        let s = n
            .tor
            .open_stream(ctx, circ, StreamTarget::Node(server, HTTP_PORT))
            .unwrap();
        n.tor.send_stream(ctx, circ, s, &encode_frame(b"/"));
        s
    });
    // Let a little data flow, then kill the circuit mid-download.
    net.sim.run_until(secs(5));
    let got_before = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        let g = n.stream_bytes(circ, stream).len();
        n.tor.destroy_circuit(ctx, circ);
        g
    });
    net.sim.run_until(secs(8));
    let shortly_after = net
        .sim
        .with_node::<TestClientNode, _>(client, |n, _| n.stream_bytes(circ, stream).len());
    net.sim.run_until(secs(30));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        let got_after = n.stream_bytes(circ, stream).len();
        assert!(got_before < 6_000_000, "download was still in flight");
        assert_eq!(
            got_after, shortly_after,
            "no data arrives after teardown settles"
        );
        assert!(got_after < 6_000_000, "download did not complete");
    });
}

#[test]
fn concurrent_clients_share_relays() {
    let mut net = NetworkBuilder::new().seed(59).middles(3).exits(1).build();
    let server = net.add_web_server("web", vec![("/".to_string(), vec![vec![9u8; 60_000]])]);
    // With one exit, both clients' circuits MUST share the exit relay and
    // its OR links, exercising circuit-id multiplexing.
    let a = net.add_client("alice");
    let b = net.add_client("bob");
    net.sim.run_until(secs(2));
    let mut handles = Vec::new();
    for &c in &[a, b] {
        let (circ, stream) = net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
            let path = n
                .tor
                .select_path(ctx, TerminalReq::ExitTo(server, HTTP_PORT))
                .unwrap();
            let circ = n.tor.build_circuit(ctx, path).unwrap();
            (circ, 0u16)
        });
        handles.push((c, circ, stream));
    }
    net.sim.run_until(secs(4));
    for h in handles.iter_mut() {
        let (c, circ) = (h.0, h.1);
        h.2 = net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
            let s = n
                .tor
                .open_stream(ctx, circ, StreamTarget::Node(server, HTTP_PORT))
                .unwrap();
            n.tor.send_stream(ctx, circ, s, &encode_frame(b"/"));
            s
        });
    }
    net.sim.run_until(secs(40));
    for &(c, circ, stream) in &handles {
        net.sim.with_node::<TestClientNode, _>(c, |n, _| {
            assert!(
                n.stream_bytes(circ, stream).len() >= 60_000,
                "client {c:?} completed through shared relays"
            );
        });
    }
}

#[test]
fn many_sequential_circuits_on_one_client() {
    // Circuit-id allocation and teardown across a long session.
    let mut net = NetworkBuilder::new().seed(61).build();
    let client = net.add_client("alice");
    net.sim.run_until(secs(2));
    let mut handles = Vec::new();
    for i in 0..12 {
        let circ = net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
            let path = n.tor.select_path(ctx, TerminalReq::Any).unwrap();
            n.tor.build_circuit(ctx, path).unwrap()
        });
        net.sim.run_until(secs(4 + i));
        net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
            assert!(n.tor.is_ready(circ), "circuit {i} ready");
            if i % 2 == 0 {
                n.tor.destroy_circuit(ctx, circ);
            }
        });
        handles.push(circ);
    }
    // Destroyed circuits report not-ready; surviving ones stay usable.
    net.sim.run_until(secs(20));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        for (i, &h) in handles.iter().enumerate() {
            assert_eq!(n.tor.is_ready(h), i % 2 == 1, "circuit {i}");
        }
    });
}

#[test]
fn path_avoidance_never_touches_avoided_relays() {
    // §9.4 geographical avoidance, client side: map a "region" to a set of
    // fingerprints and verify no selected path ever includes them.
    let mut net = NetworkBuilder::new().seed(67).middles(8).exits(3).build();
    let client = net.add_client("alice");
    net.sim.run_until(secs(2));
    // Declare the authority plus two middles as the forbidden region.
    let region: Vec<_> = vec![net.relays[0].1, net.relays[1].1, net.relays[2].1];
    net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        for _ in 0..50 {
            let path = n
                .tor
                .select_path_avoiding(ctx, TerminalReq::Any, &region)
                .expect("compliant path exists");
            for hop in &path {
                assert!(!region.contains(hop), "avoided relay in path");
            }
        }
        // Fail closed: a Specific target inside the region is refused.
        assert!(n
            .tor
            .select_path_avoiding(ctx, TerminalReq::Specific(region[0]), &region)
            .is_none());
        // Avoiding everything leaves no path.
        let everything: Vec<_> = n
            .tor
            .consensus()
            .unwrap()
            .relays
            .iter()
            .map(|r| r.fingerprint)
            .collect();
        assert!(n
            .tor
            .select_path_avoiding(ctx, TerminalReq::Any, &everything)
            .is_none());
    });
}

#[test]
fn excluded_relay_never_chosen_as_guard() {
    let mut net = NetworkBuilder::new().seed(71).middles(6).build();
    let client = net.add_client("alice");
    net.sim.run_until(secs(2));
    let banned = net.relays[1].1;
    net.sim.with_node::<TestClientNode, _>(client, |n, ctx| {
        n.tor.exclude_relay(banned);
        let mut saw_banned_elsewhere = false;
        for _ in 0..100 {
            let path = n.tor.select_path(ctx, TerminalReq::Any).unwrap();
            assert_ne!(path[0], banned, "excluded relay used as guard");
            if path[1] == banned || path[2] == banned {
                saw_banned_elsewhere = true;
            }
        }
        // The exclusion is guard-only by design (loopback avoidance).
        assert!(
            saw_banned_elsewhere,
            "exclusion should not bar later hops (seed-dependent but \
             overwhelmingly likely across 100 draws)"
        );
    });
}

#[test]
fn small_order_introduction_key_is_refused() {
    // With a small-order ephemeral key the DH output is zero whatever the
    // service's secret, so anyone could seal an introduction it accepts.
    use onion_crypto::aead::{seal, AeadKey};
    use onion_crypto::x25519::{StaticSecret, SMALL_ORDER_POINTS};
    use onion_crypto::{hmac::hkdf, ntor, sha256::sha256};
    use rand::SeedableRng;
    let seed = [0x89; 32];
    let mut net = NetworkBuilder::new().seed(79).middles(8).build();
    let service = {
        let hs = HiddenServiceHost::new(seed, 2, false); // manual mode
        let node = TestClientNode::new(net.authority, net.authority_key).with_hs(hs);
        net.sim
            .add_node("service", simnet::Iface::datacenter(), Box::new(node))
    };
    net.sim.run_until(secs(6));
    let rendezvous = net.relays[1].1;
    let enc_key = StaticSecret::from_bytes(sha256(&[&seed[..], b"enc"].concat())).public_key();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    net.sim.with_node::<TestClientNode, _>(service, |n, ctx| {
        let (hs, tor) = (n.hs.as_mut().unwrap(), &mut n.tor);
        let addr = hs.onion_addr().0;
        // An introduction valid in every other respect, sealed under `shared`.
        let mut intro = |eph: [u8; 32], shared: [u8; 32], cookie: u8| {
            let svc_id = addr[..20].try_into().unwrap();
            let (_, onionskin) = ntor::client_begin(&mut rng, svc_id, enc_key);
            let mut plain = rendezvous.to_vec();
            plain.extend_from_slice(&[0; 6]);
            plain.extend_from_slice(&[cookie; 20]);
            plain.extend_from_slice(&onionskin);
            let key = AeadKey::from_master(&hkdf(b"bento-intro", &shared, b"blob"));
            [&addr[..], &eph, &seal(&key, &[0; 12], &addr, &plain)].concat()
        };
        for (i, point) in SMALL_ORDER_POINTS.into_iter().enumerate() {
            let blob = intro(point, [0; 32], i as u8);
            assert!(!hs.handle_introduction(ctx, tor, &blob), "point {i}");
        }
        let eph = StaticSecret::from_bytes([3; 32]);
        let shared = eph.diffie_hellman(&enc_key).unwrap();
        let blob = intro(eph.public_key().0, shared, 0xff);
        assert!(hs.handle_introduction(ctx, tor, &blob), "honest key works");
    });
}

#[test]
fn replayed_introduction_is_dropped() {
    // A malicious introduction point replaying an INTRODUCE2 must not make
    // the service answer twice.
    let mut net = NetworkBuilder::new().seed(73).middles(8).build();
    let service = {
        let hs = HiddenServiceHost::new([0x88; 32], 2, false); // manual mode
        let node = TestClientNode::new(net.authority, net.authority_key).with_hs(hs);
        net.sim
            .add_node("service", simnet::Iface::datacenter(), Box::new(node))
    };
    let client = net.add_client("alice");
    net.sim.run_until(secs(6));
    let onion = net.sim.with_node::<TestClientNode, _>(service, |n, _| {
        assert!(n.hs.as_ref().unwrap().is_published());
        n.hs.as_ref().unwrap().onion_addr()
    });
    let r = net
        .sim
        .with_node::<TestClientNode, _>(client, |n, ctx| n.tor.connect_onion(ctx, onion).unwrap());
    net.sim.run_until(secs(10));
    // Manual mode surfaced the introduction; process it once, then replay.
    let blob = net.sim.with_node::<TestClientNode, _>(service, |n, _| {
        n.hs_events.iter().find_map(|e| match e {
            tor_net::HsEvent::Introduction(b) => Some(b.clone()),
            _ => None,
        })
    });
    let blob = blob.expect("introduction surfaced");
    net.sim.with_node::<TestClientNode, _>(service, |n, ctx| {
        let (hs, tor) = (n.hs.as_mut().unwrap(), &mut n.tor);
        assert!(hs.handle_introduction(ctx, tor, &blob), "first is answered");
        assert!(
            !hs.handle_introduction(ctx, tor, &blob),
            "replay is dropped"
        );
        assert_eq!(hs.replay_rejections, 1);
    });
    net.sim.run_until(secs(16));
    net.sim.with_node::<TestClientNode, _>(client, |n, _| {
        assert!(n.has_event(|e| matches!(e, TorEvent::RendezvousReady(h) if *h == r)));
    });
}

/// A relay host that notes how many messages each delivery carried.
struct CountingRelay {
    relay: tor_net::RelayCore,
    deliveries: Vec<usize>,
}

impl Node for CountingRelay {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.relay.on_start(ctx);
    }
    fn on_conn_open(&mut self, ctx: &mut Ctx<'_>, c: ConnId, p: NodeId, port: u16) {
        self.relay.on_conn_open(ctx, c, p, port);
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        self.deliveries.push(1);
        self.relay.on_msg(ctx, conn, msg);
    }
    fn on_msgs(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msgs: Vec<Vec<u8>>) {
        self.deliveries.push(msgs.len());
        self.relay.on_msgs(ctx, conn, msgs);
    }
}

/// A link peer that speaks raw cells: the test writes its sends by hand and
/// reads what came back.
struct RawPeer {
    relay: NodeId,
    conn: Option<ConnId>,
    inbox: Vec<Vec<u8>>,
}

impl Node for RawPeer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.conn = Some(ctx.connect(self.relay, tor_net::ports::OR_PORT));
    }
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, msg: Vec<u8>) {
        self.inbox.push(msg);
    }
}

#[test]
fn hostile_delivery_neither_panics_nor_desynchronises_the_relay() {
    // What a link peer can put into one delivery: cells the relay must drop
    // sit between cells it must switch, and only the latter may advance the
    // circuit's cipher and digest.
    use onion_crypto::ntor;
    use rand::SeedableRng;
    use tor_net::cell::{Cell, CellCmd, RelayCell, RelayCmd, PAYLOAD_LEN};
    use tor_net::relay_crypto::LayerCrypto;
    const CIRC: u32 = 1;

    let mut sim = simnet::Simulator::with_seed(5);
    let core = tor_net::RelayCore::new(tor_net::RelayConfig::middle("r", [0x51; 32]));
    let (fingerprint, onion_key) = (core.fingerprint(), core.descriptor(NodeId(0)).onion_key);
    let host = CountingRelay {
        relay: core,
        deliveries: Vec::new(),
    };
    let relay = sim.add_node("relay", simnet::Iface::ideal(), Box::new(host));
    let peer = RawPeer {
        relay,
        conn: None,
        inbox: Vec::new(),
    };
    let peer = sim.add_node("peer", simnet::Iface::ideal(), Box::new(peer));
    sim.run_to_quiescence();
    // The serial engine's connection ids are the same at both ends.
    let conn = sim.node_ref::<RawPeer>(peer).conn.expect("connected");
    // Hand `msgs` to the relay as one delivery — no engine forms one, so
    // straight into `on_msgs` — run, and hand back what the relay answered.
    let exchange = |sim: &mut simnet::Simulator, msgs: Vec<Vec<u8>>| {
        sim.with_node::<CountingRelay, _>(relay, |n, ctx| n.on_msgs(ctx, conn, msgs));
        sim.run_to_quiescence();
        sim.with_node::<RawPeer, _>(peer, |n, _| std::mem::take(&mut n.inbox))
    };

    // One-hop circuit, by hand.
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let (state, onionskin) = ntor::client_begin(&mut rng, fingerprint, onion_key);
    let create = Cell::with_payload(CIRC, CellCmd::Create, &onionskin).encode();
    let created = exchange(&mut sim, vec![create]);
    let created = Cell::decode(&created[0]).expect("a cell");
    assert_eq!(created.cmd, CellCmd::Created);
    let keys = ntor::client_finish(&state, &created.payload[..ntor::REPLY_LEN]).expect("keys");
    let mut layer = LayerCrypto::client_side(&keys);

    // A cell the relay answers when, and only when, it recognises it.
    let mut valid = |cookie: u8| {
        let rc = RelayCell::new(RelayCmd::EstablishRendezvous, 0, vec![cookie; 20]);
        let mut payload = rc.encode_payload();
        layer.seal(&mut payload);
        Cell::with_payload(CIRC, CellCmd::Relay, &payload).encode()
    };
    let short = {
        let mut cell = Cell::with_payload(CIRC, CellCmd::Relay, &[0xEE; PAYLOAD_LEN]).encode();
        cell.pop();
        cell
    };
    let stray = Cell::with_payload(99, CellCmd::Relay, &[0xDD; PAYLOAD_LEN]).encode();
    let replies = exchange(&mut sim, vec![valid(1), short, stray, valid(2)]);

    let host = sim.node_ref::<CountingRelay>(relay);
    assert_eq!(host.deliveries, [1, 4], "the burst was one delivery");
    let stats = host.relay.stats();
    // Create, two valid cells and the stray one; the short message is no
    // cell.
    assert_eq!(stats.cells_in, 4);
    // Two layers stripped and two replies sealed: the dropped messages
    // consumed no keystream, or the second valid cell would have been noise.
    assert_eq!(stats.crypto_bytes, 4 * PAYLOAD_LEN as u64);
    let mut unlayer = LayerCrypto::client_side(&keys);
    let mut recognised = |wire: &[u8]| {
        let mut payload = *Cell::wire_payload(wire).expect("a cell");
        assert!(unlayer.unseal(&mut payload), "backward stream in step");
        RelayCell::parse_payload(&payload).expect("parses").cmd
    };
    assert_eq!(replies.len(), 2, "both valid cells were recognised");
    for reply in &replies {
        assert_eq!(recognised(reply), RelayCmd::RendezvousEstablished);
    }

    // A Destroy between two cells of one delivery takes effect before the
    // second: the third valid cell (sealed by a state that sealed exactly
    // two before it) is answered, the fourth finds no circuit.
    let destroy = Cell::new(CIRC, CellCmd::Destroy).encode();
    let replies = exchange(&mut sim, vec![valid(3), destroy, valid(4)]);
    assert_eq!(replies.len(), 2);
    assert_eq!(recognised(&replies[0]), RelayCmd::RendezvousEstablished);
    assert_eq!(Cell::peek_cmd(&replies[1]), Some(CellCmd::Destroy));
    let host = sim.node_ref::<CountingRelay>(relay);
    assert_eq!(host.deliveries, [1, 4, 3]);
    assert_eq!(host.relay.stats().cells_in, 7);
    assert_eq!(host.relay.stats().crypto_bytes, 6 * PAYLOAD_LEN as u64);
}
