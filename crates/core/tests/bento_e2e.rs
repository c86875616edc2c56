//! End-to-end Bento tests on the simulated Tor network: the full life
//! cycle of §5 (policy fetch, attestation, upload over the attested
//! channel, invocation, token checks, shutdown) and the security
//! properties of §6.

use bento::function::{FnStreamTarget, Function, FunctionApi, FunctionRegistry};
use bento::manifest::Manifest;
use bento::protocol::{FunctionSpec, ImageKind};

use bento::testnet::{BentoNetwork, Session};
use bento::tokens::Token;
use bento::{BentoBoxNode, BentoClientNode, BentoEvent, MiddleboxPolicy, StemCall};
use sandbox::seccomp::SyscallClass;
use simnet::{FaultPlan, NodeId, SimDuration, SimTime, Simulator};
use tor_net::client::{CircuitHandle, TorEvent};
use tor_net::hs::HiddenServiceHost;
use tor_net::netbuild::TestClientNode;
use tor_net::stream_frame::encode_frame;
use tor_net::StreamTarget;

/// Test function: echoes its input back, optionally storing it first.
struct EchoFn {
    stored: bool,
}
impl Function for EchoFn {
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, input: Vec<u8>) {
        if self.stored {
            api.fs_write("last-input", &input).expect("fs allowed");
        }
        api.output(input);
        api.output_end();
    }
}

/// Test function: floods its invoker with output until the network budget
/// kills it.
struct FlooderFn;
impl Function for FlooderFn {
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, _input: Vec<u8>) {
        // Tries to emit 100 MB; far beyond its budget.
        for _ in 0..200 {
            api.output(vec![0xEE; 512 * 1024]);
        }
        api.output_end();
    }
}

/// Test function: burns CPU until the cgroup kills it (§6.2 resource
/// exhaustion).
struct HogFn;
impl Function for HogFn {
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, _input: Vec<u8>) {
        // The policy CPU budget is finite; this loop must be stopped by
        // the container, not by cooperation.
        loop {
            if api.cpu(60_000).is_err() {
                // The container is already dead; nothing we output matters.
                api.output(b"still alive?!".to_vec());
                return;
            }
        }
    }
}

/// Test function: tries forbidden things and reports what happened.
struct ProbeFn;
impl Function for ProbeFn {
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, _input: Vec<u8>) {
        let report = vec![
            // The manifest didn't request Write: must be refused.
            match api.fs_write("x", b"y") {
                Err(_) => b'W',
                Ok(_) => b'!',
            },
            // Port 22 isn't in the web-only exit policy: must be refused.
            match api.connect(simnet::NodeId(0), 22) {
                Err(_) => b'C',
                Ok(_) => b'!',
            },
        ];
        api.output(report);
        api.output_end();
    }
}

/// Test function: holds what its invocations ask for.
/// - `o` + a node id: a direct connection and four circuits to that node's
///   port 80, and a stream on each circuit once it is ready. Every
///   connected stream is reported as "circ stream\n".
/// - `c`: closes every stream and the connection it holds.
/// - `r`: a rendezvous with a service that does not exist.
/// - `s` + two handles: asks for "/index" on that circuit and stream,
///   whoever holds them.
///
/// A failed circuit is reported as "failed\n"; stream data is output as is.
#[derive(Default)]
struct HolderFn {
    web: Option<NodeId>,
    conn: Option<u64>,
    streams: Vec<(u64, u64)>,
}
impl Function for HolderFn {
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, input: Vec<u8>) {
        let word = |i: usize| input.get(i..i + 8).and_then(|b| b.try_into().ok());
        match input.first() {
            Some(b'o') => {
                let id = input.get(1..5).and_then(|b| b.try_into().ok());
                let web = NodeId(u32::from_le_bytes(id.unwrap_or_default()));
                self.web = Some(web);
                self.conn = api.connect(web, 80).ok();
                for _ in 0..4 {
                    api.build_circuit(Some((web, 80)));
                }
            }
            Some(b'c') => {
                for (circ, stream) in self.streams.drain(..) {
                    api.stream_close(circ, stream);
                }
                if let Some(conn) = self.conn.take() {
                    api.net_close(conn);
                }
                api.output_end();
            }
            Some(b'r') => {
                api.connect_onion([0x42; 32]);
            }
            Some(b's') => {
                let (circ, stream) = (word(1).unwrap_or_default(), word(9).unwrap_or_default());
                let (circ, stream) = (u64::from_le_bytes(circ), u64::from_le_bytes(stream));
                api.stream_send(circ, stream, encode_frame(b"/index"));
                api.output_end();
            }
            _ => api.output_end(),
        }
    }
    fn on_circuit_ready(&mut self, api: &mut FunctionApi<'_>, circ: u64) {
        if let Some(web) = self.web {
            let stream = api.open_stream(circ, FnStreamTarget::Node(web, 80));
            self.streams.push((circ, stream));
        }
    }
    fn on_stream_connected(&mut self, api: &mut FunctionApi<'_>, circ: u64, stream: u64) {
        api.output(format!("{circ} {stream}\n").into_bytes());
        api.output_end();
    }
    fn on_stream_data(&mut self, api: &mut FunctionApi<'_>, _: u64, _: u64, data: Vec<u8>) {
        api.output(data);
        api.output_end();
    }
    fn on_circuit_failed(&mut self, api: &mut FunctionApi<'_>, circ: u64) {
        self.streams.retain(|&(c, _)| c != circ);
        api.output(b"failed\n".to_vec());
        api.output_end();
    }
}

/// Test function: a hidden service with three introduction points,
/// launched on invocation; it says "published" once it is reachable, and
/// refuses every stream a client opens to it.
struct ServiceFn;
impl Function for ServiceFn {
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, _input: Vec<u8>) {
        api.create_hs(SERVICE_SEED, 3, true);
    }
    fn on_hs_published(&mut self, api: &mut FunctionApi<'_>, _hs: u64) {
        api.output(b"published".to_vec());
        api.output_end();
    }
    fn on_incoming_stream(&mut self, api: &mut FunctionApi<'_>, circ: u64, stream: u64, _: u16) {
        api.respond_incoming(circ, stream, false);
    }
}

const SERVICE_SEED: [u8; 32] = [0x5E; 32];

fn registry() -> FunctionRegistry {
    fn make_echo(_p: &[u8]) -> Box<dyn Function> {
        Box::new(EchoFn { stored: false })
    }
    fn make_echo_store(_p: &[u8]) -> Box<dyn Function> {
        Box::new(EchoFn { stored: true })
    }
    fn make_probe(_p: &[u8]) -> Box<dyn Function> {
        Box::new(ProbeFn)
    }
    fn make_hog(_p: &[u8]) -> Box<dyn Function> {
        Box::new(HogFn)
    }
    fn make_flooder(_p: &[u8]) -> Box<dyn Function> {
        Box::new(FlooderFn)
    }
    fn make_holder(_p: &[u8]) -> Box<dyn Function> {
        Box::<HolderFn>::default()
    }
    fn make_service(_p: &[u8]) -> Box<dyn Function> {
        Box::new(ServiceFn)
    }
    let mut r = FunctionRegistry::new();
    r.register("echo", make_echo);
    r.register("echo-store", make_echo_store);
    r.register("probe", make_probe);
    r.register("hog", make_hog);
    r.register("flooder", make_flooder);
    r.register("holder", make_holder);
    r.register("service", make_service);
    r
}

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

#[test]
fn full_lifecycle_plain_image() {
    let mut bn = BentoNetwork::build(101, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo"),
    };
    let echo = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    bn.invoke(&echo, b"hello bento".to_vec());
    bn.net.sim.run_until(secs(14));
    bn.net
        .sim
        .with_node::<BentoClientNode, _>(client, |n, ctx| {
            assert_eq!(n.output_bytes(echo.conn), b"hello bento");
            assert!(n.output_done(echo.conn));
            n.bento.shutdown(ctx, &mut n.tor, echo.conn, echo.shutdown);
        });
    bn.net.sim.run_until(secs(17));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert!(n
        .bento_events
        .iter()
        .any(|e| matches!(e, BentoEvent::ShutdownAck(c) if *c == echo.conn)));
    // The box no longer runs the function.
    let bx: &bento::BentoBoxNode = bn.net.sim.node_ref(bn.boxes[0]);
    assert_eq!(bx.bento.live_functions(), 0);
}

#[test]
fn sgx_image_attests_and_uploads_sealed() {
    let mut bn = BentoNetwork::build(102, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo-store")
            .with_disk(1 << 20)
            .with_sgx(),
    };
    // `install` panics unless the attestation verified and the box took the
    // sealed upload.
    let echo = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert!(!n
        .bento_events
        .iter()
        .any(|e| matches!(e, BentoEvent::AttestationFailed(..))));
    bn.invoke(&echo, b"secret payload".to_vec());
    bn.net.sim.run_until(secs(14));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert_eq!(n.output_bytes(echo.conn), b"secret payload");
}

#[test]
fn wrong_invocation_token_rejected() {
    let mut bn = BentoNetwork::build(103, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo"),
    };
    let echo = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    // An attacker without the token cannot inject input (§6.1).
    let forged = Session {
        invocation: Token([0xEE; 32]),
        ..echo
    };
    bn.invoke(&forged, b"inject".to_vec());
    bn.net.sim.run_until(secs(14));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert!(
        n.output_bytes(echo.conn).is_empty(),
        "no output for bad token"
    );
    assert_eq!(n.rejection(echo.conn), Some("bad invocation token"));
}

#[test]
fn invocation_token_cannot_shut_down() {
    let mut bn = BentoNetwork::build(104, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo"),
    };
    let echo = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    bn.net
        .sim
        .with_node::<BentoClientNode, _>(client, |n, ctx| {
            // Presenting the invocation token as a shutdown token must fail —
            // the §5.3 sharing model depends on it.
            n.bento
                .shutdown(ctx, &mut n.tor, echo.conn, echo.invocation);
        });
    bn.net.sim.run_until(secs(14));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert_eq!(n.rejection(echo.conn), Some("bad shutdown token"));
    let bx: &bento::BentoBoxNode = bn.net.sim.node_ref(bn.boxes[0]);
    assert_eq!(bx.bento.live_functions(), 1, "function still running");
}

#[test]
fn manifest_exceeding_policy_rejected() {
    // A no-storage node must refuse a function whose manifest wants disk.
    let mut bn = BentoNetwork::build(105, 1, MiddleboxPolicy::no_storage(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let conn = bn.connect(client, 0);
    bn.net.sim.run_until(secs(5));
    let three = SimDuration::from_secs(3);
    let container = bn
        .request_container(client, conn, ImageKind::Plain, three, secs(8))
        .expect("container");
    let wants_disk = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo-store").with_disk(1 << 20),
    };
    // The driver hands the refusal back at the step that drew it...
    let refusal = bn.upload(&container, &wants_disk, secs(11)).unwrap_err();
    assert!(refusal.contains("not offered"), "{refusal}");
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert!(!n.upload_ok(conn));
    // ...and the box goes on serving: the next container takes a function
    // the policy does allow.
    let next = bn
        .request_container(client, conn, ImageKind::Plain, three, secs(14))
        .expect("box still serving");
    let echo = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo"),
    };
    assert_eq!(bn.upload(&next, &echo, secs(17)), Ok(()));
}

#[test]
fn exhausted_attestation_service_refuses_sgx_and_the_box_keeps_serving() {
    use rand::SeedableRng;
    let mut bn = BentoNetwork::build(112, 1, MiddleboxPolicy::permissive(), registry);
    {
        // Spend every one-time signature of the network's shared service.
        let mut rng = rand::rngs::StdRng::seed_from_u64(112);
        let mut ias = bn.ias.lock().unwrap();
        let platform = ias.provision_platform(7, &mut rng);
        let enclave = conclave::Enclave::create(7, b"any image", 1 << 20, platform.tcb_version);
        let quote = platform.quote(&enclave, [0; 32]);
        for _ in 0..64 {
            ias.verify_quote(&quote).unwrap();
        }
    }
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let conn = bn.connect(client, 0);
    bn.net.sim.run_until(secs(5));
    let three = SimDuration::from_secs(3);
    let refusal = bn
        .request_container(client, conn, ImageKind::Sgx, three, secs(8))
        .unwrap_err();
    assert!(refusal.starts_with("attestation failed:"), "{refusal}");
    let bx: &bento::BentoBoxNode = bn.net.sim.node_ref(bn.boxes[0]);
    assert_eq!(bx.bento.epc().resident(), 0, "the reservation was returned");
    bn.request_container(client, conn, ImageKind::Plain, three, secs(11))
        .expect("box still serving");
}

#[test]
fn unknown_function_rejected() {
    let mut bn = BentoNetwork::build(106, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let conn = bn.connect(client, 0);
    bn.net.sim.run_until(secs(5));
    let container = bn
        .request_container(
            client,
            conn,
            ImageKind::Plain,
            SimDuration::from_secs(3),
            secs(8),
        )
        .expect("container");
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("not-in-registry"),
    };
    let refusal = bn.upload(&container, &spec, secs(11)).unwrap_err();
    assert!(refusal.contains("unknown function"), "{refusal}");
}

#[test]
fn sandbox_enforces_manifest_at_runtime() {
    let mut bn = BentoNetwork::build(107, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    // The probe asks only for Connect; not Write.
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("probe").with_syscalls([SyscallClass::Connect]),
    };
    let probe = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    bn.invoke(&probe, vec![]);
    bn.net.sim.run_until(secs(14));
    // 'W' = write refused by seccomp; 'C' = connect refused by the
    // exit-policy-derived net rules.
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert_eq!(n.output_bytes(probe.conn), b"WC");
}

#[test]
fn policy_query_returns_node_policy() {
    let mut bn = BentoNetwork::build(108, 1, MiddleboxPolicy::no_storage(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let conn = bn.connect(client, 0);
    bn.net
        .sim
        .with_node::<BentoClientNode, _>(client, |n, ctx| {
            n.bento.get_policy(ctx, &mut n.tor, conn);
        });
    bn.net.sim.run_until(secs(6));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    let got = n.bento_events.iter().find_map(|e| match e {
        BentoEvent::Policy(c, p) if *c == conn => Some(p.clone()),
        _ => None,
    });
    let p = got.expect("policy received");
    assert_eq!(p, MiddleboxPolicy::no_storage());
    assert!(!p.syscalls.contains(&SyscallClass::Write));
}

#[test]
fn invocation_token_shareable_across_clients() {
    let mut bn = BentoNetwork::build(109, 1, MiddleboxPolicy::permissive(), registry);
    let alice = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo"),
    };
    let echo = bn.install(alice, 0, &spec, [secs(5), secs(8), secs(11)]);
    // Bob receives the invocation token out of band and uses the function.
    let bob = bn.add_bento_client("bob");
    bn.net.sim.run_until(secs(13));
    let from_bob = Session {
        client: bob,
        conn: bn.connect(bob, 0),
        ..echo
    };
    bn.net.sim.run_until(secs(16));
    bn.invoke(&from_bob, b"from bob".to_vec());
    bn.net.sim.run_until(secs(20));
    let n: &BentoClientNode = bn.net.sim.node_ref(bob);
    assert_eq!(n.output_bytes(from_bob.conn), b"from bob");
}

#[test]
fn function_limit_enforced() {
    let mut policy = MiddleboxPolicy::permissive();
    policy.max_functions = 1;
    let mut bn = BentoNetwork::build(110, 1, policy, registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let conn = bn.connect(client, 0);
    bn.net.sim.run_until(secs(5));
    let three = SimDuration::from_secs(3);
    let first = bn
        .request_container(client, conn, ImageKind::Plain, three, secs(8))
        .expect("container");
    // A second container request must be refused, at that step.
    let second = bn.request_container(client, conn, ImageKind::Plain, three, secs(11));
    assert_eq!(second, Err("function limit reached".to_string()));
    // The refusal is not sticky: once the first container is shut down the
    // same request goes through.
    bn.net
        .sim
        .with_node::<BentoClientNode, _>(client, |n, ctx| {
            n.bento.shutdown(ctx, &mut n.tor, conn, first.shutdown);
        });
    bn.net.sim.run_until(secs(14));
    let third = bn
        .request_container(client, conn, ImageKind::Plain, three, secs(17))
        .expect("slot freed by the shutdown");
    assert_ne!(third.container, first.container);
}

#[test]
fn second_upload_to_same_container_rejected() {
    let mut bn = BentoNetwork::build(111, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo"),
    };
    let echo = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    // A second upload (e.g. trying to swap the code under the same tokens)
    // must be refused.
    let swap = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("probe"),
    };
    assert_eq!(
        bn.upload(&echo, &swap, secs(14)),
        Err("container not accepting uploads".to_string())
    );
}

#[test]
fn cross_client_sealed_upload_rejected() {
    // Bob opens his own attested channel to the same box, then tries to
    // install code into *Alice's* container: his payload is sealed under
    // the wrong channel and the conclave refuses it.
    let mut bn = BentoNetwork::build(112, 1, MiddleboxPolicy::permissive(), registry);
    let alice = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let conn_a = bn.connect(alice, 0);
    bn.net.sim.run_until(secs(5));
    let alices = bn
        .request_container(
            alice,
            conn_a,
            ImageKind::Sgx,
            SimDuration::from_secs(3),
            secs(8),
        )
        .expect("alice's container");
    let bob = bn.add_bento_client("bob");
    bn.net.sim.run_until(secs(10));
    let conn_b = bn.connect(bob, 0);
    bn.net.sim.run_until(secs(13));
    let bobs = bn
        .request_container(
            bob,
            conn_b,
            ImageKind::Sgx,
            SimDuration::from_secs(4),
            secs(17),
        )
        .expect("bob has his own channel");
    // Target Alice's container with Bob's channel.
    let hijack = Session {
        container: alices.container,
        ..bobs
    };
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo").with_sgx(),
    };
    assert_eq!(
        bn.upload(&hijack, &spec, secs(21)),
        Err("sealed payload failed to open".to_string())
    );
}

#[test]
fn outputs_route_to_most_recent_invoker() {
    // Two clients share an invocation token; outputs follow whoever invoked
    // last (§5.3's sharing semantics).
    let mut bn = BentoNetwork::build(113, 1, MiddleboxPolicy::permissive(), registry);
    let alice = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo"),
    };
    let echo = bn.install(alice, 0, &spec, [secs(5), secs(8), secs(11)]);
    let bob = bn.add_bento_client("bob");
    bn.net.sim.run_until(secs(13));
    let from_bob = Session {
        client: bob,
        conn: bn.connect(bob, 0),
        ..echo
    };
    bn.net.sim.run_until(secs(16));
    // Alice invokes, then Bob invokes: each gets their own output.
    bn.invoke(&echo, b"for alice".to_vec());
    bn.net.sim.run_until(secs(19));
    bn.invoke(&from_bob, b"for bob".to_vec());
    bn.net.sim.run_until(secs(24));
    let a: &BentoClientNode = bn.net.sim.node_ref(alice);
    assert_eq!(a.output_bytes(echo.conn), b"for alice");
    let b: &BentoClientNode = bn.net.sim.node_ref(bob);
    assert_eq!(b.output_bytes(from_bob.conn), b"for bob");
}

#[test]
fn resource_exhaustion_kills_function_not_box() {
    let mut bn = BentoNetwork::build(114, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("hog"),
    };
    let hog = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    bn.invoke(&hog, vec![]);
    bn.net.sim.run_until(secs(14));
    // The hog's container was OOM/CPU-killed; its output never escaped.
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert!(
        n.output_bytes(hog.conn).is_empty(),
        "killed function emits nothing"
    );
    let bx: &bento::BentoBoxNode = bn.net.sim.node_ref(bn.boxes[0]);
    assert_eq!(bx.bento.live_functions(), 0, "container torn down");
    // The box still serves new work: the same client, on the same
    // connection, gets a second container — its own id, its own tokens —
    // and installs echo in it.
    let echo = bn
        .request_container(
            client,
            hog.conn,
            ImageKind::Plain,
            SimDuration::from_secs(4),
            secs(18),
        )
        .expect("fresh container after the kill");
    assert_ne!(echo.container, hog.container);
    assert_ne!(echo.invocation, hog.invocation);
    assert_ne!(echo.shutdown, hog.shutdown);
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo"),
    };
    bn.upload(&echo, &spec, secs(22)).expect("echo installed");
    bn.invoke(&echo, b"box is fine".to_vec());
    bn.net.sim.run_until(secs(26));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert_eq!(n.output_bytes(echo.conn), b"box is fine");
}

#[test]
fn network_budget_kills_flooder() {
    // Outputs travel on the client's session; charge_network must stop the
    // function once its cgroup network budget is gone.
    let mut bn = BentoNetwork::build(115, 1, MiddleboxPolicy::permissive(), registry);
    // The operator caps each function at 1 MB of cumulative traffic.
    let bx0 = bn.boxes[0];
    bn.net.sim.with_node::<bento::BentoBoxNode, _>(bx0, |n, _| {
        n.bento.set_function_network_budget(1 << 20);
    });
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("flooder"),
    };
    let flooder = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    bn.invoke(&flooder, vec![]);
    // Note: applying actions stops as soon as the container dies, so only
    // the data within budget ever leaves the box.
    bn.net.sim.run_until(secs(40));
    let bx: &bento::BentoBoxNode = bn.net.sim.node_ref(bx0);
    assert_eq!(bx.bento.live_functions(), 0, "flooder killed");
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    let got = n.output_bytes(flooder.conn).len() as u64;
    // Budget 1 MB; attempted 100 MB. At most ~budget + one action's
    // worth escaped before the kill.
    assert!(got <= (1 << 20) + 512 * 1024, "flood truncated, got {got}");
}

#[test]
fn box_crash_recovers_functions_from_sealed_storage() {
    // Upload echo, crash the whole box, restart it: the function record is
    // replayed from the sealed store once the reborn onion proxy has a
    // consensus, and the client re-attaches with its ORIGINAL tokens.
    let mut bn = BentoNetwork::build(108, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo"),
    };
    let echo = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    bn.invoke(&echo, b"before crash".to_vec());
    bn.net.sim.run_until(secs(14));
    let bx = bn.boxes[0];
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert_eq!(n.output_bytes(echo.conn), b"before crash");
    let b: &bento::BentoBoxNode = bn.net.sim.node_ref(bx);
    assert_eq!(b.bento.live_functions(), 1);
    assert_eq!(b.bento.sealed_functions(), 1, "record sealed to disk");

    // The box dies and comes back four seconds later.
    bn.net
        .sim
        .inject_fault(secs(16), simnet::FaultAction::Crash(bx));
    bn.net
        .sim
        .inject_fault(secs(20), simnet::FaultAction::Restart(bx));
    // Give the reborn box time to re-register its relay, re-fetch the
    // consensus, and replay the sealed store.
    bn.net.sim.run_until(secs(40));
    let b: &bento::BentoBoxNode = bn.net.sim.node_ref(bx);
    assert_eq!(
        b.bento.live_functions(),
        1,
        "function restored from sealed storage"
    );

    // The client's old session died with the box; it reconnects and
    // invokes with the token minted before the crash.
    let reattached = Session {
        conn: bn.connect(client, 0),
        ..echo
    };
    bn.net.sim.run_until(secs(45));
    bn.invoke(&reattached, b"after crash".to_vec());
    bn.net.sim.run_until(secs(50));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert_eq!(
        n.output_bytes(reattached.conn),
        b"after crash",
        "original invocation token honoured by the recovered function"
    );
}

#[test]
fn intentional_shutdown_is_not_resurrected_by_recovery() {
    // Shutdown erases the sealed record, so a crash + restart after an
    // intentional teardown must NOT bring the function back.
    let mut bn = BentoNetwork::build(109, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo"),
    };
    let echo = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    bn.net
        .sim
        .with_node::<BentoClientNode, _>(client, |n, ctx| {
            n.bento.shutdown(ctx, &mut n.tor, echo.conn, echo.shutdown);
        });
    bn.net.sim.run_until(secs(14));
    let bx = bn.boxes[0];
    let b: &bento::BentoBoxNode = bn.net.sim.node_ref(bx);
    assert_eq!(b.bento.live_functions(), 0);
    assert_eq!(b.bento.sealed_functions(), 0, "sealed record erased");
    bn.net
        .sim
        .inject_fault(secs(16), simnet::FaultAction::Crash(bx));
    bn.net
        .sim
        .inject_fault(secs(20), simnet::FaultAction::Restart(bx));
    bn.net.sim.run_until(secs(40));
    let b: &bento::BentoBoxNode = bn.net.sim.node_ref(bx);
    assert_eq!(b.bento.live_functions(), 0, "nothing resurrected");
}

#[test]
fn step_until_stops_at_the_first_true_step_or_at_the_deadline() {
    let mut bn = BentoNetwork::build(116, 1, MiddleboxPolicy::permissive(), registry);
    let sim = &mut bn.net.sim;
    let step = SimDuration::from_millis(300);
    // Never true: 0.3, 0.6, 0.9, then the last step cut short at 1.0.
    let mut asked = Vec::new();
    let held = sim.step_until(step, secs(1), |sim| {
        asked.push(sim.now().as_millis());
        false
    });
    assert!(!held);
    assert_eq!(asked, [300, 600, 900, 1000]);
    assert_eq!(sim.now(), secs(1));
    // True from 1.5 s on: 1.3 is asked and passed over, 1.6 is where it stops.
    let mut asked = 0;
    let held = sim.step_until(step, secs(5), |sim| {
        asked += 1;
        sim.now().as_millis() >= 1500
    });
    assert!(held);
    assert_eq!(asked, 2);
    assert_eq!(sim.now().as_millis(), 1600);
    // Already at the deadline: nothing runs, nothing is asked.
    assert!(!sim.step_until(step, secs(1), |_| panic!("asked past the deadline")));
}

/// Run until `client` has logged a `ShutdownAck` on `conn`.
fn shutdown_and_wait(bn: &mut BentoNetwork, s: &Session, deadline: SimTime) -> bool {
    let (client, conn) = (s.client, s.conn);
    bn.net
        .sim
        .with_node::<BentoClientNode, _>(client, |n, ctx| {
            n.bento.shutdown(ctx, &mut n.tor, conn, s.shutdown)
        });
    bn.net
        .sim
        .step_until(SimDuration::from_millis(100), deadline, |sim| {
            sim.node_ref::<BentoClientNode>(client)
                .bento_events
                .iter()
                .any(|e| matches!(e, BentoEvent::ShutdownAck(c) if *c == conn))
        })
}

/// The leak gate above `simnet`: a box serving a stream of short-lived
/// functions keeps nothing of the finished ones. After 50 sessions of
/// connect → container → upload → invoke → shutdown → `close_box`, no
/// container, session or circuit is left on the client, the box or any
/// relay.
#[test]
fn fifty_sessions_leave_no_container_session_or_circuit() {
    let mut bn = BentoNetwork::build(117, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo"),
    };
    let after = |bn: &BentoNetwork, s: u64| bn.net.sim.now() + SimDuration::from_secs(s);
    for i in 0..50u8 {
        let schedule = [after(&bn, 2), after(&bn, 4), after(&bn, 6)];
        let s = bn.install(client, 0, &spec, schedule);
        let step = SimDuration::from_millis(100);
        assert!(
            bn.invoke_and_wait(&s, vec![i], step, after(&bn, 10)),
            "session {i} ran"
        );
        let by = after(&bn, 10);
        assert!(shutdown_and_wait(&mut bn, &s, by), "session {i} shut down");
        bn.net
            .sim
            .with_node::<BentoClientNode, _>(client, |n, ctx| {
                n.bento.close_box(ctx, &mut n.tor, s.conn)
            });
    }
    // Let the DESTROYs reach every hop.
    bn.net.sim.run_until(after(&bn, 5));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert_eq!(n.bento.live_sessions(), 0, "client sessions");
    assert_eq!(n.tor.live_circuits(), 0, "client circuits");
    let bx: &bento::BentoBoxNode = bn.net.sim.node_ref(bn.boxes[0]);
    assert_eq!(bx.bento.live_functions(), 0, "box containers");
    assert_eq!(bx.bento.held_handles(), 0, "box function handles");
    assert!(bx.bento.operator_storage_view().is_empty(), "box runtimes");
    assert_eq!(bx.tor.live_circuits(), 0, "box onion-proxy circuits");
    assert_eq!(bx.relay.live_circuits(), 0, "box relay circuits");
    for (addr, _) in &bn.net.relays {
        if !bn.boxes.contains(addr) {
            let r: &tor_net::relay::RelayNode = bn.net.sim.node_ref(*addr);
            assert_eq!(r.relay.live_circuits(), 0, "relay {addr:?} circuits");
        }
    }
}

/// Shutdown frees a plain container's files with the container: the
/// operator no longer sees them (§5.3's shutdown token ends the function).
#[test]
fn shutdown_removes_a_plain_containers_files_from_the_operator_view() {
    let mut bn = BentoNetwork::build(118, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("echo-store").with_disk(1 << 20),
    };
    let echo = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    let step = SimDuration::from_millis(100);
    assert!(bn.invoke_and_wait(&echo, b"kept on disk".to_vec(), step, secs(20)));
    let view = |bn: &BentoNetwork| {
        let bx: &bento::BentoBoxNode = bn.net.sim.node_ref(bn.boxes[0]);
        bx.bento.operator_storage_view()
    };
    let files = view(&bn);
    assert_eq!(files.len(), 1, "one container");
    assert_eq!(files[0].0, echo.container);
    assert_eq!(files[0].1.len(), 1, "its one file");
    assert_eq!(files[0].1[0].1, b"kept on disk", "plain image: raw bytes");
    assert!(shutdown_and_wait(&mut bn, &echo, secs(30)));
    assert!(view(&bn).is_empty(), "files gone with the container");
}

/// The box's handle count, read from the simulator.
fn held(sim: &Simulator, bx: NodeId) -> usize {
    sim.node_ref::<BentoBoxNode>(bx).bento.held_handles()
}

/// A network with a web server, a client and one `holder` installed, which
/// is then asked to open its connection, circuits and streams toward the
/// web server: nine handles.
fn holding_network(seed: u64) -> (BentoNetwork, NodeId, Session) {
    let mut bn = BentoNetwork::build(seed, 1, MiddleboxPolicy::permissive(), registry);
    let page = vec![("/index".to_string(), vec![b"the page".to_vec()])];
    let web = bn.net.add_web_server("web", page);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("holder")
            .with_syscalls([SyscallClass::Connect])
            .with_stem([
                StemCall::NewCircuit,
                StemCall::OpenStream,
                StemCall::SendStream,
                StemCall::ConnectOnion,
            ]),
    };
    let s = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    bn.invoke(&s, [&b"o"[..], &web.0.to_le_bytes()].concat());
    let bx = bn.boxes[0];
    let step = SimDuration::from_millis(100);
    // Each connected stream is reported over the invoker's circuit.
    let reported = |sim: &Simulator| {
        let n: &BentoClientNode = sim.node_ref(client);
        n.output_bytes(s.conn)
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
    };
    assert!(
        bn.net
            .sim
            .step_until(step, secs(30), |sim| reported(sim) == 4),
        "four streams connected"
    );
    assert_eq!(
        held(&bn.net.sim, bx),
        9,
        "1 connection, 4 circuits and 4 streams held"
    );
    (bn, web, s)
}

/// A live container whose objects die holds handles only for the live
/// ones: a crashed relay takes the circuits through it (with their
/// streams), and a crashed web server ends the other streams and closes
/// the direct connection.
#[test]
fn a_live_container_holds_handles_only_for_live_objects() {
    let (mut bn, web, _s) = holding_network(119);
    let bx = bn.boxes[0];
    let b: &BentoBoxNode = bn.net.sim.node_ref(bx);
    assert_eq!(b.tor.live_circuits(), 4);
    // A relay on some of the four paths but not on all of them.
    let paths: Vec<_> = (0..64)
        .map(|i| b.tor.circuit_path(CircuitHandle(i)))
        .filter(|p| !p.is_empty())
        .collect();
    assert_eq!(paths.len(), 4);
    let (relay, _) = *bn
        .net
        .relays
        .iter()
        .find(|(_, fp)| (1..4).contains(&paths.iter().filter(|p| p.contains(fp)).count()))
        .expect("a relay on some paths only");
    let at = bn.net.sim.now() + SimDuration::from_secs(1);
    bn.net
        .sim
        .install_faults(FaultPlan::new().crash(at, relay).crash(at, web));
    bn.net.sim.run_until(at + SimDuration::from_secs(10));
    let b: &BentoBoxNode = bn.net.sim.node_ref(bx);
    assert_eq!(b.bento.live_functions(), 1, "the container lives on");
    let live = b.tor.live_circuits();
    assert!(live < 4, "some circuits died");
    assert_eq!(b.bento.held_handles(), live, "one handle a live circuit");
}

/// What a function closes leaves its table, and so does a rendezvous that
/// fails.
#[test]
fn closed_streams_connections_and_failed_rendezvous_leave_the_table() {
    let (mut bn, _web, s) = holding_network(120);
    let bx = bn.boxes[0];
    let step = SimDuration::from_millis(100);
    let by = bn.net.sim.now() + SimDuration::from_secs(10);
    assert!(bn.invoke_and_wait(&s, b"c".to_vec(), step, by));
    assert_eq!(held(&bn.net.sim, bx), 4, "the four circuits");
    let by = bn.net.sim.now() + SimDuration::from_secs(60);
    assert!(bn.invoke_and_wait(&s, b"r".to_vec(), step, by));
    let n: &BentoClientNode = bn.net.sim.node_ref(s.client);
    assert!(n.output_bytes(s.conn).ends_with(b"failed\n"));
    assert_eq!(held(&bn.net.sim, bx), 4, "the rendezvous circuit is gone");
    let b: &BentoBoxNode = bn.net.sim.node_ref(bx);
    assert_eq!(b.tor.live_circuits(), 4);
}

/// A function names only what it holds: function B naming function A's
/// circuit and stream handles is refused as not their owner, the refusal
/// is counted, and A's circuit keeps working. Once A is shut down nothing
/// of it is held.
#[test]
fn a_function_cannot_use_another_functions_circuit() {
    let (mut bn, _web, a) = holding_network(121);
    let bx = bn.boxes[0];
    let n: &BentoClientNode = bn.net.sim.node_ref(a.client);
    let out = String::from_utf8(n.output_bytes(a.conn)).expect("text");
    let mut first = out.lines().next().expect("a stream").split(' ');
    let mut handle = || {
        first
            .next()
            .and_then(|h| h.parse::<u64>().ok())
            .expect("handle")
    };
    let (circ, stream) = (handle(), handle());
    let send = [&b"s"[..], &circ.to_le_bytes(), &stream.to_le_bytes()].concat();
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("holder").with_stem([StemCall::SendStream]),
    };
    let after = |bn: &BentoNetwork, s: u64| bn.net.sim.now() + SimDuration::from_secs(s);
    let schedule = [after(&bn, 3), after(&bn, 6), after(&bn, 9)];
    let b = bn.install(a.client, 0, &spec, schedule);
    let violations = |bn: &BentoNetwork| {
        let b: &BentoBoxNode = bn.net.sim.node_ref(bx);
        b.bento.stem_violations()
    };
    assert_eq!(violations(&bn), 0);
    let step = SimDuration::from_millis(100);
    let by = after(&bn, 10);
    assert!(bn.invoke_and_wait(&b, send.clone(), step, by));
    assert_eq!(violations(&bn), 1, "B refused as not the owner");
    assert_eq!(held(&bn.net.sim, bx), 9, "B holds nothing");
    // A's own request on the same handles is answered.
    let by = after(&bn, 10);
    assert!(bn.invoke_and_wait(&a, send.clone(), step, by));
    bn.net.sim.run_until(after(&bn, 3));
    let n: &BentoClientNode = bn.net.sim.node_ref(a.client);
    let page = encode_frame(b"the page");
    assert!(n.output_bytes(a.conn).ends_with(&page), "A's circuit works");
    assert!(!n.output_bytes(b.conn).ends_with(&page), "B got nothing");
    assert_eq!(violations(&bn), 1);
    // Shutting A down revokes everything it held.
    let by = after(&bn, 10);
    assert!(shutdown_and_wait(&mut bn, &a, by));
    assert_eq!(held(&bn.net.sim, bx), 0);
    let by = after(&bn, 10);
    assert!(bn.invoke_and_wait(&b, send, step, by));
    assert_eq!(violations(&bn), 2, "still not B's");
}

/// A network whose one box runs `service`, published.
fn published_service(seed: u64) -> (BentoNetwork, Session) {
    let mut bn = BentoNetwork::build(seed, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("service")
            .with_stem([StemCall::CreateHiddenService, StemCall::OpenStream]),
    };
    let s = bn.install(client, 0, &spec, [secs(5), secs(8), secs(11)]);
    let step = SimDuration::from_millis(100);
    assert!(bn.invoke_and_wait(&s, vec![], step, secs(60)), "published");
    let b: &BentoBoxNode = bn.net.sim.node_ref(bn.boxes[0]);
    assert_eq!(b.tor.live_circuits(), 3, "one circuit an intro point");
    assert_eq!(b.bento.held_handles(), 1, "the service");
    (bn, s)
}

/// Shutting down a function that runs a hidden service destroys the
/// service's circuits: no intro relay keeps answering for it.
#[test]
fn a_shut_down_hidden_service_leaves_no_circuit() {
    let (mut bn, s) = published_service(122);
    let by = bn.net.sim.now() + SimDuration::from_secs(10);
    assert!(shutdown_and_wait(&mut bn, &s, by));
    bn.net
        .sim
        .with_node::<BentoClientNode, _>(s.client, |n, ctx| {
            n.bento.close_box(ctx, &mut n.tor, s.conn)
        });
    bn.net
        .sim
        .run_until(bn.net.sim.now() + SimDuration::from_secs(5));
    let n: &BentoClientNode = bn.net.sim.node_ref(s.client);
    assert_eq!(n.tor.live_circuits(), 0, "client circuits");
    let b: &BentoBoxNode = bn.net.sim.node_ref(bn.boxes[0]);
    assert_eq!(b.bento.held_handles(), 0, "box function handles");
    assert_eq!(b.tor.live_circuits(), 0, "box onion-proxy circuits");
    assert_eq!(b.relay.live_circuits(), 0, "box relay circuits");
    for (addr, _) in &bn.net.relays {
        if !bn.boxes.contains(addr) {
            let r: &tor_net::relay::RelayNode = bn.net.sim.node_ref(*addr);
            assert_eq!(r.relay.live_circuits(), 0, "relay {addr:?} circuits");
        }
    }
}

/// A stream the service refuses leaves its table with the refusal; the
/// client circuit it arrived on stays held.
#[test]
fn a_refused_incoming_stream_leaves_the_table() {
    let (mut bn, _s) = published_service(123);
    let bob = bn.net.add_client("bob");
    let addr = HiddenServiceHost::new(SERVICE_SEED, 0, true).onion_addr();
    let has = |sim: &Simulator, pred: &dyn Fn(&TorEvent) -> bool| {
        sim.node_ref::<TestClientNode>(bob).has_event(pred)
    };
    let (step, by) = (
        SimDuration::from_millis(100),
        bn.net.sim.now() + SimDuration::from_secs(30),
    );
    let sim = &mut bn.net.sim;
    let bootstrapped = |e: &TorEvent| matches!(e, TorEvent::ConsensusReady);
    assert!(sim.step_until(step, by, |sim| has(sim, &bootstrapped)));
    let rv = sim
        .with_node::<TestClientNode, _>(bob, |n, ctx| n.tor.connect_onion(ctx, addr))
        .expect("rendezvous circuit");
    let joined = |e: &TorEvent| matches!(e, TorEvent::RendezvousReady(h) if *h == rv);
    assert!(sim.step_until(step, by, |sim| has(sim, &joined)));
    let sid = sim
        .with_node::<TestClientNode, _>(bob, |n, ctx| {
            n.tor.open_stream(ctx, rv, StreamTarget::Hs(80))
        })
        .expect("stream");
    let ended = |e: &TorEvent| matches!(e, TorEvent::StreamEnded(h, s) if *h == rv && *s == sid);
    assert!(sim.step_until(step, by, |sim| has(sim, &ended)));
    assert_eq!(
        held(sim, bn.boxes[0]),
        2,
        "the service and its client circuit"
    );
}
