//! End-to-end Bento tests on the simulated Tor network: the full life
//! cycle of §5 (policy fetch, attestation, upload over the attested
//! channel, invocation, token checks, shutdown) and the security
//! properties of §6.

use bento::function::{Function, FunctionApi, FunctionRegistry};
use bento::manifest::Manifest;
use bento::protocol::{FunctionSpec, ImageKind};

use bento::testnet::{BentoNetwork, Session};
use bento::tokens::Token;
use bento::{BentoClientNode, BentoEvent, MiddleboxPolicy};
use sandbox::seccomp::SyscallClass;
use simnet::{SimDuration, SimTime};

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
    let mut r = FunctionRegistry::new();
    r.register("echo", make_echo);
    r.register("echo-store", make_echo_store);
    r.register("probe", make_probe);
    r.register("hog", make_hog);
    r.register("flooder", make_flooder);
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
