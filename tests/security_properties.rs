//! Cross-crate security-property tests: §6 of the paper, exercised through
//! the whole stack (simulated network → Tor → Bento → sandbox/conclave).

use bento::function::{Function, FunctionApi, FunctionRegistry};
use bento::manifest::Manifest;
use bento::protocol::{FunctionSpec, ImageKind};
use bento::testnet::BentoNetwork;
use bento::{BentoBoxNode, BentoClientNode, BentoEvent, MiddleboxPolicy};
use simnet::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// A function that tries to use Stem without having requested it.
struct SneakyFn {
    failed_circuits: u32,
}
impl Function for SneakyFn {
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, _input: Vec<u8>) {
        // Its manifest requests NO stem calls: the firewall must refuse.
        api.build_circuit(None);
        api.output(b"tried".to_vec());
        api.output_end();
    }
    fn on_circuit_failed(&mut self, api: &mut FunctionApi<'_>, _circ: u64) {
        self.failed_circuits += 1;
        api.output(b"denied".to_vec());
    }
}

/// A function that stores one secret via the mediated filesystem.
struct SecretKeeper;
impl Function for SecretKeeper {
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, input: Vec<u8>) {
        api.fs_write("secrets/payload", &input).expect("fs");
        api.output(b"stored".to_vec());
        api.output_end();
    }
}

fn registry() -> FunctionRegistry {
    fn make_sneaky(_p: &[u8]) -> Box<dyn Function> {
        Box::new(SneakyFn { failed_circuits: 0 })
    }
    fn make_keeper(_p: &[u8]) -> Box<dyn Function> {
        Box::new(SecretKeeper)
    }
    let mut r = FunctionRegistry::new();
    r.register("sneaky", make_sneaky);
    r.register("keeper", make_keeper);
    r
}

/// §5.3/§6.2: the Stem firewall blocks a function whose manifest did not
/// request circuit access, even when the node policy would allow it.
#[test]
fn stem_firewall_blocks_unrequested_circuits() {
    let mut bn = BentoNetwork::build(301, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("tester");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("sneaky"),
    };
    let session = bn.install(client, 0, &spec, [secs(5), secs(9), secs(13)]);
    bn.invoke(&session, vec![]);
    bn.net.sim.run_until(secs(17));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    let out = n.output_bytes(session.conn);
    // Ordering of "tried"/"denied" depends on action-application order;
    // both must be present.
    let s = String::from_utf8_lossy(&out);
    assert!(s.contains("tried") && s.contains("denied"), "got {s:?}");
    // The denial is logged for the operator.
    let bx = bn.boxes[0];
    bn.net.sim.with_node::<BentoBoxNode, _>(bx, |n, _| {
        assert!(n.bento.stem_violations() > 0, "violation recorded");
    });
}

/// §5.4/§6.2: with the SGX image, the operator's view of the function's
/// storage is ciphertext only — the secret never appears on the box's disk.
#[test]
fn operator_cannot_read_fs_protect_contents() {
    let mut bn = BentoNetwork::build(302, 1, MiddleboxPolicy::permissive(), registry);
    let client = bn.add_bento_client("tester");
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("keeper").with_disk(1 << 20).with_sgx(),
    };
    let session = bn.install(client, 0, &spec, [secs(5), secs(9), secs(13)]);
    bn.invoke(&session, b"the dissident list: alice, bob, carol".to_vec());
    bn.net.sim.run_until(secs(18));
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert_eq!(n.output_bytes(session.conn), b"stored");
    // Operator-side inspection: nothing legible.
    let bx = bn.boxes[0];
    bn.net.sim.with_node::<BentoBoxNode, _>(bx, |n, _| {
        let views = n.bento.operator_storage_view();
        assert!(!views.is_empty(), "the function did store something");
        for (container, blobs) in views {
            for (id, ct) in blobs {
                assert!(
                    !ct.windows(9).any(|w| w == b"dissident"),
                    "container {container}: plaintext leaked in blob {id:?}"
                );
            }
        }
    });
}

/// §5.4: if the platform's TCB is stale (a published vulnerability), the
/// client's attestation check refuses the box before uploading anything.
#[test]
fn stale_tcb_box_fails_attestation() {
    let mut bn = BentoNetwork::build(303, 1, MiddleboxPolicy::permissive(), registry);
    // A vulnerability is published: IAS raises the minimum TCB above what
    // the (already provisioned) box platform runs.
    bn.ias.lock().expect("ias lock").set_min_tcb(99);
    let client = bn.add_bento_client("cautious");
    bn.net.sim.run_until(secs(2));
    let conn = bn.connect(client, 0);
    bn.net.sim.run_until(secs(5));
    let refusal = bn
        .request_container(
            client,
            conn,
            ImageKind::Sgx,
            SimDuration::from_secs(5),
            secs(10),
        )
        .expect_err("client must refuse the unpatched box");
    let n: &BentoClientNode = bn.net.sim.node_ref(client);
    assert!(
        n.bento_events.iter().any(
            |e| matches!(e, BentoEvent::AttestationFailed(c, why) if *c == conn && *why == refusal)
        ),
        "refused for the attestation, not something else: {refusal}"
    );
    assert!(n.container_ready(conn).is_none());
}

/// §6.2: a function cannot connect to destinations the relay's exit policy
/// forbids — checked end-to-end in `sandbox_enforces_manifest_at_runtime`
/// (functions crate); here we check the *aggregate* function cap: a node
/// policy of max_functions=2 holds across distinct clients.
#[test]
fn function_cap_holds_across_clients() {
    let mut policy = MiddleboxPolicy::permissive();
    policy.max_functions = 2;
    let mut bn = BentoNetwork::build(304, 1, policy, registry);
    let spec = FunctionSpec {
        params: vec![],
        manifest: Manifest::minimal("keeper").with_disk(1024),
    };
    for t0 in [0, 13] {
        let client = bn.add_bento_client("tester");
        bn.net.sim.run_until(secs(t0 + 2));
        bn.install(
            client,
            0,
            &spec,
            [secs(t0 + 5), secs(t0 + 9), secs(t0 + 13)],
        );
    }
    // A third client is refused.
    let c3 = bn.add_bento_client("third");
    bn.net.sim.run_until(secs(29));
    let conn3 = bn.connect(c3, 0);
    bn.net.sim.run_until(secs(33));
    let refusal = bn.request_container(
        c3,
        conn3,
        ImageKind::Plain,
        SimDuration::from_secs(4),
        secs(37),
    );
    assert_eq!(refusal, Err("function limit reached".to_string()));
}
