//! Quickstart: stand up a simulated Tor network with a Bento box, fetch its
//! middlebox node policy, spawn a container, upload the Dropbox function
//! over Tor, and use it.
//!
//!     cargo run -p bento --example quickstart
//!
//! This walks the entire §5 life cycle: discover → policy → container +
//! tokens → upload → invoke → shutdown.

use bento::protocol::{FunctionSpec, ImageKind};
use bento::testnet::BentoNetwork;
use bento::{BentoClientNode, BentoEvent, MiddleboxPolicy};
use bento_functions::{dropbox, standard_registry};
use simnet::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn main() {
    // A Tor network (authority, guards, exits, HSDirs) plus one Bento box.
    let mut bn = BentoNetwork::build(42, 1, MiddleboxPolicy::permissive(), standard_registry);
    let alice = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    println!("[t={}] network bootstrapped", bn.net.sim.now());

    // 1. Discover Bento boxes in the consensus and open a session (a Tor
    //    circuit terminating at the box, then a stream to its Bento port).
    println!(
        "discovered {} bento box(es) in the consensus",
        bn.boxes.len()
    );
    let conn = bn.connect(alice, 0);
    bn.net.sim.with_node::<BentoClientNode, _>(alice, |n, ctx| {
        n.bento.get_policy(ctx, &mut n.tor, conn);
    });
    bn.net.sim.run_until(secs(6));

    // 2. Read the middlebox node policy the operator advertises.
    for ev in &bn.net.sim.node_ref::<BentoClientNode>(alice).bento_events {
        if let BentoEvent::Policy(_, p) = ev {
            println!(
                "box policy: {} syscalls, {} stem calls, {} MB memory, {} functions max",
                p.syscalls.len(),
                p.stem.len(),
                p.max_memory >> 20,
                p.max_functions
            );
        }
    }

    // 3. Request a container; the box returns invocation + shutdown tokens.
    let session = bn
        .request_container(
            alice,
            conn,
            ImageKind::Plain,
            SimDuration::from_secs(4),
            secs(10),
        )
        .expect("container ready");
    println!(
        "container {} ready (invocation + shutdown tokens received)",
        session.container
    );

    // 4. Upload the Dropbox function with its manifest.
    let spec = FunctionSpec {
        params: dropbox::Params {
            max_gets: 2,
            expiry_ms: 0,
            max_bytes: 0,
        }
        .encode(),
        manifest: dropbox::manifest(),
    };
    bn.upload(&session, &spec, secs(14)).expect("upload");
    println!("dropbox function installed");

    // 5. Invoke: store a note in the Tor network, then fetch it back.
    let mut put = vec![b'P'];
    put.extend_from_slice(b"meet at the usual place");
    bn.invoke(&session, put);
    bn.net.sim.run_until(secs(18));
    let output = |bn: &BentoNetwork| {
        bn.net
            .sim
            .node_ref::<BentoClientNode>(alice)
            .output_bytes(conn)
    };
    println!(
        "put acknowledged: {:?}",
        String::from_utf8_lossy(&output(&bn))
    );
    bn.invoke(&session, b"G".to_vec());
    bn.net.sim.run_until(secs(22));
    let all = output(&bn);
    let note = &all[2..]; // after the "OK"
    println!("fetched back: {:?}", String::from_utf8_lossy(note));

    // 6. Shut the function down with the shutdown token.
    bn.net.sim.with_node::<BentoClientNode, _>(alice, |n, ctx| {
        n.bento.shutdown(ctx, &mut n.tor, conn, session.shutdown);
    });
    bn.net.sim.run_until(secs(26));
    let n: &BentoClientNode = bn.net.sim.node_ref(alice);
    assert!(n
        .bento_events
        .iter()
        .any(|e| matches!(e, BentoEvent::ShutdownAck(_))));
    println!("container shut down; done.");
}
