//! The paper's motivating example (Figure 1 / §3): Alice fears a
//! fingerprinting adversary watching her link, so instead of browsing she
//! installs the Browser function on a Bento box. The function fetches the
//! page at the exit, compresses it into one digest, pads it, and streams
//! it back. We show what Alice gets — and what the adversary on her link
//! actually observes.
//!
//!     cargo run -p bento --example browse_unlinkable

use bento::protocol::{FunctionSpec, ImageKind};
use bento::testnet::BentoNetwork;
use bento::{BentoClientNode, MiddleboxPolicy};
use bento_functions::browser::{self, BrowseRequest};
use bento_functions::standard_registry;
use bento_functions::web::SiteModel;
use simnet::trace::Direction;
use simnet::{SimDuration, SimTime};
use tor_net::ports::HTTP_PORT;

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn main() {
    let mut bn = BentoNetwork::build(7, 1, MiddleboxPolicy::permissive(), standard_registry);
    let site = SiteModel::generate(3, 77);
    println!(
        "target page: {} ({} assets, {} KB total)",
        site.html_path(),
        site.html.assets.len(),
        site.total_bytes() / 1024
    );
    let server = bn.net.add_web_server("web", site.server_pages());
    let alice = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));

    // Install the Browser function in an SGX conclave (attested upload).
    let conn = bn.connect(alice, 0);
    bn.net.sim.run_until(secs(5));
    let session = bn
        .request_container(
            alice,
            conn,
            ImageKind::Sgx,
            SimDuration::from_secs(4),
            secs(9),
        )
        .expect("conclave attested and ready");
    println!("conclave attested; uploading Browser over the attested channel");
    let spec = FunctionSpec {
        params: vec![],
        manifest: browser::manifest(false),
    };
    bn.upload(&session, &spec, secs(13)).expect("upload");

    // The adversary starts watching Alice's link now.
    bn.net.sim.enable_sniffer(alice);
    let padding = 1 << 20;
    let req = BrowseRequest {
        server,
        port: HTTP_PORT,
        path: site.html_path(),
        padding,
        dropbox_on: None,
    };
    bn.invoke(&session, req.encode());
    bn.net.sim.run_until(secs(120));

    let n: &BentoClientNode = bn.net.sim.node_ref(alice);
    assert!(n.output_done(conn), "browse completed");
    println!(
        "\nAlice received {} KB (digest + padding)",
        n.output_bytes(conn).len() / 1024
    );
    let sniff = bn.net.sim.sniffer(alice);
    let up = sniff.total_bytes(Direction::Outgoing);
    let down = sniff.total_bytes(Direction::Incoming);
    println!("\nwhat the adversary on Alice's link saw:");
    println!("  upstream:   {:>8} bytes (one small invocation)", up);
    println!("  downstream: {:>8} bytes (a constant-size blob)", down);
    println!(
        "  downstream is a multiple-ish of the {} KB padding quantum —",
        padding / 1024
    );
    println!("  no per-asset bursts, no request/response dynamics to fingerprint.");
}
