//! Figure 2: composing functions. Alice instructs Browser (on box A) to
//! deliver the fetched page to a Dropbox it deploys on box B, then goes
//! offline entirely. Later she comes back and fetches the page from the
//! Dropbox — she was not even online while the website was downloaded.
//!
//!     cargo run -p bento --example anonymous_dropbox

use bento::protocol::FunctionSpec;
use bento::testnet::BentoNetwork;
use bento::tokens::Token;
use bento::{BentoClientNode, MiddleboxPolicy};
use bento_functions::browser::{self, BrowseRequest};
use bento_functions::standard_registry;
use bento_functions::web::SiteModel;
use simnet::{SimDuration, SimTime};
use tor_net::ports::{BENTO_PORT, HTTP_PORT};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn main() {
    let mut bn = BentoNetwork::build(8, 2, MiddleboxPolicy::permissive(), standard_registry);
    let site = SiteModel::generate(9, 77);
    let server = bn.net.add_web_server("web", site.server_pages());
    let box_b = bn.boxes[1];
    let alice = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));

    // Install Browser on box A — a *different* machine from the Dropbox
    // host. (Its manifest targets the SGX conclave image; composition needs
    // Stem calls.)
    println!(
        "box A: {:?} hosts Browser; box B gets the Dropbox",
        bn.net.sim.node_name(bn.boxes[0])
    );
    let spec = FunctionSpec {
        params: vec![],
        manifest: browser::manifest(true),
    };
    let browser = bn.install(alice, 0, &spec, [secs(5), secs(8), secs(16)]);

    // "1. Install Browser+Dropbox" — then Alice goes offline.
    let req = BrowseRequest {
        server,
        port: HTTP_PORT,
        path: site.html_path(),
        padding: 0,
        dropbox_on: Some((box_b, BENTO_PORT)),
    };
    bn.invoke(&browser, req.encode());
    println!("Alice kicked off Browser→Dropbox and went offline.");

    // The network does the work while Alice is away.
    bn.net.sim.run_until(secs(120));
    let output = |bn: &BentoNetwork, conn| {
        let n: &BentoClientNode = bn.net.sim.node_ref(alice);
        n.output_bytes(conn)
    };
    let locator = output(&bn, browser.conn);
    assert!(locator.starts_with(b"DROPBOX:"), "locator: {locator:?}");
    let token = Token::from_bytes(&locator[12..44]).expect("token");
    println!("Browser reports the page is parked at a Dropbox on box B.");

    // Alice returns later and fetches from box B directly: all she holds
    // of that Dropbox is the invocation token the locator carried.
    let conn2 = bn.connect(alice, 1);
    bn.net.sim.run_until(secs(126));
    bn.net.sim.with_node::<BentoClientNode, _>(alice, |n, ctx| {
        n.bento.invoke(ctx, &mut n.tor, conn2, token, b"G".to_vec());
    });
    bn.net.sim.run_until(secs(200));
    let fetched = output(&bn, conn2);
    let page = bento_functions::compress::decompress(&fetched).expect("digest");
    println!(
        "Alice came back online and fetched the page: {} KB (decompressed {} KB).",
        fetched.len() / 1024,
        page.len() / 1024
    );
    println!("She was offline for the entire website download.");
}
