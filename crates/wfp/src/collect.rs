//! Run the network simulation under a chosen defense and harvest the
//! adversary's traces — the §7.3 experiment setup: "we visited 100 popular
//! websites at least 10 times using a standard Tor browser and again using
//! Browser (with 0MB, 1MB, and 7MB padding ...); all Tor traffic between
//! the client and its guard relay is recorded."

use crate::browse::BrowseNode;
use crate::trace::Trace;
use bento::protocol::FunctionSpec;
use bento::testnet::{BentoNetwork, Session};
use bento::{BentoClientNode, BentoEvent, MiddleboxPolicy};
use bento_functions::browser::{self, BrowseRequest};
use bento_functions::standard_registry;
use bento_functions::web::{corpus, SiteModel};
use simnet::{Iface, SimDuration, SimTime};
use tor_net::ports::HTTP_PORT;

/// The defense under evaluation (the rows of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    /// Unmodified Tor: the client browses normally.
    StandardTor,
    /// The Browser function with the given padding quantum (bytes).
    BentoBrowser {
        /// Pad the digest to a multiple of this many bytes (0 = none).
        padding: u64,
    },
}

impl Defense {
    /// Display label matching the paper's rows.
    pub fn label(&self) -> String {
        match self {
            Defense::StandardTor => "None (unmodified Tor)".to_string(),
            Defense::BentoBrowser { padding } => {
                format!("Browser, {}MB padding", padding / (1 << 20))
            }
        }
    }
}

/// Corpus generation seed: one world of sites for every experiment.
const CORPUS_SEED: u64 = 77;
/// Per-visit page-content size jitter, percent: real pages change between
/// visits (0 would make them perfectly static).
const JITTER_PCT: u32 = 3;
/// Per-visit timeout in simulated seconds.
const VISIT_TIMEOUT_S: u64 = 300;

/// Collection parameters.
#[derive(Debug, Clone, Copy)]
pub struct CollectConfig {
    /// Closed-world size.
    pub n_sites: u32,
    /// Visits per site.
    pub n_visits: u32,
    /// Simulation seed.
    pub seed: u64,
    /// Defense under test.
    pub defense: Defense,
}

fn all_pages(sites: &[SiteModel], n_visits: u32) -> Vec<(String, Vec<Vec<u8>>)> {
    sites
        .iter()
        .flat_map(|s| s.server_pages_variants(n_visits, JITTER_PCT))
        .collect()
}

static T_TRACES: telemetry::Counter = telemetry::Counter::new("wfp.traces_collected");

/// Collect labeled traces for `cfg.defense`.
pub fn collect_traces(cfg: &CollectConfig) -> Vec<Trace> {
    let traces = match cfg.defense {
        Defense::StandardTor => collect_standard(cfg),
        Defense::BentoBrowser { padding } => collect_browser(cfg, padding),
    };
    T_TRACES.add(traces.len() as u64);
    traces
}

fn collect_standard(cfg: &CollectConfig) -> Vec<Trace> {
    let sites = corpus(cfg.n_sites, CORPUS_SEED);
    let mut net = tor_net::netbuild::NetworkBuilder::new()
        .seed(cfg.seed)
        .middles(6)
        .exits(3)
        .build();
    let server = net.add_web_server("web", all_pages(&sites, cfg.n_visits));
    let client = net.sim.add_node(
        "victim",
        Iface::residential(),
        Box::new(BrowseNode::new(net.authority, net.authority_key)),
    );
    net.sim.enable_sniffer(client);
    net.sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));

    let mut traces = Vec::new();
    for visit in 0..cfg.n_visits {
        for (label, site) in sites.iter().enumerate() {
            // Bound memory across thousands of visits: the trace window is
            // per-visit, so drop prior history.
            net.sim.sniffer_mut(client).clear();
            let mark = net.sim.sniffer(client).len();
            let done_before = net.sim.with_node::<BrowseNode, _>(client, |n, ctx| {
                let d = n.visits_done + n.visits_failed;
                n.start_visit(ctx, server, &site.html_path_variant(visit));
                d
            });
            // Run until the visit completes or times out.
            let deadline = net.sim.now() + SimDuration::from_secs(VISIT_TIMEOUT_S);
            net.sim
                .step_until(SimDuration::from_millis(500), deadline, |sim| {
                    let n: &BrowseNode = sim.node_ref(client);
                    n.visits_done + n.visits_failed > done_before
                });
            let ok = net
                .sim
                .with_node::<BrowseNode, _>(client, |n, _| n.idle() && n.visits_failed == 0);
            let events = net.sim.sniffer(client).events()[mark..].to_vec();
            if ok && !events.is_empty() {
                traces.push(Trace::from_events(label, &events));
            }
            // A short gap between visits.
            let now = net.sim.now();
            net.sim.run_until(now + SimDuration::from_millis(500));
        }
    }
    traces
}

fn collect_browser(cfg: &CollectConfig, padding: u64) -> Vec<Trace> {
    let sites = corpus(cfg.n_sites, CORPUS_SEED);
    let mut bn = BentoNetwork::build(
        cfg.seed,
        1,
        MiddleboxPolicy::permissive(),
        standard_registry,
    );
    let server = bn
        .net
        .add_web_server("web", all_pages(&sites, cfg.n_visits));
    let client = bn.add_bento_client("victim");
    let secs = |s| SimTime::ZERO + SimDuration::from_secs(s);
    bn.net.sim.run_until(secs(2));
    // Install the Browser function once (the paper's "small upload").
    let spec = FunctionSpec {
        params: vec![],
        manifest: browser::manifest(false),
    };
    let browser = bn.install(client, 0, &spec, [secs(5), secs(8), secs(12)]);
    bn.net.sim.enable_sniffer(client);

    let mut traces = Vec::new();
    for visit in 0..cfg.n_visits {
        for (label, site) in sites.iter().enumerate() {
            // Bound memory across thousands of visits: page payloads logged
            // in the client's event history would otherwise accumulate to
            // gigabytes under heavy padding.
            bn.net.sim.with_node::<BentoClientNode, _>(client, |n, _| {
                n.bento_events.clear();
                n.tor_events.clear();
            });
            bn.net.sim.sniffer_mut(client).clear();
            let mark = bn.net.sim.sniffer(client).len();
            // A fresh session circuit per visit, like a real client whose
            // circuits rotate: this also keeps circuit-window (SENDME)
            // phase from leaking visit order into the trace.
            let session = Session {
                conn: bn.connect(client, 0),
                ..browser
            };
            // Wait for the session stream, then invoke. A visit that runs
            // out of time still leaves the trace the adversary saw of it.
            let deadline = bn.net.sim.now() + SimDuration::from_secs(VISIT_TIMEOUT_S);
            bn.net
                .sim
                .step_until(SimDuration::from_millis(200), deadline, |sim| {
                    let n: &BentoClientNode = sim.node_ref(client);
                    n.bento_events
                        .iter()
                        .any(|e| matches!(e, BentoEvent::Connected(c) if *c == session.conn))
                });
            let req = BrowseRequest {
                server,
                port: HTTP_PORT,
                path: site.html_path_variant(visit),
                padding,
                dropbox_on: None,
            };
            bn.invoke_and_wait(
                &session,
                req.encode(),
                SimDuration::from_millis(500),
                deadline,
            );
            let events = bn.net.sim.sniffer(client).events()[mark..].to_vec();
            if !events.is_empty() {
                traces.push(Trace::from_events(label, &events));
            }
            // Tear the visit session down (circuits are per-visit).
            bn.net
                .sim
                .with_node::<BentoClientNode, _>(client, |n, ctx| {
                    n.bento.close_box(ctx, &mut n.tor, session.conn);
                });
            let now = bn.net.sim.now();
            bn.net.sim.run_until(now + SimDuration::from_millis(500));
        }
    }
    traces
}
