//! **Table 2** — "Download times (in seconds)" for five domains under
//! standard Tor and Browser with 0/1/7 MB padding.
//!
//! The paper's shape: 0MB is comparable to (sometimes faster than)
//! standard Tor; padding adds time proportional to the padding quantum at
//! the circuit's effective bandwidth (~85 KB/s in the paper's runs —
//! the direct consequence of the anonymity trilemma it illustrates).
//!
//! `cargo run -p bench --release -- table2` — exits non-zero if the run
//! does not have that shape (see the end of `run`).

use bench::runner::{run_sweep, Trial};
use bench::{export_telemetry, require_shape, say, write_csv, Opts};
use bento::protocol::FunctionSpec;
use bento::testnet::BentoNetwork;
use bento::MiddleboxPolicy;
use bento_functions::browser::{self, BrowseRequest};
use bento_functions::standard_registry;
use bento_functions::web::SiteModel;
use simnet::{Iface, NodeId, SimDuration, SimTime};
use tor_net::ports::HTTP_PORT;
use wfp::browse::BrowseNode;

/// The five Table 2 domains, with page compositions scaled to the paper's
/// standard-Tor download times.
fn domains(seed: u64) -> Vec<SiteModel> {
    vec![
        SiteModel::custom(
            "indiatoday-in",
            &[
                120_000, 90_000, 70_000, 50_000, 40_000, 30_000, 25_000, 20_000,
            ],
            30_000,
            seed ^ 1,
        ),
        SiteModel::custom(
            "yahoo-com",
            &[250_000, 180_000, 120_000, 90_000, 60_000, 40_000],
            40_000,
            seed ^ 2,
        ),
        SiteModel::custom(
            "netflix-com",
            &[400_000, 300_000, 200_000, 150_000, 100_000],
            35_000,
            seed ^ 3,
        ),
        SiteModel::custom(
            "ebay-com",
            &[200_000, 150_000, 100_000, 80_000, 60_000, 40_000, 30_000],
            30_000,
            seed ^ 4,
        ),
        SiteModel::custom(
            "aliexpress-com",
            &[80_000, 60_000, 40_000, 30_000],
            20_000,
            seed ^ 5,
        ),
    ]
}

/// Per-circuit effective bandwidth model: a busy volunteer relay's share.
fn relay_iface() -> Iface {
    Iface::symmetric(SimDuration::from_millis(15), 110_000)
}

/// Download each site over standard (function-less) Tor; one trial.
fn standard_tor_trial(seed: u64, sites: Vec<SiteModel>) -> Vec<f64> {
    let mut net = tor_net::netbuild::NetworkBuilder::new()
        .seed(seed)
        .middles(6)
        .exits(3)
        .relay_iface(relay_iface())
        .build();
    let pages = sites.iter().flat_map(|s| s.server_pages()).collect();
    let server = net.add_web_server("web", pages);
    let client = net.sim.add_node(
        "alice",
        Iface::residential(),
        Box::new(BrowseNode::new(net.authority, net.authority_key)),
    );
    net.sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    // A download is looked at every 100 ms; one still running after 600 s
    // is a failed run, not a data point.
    let (step, timeout) = (SimDuration::from_millis(100), SimDuration::from_secs(600));
    sites
        .iter()
        .map(|site| {
            let t0 = net.sim.now();
            let before = net.sim.with_node::<BrowseNode, _>(client, |n, ctx| {
                let done = n.visits_done;
                n.start_visit(ctx, server, &site.html_path());
                done
            });
            let done = net.sim.step_until(step, t0 + timeout, |sim| {
                sim.node_ref::<BrowseNode>(client).visits_done > before
            });
            assert!(done, "{}: standard Tor download timed out", site.name);
            net.sim.now().since(t0).as_secs_f64()
        })
        .collect()
}

/// Download each site through the Browser function at one padding level;
/// one trial, one fresh Bento network.
fn browser_trial(seed: u64, pi: usize, padding: u64, sites: Vec<SiteModel>) -> Vec<f64> {
    let mut bn = BentoNetwork::build_with_iface(
        seed ^ (pi as u64 + 1),
        1,
        MiddleboxPolicy::permissive(),
        standard_registry,
        relay_iface(),
    );
    let pages = sites.iter().flat_map(|s| s.server_pages()).collect();
    let server: NodeId = bn.net.add_web_server("web", pages);
    let client = bn.add_bento_client("alice");
    let secs = |s| SimTime::ZERO + SimDuration::from_secs(s);
    bn.net.sim.run_until(secs(2));
    let spec = FunctionSpec {
        params: vec![],
        manifest: browser::manifest(false),
    };
    let session = bn.install(client, 0, &spec, [secs(6), secs(10), secs(15)]);
    let (step, timeout) = (SimDuration::from_millis(100), SimDuration::from_secs(600));
    sites
        .iter()
        .map(|site| {
            let t0 = bn.net.sim.now();
            let req = BrowseRequest {
                server,
                port: HTTP_PORT,
                path: site.html_path(),
                padding,
                dropbox_on: None,
            };
            let done = bn.invoke_and_wait(&session, req.encode(), step, t0 + timeout);
            assert!(done, "{}: Browser download timed out", site.name);
            bn.net.sim.now().since(t0).as_secs_f64()
        })
        .collect()
}

const SEED: u64 = 3;

pub fn run(opts: &Opts) {
    let sites = domains(77);
    let paddings = [0u64, 1 << 20, 7 << 20];

    // One trial for standard Tor plus one per padding level, through the
    // shared runner (`--threads N` parallelizes them; results come back in
    // trial-index order either way).
    let mut jobs: Vec<Trial<Vec<f64>>> = Vec::new();
    {
        let sites = sites.clone();
        jobs.push(Box::new(move || standard_tor_trial(SEED, sites)));
    }
    for (pi, padding) in paddings.iter().copied().enumerate() {
        let sites = sites.clone();
        jobs.push(Box::new(move || browser_trial(SEED, pi, padding, sites)));
    }
    // Per site: standard Tor, then Browser at 0, 1 and 7 MB.
    let times = run_sweep(opts, "table2", jobs);

    // Paper's Table 2 for reference.
    let paper: [[f64; 4]; 5] = [
        [5.0, 6.4, 34.9, 86.0],
        [6.7, 6.3, 21.2, 87.4],
        [8.5, 8.1, 28.4, 86.3],
        [6.1, 7.0, 22.3, 81.8],
        [3.1, 5.9, 37.7, 91.9],
    ];
    say!(opts, "Table 2: download times in seconds (ours | paper)");
    say!(
        opts,
        "Domain               standard Tor    Browser 0MB    Browser 1MB    Browser 7MB"
    );
    let mut rows = Vec::new();
    for (i, site) in sites.iter().enumerate() {
        let ours = times.iter().map(|t| t[i]);
        let cols: String = ours
            .clone()
            .zip(paper[i])
            .map(|(o, p)| format!(" {o:>6.1} | {p:>4.1}"))
            .collect();
        say!(opts, "{:<18}{cols}", site.name);
        let ours: Vec<String> = ours.map(|o| format!("{o:.2}")).collect();
        let paper: Vec<String> = paper[i].iter().map(|p| p.to_string()).collect();
        rows.push(format!(
            "{},{},{}",
            site.name,
            ours.join(","),
            paper.join(",")
        ));
    }
    const HEADER: &str = "domain,standard_s,browser0_s,browser1mb_s,browser7mb_s,\
                          paper_standard,paper_0mb,paper_1mb,paper_7mb";
    write_csv(opts, "table2.csv", HEADER, &rows);
    export_telemetry(opts, "table2");

    // The paper's shape, checked on what was just written: with no padding
    // the Browser function beats standard Tor on the smallest page, and with
    // 7 MB of padding it loses on every page.
    let (standard, browser0, browser7) = (&times[0], &times[1], &times[3]);
    let smallest = (0..sites.len())
        .min_by_key(|&i| sites[i].total_bytes())
        .expect("at least one domain");
    let mut broken = Vec::new();
    if browser0[smallest] >= standard[smallest] {
        broken.push(format!(
            "{}: Browser 0MB {:.2} s does not beat standard Tor {:.2} s",
            sites[smallest].name, browser0[smallest], standard[smallest]
        ));
    }
    for (i, site) in sites.iter().enumerate() {
        if browser7[i] <= standard[i] {
            broken.push(format!(
                "{}: Browser 7MB {:.2} s does not lose to standard Tor {:.2} s",
                site.name, browser7[i], standard[i]
            ));
        }
    }
    require_shape("table2", &broken);
}
