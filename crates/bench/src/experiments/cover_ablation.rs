//! **§9.1 Cover** ablation — does fixed-rate cover traffic actually mask
//! when the user is active?
//!
//! Scenario: a client is connected to a Bento box. In the "active" window
//! it downloads content; in the "quiet" window it does nothing. An
//! observer on the client's link compares per-window downstream volume.
//! Without Cover the ratio gives activity away; with Cover running at a
//! fixed rate, volume is dominated by the constant stream.
//!
//! `cargo run -p bench --release -- cover_ablation`

use super::secs;
use bench::runner::{run_sweep, Trial};
use bench::{export_telemetry, say, write_report, Opts};
use bento::protocol::{FunctionSpec, ImageKind};
use bento::testnet::BentoNetwork;
use bento::MiddleboxPolicy;
use bento_functions::cover::{self, CoverRequest, Mode};
use bento_functions::dropbox;
use bento_functions::standard_registry;
use simnet::trace::Direction;
use simnet::{SimDuration, SimTime};

/// Downstream bytes observed on the client link in [from, to).
fn window_bytes(sniffer: &simnet::trace::Sniffer, from: SimTime, to: SimTime) -> f64 {
    sniffer
        .events()
        .iter()
        .filter(|e| e.dir == Direction::Incoming && e.time >= from && e.time < to)
        .map(|e| e.bytes as f64)
        .sum()
}

fn trial(with_cover: bool) -> (f64, f64) {
    let mut bn = BentoNetwork::build(41, 1, MiddleboxPolicy::permissive(), standard_registry);
    let client = bn.add_bento_client("alice");
    bn.net.sim.run_until(secs(2));
    // Install a dropbox holding 300 KB (the "activity" is fetching it) and,
    // optionally, the Cover function: two containers on one connection.
    let conn = bn.connect(client, 0);
    bn.net.sim.run_until(secs(5));
    let four = SimDuration::from_secs(4);
    let dropbox = bn
        .request_container(client, conn, ImageKind::Plain, four, secs(9))
        .expect("container");
    let cover = with_cover.then(|| {
        bn.request_container(client, conn, ImageKind::Plain, four, secs(13))
            .expect("container")
    });
    let spec = FunctionSpec {
        params: dropbox::Params {
            max_gets: 100,
            expiry_ms: 0,
            max_bytes: 0,
        }
        .encode(),
        manifest: dropbox::manifest(),
    };
    bn.upload(&dropbox, &spec, secs(20)).expect("dropbox");
    let mut put = vec![b'P'];
    put.extend_from_slice(&vec![0x77; 300_000]);
    bn.invoke(&dropbox, put);
    bn.net.sim.run_until(secs(40));
    if let Some(cover) = cover {
        let spec = FunctionSpec {
            params: vec![],
            manifest: cover::manifest(false),
        };
        bn.upload(&cover, &spec, secs(45)).expect("cover");
        // 498-byte cells every 20 ms for the whole experiment: ~25 KB/s
        // of constant downstream cover.
        let req = CoverRequest {
            interval_ms: 20,
            count: 6000,
            chunk: 498,
            mode: Mode::Downstream,
        };
        bn.invoke(&cover, req.encode());
    }
    bn.net.sim.enable_sniffer(client);
    bn.net.sim.run_until(secs(50));
    // Quiet window: [50, 80). Active window: [80, 110) — fetch the content.
    bn.net.sim.run_until(secs(80));
    bn.invoke(&dropbox, b"G".to_vec());
    bn.net.sim.run_until(secs(110));
    let sniffer = bn.net.sim.sniffer(client);
    let quiet = window_bytes(sniffer, secs(50), secs(80));
    let active = window_bytes(sniffer, secs(80), secs(110));
    (quiet, active)
}

pub fn run(opts: &Opts) {
    // Both conditions are independent simulations — run them through the
    // shared trial runner (results stay in [no-cover, with-cover] order).
    let jobs: Vec<Trial<(f64, f64)>> = vec![Box::new(|| trial(false)), Box::new(|| trial(true))];
    let mut results = run_sweep(opts, "cover_ablation", jobs);
    let (q0, a0) = results.remove(0);
    let (q1, a1) = results.remove(0);
    let ratio0 = a0 / q0.max(1.0);
    let ratio1 = a1 / q1.max(1.0);
    let row = |label: &str, quiet: f64, active: f64, ratio: f64| {
        format!("{label:<16} {quiet:>14.0} {active:>14.0} {ratio:>12.1}\n")
    };
    let report = format!(
        "== Cover ablation (section 9.1): active/quiet downstream volume ==\n\
         {:<16} {:>14} {:>14} {:>12}\n{}{}\n\
         activity visibility reduced {:.1}x by fixed-rate cover traffic\n",
        "condition",
        "quiet bytes",
        "active bytes",
        "ratio",
        row("no cover", q0, a0, ratio0),
        row("with cover", q1, a1, ratio1),
        ratio0 / ratio1
    );
    say!(opts, "{}", report.trim_end());
    assert!(
        ratio1 < ratio0 / 3.0,
        "cover should mask activity: {ratio0:.1} -> {ratio1:.1}"
    );
    write_report(opts, "cover_ablation.txt", &report);
    export_telemetry(opts, "cover_ablation");
}
