//! **§9.4 multipath ablation** — fetch time vs. number of circuits.
//!
//! With per-circuit bandwidth as the bottleneck (each circuit crosses
//! capacity-limited relays), splitting one fetch into k ranges over k
//! circuits approaches a k-fold speedup until some other resource binds —
//! in this topology, the two exit relays: k=2 doubles throughput exactly,
//! k=3/4 plateau because lanes start sharing exits. That bind is the
//! point: multipath gains are bounded by path diversity.
//!
//! `cargo run -p bench --release --bin multipath_sweep`

use bench::runner::{run_sweep, SweepOpts, Trial};
use bench::{arg_u64, write_csv};
use bento::protocol::FunctionSpec;
use bento::testnet::BentoNetwork;
use bento::{BentoClientNode, MiddleboxPolicy};
use bento_functions::multipath::{self, MultipathRequest};
use bento_functions::standard_registry;
use simnet::{Iface, SimDuration, SimTime};
use tor_net::ports::HTTP_PORT;

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// One sweep point: fetch `body` over `k` circuits on a fresh network;
/// returns (fetch-stage seconds, end-to-end seconds).
fn run_k(k: u8, file_len: u64, body: &[u8]) -> (f64, f64) {
    {
        // Fresh network per k: many middle relays so circuits rarely share
        // links; each relay capped so one circuit ≈ 200 KB/s.
        let mut bn = BentoNetwork::build_full(
            90 + k as u64,
            1,
            MiddleboxPolicy::permissive(),
            standard_registry,
            Iface::symmetric(SimDuration::from_millis(10), 200_000),
            Iface::symmetric(SimDuration::from_millis(10), 2_000_000),
        );
        let server = bn
            .net
            .add_web_server("web", vec![("/big".to_string(), vec![body.to_vec()])]);
        // The fetch stage is what multipath parallelizes; observe it on the
        // web server's link. (The function's output leg back to the client
        // rides ONE session circuit and is unchanged by k.)
        bn.net.sim.enable_sniffer(server);
        let client = bn.add_bento_client("alice");
        bn.net.sim.run_until(secs(2));
        let spec = FunctionSpec {
            params: vec![],
            manifest: multipath::manifest(),
        };
        let session = bn.install(client, 0, &spec, [secs(5), secs(8), secs(12)]);
        let t0 = bn.net.sim.now();
        let req = MultipathRequest {
            server,
            port: HTTP_PORT,
            path: "/big".into(),
            total_len: file_len,
            k,
        };
        let step = SimDuration::from_millis(200);
        let done = bn.invoke_and_wait(
            &session,
            req.encode(),
            step,
            t0 + SimDuration::from_secs(900),
        );
        let n: &BentoClientNode = bn.net.sim.node_ref(client);
        // A fetch that never finished is a failed run, not an end-to-end time.
        assert!(
            done,
            "k={k}: no end of output (rejection: {:?})",
            n.rejection(session.conn)
        );
        assert_eq!(
            n.output_bytes(session.conn),
            body,
            "k={k} reassembled correctly"
        );
        let e2e = bn.net.sim.now().since(t0).as_secs_f64();
        // Fetch-stage span: first to last event on the server's link.
        let events = bn.net.sim.sniffer(server).events();
        let fetch = events
            .last()
            .map(|l| l.time.since(events[0].time).as_secs_f64())
            .unwrap_or(0.0);
        (fetch, e2e)
    }
}

fn main() {
    let opts = SweepOpts::from_args();
    let mb = arg_u64("--mb", 4);
    let file_len = mb << 20;
    let body: Vec<u8> = (0..file_len).map(|i| (i * 131 % 251) as u8).collect();
    if !opts.quiet {
        println!("multipath sweep: {mb} MiB fetch, relay fabric at ~200 KB/s per circuit");
    }
    let ks = [1u8, 2, 3, 4];
    // Each k is an independent simulation on a fresh network: a list of
    // trial closures for the shared runner. The k=1 result anchors the
    // speedup column, so compute it after collection.
    let jobs: Vec<Trial<(f64, f64)>> = ks
        .iter()
        .map(|&k| {
            let body = body.clone();
            Box::new(move || run_k(k, file_len, &body)) as Trial<(f64, f64)>
        })
        .collect();
    let results = run_sweep("multipath_sweep", jobs);
    if !opts.quiet {
        println!(
            "{:<4} {:>12} {:>12} {:>14}",
            "k", "fetch (s)", "speedup", "end-to-end (s)"
        );
    }
    let base = results[0].0;
    let mut rows = Vec::new();
    for (&k, &(fetch, e2e)) in ks.iter().zip(results.iter()) {
        if !opts.quiet {
            println!(
                "{:<4} {:>12.1} {:>11.2}x {:>14.1}",
                k,
                fetch,
                base / fetch,
                e2e
            );
        }
        rows.push(format!("{k},{fetch:.2},{:.3},{e2e:.2}", base / fetch));
    }
    write_csv("multipath_sweep.csv", "k,fetch_s,speedup,e2e_s", &rows);
    opts.write_json_table("multipath_sweep", "k,fetch_s,speedup,e2e_s", &rows);
    opts.export_telemetry("multipath_sweep");
}
