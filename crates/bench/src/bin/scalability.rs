//! **§7.3 scalability** — memory footprints and the SGX EPC constraint:
//! "The maximum memory usage of a Bento server and Browser is roughly
//! 16–20 MB ... add the estimated 7.3 MB required for conclaves ... SGX
//! provides 128MB of protected memory, with only 93MB usable ... enclaves
//! could be paged out if they are not currently being invoked."
//!
//! `cargo run -p bench --release --bin scalability`

use bench::runner::{run_sweep, SweepOpts, Trial};
use bench::{arg_u64, write_report};
use bento::protocol::{FunctionSpec, ImageKind};
use bento::server::{CONCLAVE_OVERHEAD, FN_BASE_MEMORY};
use bento::testnet::BentoNetwork;
use bento::{BentoBoxNode, BentoServer, MiddleboxPolicy};
use bento_functions::standard_registry;
use conclave::epc::{Epc, EPC_TOTAL_BYTES, EPC_USABLE_BYTES};
use simnet::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// One paging-model row: (loaded, invocations, pages_in, pages_out,
/// evictions, paging cost in microseconds).
type PagingRow = (u64, u64, u64, u64, u64, u64);

fn main() {
    let opts = SweepOpts::from_args();
    let mut report = String::new();
    let mb = |b: u64| b as f64 / (1 << 20) as f64;

    // ---- Static accounting (the paper's arithmetic). ----
    let footprint = BentoServer::enclave_footprint(0);
    report.push_str("== SGX memory accounting (paper section 7.3) ==\n");
    report.push_str(&format!(
        "EPC total                        {:>8.1} MB (paper: 128 MB)\n",
        mb(EPC_TOTAL_BYTES)
    ));
    report.push_str(&format!(
        "EPC usable by applications       {:>8.1} MB (paper: 93 MB)\n",
        mb(EPC_USABLE_BYTES)
    ));
    report.push_str(&format!(
        "Bento server + Browser footprint {:>8.1} MB (paper: 16-20 MB)\n",
        mb(FN_BASE_MEMORY)
    ));
    report.push_str(&format!(
        "Conclave overhead                {:>8.1} MB (paper: 7.3 MB)\n",
        mb(CONCLAVE_OVERHEAD)
    ));
    report.push_str(&format!(
        "Per-function enclave footprint   {:>8.1} MB\n",
        mb(footprint)
    ));
    let epc = Epc::default();
    report.push_str(&format!(
        "Fully-resident concurrent functions: {}\n\n",
        epc.capacity_for(footprint)
    ));

    // ---- Paging model: more loaded functions than fit, invoked round-robin.
    // Each N is an independent model run; sweep them as trial closures.
    report.push_str("== EPC paging: N loaded conclaves, round-robin invocation ==\n");
    report.push_str("loaded   invocations   pages_in   pages_out   evictions   paging_cost\n");
    let jobs: Vec<Trial<PagingRow>> = [2u64, 3, 4, 6, 8, 12]
        .iter()
        .map(|&n| {
            Box::new(move || {
                let mut epc = Epc::default();
                for id in 0..n {
                    epc.register(id, footprint);
                }
                let rounds = 50;
                for _ in 0..rounds {
                    for id in 0..n {
                        epc.touch(id);
                    }
                }
                let s = epc.stats();
                (
                    n,
                    rounds * n,
                    s.pages_in,
                    s.pages_out,
                    s.evictions,
                    s.cost_micros(),
                )
            }) as Trial<PagingRow>
        })
        .collect();
    let mut paging_rows = Vec::new();
    for (n, invocations, pages_in, pages_out, evictions, cost_us) in run_sweep("epc_paging", jobs) {
        report.push_str(&format!(
            "{n:<8} {invocations:<13} {pages_in:<10} {pages_out:<11} {evictions:<11} \
             {cost_us:>8} us\n",
        ));
        paging_rows.push(format!(
            "{n},{invocations},{pages_in},{pages_out},{evictions},{cost_us}"
        ));
    }
    report.push('\n');

    // ---- Live check: load functions on one box until it refuses. ----
    let limit = arg_u64("--max-functions", 16) as usize;
    report.push_str("== live box: loading echo-like functions until refusal ==\n");
    let mut policy = MiddleboxPolicy::permissive();
    policy.max_functions = limit as u32;
    let mut bn = BentoNetwork::build(31, 1, policy, standard_registry);
    let client = bn.add_bento_client("loader");
    bn.net.sim.run_until(secs(2));
    let conn = bn.connect(client, 0);
    bn.net.sim.run_until(secs(5));
    let spec = FunctionSpec {
        params: bento_functions::dropbox::Params {
            max_gets: 1,
            expiry_ms: 0,
            max_bytes: 0,
        }
        .encode(),
        manifest: bento_functions::dropbox::manifest_sgx(),
    };
    let mut loaded = 0usize;
    for i in 0..limit + 3 {
        let now = bn.net.sim.now();
        let step = SimDuration::from_millis(250);
        let ready_by = now + SimDuration::from_secs(15);
        match bn.request_container(client, conn, ImageKind::Sgx, step, ready_by) {
            Ok(session) => {
                loaded += 1;
                // Upload a minimal function so the container counts as live.
                let now = bn.net.sim.now();
                bn.upload(&session, &spec, now + SimDuration::from_secs(8))
                    .expect("upload");
            }
            Err(reason) => {
                // Anything but the policy's refusal (a timeout, a failed
                // attestation) is a failed run, not a capacity.
                assert_eq!(reason, "function limit reached", "request #{}", i + 1);
                report.push_str(&format!(
                    "refused at request #{} (policy max_functions = {})\n",
                    i + 1,
                    limit
                ));
                break;
            }
        }
    }
    let bx = bn.boxes[0];
    bn.net.sim.with_node::<BentoBoxNode, _>(bx, |n, _| {
        let usage = n.bento.aggregate_usage();
        let epc_stats = n.bento.epc_stats();
        report.push_str(&format!("functions loaded: {loaded}\n"));
        report.push_str(&format!(
            "aggregate function memory: {:.1} MB (cap respected)\n",
            mb(usage.memory)
        ));
        report.push_str(&format!(
            "EPC resident: {:.1} MB of {:.1} MB usable; paging: {} in / {} out ({} evictions)\n",
            mb(n.bento.epc().resident()),
            mb(n.bento.epc().usable()),
            epc_stats.pages_in,
            epc_stats.pages_out,
            epc_stats.evictions,
        ));
    });

    if !opts.quiet {
        print!("{report}");
    }
    write_report("scalability.txt", &report);
    opts.write_json_table(
        "scalability_epc_paging",
        "loaded,invocations,pages_in,pages_out,evictions,paging_cost_us",
        &paging_rows,
    );
    opts.export_telemetry("scalability");
}
