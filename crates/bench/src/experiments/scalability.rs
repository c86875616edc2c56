//! **§7.3 scalability** — memory footprints and the SGX EPC constraint:
//! "The maximum memory usage of a Bento server and Browser is roughly
//! 16–20 MB ... add the estimated 7.3 MB required for conclaves ... SGX
//! provides 128MB of protected memory, with only 93MB usable ... enclaves
//! could be paged out if they are not currently being invoked."
//!
//! `cargo run -p bench --release -- scalability` — exits non-zero unless
//! exactly 3 functions fit fully resident in the 93 MiB usable EPC.

use super::secs;
use bench::runner::{run_sweep, Trial};
use bench::{export_telemetry, require_shape, say, write_report, Opts};
use bento::protocol::{FunctionSpec, ImageKind};
use bento::server::{CONCLAVE_OVERHEAD, FN_BASE_MEMORY};
use bento::testnet::BentoNetwork;
use bento::{BentoBoxNode, BentoServer, MiddleboxPolicy};
use bento_functions::standard_registry;
use conclave::epc::{Epc, EPC_TOTAL_BYTES, EPC_USABLE_BYTES};
use simnet::SimDuration;

/// The box policy's `max_functions` in the live check; it loads one more
/// than this to see the refusal.
const MAX_FUNCTIONS: usize = 16;

/// Functions the paper's arithmetic fits in 93 MB: ⌊93 / (16 + 7.3)⌋.
const RESIDENT_FUNCTIONS: u64 = 3;

/// One paging-model row: (loaded, invocations, pages_in, pages_out,
/// evictions, paging cost in microseconds).
type PagingRow = (u64, u64, u64, u64, u64, u64);

pub fn run(opts: &Opts) {
    let mb = |b: u64| b as f64 / (1 << 20) as f64;

    // ---- Static accounting (the paper's arithmetic), then the paging
    // model: more loaded functions than fit, invoked round-robin. Each N is
    // an independent model run; sweep them as trial closures.
    let footprint = BentoServer::enclave_footprint(0);
    let resident = Epc::default().capacity_for(footprint);
    let mut report = format!(
        "== SGX memory accounting (paper section 7.3) ==\n\
         EPC total                        {:>8.1} MB (paper: 128 MB)\n\
         EPC usable by applications       {:>8.1} MB (paper: 93 MB)\n\
         Bento server + Browser footprint {:>8.1} MB (paper: 16-20 MB)\n\
         Conclave overhead                {:>8.1} MB (paper: 7.3 MB)\n\
         Per-function enclave footprint   {:>8.1} MB\n\
         Fully-resident concurrent functions: {resident}\n\n\
         == EPC paging: N loaded conclaves, round-robin invocation ==\n\
         loaded   invocations   pages_in   pages_out   evictions   paging_cost\n",
        mb(EPC_TOTAL_BYTES),
        mb(EPC_USABLE_BYTES),
        mb(FN_BASE_MEMORY),
        mb(CONCLAVE_OVERHEAD),
        mb(footprint)
    );
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
    for (n, invocations, pages_in, pages_out, evictions, cost_us) in
        run_sweep(opts, "epc_paging", jobs)
    {
        report.push_str(&format!(
            "{n:<8} {invocations:<13} {pages_in:<10} {pages_out:<11} {evictions:<11} \
             {cost_us:>8} us\n",
        ));
    }
    report.push('\n');

    // ---- Live check: load functions on one box until it refuses. ----
    report.push_str("== live box: loading echo-like functions until refusal ==\n");
    let mut policy = MiddleboxPolicy::permissive();
    policy.max_functions = MAX_FUNCTIONS as u32;
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
    for i in 0..MAX_FUNCTIONS + 3 {
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
                    "refused at request #{} (policy max_functions = {MAX_FUNCTIONS})\n",
                    i + 1
                ));
                break;
            }
        }
    }
    let bx = bn.boxes[0];
    bn.net.sim.with_node::<BentoBoxNode, _>(bx, |n, _| {
        let usage = n.bento.aggregate_usage();
        let epc_stats = n.bento.epc_stats();
        report.push_str(&format!(
            "functions loaded: {loaded}\n\
             aggregate function memory: {:.1} MB (cap respected)\n\
             EPC resident: {:.1} MB of {:.1} MB usable; paging: {} in / {} out ({} evictions)\n",
            mb(usage.memory),
            mb(n.bento.epc().resident()),
            mb(n.bento.epc().usable()),
            epc_stats.pages_in,
            epc_stats.pages_out,
            epc_stats.evictions,
        ));
    });

    say!(opts, "{}", report.trim_end());
    write_report(opts, "scalability.txt", &report);
    export_telemetry(opts, "scalability");

    // Section 7.3's count, checked on what was just written.
    let mut broken = Vec::new();
    if resident != RESIDENT_FUNCTIONS {
        broken.push(format!(
            "{resident} functions fully resident in the usable EPC, wanted {RESIDENT_FUNCTIONS}"
        ));
    }
    require_shape("scalability", &broken);
}
