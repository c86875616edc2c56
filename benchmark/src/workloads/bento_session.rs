//! `bento_session` — the control plane and short, slow-start-bound flows.
//! One Bento box on Table 2's 15 ms / 110 kB/s links; after bootstrap, four
//! back-to-back full sessions: discover the box, connect on a fresh circuit,
//! request an SGX container and verify its attestation, upload Browser
//! sealed under the attested channel, invoke it on Table 2's smallest site
//! at padding 0, read the page back, shut the container down.
//!
//! Why it exists: it uses `onion-crypto` and `tor-net` the other way round
//! from `bulk_fetch` — ntor/x25519, hash signatures, consensus and
//! descriptor codecs, circuit builds — and is the only workload that runs
//! `conclave`, `sandbox`, `core` and `functions`' Browser. Bulk cell crypto
//! is the minority of its wall time.

use super::{splitmix, work_of, Prepared, Rep, Slicer};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use bento::protocol::{FunctionSpec, ImageKind};
use bento::testnet::BentoNetwork;
use bento::{BentoClient, BentoClientNode, BentoEvent, BoxConn, MiddleboxPolicy};
use bento_functions::browser::{self, BrowseRequest};
use bento_functions::compress::decompress;
use bento_functions::standard_registry;
use bento_functions::web::SiteModel;
use simnet::{Iface, NodeId, SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;
use tor_net::ports::HTTP_PORT;

/// Table 2's per-circuit effective bandwidth model.
fn relay_iface() -> Iface {
    Iface::symmetric(SimDuration::from_millis(15), 110_000)
}

/// The simulation seed of `table2`'s padding-0 Browser trial. The benchmark
/// seed generates the page; the simulator's seed picks keys and paths, and
/// varying it moves the work per rep by ±13%, so it stays fixed.
const SIM_SEED: u64 = 3 ^ 1;

/// A session step that has not completed within this many simulated seconds
/// has failed.
const STEP_HORIZON_S: u64 = 120;

/// Generated inputs.
pub struct BentoSession {
    sessions: usize,
    site: SiteModel,
    /// What a correct page load returns once decompressed: the HTML then
    /// every asset, in document order.
    page: Vec<u8>,
}

impl BentoSession {
    /// Table 2's `aliexpress-com` with up to 255 bytes of seed-derived size
    /// added per asset (under 0.5% of the page), so different seeds are
    /// different pages. The content generator keeps `table2`'s seed: how well
    /// a page compresses moves its load time by 12% between content seeds.
    pub fn new(seed: u64, smoke: bool) -> BentoSession {
        let mut state = seed;
        let assets: Vec<u32> = [80_000u32, 60_000, 40_000, 30_000]
            .iter()
            .map(|base| base + (splitmix(&mut state) % 256) as u32)
            .collect();
        let site = SiteModel::custom("aliexpress-com", &assets, 20_000, 77 ^ 5);
        let page = site
            .server_pages()
            .into_iter()
            .flat_map(|(_, parts)| parts.into_iter().flatten())
            .collect();
        BentoSession {
            sessions: if smoke { 1 } else { 4 },
            site,
            page,
        }
    }
}

struct Session<'a> {
    bn: &'a mut BentoNetwork,
    client: NodeId,
    tracer: &'a Tracer,
    rep: u32,
    /// Client events already looked at: each poll scans only the new ones.
    seen: usize,
}

/// Simulated milliseconds between two looks at the client's events. The
/// simulator idles for most of a session's 6 simulated seconds (15 ms
/// links), so the polls outnumber its events: rebuilt with steps of 1, 2 and
/// 5 ms, `wall_s` read 26.4, 25.5 and 24.6 ms. A page load is quantised to
/// the step, and seeds move it by about 2 ms; a coarser step would make
/// every seed's `sim_s` read the same.
const POLL_MS: u64 = 2;

impl Session<'_> {
    fn now_ns(&self) -> u64 {
        self.bn.net.sim.now().as_nanos()
    }

    /// Run the simulation until the client logs an event `want` accepts.
    /// False if the box refuses, attestation fails or the connection closes
    /// first, or if the step horizon passes.
    fn wait_for(&mut self, conn: BoxConn, want: impl Fn(&BentoEvent) -> bool) -> bool {
        let deadline = self.bn.net.sim.now() + SimDuration::from_secs(STEP_HORIZON_S);
        loop {
            let node = self.bn.net.sim.node_ref::<BentoClientNode>(self.client);
            let fresh = &node.bento_events[self.seen..];
            self.seen = node.bento_events.len();
            for e in fresh {
                if want(e) {
                    return true;
                }
                if matches!(e,
                    BentoEvent::Rejected(c, _) | BentoEvent::AttestationFailed(c, _) | BentoEvent::Closed(c)
                    if *c == conn)
                {
                    return false;
                }
            }
            let now = self.bn.net.sim.now();
            if now >= deadline {
                return false;
            }
            self.bn
                .net
                .sim
                .run_until(now + SimDuration::from_millis(POLL_MS));
        }
    }

    /// One full session. Returns the simulated page-load time (invoke to
    /// `OutputEnd`) and the bytes Browser returned, or `None` at the first
    /// step that fails.
    fn run(
        &mut self,
        parent: Option<SpanId>,
        server: NodeId,
        path: String,
    ) -> Option<(f64, Vec<u8>)> {
        let (tracer, rep, client) = (self.tracer, self.rep, self.client);

        let span = tracer.begin("connect_box", parent, rep, self.now_ns());
        let conn = self
            .bn
            .net
            .sim
            .with_node::<BentoClientNode, _>(client, |n, ctx| {
                let relay = BentoClient::discover_boxes(&n.tor)
                    .first()
                    .cloned()
                    .cloned()?;
                n.bento.connect_box(ctx, &mut n.tor, &relay)
            })?;
        let ok = self.wait_for(
            conn,
            |e| matches!(e, BentoEvent::Connected(c) if *c == conn),
        );
        tracer.end(span, self.now_ns());
        if !ok {
            return None;
        }

        let span = tracer.begin("attest", parent, rep, self.now_ns());
        self.bn
            .net
            .sim
            .with_node::<BentoClientNode, _>(client, |n, ctx| {
                n.bento
                    .request_container(ctx, &mut n.tor, conn, ImageKind::Sgx);
            });
        let ok = self.wait_for(
            conn,
            |e| matches!(e, BentoEvent::ContainerReady { conn: c, .. } if *c == conn),
        );
        tracer.end(span, self.now_ns());
        let (container, invoke_token, shutdown_token) = self
            .bn
            .net
            .sim
            .node_ref::<BentoClientNode>(client)
            .container_ready(conn)
            .filter(|_| ok)?;

        let span = tracer.begin("upload", parent, rep, self.now_ns());
        self.bn
            .net
            .sim
            .with_node::<BentoClientNode, _>(client, |n, ctx| {
                let spec = FunctionSpec {
                    params: vec![],
                    manifest: browser::manifest(false),
                };
                n.bento.upload(ctx, &mut n.tor, conn, container, &spec);
            });
        let ok = self.wait_for(
            conn,
            |e| matches!(e, BentoEvent::UploadOk(c, _) if *c == conn),
        );
        tracer.end(span, self.now_ns());
        if !ok {
            return None;
        }

        let span = tracer.begin("invoke", parent, rep, self.now_ns());
        let t0: SimTime = self.bn.net.sim.now();
        self.bn
            .net
            .sim
            .with_node::<BentoClientNode, _>(client, |n, ctx| {
                let req = BrowseRequest {
                    server,
                    port: HTTP_PORT,
                    path,
                    padding: 0,
                    dropbox_on: None,
                };
                n.bento
                    .invoke(ctx, &mut n.tor, conn, invoke_token, req.encode());
            });
        let ok = self.wait_for(
            conn,
            |e| matches!(e, BentoEvent::OutputEnd(c) if *c == conn),
        );
        let load_s = self.bn.net.sim.now().since(t0).as_secs_f64();
        tracer.end(span, self.now_ns());
        if !ok {
            return None;
        }
        let output = self
            .bn
            .net
            .sim
            .node_ref::<BentoClientNode>(client)
            .output_bytes(conn);

        let span = tracer.begin("shutdown", parent, rep, self.now_ns());
        self.bn
            .net
            .sim
            .with_node::<BentoClientNode, _>(client, |n, ctx| {
                n.bento.shutdown(ctx, &mut n.tor, conn, shutdown_token);
            });
        let ok = self.wait_for(
            conn,
            |e| matches!(e, BentoEvent::ShutdownAck(c) if *c == conn),
        );
        self.bn
            .net
            .sim
            .with_node::<BentoClientNode, _>(client, |n, ctx| {
                n.bento.close_box(ctx, &mut n.tor, conn);
            });
        tracer.end(span, self.now_ns());
        ok.then_some((load_s, output))
    }
}

impl Prepared for BentoSession {
    fn rep(&self, rep: u32, tracer: &Arc<Tracer>) -> Rep {
        let root = tracer.begin("rep", None, rep, 0);
        let t = Instant::now();
        let span = tracer.begin("net_build", root, rep, 0);
        let mut bn = BentoNetwork::build_with_iface(
            SIM_SEED,
            1,
            MiddleboxPolicy::permissive(),
            standard_registry,
            relay_iface(),
        );
        let server = bn.net.add_web_server("web", self.site.server_pages());
        let client = bn.add_bento_client("alice");
        tracer.end(span, 0);
        let setup_s = t.elapsed().as_secs_f64();

        // One slice for the bootstrap and one per session.
        let mut slicer = Slicer::start();
        let span = tracer.begin("bootstrap", root, rep, 0);
        bn.net
            .sim
            .run_until(SimTime::ZERO + SimDuration::from_secs(2));
        tracer.end(span, bn.net.sim.now().as_nanos());
        let mut session = Session {
            bn: &mut bn,
            client,
            tracer,
            rep,
            seen: 0,
        };
        let results: Vec<Option<(f64, Vec<u8>)>> = (0..self.sessions)
            .map(|_| {
                slicer.cut();
                let span = tracer.begin("session", root, rep, session.now_ns());
                let result = session.run(span, server, self.site.html_path());
                tracer.end(span, session.now_ns());
                result
            })
            .collect();
        let slices = slicer.finish();
        tracer.end(root, bn.net.sim.now().as_nanos());

        // Untimed: each session's output must decompress to the page, byte
        // for byte.
        let loads: Vec<f64> = results
            .iter()
            .flatten()
            .filter(|(_, output)| decompress(output).as_deref() == Some(&self.page))
            .map(|(load_s, _)| *load_s)
            .collect();
        let failed = (self.sessions - loads.len()) as u64;
        Rep {
            setup_s,
            wall_s: slices.iter().sum(),
            slices,
            sim_s: median(&loads),
            payload_bytes: loads.len() as u64 * self.page.len() as u64,
            attempted: self.sessions as u64,
            failed,
            work: work_of(bn.net.sim.stats()),
            derived: Vec::new(),
        }
    }
}
