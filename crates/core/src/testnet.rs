//! Stand up a Tor network with Bento boxes in a few lines, and drive a
//! client through the paper's workflow on it — connect, request a container,
//! upload, invoke — on a schedule the caller names. Used by the integration
//! tests, the examples, and every sweep binary.

use crate::client::{BentoClient, BentoClientNode, BentoEvent, BoxConn};
use crate::function::FunctionRegistry;
use crate::node::BentoBoxNode;
use crate::policy::MiddleboxPolicy;
use crate::protocol::{FunctionSpec, ImageKind};
use crate::server::BentoServer;
use crate::tokens::Token;
use conclave::attest::Ias;
use onion_crypto::hashsig::MerkleVerifyKey;
use simnet::{Ctx, Iface, NodeId, SimDuration, SimTime, Simulator};
use std::sync::{Arc, Mutex};
use tor_net::client::TorClient;
use tor_net::dir::{ExitPolicy, RelayFlags};
use tor_net::netbuild::{NetworkBuilder, TorNetwork};
use tor_net::ports::BENTO_PORT;
use tor_net::relay::{RelayConfig, RelayCore};

/// The canonical conclave image every Bento box runs (measured; clients pin
/// its measurement).
pub const ENCLAVE_IMAGE: &[u8] = b"bento-conclave-image: python runtime + function loader v1";

/// Measurement of [`ENCLAVE_IMAGE`].
pub fn enclave_measurement() -> [u8; 32] {
    onion_crypto::sha256::sha256(ENCLAVE_IMAGE)
}

/// A Tor network plus Bento infrastructure.
pub struct BentoNetwork {
    /// The underlying Tor network (owns the simulator).
    pub net: TorNetwork,
    /// Addresses of the Bento boxes.
    pub boxes: Vec<NodeId>,
    /// The shared (simulated) Intel Attestation Service.
    pub ias: Arc<Mutex<Ias>>,
    /// The IAS verification key clients pin.
    pub ias_key: MerkleVerifyKey,
}

impl BentoNetwork {
    /// Build a network with `n_boxes` Bento boxes, each running `policy`
    /// and instantiating functions from `make_registry()`.
    pub fn build(
        seed: u64,
        n_boxes: usize,
        policy: MiddleboxPolicy,
        make_registry: fn() -> FunctionRegistry,
    ) -> BentoNetwork {
        Self::build_with_iface(seed, n_boxes, policy, make_registry, Iface::tor_relay())
    }

    /// Like [`BentoNetwork::build`], with an explicit relay access interface
    /// (experiments calibrate per-circuit bandwidth through it).
    pub fn build_with_iface(
        seed: u64,
        n_boxes: usize,
        policy: MiddleboxPolicy,
        make_registry: fn() -> FunctionRegistry,
        relay_iface: Iface,
    ) -> BentoNetwork {
        Self::build_full(
            seed,
            n_boxes,
            policy,
            make_registry,
            relay_iface,
            relay_iface,
        )
    }

    /// Fully explicit construction: separate interfaces for the plain
    /// relays and for the Bento box machines (Figure 5 contends on the box
    /// uplinks while the relay fabric is generously provisioned).
    pub fn build_full(
        seed: u64,
        n_boxes: usize,
        policy: MiddleboxPolicy,
        make_registry: fn() -> FunctionRegistry,
        relay_iface: Iface,
        box_iface: Iface,
    ) -> BentoNetwork {
        let mut net = NetworkBuilder::new()
            .seed(seed)
            .middles(6)
            .exits(2)
            .hsdirs(2)
            .relay_iface(relay_iface)
            .build();
        let ias = Arc::new(Mutex::new(Ias::new([0xC0; 32], 5)));
        let ias_key = ias.lock().expect("ias lock").verify_key();

        let mut boxes = Vec::new();
        for i in 0..n_boxes {
            let mut cfg = RelayConfig::middle(&format!("bento{i}"), [0xB0 + i as u8; 32]);
            cfg.flags = RelayFlags::default()
                .with(RelayFlags::EXIT | RelayFlags::FAST | RelayFlags::BENTO | RelayFlags::GUARD);
            cfg.exit_policy = ExitPolicy::web_only();
            cfg.bento_port = Some(BENTO_PORT);
            cfg.authority_addr = Some(net.authority);
            let relay = RelayCore::new(cfg);
            let fp = relay.fingerprint();
            let tor = TorClient::new(net.authority, net.authority_key);
            let platform = {
                let mut ias_mut = ias.lock().expect("ias lock");
                // Deterministic per-box platform keys via a seeded RNG.
                let mut rng: rand::rngs::StdRng =
                    rand::SeedableRng::seed_from_u64(seed ^ (i as u64) << 8 | 0xF00D);
                ias_mut.provision_platform(1000 + i as u64, &mut rng)
            };
            let bento = BentoServer::new(
                policy.clone(),
                make_registry(),
                ExitPolicy::web_only(),
                ENCLAVE_IMAGE.to_vec(),
                ias.clone(),
                platform,
                seed.wrapping_add(i as u64),
            );
            let node = BentoBoxNode::new(relay, tor, bento);
            let addr = net
                .sim
                .add_node(format!("bento{i}"), box_iface, Box::new(node));
            net.relays.push((addr, fp));
            boxes.push(addr);
        }
        BentoNetwork {
            net,
            boxes,
            ias,
            ias_key,
        }
    }

    /// Attach a Bento-capable client node.
    pub fn add_bento_client(&mut self, name: &str) -> NodeId {
        let tor = TorClient::new(self.net.authority, self.net.authority_key);
        let bento = BentoClient::new(self.ias_key, enclave_measurement());
        let node = BentoClientNode::new(tor, bento);
        self.net
            .sim
            .add_node(name, Iface::residential(), Box::new(node))
    }
}

/// One container as the client that asked for it holds it: the session it
/// was requested over and the two capabilities the box minted for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// The client node the session belongs to.
    pub client: NodeId,
    /// The client↔box session.
    pub conn: BoxConn,
    /// Container id (names the container in the upload).
    pub container: u64,
    /// Invocation capability.
    pub invocation: Token,
    /// Shutdown capability.
    pub shutdown: Token,
}

/// What the box has said on `conn` that can answer a `request_container` or
/// an `upload`, in arrival order. Each of those requests draws exactly one,
/// so a driver step counts these, sends, and takes the next one as its
/// answer — which holds as long as nothing else the box may refuse (an
/// invocation, a shutdown) is in flight on the connection meanwhile.
fn replies(n: &BentoClientNode, conn: BoxConn) -> impl Iterator<Item = &BentoEvent> {
    n.bento_events.iter().filter(move |e| match e {
        BentoEvent::ContainerReady { conn: c, .. }
        | BentoEvent::AttestationFailed(c, _)
        | BentoEvent::UploadOk(c, _)
        | BentoEvent::Rejected(c, _) => *c == conn,
        _ => false,
    })
}

/// The scripted client session (§5: discover → container + tokens → upload
/// → invoke). Every step sends its message at the current simulated
/// instant; the waits are the caller's schedule, so a caller decides when
/// each message leaves and in what increments the simulator advances.
impl BentoNetwork {
    /// Find `self.boxes[box_idx]` in `client`'s consensus and open a session
    /// to it (requests queue until the stream connects).
    pub fn connect(&mut self, client: NodeId, box_idx: usize) -> BoxConn {
        let addr = self.boxes[box_idx];
        self.net
            .sim
            .with_node::<BentoClientNode, _>(client, |n, ctx| {
                let relay = BentoClient::discover_boxes(&n.tor)
                    .into_iter()
                    .find(|r| r.addr == addr)
                    .cloned()
                    .expect("box in the client's consensus");
                n.bento
                    .connect_box(ctx, &mut n.tor, &relay)
                    .expect("circuit to the box")
            })
    }

    /// Send `request` from `client`, advance to `deadline` in increments of
    /// `step` until the box's reply to it is in, and return that reply.
    fn await_reply(
        &mut self,
        client: NodeId,
        conn: BoxConn,
        step: SimDuration,
        deadline: SimTime,
        request: impl FnOnce(&mut BentoClientNode, &mut Ctx<'_>),
    ) -> Result<&BentoEvent, String> {
        let sim = &mut self.net.sim;
        let before = sim.with_node::<BentoClientNode, _>(client, |n, ctx| {
            request(n, ctx);
            replies(n, conn).count()
        });
        sim.step_until(step, deadline, |sim| {
            replies(sim.node_ref(client), conn).count() > before
        });
        match replies(sim.node_ref(client), conn).nth(before) {
            Some(BentoEvent::Rejected(_, reason) | BentoEvent::AttestationFailed(_, reason)) => {
                Err(reason.clone())
            }
            Some(reply) => Ok(reply),
            None => Err(format!("no reply by {deadline}")),
        }
    }

    /// Request a container of `image` over `conn` and wait for the box's
    /// answer, looking every `step` until `ready_by`. `Ok` is the container
    /// *this* request produced (attested, for an SGX image); `Err` is the
    /// box's refusal, the failed attestation, or the missed deadline.
    pub fn request_container(
        &mut self,
        client: NodeId,
        conn: BoxConn,
        image: ImageKind,
        step: SimDuration,
        ready_by: SimTime,
    ) -> Result<Session, String> {
        let reply = self.await_reply(client, conn, step, ready_by, |n, ctx| {
            n.bento.request_container(ctx, &mut n.tor, conn, image)
        })?;
        match *reply {
            BentoEvent::ContainerReady {
                conn,
                container,
                invocation,
                shutdown,
            } => Ok(Session {
                client,
                conn,
                container,
                invocation,
                shutdown,
            }),
            ref other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// Upload `spec` into the session's container (sealed, if the container
    /// is a conclave), run to `done_by`, and report the box's verdict.
    pub fn upload(
        &mut self,
        s: &Session,
        spec: &FunctionSpec,
        done_by: SimTime,
    ) -> Result<(), String> {
        let whole = done_by.since(self.net.sim.now());
        let reply = self.await_reply(s.client, s.conn, whole, done_by, |n, ctx| {
            n.bento.upload(ctx, &mut n.tor, s.conn, s.container, spec)
        })?;
        match reply {
            BentoEvent::UploadOk(..) => Ok(()),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    /// The whole workflow for one function: connect to `self.boxes[box_idx]`
    /// now, request a container (of the image the manifest names) at
    /// `at_container`, upload at `at_upload`, installed by `done_by`.
    ///
    /// # Panics
    /// With the client's event log, if the box refuses either step.
    pub fn install(
        &mut self,
        client: NodeId,
        box_idx: usize,
        spec: &FunctionSpec,
        [at_container, at_upload, done_by]: [SimTime; 3],
    ) -> Session {
        let conn = self.connect(client, box_idx);
        self.net.sim.run_until(at_container);
        let whole = at_upload.since(at_container);
        let image = spec.manifest.image;
        let session = self
            .request_container(client, conn, image, whole, at_upload)
            .unwrap_or_else(|e| self.refused(client, "container", &e));
        self.upload(&session, spec, done_by)
            .unwrap_or_else(|e| self.refused(client, "upload", &e));
        session
    }

    fn refused(&self, client: NodeId, step: &str, reason: &str) -> ! {
        let n: &BentoClientNode = self.net.sim.node_ref(client);
        panic!(
            "{step} refused: {reason}; client events: {:?}",
            n.bento_events
        )
    }

    /// Invoke the session's function with `input`; outputs accumulate in the
    /// client's event log.
    pub fn invoke(&mut self, s: &Session, input: Vec<u8>) {
        self.net
            .sim
            .with_node::<BentoClientNode, _>(s.client, |n, ctx| {
                n.bento.invoke(ctx, &mut n.tor, s.conn, s.invocation, input)
            });
    }

    /// [`BentoNetwork::invoke`], then advance in increments of `step` until
    /// the function ends this invocation's output. `false` if `deadline`
    /// came first.
    pub fn invoke_and_wait(
        &mut self,
        s: &Session,
        input: Vec<u8>,
        step: SimDuration,
        deadline: SimTime,
    ) -> bool {
        let (client, conn) = (s.client, s.conn);
        let ends = move |sim: &Simulator| {
            sim.node_ref::<BentoClientNode>(client)
                .bento_events
                .iter()
                .filter(|e| matches!(e, BentoEvent::OutputEnd(c) if *c == conn))
                .count()
        };
        let before = ends(&self.net.sim);
        self.invoke(s, input);
        self.net
            .sim
            .step_until(step, deadline, |sim| ends(sim) > before)
    }
}
