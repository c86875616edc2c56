//! The Bento server (§5.2–§5.5): container management, token issuance,
//! manifest negotiation, the attested upload path, and function execution.
//!
//! The server is a *component* driven by its host node
//! ([`crate::node::BentoBoxNode`]): the host feeds it local-stream events
//! from the co-resident relay (the Bento protocol), connection events for
//! the functions' direct network I/O, and Tor events for the functions'
//! Stem-mediated circuits.

// A fault-recovery path: a panic here turns a recoverable fault into a
// crash.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::function::{ContainerRuntime, FnAction, Function, FunctionApi, FunctionRegistry};
use crate::manifest::Manifest;
use crate::policy::MiddleboxPolicy;
use crate::protocol::{BentoMsg, FunctionSpec, ImageKind};
use crate::stem::{StemCall, StemFirewall};
use crate::tokens::Token;
use conclave::attest::{Ias, Platform};
use conclave::channel::AttestedChannel;
use conclave::enclave::Enclave;
use conclave::epc::Epc;
use conclave::fsprotect::FsProtect;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandbox::cgroup::{CGroup, ResourceLimits};
use sandbox::container::Container;
use sandbox::netrules::{NetRule, NetRules};
use simnet::{ConnId, Ctx};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use tor_net::client::{CircuitHandle, TerminalReq, TorClient, TorEvent};
use tor_net::dir::ExitPolicy;
use tor_net::hs::{HiddenServiceHost, HsEvent};
use tor_net::relay::{LocalStream, RelayCore};
use tor_net::stream_frame::{encode_frame, FrameAssembler};
use tor_net::StreamTarget;

// Control-plane telemetry: container/function lifecycle and policy
// decisions. All cold paths, recorded inline at the decision point (the
// rejected/granted counters hook the single `reply` choke point).
static T_REJECTED: telemetry::Counter = telemetry::Counter::new("bento.requests_rejected");
static T_CONTAINERS: telemetry::Counter = telemetry::Counter::new("bento.containers_granted");
static T_UPLOADS: telemetry::Counter = telemetry::Counter::new("bento.functions_uploaded");
static T_INVOKES: telemetry::Counter = telemetry::Counter::new("bento.invocations");
static T_TEARDOWNS: telemetry::Counter = telemetry::Counter::new("bento.containers_torn_down");
static T_INVOKE_BYTES: telemetry::Histo = telemetry::Histo::new("bento.invoke_input_bytes");
static T_RECOVERED: telemetry::Counter = telemetry::Counter::new("bento.functions_recovered");

/// Timer-tag namespace for function timers.
pub const FN_TAG_BASE: u64 = 0x0300_0000_0000_0000;
/// Bits of a function timer tag reserved for the function's own tag value.
const FN_TAG_BITS: u64 = 20;

/// Estimated resident footprint of the Bento runtime inside a function
/// container, bytes (paper §7.3: "maximum memory usage of a Bento server
/// and Browser is roughly 16–20 MB").
pub const FN_BASE_MEMORY: u64 = 16 << 20;
/// Additional conclave overhead (paper §7.3: "the estimated 7.3 MB
/// required for conclaves").
pub const CONCLAVE_OVERHEAD: u64 = 7_654_604; // ≈ 7.3 MiB

/// Externals the server acts through, lent by the host for each call.
pub struct Deps<'a, 'b> {
    /// Simulator context of the host node.
    pub ctx: &'a mut Ctx<'b>,
    /// The co-resident relay (local streams back to clients).
    pub relay: &'a mut RelayCore,
    /// The box's onion proxy for functions.
    pub tor: &'a mut TorClient,
}

struct ContainerEntry {
    image: ImageKind,
    invocation_token: Token,
    shutdown_token: Token,
    channel: Option<AttestedChannel>,
    enclave_id: Option<u64>,
    /// Execution environment; present after a successful upload.
    runtime: Option<ContainerRuntime>,
    function: Option<Box<dyn Function>>,
    manifest: Option<Manifest>,
    /// The client stream whose Invoke is currently being served.
    invoker: Option<LocalStream>,
    /// function-local conn handle <-> simnet conn.
    conns: BTreeMap<u64, ConnId>,
    /// function-local circ handle <-> tor circuit.
    circs: BTreeMap<u64, CircuitHandle>,
    circs_rev: BTreeMap<usize, u64>,
    /// (fn circ, fn stream) <-> tor stream id.
    streams: BTreeMap<(u64, u64), u16>,
    streams_rev: BTreeMap<(usize, u16), u64>,
    /// function-local hs handle -> index into server hs table.
    hss: BTreeMap<u64, u64>,
    alive: bool,
}

struct HsEntry {
    container: u64,
    fn_handle: u64,
    host: HiddenServiceHost,
}

/// The crash-surviving record of one uploaded function: enough to rebuild
/// the container after a host restart with the *same* client-held tokens,
/// so clients reattach without renegotiating. Stored sealed to
/// (platform, enclave measurement).
struct StoredFunction {
    image: ImageKind,
    invocation_token: Token,
    shutdown_token: Token,
    /// The plain (already-opened) `FunctionSpec` bytes.
    spec: Vec<u8>,
}

impl StoredFunction {
    fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(65 + self.spec.len());
        v.push(match self.image {
            ImageKind::Plain => 0u8,
            ImageKind::Sgx => 1u8,
        });
        v.extend_from_slice(&self.invocation_token.0);
        v.extend_from_slice(&self.shutdown_token.0);
        v.extend_from_slice(&self.spec);
        v
    }

    fn decode(b: &[u8]) -> Option<StoredFunction> {
        if b.len() < 65 {
            return None;
        }
        let image = match b[0] {
            0 => ImageKind::Plain,
            1 => ImageKind::Sgx,
            _ => return None,
        };
        Some(StoredFunction {
            image,
            invocation_token: Token::from_bytes(&b[1..33])?,
            shutdown_token: Token::from_bytes(&b[33..65])?,
            spec: b[65..].to_vec(),
        })
    }
}

struct StreamState {
    assembler: FrameAssembler,
}

/// The Bento server component.
pub struct BentoServer {
    policy: MiddleboxPolicy,
    registry: FunctionRegistry,
    /// Aggregate cgroup capping all functions together (§6.2).
    aggregate: CGroup,
    epc: Epc,
    ias: Arc<Mutex<Ias>>,
    platform: Platform,
    enclave_image: Vec<u8>,
    /// The relay's exit policy, compiled into per-container net rules.
    exit_policy: ExitPolicy,
    containers: BTreeMap<u64, ContainerEntry>,
    next_container: u64,
    streams: BTreeMap<u64, StreamState>,
    firewall: StemFirewall,
    net_conns: BTreeMap<ConnId, (u64, u64)>,
    hss: BTreeMap<u64, HsEntry>,
    next_hs: u64,
    rng: StdRng,
    /// Per-function cumulative network budget (operator-side, not part of
    /// the advertised policy wire format).
    function_network_budget: u64,
    /// The box's "disk": sealed [`StoredFunction`] records keyed by
    /// container id. Survives [`BentoServer::crash`]; `BTreeMap` so replay
    /// order is deterministic.
    sealed_store: std::collections::BTreeMap<u64, Vec<u8>>,
    /// Set by [`BentoServer::crash`] when there are records to replay;
    /// recovery waits for the onion proxy's next `ConsensusReady` so
    /// reinstalled functions can immediately build circuits.
    pending_recovery: bool,
}

/// One container's operator-visible storage: (blob/file name hash, bytes).
pub type ContainerStorageView = Vec<([u8; 32], Vec<u8>)>;

impl BentoServer {
    /// Create a server.
    pub fn new(
        policy: MiddleboxPolicy,
        registry: FunctionRegistry,
        exit_policy: ExitPolicy,
        enclave_image: Vec<u8>,
        ias: Arc<Mutex<Ias>>,
        platform: Platform,
        seed: u64,
    ) -> BentoServer {
        BentoServer {
            policy,
            registry,
            aggregate: CGroup::new(ResourceLimits::default_aggregate()),
            epc: Epc::default(),
            ias,
            platform,
            enclave_image,
            exit_policy,
            containers: BTreeMap::new(),
            next_container: 1,
            streams: BTreeMap::new(),
            firewall: StemFirewall::new(),
            net_conns: BTreeMap::new(),
            hss: BTreeMap::new(),
            next_hs: 1,
            rng: StdRng::seed_from_u64(seed),
            function_network_budget: ResourceLimits::default_function().network,
            sealed_store: std::collections::BTreeMap::new(),
            pending_recovery: false,
        }
    }

    /// Override the per-function cumulative network budget (bytes). An
    /// operator-side runtime knob; §6.2's cap on functions "leveraging the
    /// middleboxes' resources as a tool for undertaking DDoS attacks".
    pub fn set_function_network_budget(&mut self, bytes: u64) {
        self.function_network_budget = bytes;
    }

    /// The node policy (e.g. for the policy-query function).
    pub fn policy(&self) -> &MiddleboxPolicy {
        &self.policy
    }

    /// Number of loaded (alive) functions.
    pub fn live_functions(&self) -> usize {
        self.containers.values().filter(|c| c.alive).count()
    }

    /// Aggregate resource usage across all functions.
    pub fn aggregate_usage(&self) -> sandbox::cgroup::ResourceUsage {
        self.aggregate.usage()
    }

    /// EPC paging statistics (scalability experiments).
    pub fn epc_stats(&self) -> conclave::epc::PagingStats {
        self.epc.stats()
    }

    /// The EPC (scalability experiments).
    pub fn epc(&self) -> &Epc {
        &self.epc
    }

    /// Stem firewall violations (operator inspection).
    pub fn stem_violations(&self) -> usize {
        self.firewall.violations().len()
    }

    /// Seccomp violations logged by the containers the box holds
    /// (operator inspection).
    pub fn seccomp_violations(&self) -> usize {
        self.containers
            .values()
            .filter_map(|c| c.runtime.as_ref())
            .map(|rt| rt.container.violations().len())
            .sum()
    }

    /// What the operator can see of each container's storage: FS Protect
    /// ciphertext for conclave containers, raw files for plain ones
    /// (§6.2's plausible-deniability inspection surface). Each entry pairs
    /// the container id with its [`ContainerStorageView`].
    pub fn operator_storage_view(&self) -> Vec<(u64, ContainerStorageView)> {
        self.containers
            .iter()
            .filter_map(|(id, c)| {
                let rt = c.runtime.as_ref()?;
                let blobs = match &rt.fsp {
                    Some(fsp) => fsp
                        .operator_view()
                        .into_iter()
                        .map(|(k, v)| (k, v.to_vec()))
                        .collect(),
                    None => rt
                        .container
                        .fs()
                        .list()
                        .iter()
                        .map(|p| {
                            #[expect(
                                clippy::expect_used,
                                reason = "`p` came from fs().list() on the same immutable borrow"
                            )]
                            let blob = rt.container.fs().read(p).expect("listed file").to_vec();
                            (onion_crypto::sha256::sha256(p.as_bytes()), blob)
                        })
                        .collect(),
                };
                Some((*id, blobs))
            })
            .collect()
    }

    /// Memory footprint of one function container of `manifest_memory`
    /// bytes in the given image, as charged against the EPC.
    pub fn enclave_footprint(manifest_memory: u64) -> u64 {
        FN_BASE_MEMORY.max(manifest_memory) + CONCLAVE_OVERHEAD
    }

    // ------------------------------------------------------------------
    // Local-stream (Bento protocol) events.
    // ------------------------------------------------------------------

    /// A client stream reached the Bento port.
    pub fn on_local_stream_opened(&mut self, stream: LocalStream) {
        self.streams.insert(
            stream.0,
            StreamState {
                assembler: FrameAssembler::new(),
            },
        );
    }

    /// Bytes arrived on a client stream.
    pub fn on_local_stream_data(
        &mut self,
        deps: &mut Deps<'_, '_>,
        stream: LocalStream,
        data: Vec<u8>,
    ) {
        let frames = match self.streams.get_mut(&stream.0) {
            Some(st) => {
                st.assembler.push(&data);
                st.assembler.drain_frames()
            }
            None => return,
        };
        for frame in frames {
            match BentoMsg::decode(&frame) {
                Ok(msg) => self.handle_msg(deps, stream, msg),
                Err(_) => self.reply(
                    deps,
                    stream,
                    &BentoMsg::Rejected {
                        reason: "malformed frame".into(),
                    },
                ),
            }
        }
    }

    /// A client stream closed.
    pub fn on_local_stream_closed(&mut self, stream: LocalStream) {
        self.streams.remove(&stream.0);
        // Clear invoker pointers that referenced this stream.
        for c in self.containers.values_mut() {
            if c.invoker == Some(stream) {
                c.invoker = None;
            }
        }
    }

    fn reply(&mut self, deps: &mut Deps<'_, '_>, stream: LocalStream, msg: &BentoMsg) {
        match msg {
            BentoMsg::Rejected { .. } => T_REJECTED.inc(),
            BentoMsg::ContainerReady { .. } => T_CONTAINERS.inc(),
            BentoMsg::UploadOk { .. } => T_UPLOADS.inc(),
            _ => {}
        }
        deps.relay
            .local_send(deps.ctx, stream, &encode_frame(&msg.encode()));
    }

    fn handle_msg(&mut self, deps: &mut Deps<'_, '_>, stream: LocalStream, msg: BentoMsg) {
        match msg {
            BentoMsg::GetPolicy => {
                let p = BentoMsg::Policy(self.policy.encode());
                self.reply(deps, stream, &p);
            }
            BentoMsg::RequestContainer {
                image,
                client_hello,
            } => self.handle_request_container(deps, stream, image, client_hello),
            BentoMsg::UploadFunction {
                container_id,
                payload,
                sealed,
            } => self.handle_upload(deps, stream, container_id, payload, sealed),
            BentoMsg::Invoke { token, input } => self.handle_invoke(deps, stream, token, input),
            BentoMsg::Shutdown { token } => self.handle_shutdown(deps, stream, token),
            // Client-bound messages arriving at the server are protocol
            // violations; refuse quietly.
            _ => self.reply(
                deps,
                stream,
                &BentoMsg::Rejected {
                    reason: "unexpected message".into(),
                },
            ),
        }
    }

    fn handle_request_container(
        &mut self,
        deps: &mut Deps<'_, '_>,
        stream: LocalStream,
        image: ImageKind,
        client_hello: Option<Vec<u8>>,
    ) {
        if self.live_functions() >= self.policy.max_functions as usize {
            self.reply(
                deps,
                stream,
                &BentoMsg::Rejected {
                    reason: "function limit reached".into(),
                },
            );
            return;
        }
        let offered = match image {
            ImageKind::Plain => self.policy.offers_plain,
            ImageKind::Sgx => self.policy.offers_sgx,
        };
        if !offered {
            self.reply(
                deps,
                stream,
                &BentoMsg::Rejected {
                    reason: "image not offered".into(),
                },
            );
            return;
        }
        let id = self.next_container;
        self.next_container += 1;
        let invocation_token = Token::random(&mut self.rng);
        let shutdown_token = Token::random(&mut self.rng);
        let (channel, enclave_id, server_hello) = match image {
            ImageKind::Plain => (None, None, None),
            ImageKind::Sgx => {
                let Some(hello) = client_hello else {
                    self.reply(
                        deps,
                        stream,
                        &BentoMsg::Rejected {
                            reason: "SGX image requires attestation hello".into(),
                        },
                    );
                    return;
                };
                // The conclave's footprint is the runtime base plus the
                // conclave overhead (§7.3), not the policy's memory ceiling.
                let footprint = Self::enclave_footprint(0);
                let enclave = Enclave::create(
                    id,
                    &self.enclave_image,
                    footprint,
                    self.platform.tcb_version,
                );
                if !self.epc.register(id, footprint) {
                    self.reply(
                        deps,
                        stream,
                        &BentoMsg::Rejected {
                            reason: "enclave exceeds EPC".into(),
                        },
                    );
                    return;
                }
                self.epc.touch(id);
                // Lock poisoning can't happen in practice (the simulator never
                // panics while holding the lock), but this is a recovery path:
                // degrade to a rejection rather than unwrap.
                let Ok(mut ias) = self.ias.lock() else {
                    self.epc.unregister(id);
                    self.reply(
                        deps,
                        stream,
                        &BentoMsg::Rejected {
                            reason: "attestation service unavailable".into(),
                        },
                    );
                    return;
                };
                match AttestedChannel::server_respond(
                    &mut self.rng,
                    &enclave,
                    &self.platform,
                    &mut ias,
                    &hello,
                ) {
                    Ok((reply, channel)) => (Some(channel), Some(id), Some(reply)),
                    Err(e) => {
                        drop(ias);
                        self.epc.unregister(id);
                        self.reply(
                            deps,
                            stream,
                            &BentoMsg::Rejected {
                                reason: format!("attestation failed: {e}"),
                            },
                        );
                        return;
                    }
                }
            }
        };
        self.containers.insert(
            id,
            ContainerEntry {
                image,
                invocation_token,
                shutdown_token,
                channel,
                enclave_id,
                runtime: None,
                function: None,
                manifest: None,
                invoker: None,
                conns: BTreeMap::new(),
                circs: BTreeMap::new(),
                circs_rev: BTreeMap::new(),
                streams: BTreeMap::new(),
                streams_rev: BTreeMap::new(),
                hss: BTreeMap::new(),
                alive: true,
            },
        );
        let ready = BentoMsg::ContainerReady {
            container_id: id,
            invocation_token: invocation_token.0,
            shutdown_token: shutdown_token.0,
            server_hello,
        };
        self.reply(deps, stream, &ready);
    }

    /// Compile the relay's exit policy into container net rules (§5.3's
    /// iptables translation). The container may additionally reach the
    /// Bento box's own Tor instance only through the Stem firewall, never
    /// directly.
    fn compile_net_rules(&self) -> NetRules {
        let mut rules = NetRules::deny_all();
        for r in &self.exit_policy.rules {
            rules.push(NetRule {
                accept: r.accept,
                host: r.host.map(|h| h.0),
                ports: r.ports,
            });
        }
        rules
    }

    fn handle_upload(
        &mut self,
        deps: &mut Deps<'_, '_>,
        stream: LocalStream,
        container_id: u64,
        payload: Vec<u8>,
        sealed: bool,
    ) {
        let reject = |server: &mut Self, deps: &mut Deps<'_, '_>, reason: String| {
            server.reply(deps, stream, &BentoMsg::Rejected { reason });
        };
        let Some(entry) = self.containers.get_mut(&container_id) else {
            reject(self, deps, "no such container".into());
            return;
        };
        if !entry.alive || entry.runtime.is_some() {
            reject(self, deps, "container not accepting uploads".into());
            return;
        }
        let plain = if sealed {
            let Some(channel) = entry.channel.as_mut() else {
                reject(self, deps, "no attested channel".into());
                return;
            };
            match channel.open_msg(&payload) {
                Ok(p) => p,
                Err(_) => {
                    reject(self, deps, "sealed payload failed to open".into());
                    return;
                }
            }
        } else {
            payload
        };
        let spec = match FunctionSpec::decode(&plain) {
            Ok(s) => s,
            Err(_) => {
                reject(self, deps, "malformed function spec".into());
                return;
            }
        };
        // Manifest vs image consistency and node policy (§5.5).
        let entry_image = entry.image;
        if spec.manifest.image != entry_image {
            reject(self, deps, "manifest image mismatch".into());
            return;
        }
        if let Some(reason) = self.policy.refuses(&spec.manifest) {
            reject(self, deps, reason);
            return;
        }
        let Some(function) = self.registry.instantiate(&spec.manifest.name, &spec.params) else {
            reject(
                self,
                deps,
                format!("unknown function {:?}", spec.manifest.name),
            );
            return;
        };
        // Build the execution environment, least-privilege per manifest.
        let limits = ResourceLimits {
            memory: spec.manifest.memory.min(self.policy.max_memory),
            cpu_ms: self.policy.max_cpu_ms,
            disk: spec.manifest.disk.min(self.policy.max_disk),
            network: self.function_network_budget,
        };
        let net_rules = self.compile_net_rules();
        let container = Container::new(
            container_id,
            limits,
            spec.manifest.to_seccomp(),
            net_rules,
            limits.disk.max(1),
            1024,
        );
        let fsp = match entry_image {
            ImageKind::Sgx => Some(FsProtect::launch(&mut self.rng)),
            ImageKind::Plain => None,
        };
        // Charge the base footprint against the aggregate group.
        if self.aggregate.alloc_memory(FN_BASE_MEMORY).is_err() {
            reject(self, deps, "box function memory exhausted".into());
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "entry inserted into `containers` earlier in this function"
        )]
        let entry = self.containers.get_mut(&container_id).expect("exists");
        entry.runtime = Some(ContainerRuntime {
            container,
            fsp,
            image: entry_image,
        });
        entry.function = Some(function);
        // Until the first Invoke arrives, function output (e.g. unsolicited
        // load reports from a timer) rides the uploader's stream — otherwise
        // a never-invoked function has no way to speak at all.
        entry.invoker = Some(stream);
        self.firewall
            .register_function(container_id, spec.manifest.stem.iter().copied());
        entry.manifest = Some(spec.manifest);
        self.run_function(deps, container_id, |f, api| f.on_install(api));
        // The entry may have terminated itself during install.
        if let Some(e) = self.containers.get(&container_id).filter(|c| c.alive) {
            // Persist the function to the box's sealed disk so a host crash
            // can rebuild it with the same client-held tokens.
            let (invocation_token, shutdown_token) = (e.invocation_token, e.shutdown_token);
            let record = StoredFunction {
                image: entry_image,
                invocation_token,
                shutdown_token,
                spec: plain,
            };
            let (secret, measurement) = self.sealing_identity();
            self.sealed_store.insert(
                container_id,
                conclave::sealed::seal_data(&secret, &measurement, &record.encode()),
            );
            self.reply(deps, stream, &BentoMsg::UploadOk { container_id });
        } else {
            self.reply(
                deps,
                stream,
                &BentoMsg::Rejected {
                    reason: "function terminated during install".into(),
                },
            );
        }
    }

    fn find_by_shutdown(&self, token: &[u8; 32]) -> Option<u64> {
        self.containers
            .iter()
            .find(|(_, c)| c.alive && c.shutdown_token.matches(token))
            .map(|(id, _)| *id)
    }

    fn handle_invoke(
        &mut self,
        deps: &mut Deps<'_, '_>,
        stream: LocalStream,
        token: [u8; 32],
        input: Vec<u8>,
    ) {
        let Some((&id, entry)) = self
            .containers
            .iter_mut()
            .find(|(_, c)| c.alive && c.invocation_token.matches(&token))
        else {
            self.reply(
                deps,
                stream,
                &BentoMsg::Rejected {
                    reason: "bad invocation token".into(),
                },
            );
            return;
        };
        if entry.function.is_none() {
            self.reply(
                deps,
                stream,
                &BentoMsg::Rejected {
                    reason: "no function uploaded".into(),
                },
            );
            return;
        }
        entry.invoker = Some(stream);
        T_INVOKES.inc();
        T_INVOKE_BYTES.record(input.len() as u64);
        // Swap the enclave in (paging cost accrues in the EPC stats).
        if entry.enclave_id.is_some() {
            self.epc.touch(id);
        }
        self.run_function(deps, id, move |f, api| f.on_invoke(api, input));
    }

    fn handle_shutdown(&mut self, deps: &mut Deps<'_, '_>, stream: LocalStream, token: [u8; 32]) {
        // The invocation token must NOT be sufficient: only the shutdown
        // token terminates (§5.3).
        let Some(id) = self.find_by_shutdown(&token) else {
            self.reply(
                deps,
                stream,
                &BentoMsg::Rejected {
                    reason: "bad shutdown token".into(),
                },
            );
            return;
        };
        self.teardown_container(deps, id, "shutdown token presented");
        self.reply(deps, stream, &BentoMsg::ShutdownAck);
    }

    fn teardown_container(&mut self, deps: &mut Deps<'_, '_>, id: u64, reason: &str) {
        let Some(entry) = self.containers.get_mut(&id) else {
            return;
        };
        if !entry.alive {
            return;
        }
        entry.alive = false;
        T_TEARDOWNS.inc();
        if let Some(rt) = entry.runtime.as_mut() {
            rt.container.terminate(reason);
            self.aggregate.free_memory(FN_BASE_MEMORY);
        }
        let circs: Vec<CircuitHandle> = entry.circs.values().copied().collect();
        let conns: Vec<ConnId> = entry.conns.values().copied().collect();
        let hss: Vec<u64> = entry.hss.values().copied().collect();
        entry.function = None;
        for c in circs {
            deps.tor.destroy_circuit(deps.ctx, c);
        }
        for c in conns {
            deps.ctx.close(c);
            self.net_conns.remove(&c);
        }
        for h in hss {
            self.hss.remove(&h);
        }
        self.firewall.remove_function(id);
        if let Some(eid) = self.containers.get(&id).and_then(|e| e.enclave_id) {
            self.epc.unregister(eid);
        }
        // An intentionally-terminated function must not resurrect after a
        // crash: erase its disk record.
        self.sealed_store.remove(&id);
    }

    // ------------------------------------------------------------------
    // Crash recovery (sealed disk).
    // ------------------------------------------------------------------

    fn sealing_identity(&self) -> ([u8; 32], [u8; 32]) {
        (
            self.platform.sealing_secret(),
            onion_crypto::sha256::sha256(&self.enclave_image),
        )
    }

    /// The host crashed: all volatile state (containers, channels, streams,
    /// firewall grants) is gone. The sealed store — this box's disk — and
    /// static configuration survive. Call on the simulator's crash hook;
    /// recovery replays the store after the next consensus arrives.
    pub fn crash(&mut self) {
        self.containers.clear();
        self.streams.clear();
        self.net_conns.clear();
        self.hss.clear();
        self.firewall = StemFirewall::new();
        self.aggregate = CGroup::new(ResourceLimits::default_aggregate());
        self.epc = Epc::default();
        self.pending_recovery = !self.sealed_store.is_empty();
    }

    /// Number of sealed function records on disk (test hook).
    pub fn sealed_functions(&self) -> usize {
        self.sealed_store.len()
    }

    /// Replay the sealed store: rebuild every recorded container with its
    /// original tokens so clients reattach without renegotiating. Attested
    /// channels do NOT survive — an SGX client must re-attest before its
    /// next sealed upload — but invocation/shutdown tokens keep working,
    /// exactly like a service reloading its state files after a reboot.
    pub fn recover(&mut self, deps: &mut Deps<'_, '_>) {
        if !self.pending_recovery {
            return;
        }
        self.pending_recovery = false;
        let (secret, measurement) = self.sealing_identity();
        let records: Vec<(u64, Vec<u8>)> = self
            .sealed_store
            .iter()
            .map(|(id, blob)| (*id, blob.clone()))
            .collect();
        for (id, blob) in records {
            let Ok(plain) = conclave::sealed::unseal_data(&secret, &measurement, &blob) else {
                continue; // tampered or foreign blob: refuse quietly
            };
            let Some(record) = StoredFunction::decode(&plain) else {
                continue;
            };
            if self.restore_container(deps, id, record) {
                T_RECOVERED.inc();
            }
        }
    }

    /// Rebuild one container from its disk record. Returns true on success.
    fn restore_container(
        &mut self,
        deps: &mut Deps<'_, '_>,
        id: u64,
        record: StoredFunction,
    ) -> bool {
        let Ok(spec) = FunctionSpec::decode(&record.spec) else {
            return false;
        };
        let Some(function) = self.registry.instantiate(&spec.manifest.name, &spec.params) else {
            return false;
        };
        let limits = ResourceLimits {
            memory: spec.manifest.memory.min(self.policy.max_memory),
            cpu_ms: self.policy.max_cpu_ms,
            disk: spec.manifest.disk.min(self.policy.max_disk),
            network: self.function_network_budget,
        };
        let net_rules = self.compile_net_rules();
        let container = Container::new(
            id,
            limits,
            spec.manifest.to_seccomp(),
            net_rules,
            limits.disk.max(1),
            1024,
        );
        let (fsp, enclave_id) = match record.image {
            ImageKind::Sgx => {
                let footprint = Self::enclave_footprint(0);
                if !self.epc.register(id, footprint) {
                    return false;
                }
                self.epc.touch(id);
                (Some(FsProtect::launch(&mut self.rng)), Some(id))
            }
            ImageKind::Plain => (None, None),
        };
        if self.aggregate.alloc_memory(FN_BASE_MEMORY).is_err() {
            if let Some(eid) = enclave_id {
                self.epc.unregister(eid);
            }
            return false;
        }
        self.next_container = self.next_container.max(id + 1);
        self.firewall
            .register_function(id, spec.manifest.stem.iter().copied());
        self.containers.insert(
            id,
            ContainerEntry {
                image: record.image,
                invocation_token: record.invocation_token,
                shutdown_token: record.shutdown_token,
                channel: None, // clients must re-attest for sealed uploads
                enclave_id,
                runtime: Some(ContainerRuntime {
                    container,
                    fsp,
                    image: record.image,
                }),
                function: Some(function),
                manifest: Some(spec.manifest),
                invoker: None,
                conns: BTreeMap::new(),
                circs: BTreeMap::new(),
                circs_rev: BTreeMap::new(),
                streams: BTreeMap::new(),
                streams_rev: BTreeMap::new(),
                hss: BTreeMap::new(),
                alive: true,
            },
        );
        self.run_function(deps, id, |f, api| f.on_install(api));
        self.containers.get(&id).map(|c| c.alive).unwrap_or(false)
    }

    // ------------------------------------------------------------------
    // Function execution.
    // ------------------------------------------------------------------

    fn run_function(
        &mut self,
        deps: &mut Deps<'_, '_>,
        id: u64,
        f: impl FnOnce(&mut dyn Function, &mut FunctionApi<'_>),
    ) {
        let (mut function, mut runtime) = {
            let Some(entry) = self.containers.get_mut(&id) else {
                return;
            };
            if !entry.alive {
                return;
            }
            let (Some(function), Some(runtime)) = (entry.function.take(), entry.runtime.take())
            else {
                return;
            };
            (function, runtime)
        };
        let mut api = FunctionApi {
            runtime: &mut runtime,
            actions: Vec::new(),
            now: deps.ctx.now(),
            rng: StdRng::seed_from_u64(deps.ctx.rng().gen()),
            next_handle: self.rng.gen::<u32>() as u64 | 0x1_0000_0000,
        };
        f(function.as_mut(), &mut api);
        let actions = std::mem::take(&mut api.actions);
        let container_died = !runtime.container.is_running();
        if let Some(entry) = self.containers.get_mut(&id) {
            entry.function = Some(function);
            entry.runtime = Some(runtime);
        }
        if container_died {
            self.teardown_container(deps, id, "resource limit");
            return;
        }
        self.apply_actions(deps, id, actions);
    }

    fn apply_actions(&mut self, deps: &mut Deps<'_, '_>, id: u64, actions: Vec<FnAction>) {
        for action in actions {
            if !self.containers.get(&id).map(|c| c.alive).unwrap_or(false) {
                return;
            }
            self.apply_action(deps, id, action);
        }
    }

    fn apply_action(&mut self, deps: &mut Deps<'_, '_>, id: u64, action: FnAction) {
        match action {
            FnAction::Output(data) => {
                // Output rides the invoker's Tor stream: network, charged.
                if !self.charge_network(deps, id, data.len() as u64) {
                    return;
                }
                let invoker = self.containers.get(&id).and_then(|c| c.invoker);
                if let Some(stream) = invoker {
                    let msg = BentoMsg::Output { data };
                    self.reply(deps, stream, &msg);
                }
            }
            FnAction::OutputEnd => {
                let invoker = self.containers.get(&id).and_then(|c| c.invoker);
                if let Some(stream) = invoker {
                    self.reply(deps, stream, &BentoMsg::OutputEnd);
                }
            }
            FnAction::Connect { conn, host, port } => {
                // The policy gate already ran inside FunctionApi::connect.
                let real = deps.ctx.connect(host, port);
                if let Some(entry) = self.containers.get_mut(&id) {
                    entry.conns.insert(conn, real);
                }
                self.net_conns.insert(real, (id, conn));
            }
            FnAction::NetSend { conn, data } => {
                let real = self
                    .containers
                    .get(&id)
                    .and_then(|c| c.conns.get(&conn))
                    .copied();
                if let Some(real) = real {
                    if self.charge_network(deps, id, data.len() as u64) {
                        deps.ctx.send(real, data);
                    }
                }
            }
            FnAction::NetClose { conn } => {
                let real = self
                    .containers
                    .get_mut(&id)
                    .and_then(|c| c.conns.remove(&conn));
                if let Some(real) = real {
                    self.net_conns.remove(&real);
                    deps.ctx.close(real);
                }
            }
            FnAction::SetTimer { delay, tag } => {
                let encoded = FN_TAG_BASE | (id << FN_TAG_BITS) | (tag & ((1 << FN_TAG_BITS) - 1));
                deps.ctx.set_timer(delay, encoded);
            }
            FnAction::Terminate => {
                self.teardown_container(deps, id, "function requested termination");
            }
            FnAction::BuildCircuit { circ, exit_to } => {
                if self.firewall.check(id, StemCall::NewCircuit).is_err() {
                    self.notify_circuit_failed(deps, id, circ);
                    return;
                }
                let req = match exit_to {
                    // A circuit "exiting" to another box's Bento port must
                    // terminate at that box itself (its localhost opt-in).
                    Some((host, port)) if port == tor_net::ports::BENTO_PORT => {
                        let fp = deps
                            .tor
                            .consensus()
                            .and_then(|c| c.relays.iter().find(|r| r.addr == host))
                            .map(|r| r.fingerprint);
                        match fp {
                            Some(fp) => TerminalReq::Specific(fp),
                            None => {
                                self.notify_circuit_failed(deps, id, circ);
                                return;
                            }
                        }
                    }
                    Some((host, port)) => TerminalReq::ExitTo(host, port),
                    None => TerminalReq::Any,
                };
                let built = deps
                    .tor
                    .select_path(deps.ctx, req)
                    .and_then(|p| deps.tor.build_circuit(deps.ctx, p));
                match built {
                    Some(h) => self.bind_circuit(id, circ, h),
                    None => self.notify_circuit_failed(deps, id, circ),
                }
            }
            FnAction::ConnectOnion { circ, addr } => {
                if self.firewall.check(id, StemCall::ConnectOnion).is_err() {
                    self.notify_circuit_failed(deps, id, circ);
                    return;
                }
                match deps.tor.connect_onion(deps.ctx, tor_net::OnionAddr(addr)) {
                    Some(h) => self.bind_circuit(id, circ, h),
                    None => self.notify_circuit_failed(deps, id, circ),
                }
            }
            FnAction::OpenStream {
                circ,
                stream,
                target,
            } => {
                let Some(h) = self.owned_circuit(id, circ, StemCall::OpenStream) else {
                    return;
                };
                let tgt = match target {
                    crate::function::FnStreamTarget::Node(n, p) => StreamTarget::Node(n, p),
                    crate::function::FnStreamTarget::Hs(p) => StreamTarget::Hs(p),
                };
                if let Some(sid) = deps.tor.open_stream(deps.ctx, h, tgt) {
                    if let Some(entry) = self.containers.get_mut(&id) {
                        entry.streams.insert((circ, stream), sid);
                        entry.streams_rev.insert((h.0, sid), stream);
                    }
                }
            }
            FnAction::StreamSend { circ, stream, data } => {
                let Some(h) = self.owned_circuit(id, circ, StemCall::SendStream) else {
                    return;
                };
                let sid = self
                    .containers
                    .get(&id)
                    .and_then(|c| c.streams.get(&(circ, stream)))
                    .copied();
                if let Some(sid) = sid {
                    if self.charge_network(deps, id, data.len() as u64) {
                        deps.tor.send_stream(deps.ctx, h, sid, &data);
                    }
                }
            }
            FnAction::StreamClose { circ, stream } => {
                let Some(h) = self.owned_circuit(id, circ, StemCall::SendStream) else {
                    return;
                };
                let sid = self
                    .containers
                    .get_mut(&id)
                    .and_then(|c| c.streams.remove(&(circ, stream)));
                if let Some(sid) = sid {
                    if let Some(entry) = self.containers.get_mut(&id) {
                        entry.streams_rev.remove(&(h.0, sid));
                    }
                    deps.tor.close_stream(deps.ctx, h, sid);
                }
            }
            FnAction::RespondIncoming {
                circ,
                stream,
                accept,
            } => {
                let Some(h) = self.owned_circuit(id, circ, StemCall::OpenStream) else {
                    return;
                };
                let sid = self
                    .containers
                    .get(&id)
                    .and_then(|c| c.streams.get(&(circ, stream)))
                    .copied();
                if let Some(sid) = sid {
                    deps.tor.respond_incoming(deps.ctx, h, sid, accept);
                }
            }
            FnAction::SendDrop { circ } => {
                let Some(h) = self.owned_circuit(id, circ, StemCall::SendDrop) else {
                    return;
                };
                deps.tor.send_drop(deps.ctx, h);
            }
            FnAction::CreateHs {
                hs,
                seed,
                n_intro,
                auto_rendezvous,
            } => {
                if self
                    .firewall
                    .check(id, StemCall::CreateHiddenService)
                    .is_err()
                {
                    return;
                }
                let mut host = HiddenServiceHost::new(seed, n_intro as usize, auto_rendezvous);
                if n_intro > 0 {
                    host.start(deps.ctx, deps.tor);
                }
                let gid = self.next_hs;
                self.next_hs += 1;
                self.hss.insert(
                    gid,
                    HsEntry {
                        container: id,
                        fn_handle: hs,
                        host,
                    },
                );
                if let Some(entry) = self.containers.get_mut(&id) {
                    entry.hss.insert(hs, gid);
                }
                self.firewall.grant_hs(id, gid);
            }
            FnAction::HsHandleIntro { hs, blob } => {
                let gid = self
                    .containers
                    .get(&id)
                    .and_then(|c| c.hss.get(&hs))
                    .copied();
                let Some(gid) = gid else { return };
                if self.firewall.hs_owner(gid) != Some(id) {
                    return;
                }
                if let Some(entry) = self.hss.get_mut(&gid) {
                    entry.host.handle_introduction(deps.ctx, deps.tor, &blob);
                }
            }
        }
    }

    /// Charge network bytes to a function; a container that blows its
    /// budget is killed (§6.2: functions cannot leverage the box for
    /// unbounded traffic). Returns false when the container died.
    fn charge_network(&mut self, deps: &mut Deps<'_, '_>, id: u64, bytes: u64) -> bool {
        let over = match self
            .containers
            .get_mut(&id)
            .and_then(|c| c.runtime.as_mut())
        {
            Some(rt) => rt.container.cgroup_mut().charge_network(bytes).is_err(),
            None => false,
        };
        let _ = self.aggregate.charge_network(bytes);
        if over {
            self.teardown_container(deps, id, "network budget exhausted");
            return false;
        }
        true
    }

    fn bind_circuit(&mut self, id: u64, fn_circ: u64, h: CircuitHandle) {
        if let Some(entry) = self.containers.get_mut(&id) {
            entry.circs.insert(fn_circ, h);
            entry.circs_rev.insert(h.0, fn_circ);
        }
        self.firewall.grant_circuit(id, h.0);
    }

    fn owned_circuit(&mut self, id: u64, fn_circ: u64, call: StemCall) -> Option<CircuitHandle> {
        let h = self.containers.get(&id)?.circs.get(&fn_circ).copied()?;
        self.firewall.check_circuit(id, call, h.0).ok()?;
        Some(h)
    }

    fn notify_circuit_failed(&mut self, deps: &mut Deps<'_, '_>, id: u64, fn_circ: u64) {
        self.run_function(deps, id, move |f, api| f.on_circuit_failed(api, fn_circ));
    }

    // ------------------------------------------------------------------
    // Routed host events.
    // ------------------------------------------------------------------

    /// Whether a simnet connection belongs to one of this server's
    /// functions.
    pub fn owns_conn(&self, conn: ConnId) -> bool {
        self.net_conns.contains_key(&conn)
    }

    /// A function-owned direct connection established.
    pub fn on_conn_established(&mut self, deps: &mut Deps<'_, '_>, conn: ConnId) -> bool {
        let Some(&(id, fn_conn)) = self.net_conns.get(&conn) else {
            return false;
        };
        self.run_function(deps, id, move |f, api| f.on_net_connected(api, fn_conn));
        true
    }

    /// Data on a function-owned direct connection.
    pub fn on_conn_msg(&mut self, deps: &mut Deps<'_, '_>, conn: ConnId, msg: Vec<u8>) -> bool {
        let Some(&(id, fn_conn)) = self.net_conns.get(&conn) else {
            return false;
        };
        if self.charge_network(deps, id, msg.len() as u64) {
            self.run_function(deps, id, move |f, api| f.on_net_data(api, fn_conn, msg));
        }
        true
    }

    /// A function-owned direct connection closed.
    pub fn on_conn_closed(&mut self, deps: &mut Deps<'_, '_>, conn: ConnId) -> bool {
        let Some((id, fn_conn)) = self.net_conns.remove(&conn) else {
            return false;
        };
        if let Some(entry) = self.containers.get_mut(&id) {
            entry.conns.remove(&fn_conn);
        }
        self.run_function(deps, id, move |f, api| f.on_net_closed(api, fn_conn));
        true
    }

    /// A timer fired; claims function-namespace tags.
    pub fn on_timer(&mut self, deps: &mut Deps<'_, '_>, tag: u64) -> bool {
        if tag & FN_TAG_BASE != FN_TAG_BASE {
            return false;
        }
        let id = (tag & !FN_TAG_BASE) >> FN_TAG_BITS;
        let user_tag = tag & ((1 << FN_TAG_BITS) - 1);
        self.run_function(deps, id, move |f, api| f.on_timer(api, user_tag));
        true
    }

    /// Route a Tor event from the box's onion proxy. Returns true if the
    /// event belonged to a function.
    pub fn on_tor_event(&mut self, deps: &mut Deps<'_, '_>, ev: TorEvent) -> bool {
        // A fresh consensus after a crash is the recovery trigger: the
        // onion proxy can route again, so replay the sealed disk.
        if self.pending_recovery && matches!(ev, TorEvent::ConsensusReady) {
            self.recover(deps);
        }
        // First offer the event to each hidden-service host.
        let mut ev = ev;
        let gids: Vec<u64> = self.hss.keys().copied().collect();
        for gid in gids {
            let Some(mut entry) = self.hss.remove(&gid) else {
                continue;
            };
            let out = entry.host.handle_event(deps.ctx, deps.tor, ev);
            let hs_events: Vec<HsEvent> = entry.host.drain_events();
            let container = entry.container;
            let fn_handle = entry.fn_handle;
            self.hss.insert(gid, entry);
            for hev in hs_events {
                self.dispatch_hs_event(deps, gid, container, fn_handle, hev);
            }
            match out {
                Some(e) => ev = e,
                None => return true,
            }
        }
        // Then map circuits to owning functions.
        let circ_of = |ev: &TorEvent| -> Option<CircuitHandle> {
            match ev {
                TorEvent::CircuitReady(h)
                | TorEvent::CircuitClosed(h)
                | TorEvent::StreamConnected(h, _)
                | TorEvent::StreamData(h, _, _)
                | TorEvent::StreamEnded(h, _)
                | TorEvent::IncomingStream(h, _, _)
                | TorEvent::ControlCell(h, _, _)
                | TorEvent::DirResponse(h, _, _)
                | TorEvent::RendezvousReady(h)
                | TorEvent::RendezvousFailed(h, _) => Some(*h),
                // Functions do not use managed circuits; the old handle's
                // closure already reached them as on_circuit_failed.
                TorEvent::CircuitRebuilt(..) | TorEvent::ConsensusReady => None,
            }
        };
        let Some(h) = circ_of(&ev) else {
            return false;
        };
        let owner = self
            .containers
            .iter()
            .find(|(_, c)| c.circs_rev.contains_key(&h.0))
            .map(|(id, c)| (*id, c.circs_rev[&h.0]));
        let Some((id, fn_circ)) = owner else {
            return false;
        };
        match ev {
            TorEvent::CircuitReady(_) | TorEvent::RendezvousReady(_) => {
                self.run_function(deps, id, move |f, api| f.on_circuit_ready(api, fn_circ));
            }
            TorEvent::CircuitClosed(_) | TorEvent::RendezvousFailed(_, _) => {
                self.run_function(deps, id, move |f, api| f.on_circuit_failed(api, fn_circ));
            }
            TorEvent::StreamConnected(_, sid) => {
                let fn_stream = self
                    .containers
                    .get(&id)
                    .and_then(|c| c.streams_rev.get(&(h.0, sid)))
                    .copied();
                if let Some(fn_stream) = fn_stream {
                    self.run_function(deps, id, move |f, api| {
                        f.on_stream_connected(api, fn_circ, fn_stream)
                    });
                }
            }
            TorEvent::StreamData(_, sid, data) => {
                let fn_stream = self
                    .containers
                    .get(&id)
                    .and_then(|c| c.streams_rev.get(&(h.0, sid)))
                    .copied();
                if let Some(fn_stream) = fn_stream {
                    if self.charge_network(deps, id, data.len() as u64) {
                        self.run_function(deps, id, move |f, api| {
                            f.on_stream_data(api, fn_circ, fn_stream, data)
                        });
                    }
                }
            }
            TorEvent::StreamEnded(_, sid) => {
                let fn_stream = self
                    .containers
                    .get_mut(&id)
                    .and_then(|c| c.streams_rev.remove(&(h.0, sid)));
                if let Some(fn_stream) = fn_stream {
                    if let Some(entry) = self.containers.get_mut(&id) {
                        entry.streams.remove(&(fn_circ, fn_stream));
                    }
                    self.run_function(deps, id, move |f, api| {
                        f.on_stream_ended(api, fn_circ, fn_stream)
                    });
                }
            }
            TorEvent::IncomingStream(_, sid, port) => {
                // Allocate a function-local stream handle for the incoming
                // stream.
                let fn_stream = self.rng.gen::<u32>() as u64 | 0x2_0000_0000;
                if let Some(entry) = self.containers.get_mut(&id) {
                    entry.streams.insert((fn_circ, fn_stream), sid);
                    entry.streams_rev.insert((h.0, sid), fn_stream);
                }
                self.run_function(deps, id, move |f, api| {
                    f.on_incoming_stream(api, fn_circ, fn_stream, port)
                });
            }
            TorEvent::ControlCell(..) | TorEvent::DirResponse(..) => {}
            TorEvent::ConsensusReady | TorEvent::CircuitRebuilt(..) => {}
        }
        true
    }

    fn dispatch_hs_event(
        &mut self,
        deps: &mut Deps<'_, '_>,
        gid: u64,
        container: u64,
        fn_handle: u64,
        hev: HsEvent,
    ) {
        match hev {
            HsEvent::Published(_) => {
                self.run_function(deps, container, move |f, api| {
                    f.on_hs_published(api, fn_handle)
                });
            }
            HsEvent::Introduction(blob) => {
                self.run_function(deps, container, move |f, api| {
                    f.on_hs_introduction(api, fn_handle, blob)
                });
            }
            HsEvent::ClientCircuit(h) => {
                // The rendezvous circuit becomes an owned function circuit.
                let fn_circ = self.rng.gen::<u32>() as u64 | 0x3_0000_0000;
                self.bind_circuit(container, fn_circ, h);
                let _ = gid;
                self.run_function(deps, container, move |f, api| {
                    f.on_hs_client_circuit(api, fn_handle, fn_circ)
                });
            }
        }
    }
}
