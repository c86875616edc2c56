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
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::function::{ContainerRuntime, FnAction, Function, FunctionApi, FunctionRegistry};
use crate::manifest::Manifest;
use crate::policy::MiddleboxPolicy;
use crate::protocol::{BentoMsg, FunctionSpec, ImageKind};
use crate::stem::{HandleTable, Held, StemCall, StemFirewall};
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
    /// The invoker's invocation is in flight: its output has not ended.
    /// Meanwhile an Invoke from any other stream is refused.
    invoking: bool,
}

impl ContainerEntry {
    /// A live container with no function installed yet.
    fn new(
        image: ImageKind,
        invocation_token: Token,
        shutdown_token: Token,
        channel: Option<AttestedChannel>,
        enclave_id: Option<u64>,
    ) -> Self {
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
            invoking: false,
        }
    }
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
    /// Containers the box holds, by id. A container leaves when it is torn
    /// down; ids count up from 1 and are never reused.
    containers: BTreeMap<u64, ContainerEntry>,
    next_container: u64,
    streams: BTreeMap<u64, StreamState>,
    firewall: StemFirewall,
    /// What each function holds: its connections, circuits, streams and
    /// hidden services, by function handle.
    handles: HandleTable,
    /// The functions' hidden services, by box-wide id; the owner is in
    /// `handles`.
    hss: BTreeMap<u64, HiddenServiceHost>,
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
            handles: HandleTable::new(),
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

    /// Number of containers the box holds.
    pub fn live_functions(&self) -> usize {
        self.containers.len()
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
        self.firewall.violations()
    }

    /// Handles the box's functions hold, over all containers: one for each
    /// live connection, circuit, stream and hidden service a function
    /// holds (test hook).
    pub fn held_handles(&self) -> usize {
        self.handles.len()
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
                        .filter_map(|p| {
                            let blob = rt.container.fs().read(p).ok()?.to_vec();
                            Some((onion_crypto::sha256::sha256(p.as_bytes()), blob))
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
                Err(_) => self.reject(deps, stream, "malformed frame"),
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
                c.invoking = false;
            }
        }
    }

    /// Refuse a client's request, saying why.
    fn reject(&mut self, deps: &mut Deps<'_, '_>, stream: LocalStream, reason: impl Into<String>) {
        let reason = reason.into();
        self.reply(deps, stream, &BentoMsg::Rejected { reason });
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
            _ => self.reject(deps, stream, "unexpected message"),
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
            self.reject(deps, stream, "function limit reached");
            return;
        }
        let offered = match image {
            ImageKind::Plain => self.policy.offers_plain,
            ImageKind::Sgx => self.policy.offers_sgx,
        };
        if !offered {
            self.reject(deps, stream, "image not offered");
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
                    self.reject(deps, stream, "SGX image requires attestation hello");
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
                    self.reject(deps, stream, "enclave exceeds EPC");
                    return;
                }
                self.epc.touch(id);
                // Lock poisoning can't happen in practice (the simulator never
                // panics while holding the lock), but this is a recovery path:
                // degrade to a rejection rather than unwrap.
                let Ok(mut ias) = self.ias.lock() else {
                    self.epc.unregister(id);
                    self.reject(deps, stream, "attestation service unavailable");
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
                        self.reject(deps, stream, format!("attestation failed: {e}"));
                        return;
                    }
                }
            }
        };
        self.containers.insert(
            id,
            ContainerEntry::new(image, invocation_token, shutdown_token, channel, enclave_id),
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
        let Some(entry) = self.containers.get_mut(&container_id) else {
            self.reject(deps, stream, "no such container");
            return;
        };
        if entry.runtime.is_some() {
            self.reject(deps, stream, "container not accepting uploads");
            return;
        }
        let plain = if sealed {
            let Some(channel) = entry.channel.as_mut() else {
                self.reject(deps, stream, "no attested channel");
                return;
            };
            let Ok(plain) = channel.open_msg(&payload) else {
                self.reject(deps, stream, "sealed payload failed to open");
                return;
            };
            plain
        } else {
            payload
        };
        let Ok(spec) = FunctionSpec::decode(&plain) else {
            self.reject(deps, stream, "malformed function spec");
            return;
        };
        // Manifest vs image consistency and node policy (§5.5).
        let entry_image = entry.image;
        if spec.manifest.image != entry_image {
            self.reject(deps, stream, "manifest image mismatch");
            return;
        }
        if let Some(reason) = self.policy.refuses(&spec.manifest) {
            self.reject(deps, stream, reason);
            return;
        }
        let Some(function) = self.registry.instantiate(&spec.manifest.name, &spec.params) else {
            self.reject(
                deps,
                stream,
                format!("unknown function {:?}", spec.manifest.name),
            );
            return;
        };
        // Until the first Invoke arrives, function output (e.g. unsolicited
        // load reports from a timer) rides the uploader's stream — otherwise
        // a never-invoked function has no way to speak at all.
        if !self.install_function(deps, container_id, spec.manifest, function, Some(stream)) {
            self.reject(deps, stream, "box function memory exhausted");
            return;
        }
        // The entry may have terminated itself during install.
        if let Some(e) = self.containers.get(&container_id) {
            // Persist the function to the box's sealed disk so a host crash
            // can rebuild it with the same client-held tokens.
            let record = StoredFunction {
                image: entry_image,
                invocation_token: e.invocation_token,
                shutdown_token: e.shutdown_token,
                spec: plain,
            };
            let (secret, measurement) = self.sealing_identity();
            self.sealed_store.insert(
                container_id,
                conclave::sealed::seal_data(&secret, &measurement, &record.encode()),
            );
            self.reply(deps, stream, &BentoMsg::UploadOk { container_id });
        } else {
            self.reject(deps, stream, "function terminated during install");
        }
    }

    /// Install `function` into container `id`, for an upload and for a
    /// restore from the sealed store alike: the execution environment,
    /// least-privilege per manifest (§5.5), FS Protect for an SGX image,
    /// the base footprint charged against the aggregate group and the Stem
    /// grant, then the function's `on_install`. False, with nothing
    /// installed, when the box's function memory is exhausted.
    fn install_function(
        &mut self,
        deps: &mut Deps<'_, '_>,
        id: u64,
        manifest: Manifest,
        function: Box<dyn Function>,
        invoker: Option<LocalStream>,
    ) -> bool {
        let net_rules = self.compile_net_rules();
        let Some(entry) = self.containers.get_mut(&id) else {
            return false;
        };
        let limits = ResourceLimits {
            memory: manifest.memory.min(self.policy.max_memory),
            cpu_ms: self.policy.max_cpu_ms,
            disk: manifest.disk.min(self.policy.max_disk),
            network: self.function_network_budget,
        };
        let container = Container::new(
            id,
            limits,
            manifest.to_seccomp(),
            net_rules,
            limits.disk.max(1),
            1024,
        );
        let fsp = match entry.image {
            ImageKind::Sgx => Some(FsProtect::launch(&mut self.rng)),
            ImageKind::Plain => None,
        };
        if self.aggregate.alloc_memory(FN_BASE_MEMORY).is_err() {
            return false;
        }
        self.firewall
            .register_function(id, manifest.stem.iter().copied());
        entry.runtime = Some(ContainerRuntime {
            container,
            fsp,
            image: entry.image,
        });
        entry.function = Some(function);
        entry.manifest = Some(manifest);
        entry.invoker = invoker;
        self.run_function(deps, id, |f, api| f.on_install(api));
        true
    }

    fn find_by_shutdown(&self, token: &[u8; 32]) -> Option<u64> {
        self.containers
            .iter()
            .find(|(_, c)| c.shutdown_token.matches(token))
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
            .find(|(_, c)| c.invocation_token.matches(&token))
        else {
            self.reject(deps, stream, "bad invocation token");
            return;
        };
        if entry.function.is_none() {
            self.reject(deps, stream, "no function uploaded");
            return;
        }
        // One invoker at a time: its outputs ride its own stream. The same
        // stream may invoke again mid-flight (LoadBalancer forwards each
        // introduction to a replica over one link).
        if entry.invoking && entry.invoker != Some(stream) {
            self.reject(deps, stream, "container busy");
            return;
        }
        entry.invoker = Some(stream);
        entry.invoking = true;
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
            self.reject(deps, stream, "bad shutdown token");
            return;
        };
        self.teardown_container(deps, id);
        self.reply(deps, stream, &BentoMsg::ShutdownAck);
    }

    /// Remove a container with its runtime, files and function, and free
    /// what it held: memory, circuits, connections, hidden services, Stem
    /// grants and its enclave.
    fn teardown_container(&mut self, deps: &mut Deps<'_, '_>, id: u64) {
        let Some(entry) = self.containers.remove(&id) else {
            return;
        };
        T_TEARDOWNS.inc();
        if entry.runtime.is_some() {
            self.aggregate.free_memory(FN_BASE_MEMORY);
        }
        let held = self.handles.remove_container(id);
        for &h in &held {
            if let Held::Circ(c) = h {
                deps.tor.destroy_circuit(deps.ctx, c);
            }
        }
        for h in held {
            match h {
                Held::Conn(c) => deps.ctx.close(c),
                Held::Hs(gid) => {
                    if let Some(mut host) = self.hss.remove(&gid) {
                        host.close(deps.ctx, deps.tor);
                    }
                }
                Held::Circ(_) | Held::Stream(..) => {}
            }
        }
        self.firewall.remove_function(id);
        if let Some(eid) = entry.enclave_id {
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
        self.handles = HandleTable::new();
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
        let enclave_id = match record.image {
            ImageKind::Sgx => {
                if !self.epc.register(id, Self::enclave_footprint(0)) {
                    return false;
                }
                self.epc.touch(id);
                Some(id)
            }
            ImageKind::Plain => None,
        };
        // No attested channel: clients must re-attest for sealed uploads.
        let entry = ContainerEntry::new(
            record.image,
            record.invocation_token,
            record.shutdown_token,
            None,
            enclave_id,
        );
        self.containers.insert(id, entry);
        if !self.install_function(deps, id, spec.manifest, function, None) {
            self.containers.remove(&id);
            if let Some(eid) = enclave_id {
                self.epc.unregister(eid);
            }
            return false;
        }
        self.next_container = self.next_container.max(id + 1);
        self.containers.contains_key(&id)
    }

    // ------------------------------------------------------------------
    // Function execution.
    // ------------------------------------------------------------------

    /// A handle for an object the box hands container `id` unasked (an
    /// incoming stream, a rendezvous circuit): a random value in `range`,
    /// drawn again while the container already holds it.
    fn draw_handle(&mut self, id: u64, range: u64) -> u64 {
        loop {
            let handle = self.rng.gen::<u32>() as u64 | range;
            if !self.handles.holds(id, handle) {
                return handle;
            }
        }
    }

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
            held: &self.handles,
            container: id,
        };
        f(function.as_mut(), &mut api);
        let actions = std::mem::take(&mut api.actions);
        let container_died = !runtime.container.is_running();
        if let Some(entry) = self.containers.get_mut(&id) {
            entry.function = Some(function);
            entry.runtime = Some(runtime);
        }
        if container_died {
            self.teardown_container(deps, id);
            return;
        }
        self.apply_actions(deps, id, actions);
    }

    fn apply_actions(&mut self, deps: &mut Deps<'_, '_>, id: u64, actions: Vec<FnAction>) {
        for action in actions {
            if !self.containers.contains_key(&id) {
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
                let Some(entry) = self.containers.get_mut(&id) else {
                    return;
                };
                entry.invoking = false;
                if let Some(stream) = entry.invoker {
                    self.reply(deps, stream, &BentoMsg::OutputEnd);
                }
            }
            FnAction::Connect { conn, host, port } => {
                // The policy gate already ran inside FunctionApi::connect.
                let real = deps.ctx.connect(host, port);
                self.handles.insert(id, conn, Held::Conn(real));
            }
            FnAction::NetSend { conn, data } => {
                if let Some(Held::Conn(real)) = self.handles.get(id, conn) {
                    if self.charge_network(deps, id, data.len() as u64) {
                        deps.ctx.send(real, data);
                    }
                }
            }
            FnAction::NetClose { conn } => {
                if let Some(Held::Conn(real)) = self.handles.get(id, conn) {
                    self.handles.remove(Held::Conn(real));
                    deps.ctx.close(real);
                }
            }
            FnAction::SetTimer { delay, tag } => {
                let encoded = FN_TAG_BASE | (id << FN_TAG_BITS) | (tag & ((1 << FN_TAG_BITS) - 1));
                deps.ctx.set_timer(delay, encoded);
            }
            FnAction::Terminate => {
                self.teardown_container(deps, id);
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
                    Some(h) => self.handles.insert(id, circ, Held::Circ(h)),
                    None => self.notify_circuit_failed(deps, id, circ),
                }
            }
            FnAction::ConnectOnion { circ, addr } => {
                if self.firewall.check(id, StemCall::ConnectOnion).is_err() {
                    self.notify_circuit_failed(deps, id, circ);
                    return;
                }
                match deps.tor.connect_onion(deps.ctx, tor_net::OnionAddr(addr)) {
                    Some(h) => self.handles.insert(id, circ, Held::Circ(h)),
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
                    self.handles.insert(id, stream, Held::Stream(h, sid));
                }
            }
            FnAction::StreamSend { circ, stream, data } => {
                let Some(h) = self.owned_circuit(id, circ, StemCall::SendStream) else {
                    return;
                };
                if let Some(sid) = self.owned_stream(id, h, stream) {
                    if self.charge_network(deps, id, data.len() as u64) {
                        deps.tor.send_stream(deps.ctx, h, sid, &data);
                    }
                }
            }
            FnAction::StreamClose { circ, stream } => {
                let Some(h) = self.owned_circuit(id, circ, StemCall::SendStream) else {
                    return;
                };
                if let Some(sid) = self.owned_stream(id, h, stream) {
                    self.handles.remove(Held::Stream(h, sid));
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
                if let Some(sid) = self.owned_stream(id, h, stream) {
                    if !accept {
                        self.handles.remove(Held::Stream(h, sid));
                    }
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
                self.hss.insert(gid, host);
                self.handles.insert(id, hs, Held::Hs(gid));
            }
            FnAction::HsHandleIntro { hs, blob } => {
                let Some(Held::Hs(gid)) = self.handles.get(id, hs) else {
                    return;
                };
                if let Some(host) = self.hss.get_mut(&gid) {
                    host.handle_introduction(deps.ctx, deps.tor, &blob);
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
            self.teardown_container(deps, id);
            return false;
        }
        true
    }

    /// The circuit `fn_circ` names, when function `id` holds it and may
    /// `call` on it. Both gates count a verdict; a handle it does not hold
    /// is a violation.
    fn owned_circuit(&mut self, id: u64, fn_circ: u64, call: StemCall) -> Option<CircuitHandle> {
        let held = match self.handles.get(id, fn_circ) {
            Some(Held::Circ(h)) => Some(h),
            _ => None,
        };
        self.firewall.check_owned(id, call, held).ok()
    }

    /// The stream id `fn_stream` names on circuit `h`, when function `id`
    /// holds it.
    fn owned_stream(&self, id: u64, h: CircuitHandle, fn_stream: u64) -> Option<u16> {
        match self.handles.get(id, fn_stream) {
            Some(Held::Stream(c, sid)) if c == h => Some(sid),
            _ => None,
        }
    }

    fn notify_circuit_failed(&mut self, deps: &mut Deps<'_, '_>, id: u64, fn_circ: u64) {
        self.run_function(deps, id, move |f, api| f.on_circuit_failed(api, fn_circ));
    }

    // ------------------------------------------------------------------
    // Routed host events.
    // ------------------------------------------------------------------

    /// A function-owned direct connection established.
    pub fn on_conn_established(&mut self, deps: &mut Deps<'_, '_>, conn: ConnId) -> bool {
        let Some((id, fn_conn)) = self.handles.owner(Held::Conn(conn)) else {
            return false;
        };
        self.run_function(deps, id, move |f, api| f.on_net_connected(api, fn_conn));
        true
    }

    /// Data on a function-owned direct connection.
    pub fn on_conn_msg(&mut self, deps: &mut Deps<'_, '_>, conn: ConnId, msg: Vec<u8>) -> bool {
        let Some((id, fn_conn)) = self.handles.owner(Held::Conn(conn)) else {
            return false;
        };
        if self.charge_network(deps, id, msg.len() as u64) {
            self.run_function(deps, id, move |f, api| f.on_net_data(api, fn_conn, msg));
        }
        true
    }

    /// A function-owned direct connection closed.
    pub fn on_conn_closed(&mut self, deps: &mut Deps<'_, '_>, conn: ConnId) -> bool {
        let Some((id, fn_conn)) = self.handles.remove(Held::Conn(conn)) else {
            return false;
        };
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

    /// Route a Tor event from the box's onion proxy to the hidden service
    /// or function it belongs to.
    pub fn on_tor_event(&mut self, deps: &mut Deps<'_, '_>, ev: TorEvent) {
        // A fresh consensus after a crash is the recovery trigger: the
        // onion proxy can route again, so replay the sealed disk.
        if self.pending_recovery && matches!(ev, TorEvent::ConsensusReady) {
            self.recover(deps);
        }
        // A dead circuit leaves its holder's table at once, with its
        // streams, whether or not a hidden service claims the event.
        let dead = match ev {
            TorEvent::CircuitClosed(h) | TorEvent::RendezvousFailed(h, _) => {
                self.handles.remove(Held::Circ(h))
            }
            _ => None,
        };
        // First offer the event to each hidden service that existed when
        // it arrived.
        let mut ev = ev;
        let (mut next, end) = (0, self.next_hs);
        while let Some((&gid, host)) = self.hss.range_mut(next..end).next() {
            next = gid + 1;
            let out = host.handle_event(deps.ctx, deps.tor, ev);
            for hev in host.drain_events() {
                self.dispatch_hs_event(deps, gid, hev);
            }
            match out {
                Some(e) => ev = e,
                None => return,
            }
        }
        if let Some((id, fn_circ)) = dead {
            self.run_function(deps, id, move |f, api| f.on_circuit_failed(api, fn_circ));
            return;
        }
        // Then map circuits to owning functions.
        let (h, fn_stream) = match ev {
            TorEvent::CircuitReady(h) | TorEvent::RendezvousReady(h) => (h, None),
            TorEvent::StreamConnected(h, sid)
            | TorEvent::StreamData(h, sid, _)
            | TorEvent::StreamEnded(h, sid) => {
                (h, self.handles.owner(Held::Stream(h, sid)).map(|(_, s)| s))
            }
            TorEvent::IncomingStream(h, _, _) => (h, None),
            // Functions see nothing else of their circuits; they do not use
            // managed circuits, and the old handle's closure already reached
            // them as on_circuit_failed.
            _ => return,
        };
        let Some((id, fn_circ)) = self.handles.owner(Held::Circ(h)) else {
            return;
        };
        match (ev, fn_stream) {
            (TorEvent::CircuitReady(_) | TorEvent::RendezvousReady(_), _) => {
                self.run_function(deps, id, move |f, api| f.on_circuit_ready(api, fn_circ));
            }
            (TorEvent::StreamConnected(..), Some(fn_stream)) => {
                self.run_function(deps, id, move |f, api| {
                    f.on_stream_connected(api, fn_circ, fn_stream)
                });
            }
            // Bytes are charged before the function sees them; a container
            // over its budget dies and sees nothing.
            (TorEvent::StreamData(_, _, data), Some(fn_stream))
                if self.charge_network(deps, id, data.len() as u64) =>
            {
                self.run_function(deps, id, move |f, api| {
                    f.on_stream_data(api, fn_circ, fn_stream, data)
                });
            }
            (TorEvent::StreamEnded(_, sid), Some(fn_stream)) => {
                self.handles.remove(Held::Stream(h, sid));
                self.run_function(deps, id, move |f, api| {
                    f.on_stream_ended(api, fn_circ, fn_stream)
                });
            }
            (TorEvent::IncomingStream(_, sid, port), _) => {
                // Allocate a function-local stream handle for the incoming
                // stream.
                let fn_stream = self.draw_handle(id, 0x2_0000_0000);
                self.handles.insert(id, fn_stream, Held::Stream(h, sid));
                self.run_function(deps, id, move |f, api| {
                    f.on_incoming_stream(api, fn_circ, fn_stream, port)
                });
            }
            _ => {}
        }
    }

    fn dispatch_hs_event(&mut self, deps: &mut Deps<'_, '_>, gid: u64, hev: HsEvent) {
        let owner = self.handles.owner(Held::Hs(gid));
        match hev {
            HsEvent::Published(_) => {
                if let Some((id, hs)) = owner {
                    self.run_function(deps, id, move |f, api| f.on_hs_published(api, hs));
                }
            }
            HsEvent::Introduction(blob) => {
                if let Some((id, hs)) = owner {
                    self.run_function(deps, id, move |f, api| f.on_hs_introduction(api, hs, blob));
                }
            }
            HsEvent::ClientCircuit(h) => {
                // The rendezvous circuit becomes an owned function circuit.
                // A handle is drawn even when the service's function is
                // gone, so the handles after it do not move.
                let Some((id, hs)) = owner else {
                    self.rng.gen::<u32>();
                    return;
                };
                let fn_circ = self.draw_handle(id, 0x3_0000_0000);
                self.handles.insert(id, fn_circ, Held::Circ(h));
                self.run_function(deps, id, move |f, api| {
                    f.on_hs_client_circuit(api, hs, fn_circ)
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testnet::BentoNetwork;
    use crate::BentoBoxNode;
    use simnet::{SimDuration, SimTime};

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    /// Builds a circuit on every invocation.
    struct Builder;

    impl Function for Builder {
        fn on_invoke(&mut self, api: &mut FunctionApi<'_>, _input: Vec<u8>) {
            api.build_circuit(None);
            api.output_end();
        }
    }

    fn registry() -> FunctionRegistry {
        let mut registry = FunctionRegistry::new();
        registry.register("builder", |_| Box::new(Builder));
        registry
    }

    #[test]
    fn a_new_handle_skips_one_the_container_holds() {
        let mut bn = BentoNetwork::build(5, 1, MiddleboxPolicy::permissive(), registry);
        let client = bn.add_bento_client("alice");
        bn.net.sim.run_until(secs(2));
        let spec = FunctionSpec {
            params: vec![],
            manifest: Manifest::minimal("builder").with_stem([StemCall::NewCircuit]),
        };
        let session = bn.install(client, 0, &spec, [secs(5), secs(9), secs(13)]);
        // Put a held object exactly where the next callback's handle counter
        // lands first.
        let squatter = Held::Hs(u64::MAX);
        let (id, next) = bn
            .net
            .sim
            .with_node::<BentoBoxNode, _>(bn.boxes[0], |n, _| {
                let server = &mut n.bento;
                let id = *server.containers.keys().next().expect("one container");
                let next = (server.rng.clone().gen::<u32>() as u64 | 0x1_0000_0000) + 1;
                server.handles.insert(id, next, squatter);
                (id, next)
            });
        let step = SimDuration::from_millis(100);
        assert!(bn.invoke_and_wait(&session, vec![], step, secs(60)));
        let server = &bn.net.sim.node_ref::<BentoBoxNode>(bn.boxes[0]).bento;
        assert_eq!(server.handles.get(id, next), Some(squatter));
        assert!(
            matches!(server.handles.get(id, next + 1), Some(Held::Circ(_))),
            "the new circuit takes the next free handle"
        );
        assert_eq!(server.held_handles(), 2);
    }
}
