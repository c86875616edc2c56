//! The hidden-service LoadBalancer (§8) and its replica function.
//!
//! [`LoadBalancer`] establishes the service's introduction points and owns
//! the (single) descriptor — "there is but one set of introduction points,
//! and, naturally, clients never learn the identities of the hidden
//! service nodes." Rather than connect to the rendezvous point itself, it
//! forwards each INTRODUCE2 to a replica (or serves it locally), spinning
//! replicas up when every active one is at the high watermark.
//! [`HsReplica`] runs on other Bento boxes with a *copy of the service's
//! key material* (§8.2), so its RENDEZVOUS1 authenticates as the service.

// Introductions, load reports and replica replies arrive off the wire: no
// panics here.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::boxlink::{BoxEvent, RemoteBox};
use bento::function::{Function, FunctionApi};
use bento::manifest::Manifest;
use bento::protocol::FunctionSpec;
use bento::stem::StemCall;
use simnet::wire::{Reader, Writer};
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::BTreeSet;

static T_FAILOVERS: telemetry::Counter = telemetry::Counter::new("lb.replica_failovers");

/// How often a replica pushes its load report to the balancer.
pub const REPORT_INTERVAL: SimDuration = SimDuration(2_000_000_000); // 2 s
/// A Ready replica silent for this long is declared dead and routed around.
pub const DEAD_AFTER: SimDuration = SimDuration(5_000_000_000); // 5 s
/// How often the balancer sweeps for silent replicas.
const HEALTH_INTERVAL: SimDuration = SimDuration(1_000_000_000); // 1 s

/// Replica-side heartbeat timer tag.
const TAG_REPORT: u64 = 1;
/// Balancer-side health-sweep timer tag.
const TAG_HEALTH: u64 = 2;

/// Parameters shared by the balancer and its replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceParams {
    /// Service key seed (identity; replicas share it).
    pub seed: [u8; 32],
    /// Bytes served per request.
    pub file_len: u64,
}

impl ServiceParams {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(&self.seed);
        w.u64(self.file_len);
        w.into_bytes()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Option<ServiceParams> {
        let mut r = Reader::new(buf);
        Some(ServiceParams {
            seed: r.array("seed").ok()?,
            file_len: r.u64().ok()?,
        })
    }
}

/// LoadBalancer parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LbParams {
    /// Shared service parameters.
    pub service: ServiceParams,
    /// Introduction points to establish.
    pub n_intro: u8,
    /// High watermark: sessions per replica before scaling up.
    pub max_per_replica: u32,
    /// Boxes available for replicas, in spawn order.
    pub replica_boxes: Vec<(NodeId, u16)>,
}

impl LbParams {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(&self.service.encode());
        w.u8(self.n_intro);
        w.u32(self.max_per_replica);
        w.varu64(self.replica_boxes.len() as u64);
        for (n, p) in &self.replica_boxes {
            w.u32(n.0);
            w.u16(*p);
        }
        w.into_bytes()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Option<LbParams> {
        let mut r = Reader::new(buf);
        let seed = r.array("seed").ok()?;
        let file_len = r.u64().ok()?;
        let n_intro = r.u8().ok()?;
        let max_per_replica = r.u32().ok()?;
        let n = r.varu64().ok()?;
        if n > 64 {
            return None;
        }
        let mut replica_boxes = Vec::with_capacity(n as usize);
        for _ in 0..n {
            replica_boxes.push((NodeId(r.u32().ok()?), r.u16().ok()?));
        }
        Some(LbParams {
            service: ServiceParams { seed, file_len },
            n_intro,
            max_per_replica,
            replica_boxes,
        })
    }
}

/// Manifest for the LoadBalancer.
pub fn lb_manifest() -> Manifest {
    let mut m = Manifest::minimal("load-balancer").with_stem([
        StemCall::CreateHiddenService,
        StemCall::NewCircuit,
        StemCall::OpenStream,
        StemCall::SendStream,
    ]);
    m.memory = 24 << 20;
    m
}

/// Manifest for a replica.
pub fn replica_manifest() -> Manifest {
    let mut m = Manifest::minimal("hs-replica").with_stem([
        StemCall::CreateHiddenService,
        StemCall::NewCircuit,
        StemCall::OpenStream,
        StemCall::SendStream,
    ]);
    m.memory = 24 << 20;
    m
}

/// Shared session-serving state: accept incoming streams on rendezvous
/// circuits and answer each request with the file.
struct Serving {
    file_len: u64,
    /// Session circuits currently active.
    sessions: BTreeSet<u64>,
}

impl Serving {
    fn new(file_len: u64) -> Serving {
        Serving {
            file_len,
            sessions: BTreeSet::new(),
        }
    }

    fn active(&self) -> u32 {
        self.sessions.len() as u32
    }

    fn on_client_circuit(&mut self, circ: u64) {
        self.sessions.insert(circ);
    }

    fn on_incoming_stream(&self, api: &mut FunctionApi<'_>, circ: u64, stream: u64) {
        if self.sessions.contains(&circ) {
            api.respond_incoming(circ, stream, true);
        }
    }

    fn on_stream_data(&self, api: &mut FunctionApi<'_>, circ: u64, stream: u64) -> bool {
        if !self.sessions.contains(&circ) {
            return false;
        }
        api.stream_send(circ, stream, vec![0xF1; self.file_len as usize]);
        true
    }

    fn on_circuit_gone(&mut self, circ: u64) -> bool {
        self.sessions.remove(&circ)
    }
}

// ---------------------------------------------------------------------
// Replica.
// ---------------------------------------------------------------------

/// A hidden-service replica: answers forwarded introductions with the
/// shared service identity and serves the file.
pub struct HsReplica {
    params: ServiceParams,
    hs: Option<u64>,
    serving: Serving,
}

impl HsReplica {
    /// Construct from [`ServiceParams`].
    pub fn new(params: &[u8]) -> HsReplica {
        let params = ServiceParams::decode(params).unwrap_or(ServiceParams {
            seed: [0; 32],
            file_len: 1024,
        });
        HsReplica {
            serving: Serving::new(params.file_len),
            params,
            hs: None,
        }
    }

    fn report_load(&self, api: &mut FunctionApi<'_>) {
        let mut out = vec![b'L'];
        out.extend_from_slice(&self.serving.active().to_be_bytes());
        api.output(out);
    }
}

impl Function for HsReplica {
    fn on_install(&mut self, api: &mut FunctionApi<'_>) {
        // 0 intro points: replicas never publish; they only answer
        // forwarded introductions with the shared key.
        self.hs = Some(api.create_hs(self.params.seed, 0, true));
        // Heartbeat: periodic load reports double as liveness signals —
        // the balancer declares a silent replica dead.
        api.set_timer(REPORT_INTERVAL, TAG_REPORT);
    }

    fn on_timer(&mut self, api: &mut FunctionApi<'_>, tag: u64) {
        if tag == TAG_REPORT {
            self.report_load(api);
            api.set_timer(REPORT_INTERVAL, TAG_REPORT);
        }
    }

    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, input: Vec<u8>) {
        // Input: a raw INTRODUCE2 payload forwarded by the balancer.
        if let Some(hs) = self.hs {
            api.hs_handle_intro(hs, input);
        }
        self.report_load(api);
    }

    fn on_hs_client_circuit(&mut self, api: &mut FunctionApi<'_>, _hs: u64, circ: u64) {
        self.serving.on_client_circuit(circ);
        self.report_load(api);
    }

    fn on_incoming_stream(
        &mut self,
        api: &mut FunctionApi<'_>,
        circ: u64,
        stream: u64,
        _port: u16,
    ) {
        self.serving.on_incoming_stream(api, circ, stream);
    }

    fn on_stream_data(
        &mut self,
        api: &mut FunctionApi<'_>,
        circ: u64,
        stream: u64,
        _data: Vec<u8>,
    ) {
        self.serving.on_stream_data(api, circ, stream);
    }

    fn on_stream_ended(&mut self, api: &mut FunctionApi<'_>, circ: u64, _stream: u64) {
        if self.serving.on_circuit_gone(circ) {
            self.report_load(api);
        }
    }

    fn on_circuit_failed(&mut self, api: &mut FunctionApi<'_>, circ: u64) {
        if self.serving.on_circuit_gone(circ) {
            self.report_load(api);
        }
    }
}

// ---------------------------------------------------------------------
// Balancer.
// ---------------------------------------------------------------------

struct Replica {
    link: RemoteBox,
    assumed_load: u32,
    /// Last load report heard (liveness); `None` until the first one.
    last_report: Option<SimTime>,
}

/// The LoadBalancer function.
pub struct LoadBalancer {
    params: LbParams,
    hs: Option<u64>,
    /// Local serving (the balancer doubles as replica 0).
    serving: Serving,
    /// Introductions routed locally whose sessions have not materialized
    /// yet — counted optimistically, like `assumed_load` for remotes, so a
    /// burst of arrivals does not pile onto the local box while its live
    /// session count lags.
    local_pending: u32,
    replicas: Vec<Replica>,
    next_box: usize,
    /// Introductions routed (inspection/experiments).
    pub routed: u64,
    /// Replicas declared dead after missed load reports
    /// (inspection/experiments).
    pub failovers: u64,
}

impl LoadBalancer {
    /// Construct from [`LbParams`].
    pub fn new(params: &[u8]) -> LoadBalancer {
        let params = LbParams::decode(params).unwrap_or(LbParams {
            service: ServiceParams {
                seed: [0; 32],
                file_len: 1024,
            },
            n_intro: 3,
            max_per_replica: 2,
            replica_boxes: Vec::new(),
        });
        LoadBalancer {
            serving: Serving::new(params.service.file_len),
            params,
            hs: None,
            local_pending: 0,
            replicas: Vec::new(),
            next_box: 0,
            routed: 0,
            failovers: 0,
        }
    }

    /// Begin provisioning a replica on the next available box.
    fn spawn_replica(&mut self, api: &mut FunctionApi<'_>) {
        if self.next_box >= self.params.replica_boxes.len() {
            return;
        }
        let (addr, port) = self.params.replica_boxes[self.next_box];
        self.next_box += 1;
        let spec = FunctionSpec {
            params: self.params.service.encode(),
            manifest: replica_manifest(),
        };
        self.replicas.push(Replica {
            link: RemoteBox::deploy(api, addr, port, &spec),
            assumed_load: 0,
            last_report: None,
        });
    }

    /// Route an introduction to the least-loaded ready replica (or serve
    /// locally), scaling up when everyone is at the watermark.
    fn route_introduction(&mut self, api: &mut FunctionApi<'_>, blob: Vec<u8>) {
        self.routed += 1;
        let local_load = self.serving.active() + self.local_pending;
        let best_remote: Option<usize> = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.link.is_ready())
            .min_by_key(|(_, r)| r.assumed_load)
            .map(|(i, _)| i);
        let min_remote_load = best_remote
            .map(|i| self.replicas[i].assumed_load)
            .unwrap_or(u32::MAX);
        // Scale up when everyone (including us) is at the watermark and
        // another box is available.
        let everyone_full = local_load >= self.params.max_per_replica
            && (best_remote.is_none() || min_remote_load >= self.params.max_per_replica);
        if everyone_full && self.next_box < self.params.replica_boxes.len() {
            self.spawn_replica(api);
        }
        // Route: prefer whichever has headroom; local wins ties.
        if local_load <= min_remote_load {
            if let Some(hs) = self.hs {
                self.local_pending += 1;
                api.hs_handle_intro(hs, blob);
            }
        } else if let Some(i) = best_remote {
            self.replicas[i].assumed_load += 1;
            self.replicas[i].link.invoke(api, blob);
        } else if let Some(hs) = self.hs {
            self.local_pending += 1;
            api.hs_handle_intro(hs, blob);
        }
    }

    fn on_replica_events(&mut self, api: &mut FunctionApi<'_>, idx: usize, events: Vec<BoxEvent>) {
        let r = &mut self.replicas[idx];
        for event in events {
            match event {
                // Start the liveness clock: the replica owes us a load
                // report every REPORT_INTERVAL from now on.
                BoxEvent::Ready => r.last_report = Some(api.now()),
                // Load report: 'L' + u32 active sessions.
                BoxEvent::Output(data) if data.len() == 5 && data[0] == b'L' => {
                    r.assumed_load = u32::from_be_bytes([data[1], data[2], data[3], data[4]]);
                    r.last_report = Some(api.now());
                }
                BoxEvent::Output(_) | BoxEvent::Failed(_) => {}
            }
        }
    }

    /// Active replica count (including the local server), for experiments.
    pub fn active_machines(&self) -> usize {
        1 + self.replicas.iter().filter(|r| r.link.is_ready()).count()
    }
}

impl Function for LoadBalancer {
    fn on_install(&mut self, api: &mut FunctionApi<'_>) {
        // Establish intro points and publish ONE descriptor; introductions
        // are surfaced (auto_rendezvous = false) so we decide who answers.
        self.hs = Some(api.create_hs(self.params.service.seed, self.params.n_intro as u32, false));
        api.set_timer(HEALTH_INTERVAL, TAG_HEALTH);
    }

    fn on_timer(&mut self, api: &mut FunctionApi<'_>, tag: u64) {
        if tag != TAG_HEALTH {
            return;
        }
        // Health sweep: a Ready replica that missed its load-report
        // deadline is dead — clients it would have served get redirected to
        // live replicas (or served locally) by route_introduction.
        let now = api.now();
        for r in self.replicas.iter_mut() {
            let silent = r
                .last_report
                .map(|t| now.since(t) >= DEAD_AFTER)
                .unwrap_or(false);
            if r.link.is_ready() && silent {
                r.link.abandon();
                self.failovers += 1;
                T_FAILOVERS.inc();
            }
        }
        api.set_timer(HEALTH_INTERVAL, TAG_HEALTH);
    }

    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, _input: Vec<u8>) {
        // Invocation reports status (the experiments use this).
        let mut out = Vec::new();
        out.extend_from_slice(b"machines:");
        out.extend_from_slice(&(self.active_machines() as u32).to_be_bytes());
        api.output(out);
        api.output_end();
    }

    fn on_hs_introduction(&mut self, api: &mut FunctionApi<'_>, _hs: u64, blob: Vec<u8>) {
        self.route_introduction(api, blob);
    }

    fn on_hs_client_circuit(&mut self, _api: &mut FunctionApi<'_>, _hs: u64, circ: u64) {
        self.local_pending = self.local_pending.saturating_sub(1);
        self.serving.on_client_circuit(circ);
    }

    fn on_incoming_stream(
        &mut self,
        api: &mut FunctionApi<'_>,
        circ: u64,
        stream: u64,
        _port: u16,
    ) {
        self.serving.on_incoming_stream(api, circ, stream);
    }

    fn on_stream_data(&mut self, api: &mut FunctionApi<'_>, circ: u64, stream: u64, data: Vec<u8>) {
        if self.serving.on_stream_data(api, circ, stream) {
            return;
        }
        // Maybe a replica control stream.
        for idx in 0..self.replicas.len() {
            let events = self.replicas[idx]
                .link
                .on_stream_data(api, circ, stream, &data);
            if let Some(events) = events {
                self.on_replica_events(api, idx, events);
                return;
            }
        }
    }

    fn on_stream_ended(&mut self, _api: &mut FunctionApi<'_>, circ: u64, stream: u64) {
        self.serving.on_circuit_gone(circ);
        for r in self.replicas.iter_mut() {
            r.link.on_stream_ended(circ, stream);
        }
    }

    fn on_circuit_ready(&mut self, api: &mut FunctionApi<'_>, circ: u64) {
        for r in self.replicas.iter_mut() {
            if r.link.on_circuit_ready(api, circ) {
                return;
            }
        }
    }

    fn on_stream_connected(&mut self, api: &mut FunctionApi<'_>, circ: u64, stream: u64) {
        for r in self.replicas.iter_mut() {
            if r.link.on_stream_connected(api, circ, stream) {
                return;
            }
        }
    }

    fn on_circuit_failed(&mut self, _api: &mut FunctionApi<'_>, circ: u64) {
        self.serving.on_circuit_gone(circ);
        for r in self.replicas.iter_mut() {
            r.link.on_circuit_failed(circ);
        }
    }
}

/// Registry constructor for the balancer.
pub fn make_lb(params: &[u8]) -> Box<dyn Function> {
    Box::new(LoadBalancer::new(params))
}

/// Registry constructor for the replica.
pub fn make_replica(params: &[u8]) -> Box<dyn Function> {
    Box::new(HsReplica::new(params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_roundtrip() {
        let p = LbParams {
            service: ServiceParams {
                seed: [9; 32],
                file_len: 10 << 20,
            },
            n_intro: 3,
            max_per_replica: 2,
            replica_boxes: vec![(NodeId(4), 5005), (NodeId(5), 5005)],
        };
        assert_eq!(LbParams::decode(&p.encode()).unwrap(), p);
        assert_eq!(
            ServiceParams::decode(&p.service.encode()).unwrap(),
            p.service
        );
    }

    #[test]
    fn serving_tracks_sessions() {
        let mut s = Serving::new(100);
        assert_eq!(s.active(), 0);
        s.on_client_circuit(7);
        s.on_client_circuit(8);
        assert_eq!(s.active(), 2);
        assert!(s.on_circuit_gone(7));
        assert!(!s.on_circuit_gone(7));
        assert_eq!(s.active(), 1);
    }
}
