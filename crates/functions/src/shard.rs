//! The Shard function (§9.3): spread a file over multiple Dropboxes so any
//! k of N shards reconstruct it.
//!
//! Shard composes with Dropbox exactly as the paper describes: it encodes
//! the file ([`crate::erasure`]), then "deploys these shards by invoking
//! the Dropbox function on other machines". The output is a locator list —
//! (box, invocation token) per shard — the client keeps; reconstruction is
//! client-side ([`crate::erasure::decode`]) from any k fetched shards.

// Invocation inputs and the Dropboxes' replies arrive off the wire: no
// panics here.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::boxlink::{BoxEvent, RemoteBox};
use crate::dropbox;
use crate::erasure::{encode as rs_encode, ShardPiece};
use bento::function::{Function, FunctionApi};
use bento::manifest::Manifest;
use bento::protocol::FunctionSpec;
use bento::stem::StemCall;
use simnet::wire::{Reader, Writer};
use simnet::NodeId;

/// One Shard request: the invoke input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRequest {
    /// Minimum shards needed to reconstruct.
    pub k: u8,
    /// Target Bento boxes, one shard each (N = targets.len()).
    pub targets: Vec<(NodeId, u16)>,
    /// The file.
    pub file: Vec<u8>,
}

impl ShardRequest {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(self.k);
        w.varu64(self.targets.len() as u64);
        for (n, p) in &self.targets {
            w.u32(n.0);
            w.u16(*p);
        }
        w.bytes(&self.file);
        w.into_bytes()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Option<ShardRequest> {
        let mut r = Reader::new(buf);
        let k = r.u8().ok()?;
        let n = r.varu64().ok()?;
        if n > 255 {
            return None;
        }
        let mut targets = Vec::with_capacity(n as usize);
        for _ in 0..n {
            targets.push((NodeId(r.u32().ok()?), r.u16().ok()?));
        }
        let file = r.bytes_vec("file").ok()?;
        r.finish().ok()?;
        Some(ShardRequest { k, targets, file })
    }
}

/// A locator for one deployed shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLocator {
    /// Shard index (its generator row).
    pub index: u8,
    /// The box storing it.
    pub box_addr: NodeId,
    /// The box's Bento port.
    pub box_port: u16,
    /// The Dropbox invocation token (the fetch capability).
    pub token: [u8; 32],
}

/// Encode/decode the locator list Shard outputs.
pub fn encode_locators(locs: &[ShardLocator]) -> Vec<u8> {
    let mut w = Writer::new();
    w.varu64(locs.len() as u64);
    for l in locs {
        w.u8(l.index);
        w.u32(l.box_addr.0);
        w.u16(l.box_port);
        w.raw(&l.token);
    }
    w.into_bytes()
}

/// Decode a locator list.
pub fn decode_locators(buf: &[u8]) -> Option<Vec<ShardLocator>> {
    let mut r = Reader::new(buf);
    let n = r.varu64().ok()?;
    if n > 255 {
        return None;
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(ShardLocator {
            index: r.u8().ok()?,
            box_addr: NodeId(r.u32().ok()?),
            box_port: r.u16().ok()?,
            token: r.array("token").ok()?,
        });
    }
    r.finish().ok()?;
    Some(out)
}

/// Shard's manifest: circuits and streams for the Dropbox deployments.
pub fn manifest() -> Manifest {
    let mut m = Manifest::minimal("shard").with_stem([
        StemCall::NewCircuit,
        StemCall::OpenStream,
        StemCall::SendStream,
    ]);
    m.memory = 32 << 20;
    m
}

struct Deployment {
    link: RemoteBox,
    piece: ShardPiece,
    /// The token of the Dropbox that answered the put with `OK`. It stays
    /// valid when the link fails afterwards.
    stored: Option<[u8; 32]>,
}

/// The Shard function.
pub struct Shard {
    deployments: Vec<Deployment>,
    started: bool,
    finished: bool,
}

impl Shard {
    /// Construct (no parameters).
    pub fn new(_params: &[u8]) -> Shard {
        Shard {
            deployments: Vec::new(),
            started: false,
            finished: false,
        }
    }

    fn maybe_finish(&mut self, api: &mut FunctionApi<'_>) {
        if self.finished
            || self
                .deployments
                .iter()
                .any(|d| d.stored.is_none() && !d.link.is_failed())
        {
            return;
        }
        self.finished = true;
        // A shard counts when it was stored, whatever its link did since.
        let locs: Vec<ShardLocator> = self
            .deployments
            .iter()
            .filter_map(|d| {
                Some(ShardLocator {
                    index: d.piece.index,
                    box_addr: d.link.box_addr(),
                    box_port: tor_net::ports::BENTO_PORT,
                    token: d.stored?,
                })
            })
            .collect();
        api.output(encode_locators(&locs));
        api.output_end();
    }

    /// Act on what deployment `idx` reported: put the shard once the
    /// Dropbox is up, note the put's `OK`; then finish if every shard is
    /// stored or failed.
    fn on_box_events(&mut self, api: &mut FunctionApi<'_>, idx: usize, events: Vec<BoxEvent>) {
        let d = &mut self.deployments[idx];
        for event in events {
            match event {
                BoxEvent::Ready => {
                    let mut input = vec![b'P'];
                    input.extend_from_slice(&d.piece.to_bytes());
                    d.link.invoke(api, input);
                }
                BoxEvent::Output(data) if data == b"OK" => d.stored = d.link.token(),
                BoxEvent::Output(_) | BoxEvent::Failed(_) => {}
            }
        }
        self.maybe_finish(api);
    }
}

impl Function for Shard {
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, input: Vec<u8>) {
        if self.started {
            api.output(b"ERR:already sharding".to_vec());
            api.output_end();
            return;
        }
        let Some(req) = ShardRequest::decode(&input) else {
            api.output(b"ERR:bad request".to_vec());
            api.output_end();
            return;
        };
        let n = req.targets.len();
        if req.k == 0 || n < req.k as usize {
            api.output(b"ERR:need k <= n targets".to_vec());
            api.output_end();
            return;
        }
        self.started = true;
        // Encoding cost: ~1 ms per 32 KiB per parity shard.
        let parity = n as u64 - req.k as u64;
        let _ = api.cpu(((req.file.len() as u64 / 32_768) * parity.max(1)).max(1));
        let pieces = rs_encode(&req.file, req.k, n as u8);
        let spec = FunctionSpec {
            params: dropbox::Params {
                max_gets: 16,
                expiry_ms: 3_600_000,
                max_bytes: 0,
            }
            .encode(),
            manifest: dropbox::manifest(),
        };
        for (piece, (addr, port)) in pieces.into_iter().zip(req.targets.iter()) {
            self.deployments.push(Deployment {
                link: RemoteBox::deploy(api, *addr, *port, &spec),
                piece,
                stored: None,
            });
        }
    }

    fn on_circuit_ready(&mut self, api: &mut FunctionApi<'_>, circ: u64) {
        for d in self.deployments.iter_mut() {
            if d.link.on_circuit_ready(api, circ) {
                return;
            }
        }
    }

    fn on_circuit_failed(&mut self, api: &mut FunctionApi<'_>, circ: u64) {
        for idx in 0..self.deployments.len() {
            if let Some(event) = self.deployments[idx].link.on_circuit_failed(circ) {
                self.on_box_events(api, idx, vec![event]);
                return;
            }
        }
    }

    fn on_stream_connected(&mut self, api: &mut FunctionApi<'_>, circ: u64, stream: u64) {
        for d in self.deployments.iter_mut() {
            if d.link.on_stream_connected(api, circ, stream) {
                return;
            }
        }
    }

    fn on_stream_data(&mut self, api: &mut FunctionApi<'_>, circ: u64, stream: u64, data: Vec<u8>) {
        for idx in 0..self.deployments.len() {
            let events = self.deployments[idx]
                .link
                .on_stream_data(api, circ, stream, &data);
            if let Some(events) = events {
                self.on_box_events(api, idx, events);
                return;
            }
        }
    }

    fn on_stream_ended(&mut self, api: &mut FunctionApi<'_>, circ: u64, stream: u64) {
        for idx in 0..self.deployments.len() {
            if let Some(event) = self.deployments[idx].link.on_stream_ended(circ, stream) {
                self.on_box_events(api, idx, vec![event]);
                return;
            }
        }
    }
}

/// Registry constructor.
pub fn make(params: &[u8]) -> Box<dyn Function> {
    Box::new(Shard::new(params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = ShardRequest {
            k: 2,
            targets: vec![(NodeId(1), 5005), (NodeId(2), 5005), (NodeId(3), 5005)],
            file: vec![7u8; 1000],
        };
        assert_eq!(ShardRequest::decode(&r.encode()).unwrap(), r);
        assert!(ShardRequest::decode(b"no").is_none());
    }

    #[test]
    fn locator_roundtrip() {
        let locs = vec![
            ShardLocator {
                index: 0,
                box_addr: NodeId(4),
                box_port: 5005,
                token: [9; 32],
            },
            ShardLocator {
                index: 2,
                box_addr: NodeId(5),
                box_port: 5005,
                token: [1; 32],
            },
        ];
        assert_eq!(decode_locators(&encode_locators(&locs)).unwrap(), locs);
        assert!(decode_locators(&[0xFF]).is_none());
    }

    #[test]
    fn invalid_requests_refused() {
        let mut rt = bento::function::ContainerRuntime {
            container: sandbox::container::Container::new(
                1,
                sandbox::cgroup::ResourceLimits::default_function(),
                sandbox::seccomp::SeccompFilter::allow_all(),
                sandbox::netrules::NetRules::deny_all(),
                1 << 20,
                4,
            ),
            fsp: None,
            image: bento::protocol::ImageKind::Plain,
        };
        let mut f = Shard::new(b"");
        let mut api = FunctionApi::for_testing(&mut rt, 1);
        // k > n
        let bad = ShardRequest {
            k: 5,
            targets: vec![(NodeId(1), 5005)],
            file: vec![1],
        };
        f.on_invoke(&mut api, bad.encode());
        assert!(matches!(
            &api.actions()[0],
            bento::function::FnAction::Output(d) if d.starts_with(b"ERR")
        ));
    }
}
