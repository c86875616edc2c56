//! §9.4 future work, implemented: **multipath routing as a Bento function**.
//!
//! "Several works propose adding a multipath routing scheme that splits a
//! stream across multiple circuits ... Rather than modify the Tor code
//! base, we are exploring whether multipath routing designs can be
//! implemented as Bento functions." This function does exactly that: it
//! fetches one resource in `k` byte-ranges over `k` *separate Tor
//! circuits* (all exiting to the same destination), reassembles, and
//! returns the whole — aggregate throughput scales with the number of
//! circuits when per-circuit bandwidth is the bottleneck (see the
//! `multipath` ablation bench).

use bento::function::{FnStreamTarget, Function, FunctionApi};
use bento::manifest::Manifest;
use bento::stem::StemCall;
use simnet::wire::{Reader, Writer};
use simnet::NodeId;
use tor_net::stream_frame::{encode_frame, FrameAssembler};

/// One multipath fetch request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipathRequest {
    /// Web server.
    pub server: NodeId,
    /// Server port.
    pub port: u16,
    /// Resource path (a single-part page).
    pub path: String,
    /// Total resource length in bytes (ranges are derived from it).
    pub total_len: u64,
    /// Number of circuits / ranges.
    pub k: u8,
}

impl MultipathRequest {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.server.0);
        w.u16(self.port);
        w.str(&self.path);
        w.u64(self.total_len);
        w.u8(self.k);
        w.into_bytes()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Option<MultipathRequest> {
        let mut r = Reader::new(buf);
        let req = MultipathRequest {
            server: NodeId(r.u32().ok()?),
            port: r.u16().ok()?,
            path: r.str("path").ok()?,
            total_len: r.u64().ok()?,
            k: r.u8().ok()?,
        };
        r.finish().ok()?;
        Some(req)
    }

    /// The byte range circuit `i` fetches: an even split with the last
    /// range absorbing the remainder.
    pub fn range(&self, i: u8) -> (u64, u64) {
        let k = self.k.max(1) as u64;
        let chunk = self.total_len / k;
        let start = chunk * i as u64;
        let end = if i as u64 == k - 1 {
            self.total_len
        } else {
            start + chunk
        };
        (start, end)
    }
}

/// Multipath's manifest: circuits and streams, nothing else.
pub fn manifest() -> Manifest {
    let mut m = Manifest::minimal("multipath").with_stem([
        StemCall::NewCircuit,
        StemCall::OpenStream,
        StemCall::SendStream,
    ]);
    m.memory = 32 << 20;
    m
}

struct Lane {
    circ: u64,
    stream: Option<u64>,
    assembler: FrameAssembler,
    data: Option<Vec<u8>>,
    failed: bool,
}

/// The multipath-fetch function.
pub struct Multipath {
    req: Option<MultipathRequest>,
    lanes: Vec<Lane>,
    finished: bool,
}

impl Multipath {
    /// Construct (the function takes no install-time parameters).
    pub fn new(_params: &[u8]) -> Multipath {
        Multipath {
            req: None,
            lanes: Vec::new(),
            finished: false,
        }
    }

    fn maybe_finish(&mut self, api: &mut FunctionApi<'_>) {
        if self.finished || self.lanes.is_empty() {
            return;
        }
        if self.lanes.iter().any(|l| l.data.is_none() && !l.failed) {
            return;
        }
        self.finished = true;
        if self.lanes.iter().any(|l| l.failed) {
            api.output(b"ERR:lane failed".to_vec());
            api.output_end();
            return;
        }
        let mut whole = Vec::new();
        for l in &self.lanes {
            whole.extend_from_slice(l.data.as_ref().expect("checked"));
        }
        api.output(whole);
        api.output_end();
    }

    fn lane_mut(&mut self, circ: u64) -> Option<usize> {
        self.lanes.iter().position(|l| l.circ == circ)
    }
}

impl Function for Multipath {
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, input: Vec<u8>) {
        if self.req.is_some() {
            api.output(b"ERR:busy".to_vec());
            api.output_end();
            return;
        }
        let Some(req) = MultipathRequest::decode(&input) else {
            api.output(b"ERR:bad request".to_vec());
            api.output_end();
            return;
        };
        if req.k == 0 || req.total_len == 0 {
            api.output(b"ERR:need k >= 1 and a length".to_vec());
            api.output_end();
            return;
        }
        // One circuit per range, all exiting to the same server — the
        // "common exit relay" variant of the multipath literature arises
        // when the exit policy set is small; our circuits may share or
        // differ in exits, both are fine for the aggregate.
        for _ in 0..req.k {
            let circ = api.build_circuit(Some((req.server, req.port)));
            self.lanes.push(Lane {
                circ,
                stream: None,
                assembler: FrameAssembler::new(),
                data: None,
                failed: false,
            });
        }
        self.req = Some(req);
    }

    fn on_circuit_ready(&mut self, api: &mut FunctionApi<'_>, circ: u64) {
        let Some(req) = self.req.clone() else { return };
        if let Some(i) = self.lane_mut(circ) {
            let stream = api.open_stream(circ, FnStreamTarget::Node(req.server, req.port));
            self.lanes[i].stream = Some(stream);
        }
    }

    fn on_circuit_failed(&mut self, api: &mut FunctionApi<'_>, circ: u64) {
        if let Some(i) = self.lane_mut(circ) {
            self.lanes[i].failed = true;
            self.maybe_finish(api);
        }
    }

    fn on_stream_connected(&mut self, api: &mut FunctionApi<'_>, circ: u64, stream: u64) {
        let Some(req) = self.req.clone() else { return };
        if let Some(i) = self.lane_mut(circ) {
            if self.lanes[i].stream == Some(stream) {
                let (start, end) = req.range(i as u8);
                let range_req = format!("{}#{}-{}", req.path, start, end);
                api.stream_send(circ, stream, encode_frame(range_req.as_bytes()));
            }
        }
    }

    fn on_stream_data(&mut self, api: &mut FunctionApi<'_>, circ: u64, stream: u64, data: Vec<u8>) {
        let Some(i) = self.lane_mut(circ) else { return };
        if self.lanes[i].stream != Some(stream) || self.lanes[i].data.is_some() {
            return;
        }
        self.lanes[i].assembler.push(&data);
        if let Some(frame) = self.lanes[i].assembler.next_frame() {
            self.lanes[i].data = Some(frame);
            self.maybe_finish(api);
        }
    }

    fn on_stream_ended(&mut self, api: &mut FunctionApi<'_>, circ: u64, _stream: u64) {
        if let Some(i) = self.lane_mut(circ) {
            if self.lanes[i].data.is_none() {
                self.lanes[i].failed = true;
                self.maybe_finish(api);
            }
        }
    }
}

/// Registry constructor.
pub fn make(params: &[u8]) -> Box<dyn Function> {
    Box::new(Multipath::new(params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = MultipathRequest {
            server: NodeId(3),
            port: 80,
            path: "/big/file".into(),
            total_len: 1 << 20,
            k: 4,
        };
        assert_eq!(MultipathRequest::decode(&r.encode()).unwrap(), r);
        assert!(MultipathRequest::decode(b"nah").is_none());
    }

    #[test]
    fn ranges_partition_exactly() {
        let r = MultipathRequest {
            server: NodeId(1),
            port: 80,
            path: "/f".into(),
            total_len: 1003,
            k: 4,
        };
        let mut covered = 0;
        let mut expected_start = 0;
        for i in 0..r.k {
            let (s, e) = r.range(i);
            assert_eq!(s, expected_start, "ranges are contiguous");
            assert!(e > s || r.total_len == 0);
            covered += e - s;
            expected_start = e;
        }
        assert_eq!(covered, 1003, "ranges cover the whole file");
    }

    #[test]
    fn single_lane_degenerates_to_whole_file() {
        let r = MultipathRequest {
            server: NodeId(1),
            port: 80,
            path: "/f".into(),
            total_len: 500,
            k: 1,
        };
        assert_eq!(r.range(0), (0, 500));
    }
}
