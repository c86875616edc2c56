//! The Browser function (§7 and Appendix A).
//!
//! The client never runs a web client at all: Browser, at the exit node,
//! "starts an HTTPS client, autonomously fetches the URL, saves it to a
//! single digest file, and returns the file, padded to some multiple of
//! bytes". Both the URL and the padding are invocation inputs. Optionally
//! (Figure 2) the digest is delivered to a Dropbox on *another* box
//! instead of back to the client.

use crate::boxlink::RemoteBox;
use crate::compress::compress;
use crate::dropbox;
use crate::web::HtmlDoc;
use bento::function::{Function, FunctionApi};
use bento::manifest::Manifest;
use bento::protocol::{BentoMsg, FunctionSpec};
use bento::stem::StemCall;
use rand::Rng;
use sandbox::seccomp::SyscallClass;
use simnet::wire::{Reader, Writer};
use simnet::NodeId;
use tor_net::stream_frame::{encode_frame, FrameAssembler};

/// One Browser request, shipped as the invoke input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrowseRequest {
    /// Web server address.
    pub server: NodeId,
    /// Web server port.
    pub port: u16,
    /// Path of the page's HTML.
    pub path: String,
    /// Pad the response to a multiple of this many bytes (0 = no padding).
    pub padding: u64,
    /// Deliver to a Dropbox on this box instead of back to the client.
    pub dropbox_on: Option<(NodeId, u16)>,
}

impl BrowseRequest {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.server.0);
        w.u16(self.port);
        w.str(&self.path);
        w.u64(self.padding);
        match self.dropbox_on {
            Some((n, p)) => {
                w.u8(1);
                w.u32(n.0);
                w.u16(p);
            }
            None => {
                w.u8(0);
            }
        }
        w.into_bytes()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Option<BrowseRequest> {
        let mut r = Reader::new(buf);
        let server = NodeId(r.u32().ok()?);
        let port = r.u16().ok()?;
        let path = r.str("path").ok()?;
        let padding = r.u64().ok()?;
        let dropbox_on = match r.u8().ok()? {
            0 => None,
            1 => Some((NodeId(r.u32().ok()?), r.u16().ok()?)),
            _ => return None,
        };
        r.finish().ok()?;
        Some(BrowseRequest {
            server,
            port,
            path,
            padding,
            dropbox_on,
        })
    }
}

/// The manifest Browser ships: direct network access for the fetch, Stem
/// circuits only when composing with a Dropbox.
pub fn manifest(compose: bool) -> Manifest {
    let mut m = Manifest::minimal("browser")
        .with_syscalls([SyscallClass::Connect])
        .with_sgx();
    m.memory = 20 << 20; // the paper's measured 16–20 MB envelope
    if compose {
        m = m.with_stem([
            StemCall::NewCircuit,
            StemCall::OpenStream,
            StemCall::SendStream,
        ]);
    }
    m
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    FetchingHtml,
    FetchingAssets,
    Delivering,
}

/// The Browser function.
pub struct Browser {
    phase: Phase,
    req: Option<BrowseRequest>,
    conn: Option<u64>,
    assembler: FrameAssembler,
    html: Option<HtmlDoc>,
    parts: Vec<Vec<u8>>,
    assets_expected: usize,
    // Composition state.
    dropbox: Option<RemoteBox>,
    dropbox_container: Option<u64>,
    dropbox_invocation: Option<[u8; 32]>,
    digest: Vec<u8>,
}

impl Browser {
    /// Construct (no parameters; everything arrives per invocation).
    pub fn new(_params: &[u8]) -> Browser {
        Browser {
            phase: Phase::Idle,
            req: None,
            conn: None,
            assembler: FrameAssembler::new(),
            html: None,
            parts: Vec::new(),
            assets_expected: 0,
            dropbox: None,
            dropbox_container: None,
            dropbox_invocation: None,
            digest: Vec::new(),
        }
    }

    fn finish_page(&mut self, api: &mut FunctionApi<'_>) {
        // Build the single digest: HTML + assets, compressed. It stays in
        // memory; the manifest grants no file write.
        let mut raw = Vec::new();
        for p in &self.parts {
            raw.extend_from_slice(p);
        }
        // Model the compression cost: ~1 ms / 64 KiB of *simulated* CPU,
        // part of every page-load time in `results/`. Not a measurement of
        // `compress` on the host (see DESIGN.md §7, "Session kernels").
        let _ = api.cpu((raw.len() as u64 / 65_536).max(1));
        self.digest = compress(&raw);
        let req = self.req.clone().expect("request in flight");
        match req.dropbox_on {
            None => {
                // Stream the page, then the padding — the client can render
                // as soon as the page bytes arrive (§7.3).
                api.output(self.digest.clone());
                let padding = pad_len(self.digest.len() as u64, req.padding);
                if padding > 0 {
                    let mut junk = vec![0u8; padding as usize];
                    api.rng().fill(&mut junk[..]);
                    api.output(junk);
                }
                api.output_end();
                self.phase = Phase::Idle;
            }
            Some((addr, port)) => {
                // Figure 2: deploy a Dropbox elsewhere and deliver there.
                self.phase = Phase::Delivering;
                let mut link = RemoteBox::connect(api, addr, port);
                link.send(
                    api,
                    &BentoMsg::RequestContainer {
                        image: bento::protocol::ImageKind::Plain,
                        client_hello: None,
                    },
                );
                self.dropbox = Some(link);
            }
        }
    }

    fn handle_dropbox_msgs(&mut self, api: &mut FunctionApi<'_>, msgs: Vec<BentoMsg>) {
        for msg in msgs {
            match msg {
                BentoMsg::ContainerReady {
                    container_id,
                    invocation_token,
                    ..
                } => {
                    self.dropbox_container = Some(container_id);
                    self.dropbox_invocation = Some(invocation_token);
                    let spec = FunctionSpec {
                        params: dropbox::Params {
                            max_gets: 8,
                            expiry_ms: 600_000,
                            max_bytes: 0,
                        }
                        .encode(),
                        manifest: dropbox::manifest(),
                    };
                    let link = self.dropbox.as_mut().expect("link");
                    link.send(
                        api,
                        &BentoMsg::UploadFunction {
                            container_id,
                            payload: spec.encode(),
                            sealed: false,
                        },
                    );
                }
                BentoMsg::UploadOk { .. } => {
                    let token = self.dropbox_invocation.expect("token");
                    let mut input = vec![b'P'];
                    input.extend_from_slice(&self.digest);
                    let link = self.dropbox.as_mut().expect("link");
                    link.send(api, &BentoMsg::Invoke { token, input });
                }
                BentoMsg::Output { data } if data == b"OK" => {
                    // Tell the (possibly now-offline) client where the page
                    // lives: box address + invocation token.
                    let link = self.dropbox.as_ref().expect("link");
                    let mut out = Vec::new();
                    out.extend_from_slice(b"DROPBOX:");
                    out.extend_from_slice(&link.box_addr().0.to_be_bytes());
                    out.extend_from_slice(&self.dropbox_invocation.expect("token"));
                    api.output(out);
                    api.output_end();
                    self.phase = Phase::Idle;
                }
                BentoMsg::Rejected { reason } => {
                    api.output(format!("DROPBOX-FAILED:{reason}").into_bytes());
                    api.output_end();
                    self.phase = Phase::Idle;
                }
                _ => {}
            }
        }
    }
}

/// Bytes of padding needed to reach a multiple of `padding`.
fn pad_len(len: u64, padding: u64) -> u64 {
    if padding == 0 {
        return 0;
    }
    let rem = len % padding;
    if rem == 0 {
        // Appendix A pads even exact multiples by a full block, keeping
        // "multiple of padding" sizes from leaking exact fits.
        padding
    } else {
        padding - rem
    }
}

impl Function for Browser {
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, input: Vec<u8>) {
        let Some(req) = BrowseRequest::decode(&input) else {
            api.output(b"ERR:bad request".to_vec());
            api.output_end();
            return;
        };
        match api.connect(req.server, req.port) {
            Ok(conn) => {
                self.conn = Some(conn);
                self.req = Some(req);
                self.phase = Phase::FetchingHtml;
                self.assembler = FrameAssembler::new();
                self.parts.clear();
                self.html = None;
            }
            Err(e) => {
                api.output(format!("ERR:connect: {e}").into_bytes());
                api.output_end();
            }
        }
    }

    fn on_net_connected(&mut self, api: &mut FunctionApi<'_>, conn: u64) {
        if Some(conn) != self.conn {
            return;
        }
        let path = self.req.as_ref().expect("request").path.clone();
        api.net_send(conn, encode_frame(path.as_bytes()));
    }

    fn on_net_data(&mut self, api: &mut FunctionApi<'_>, conn: u64, data: Vec<u8>) {
        if Some(conn) != self.conn {
            return;
        }
        self.assembler.push(&data);
        let frames = self.assembler.drain_frames();
        for frame in frames {
            match self.phase {
                Phase::FetchingHtml => {
                    let Some(doc) = HtmlDoc::decode(&frame) else {
                        api.output(b"ERR:bad html".to_vec());
                        api.output_end();
                        self.phase = Phase::Idle;
                        return;
                    };
                    self.parts.push(frame.clone());
                    self.assets_expected = doc.assets.len();
                    // Autonomously fetch every asset (this is what removes
                    // client-side traffic dynamics).
                    for (path, _) in &doc.assets {
                        api.net_send(conn, encode_frame(path.as_bytes()));
                    }
                    self.html = Some(doc);
                    if self.assets_expected == 0 {
                        api.net_close(conn);
                        self.conn = None;
                        self.finish_page(api);
                        return;
                    }
                    self.phase = Phase::FetchingAssets;
                }
                Phase::FetchingAssets => {
                    self.parts.push(frame);
                    if self.parts.len() == self.assets_expected + 1 {
                        api.net_close(conn);
                        self.conn = None;
                        self.finish_page(api);
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    fn on_circuit_ready(&mut self, api: &mut FunctionApi<'_>, circ: u64) {
        if let Some(link) = self.dropbox.as_mut() {
            link.on_circuit_ready(api, circ);
        }
    }

    fn on_stream_connected(&mut self, api: &mut FunctionApi<'_>, circ: u64, stream: u64) {
        if let Some(link) = self.dropbox.as_mut() {
            link.on_stream_connected(api, circ, stream);
        }
    }

    fn on_stream_data(&mut self, api: &mut FunctionApi<'_>, circ: u64, stream: u64, data: Vec<u8>) {
        let msgs = match self.dropbox.as_mut() {
            Some(link) => link.on_stream_data(api, circ, stream, &data),
            None => None,
        };
        if let Some(msgs) = msgs {
            self.handle_dropbox_msgs(api, msgs);
        }
    }
}

/// Registry constructor.
pub fn make(params: &[u8]) -> Box<dyn Function> {
    Box::new(Browser::new(params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let r = BrowseRequest {
            server: NodeId(9),
            port: 80,
            path: "/site001/index".into(),
            padding: 1 << 20,
            dropbox_on: Some((NodeId(4), 5005)),
        };
        assert_eq!(BrowseRequest::decode(&r.encode()).unwrap(), r);
        let r2 = BrowseRequest {
            dropbox_on: None,
            ..r.clone()
        };
        assert_eq!(BrowseRequest::decode(&r2.encode()).unwrap(), r2);
        assert!(BrowseRequest::decode(b"junk").is_none());
    }

    #[test]
    fn pad_len_reaches_multiples() {
        assert_eq!(pad_len(100, 0), 0);
        assert_eq!(pad_len(100, 1000), 900);
        assert_eq!(pad_len(1000, 1000), 1000, "exact fits still pad");
        assert_eq!(pad_len(1001, 1000), 999);
    }

    #[test]
    fn manifest_requests_least_privilege() {
        let plain = manifest(false);
        assert!(plain.syscalls.contains(&SyscallClass::Connect));
        assert!(plain.stem.is_empty());
        let composed = manifest(true);
        assert!(composed.stem.contains(&StemCall::NewCircuit));
    }
}
