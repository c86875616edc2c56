//! Function composition: a Bento client *inside a function*.
//!
//! Figure 2 of the paper composes functions: Browser deploys a Dropbox on
//! another box and delivers the page there, Shard deploys a Dropbox per
//! shard (§9.3) and LoadBalancer its replicas (§8). [`RemoteBox`] is the
//! one path they deploy by. Over a Stem-mediated circuit that exits at the
//! other box it runs `RequestContainer → ContainerReady → UploadFunction →
//! UploadOk`, then invokes the function with the token the box issued. The
//! owner forwards its [`bento::Function`] callbacks and acts on the
//! [`BoxEvent`]s it gets back. The box's bytes arrive off the wire: nothing
//! here may panic on them.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bento::function::{FnStreamTarget, FunctionApi};
use bento::protocol::{BentoMsg, FunctionSpec, ImageKind};
use simnet::NodeId;
use tor_net::stream_frame::{encode_frame, FrameAssembler};

/// What a deployment reports to its owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoxEvent {
    /// The function is installed: [`RemoteBox::invoke`] now reaches it.
    Ready,
    /// Output of the deployed function.
    Output(Vec<u8>),
    /// The deployment is over: the box refused a request, or the link's
    /// circuit failed or its stream ended. Reported once.
    Failed(String),
}

enum Phase {
    /// The encoded spec waits for the container.
    AwaitContainer(Vec<u8>),
    /// The spec is uploaded into the container this token invokes.
    AwaitUpload([u8; 32]),
    Ready([u8; 32]),
    /// Refused, dead or abandoned: nothing more is sent or reported.
    Failed,
}

/// One function deployed on a remote Bento box.
pub struct RemoteBox {
    circ: u64,
    stream: Option<u64>,
    box_addr: NodeId,
    box_port: u16,
    assembler: FrameAssembler,
    phase: Phase,
}

impl RemoteBox {
    /// Deploy `spec` on the box at `box_addr:box_port`. The container is
    /// requested once the stream to the box connects.
    pub fn deploy(
        api: &mut FunctionApi<'_>,
        box_addr: NodeId,
        box_port: u16,
        spec: &FunctionSpec,
    ) -> RemoteBox {
        RemoteBox {
            circ: api.build_circuit(Some((box_addr, box_port))),
            stream: None,
            box_addr,
            box_port,
            assembler: FrameAssembler::new(),
            phase: Phase::AwaitContainer(spec.encode()),
        }
    }

    /// The box this deployment targets.
    pub fn box_addr(&self) -> NodeId {
        self.box_addr
    }

    /// The installed function's invocation token, the capability a
    /// locator hands on; `None` unless ready.
    pub fn token(&self) -> Option<[u8; 32]> {
        match self.phase {
            Phase::Ready(token) => Some(token),
            _ => None,
        }
    }

    /// Whether the function is installed and the link alive.
    pub fn is_ready(&self) -> bool {
        self.token().is_some()
    }

    /// Whether the deployment failed or was abandoned.
    pub fn is_failed(&self) -> bool {
        matches!(self.phase, Phase::Failed)
    }

    /// Give up on the box: nothing more is sent to it or reported from it.
    pub fn abandon(&mut self) {
        self.phase = Phase::Failed;
    }

    /// Invoke the installed function; sends nothing unless ready.
    pub fn invoke(&mut self, api: &mut FunctionApi<'_>, input: Vec<u8>) {
        if let Some(token) = self.token() {
            self.send(api, &BentoMsg::Invoke { token, input });
        }
    }

    /// Feed `on_circuit_ready`; returns true if consumed.
    pub fn on_circuit_ready(&mut self, api: &mut FunctionApi<'_>, circ: u64) -> bool {
        if circ != self.circ || self.stream.is_some() {
            return false;
        }
        let target = FnStreamTarget::Node(self.box_addr, self.box_port);
        self.stream = Some(api.open_stream(circ, target));
        true
    }

    /// Feed `on_stream_connected`; returns true if consumed.
    pub fn on_stream_connected(
        &mut self,
        api: &mut FunctionApi<'_>,
        circ: u64,
        stream: u64,
    ) -> bool {
        if !self.owns_stream(circ, stream) {
            return false;
        }
        let request = BentoMsg::RequestContainer {
            image: ImageKind::Plain,
            client_hello: None,
        };
        self.send(api, &request);
        true
    }

    /// Feed `on_stream_data`: runs the exchange on the box's messages and
    /// returns what the owner acts on, or `None` if the stream is not ours.
    pub fn on_stream_data(
        &mut self,
        api: &mut FunctionApi<'_>,
        circ: u64,
        stream: u64,
        data: &[u8],
    ) -> Option<Vec<BoxEvent>> {
        if !self.owns_stream(circ, stream) {
            return None;
        }
        self.assembler.push(data);
        let frames = self.assembler.drain_frames();
        let msgs = frames.iter().filter_map(|f| BentoMsg::decode(f).ok());
        Some(msgs.filter_map(|msg| self.on_msg(api, msg)).collect())
    }

    /// Feed `on_circuit_failed`.
    pub fn on_circuit_failed(&mut self, circ: u64) -> Option<BoxEvent> {
        if circ != self.circ {
            return None;
        }
        self.fail("circuit failed".into())
    }

    /// Feed `on_stream_ended`.
    pub fn on_stream_ended(&mut self, circ: u64, stream: u64) -> Option<BoxEvent> {
        if !self.owns_stream(circ, stream) {
            return None;
        }
        self.fail("stream ended".into())
    }

    fn owns_stream(&self, circ: u64, stream: u64) -> bool {
        self.circ == circ && self.stream == Some(stream)
    }

    fn fail(&mut self, reason: String) -> Option<BoxEvent> {
        if self.is_failed() {
            return None;
        }
        self.phase = Phase::Failed;
        Some(BoxEvent::Failed(reason))
    }

    fn on_msg(&mut self, api: &mut FunctionApi<'_>, msg: BentoMsg) -> Option<BoxEvent> {
        match (&mut self.phase, msg) {
            (_, BentoMsg::Rejected { reason }) => self.fail(reason),
            (
                Phase::AwaitContainer(spec),
                BentoMsg::ContainerReady {
                    container_id,
                    invocation_token,
                    ..
                },
            ) => {
                let upload = BentoMsg::UploadFunction {
                    container_id,
                    payload: std::mem::take(spec),
                    sealed: false,
                };
                self.phase = Phase::AwaitUpload(invocation_token);
                self.send(api, &upload);
                None
            }
            (Phase::AwaitUpload(token), BentoMsg::UploadOk { .. }) => {
                self.phase = Phase::Ready(*token);
                Some(BoxEvent::Ready)
            }
            (Phase::Ready(_), BentoMsg::Output { data }) => Some(BoxEvent::Output(data)),
            _ => None,
        }
    }

    fn send(&self, api: &mut FunctionApi<'_>, msg: &BentoMsg) {
        if let Some(stream) = self.stream {
            api.stream_send(self.circ, stream, encode_frame(&msg.encode()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bento::function::ContainerRuntime;
    use bento::function::FnAction;
    use bento::manifest::Manifest;
    use sandbox::cgroup::ResourceLimits;
    use sandbox::container::Container;
    use sandbox::netrules::NetRules;
    use sandbox::seccomp::SeccompFilter;

    const BOX: NodeId = NodeId(9);
    const TOKEN: [u8; 32] = [7; 32];

    fn runtime() -> ContainerRuntime {
        ContainerRuntime {
            container: Container::new(
                1,
                ResourceLimits::default_function(),
                SeccompFilter::allow_all(),
                NetRules::deny_all(),
                1 << 20,
                16,
            ),
            fsp: None,
            image: ImageKind::Plain,
        }
    }

    fn spec() -> FunctionSpec {
        FunctionSpec {
            params: b"params".to_vec(),
            manifest: Manifest::minimal("remote"),
        }
    }

    fn container_ready(token: [u8; 32]) -> BentoMsg {
        BentoMsg::ContainerReady {
            container_id: 3,
            invocation_token: token,
            shutdown_token: [1; 32],
            server_hello: None,
        }
    }

    fn rejected() -> BentoMsg {
        BentoMsg::Rejected {
            reason: "no".into(),
        }
    }

    /// One input to a deployment, as its owner would feed it.
    enum Step {
        CircuitReady,
        StreamConnected,
        FromBox(BentoMsg),
        CircuitFailed,
        StreamEnded,
        Invoke(&'static [u8]),
        Abandon,
    }
    use Step::*;

    /// Deploy, feed `steps`, and return the messages the link sent to the
    /// box (in order), the events it reported and the token it holds.
    fn run(steps: Vec<Step>) -> (Vec<BentoMsg>, Vec<BoxEvent>, Option<[u8; 32]>) {
        let mut rt = runtime();
        let mut a = FunctionApi::for_testing(&mut rt, 1);
        let mut link = RemoteBox::deploy(&mut a, BOX, 5005, &spec());
        let FnAction::BuildCircuit { circ, exit_to } = a.actions()[0] else {
            panic!("deploy builds a circuit first: {:?}", a.actions());
        };
        assert_eq!(exit_to, Some((BOX, 5005)), "the circuit exits at the box");
        let mut stream = None;
        let mut events = Vec::new();
        for step in steps {
            match step {
                CircuitReady => {
                    assert!(!link.on_circuit_ready(&mut a, circ + 999), "foreign");
                    assert!(link.on_circuit_ready(&mut a, circ));
                    let Some(FnAction::OpenStream { stream: s, .. }) = a.actions().last() else {
                        panic!("circuit ready opens the stream");
                    };
                    stream = Some(*s);
                }
                StreamConnected => {
                    let s = stream.expect("opened");
                    assert!(!link.on_stream_connected(&mut a, circ, s + 1), "foreign");
                    assert!(link.on_stream_connected(&mut a, circ, s));
                }
                FromBox(msg) => {
                    let s = stream.expect("opened");
                    // Split mid-frame: the link reassembles.
                    let frame = encode_frame(&msg.encode());
                    let (head, tail) = frame.split_at(frame.len() / 2);
                    assert!(link.on_stream_data(&mut a, circ, s + 1, &frame).is_none());
                    assert_eq!(link.on_stream_data(&mut a, circ, s, head), Some(vec![]));
                    events.extend(link.on_stream_data(&mut a, circ, s, tail).expect("ours"));
                }
                CircuitFailed => {
                    assert_eq!(link.on_circuit_failed(circ + 999), None, "foreign");
                    events.extend(link.on_circuit_failed(circ));
                }
                StreamEnded => {
                    let s = stream.expect("opened");
                    assert_eq!(link.on_stream_ended(circ, s + 1), None, "foreign");
                    events.extend(link.on_stream_ended(circ, s));
                }
                Invoke(input) => link.invoke(&mut a, input.to_vec()),
                Abandon => link.abandon(),
            }
        }
        let mut assembler = FrameAssembler::new();
        for action in a.actions() {
            if let FnAction::StreamSend { circ: c, data, .. } = action {
                assert_eq!(*c, circ);
                assembler.push(data);
            }
        }
        let sent = assembler
            .drain_frames()
            .iter()
            .map(|f| BentoMsg::decode(f).expect("a Bento message"))
            .collect();
        assert_eq!(link.is_ready(), link.token().is_some());
        (sent, events, link.token())
    }

    fn request() -> BentoMsg {
        BentoMsg::RequestContainer {
            image: ImageKind::Plain,
            client_hello: None,
        }
    }

    fn upload() -> BentoMsg {
        BentoMsg::UploadFunction {
            container_id: 3,
            payload: spec().encode(),
            sealed: false,
        }
    }

    fn invoke(input: &[u8]) -> BentoMsg {
        BentoMsg::Invoke {
            token: TOKEN,
            input: input.to_vec(),
        }
    }

    fn failed(reason: &str) -> BoxEvent {
        BoxEvent::Failed(reason.into())
    }

    #[test]
    fn lifecycle_produces_expected_actions() {
        let connect = || vec![CircuitReady, StreamConnected];
        let ready = || {
            let mut s = connect();
            s.extend([
                FromBox(container_ready(TOKEN)),
                FromBox(BentoMsg::UploadOk { container_id: 3 }),
            ]);
            s
        };
        let with = |mut head: Vec<Step>, tail: Vec<Step>| {
            head.extend(tail);
            head
        };
        let ok = || {
            FromBox(BentoMsg::Output {
                data: b"OK".to_vec(),
            })
        };
        type Case = (&'static str, Vec<Step>, Vec<BentoMsg>, Vec<BoxEvent>, bool);
        let cases: Vec<Case> = vec![
            (
                "request, upload of the caller's spec, invoke with the issued token",
                with(ready(), vec![Invoke(b"in"), ok()]),
                vec![request(), upload(), invoke(b"in")],
                vec![BoxEvent::Ready, BoxEvent::Output(b"OK".to_vec())],
                true,
            ),
            (
                "the request waits for the stream",
                vec![Invoke(b"early"), CircuitReady],
                vec![],
                vec![],
                false,
            ),
            (
                "invoke before the container sends nothing",
                with(connect(), vec![Invoke(b"early")]),
                vec![request()],
                vec![],
                false,
            ),
            (
                "invoke before the upload is acknowledged sends nothing",
                with(
                    connect(),
                    vec![FromBox(container_ready(TOKEN)), Invoke(b"early")],
                ),
                vec![request(), upload()],
                vec![],
                false,
            ),
            (
                "rejected while awaiting the container",
                with(connect(), vec![FromBox(rejected()), Invoke(b"x")]),
                vec![request()],
                vec![failed("no")],
                false,
            ),
            (
                "rejected while awaiting the upload",
                with(
                    connect(),
                    vec![FromBox(container_ready(TOKEN)), FromBox(rejected())],
                ),
                vec![request(), upload()],
                vec![failed("no")],
                false,
            ),
            (
                "rejected when ready; a failure is reported once",
                with(
                    ready(),
                    vec![FromBox(rejected()), FromBox(rejected()), Invoke(b"x"), ok()],
                ),
                vec![request(), upload()],
                vec![BoxEvent::Ready, failed("no")],
                false,
            ),
            (
                "an upload acknowledgement before the container is ignored",
                with(
                    connect(),
                    vec![FromBox(BentoMsg::UploadOk { container_id: 3 })],
                ),
                vec![request()],
                vec![],
                false,
            ),
            (
                "a second container, and output before ready, are ignored",
                with(
                    connect(),
                    vec![
                        FromBox(container_ready(TOKEN)),
                        ok(),
                        FromBox(container_ready([8; 32])),
                        FromBox(BentoMsg::UploadOk { container_id: 3 }),
                        FromBox(container_ready([8; 32])),
                        Invoke(b"in"),
                    ],
                ),
                vec![request(), upload(), invoke(b"in")],
                vec![BoxEvent::Ready],
                true,
            ),
            (
                "the circuit fails before the stream opens",
                vec![CircuitFailed, Invoke(b"x")],
                vec![],
                vec![failed("circuit failed")],
                false,
            ),
            (
                "the stream ends before the upload is acknowledged",
                with(
                    connect(),
                    vec![FromBox(container_ready(TOKEN)), StreamEnded],
                ),
                vec![request(), upload()],
                vec![failed("stream ended")],
                false,
            ),
            (
                "the circuit fails when ready",
                with(ready(), vec![CircuitFailed, CircuitFailed, StreamEnded]),
                vec![request(), upload()],
                vec![BoxEvent::Ready, failed("circuit failed")],
                false,
            ),
            (
                "abandoned when ready: nothing more is sent or reported",
                with(ready(), vec![Abandon, Invoke(b"x"), ok(), CircuitFailed]),
                vec![request(), upload()],
                vec![BoxEvent::Ready],
                false,
            ),
        ];
        for (name, steps, sent, events, holds_token) in cases {
            let (got_sent, got_events, token) = run(steps);
            assert_eq!(got_sent, sent, "{name}: sent");
            assert_eq!(got_events, events, "{name}: events");
            assert_eq!(token, holds_token.then_some(TOKEN), "{name}: token");
        }
    }
}
