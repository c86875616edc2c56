//! The function programming model.
//!
//! The paper's functions are "essentially arbitrary Python ... like small
//! servlets running on Tor relays" (§5.1), constrained not in what they
//! compute but in the *side effects* they can have. Here a function is a
//! Rust type implementing [`Function`]: an event-driven servlet whose only
//! channel to the world is [`FunctionApi`] — file I/O through the
//! container (or FS Protect), network I/O through the exit-policy rules,
//! and Tor control through the Stem firewall. Uploading "code" is modeled
//! by a [`FunctionRegistry`] lookup: the client ships a function *name*
//! plus parameters plus a manifest, standing in for shipping Python source
//! (see DESIGN.md for why this preserves the paper's safety story).

// Every function call runs through here: a hostile function must not be
// able to panic the box.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::protocol::ImageKind;
use crate::stem::HandleTable;
use conclave::fsprotect::FsProtect;
use rand::rngs::StdRng;
use sandbox::container::{Container, ContainerError, Syscall, SyscallOutcome};
use sandbox::seccomp::SyscallClass;
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::BTreeMap;

/// A target for a function-opened Tor stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnStreamTarget {
    /// An external host:port via the circuit's exit.
    Node(NodeId, u16),
    /// The hidden service at the end of a rendezvous circuit.
    Hs(u16),
}

/// Side effects a function requests; the Bento box applies them after the
/// callback returns.
#[derive(Debug, Clone)]
pub enum FnAction {
    /// Emit output to the invoking client.
    Output(Vec<u8>),
    /// Signal end of this invocation's output.
    OutputEnd,
    /// Open a direct (exit-policy-gated) connection.
    Connect {
        /// Function-local connection handle.
        conn: u64,
        /// Destination.
        host: NodeId,
        /// Destination port.
        port: u16,
    },
    /// Send on a direct connection.
    NetSend {
        /// Connection handle.
        conn: u64,
        /// Bytes.
        data: Vec<u8>,
    },
    /// Close a direct connection.
    NetClose {
        /// Connection handle.
        conn: u64,
    },
    /// Schedule a timer callback.
    SetTimer {
        /// Delay.
        delay: SimDuration,
        /// Tag passed back to `on_timer`.
        tag: u64,
    },
    /// Terminate this function's container.
    Terminate,
    /// Stem: build a circuit (optionally exiting to a destination).
    BuildCircuit {
        /// Function-local circuit handle.
        circ: u64,
        /// Exit requirement.
        exit_to: Option<(NodeId, u16)>,
    },
    /// Stem: connect to an onion service.
    ConnectOnion {
        /// Function-local circuit handle (the rendezvous circuit).
        circ: u64,
        /// The onion address bytes.
        addr: [u8; 32],
    },
    /// Stem: open a stream on an owned circuit.
    OpenStream {
        /// Circuit handle.
        circ: u64,
        /// Function-local stream handle.
        stream: u64,
        /// Target.
        target: FnStreamTarget,
    },
    /// Stem: send on an owned stream.
    StreamSend {
        /// Circuit handle.
        circ: u64,
        /// Stream handle.
        stream: u64,
        /// Bytes.
        data: Vec<u8>,
    },
    /// Stem: close an owned stream.
    StreamClose {
        /// Circuit handle.
        circ: u64,
        /// Stream handle.
        stream: u64,
    },
    /// Stem: accept/refuse an incoming stream on an owned circuit.
    RespondIncoming {
        /// Circuit handle.
        circ: u64,
        /// Stream handle (from `on_incoming_stream`).
        stream: u64,
        /// Accept?
        accept: bool,
    },
    /// Stem: emit a cover (DROP) cell on an owned circuit.
    SendDrop {
        /// Circuit handle.
        circ: u64,
    },
    /// Stem: launch a hidden service (dedicated onion proxy).
    CreateHs {
        /// Function-local service handle.
        hs: u64,
        /// Service key seed (replicas share it).
        seed: [u8; 32],
        /// Number of introduction points (0 = replica, publishes nothing).
        n_intro: u32,
        /// Answer introductions automatically.
        auto_rendezvous: bool,
    },
    /// Stem: hand a raw INTRODUCE2 to an owned hidden service (the
    /// LoadBalancer replica path).
    HsHandleIntro {
        /// Service handle.
        hs: u64,
        /// Raw introduction payload.
        blob: Vec<u8>,
    },
}

/// The mediated API a function sees during a callback. All side effects
/// are *actions* applied by the box afterward; all resource use is charged
/// to the container immediately.
pub struct FunctionApi<'a> {
    pub(crate) runtime: &'a mut ContainerRuntime,
    pub(crate) actions: Vec<FnAction>,
    pub(crate) now: SimTime,
    pub(crate) rng: StdRng,
    pub(crate) next_handle: u64,
    /// What every function on the box holds, and which container this
    /// function runs in: a new handle skips the container's own.
    pub(crate) held: &'a HandleTable,
    pub(crate) container: u64,
}

/// The handles of a function run outside a box: none.
static NO_HANDLES: HandleTable = HandleTable::new();

impl<'a> FunctionApi<'a> {
    /// Construct an API outside a Bento server — for unit-testing functions.
    pub fn for_testing(runtime: &'a mut ContainerRuntime, seed: u64) -> FunctionApi<'a> {
        FunctionApi {
            runtime,
            actions: Vec::new(),
            now: SimTime::ZERO,
            rng: rand::SeedableRng::seed_from_u64(seed),
            next_handle: 0,
            held: &NO_HANDLES,
            container: 0,
        }
    }

    /// The actions queued so far (testing/inspection).
    pub fn actions(&self) -> &[FnAction] {
        &self.actions
    }

    /// Drain the queued actions (testing).
    pub fn take_actions(&mut self) -> Vec<FnAction> {
        std::mem::take(&mut self.actions)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic per-callback RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The next value of the counter that the container does not already
    /// hold: the counter starts at a random point each callback, and the
    /// box's own draws for incoming streams and rendezvous circuits land
    /// anywhere.
    fn handle(&mut self) -> u64 {
        loop {
            self.next_handle += 1;
            if !self.held.holds(self.container, self.next_handle) {
                return self.next_handle;
            }
        }
    }

    /// Emit output bytes to the invoking client.
    pub fn output(&mut self, data: Vec<u8>) {
        self.actions.push(FnAction::Output(data));
    }

    /// Mark this invocation's output complete.
    pub fn output_end(&mut self) {
        self.actions.push(FnAction::OutputEnd);
    }

    /// Charge CPU time (long computations must account for themselves).
    pub fn cpu(&mut self, ms: u64) -> Result<(), ContainerError> {
        self.runtime.container.charge_cpu(ms)
    }

    /// Write a file (FS Protect in the SGX image — the operator sees only
    /// ciphertext).
    pub fn fs_write(&mut self, path: &str, data: &[u8]) -> Result<(), ContainerError> {
        self.runtime.fs_write(path, data)
    }

    /// Read a file.
    pub fn fs_read(&mut self, path: &str) -> Result<Vec<u8>, ContainerError> {
        self.runtime.fs_read(path)
    }

    /// Delete a file.
    pub fn fs_unlink(&mut self, path: &str) -> Result<(), ContainerError> {
        self.runtime.fs_unlink(path)
    }

    /// Whether a file exists.
    pub fn fs_exists(&mut self, path: &str) -> bool {
        self.runtime.fs_exists(path)
    }

    /// Open a direct connection (checked against the container's network
    /// rules — the relay's exit policy).
    pub fn connect(&mut self, host: NodeId, port: u16) -> Result<u64, ContainerError> {
        // Any success of the syscall is the permission.
        self.runtime
            .container
            .syscall(Syscall::Connect { host: host.0, port })?;
        let conn = self.handle();
        self.actions.push(FnAction::Connect { conn, host, port });
        Ok(conn)
    }

    /// Send on a direct connection.
    pub fn net_send(&mut self, conn: u64, data: Vec<u8>) {
        self.actions.push(FnAction::NetSend { conn, data });
    }

    /// Close a direct connection.
    pub fn net_close(&mut self, conn: u64) {
        self.actions.push(FnAction::NetClose { conn });
    }

    /// Schedule `on_timer(tag)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.actions.push(FnAction::SetTimer { delay, tag });
    }

    /// Terminate this function.
    pub fn terminate(&mut self) {
        self.actions.push(FnAction::Terminate);
    }

    /// Stem: build a circuit; `on_circuit_ready` fires with this handle.
    pub fn build_circuit(&mut self, exit_to: Option<(NodeId, u16)>) -> u64 {
        let circ = self.handle();
        self.actions.push(FnAction::BuildCircuit { circ, exit_to });
        circ
    }

    /// Stem: connect to an onion service; `on_circuit_ready` fires when the
    /// rendezvous completes.
    pub fn connect_onion(&mut self, addr: [u8; 32]) -> u64 {
        let circ = self.handle();
        self.actions.push(FnAction::ConnectOnion { circ, addr });
        circ
    }

    /// Stem: open a stream on an owned circuit.
    pub fn open_stream(&mut self, circ: u64, target: FnStreamTarget) -> u64 {
        let stream = self.handle();
        self.actions.push(FnAction::OpenStream {
            circ,
            stream,
            target,
        });
        stream
    }

    /// Stem: send on an owned stream.
    pub fn stream_send(&mut self, circ: u64, stream: u64, data: Vec<u8>) {
        self.actions
            .push(FnAction::StreamSend { circ, stream, data });
    }

    /// Stem: close an owned stream.
    pub fn stream_close(&mut self, circ: u64, stream: u64) {
        self.actions.push(FnAction::StreamClose { circ, stream });
    }

    /// Stem: accept or refuse an incoming stream.
    pub fn respond_incoming(&mut self, circ: u64, stream: u64, accept: bool) {
        self.actions.push(FnAction::RespondIncoming {
            circ,
            stream,
            accept,
        });
    }

    /// Stem: send one cover cell.
    pub fn send_drop(&mut self, circ: u64) {
        self.actions.push(FnAction::SendDrop { circ });
    }

    /// Stem: launch a hidden service.
    pub fn create_hs(&mut self, seed: [u8; 32], n_intro: u32, auto_rendezvous: bool) -> u64 {
        let hs = self.handle();
        self.actions.push(FnAction::CreateHs {
            hs,
            seed,
            n_intro,
            auto_rendezvous,
        });
        hs
    }

    /// Stem: process a forwarded introduction (replica path).
    pub fn hs_handle_intro(&mut self, hs: u64, blob: Vec<u8>) {
        self.actions.push(FnAction::HsHandleIntro { hs, blob });
    }
}

/// A Bento function: an event-driven servlet.
///
/// Every callback receives the mediated [`FunctionApi`]; the default
/// implementations ignore events a function does not care about, so simple
/// functions are only a few lines — mirroring the paper's "about four lines
/// of Python" Browser.
///
/// Functions must be [`Send`], like the simulator node that hosts them.
/// Functions are never called concurrently.
pub trait Function: Send {
    /// The function was installed (once, after upload).
    fn on_install(&mut self, _api: &mut FunctionApi<'_>) {}
    /// The client invoked the function with `input`.
    fn on_invoke(&mut self, api: &mut FunctionApi<'_>, input: Vec<u8>);
    /// A direct connection opened.
    fn on_net_connected(&mut self, _api: &mut FunctionApi<'_>, _conn: u64) {}
    /// Data on a direct connection.
    fn on_net_data(&mut self, _api: &mut FunctionApi<'_>, _conn: u64, _data: Vec<u8>) {}
    /// A direct connection closed.
    fn on_net_closed(&mut self, _api: &mut FunctionApi<'_>, _conn: u64) {}
    /// An owned circuit is ready (also fired when `connect_onion`
    /// completes its rendezvous).
    fn on_circuit_ready(&mut self, _api: &mut FunctionApi<'_>, _circ: u64) {}
    /// An owned circuit failed or closed.
    fn on_circuit_failed(&mut self, _api: &mut FunctionApi<'_>, _circ: u64) {}
    /// An owned stream connected.
    fn on_stream_connected(&mut self, _api: &mut FunctionApi<'_>, _circ: u64, _stream: u64) {}
    /// Data on an owned stream.
    fn on_stream_data(
        &mut self,
        _api: &mut FunctionApi<'_>,
        _circ: u64,
        _stream: u64,
        _data: Vec<u8>,
    ) {
    }
    /// An owned stream ended.
    fn on_stream_ended(&mut self, _api: &mut FunctionApi<'_>, _circ: u64, _stream: u64) {}
    /// A peer opened a stream toward an owned rendezvous circuit.
    fn on_incoming_stream(
        &mut self,
        _api: &mut FunctionApi<'_>,
        _circ: u64,
        _stream: u64,
        _port: u16,
    ) {
    }
    /// An owned hidden service published its descriptor.
    fn on_hs_published(&mut self, _api: &mut FunctionApi<'_>, _hs: u64) {}
    /// An owned hidden service received an introduction it did not answer
    /// (auto_rendezvous off).
    fn on_hs_introduction(&mut self, _api: &mut FunctionApi<'_>, _hs: u64, _blob: Vec<u8>) {}
    /// An owned hidden service joined a client rendezvous circuit; the
    /// circuit is owned by this function under handle `circ`.
    fn on_hs_client_circuit(&mut self, _api: &mut FunctionApi<'_>, _hs: u64, _circ: u64) {}
    /// A timer fired.
    fn on_timer(&mut self, _api: &mut FunctionApi<'_>, _tag: u64) {}
}

/// Constructs a function from uploaded parameters.
pub type Constructor = fn(&[u8]) -> Box<dyn Function>;

/// The registry standing in for "shipping Python source": maps function
/// names to constructors. Operators provide the images; clients provide the
/// function (name + parameters) — §5.3's split between container images and
/// client-provided functions.
#[derive(Default)]
pub struct FunctionRegistry {
    map: BTreeMap<String, Constructor>,
}

impl FunctionRegistry {
    /// Empty registry.
    pub fn new() -> FunctionRegistry {
        FunctionRegistry::default()
    }

    /// Register a constructor under `name`.
    pub fn register(&mut self, name: &str, ctor: Constructor) -> &mut Self {
        self.map.insert(name.to_string(), ctor);
        self
    }

    /// Instantiate `name` with `params`.
    pub fn instantiate(&self, name: &str, params: &[u8]) -> Option<Box<dyn Function>> {
        self.map.get(name).map(|ctor| ctor(params))
    }

    /// Registered names (sorted — the map is ordered).
    pub fn names(&self) -> Vec<&str> {
        self.map.keys().map(|s| s.as_str()).collect()
    }
}

/// The per-function execution environment: the sandbox container plus, for
/// the SGX image, the conclave's FS Protect.
pub struct ContainerRuntime {
    /// The sandbox container.
    pub container: Container,
    /// FS Protect (SGX image only).
    pub fsp: Option<FsProtect>,
    /// Which image this is.
    pub image: ImageKind,
}

impl ContainerRuntime {
    fn fs_write(&mut self, path: &str, data: &[u8]) -> Result<(), ContainerError> {
        match &mut self.fsp {
            Some(fsp) => {
                self.container.check_class(SyscallClass::Write)?;
                self.container.charge_disk(data.len() as u64)?;
                fsp.write(path, data);
                Ok(())
            }
            None => self
                .container
                .syscall(Syscall::Write {
                    path: path.to_string(),
                    data: data.to_vec(),
                })
                .map(|_| ()),
        }
    }

    fn fs_read(&mut self, path: &str) -> Result<Vec<u8>, ContainerError> {
        let data = match &mut self.fsp {
            Some(fsp) => {
                self.container.check_class(SyscallClass::Read)?;
                fsp.read(path)
            }
            None => match self.container.syscall(Syscall::Read {
                path: path.to_string(),
            })? {
                SyscallOutcome::Data(d) => Some(d),
                _ => None,
            },
        };
        data.ok_or_else(|| ContainerError::Fs(sandbox::fs::FsError::NotFound(path.to_string())))
    }

    fn fs_unlink(&mut self, path: &str) -> Result<(), ContainerError> {
        match &mut self.fsp {
            Some(fsp) => {
                self.container.check_class(SyscallClass::Unlink)?;
                if fsp.unlink(path) {
                    Ok(())
                } else {
                    Err(ContainerError::Fs(sandbox::fs::FsError::NotFound(
                        path.to_string(),
                    )))
                }
            }
            None => self
                .container
                .syscall(Syscall::Unlink {
                    path: path.to_string(),
                })
                .map(|_| ()),
        }
    }

    fn fs_exists(&mut self, path: &str) -> bool {
        match &self.fsp {
            Some(fsp) => fsp.exists(path),
            None => self.container.fs().exists(path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sandbox::cgroup::ResourceLimits;
    use sandbox::netrules::{NetRule, NetRules};
    use sandbox::seccomp::SeccompFilter;

    fn runtime(sgx: bool) -> ContainerRuntime {
        let mut rng = StdRng::seed_from_u64(9);
        ContainerRuntime {
            container: Container::new(
                1,
                ResourceLimits::default_function(),
                SeccompFilter::allow_all(),
                NetRules::from_rules(vec![NetRule {
                    accept: true,
                    host: None,
                    ports: (80, 443),
                }]),
                1 << 20,
                64,
            ),
            fsp: if sgx {
                Some(FsProtect::launch(&mut rng))
            } else {
                None
            },
            image: if sgx {
                ImageKind::Sgx
            } else {
                ImageKind::Plain
            },
        }
    }

    fn api(rt: &mut ContainerRuntime) -> FunctionApi<'_> {
        FunctionApi::for_testing(rt, 1)
    }

    #[test]
    fn plain_fs_roundtrip() {
        let mut rt = runtime(false);
        let mut a = api(&mut rt);
        a.fs_write("out", b"data").unwrap();
        assert_eq!(a.fs_read("out").unwrap(), b"data");
        assert!(a.fs_exists("out"));
        a.fs_unlink("out").unwrap();
        assert!(!a.fs_exists("out"));
    }

    #[test]
    fn sgx_fs_roundtrip_is_encrypted_at_rest() {
        let mut rt = runtime(true);
        {
            let mut a = api(&mut rt);
            a.fs_write("secret", b"plaintext payload").unwrap();
            assert_eq!(a.fs_read("secret").unwrap(), b"plaintext payload");
        }
        // The operator inspects the backing store: ciphertext only.
        let fsp = rt.fsp.as_ref().unwrap();
        for (_, ct) in fsp.operator_view() {
            assert!(!ct.windows(9).any(|w| w == b"plaintext"));
        }
    }

    #[test]
    fn connect_gated_by_net_rules() {
        let mut rt = runtime(false);
        let mut a = api(&mut rt);
        assert!(a.connect(NodeId(5), 80).is_ok());
        assert!(matches!(
            a.connect(NodeId(5), 22),
            Err(ContainerError::NetDenied { .. })
        ));
        // One Connect action was queued for the permitted attempt only.
        let connects = a
            .actions
            .iter()
            .filter(|x| matches!(x, FnAction::Connect { .. }))
            .count();
        assert_eq!(connects, 1);
    }

    #[test]
    fn handles_are_unique() {
        let mut rt = runtime(false);
        let mut a = api(&mut rt);
        let c1 = a.build_circuit(None);
        let c2 = a.build_circuit(None);
        let s = a.open_stream(c1, FnStreamTarget::Hs(443));
        assert!(c1 != c2 && c2 != s && c1 != s);
    }

    #[test]
    fn registry_instantiates_by_name() {
        struct Echo;
        impl Function for Echo {
            fn on_invoke(&mut self, api: &mut FunctionApi<'_>, input: Vec<u8>) {
                api.output(input);
                api.output_end();
            }
        }
        fn make_echo(_params: &[u8]) -> Box<dyn Function> {
            Box::new(Echo)
        }
        let mut reg = FunctionRegistry::new();
        reg.register("echo", make_echo);
        assert_eq!(reg.names(), vec!["echo"]);
        let mut f = reg.instantiate("echo", b"").unwrap();
        let mut rt = runtime(false);
        let mut a = api(&mut rt);
        f.on_invoke(&mut a, b"ping".to_vec());
        assert_eq!(a.actions.len(), 2);
        assert!(matches!(&a.actions[0], FnAction::Output(d) if d == b"ping"));
        assert!(reg.instantiate("missing", b"").is_none());
    }

    #[test]
    fn seccomp_denial_blocks_fs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut rt = ContainerRuntime {
            container: Container::new(
                2,
                ResourceLimits::default_function(),
                SeccompFilter::deny_all(),
                NetRules::deny_all(),
                1 << 20,
                4,
            ),
            fsp: Some(FsProtect::launch(&mut rng)),
            image: ImageKind::Sgx,
        };
        let mut a = api(&mut rt);
        assert!(matches!(
            a.fs_write("x", b"y"),
            Err(ContainerError::SeccompDenied(SyscallClass::Write))
        ));
    }
}
