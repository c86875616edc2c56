//! The Bento wire protocol: frames exchanged between a Bento client and a
//! Bento server over a Tor stream to the box's "localhost" port.

// Every frame a box or client decodes comes off a Tor stream: no panics
// here.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::manifest::Manifest;
use simnet::wire::{Reader, WireError, Writer};

/// Which standard container image a function targets (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImageKind {
    /// The Python container: plain sandbox, no enclave. For functions that
    /// process no sensitive data.
    Plain,
    /// The Python-OP-SGX container: the function (and an optional dedicated
    /// onion proxy) execute inside a conclave with FS Protect.
    Sgx,
}

impl ImageKind {
    /// Stable wire id.
    pub fn id(self) -> u8 {
        match self {
            ImageKind::Plain => 0,
            ImageKind::Sgx => 1,
        }
    }

    /// Parse a wire id.
    pub fn from_id(id: u8) -> Option<ImageKind> {
        match id {
            0 => Some(ImageKind::Plain),
            1 => Some(ImageKind::Sgx),
            _ => None,
        }
    }
}

/// What a client ships when uploading: parameters plus the manifest. (In
/// the paper this is Python source plus a manifest; the registry name in
/// the manifest stands in for the source — see DESIGN.md.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSpec {
    /// Opaque constructor parameters for the function.
    pub params: Vec<u8>,
    /// The permission manifest (also names the function).
    pub manifest: Manifest,
}

impl FunctionSpec {
    /// Encode.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.params);
        w.bytes(&self.manifest.encode());
        w.into_bytes()
    }

    /// Decode.
    pub fn decode(buf: &[u8]) -> Result<FunctionSpec, WireError> {
        let mut r = Reader::new(buf);
        let params = r.bytes_vec("params")?;
        let manifest = Manifest::decode(r.bytes("manifest")?)?;
        r.finish()?;
        Ok(FunctionSpec { params, manifest })
    }
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BentoMsg {
    /// Client: request the middlebox node policy.
    GetPolicy,
    /// Server: the encoded [`crate::policy::MiddleboxPolicy`].
    Policy(Vec<u8>),
    /// Client: spawn a container. For the SGX image, `client_hello` opens
    /// the attested channel.
    RequestContainer {
        /// Image to spawn.
        image: ImageKind,
        /// Attested-channel hello (SGX image only).
        client_hello: Option<Vec<u8>>,
    },
    /// Server: container spawned; capabilities follow.
    ContainerReady {
        /// Container id (names the container in uploads).
        container_id: u64,
        /// Required on every invocation.
        invocation_token: [u8; 32],
        /// Required to terminate.
        shutdown_token: [u8; 32],
        /// Attested-channel reply with stapled IAS report (SGX image only).
        server_hello: Option<Vec<u8>>,
    },
    /// Client: upload the function spec. `sealed` means the payload is
    /// encrypted under the attested channel (SGX image).
    UploadFunction {
        /// Target container.
        container_id: u64,
        /// [`FunctionSpec`] bytes, possibly channel-sealed.
        payload: Vec<u8>,
        /// Whether `payload` is channel-sealed.
        sealed: bool,
    },
    /// Server: upload accepted; the function is installed.
    UploadOk {
        /// The container now running the function.
        container_id: u64,
    },
    /// Server: upload (or other request) refused.
    Rejected {
        /// Human-readable reason (policy mismatch, bad token, ...).
        reason: String,
    },
    /// Client: invoke the function with `input`.
    Invoke {
        /// Invocation token.
        token: [u8; 32],
        /// Input delivered to the function.
        input: Vec<u8>,
    },
    /// Server: output bytes from the function (may repeat).
    Output {
        /// Output data.
        data: Vec<u8>,
    },
    /// Server: the function signaled completion of this invocation.
    OutputEnd,
    /// Client: terminate the container.
    Shutdown {
        /// Shutdown token.
        token: [u8; 32],
    },
    /// Server: container terminated.
    ShutdownAck,
}

impl BentoMsg {
    /// Encode to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            BentoMsg::GetPolicy => {
                w.u8(1);
            }
            BentoMsg::Policy(p) => {
                w.u8(2);
                w.bytes(p);
            }
            BentoMsg::RequestContainer {
                image,
                client_hello,
            } => {
                w.u8(3);
                w.u8(image.id());
                match client_hello {
                    Some(h) => {
                        w.u8(1);
                        w.bytes(h);
                    }
                    None => {
                        w.u8(0);
                    }
                }
            }
            BentoMsg::ContainerReady {
                container_id,
                invocation_token,
                shutdown_token,
                server_hello,
            } => {
                w.u8(4);
                w.u64(*container_id);
                w.raw(invocation_token);
                w.raw(shutdown_token);
                match server_hello {
                    Some(h) => {
                        w.u8(1);
                        w.bytes(h);
                    }
                    None => {
                        w.u8(0);
                    }
                }
            }
            BentoMsg::UploadFunction {
                container_id,
                payload,
                sealed,
            } => {
                w.u8(5);
                w.u64(*container_id);
                w.bool(*sealed);
                w.bytes(payload);
            }
            BentoMsg::UploadOk { container_id } => {
                w.u8(6);
                w.u64(*container_id);
            }
            BentoMsg::Rejected { reason } => {
                w.u8(7);
                w.str(reason);
            }
            BentoMsg::Invoke { token, input } => {
                w.u8(8);
                w.raw(token);
                w.bytes(input);
            }
            BentoMsg::Output { data } => {
                w.u8(9);
                w.bytes(data);
            }
            BentoMsg::OutputEnd => {
                w.u8(10);
            }
            BentoMsg::Shutdown { token } => {
                w.u8(11);
                w.raw(token);
            }
            BentoMsg::ShutdownAck => {
                w.u8(12);
            }
        }
        w.into_bytes()
    }

    /// Decode a frame body.
    pub fn decode(buf: &[u8]) -> Result<BentoMsg, WireError> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let msg = match tag {
            1 => BentoMsg::GetPolicy,
            2 => BentoMsg::Policy(r.bytes_vec("policy")?),
            3 => {
                let image = ImageKind::from_id(r.u8()?).ok_or(WireError::BadDiscriminant {
                    what: "image kind",
                    value: 255,
                })?;
                let client_hello = match r.u8()? {
                    0 => None,
                    1 => Some(r.bytes_vec("client hello")?),
                    v => {
                        return Err(WireError::BadDiscriminant {
                            what: "hello flag",
                            value: v as u64,
                        })
                    }
                };
                BentoMsg::RequestContainer {
                    image,
                    client_hello,
                }
            }
            4 => {
                let container_id = r.u64()?;
                let invocation_token = r.array("invocation token")?;
                let shutdown_token = r.array("shutdown token")?;
                let server_hello = match r.u8()? {
                    0 => None,
                    1 => Some(r.bytes_vec("server hello")?),
                    v => {
                        return Err(WireError::BadDiscriminant {
                            what: "hello flag",
                            value: v as u64,
                        })
                    }
                };
                BentoMsg::ContainerReady {
                    container_id,
                    invocation_token,
                    shutdown_token,
                    server_hello,
                }
            }
            5 => BentoMsg::UploadFunction {
                container_id: r.u64()?,
                sealed: r.bool()?,
                payload: r.bytes_vec("payload")?,
            },
            6 => BentoMsg::UploadOk {
                container_id: r.u64()?,
            },
            7 => BentoMsg::Rejected {
                reason: r.str("reason")?,
            },
            8 => BentoMsg::Invoke {
                token: r.array("token")?,
                input: r.bytes_vec("input")?,
            },
            9 => BentoMsg::Output {
                data: r.bytes_vec("output")?,
            },
            10 => BentoMsg::OutputEnd,
            11 => BentoMsg::Shutdown {
                token: r.array("token")?,
            },
            12 => BentoMsg::ShutdownAck,
            v => {
                return Err(WireError::BadDiscriminant {
                    what: "bento message",
                    value: v as u64,
                })
            }
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_messages_roundtrip() {
        let msgs = vec![
            BentoMsg::GetPolicy,
            BentoMsg::Policy(vec![1, 2, 3]),
            BentoMsg::RequestContainer {
                image: ImageKind::Plain,
                client_hello: None,
            },
            BentoMsg::RequestContainer {
                image: ImageKind::Sgx,
                client_hello: Some(vec![9; 64]),
            },
            BentoMsg::ContainerReady {
                container_id: 7,
                invocation_token: [1; 32],
                shutdown_token: [2; 32],
                server_hello: Some(vec![3; 100]),
            },
            BentoMsg::UploadFunction {
                container_id: 7,
                payload: vec![4; 50],
                sealed: true,
            },
            BentoMsg::UploadOk { container_id: 7 },
            BentoMsg::Rejected {
                reason: "policy".into(),
            },
            BentoMsg::Invoke {
                token: [5; 32],
                input: b"https://example.com".to_vec(),
            },
            BentoMsg::Output {
                data: vec![6; 1000],
            },
            BentoMsg::OutputEnd,
            BentoMsg::Shutdown { token: [7; 32] },
            BentoMsg::ShutdownAck,
        ];
        for m in msgs {
            let back = BentoMsg::decode(&m.encode()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(BentoMsg::decode(&[]).is_err());
        assert!(BentoMsg::decode(&[99]).is_err());
        let mut ok = BentoMsg::OutputEnd.encode();
        ok.push(1);
        assert!(BentoMsg::decode(&ok).is_err());
        // Truncated token.
        let mut inv = BentoMsg::Invoke {
            token: [0; 32],
            input: vec![],
        }
        .encode();
        inv.truncate(20);
        assert!(BentoMsg::decode(&inv).is_err());
    }

    #[test]
    fn function_spec_roundtrip() {
        let spec = FunctionSpec {
            params: b"url=https://x|pad=1048576".to_vec(),
            manifest: Manifest::minimal("browser"),
        };
        let back = FunctionSpec::decode(&spec.encode()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn image_ids_roundtrip() {
        for i in [ImageKind::Plain, ImageKind::Sgx] {
            assert_eq!(ImageKind::from_id(i.id()), Some(i));
        }
        assert_eq!(ImageKind::from_id(7), None);
    }
}
