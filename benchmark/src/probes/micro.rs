//! Unit-cost probes: each times one public function of one crate in
//! isolation, on inputs shaped like the workloads'. They answer "did this
//! layer get cheaper?" without the rest of the stack in the way; the
//! README's interaction table says which end-to-end number each should move.

use super::time_ns;
use bento::function::{ContainerRuntime, FnAction, Function, FunctionApi};
use bento::protocol::{BentoMsg, ImageKind};
use bento::testnet::{enclave_measurement, ENCLAVE_IMAGE};
use bento_functions::browser::{self, BrowseRequest, Browser};
use bento_functions::compress::compress;
use bento_functions::web::SiteModel;
use conclave::attest::Ias;
use conclave::channel::AttestedChannel;
use conclave::enclave::Enclave;
use conclave::epc::Epc;
use conclave::fsprotect::FsProtect;
use onion_crypto::aead::{open_in_place, seal_in_place, AeadKey};
use onion_crypto::chacha20::ChaCha20;
use onion_crypto::hashsig::MerkleSigner;
use onion_crypto::sha256::Sha256;
use onion_crypto::x25519::{x25519, StaticSecret};
use onion_crypto::{client_begin, client_finish, server_respond};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sandbox::cgroup::ResourceLimits;
use sandbox::container::Container;
use sandbox::fs::MemFs;
use sandbox::netrules::{NetRule, NetRules};
use sandbox::seccomp::{SeccompFilter, SyscallClass};
use simnet::NodeId;
use std::hint::black_box;
use std::time::Instant;
use tor_net::cell::{Cell, CellCmd, PAYLOAD_LEN};
use tor_net::ports::HTTP_PORT;
use tor_net::stream_frame::encode_frame;

const KIB16: usize = 16 * 1024;

/// The two symmetric operations every relayed cell pays per layer. The
/// attribution shares are built from these, so every Tor workload's traced
/// pass measures them.
pub fn cell_crypto(out: &mut Vec<(&'static str, f64)>) {
    // One relay layer's keystream over one cell payload.
    let mut cipher = ChaCha20::new(&[7; 32], &[9; 12]);
    let mut cell = [0x5Au8; PAYLOAD_LEN];
    out.push((
        "onion-crypto.keystream_ns_per_cell",
        time_ns(|| cipher.apply(black_box(&mut cell))),
    ));

    // The running-digest step of seal/unseal: absorb the cell as the three
    // slices the relay crypto feeds, then peek the digest.
    let mut digest = Sha256::new();
    digest.update(&[3; 32]);
    out.push((
        "onion-crypto.digest_ns_per_cell",
        time_ns(|| {
            digest.update(&cell[..5]).update(&[0; 4]).update(&cell[9..]);
            black_box(digest.clone_finalize());
        }),
    ));
}

/// `onion-crypto`'s control-plane unit costs: handshakes, signatures and the
/// AEAD under `conclave`'s channel.
pub fn handshakes(out: &mut Vec<(&'static str, f64)>) {
    let mut rng = StdRng::seed_from_u64(11);
    let identity = StaticSecret::random(&mut rng);
    let node_id = [0x42u8; 20];
    out.push((
        "onion-crypto.ntor_handshake_us",
        time_ns(|| {
            let (state, skin) = client_begin(&mut rng, node_id, identity.public_key());
            let (reply, _) =
                server_respond(&mut rng, node_id, &identity, &skin).expect("well-formed onionskin");
            black_box(client_finish(&state, &reply).expect("honest reply"));
        }) / 1e3,
    ));

    let point = identity.public_key();
    out.push((
        "onion-crypto.x25519_us",
        time_ns(|| {
            black_box(x25519(black_box([0x55; 32]), *point.as_bytes()));
        }) / 1e3,
    ));

    // Height 4 is the directory authority's tree (16 signatures).
    out.push((
        "onion-crypto.hashsig_keygen_ms",
        time_ns(|| {
            black_box(MerkleSigner::generate(black_box([0xA0; 32]), 4));
        }) / 1e6,
    ));
    // Signing spends a leaf and the signer cannot be cloned, so one tree of
    // the attestation service's height serves a fixed number of samples.
    let mut signer = MerkleSigner::generate([0xA1; 32], 6);
    let msg = [0xC3u8; 64];
    let mut sign_ns = Vec::new();
    let mut last = None;
    while signer.remaining() > 0 {
        let t = Instant::now();
        last = signer.sign(black_box(&msg));
        sign_ns.push(t.elapsed().as_nanos() as f64);
    }
    out.push((
        "onion-crypto.hashsig_sign_us",
        crate::stats::floor(&sign_ns) / 1e3,
    ));
    let (key, sig) = (signer.verify_key(), last.expect("the tree had leaves"));
    out.push((
        "onion-crypto.hashsig_verify_us",
        time_ns(|| {
            black_box(key.verify(black_box(&msg), &sig));
        }) / 1e3,
    ));

    let aead = AeadKey::from_master(&[42; 32]);
    let mut buf = vec![0xA5u8; KIB16];
    out.push((
        "onion-crypto.aead_ns_per_kib",
        time_ns(|| {
            seal_in_place(&aead, &[1; 12], b"", &mut buf);
            open_in_place(&aead, &[1; 12], b"", &mut buf).expect("own ciphertext opens");
        }) / 16.0,
    ));
}

/// `tor-net.cell_codec_ns_per_cell`: one encode into a reused buffer plus
/// one decode, the pair a non-relay cell pays at every hop.
pub fn tor_net(out: &mut Vec<(&'static str, f64)>) {
    let cell = Cell::with_payload(7, CellCmd::Relay, &[0x11; 100]);
    let mut wire = Vec::with_capacity(514);
    out.push((
        "tor-net.cell_codec_ns_per_cell",
        time_ns(|| {
            wire.clear();
            cell.encode_into(&mut wire);
            black_box(Cell::decode(black_box(&wire)));
        }),
    ));
}

/// `conclave.*` unit costs.
pub fn conclave(out: &mut Vec<(&'static str, f64)>) {
    // Quote + IAS verify/sign + client verify. Every handshake spends one of
    // the IAS tree's 64 signatures, so the sample count is fixed, not
    // calibrated.
    let mut rng = StdRng::seed_from_u64(5);
    let mut ias = Ias::new([0xC0; 32], 5);
    let platform = ias.provision_platform(1000, &mut rng);
    let enclave = Enclave::create(0, ENCLAVE_IMAGE, 24 << 20, 5);
    let (ias_key, measurement) = (ias.verify_key(), enclave_measurement());
    let attest: Vec<f64> = (0..31)
        .map(|_| {
            let t = Instant::now();
            let (state, hello) = AttestedChannel::client_hello(&mut rng);
            let (reply, _) =
                AttestedChannel::server_respond(&mut rng, &enclave, &platform, &mut ias, &hello)
                    .expect("provisioned platform attests");
            black_box(
                AttestedChannel::client_finish(&state, &reply, &ias_key, &measurement)
                    .expect("honest conclave verifies"),
            );
            t.elapsed().as_nanos() as f64
        })
        .collect();
    out.push(("conclave.attest_us", crate::stats::floor(&attest) / 1e3));

    let (state, hello) = AttestedChannel::client_hello(&mut rng);
    let (reply, mut server) =
        AttestedChannel::server_respond(&mut rng, &enclave, &platform, &mut ias, &hello)
            .expect("provisioned platform attests");
    let mut client = AttestedChannel::client_finish(&state, &reply, &ias_key, &measurement)
        .expect("honest conclave verifies");
    let mut buf = Vec::with_capacity(KIB16 + 64);
    out.push((
        "conclave.channel_ns_per_kib",
        time_ns(|| {
            buf.clear();
            buf.resize(KIB16, 0x3C);
            client.seal_msg_in_place(&mut buf);
            server
                .open_msg_in_place(&mut buf)
                .expect("in-order message opens");
        }) / 16.0,
    ));

    let mut fsp = FsProtect::launch(&mut rng);
    let data = vec![0x77u8; KIB16];
    out.push((
        "conclave.fsprotect_ns_per_kib",
        time_ns(|| {
            fsp.write("digest", black_box(&data));
            black_box(fsp.read("digest"));
        }) / 16.0,
    ));

    // Four 30 MiB enclaves in the 93 MiB EPC: every fourth touch evicts.
    let mut epc = Epc::default();
    for id in 0..4 {
        epc.register(id, 30 << 20);
    }
    let mut next = 0u64;
    out.push((
        "conclave.epc_touch_ns",
        time_ns(|| {
            black_box(epc.touch(next % 4));
            next += 1;
        }),
    ));
}

fn function_container(id: u64) -> Container {
    Container::new(
        id,
        ResourceLimits::default_function(),
        browser::manifest(false).to_seccomp(),
        NetRules::from_rules(vec![NetRule::accept_any()]),
        1 << 30,
        1024,
    )
}

/// `sandbox.*` unit costs.
pub fn sandbox(out: &mut Vec<(&'static str, f64)>) {
    let mut id = 0;
    out.push((
        "sandbox.container_create_us",
        time_ns(|| {
            id += 1;
            black_box(function_container(id));
        }) / 1e3,
    ));

    let mut fs = MemFs::new(1 << 30, 1024);
    let data = vec![0x21u8; KIB16];
    out.push((
        "sandbox.fs_write_ns_per_kib",
        time_ns(|| {
            fs.write("digest", black_box(&data)).expect("within quota");
        }) / 16.0,
    ));

    let mut filter = SeccompFilter::function_baseline();
    out.push((
        "sandbox.seccomp_check_ns",
        time_ns(|| {
            black_box(filter.check(black_box(SyscallClass::Connect)));
        }),
    ));
}

/// `core.protocol_codec_ns_per_msg`: an Invoke with a Browser-sized input,
/// encoded then decoded.
pub fn core(out: &mut Vec<(&'static str, f64)>) {
    let msg = BentoMsg::Invoke {
        token: [9; 32],
        input: vec![0x44; 64],
    };
    out.push((
        "core.protocol_codec_ns_per_msg",
        time_ns(|| {
            let wire = black_box(&msg).encode();
            black_box(BentoMsg::decode(&wire).expect("own encoding decodes"));
        }),
    ));
}

/// `functions.*` unit costs: the page compressor, and Browser driven
/// directly through one whole invocation (request in, page frames in,
/// compressed digest written and output) with no network under it.
pub fn functions(out: &mut Vec<(&'static str, f64)>) {
    let site = SiteModel::custom(
        "aliexpress-com",
        &[80_000, 60_000, 40_000, 30_000],
        20_000,
        5,
    );
    let asset = site.asset_content(0, 64 * 1024);
    out.push((
        "functions.compress_ns_per_kib",
        time_ns(|| {
            black_box(compress(black_box(&asset)));
        }) / 64.0,
    ));

    let frames: Vec<Vec<u8>> = site
        .server_pages()
        .into_iter()
        .flat_map(|(_, parts)| parts)
        .map(|part| encode_frame(&part))
        .collect();
    let request = BrowseRequest {
        server: NodeId(1),
        port: HTTP_PORT,
        path: site.html_path(),
        padding: 0,
        dropbox_on: None,
    }
    .encode();
    let mut rng = StdRng::seed_from_u64(3);
    out.push((
        "functions.browser_invoke_us",
        time_ns(|| {
            let mut runtime = ContainerRuntime {
                container: function_container(1),
                fsp: Some(FsProtect::launch(&mut rng)),
                image: ImageKind::Sgx,
            };
            let mut api = FunctionApi::for_testing(&mut runtime, 1);
            let mut browser = Browser::new(&[]);
            browser.on_invoke(&mut api, request.clone());
            let conn = api
                .actions()
                .iter()
                .find_map(|a| match a {
                    FnAction::Connect { conn, .. } => Some(*conn),
                    _ => None,
                })
                .expect("Browser connects to the web server");
            browser.on_net_connected(&mut api, conn);
            for frame in &frames {
                browser.on_net_data(&mut api, conn, frame.clone());
            }
            assert!(
                api.actions()
                    .iter()
                    .any(|a| matches!(a, FnAction::OutputEnd)),
                "Browser finished the page"
            );
        }) / 1e3,
    ));
}
