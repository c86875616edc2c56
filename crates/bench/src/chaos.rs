//! Shared core of the chaos experiments: one fault-injected Tor network,
//! recovery-enabled clients, and the recovery outcome reduced to plain
//! numbers.
//!
//! Both the `chaos_sweep` binary and the integration tests drive this so
//! "clients survive the default fault mix" is asserted from one code path.
//! Each trial is a pure function of its [`ChaosConfig`]: the fault plan is
//! scheduled up front and every random draw comes from the simulator's
//! seeded RNG, so a trial replays byte-identically — including across
//! `--threads N` (the runner collects results in trial-index order).

use simnet::{FaultAction, FaultPlan, LinkFault, SimDuration, SimTime};
use tor_net::client::TerminalReq;
use tor_net::netbuild::TestClientNode;
use tor_net::ports::HTTP_PORT;
use tor_net::stream_frame::encode_frame;
use tor_net::{CircuitHandle, StreamTarget, TorEvent};

/// Histogram of observed time-to-recover for rebuilt circuits (ms).
static T_RECOVERY_OBSERVED: telemetry::Histo =
    telemetry::Histo::new("chaos.client_observed_recover_ms");

/// One chaos trial's knobs.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Simulation seed (drives topology, paths, fault coin flips).
    pub seed: u64,
    /// Per-message loss applied to every link while the lossy window is
    /// open (percent, 0 disables).
    pub loss_pct: f64,
}

/// Recovery-enabled clients downloading in a loop.
const CLIENTS: usize = 4;
/// Simulated horizon in seconds.
const HORIZON_S: u64 = 40;

impl ChaosConfig {
    /// The default fault mix: relay crash + restart, `loss_pct`% loss, one
    /// partition that heals. The crash and the partition are part of every
    /// trial.
    pub fn default_mix(seed: u64, loss_pct: f64) -> ChaosConfig {
        ChaosConfig { seed, loss_pct }
    }
}

/// What came out of a chaos trial.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosOutcome {
    /// Application bytes delivered to clients (stream data).
    pub goodput_bytes: u64,
    /// Page downloads that ran to completion (stream ended).
    pub downloads: u64,
    /// Managed circuits rebuilt after a failure ([`TorEvent::CircuitRebuilt`]).
    pub rebuilds: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Messages the fault plane dropped (loss, partitions, crashes).
    pub msgs_dropped: u64,
    /// Node crashes + restarts actually applied.
    pub crashes: u64,
    pub restarts: u64,
    /// Circuits the clients still hold at the end beyond the one each
    /// driver uses: a leak check, 0 when dead circuits are freed.
    pub stray_circuits: u64,
}

/// Timeline of the default mix (seconds): faults open after the network and
/// the first circuits settle, and everything is healed with time to spare
/// so recovery — not luck — explains a surviving trial.
const T_CRASH: u64 = 6;
const T_RESTART: u64 = 10;
const T_LOSS_ON: u64 = 12;
const T_PARTITION: u64 = 14;
const T_HEAL: u64 = 17;
const T_LOSS_OFF: u64 = 24;

/// How long a download may sit without progress before the driver gives up
/// on its circuit (a stalled mid-transfer stream keeps the circuit "alive";
/// tearing it down hands the slot to the managed-rebuild machinery, like a
/// real client abandoning a dead circuit).
const STALL: SimDuration = SimDuration(6_000_000_000);

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// Run one chaos trial: build the network, schedule the fault plan, keep
/// `CLIENTS` recovery-enabled clients downloading a page in a loop,
/// and reduce the run to a [`ChaosOutcome`].
pub fn run_chaos_trial(cfg: &ChaosConfig) -> ChaosOutcome {
    let mut net = tor_net::netbuild::NetworkBuilder::new()
        .seed(cfg.seed)
        .middles(8)
        .exits(3)
        .hsdirs(2)
        .build();
    const PAGE_LEN: u64 = 30_000;
    let page = vec![0xB7u8; PAGE_LEN as usize];
    let server = net.add_web_server("web", vec![("/".to_string(), vec![page])]);

    // net.relays is authority-first; the static fault targets are middle
    // relays, never the authority (a crashed authority is a different
    // experiment). The crash target is picked later, once circuits exist.
    let middles: Vec<simnet::NodeId> = net.relays[1..].iter().map(|(id, _)| *id).collect();
    let mut plan = FaultPlan::new();
    if cfg.loss_pct > 0.0 {
        plan = plan
            .all_links(secs(T_LOSS_ON), LinkFault::loss_pct(cfg.loss_pct))
            .all_links_clear(secs(T_LOSS_OFF));
    }
    plan = plan
        .partition(secs(T_PARTITION), vec![middles[1], middles[2]])
        .heal(secs(T_HEAL));
    net.sim.install_faults(plan);

    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| net.add_client(&format!("chaos{i}")))
        .collect();
    for &c in &clients {
        net.sim
            .with_node::<TestClientNode, _>(c, |n, _| n.tor.enable_recovery());
    }
    net.sim.run_until(secs(3));

    // Every client keeps one managed circuit to the exit and re-requests
    // the page as soon as the previous download finishes; the managed
    // handle is re-pointed when the client announces a rebuild.
    struct Driver {
        circ: Option<CircuitHandle>,
        in_flight: bool,
        failed_at: Option<SimTime>,
        last_progress: SimTime,
        /// Bytes received since the current request went out (the server
        /// keeps streams open, so arrival of the full page is what marks a
        /// download complete).
        got: u64,
    }
    let now0 = net.sim.now();
    let mut drivers: Vec<Driver> = clients
        .iter()
        .map(|&c| {
            let circ = net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
                n.tor
                    .build_circuit_managed(ctx, TerminalReq::ExitTo(server, HTTP_PORT))
            });
            Driver {
                circ,
                in_flight: false,
                failed_at: None,
                last_progress: now0,
                got: 0,
            }
        })
        .collect();
    net.sim.run_until(secs(5));

    // The crash hits a relay that is actually carrying a client circuit —
    // the first client's guard — so the crash provably kills at least one
    // circuit and the trial exercises rebuild, not luck.
    let guard_fp = drivers
        .first()
        .and_then(|d| d.circ)
        .map(|h| {
            net.sim
                .with_node::<TestClientNode, _>(clients[0], |n, _| n.tor.circuit_path(h))
        })
        .and_then(|path| path.first().copied());
    let victim = guard_fp
        .and_then(|fp| {
            net.relays[1..]
                .iter()
                .find(|(_, f)| *f == fp)
                .map(|(id, _)| *id)
        })
        .unwrap_or(middles[0]);
    net.sim
        .inject_fault(secs(T_CRASH), FaultAction::Crash(victim));
    net.sim
        .inject_fault(secs(T_RESTART), FaultAction::Restart(victim));

    let mut out = ChaosOutcome::default();
    let deadline = secs(HORIZON_S);
    while net.sim.now() < deadline {
        let step_end = net.sim.now() + SimDuration::from_millis(500);
        net.sim.run_until(step_end.min(deadline));
        let now = net.sim.now();
        for (d, &c) in drivers.iter_mut().zip(clients.iter()) {
            let events = net
                .sim
                .with_node::<TestClientNode, _>(c, |n, _| n.take_events());
            for ev in events {
                match ev {
                    TorEvent::StreamData(_, _, data) => {
                        out.goodput_bytes += data.len() as u64;
                        d.last_progress = now;
                        if d.in_flight {
                            d.got += data.len() as u64;
                            if d.got >= PAGE_LEN {
                                out.downloads += 1;
                                d.in_flight = false;
                            }
                        }
                    }
                    TorEvent::StreamEnded(h, _) if Some(h) == d.circ => {
                        d.in_flight = false;
                    }
                    TorEvent::CircuitRebuilt(old, new) => {
                        out.rebuilds += 1;
                        if Some(old) == d.circ {
                            d.circ = Some(new);
                            d.in_flight = false;
                        }
                        if let Some(t0) = d.failed_at.take() {
                            T_RECOVERY_OBSERVED.record(now.since(t0).as_millis());
                        }
                    }
                    TorEvent::CircuitClosed(h) if Some(h) == d.circ => {
                        d.in_flight = false;
                        if d.failed_at.is_none() {
                            d.failed_at = Some(now);
                        }
                    }
                    _ => {}
                }
            }
            let Some(h) = d.circ else { continue };
            if d.in_flight {
                // Stalled mid-download (e.g. the End cell was lost, or the
                // partition ate the tail): abandon the circuit and start a
                // fresh managed one. A deliberate teardown is not a failure,
                // so the client does not auto-rebuild it — the driver does.
                if now.since(d.last_progress) > STALL {
                    d.circ = net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
                        n.tor.destroy_circuit(ctx, h);
                        n.tor
                            .build_circuit_managed(ctx, TerminalReq::ExitTo(server, HTTP_PORT))
                    });
                    d.in_flight = false;
                    d.last_progress = now;
                }
            } else {
                let started = net.sim.with_node::<TestClientNode, _>(c, |n, ctx| {
                    if !n.tor.is_ready(h) {
                        return false;
                    }
                    match n
                        .tor
                        .open_stream(ctx, h, StreamTarget::Node(server, HTTP_PORT))
                    {
                        Some(s) => {
                            n.tor.send_stream(ctx, h, s, &encode_frame(b"/"));
                            true
                        }
                        None => false,
                    }
                });
                if started {
                    d.in_flight = true;
                    d.last_progress = now;
                    d.got = 0;
                }
            }
        }
    }
    for (d, &c) in drivers.iter().zip(&clients) {
        let node: &TestClientNode = net.sim.node_ref(c);
        let held = d.circ.is_some_and(|h| !node.tor.circuit_path(h).is_empty());
        out.stray_circuits += (node.tor.live_circuits() - usize::from(held)) as u64;
    }
    let stats = net.sim.stats();
    let faults = net.sim.fault_stats();
    out.events = stats.events;
    out.msgs_dropped = faults.msgs_dropped;
    out.crashes = faults.crashes;
    out.restarts = faults.restarts;
    out
}

/// Assert the recovery acceptance properties on a finished trial: faults
/// were really applied (one crash, one restart, messages dropped), yet
/// goodput is nonzero and at least one managed circuit was rebuilt. Panics
/// with the config and outcome on violation, so a failing sweep names its
/// trial.
pub fn assert_recovered(cfg: &ChaosConfig, out: &ChaosOutcome) {
    assert!(
        out.goodput_bytes > 0,
        "no goodput under chaos: {cfg:?} -> {out:?}"
    );
    assert!(
        out.downloads > 0,
        "no download completed under chaos: {cfg:?} -> {out:?}"
    );
    assert_eq!(out.crashes, 1, "crash was applied: {cfg:?} -> {out:?}");
    assert_eq!(out.restarts, 1, "restart was applied: {cfg:?} -> {out:?}");
    assert!(
        out.rebuilds >= 1,
        "no circuit rebuilt after the crash: {cfg:?} -> {out:?}"
    );
    assert!(
        out.msgs_dropped > 0,
        "fault plane dropped nothing: {cfg:?} -> {out:?}"
    );
}
