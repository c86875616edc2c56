//! Client recovery under the default fault mix, driven through the same
//! code path `chaos_sweep` uses: a relay carrying a live circuit crashes and
//! restarts, every link loses 5% of its messages for a while, and two
//! middles are partitioned away and healed.

use bench::chaos::{assert_recovered, run_chaos_trial, ChaosConfig};

#[test]
fn default_mix_recovers_and_replays() {
    let cfg = ChaosConfig::default_mix(404, 5.0);
    let a = run_chaos_trial(&cfg);
    // One crash and one restart applied, messages dropped, a managed
    // circuit rebuilt, nonzero goodput and at least one finished download.
    assert_recovered(&cfg, &a);
    // Every circuit a crash, a loss or a stall killed is freed: each client
    // ends holding only its driver's circuit.
    assert_eq!(a.stray_circuits, 0, "{a:?}");
    // Same seed, same fault plan -> the same outcome.
    let b = run_chaos_trial(&cfg);
    assert_eq!(a, b, "fault-plane runs replay deterministically");
}
