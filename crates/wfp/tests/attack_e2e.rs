//! The full Table 1 pipeline at reduced scale: collect traces on the
//! simulated network under each defense and check the accuracy staircase's
//! *shape* — unmodified Tor highly fingerprintable, Browser+0MB weaker,
//! Browser+1MB near chance. (The full-scale run is `cargo run -p bench
//! --release -- table1`.)

use wfp::{closed_world_accuracy, collect_traces, CollectConfig, Defense};

// Scaled down in debug builds to keep `cargo test` fast; release (and the
// bench binary) run larger worlds.
const N_SITES: u32 = if cfg!(debug_assertions) { 5 } else { 8 };
const N_VISITS: u32 = if cfg!(debug_assertions) { 3 } else { 4 };

fn cfg(defense: Defense) -> CollectConfig {
    CollectConfig {
        n_sites: N_SITES,
        n_visits: N_VISITS,
        seed: 5,
        defense,
    }
}

#[test]
fn accuracy_staircase_shape() {
    let standard = collect_traces(&cfg(Defense::StandardTor));
    assert!(
        standard.len() as u32 >= N_SITES * N_VISITS * 9 / 10,
        "most standard visits completed: {}",
        standard.len()
    );
    let acc_standard = closed_world_accuracy(&standard);

    let browser0 = collect_traces(&cfg(Defense::BentoBrowser { padding: 0 }));
    assert!(
        browser0.len() as u32 >= N_SITES * N_VISITS * 9 / 10,
        "most browser visits completed: {}",
        browser0.len()
    );
    let acc_browser0 = closed_world_accuracy(&browser0);

    let browser7 = collect_traces(&cfg(Defense::BentoBrowser { padding: 7 << 20 }));
    let acc_browser7 = closed_world_accuracy(&browser7);

    eprintln!(
        "accuracy: standard={acc_standard:.3} browser0={acc_browser0:.3} browser7={acc_browser7:.3}"
    );
    // Shape of Table 1: the attack works against vanilla Tor...
    assert!(
        acc_standard >= 0.8,
        "unmodified Tor should be highly fingerprintable, got {acc_standard}"
    );
    // ...and collapses to near chance under heavy padding.
    let chance = 1.0 / N_SITES as f64;
    assert!(
        acc_browser7 <= 2.5 * chance,
        "7MB padding should reduce the attack to ~chance ({chance}), got {acc_browser7}"
    );
    // The staircase is monotone (non-strict: at toy scale Browser+0MB can
    // still perfectly separate a handful of sites by size, as can vanilla
    // Tor), and heavy padding strictly defeats the attacker.
    assert!(
        acc_standard >= acc_browser0 && acc_browser0 >= acc_browser7,
        "staircase: {acc_standard} >= {acc_browser0} >= {acc_browser7}"
    );
    assert!(
        acc_standard - acc_browser7 > 0.5,
        "padding must collapse the attack: {acc_standard} -> {acc_browser7}"
    );
}
