//! **§9.3 Shard** — the k-of-N recovery property, exhaustively: for a grid
//! of (k, N), verify every k-subset reconstructs and no (k−1)-subset does.
//!
//! `cargo run -p bench --release -- shard_recovery`

use bench::{say, write_report, Opts};
use bento_functions::erasure::{decode, encode, ShardPiece};
use rand::{Rng, SeedableRng};

/// All size-`k` index subsets of `0..n` (n small).
fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
    (0u32..1 << n)
        .filter(|mask| mask.count_ones() as usize == k)
        .map(|mask| (0..n).filter(|i| mask >> i & 1 == 1).collect())
        .collect()
}

pub fn run(opts: &Opts) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut report = String::new();
    report.push_str("== Shard (section 9.3): any k of N reconstruct; k-1 never do ==\n");
    report.push_str(&format!(
        "{:<6} {:<6} {:<10} {:<14} {:<16} {:<14}\n",
        "k", "N", "file", "k-subsets ok", "k-1 subsets fail", "overhead"
    ));
    for (k, n) in [(1u8, 3u8), (2, 3), (2, 5), (3, 5), (3, 7), (4, 6), (5, 8)] {
        let file: Vec<u8> = (0..100_000).map(|_| rng.gen()).collect();
        let shards = encode(&file, k, n);
        let shard_bytes: usize = shards.iter().map(|s| s.data.len()).sum();
        // Every k-subset reconstructs.
        let k_subsets = subsets(n as usize, k as usize);
        let mut ok = 0;
        for idx in &k_subsets {
            let pick: Vec<ShardPiece> = idx.iter().map(|&i| shards[i].clone()).collect();
            if decode(&pick).as_deref() == Some(&file[..]) {
                ok += 1;
            }
        }
        // No (k-1)-subset reconstructs.
        let small = subsets(n as usize, k as usize - 1);
        let mut fails = 0;
        for idx in &small {
            let pick: Vec<ShardPiece> = idx.iter().map(|&i| shards[i].clone()).collect();
            if decode(&pick).is_none() {
                fails += 1;
            }
        }
        report.push_str(&format!(
            "{:<6} {:<6} {:<10} {:<14} {:<16} {:<14}\n",
            k,
            n,
            format!("{}B", file.len()),
            format!("{}/{}", ok, k_subsets.len()),
            format!("{}/{}", fails, small.len()),
            format!("{:.2}x", shard_bytes as f64 / file.len() as f64),
        ));
        assert_eq!(ok, k_subsets.len(), "recovery must hold for k={k} n={n}");
        assert_eq!(fails, small.len(), "k-1 must never suffice for k={k} n={n}");
    }
    report.push_str("\nThe network path of this property (Shard deploying Dropboxes over\n");
    report.push_str("Tor circuits, fetch k shards, reconstruct) runs in the integration\n");
    report.push_str("test `shard_deploys_and_any_k_reconstruct`.\n");
    say!(opts, "{}", report.trim_end());
    write_report(opts, "shard_recovery.txt", &report);
}
