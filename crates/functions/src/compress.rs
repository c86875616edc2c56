//! A small LZ-style compressor — the Browser function's `zlib.compress`
//! step (Appendix A of the paper).
//!
//! Format: a stream of ops. `0x00 len` + literals copies `len` raw bytes;
//! `0x01 len dist(varint)` copies `len` bytes from `dist` back in the
//! output. Greedy matching with a 4-byte rolling hash chain over a 32 KiB
//! window. Not zlib — but a real dictionary coder with the same role:
//! page content with repetition shrinks, random padding does not.

// `decompress` takes bytes off the wire (a Dropbox's stored page); the
// module must not panic on them.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;
const WINDOW: usize = 32 * 1024;

/// The largest input [`compress`] takes, and the largest length
/// [`decompress`] accepts in a header: head-table entries are `u32`
/// positions offset by `WINDOW + 1`.
pub const MAX_INPUT: usize = 1 << 30;
/// The most output one input byte can stand for: a match op of three bytes
/// (`0x01`, a length, a one-byte distance) copies up to `MAX_MATCH` bytes.
const MAX_EXPANSION: usize = MAX_MATCH / 3;

fn load32(data: &[u8], at: usize) -> u32 {
    let mut word = [0; 4];
    word.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(word)
}

fn load64(data: &[u8], at: usize) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(word)
}

fn hash(word: u32) -> usize {
    (word.wrapping_mul(2654435761) >> 16) as usize
}

fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    for run in lits.chunks(255) {
        out.push(0x00);
        out.push(run.len() as u8);
        out.extend_from_slice(run);
    }
}

/// Compress `data`.
///
/// ```
/// use bento_functions::compress::{compress, decompress};
/// let page = b"<div>repetition</div><div>repetition</div>".repeat(100);
/// let packed = compress(&page);
/// assert!(packed.len() < page.len() / 3);
/// assert_eq!(decompress(&packed).unwrap(), page);
/// ```
///
/// # Panics
/// If `data` is longer than [`MAX_INPUT`].
pub fn compress(data: &[u8]) -> Vec<u8> {
    assert!(
        data.len() <= MAX_INPUT,
        "compress: input of {} bytes exceeds MAX_INPUT",
        data.len()
    );
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    // Header: original length (for sanity checks on decompress).
    write_varint(&mut out, data.len() as u64);
    // Most recent position of each hash, stored as `pos + WINDOW + 1`: an
    // empty slot (0) then reads as a candidate `WINDOW + 1` behind position
    // 0 or further, and fails the window test like any stale entry.
    let mut head = vec![0u32; 1 << 16];
    let mut lit_start = 0usize;
    let mut i = 0usize;
    // Empty slot, stale entry, hash collision and match alternate with no
    // pattern on real pages, so a branch per outcome mispredicts at about
    // every other position. Instead a rejected candidate is replaced by
    // position `i` itself and the word expected there by its complement;
    // the selects compile to conditional moves, and the only branch left
    // per position is the word compare, which is almost always false.
    while i + MIN_MATCH <= data.len() {
        let word = load32(data, i);
        let slot = &mut head[hash(word)];
        let dist = (i + WINDOW + 1) - *slot as usize;
        *slot = (i + WINDOW + 1) as u32;
        let in_window = dist <= WINDOW;
        let cand = std::hint::select_unpredictable(in_window, i.wrapping_sub(dist), i);
        let expected = std::hint::select_unpredictable(in_window, word, !word);
        if load32(data, cand) != expected {
            i += 1;
            continue;
        }
        let limit = (data.len() - i).min(MAX_MATCH);
        let mut len = MIN_MATCH;
        while len + 8 <= limit {
            let diff = load64(data, cand + len) ^ load64(data, i + len);
            if diff != 0 {
                len += diff.trailing_zeros() as usize / 8;
                break;
            }
            len += 8;
        }
        // The tail shorter than a word; after a mismatch above it stops at
        // the first compare.
        while len < limit && data[cand + len] == data[i + len] {
            len += 1;
        }
        flush_literals(&mut out, &data[lit_start..i]);
        out.push(0x01);
        out.push(len as u8);
        write_varint(&mut out, dist as u64);
        i += len;
        lit_start = i;
    }
    flush_literals(&mut out, &data[lit_start..]);
    out
}

/// Decompress a [`compress`] stream. `None` on malformed input.
///
/// Hostile input costs little: the buffer reserved up front is at most
/// what the stream could expand to, whatever length its header declares,
/// and an op that would take the output past that length is refused
/// before it runs.
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(data, &mut out)?;
    Some(out)
}

/// [`decompress`] into `out`, which it leaves holding whatever it had
/// decoded when it stopped.
fn decompress_into(mut data: &[u8], out: &mut Vec<u8>) -> Option<()> {
    let expected = read_varint(&mut data)? as usize;
    if expected > MAX_INPUT {
        return None;
    }
    out.reserve_exact(expected.min(data.len().saturating_mul(MAX_EXPANSION)));
    while let Some((&op, rest)) = data.split_first() {
        data = rest;
        let (&len, rest) = data.split_first()?;
        data = rest;
        let len = len as usize;
        if out.len() + len > expected {
            return None;
        }
        match op {
            0x00 => {
                let (run, rest) = data.split_at_checked(len)?;
                out.extend_from_slice(run);
                data = rest;
            }
            0x01 => {
                let dist = read_varint(&mut data)? as usize;
                if dist == 0 || dist > out.len() {
                    return None;
                }
                // An overlapping match (`dist < len`) repeats its first
                // `dist` bytes: each run copies what is there so far.
                let start = out.len() - dist;
                let mut left = len;
                while left > 0 {
                    let run = left.min(out.len() - start);
                    out.extend_from_within(start..start + run);
                    left -= run;
                }
            }
            _ => return None,
        }
    }
    (out.len() == expected).then_some(())
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(data: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (&b, rest) = data.split_first()?;
        *data = rest;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::web::SiteModel;
    use onion_crypto::sha256::sha256;
    use rand::{Rng, SeedableRng};

    /// The matcher this module shipped with before the branch-free one,
    /// kept as the reference: `compress` must produce its bytes exactly.
    fn compress_oracle(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        write_varint(&mut out, data.len() as u64);
        let mut head: Vec<i64> = vec![-1; 1 << 16];
        let mut lit_start = 0usize;
        let mut i = 0usize;
        while i + MIN_MATCH <= data.len() {
            let h = hash(load32(data, i));
            let cand = head[h];
            head[h] = i as i64;
            let mut found: Option<(usize, usize)> = None; // (match_len, cand_pos)
            if cand >= 0 {
                let cand = cand as usize;
                if i - cand <= WINDOW && data[cand..cand + MIN_MATCH] == data[i..i + MIN_MATCH] {
                    let limit = (data.len() - i).min(MAX_MATCH);
                    let mut l = MIN_MATCH;
                    while l < limit && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    found = Some((l, cand));
                }
            }
            if let Some((match_len, cand_pos)) = found {
                flush_literals(&mut out, &data[lit_start..i]);
                out.push(0x01);
                out.push(match_len as u8);
                write_varint(&mut out, (i - cand_pos) as u64);
                i += match_len;
                lit_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(&mut out, &data[lit_start..]);
        out
    }

    /// `compress(data)`, checked against the oracle and through `decompress`.
    fn checked(data: &[u8]) -> Vec<u8> {
        let packed = compress(data);
        assert!(packed == compress_oracle(data), "differs from the oracle");
        assert!(decompress(&packed).as_deref() == Some(data), "round trip");
        packed
    }

    /// The `(len, dist)` of every match op in a stream.
    fn matches(mut packed: &[u8]) -> Vec<(usize, usize)> {
        read_varint(&mut packed).unwrap();
        let mut found = Vec::new();
        while let [op, len, rest @ ..] = packed {
            packed = rest;
            if *op == 0x00 {
                packed = &packed[*len as usize..];
            } else {
                found.push((*len as usize, read_varint(&mut packed).unwrap() as usize));
            }
        }
        found
    }

    /// What Browser compresses for a site: the HTML then every asset.
    fn page(name: &str, assets: &[u32], inline_len: u32, seed: u64) -> Vec<u8> {
        SiteModel::custom(name, assets, inline_len, seed)
            .server_pages()
            .into_iter()
            .flat_map(|(_, parts)| parts.into_iter().flatten())
            .collect()
    }

    /// Fifty stretches, each a run of one byte or noise.
    fn runs_and_noise(seed: u64) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        for _ in 0..50 {
            if rng.gen_bool(0.5) {
                data.extend(std::iter::repeat_n(rng.gen::<u8>(), rng.gen_range(1..500)));
            } else {
                data.extend((0..rng.gen_range(1..500)).map(|_| rng.gen::<u8>()));
            }
        }
        data
    }

    /// `table2`'s five sites at its seed (77), then `benchmark/`'s seed-1
    /// `bento_session` page (`aliexpress-com` with its size jitter).
    fn paper_pages() -> Vec<Vec<u8>> {
        #[rustfmt::skip]
        let sites: [(&str, &[u32], u32, u64); 6] = [
            ("indiatoday-in", &[120_000, 90_000, 70_000, 50_000, 40_000, 30_000, 25_000, 20_000], 30_000, 77 ^ 1),
            ("yahoo-com", &[250_000, 180_000, 120_000, 90_000, 60_000, 40_000], 40_000, 77 ^ 2),
            ("netflix-com", &[400_000, 300_000, 200_000, 150_000, 100_000], 35_000, 77 ^ 3),
            ("ebay-com", &[200_000, 150_000, 100_000, 80_000, 60_000, 40_000, 30_000], 30_000, 77 ^ 4),
            ("aliexpress-com", &[80_000, 60_000, 40_000, 30_000], 20_000, 77 ^ 5),
            ("aliexpress-com", &[80_193, 60_103, 40_094, 30_011], 20_000, 77 ^ 5),
        ];
        sites
            .iter()
            .map(|(name, assets, inline_len, seed)| page(name, assets, *inline_len, *seed))
            .collect()
    }

    #[test]
    fn matches_oracle_on_the_papers_pages() {
        for page in paper_pages() {
            checked(&page);
        }
    }

    /// SHA-256 of three outputs, computed with the build before the
    /// branch-free matcher: the format is pinned, not just self-consistent.
    #[test]
    fn outputs_are_pinned() {
        let hex = |digest: [u8; 32]| digest.map(|b| format!("{b:02x}")).concat();
        let pages = paper_pages();
        assert_eq!(
            hex(sha256(&compress(&pages[5]))), // the benchmark's page
            "ee50683c2d8cc6ae86bd5ed206ef7186970dfe0d5a557d12716ab392df951823"
        );
        assert_eq!(
            hex(sha256(&compress(&pages[2]))), // netflix-com
            "4b13f16c95a0c438c3e5f6a69d54f8f2f1d56e3b8f83034fdd0d8d8ecae50df7"
        );
        assert_eq!(
            hex(sha256(&compress(&runs_and_noise(6)))),
            "07a79d5f71a190766bbf58f88c604d9dcc5032c1709c83d1a5304463dd6a9a95"
        );
    }

    /// 1 200 generated inputs of four kinds: runs and noise; a short motif
    /// repeated between noise (what `SiteModel` assets are made of);
    /// copies of earlier slices of the input itself, some from further back
    /// than the window; and pure noise over a small alphabet, where 4-byte
    /// words repeat and hash slots are overwritten constantly.
    #[test]
    fn matches_oracle_on_generated_corpora() {
        for seed in 0..300u64 {
            checked(&runs_and_noise(seed));

            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x307);
            let motif: Vec<u8> = (0..rng.gen_range(4..40)).map(|_| rng.gen()).collect();
            let mut data = Vec::new();
            for _ in 0..rng.gen_range(1..200) {
                if rng.gen_bool(0.6) {
                    data.extend_from_slice(&motif[..rng.gen_range(1..=motif.len())]);
                } else {
                    data.extend((0..rng.gen_range(1..64)).map(|_| rng.gen::<u8>()));
                }
            }
            checked(&data);

            let mut data: Vec<u8> = (0..rng.gen_range(1..3000)).map(|_| rng.gen()).collect();
            let target = rng.gen_range(100..120_000);
            while data.len() < target {
                let from = rng.gen_range(0..data.len());
                let len = rng.gen_range(1..600).min(data.len() - from);
                data.extend_from_within(from..from + len);
                data.push(rng.gen());
            }
            checked(&data);

            let alphabet = rng.gen_range(2..6u8);
            let len = rng.gen_range(0..20_000);
            let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
            checked(&data);
        }
    }

    #[test]
    fn inputs_shorter_than_three_words() {
        for len in 0..=11usize {
            checked(&vec![b'a'; len]);
            checked(&(0..len as u8).collect::<Vec<u8>>());
            checked(&b"abcdabcdabcd"[..len]);
        }
    }

    /// Noise with a 4-byte marker at both ends, `dist` apart, chosen so
    /// that nothing in between shares the marker's hash slot: whether the
    /// second marker matches depends on the window test alone.
    fn markers_apart(dist: usize) -> Vec<u8> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(dist as u64);
        let noise: Vec<u8> = (0..dist - 4).map(|_| rng.gen()).collect();
        (0u32..)
            .map(|marker| {
                let marker = marker.wrapping_mul(0x9E37_79B9).to_le_bytes();
                [&marker[..], &noise, &marker, b"."].concat()
            })
            .find(|data| {
                let slot = hash(load32(data, 0));
                (1..data.len() - 4).all(|at| at == dist || hash(load32(data, at)) != slot)
            })
            .expect("a marker with a slot of its own")
    }

    #[test]
    fn window_edge_is_inclusive() {
        let at_edge = checked(&markers_apart(WINDOW));
        assert!(matches(&at_edge).contains(&(4, WINDOW)));
        let past_edge = checked(&markers_apart(WINDOW + 1));
        assert!(matches(&past_edge).iter().all(|(_, dist)| *dist <= WINDOW));
        assert!(!matches(&past_edge).contains(&(4, WINDOW + 1)));
    }

    /// Position 0 is stored as `WINDOW + 1`, not as the empty slot's 0.
    #[test]
    fn candidate_at_position_zero_matches() {
        assert_eq!(matches(&checked(b"abcdefghabcdefgh")), [(8, 8)]);
    }

    #[test]
    fn long_run_is_cut_at_255() {
        let lens: Vec<usize> = matches(&checked(&[b'a'; 1000]))
            .iter()
            .map(|(len, _)| *len)
            .collect();
        assert_eq!(lens, [255, 255, 255, 234]);
    }

    /// A match is extended a word at a time and then byte by byte: put the
    /// first mismatch, or the end of the input, at every offset around both.
    #[test]
    fn match_length_is_exact_at_every_offset() {
        let motif = b"0123456789abcdefghijklmnopqrstuvwxyz";
        for len in MIN_MATCH..motif.len() {
            let mut mismatch = [&motif[..], &motif[..]].concat();
            mismatch[motif.len() + len] = b'#';
            assert_eq!(matches(&checked(&mismatch))[0], (len, motif.len()));
            let ends = [&motif[..], &motif[..len]].concat();
            assert_eq!(matches(&checked(&ends)), [(len, motif.len())]);
        }
    }

    /// Two different words in one hash slot, well inside the window: the
    /// candidate is read and refused by the word compare.
    #[test]
    fn hash_collision_in_window_is_no_match() {
        let first = *b"abcd";
        let slot = hash(u32::from_le_bytes(first));
        let second = (0u32..)
            .map(u32::to_le_bytes)
            .find(|w| *w != first && hash(u32::from_le_bytes(*w)) == slot)
            .expect("65 536 words share each slot");
        let data = [&first[..], b"-+*/", &second, b"<=>?"].concat();
        assert!(matches(&checked(&data)).is_empty());
    }

    /// `MAX_INPUT` is an assertion, not a silently wrapped table entry. The
    /// zeroed allocation is never touched: the length check comes first.
    #[test]
    #[should_panic(expected = "exceeds MAX_INPUT")]
    fn input_over_the_bound_is_refused() {
        compress(&vec![0u8; MAX_INPUT + 1]);
    }

    #[test]
    fn roundtrip_empty_and_small() {
        for input in [b"".as_slice(), b"a", b"abcabcabcabc", b"no repeats!?"] {
            let c = compress(input);
            assert_eq!(decompress(&c).unwrap(), input);
        }
    }

    #[test]
    fn repetitive_content_shrinks() {
        let html: Vec<u8> = b"<div class=\"item\"><span>entry</span></div>\n"
            .iter()
            .copied()
            .cycle()
            .take(50_000)
            .collect();
        let c = compress(&html);
        assert!(decompress(&c).unwrap() == html);
        assert!(
            c.len() < html.len() / 3,
            "repetitive page should compress well: {} -> {}",
            html.len(),
            c.len()
        );
    }

    #[test]
    fn random_content_does_not_explode() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let data: Vec<u8> = (0..100_000).map(|_| rng.gen()).collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len() + data.len() / 100 + 64);
    }

    #[test]
    fn mixed_content_roundtrips() {
        let data = runs_and_noise(6);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    /// A header declaring 1 GiB over a body of a few bytes reserves no more
    /// than the body could expand to, and a run of match ops past a small
    /// declared length stops at the op that would cross it.
    #[test]
    fn decompress_robust() {
        let mut gib = Vec::new();
        write_varint(&mut gib, MAX_INPUT as u64);
        assert_eq!(gib.len(), 5);
        let mut bomb = gib.clone();
        bomb.extend_from_slice(&[0x00, 0x01, b'x']);
        bomb.extend(std::iter::repeat_n([0x01, 0xFF, 0x01], 1000).flatten());
        let mut out = Vec::new();
        assert_eq!(decompress_into(&bomb, &mut out), None);
        assert!(
            out.capacity() <= bomb.len() * MAX_EXPANSION,
            "{}",
            out.capacity()
        );
        assert_eq!(decompress(&gib), None);

        // Declared: 300 bytes; the literal and the first match make 256,
        // the second match would make 511.
        let mut past = Vec::new();
        write_varint(&mut past, 300);
        past.extend_from_slice(&[0x00, 0x01, b'x']);
        past.extend(std::iter::repeat_n([0x01, 0xFF, 0x01], 1000).flatten());
        let mut out = Vec::new();
        assert_eq!(decompress_into(&past, &mut out), None);
        assert_eq!(out.len(), 256, "stopped before the op that crosses 300");
        assert!(out.capacity() <= 300);
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert!(decompress(&[]).is_none());
        assert!(decompress(&[0x05, 0x02]).is_none()); // bad op
        assert!(decompress(&[0x04, 0x01, 0x02, 0x01, 0x05]).is_none()); // dist > output
                                                                        // Truncated literal run.
        assert!(decompress(&[0x10, 0x00, 0xFF, 0x01]).is_none());
        // Length mismatch.
        let mut c = compress(b"hello world");
        c[0] = c[0].wrapping_add(1); // corrupt expected length
        assert!(decompress(&c).is_none());
    }
}
