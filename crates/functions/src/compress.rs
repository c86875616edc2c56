//! A small LZ-style compressor — the Browser function's `zlib.compress`
//! step (Appendix A of the paper).
//!
//! Format: a stream of ops. `0x00 len` + literals copies `len` raw bytes;
//! `0x01 len dist(varint)` copies `len` bytes from `dist` back in the
//! output. Greedy matching with a 4-byte rolling hash chain over a 32 KiB
//! window. Not zlib — but a real dictionary coder with the same role:
//! page content with repetition shrinks, random padding does not.

/// Compress `data`.
///
/// ```
/// use bento_functions::compress::{compress, decompress};
/// let page = b"<div>repetition</div><div>repetition</div>".repeat(100);
/// let packed = compress(&page);
/// assert!(packed.len() < page.len() / 3);
/// assert_eq!(decompress(&packed).unwrap(), page);
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = 255;
    const WINDOW: usize = 32 * 1024;
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    // Header: original length (for sanity checks on decompress).
    write_varint(&mut out, data.len() as u64);
    let mut head: Vec<i64> = vec![-1; 1 << 16];
    let hash = |d: &[u8]| -> usize {
        ((u32::from_le_bytes([d[0], d[1], d[2], d[3]]).wrapping_mul(2654435761)) >> 16) as usize
    };
    let mut lit_start = 0usize;
    let mut i = 0usize;
    let flush_literals = |out: &mut Vec<u8>, lits: &[u8]| {
        let mut rest = lits;
        while !rest.is_empty() {
            let take = rest.len().min(255);
            out.push(0x00);
            out.push(take as u8);
            out.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
        }
    };
    while i + MIN_MATCH <= data.len() {
        let h = hash(&data[i..]);
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

/// Decompress a [`compress`] stream. `None` on malformed input.
pub fn decompress(mut data: &[u8]) -> Option<Vec<u8>> {
    let expected = read_varint(&mut data)? as usize;
    if expected > 1 << 30 {
        return None;
    }
    let mut out = Vec::with_capacity(expected);
    while !data.is_empty() {
        let op = data[0];
        data = &data[1..];
        match op {
            0x00 => {
                let len = *data.first()? as usize;
                data = &data[1..];
                if data.len() < len {
                    return None;
                }
                out.extend_from_slice(&data[..len]);
                data = &data[len..];
            }
            0x01 => {
                let len = *data.first()? as usize;
                data = &data[1..];
                let dist = read_varint(&mut data)? as usize;
                if dist == 0 || dist > out.len() {
                    return None;
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            _ => return None,
        }
    }
    if out.len() != expected {
        return None;
    }
    Some(out)
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
        let b = *data.first()?;
        *data = &data[1..];
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
    use rand::{Rng, SeedableRng};

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
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut data = Vec::new();
        for _ in 0..50 {
            if rng.gen_bool(0.5) {
                data.extend(std::iter::repeat_n(rng.gen::<u8>(), rng.gen_range(1..500)));
            } else {
                data.extend((0..rng.gen_range(1..500)).map(|_| rng.gen::<u8>()));
            }
        }
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
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
