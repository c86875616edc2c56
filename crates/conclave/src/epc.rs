//! The Enclave Page Cache: the scarce protected-memory pool the paper's
//! scalability analysis (§7.3) revolves around.
//!
//! "SGX provides a limited amount of protected memory (128MB), with only
//! 93MB of this usable by applications, meaning that we are constrained in
//! the number of functions that can be running concurrently on a node. ...
//! SGX has support for paging; as we do not expect all functions loaded on
//! a node to always be running, enclaves could be paged out if they are not
//! currently being invoked."
//!
//! [`Epc`] tracks per-enclave residency at 4 KiB page granularity and
//! evicts least-recently-used enclaves when demand exceeds the usable pool,
//! accounting the paging work.

use std::collections::BTreeMap;

static T_PAGES_IN: telemetry::Counter = telemetry::Counter::new("epc.pages_in");
static T_PAGES_OUT: telemetry::Counter = telemetry::Counter::new("epc.pages_out");
static T_EVICTIONS: telemetry::Counter = telemetry::Counter::new("epc.evictions");
static T_RESIDENT: telemetry::Gauge = telemetry::Gauge::new("epc.resident_bytes");

/// Total EPC size (bytes).
pub const EPC_TOTAL_BYTES: u64 = 128 << 20;
/// EPC usable by applications after SGX metadata (bytes) — the paper's 93 MB.
pub const EPC_USABLE_BYTES: u64 = 93 << 20;
/// Page size.
pub const PAGE: u64 = 4096;

/// Cumulative paging work.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PagingStats {
    /// Pages evicted (encrypted and written out).
    pub pages_out: u64,
    /// Pages loaded back (read and decrypted).
    pub pages_in: u64,
    /// Number of eviction events (an enclave being victimized).
    pub evictions: u64,
}

impl PagingStats {
    /// Approximate time cost of the recorded paging, in microseconds
    /// (~7 µs per 4 KiB page crossing the EPC boundary, in line with
    /// published SGX paging measurements).
    pub fn cost_micros(&self) -> u64 {
        (self.pages_out + self.pages_in) * 7
    }
}

#[derive(Debug)]
struct Residency {
    resident_bytes: u64,
    total_bytes: u64,
    last_use: u64,
}

/// The EPC of one machine.
#[derive(Debug)]
pub struct Epc {
    usable: u64,
    enclaves: BTreeMap<u64, Residency>,
    clock: u64,
    stats: PagingStats,
}

impl Default for Epc {
    fn default() -> Self {
        Epc::new(EPC_USABLE_BYTES)
    }
}

impl Epc {
    /// An EPC with the given usable capacity.
    pub fn new(usable: u64) -> Epc {
        Epc {
            usable,
            enclaves: BTreeMap::new(),
            clock: 0,
            stats: PagingStats::default(),
        }
    }

    /// Usable capacity in bytes.
    pub fn usable(&self) -> u64 {
        self.usable
    }

    /// Bytes currently resident across all enclaves.
    pub fn resident(&self) -> u64 {
        self.enclaves.values().map(|r| r.resident_bytes).sum()
    }

    /// Paging statistics so far.
    pub fn stats(&self) -> PagingStats {
        self.stats
    }

    /// Register an enclave with a memory footprint. Fails if the footprint
    /// alone exceeds the whole usable EPC (it could never run).
    pub fn register(&mut self, id: u64, bytes: u64) -> bool {
        if bytes > self.usable {
            return false;
        }
        self.enclaves.insert(
            id,
            Residency {
                resident_bytes: 0,
                total_bytes: round_pages(bytes),
                last_use: self.clock,
            },
        );
        true
    }

    /// Remove an enclave, freeing its EPC.
    pub fn unregister(&mut self, id: u64) {
        self.enclaves.remove(&id);
    }

    /// Touch an enclave (it is about to execute): make it fully resident,
    /// evicting LRU enclaves as needed. Returns the paging work this
    /// required, or `None` if the enclave is unknown.
    pub fn touch(&mut self, id: u64) -> Option<PagingStats> {
        self.clock += 1;
        let clock = self.clock;
        let (needed, already) = {
            let r = self.enclaves.get_mut(&id)?;
            r.last_use = clock;
            (r.total_bytes, r.resident_bytes)
        };
        let mut delta = PagingStats::default();
        if already >= needed {
            return Some(delta);
        }
        let to_load = needed - already;
        // Evict LRU enclaves until there is room.
        let mut free = self.usable.saturating_sub(self.resident());
        while free < to_load {
            let victim = self
                .enclaves
                .iter()
                .filter(|(vid, r)| **vid != id && r.resident_bytes > 0)
                .min_by_key(|(_, r)| r.last_use)
                .map(|(vid, _)| *vid);
            let Some(victim) = victim else {
                // Nothing left to evict: cannot make the enclave resident.
                return None;
            };
            let r = self.enclaves.get_mut(&victim).expect("victim exists");
            let evicted = r.resident_bytes;
            r.resident_bytes = 0;
            free += evicted;
            delta.pages_out += evicted / PAGE;
            delta.evictions += 1;
        }
        let r = self.enclaves.get_mut(&id).expect("checked above");
        r.resident_bytes = needed;
        delta.pages_in += to_load / PAGE;
        self.stats.pages_out += delta.pages_out;
        self.stats.pages_in += delta.pages_in;
        self.stats.evictions += delta.evictions;
        T_PAGES_IN.add(delta.pages_in);
        T_PAGES_OUT.add(delta.pages_out);
        T_EVICTIONS.add(delta.evictions);
        T_RESIDENT.set(self.resident());
        Some(delta)
    }

    /// How many enclaves of `bytes` each fit fully resident at once.
    pub fn capacity_for(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return u64::MAX;
        }
        self.usable / round_pages(bytes)
    }
}

fn round_pages(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE) * PAGE
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn enclaves_fit_until_capacity() {
        let mut epc = Epc::new(93 * MB);
        for id in 0..4 {
            assert!(epc.register(id, 20 * MB));
            let d = epc.touch(id).unwrap();
            assert_eq!(d.pages_out, 0, "no eviction while space remains");
        }
        assert_eq!(epc.resident(), 80 * MB);
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut epc = Epc::new(93 * MB);
        for id in 0..4 {
            epc.register(id, 25 * MB);
            epc.touch(id).unwrap();
        }
        // 4 * 25 = 100 > 93: enclave 0 (LRU) was evicted during touch(3).
        let d_total = epc.stats();
        assert!(d_total.evictions >= 1);
        // Touching 0 again pages it back in, evicting someone else.
        let d = epc.touch(0).unwrap();
        assert!(d.pages_in > 0);
        assert!(d.pages_out > 0);
    }

    #[test]
    fn touch_is_free_when_resident() {
        let mut epc = Epc::new(93 * MB);
        epc.register(1, 10 * MB);
        let first = epc.touch(1).unwrap();
        assert_eq!(first.pages_in, (10 * MB) / PAGE);
        let second = epc.touch(1).unwrap();
        assert_eq!(second, PagingStats::default());
    }

    #[test]
    fn oversized_enclave_rejected() {
        let mut epc = Epc::new(93 * MB);
        assert!(!epc.register(1, 94 * MB));
        assert!(epc.register(2, 93 * MB));
    }

    #[test]
    fn capacity_matches_paper_numbers() {
        // Bento server + Browser ≈ 16–20 MB, plus ~7.3 MB conclave overhead
        // → ~23–27 MB per function; 93 MB fits 3–4 fully resident.
        let epc = Epc::default();
        assert_eq!(epc.usable(), 93 * MB);
        let per_function = 20 * MB + (73 * MB) / 10;
        let fit = epc.capacity_for(per_function);
        assert!((3..=4).contains(&fit), "fit = {fit}");
    }

    #[test]
    fn unregister_frees_space() {
        let mut epc = Epc::new(50 * MB);
        epc.register(1, 40 * MB);
        epc.touch(1).unwrap();
        epc.unregister(1);
        assert_eq!(epc.resident(), 0);
        epc.register(2, 45 * MB);
        let d = epc.touch(2).unwrap();
        assert_eq!(d.pages_out, 0);
    }

    #[test]
    fn paging_cost_model() {
        let s = PagingStats {
            pages_in: 100,
            pages_out: 100,
            evictions: 1,
        };
        assert_eq!(s.cost_micros(), 1400);
    }
}
