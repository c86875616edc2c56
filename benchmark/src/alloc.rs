//! Allocation counters for the traced pass. The counting allocator itself is
//! declared only in the traced binary (`src/bin/benchmark_traced.rs`); in
//! the untraced binary nothing ever writes these, and they read 0.

use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations made by the process so far (traced binary only).
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by those allocations.
pub static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Current `(allocations, bytes)`. Relaxed: the counters publish no other
/// data, and on single-thread workloads the reading thread made every
/// allocation itself, so differences of two readings are exact there.
pub fn read() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
