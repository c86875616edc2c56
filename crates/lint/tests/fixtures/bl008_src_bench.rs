//! Wall-clock source living in a host-side crate (`bench`): not reported
//! where it sits, but the taint still flows to deterministic callers.

pub fn wall_ms() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis()
}
