//! The same reachable panic, suppressed with the invariant that rules
//! the `None` case out.

pub struct Simulator {
    pending: Option<u64>,
}

impl Simulator {
    pub fn run_until(&mut self, limit: u64) -> u64 {
        self.step(limit)
    }

    fn step(&mut self, limit: u64) -> u64 {
        // bento-lint: allow(BL010) -- ensure_started() seeds `pending` before any step runs
        let v = self.pending.expect("pending event");
        v.min(limit)
    }
}
