//! Panic site reachable from the simulator's run loop through the
//! call graph: `run_until` → `step` → `.expect(...)`.

pub struct Simulator {
    pending: Option<u64>,
}

impl Simulator {
    pub fn run_until(&mut self, limit: u64) -> u64 {
        self.step(limit)
    }

    fn step(&mut self, limit: u64) -> u64 {
        let v = self.pending.expect("pending event");
        v.min(limit)
    }
}
