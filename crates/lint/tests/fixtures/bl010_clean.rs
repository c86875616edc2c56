//! Panic-free variant: the missing-event case is handled, not unwrapped.

pub struct Simulator {
    pending: Option<u64>,
}

impl Simulator {
    pub fn run_until(&mut self, limit: u64) -> u64 {
        self.step(limit)
    }

    fn step(&mut self, limit: u64) -> u64 {
        match self.pending {
            Some(v) => v.min(limit),
            None => limit,
        }
    }
}
