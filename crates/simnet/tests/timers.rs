//! Timers against a model of their contract, over seeded random schedules
//! of sets, cancels, fires, crashes and restarts.
//!
//! The contract: a timer fires once, at its instant, unless a cancel
//! reached it first or its node crashed after arming it. Timers due at one
//! instant fire in the order they were set. Cancelling a timer that has
//! fired, was cancelled, or died with a crash does nothing: above all it
//! must not cancel the timer armed since in its place. A crashed node's
//! timers never fire, not even after it restarts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::node::TimerId;
use simnet::{ConnId, Ctx, FaultPlan, Iface, Node, NodeId, SimDuration, SimTime, Simulator};

/// Where a timer the model set stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Pending,
    Fired,
    Cancelled,
    /// Its node crashed after it was set.
    Dead,
}

struct Armed {
    id: TimerId,
    due: SimTime,
    state: State,
}

/// Sets and cancels timers at random from its callbacks and checks every
/// fire against the model. A timer's tag is its index in `armed`, so tags
/// grow in the order timers are set.
struct TimerModel {
    rng: StdRng,
    armed: Vec<Armed>,
    fired: Vec<(SimTime, u64)>,
    errors: Vec<String>,
    /// Fires left that may set more timers; the run winds down after.
    budget: u32,
}

impl TimerModel {
    fn new(seed: u64) -> TimerModel {
        TimerModel {
            rng: StdRng::seed_from_u64(seed),
            armed: Vec::new(),
            fired: Vec::new(),
            errors: Vec::new(),
            budget: 150,
        }
    }

    fn set(&mut self, ctx: &mut Ctx<'_>) {
        let delay = match self.rng.gen_range(0..8) {
            0 | 1 => SimDuration::ZERO,
            2 => SimDuration::from_micros(self.rng.gen_range(0..50)),
            // Past the event queue's ring of ≈ 4.3 s.
            3 => SimDuration::from_millis(self.rng.gen_range(4_000..9_000)),
            _ => SimDuration::from_micros(self.rng.gen_range(0..20_000)),
        };
        let tag = self.armed.len() as u64;
        let id = ctx.set_timer(delay, tag);
        let due = ctx.now() + delay;
        self.armed.push(Armed {
            id,
            due,
            state: State::Pending,
        });
    }

    /// Cancel the timer with tag `tag`, whatever state it is in.
    fn cancel(&mut self, ctx: &mut Ctx<'_>, tag: usize) {
        let Some(t) = self.armed.get_mut(tag) else {
            return;
        };
        ctx.cancel_timer(t.id);
        if t.state == State::Pending {
            t.state = State::Cancelled;
        }
    }

    /// A tag to cancel: half the time one of the last eight set, which
    /// are often due at this same instant.
    fn pick(&mut self) -> usize {
        let n = self.armed.len().max(1);
        if self.rng.gen_bool(0.5) {
            n - 1 - self.rng.gen_range(0..n.min(8))
        } else {
            self.rng.gen_range(0..n)
        }
    }
}

impl Node for TimerModel {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..6 {
            self.set(ctx);
        }
    }

    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId, _msg: Vec<u8>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let now = ctx.now();
        match self.armed.get_mut(tag as usize) {
            Some(t) if t.state == State::Pending && t.due == now => t.state = State::Fired,
            Some(t) => self.errors.push(format!(
                "timer {tag} fired at {now} in state {:?}, due {}",
                t.state, t.due
            )),
            None => self.errors.push(format!("unknown timer {tag} fired")),
        }
        self.fired.push((now, tag));
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        for _ in 0..self.rng.gen_range(0..4) {
            match self.rng.gen_range(0..6) {
                0..=2 => self.set(ctx),
                3 => {
                    let tag = self.pick();
                    self.cancel(ctx, tag);
                }
                4 => {
                    // Cancel twice.
                    let tag = self.pick();
                    self.cancel(ctx, tag);
                    self.cancel(ctx, tag);
                }
                _ => {
                    // Set one, likely into the queue slot this timer just
                    // left, then cancel the timer that has just fired.
                    self.set(ctx);
                    self.cancel(ctx, tag as usize);
                }
            }
        }
    }

    fn on_crash(&mut self) {
        for t in &mut self.armed {
            if t.state == State::Pending {
                t.state = State::Dead;
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // Arm the new incarnation's timers, then cancel some of the old
        // one's: those cancels must not reach the new timers.
        let before = self.armed.len();
        self.on_start(ctx);
        for _ in 0..4 {
            let tag = self.rng.gen_range(0..before.max(1));
            self.cancel(ctx, tag);
        }
    }
}

/// Keeps connection events interleaved with the timers, so queue slots are
/// freed and taken by other events too.
struct Chatter {
    peer: NodeId,
}

impl Node for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let conn = ctx.connect(self.peer, 80);
        ctx.send(conn, vec![1; 100]);
    }
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, msg: Vec<u8>) {
        if ctx.now() < SimTime::ZERO + SimDuration::from_secs(2) {
            ctx.send(conn, msg);
        }
    }
}

/// Runs one seeded schedule on two model nodes (one crashes and restarts
/// when the seed says so) beside an echo pair, and checks the model.
fn run(seed: u64) {
    let mut sim = Simulator::with_seed(seed);
    let iface = Iface::symmetric(SimDuration::from_micros(300), 10_000_000);
    let models = [0, 1].map(|i| {
        let node = Box::new(TimerModel::new(seed * 2 + i));
        sim.add_node(format!("model{i}"), iface, node)
    });
    let echo = sim.add_node("echo", iface, Box::new(Chatter { peer: NodeId(3) }));
    sim.add_node("chatter", iface, Box::new(Chatter { peer: echo }));
    if seed % 2 == 1 {
        let mut rng = StdRng::seed_from_u64(!seed);
        let crash = SimTime::ZERO + SimDuration::from_micros(rng.gen_range(0..30_000));
        let restart = crash + SimDuration::from_micros(rng.gen_range(0..10_000));
        let plan = FaultPlan::new()
            .crash(crash, models[0])
            .restart(restart, models[0]);
        sim.install_faults(plan);
    }
    sim.run_to_quiescence();
    for id in models {
        let m = sim.node_ref::<TimerModel>(id);
        assert_eq!(m.errors, Vec::<String>::new(), "seed {seed}");
        let pending: Vec<usize> = (m.armed.iter().enumerate())
            .filter(|(_, t)| t.state == State::Pending)
            .map(|(tag, _)| tag)
            .collect();
        assert_eq!(pending, Vec::<usize>::new(), "seed {seed}: never fired");
        assert!(
            m.fired.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: fired out of (time, set order): {:?}",
            m.fired
        );
    }
}

#[test]
fn timer_model_matches_set_cancel_fire_contract() {
    for seed in 0..300 {
        run(seed);
    }
}
