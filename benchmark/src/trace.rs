//! Harness-side spans: recorded from the benchmark's own files around the
//! calls into each layer, kept in memory, written out when the run ends.
//!
//! A span carries both clocks — host nanoseconds since the tracer was made
//! and simulated nanoseconds — because the two answer different questions
//! ("where did the wall time go?" / "where did the page-load time go?") and
//! must never be mixed in one number.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name (the layer boundary it brackets).
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Rep the span belongs to: spans of one rep share this identifier.
    pub rep: u32,
    /// Host clock at entry, ns since the tracer was created.
    pub host_start_ns: u64,
    /// Host clock at exit.
    pub host_end_ns: u64,
    /// Simulated clock at entry, ns.
    pub sim_start_ns: u64,
    /// Simulated clock at exit.
    pub sim_end_ns: u64,
}

/// Collects spans. Disabled (the untraced pass) it records nothing and
/// `begin`/`end` cost one branch. Shared by reference across the trial
/// threads of `figure5_regen`, hence the mutex; spans are a handful per rep,
/// so it is never contended inside a hot loop.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) spans.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn host_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Enter a span at simulated time `sim_ns`.
    pub fn begin(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        rep: u32,
        sim_ns: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let host = self.host_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(SpanRec {
            name,
            parent,
            rep,
            host_start_ns: host,
            host_end_ns: host,
            sim_start_ns: sim_ns,
            sim_end_ns: sim_ns,
        });
        Some(SpanId(spans.len() - 1))
    }

    /// Leave a span at simulated time `sim_ns`.
    pub fn end(&self, id: Option<SpanId>, sim_ns: u64) {
        let Some(SpanId(i)) = id else { return };
        let host = self.host_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans[i].host_end_ns = host;
        spans[i].sim_end_ns = sim_ns;
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("no span holder panics").clone()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    /// How many spans carried the name.
    pub count: u64,
    /// Sum of host durations.
    pub host_ns: u64,
    /// Sum of host self time: duration minus the part its children cover.
    pub host_self_ns: u64,
    /// Sum of simulated durations.
    pub sim_ns: u64,
}

/// Fold spans into per-name totals. Children of one parent never overlap
/// in these traces except under the two-thread trial runner, where the
/// parent's self time is clamped at zero rather than going negative.
pub fn totals(spans: &[SpanRec]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(SpanId(p)) = s.parent {
            child_ns[p] += s.host_end_ns - s.host_start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let host = s.host_end_ns - s.host_start_ns;
        t.count += 1;
        t.host_ns += host;
        t.host_self_ns += host.saturating_sub(children);
        t.sim_ns += s.sim_end_ns.saturating_sub(s.sim_start_ns);
    }
    out
}

/// The trace file body: every span, then the per-name totals.
pub fn to_json(workload: &str, spans: &[SpanRec]) -> Value {
    let mut root = Value::obj();
    root.push("workload", workload);
    let recs: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut v = Value::obj();
            v.push("id", i)
                .push("name", s.name)
                .push(
                    "parent",
                    s.parent.map_or(Value::Null, |SpanId(p)| Value::from(p)),
                )
                .push("rep", u64::from(s.rep))
                .push("host_start_ns", s.host_start_ns)
                .push("host_end_ns", s.host_end_ns)
                .push("sim_start_ns", s.sim_start_ns)
                .push("sim_end_ns", s.sim_end_ns);
            v
        })
        .collect();
    root.push("spans", recs);
    let mut tot = Value::obj();
    for (name, t) in totals(spans) {
        let mut v = Value::obj();
        v.push("count", t.count)
            .push("host_ns", t.host_ns)
            .push("host_self_ns", t.host_self_ns)
            .push("sim_ns", t.sim_ns);
        tot.push(name, v);
    }
    root.push("totals", tot);
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mk = |name, parent, hs, he| SpanRec {
            name,
            parent,
            rep: 0,
            host_start_ns: hs,
            host_end_ns: he,
            sim_start_ns: 0,
            sim_end_ns: he,
        };
        let spans = vec![
            mk("rep", None, 0, 100),
            mk("a", Some(SpanId(0)), 10, 40),
            mk("b", Some(SpanId(0)), 40, 90),
        ];
        let t = totals(&spans);
        assert_eq!(t["rep"].host_ns, 100);
        assert_eq!(t["rep"].host_self_ns, 20);
        assert_eq!(t["a"].host_self_ns, 30);
        assert_eq!(t["b"].sim_ns, 90);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x", None, 0, 0);
        t.end(id, 5);
        assert!(id.is_none() && t.spans().is_empty());
    }
}
