//! The TCP-like flow cost model.
//!
//! Connections carry ordered, reliable messages. The *timing* of delivery is
//! governed per direction by:
//!
//! * a one-RTT connection handshake,
//! * a congestion window (slow start to `ssthresh`, then additive increase),
//! * the max-min fair share of the sender's uplink and receiver's downlink.
//!
//! Loss is not modeled — the live-Tor effects the paper measures (slow-start
//! ramp on short transfers, bandwidth sharing on long ones) do not need it,
//! and omitting retransmission keeps the simulator exactly reproducible.
//! `ssthresh` therefore doubles as the "steady state" window.

use crate::time::SimDuration;

/// Tunable constants of the transport model.
#[derive(Debug, Clone, Copy)]
pub struct TransportCfg {
    /// Maximum segment size in bytes; congestion-avoidance growth quantum.
    pub mss: u32,
    /// Initial congestion window in bytes (RFC 6928's 10 segments).
    pub init_cwnd: u32,
    /// Slow-start threshold in bytes; exponential growth stops here.
    pub ssthresh: u32,
    /// Hard cap on the congestion window (receive-window stand-in).
    pub max_cwnd: u32,
    /// Piece size of a message longer than this: it serializes in chunks of
    /// at most this many bytes, each at the rate in force when it starts.
    pub chunk: u32,
    /// Round-trip time of a node's loopback, for same-host connections
    /// (e.g. a Bento server talking to its co-resident Tor relay).
    pub loopback_rtt: SimDuration,
    /// Loopback throughput in bytes/s.
    pub loopback_bps: u64,
    /// Fixed per-message protocol overhead (headers), in bytes, charged to
    /// serialization but not delivered to the application.
    pub per_msg_overhead: u32,
}

impl Default for TransportCfg {
    fn default() -> Self {
        TransportCfg {
            mss: 1460,
            init_cwnd: 10 * 1460,
            ssthresh: 128 * 1024,
            max_cwnd: 1024 * 1024,
            chunk: 16 * 1024,
            loopback_rtt: SimDuration::from_micros(100),
            loopback_bps: 1_000_000_000,
            per_msg_overhead: 52, // IP + TCP + timestamps, amortized
        }
    }
}

/// Per-direction congestion state of a connection.
#[derive(Debug, Clone, Copy)]
pub struct Cwnd {
    /// Current window in bytes.
    pub window: u32,
    /// Threshold separating slow start from congestion avoidance.
    pub ssthresh: u32,
    /// Cap.
    pub max: u32,
    /// MSS, the additive-increase quantum.
    pub mss: u32,
}

impl Cwnd {
    /// Fresh window from the transport configuration.
    pub fn new(cfg: &TransportCfg) -> Self {
        Cwnd {
            window: cfg.init_cwnd,
            ssthresh: cfg.ssthresh,
            max: cfg.max_cwnd,
            mss: cfg.mss,
        }
    }

    /// Account `acked` delivered bytes and grow the window accordingly:
    /// exponential below `ssthresh` (window += acked), additive above
    /// (window += mss·acked/window).
    pub fn on_acked(&mut self, acked: u32) {
        if self.window < self.ssthresh {
            self.window = self
                .window
                .saturating_add(acked)
                .min(self.ssthresh.max(self.window));
        } else {
            let grow = ((self.mss as u64 * acked as u64) / self.window.max(1) as u64) as u32;
            self.window = self.window.saturating_add(grow.max(1));
        }
        self.window = self.window.min(self.max);
    }

    /// The window-limited sending rate for a path of round-trip `rtt`,
    /// in bytes per second. An (unrealistic) zero RTT yields `u64::MAX`.
    pub fn rate(&self, rtt: SimDuration) -> u64 {
        if rtt.is_zero() {
            return u64::MAX;
        }
        // window / rtt  =  window * 1e9 / rtt_ns; a u32 window times 1e9
        // fits in u64, so no wider division is needed.
        self.window as u64 * 1_000_000_000 / rtt.as_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_start_doubles_per_window() {
        let cfg = TransportCfg::default();
        let mut c = Cwnd::new(&cfg);
        let w0 = c.window;
        // Ack a full window: slow start should double it.
        c.on_acked(w0);
        assert_eq!(c.window, 2 * w0);
    }

    #[test]
    fn congestion_avoidance_is_additive() {
        let cfg = TransportCfg::default();
        let mut c = Cwnd::new(&cfg);
        c.window = cfg.ssthresh; // at the boundary: CA regime
        let w = c.window;
        c.on_acked(w); // one full window acked -> +~1 MSS
        assert!(c.window >= w + cfg.mss - 1 && c.window <= w + cfg.mss + 1);
    }

    #[test]
    fn window_never_exceeds_cap() {
        let cfg = TransportCfg::default();
        let mut c = Cwnd::new(&cfg);
        for _ in 0..10_000 {
            c.on_acked(u32::MAX / 2);
        }
        assert!(c.window <= cfg.max_cwnd);
    }

    #[test]
    fn rate_is_window_over_rtt() {
        let cfg = TransportCfg::default();
        let c = Cwnd::new(&cfg);
        let rtt = SimDuration::from_millis(100);
        // 14600 bytes / 0.1 s = 146_000 B/s
        assert_eq!(c.rate(rtt), 146_000);
        assert_eq!(c.rate(SimDuration::ZERO), u64::MAX);
    }
}
