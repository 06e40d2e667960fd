//! The pluggable congestion-control interface.
//!
//! A sender ([`crate::flow::Flow`]) owns a `Box<dyn CongestionControl>`
//! and consults it for its congestion window and (optional) pacing rate,
//! which it caches between callbacks.
//! The sender feeds the algorithm per-ACK samples carrying the same
//! information Linux exposes to its CC modules: an RTT sample, a
//! delivery-rate sample (BBR-style), bytes newly acked, bytes newly lost,
//! and the current in-flight count.

use crate::time::{SimDuration, SimTime};

/// Information delivered to the CC algorithm on every ACK.
#[derive(Debug, Clone, Copy)]
pub struct AckSample {
    /// Current simulation time.
    pub now: SimTime,
    /// Bytes newly acknowledged by this ACK.
    pub acked_bytes: u64,
    /// RTT measured by this ACK (`None` if the ACK was for a
    /// retransmission — Karn's rule).
    pub rtt: Option<SimDuration>,
    /// Delivery-rate sample in bytes/sec (`None` if unavailable).
    pub delivery_rate: Option<f64>,
    /// Total bytes delivered (cumulatively acked) so far on this flow.
    pub delivered_total: u64,
    /// The flow's delivered-bytes counter at the moment the ACKed packet
    /// was sent. Used for Linux-style packet-timed round counting:
    /// a round trip ends when `packet_delivered_at_send` reaches the
    /// `delivered_total` recorded at the previous round end.
    pub packet_delivered_at_send: u64,
    /// Bytes in flight *after* processing this ACK.
    pub inflight_bytes: u64,
    /// Bytes newly declared lost while processing this ACK.
    pub newly_lost_bytes: u64,
}

/// A read-only view of the sender's transport state, passed alongside
/// every callback so algorithms need not duplicate bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct FlowView {
    /// Maximum segment size in bytes.
    pub mss: u64,
    /// Smoothed RTT, if at least one sample exists.
    pub srtt: Option<SimDuration>,
    /// Minimum RTT observed over the flow's lifetime.
    pub min_rtt: Option<SimDuration>,
    /// Bytes currently in flight.
    pub inflight_bytes: u64,
    /// Total bytes delivered so far.
    pub delivered_bytes: u64,
    /// Whether the sender is currently in fast-recovery.
    pub in_recovery: bool,
}

/// A congestion-control algorithm.
///
/// Implementations are pure state machines: they receive ACK/loss events
/// and expose a congestion window (bytes) and an optional pacing rate.
/// When `pacing_rate()` returns `None` the sender is purely ACK-clocked
/// (classic loss-based TCP); when `Some(rate)`, packet releases are spaced
/// at `size/rate` (BBR-family and rate-based schemes).
///
/// The sender caches `cwnd_bytes()` and `pacing_rate()`: it reads both
/// when the flow is built and again after every `on_ack`,
/// `on_congestion_event` and `on_rto`, and its send loop uses the copies.
/// An implementation must therefore change state only inside those
/// `&mut` callbacks — no interior mutability, no dependence on wall time
/// — so that the two getters are pure functions of that state. Debug
/// builds assert, at every send and window integration, that the cached
/// copies still equal the getters bit for bit.
pub trait CongestionControl: Send {
    /// Short algorithm name, e.g. `"cubic"`.
    fn name(&self) -> &'static str;

    /// Called for every arriving ACK.
    fn on_ack(&mut self, ack: &AckSample, view: &FlowView);

    /// Called once per congestion event (at most once per round trip, on
    /// the first loss of a new loss round — standard fast-recovery
    /// semantics). Loss-agnostic algorithms may ignore this.
    fn on_congestion_event(&mut self, now: SimTime, view: &FlowView);

    /// Called when the retransmission timer fires (all feedback lost).
    fn on_rto(&mut self, now: SimTime, view: &FlowView);

    /// Current congestion window in bytes. Read once after construction
    /// and after each `on_*` callback; see the trait docs.
    fn cwnd_bytes(&self) -> u64;

    /// Current pacing rate in bytes/sec, or `None` for pure ACK clocking.
    /// Read at the same points as [`Self::cwnd_bytes`].
    fn pacing_rate(&self) -> Option<f64>;

    /// Whether this controller is open-loop: its `on_*` callbacks are
    /// no-ops and `cwnd_bytes`/`pacing_rate` never change. The sender
    /// skips assembling the per-ACK [`AckSample`]/[`FlowView`] for such
    /// algorithms — purely an optimization; behavior is unchanged.
    fn is_open_loop(&self) -> bool {
        false
    }
}

/// Factory used by experiment code to build one CC instance per flow.
pub type CcFactory = Box<dyn Fn() -> Box<dyn CongestionControl> + Send + Sync>;

/// A trivial fixed-window algorithm.
///
/// Keeps a constant congestion window regardless of losses. Used by the
/// simulator's own tests (it makes throughput exactly predictable) and as
/// the simplest possible example of the trait.
#[derive(Debug, Clone)]
pub struct FixedWindow {
    cwnd: u64,
}

impl FixedWindow {
    pub fn new(cwnd_bytes: u64) -> Self {
        assert!(cwnd_bytes > 0);
        FixedWindow { cwnd: cwnd_bytes }
    }
}

impl CongestionControl for FixedWindow {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn on_ack(&mut self, _ack: &AckSample, _view: &FlowView) {}
    fn on_congestion_event(&mut self, _now: SimTime, _view: &FlowView) {}
    fn on_rto(&mut self, _now: SimTime, _view: &FlowView) {}
    fn cwnd_bytes(&self) -> u64 {
        self.cwnd
    }
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
    fn is_open_loop(&self) -> bool {
        true
    }
}

/// A trivial fixed-rate (paced) algorithm: sends at a constant rate with
/// a generous window. Exercises the simulator's pacing path and models
/// an open-loop CBR source (useful as a background-traffic generator).
#[derive(Debug, Clone)]
pub struct FixedRate {
    rate: f64,
    cwnd: u64,
}

impl FixedRate {
    /// `rate` in bytes/sec; the window is set to two seconds at that
    /// rate so pacing, not the window, is the limiter.
    pub fn new(rate_bytes_per_sec: f64) -> Self {
        assert!(rate_bytes_per_sec > 0.0);
        FixedRate {
            rate: rate_bytes_per_sec,
            cwnd: (2.0 * rate_bytes_per_sec) as u64 + 3000,
        }
    }
}

impl CongestionControl for FixedRate {
    fn name(&self) -> &'static str {
        "fixedrate"
    }
    fn on_ack(&mut self, _ack: &AckSample, _view: &FlowView) {}
    fn on_congestion_event(&mut self, _now: SimTime, _view: &FlowView) {}
    fn on_rto(&mut self, _now: SimTime, _view: &FlowView) {}
    fn cwnd_bytes(&self) -> u64 {
        self.cwnd
    }
    fn pacing_rate(&self) -> Option<f64> {
        Some(self.rate)
    }
    fn is_open_loop(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_window_is_constant() {
        let mut cc = FixedWindow::new(10_000);
        assert_eq!(cc.cwnd_bytes(), 10_000);
        let view = FlowView {
            mss: 1500,
            srtt: None,
            min_rtt: None,
            inflight_bytes: 0,
            delivered_bytes: 0,
            in_recovery: false,
        };
        cc.on_congestion_event(SimTime::ZERO, &view);
        cc.on_rto(SimTime::ZERO, &view);
        assert_eq!(cc.cwnd_bytes(), 10_000);
        assert!(cc.pacing_rate().is_none());
    }

    #[test]
    #[should_panic]
    fn zero_window_rejected() {
        let _ = FixedWindow::new(0);
    }
}
