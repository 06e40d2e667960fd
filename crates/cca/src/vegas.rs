//! TCP Vegas (Brakmo & Peterson '94): the original delay-based TCP.
//!
//! Included for the paper's related-work context (§6 cites
//! game-theoretic analyses of Reno-vs-Vegas competition) and as a second
//! delay-based reference point beside Copa. Vegas estimates its own
//! queue backlog from the RTT:
//!
//! ```text
//! diff = cwnd·(1 − base_rtt/rtt)        (packets it keeps in the queue)
//! ```
//!
//! and per RTT: grow by one MSS when `diff < α`, shrink by one when
//! `diff > β` (α = 2, β = 4 packets), hold otherwise. Slow start doubles
//! every *other* RTT and exits when `diff > γ = 1`. On loss it backs off
//! multiplicatively to 3/4 (the Vegas fast-retransmit response).
//!
//! Like Copa in default mode, Vegas keeps only a few packets queued, so
//! buffer-filling CUBIC starves it — the classic result that explains
//! why pure delay-based TCPs never displaced loss-based ones, and a
//! useful contrast to BBR's hybrid approach in this repository's games.

use crate::util::RoundCounter;
use bbrdom_netsim::cc::{AckSample, CongestionControl, FlowView};
use bbrdom_netsim::time::SimTime;
use bbrdom_netsim::units::round_u64;

/// Lower backlog target, packets.
const ALPHA: f64 = 2.0;
/// Upper backlog target, packets.
const BETA: f64 = 4.0;
/// Slow-start exit backlog, packets.
const GAMMA: f64 = 1.0;
/// Multiplicative back-off on loss.
const LOSS_FACTOR: f64 = 0.75;
const MIN_CWND_MSS: f64 = 2.0;
const INIT_CWND_MSS: f64 = 10.0;

/// TCP Vegas congestion control.
#[derive(Debug, Clone)]
pub struct Vegas {
    mss: f64,
    /// Window in MSS (fractional).
    cwnd: f64,
    in_slow_start: bool,
    /// Slow start grows every other round.
    grow_this_round: bool,
    rounds: RoundCounter,
    /// Minimum RTT observed in the current round, seconds.
    round_min_rtt: f64,
    /// Base (propagation) RTT estimate, seconds.
    base_rtt: f64,
}

impl Vegas {
    pub fn new() -> Self {
        Vegas {
            mss: 1500.0,
            cwnd: INIT_CWND_MSS,
            in_slow_start: true,
            grow_this_round: true,
            rounds: RoundCounter::new(),
            round_min_rtt: f64::INFINITY,
            base_rtt: f64::INFINITY,
        }
    }

    pub fn cwnd_mss(&self) -> f64 {
        self.cwnd
    }

    /// The backlog estimate `diff` for a given round-min RTT, packets.
    fn diff(&self, rtt: f64) -> f64 {
        if !self.base_rtt.is_finite() || rtt <= 0.0 {
            return 0.0;
        }
        self.cwnd * (1.0 - self.base_rtt / rtt)
    }

    fn on_round(&mut self) {
        let rtt = self.round_min_rtt;
        self.round_min_rtt = f64::INFINITY;
        if !rtt.is_finite() {
            return;
        }
        self.base_rtt = self.base_rtt.min(rtt);
        let diff = self.diff(rtt);
        if self.in_slow_start {
            if diff > GAMMA {
                self.in_slow_start = false;
                // Settle at the window that produced the target backlog.
                self.cwnd = (self.cwnd - diff).max(MIN_CWND_MSS);
            } else if self.grow_this_round {
                self.cwnd *= 2.0;
            }
            self.grow_this_round = !self.grow_this_round;
            return;
        }
        if diff < ALPHA {
            self.cwnd += 1.0;
        } else if diff > BETA {
            self.cwnd -= 1.0;
        }
        self.cwnd = self.cwnd.max(MIN_CWND_MSS);
    }
}

impl Default for Vegas {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Vegas {
    fn name(&self) -> &'static str {
        "vegas"
    }

    fn on_ack(&mut self, ack: &AckSample, view: &FlowView) {
        self.mss = view.mss as f64;
        self.rounds
            .on_ack(ack.packet_delivered_at_send, ack.delivered_total);
        if let Some(rtt) = ack.rtt {
            self.round_min_rtt = self.round_min_rtt.min(rtt.as_secs_f64());
        }
        if self.rounds.round_start() {
            self.on_round();
        }
    }

    fn on_congestion_event(&mut self, _now: SimTime, _view: &FlowView) {
        self.cwnd = (self.cwnd * LOSS_FACTOR).max(MIN_CWND_MSS);
        self.in_slow_start = false;
    }

    fn on_rto(&mut self, _now: SimTime, _view: &FlowView) {
        self.cwnd = MIN_CWND_MSS;
        self.in_slow_start = true;
        self.grow_this_round = true;
    }

    fn cwnd_bytes(&self) -> u64 {
        round_u64(self.cwnd * self.mss)
    }

    fn pacing_rate(&self) -> Option<f64> {
        None // classic Vegas is ACK-clocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_dumbbell;

    #[test]
    fn vegas_alone_fills_link_with_tiny_queue() {
        let report = run_dumbbell(20.0, 40, 8.0, 30.0, vec![Box::new(Vegas::new())]);
        let tp = report.flows[0].throughput_mbps();
        assert!(tp > 17.0, "vegas throughput={tp}");
        // α–β targets 2–4 packets of queue.
        assert!(
            report.queue.avg_occupancy_bytes < 10.0 * 1500.0,
            "queue={}",
            report.queue.avg_occupancy_bytes
        );
        assert_eq!(report.queue.dropped_packets, 0);
    }

    #[test]
    fn vegas_starves_against_cubic() {
        // The classic result (and why delay-based TCP lost the Internet):
        // CUBIC fills the buffer, Vegas sees rising RTT and retreats.
        let report = run_dumbbell(
            30.0,
            40,
            4.0,
            40.0,
            vec![Box::new(Vegas::new()), Box::new(crate::cubic::Cubic::new())],
        );
        let vegas = report.flows[0].throughput_mbps();
        let cubic = report.flows[1].throughput_mbps();
        assert!(
            vegas < cubic / 2.0,
            "vegas={vegas} should be well below cubic={cubic}"
        );
    }

    #[test]
    fn backlog_estimate_math() {
        let mut v = Vegas::new();
        v.base_rtt = 0.040;
        v.cwnd = 20.0;
        // rtt = 50 ms → 20·(1 − 40/50) = 4 packets queued.
        assert!((v.diff(0.050) - 4.0).abs() < 1e-9);
        // At base RTT the backlog is zero.
        assert!(v.diff(0.040).abs() < 1e-9);
    }

    #[test]
    fn loss_backs_off_to_three_quarters() {
        let mut v = Vegas::new();
        v.cwnd = 40.0;
        v.in_slow_start = false;
        let view = FlowView {
            mss: 1500,
            srtt: None,
            min_rtt: None,
            inflight_bytes: 0,
            delivered_bytes: 0,
            in_recovery: false,
        };
        v.on_congestion_event(SimTime::ZERO, &view);
        assert!((v.cwnd_mss() - 30.0).abs() < 1e-9);
    }
}
