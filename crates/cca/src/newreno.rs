//! TCP NewReno (RFC 5681/6582): the classic AIMD baseline.
//!
//! Included because the paper's closing discussion contrasts the
//! CUBIC-vs-NewReno transition with the BBR-vs-CUBIC one, and because it
//! is the simplest loss-based reference against which to sanity-check the
//! simulator (AIMD sawtooth, `β = 0.5`).

use bbrdom_netsim::cc::{AckSample, CongestionControl, FlowView};
use bbrdom_netsim::time::SimTime;
use bbrdom_netsim::units::round_u64;

const INIT_CWND: f64 = 10.0;
const MIN_CWND: f64 = 2.0;
const BETA: f64 = 0.5;

/// TCP NewReno congestion control.
#[derive(Debug, Clone)]
pub struct NewReno {
    mss: f64,
    /// Congestion window in MSS.
    cwnd: f64,
    ssthresh: f64,
}

impl NewReno {
    pub fn new() -> Self {
        NewReno {
            mss: 1500.0,
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
        }
    }

    pub fn cwnd_mss(&self) -> f64 {
        self.cwnd
    }
}

impl Default for NewReno {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for NewReno {
    fn name(&self) -> &'static str {
        "newreno"
    }

    fn on_ack(&mut self, ack: &AckSample, view: &FlowView) {
        self.mss = view.mss as f64;
        if view.in_recovery {
            return;
        }
        let acked_mss = ack.acked_bytes as f64 / self.mss;
        if self.cwnd < self.ssthresh {
            self.cwnd += acked_mss;
        } else {
            self.cwnd += acked_mss / self.cwnd;
        }
    }

    fn on_congestion_event(&mut self, _now: SimTime, _view: &FlowView) {
        self.cwnd = (self.cwnd * BETA).max(MIN_CWND);
        self.ssthresh = self.cwnd;
    }

    fn on_rto(&mut self, _now: SimTime, _view: &FlowView) {
        self.ssthresh = (self.cwnd * BETA).max(MIN_CWND);
        self.cwnd = 1.0;
    }

    fn cwnd_bytes(&self) -> u64 {
        round_u64(self.cwnd * self.mss)
    }

    fn pacing_rate(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_dumbbell;
    use bbrdom_netsim::time::SimDuration;

    fn view(in_recovery: bool) -> FlowView {
        FlowView {
            mss: 1500,
            srtt: Some(SimDuration::from_millis(40)),
            min_rtt: Some(SimDuration::from_millis(40)),
            inflight_bytes: 0,
            delivered_bytes: 0,
            in_recovery,
        }
    }

    fn ack(bytes: u64) -> AckSample {
        AckSample {
            now: SimTime::ZERO,
            acked_bytes: bytes,
            rtt: None,
            delivery_rate: None,
            delivered_total: 0,
            packet_delivered_at_send: 0,
            inflight_bytes: 0,
            newly_lost_bytes: 0,
        }
    }

    #[test]
    fn additive_increase_one_mss_per_rtt() {
        let mut r = NewReno::new();
        r.ssthresh = 5.0; // force congestion avoidance
        r.cwnd = 10.0;
        for _ in 0..10 {
            r.on_ack(&ack(1500), &view(false));
        }
        // One cwnd's worth of ACKs grows the window by ~1 MSS.
        assert!((r.cwnd_mss() - 11.0).abs() < 0.1, "cwnd={}", r.cwnd_mss());
    }

    #[test]
    fn multiplicative_decrease_halves() {
        let mut r = NewReno::new();
        r.cwnd = 64.0;
        r.on_congestion_event(SimTime::ZERO, &view(false));
        assert!((r.cwnd_mss() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn reno_fills_link() {
        let report = run_dumbbell(10.0, 40, 2.0, 30.0, vec![Box::new(NewReno::new())]);
        assert!(report.flows[0].throughput_mbps() > 9.0);
    }

    #[test]
    fn cubic_beats_reno_on_high_bdp_path() {
        // The motivation for CUBIC (paper §5 "Taming the Zoo"): on a high
        // BDP path CUBIC recovers from back-off faster than Reno.
        let report = run_dumbbell(
            100.0,
            80,
            1.0,
            60.0,
            vec![
                Box::new(crate::cubic::Cubic::new()),
                Box::new(NewReno::new()),
            ],
        );
        let cubic = report.flows[0].throughput_mbps();
        let reno = report.flows[1].throughput_mbps();
        assert!(cubic > reno, "cubic={cubic} reno={reno}");
    }
}
