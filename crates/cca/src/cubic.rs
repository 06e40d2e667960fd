//! TCP CUBIC (Ha, Rhee & Xu 2008; RFC 8312) with Linux parameters.
//!
//! The window grows along the cubic `W(t) = C·(t−K)³ + W_max` (Eq. (1) of
//! the paper) with `C = 0.4`, and on a congestion event multiplicatively
//! backs off **to** `β = 0.7` of the current window — the single behaviour
//! the paper's model depends on (its `b_cmin` derivation, Eq. (12)).
//!
//! Included, as in Linux: slow start with **HyStart** delay-based exit,
//! fast convergence, and the TCP-friendly (Reno-emulation) region.
//! HyStart matters even for long flows: without it, slow start blasts a
//! multi-BDP burst into the bottleneck, and against a pacing BBR flow
//! the resulting loss storm can put the flow into a retransmission
//! spiral it never recovers from — which real CUBIC does not exhibit.
//! (We implement HyStart's delay-increase detector; the ACK-train
//! detector adds little in a simulator with per-packet ACKs.)

use crate::util::RoundCounter;
use bbrdom_netsim::cc::{AckSample, CongestionControl, FlowView};
use bbrdom_netsim::time::SimTime;
use bbrdom_netsim::units::round_u64;

/// CUBIC's scaling constant (windows in MSS, time in seconds).
const C: f64 = 0.4;
/// Multiplicative back-off target: `cwnd ← β·cwnd` on loss.
const BETA: f64 = 0.7;
/// Initial window (Linux default), in MSS.
const INIT_CWND: f64 = 10.0;
/// Minimum window after any back-off, in MSS.
const MIN_CWND: f64 = 2.0;
/// HyStart: minimum RTT samples per round before the detector may fire.
const HYSTART_MIN_SAMPLES: u32 = 8;
/// HyStart: delay threshold floor/ceiling, seconds (Linux: 4–16 ms).
const HYSTART_DELAY_MIN: f64 = 0.004;
const HYSTART_DELAY_MAX: f64 = 0.016;

/// TCP CUBIC congestion control.
#[derive(Debug, Clone)]
pub struct Cubic {
    mss: f64,
    /// Congestion window, in MSS (fractional).
    cwnd: f64,
    /// Slow-start threshold, in MSS.
    ssthresh: f64,
    /// Window size just before the last reduction (the paper's `W_max`).
    w_max: f64,
    /// Start of the current cubic epoch.
    epoch_start: Option<SimTime>,
    /// Time offset `K` where the cubic reaches `w_max` again.
    k: f64,
    /// Reno-emulation window estimate, in MSS.
    w_est: f64,
    /// Enable fast convergence (Linux default: on).
    fast_convergence: bool,
    /// ACKed MSS accumulated for Reno-emulation growth.
    ack_cnt: f64,
    // --- HyStart (delay-increase detector) ---
    hystart_enabled: bool,
    rounds: RoundCounter,
    /// Lowest RTT seen in the previous round (the baseline), seconds.
    hystart_base_rtt: f64,
    /// Lowest RTT seen so far in the current round, seconds.
    hystart_round_min: f64,
    /// RTT samples seen this round.
    hystart_samples: u32,
}

impl Cubic {
    pub fn new() -> Self {
        Cubic {
            mss: 1500.0,
            cwnd: INIT_CWND,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_est: 0.0,
            fast_convergence: true,
            ack_cnt: 0.0,
            hystart_enabled: true,
            rounds: RoundCounter::new(),
            hystart_base_rtt: f64::INFINITY,
            hystart_round_min: f64::INFINITY,
            hystart_samples: 0,
        }
    }

    /// Disable HyStart (ablation only: exposes the slow-start overshoot
    /// pathology that real CUBIC avoids — see the module docs).
    pub fn without_hystart() -> Self {
        Cubic {
            hystart_enabled: false,
            ..Cubic::new()
        }
    }

    /// HyStart delay-increase detection; returns true when slow start
    /// should end because queuing delay is already building.
    fn hystart_update(&mut self, ack: &AckSample) -> bool {
        if !self.hystart_enabled {
            return false;
        }
        if self.rounds.round_start() {
            self.hystart_base_rtt = self.hystart_base_rtt.min(self.hystart_round_min);
            self.hystart_round_min = f64::INFINITY;
            self.hystart_samples = 0;
        }
        if let Some(rtt) = ack.rtt {
            self.hystart_round_min = self.hystart_round_min.min(rtt.as_secs_f64());
            self.hystart_samples += 1;
        }
        if self.hystart_samples >= HYSTART_MIN_SAMPLES && self.hystart_base_rtt.is_finite() {
            let thresh = (self.hystart_base_rtt / 8.0).clamp(HYSTART_DELAY_MIN, HYSTART_DELAY_MAX);
            if self.hystart_round_min >= self.hystart_base_rtt + thresh {
                return true;
            }
        }
        false
    }

    /// Current window in MSS (for tests/inspection).
    pub fn cwnd_mss(&self) -> f64 {
        self.cwnd
    }

    /// The `W_max` the cubic curve aims back to, in MSS.
    pub fn w_max_mss(&self) -> f64 {
        self.w_max
    }

    fn reset_epoch(&mut self) {
        self.epoch_start = None;
    }

    /// Cubic window target at elapsed time `t` (seconds) since epoch.
    fn w_cubic(&self, t: f64) -> f64 {
        C * (t - self.k).powi(3) + self.w_max
    }

    fn congestion_avoidance(&mut self, now: SimTime, srtt: f64) {
        if self.epoch_start.is_none() {
            self.epoch_start = Some(now);
            if self.cwnd < self.w_max {
                self.k = ((self.w_max - self.cwnd) / C).cbrt();
            } else {
                self.k = 0.0;
                self.w_max = self.cwnd;
            }
            self.w_est = self.cwnd;
            self.ack_cnt = 0.0;
        }
        let t = (now - self.epoch_start.unwrap()).as_secs_f64();
        // RFC 8312 §4.1: compare against the target one RTT in the future.
        let target = self.w_cubic(t + srtt);
        if target > self.cwnd {
            self.cwnd += (target - self.cwnd) / self.cwnd;
        } else {
            // Minimal growth to stay responsive (Linux: 1% per RTT region).
            self.cwnd += 0.01 / self.cwnd;
        }
        // TCP-friendly region (RFC 8312 §4.2): emulate Reno's AIMD with
        // α = 3(1−β)/(1+β).
        let alpha = 3.0 * (1.0 - BETA) / (1.0 + BETA);
        self.w_est += alpha * self.ack_cnt / self.cwnd;
        self.ack_cnt = 0.0;
        if self.w_est > self.cwnd {
            self.cwnd = self.w_est;
        }
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }

    fn on_ack(&mut self, ack: &AckSample, view: &FlowView) {
        self.mss = view.mss as f64;
        self.rounds
            .on_ack(ack.packet_delivered_at_send, ack.delivered_total);
        let acked_mss = ack.acked_bytes as f64 / self.mss;
        self.ack_cnt += acked_mss;
        let in_slow_start = self.cwnd < self.ssthresh;
        if in_slow_start && self.hystart_update(ack) {
            // HyStart: leave slow start before losses do it for us.
            self.ssthresh = self.cwnd;
        }
        // No growth while recovering from loss (standard TCP behaviour).
        if view.in_recovery {
            return;
        }
        if self.cwnd < self.ssthresh {
            self.cwnd += acked_mss;
            return;
        }
        let srtt = view.srtt.map(|d| d.as_secs_f64()).unwrap_or(0.1);
        self.congestion_avoidance(ack.now, srtt);
    }

    fn on_congestion_event(&mut self, _now: SimTime, _view: &FlowView) {
        // Fast convergence: if we back off from below the previous W_max,
        // release extra bandwidth for newcomers.
        if self.fast_convergence && self.cwnd < self.w_max {
            self.w_max = self.cwnd * (2.0 - BETA) / 2.0;
        } else {
            self.w_max = self.cwnd;
        }
        self.cwnd = (self.cwnd * BETA).max(MIN_CWND);
        self.ssthresh = self.cwnd;
        self.reset_epoch();
    }

    fn on_rto(&mut self, _now: SimTime, _view: &FlowView) {
        self.w_max = self.cwnd;
        self.ssthresh = (self.cwnd * BETA).max(MIN_CWND);
        self.cwnd = 1.0;
        self.reset_epoch();
    }

    fn cwnd_bytes(&self) -> u64 {
        round_u64(self.cwnd * self.mss)
    }

    fn pacing_rate(&self) -> Option<f64> {
        None // pure ACK clocking, as in (non-fq-paced) Linux CUBIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_dumbbell;
    use bbrdom_netsim::time::SimDuration;

    fn view(mss: u64, srtt_ms: u64, in_recovery: bool) -> FlowView {
        FlowView {
            mss,
            srtt: Some(SimDuration::from_millis(srtt_ms)),
            min_rtt: Some(SimDuration::from_millis(srtt_ms)),
            inflight_bytes: 0,
            delivered_bytes: 0,
            in_recovery,
        }
    }

    fn ack(now_s: f64, bytes: u64) -> AckSample {
        AckSample {
            now: SimTime::from_secs_f64(now_s),
            acked_bytes: bytes,
            rtt: Some(SimDuration::from_millis(40)),
            delivery_rate: None,
            delivered_total: 0,
            packet_delivered_at_send: 0,
            inflight_bytes: 0,
            newly_lost_bytes: 0,
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = Cubic::new();
        let v = view(1500, 40, false);
        let before = c.cwnd_mss();
        // One window's worth of ACKs → window doubles.
        for i in 0..before as usize {
            c.on_ack(&ack(0.001 * i as f64, 1500), &v);
        }
        assert!((c.cwnd_mss() - 2.0 * before).abs() < 1e-6);
    }

    #[test]
    fn backoff_is_to_seventy_percent() {
        let mut c = Cubic::new();
        c.cwnd = 100.0;
        c.ssthresh = 50.0; // out of slow start
        c.on_congestion_event(SimTime::from_secs_f64(1.0), &view(1500, 40, false));
        assert!((c.cwnd_mss() - 70.0).abs() < 1e-9);
        assert!((c.w_max_mss() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fast_convergence_shrinks_w_max() {
        let mut c = Cubic::new();
        c.cwnd = 100.0;
        c.ssthresh = 50.0;
        c.w_max = 150.0; // backing off below previous W_max
        c.on_congestion_event(SimTime::from_secs_f64(1.0), &view(1500, 40, false));
        // w_max = cwnd*(2-β)/2 = 100*0.65 = 65
        assert!((c.w_max_mss() - 65.0).abs() < 1e-9);
    }

    #[test]
    fn cubic_growth_returns_to_w_max() {
        // After a back-off from W_max=100, the window should climb back to
        // ~W_max after K = cbrt((W_max - 0.7*W_max)/C) seconds.
        let mut c = Cubic::new();
        c.cwnd = 100.0;
        c.ssthresh = 50.0;
        c.on_congestion_event(SimTime::ZERO, &view(1500, 40, false));
        let k = ((100.0 - 70.0) / C).cbrt();
        let v = view(1500, 40, false);
        // Feed ACKs at a steady clip until time K.
        let mut t = 0.0;
        while t < k {
            c.on_ack(&ack(t, 1500), &v);
            t += 0.005;
        }
        assert!(
            (c.cwnd_mss() - 100.0).abs() < 8.0,
            "cwnd={} expected ≈100",
            c.cwnd_mss()
        );
    }

    #[test]
    fn no_growth_during_recovery() {
        let mut c = Cubic::new();
        c.cwnd = 50.0;
        c.ssthresh = 25.0;
        let w0 = c.cwnd_mss();
        c.on_ack(&ack(1.0, 1500), &view(1500, 40, true));
        assert_eq!(c.cwnd_mss(), w0);
    }

    #[test]
    fn rto_collapses_window() {
        let mut c = Cubic::new();
        c.cwnd = 80.0;
        c.on_rto(SimTime::from_secs_f64(2.0), &view(1500, 40, false));
        assert!((c.cwnd_mss() - 1.0).abs() < 1e-9);
        assert!((c.ssthresh - 56.0).abs() < 1e-9);
    }

    #[test]
    fn hystart_exits_slow_start_before_heavy_loss() {
        // With HyStart, slow start against a self-built queue ends with
        // far fewer losses than without.
        let with_hs = run_dumbbell(20.0, 40, 1.0, 10.0, vec![Box::new(Cubic::new())]);
        let without = run_dumbbell(
            20.0,
            40,
            1.0,
            10.0,
            vec![Box::new(Cubic::without_hystart())],
        );
        assert!(
            with_hs.flows[0].lost_packets < without.flows[0].lost_packets,
            "hystart {} losses vs no-hystart {}",
            with_hs.flows[0].lost_packets,
            without.flows[0].lost_packets
        );
    }

    #[test]
    fn single_cubic_flow_fills_link() {
        let report = run_dumbbell(20.0, 40, 2.0, 30.0, vec![Box::new(Cubic::new())]);
        let tp = report.flows[0].throughput_mbps();
        assert!(tp > 18.0, "cubic throughput={tp}");
    }

    #[test]
    fn two_cubic_flows_share_fairly() {
        let report = run_dumbbell(
            20.0,
            40,
            2.0,
            60.0,
            vec![Box::new(Cubic::new()), Box::new(Cubic::new())],
        );
        let t0 = report.flows[0].throughput_mbps();
        let t1 = report.flows[1].throughput_mbps();
        let total = t0 + t1;
        assert!(total > 18.0, "total={total}");
        // Jain fairness for 2 flows ≥ 0.9.
        let jain = total * total / (2.0 * (t0 * t0 + t1 * t1));
        assert!(jain > 0.9, "jain={jain} (t0={t0}, t1={t1})");
    }

    #[test]
    fn cubic_experiences_periodic_backoffs() {
        let report = run_dumbbell(20.0, 40, 1.0, 30.0, vec![Box::new(Cubic::new())]);
        assert!(
            report.flows[0].congestion_events >= 2,
            "events={}",
            report.flows[0].congestion_events
        );
    }
}
