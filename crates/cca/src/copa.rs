//! Copa (Arun & Balakrishnan, NSDI '18).
//!
//! Copa drives the congestion window toward the target rate
//! `λ_target = 1 / (δ · d_q)` where `d_q = RTT_standing − RTT_min` is the
//! measured queuing delay. Each ACK moves `cwnd` by `v / (δ · cwnd)` MSS
//! toward the target; the velocity `v` doubles after three consecutive
//! RTTs moving in the same direction.
//!
//! Both Copa modes are implemented:
//!
//! * **Default mode** (δ = 0.5) while the queue is observed to empty
//!   regularly (the flow has the bottleneck to itself, or shares it with
//!   other Copa-like flows);
//! * **TCP-competitive mode** when the queue has not been nearly empty
//!   for 5 RTTs (a buffer-filler like CUBIC is present): `1/δ` follows
//!   AIMD — +1 per loss-free RTT, halved on loss — making Copa roughly
//!   as aggressive as AIMD TCP while competing.
//!
//! Even so, Copa remains *below fair share* against CUBIC at every split
//! (the IMC paper's Fig. 7 finding, reproduced in the tests): its
//! delay-sensing core concedes the deep standing queue CUBIC builds.
//! On loss Copa additionally halves its window once per RTT (its packet-
//! loss guard for severe overload).

use crate::util::{RoundCounter, WindowedMax, WindowedMin};
use bbrdom_netsim::cc::{AckSample, CongestionControl, FlowView};
use bbrdom_netsim::time::SimTime;
use bbrdom_netsim::units::round_u64;

/// Copa's δ in default mode.
const DELTA_DEFAULT: f64 = 0.5;
/// Smallest δ the competitive mode may reach (1/δ ≤ 50).
const DELTA_MIN: f64 = 0.02;
/// Loss-free RTTs without a near-empty queue before switching to
/// TCP-competitive mode (the Copa paper's detection horizon).
const NEARLY_EMPTY_HORIZON_ROUNDS: u32 = 5;
/// Minimum window, MSS.
const MIN_CWND_MSS: f64 = 2.0;
/// Initial window, MSS.
const INIT_CWND_MSS: f64 = 10.0;
/// RTT_min filter window, nanoseconds (10 s as in the Copa paper).
const RTT_MIN_WINDOW_NS: u64 = 10_000_000_000;

/// Copa congestion control (default mode).
#[derive(Debug, Clone)]
pub struct Copa {
    mss: f64,
    /// Window in MSS (fractional).
    cwnd: f64,
    /// Velocity parameter.
    v: f64,
    /// Direction of the last window move: +1 up, −1 down, 0 unknown.
    direction: i8,
    /// RTTs the direction has persisted.
    same_direction_rounds: u32,
    /// cwnd at the start of the current RTT (to detect actual direction).
    cwnd_at_round_start: f64,
    rounds: RoundCounter,
    /// Long-window minimum RTT (propagation estimate), ns ticks.
    rtt_min: WindowedMin,
    /// "Standing" RTT: min over a short recent window, ns ticks.
    rtt_standing: WindowedMin,
    /// Recent maximum RTT (for the nearly-empty threshold), ns ticks.
    rtt_max: WindowedMax,
    /// Limits loss back-off to once per RTT.
    last_loss_round: u64,
    /// Rounds since the queue was last observed nearly empty.
    rounds_since_nearly_empty: u32,
    /// Current δ: `DELTA_DEFAULT` in default mode, AIMD-driven below it
    /// in TCP-competitive mode.
    delta: f64,
    /// Round of the last loss (competitive-mode AIMD input).
    loss_in_round: bool,
}

impl Copa {
    pub fn new() -> Self {
        Copa {
            mss: 1500.0,
            cwnd: INIT_CWND_MSS,
            v: 1.0,
            direction: 0,
            same_direction_rounds: 0,
            cwnd_at_round_start: INIT_CWND_MSS,
            rounds: RoundCounter::new(),
            rtt_min: WindowedMin::new(RTT_MIN_WINDOW_NS),
            // ~100 ms standing window; refreshed quickly, robust to noise.
            rtt_standing: WindowedMin::new(100_000_000),
            // ~2 s max window for the nearly-empty threshold.
            rtt_max: WindowedMax::new(2_000_000_000),
            last_loss_round: 0,
            rounds_since_nearly_empty: 0,
            delta: DELTA_DEFAULT,
            loss_in_round: false,
        }
    }

    /// Current operating δ (0.5 in default mode, smaller when competing
    /// with buffer-fillers).
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// True when Copa is in TCP-competitive mode.
    pub fn is_competitive(&self) -> bool {
        self.rounds_since_nearly_empty >= NEARLY_EMPTY_HORIZON_ROUNDS
    }

    /// Per-round mode detection and competitive-mode AIMD on 1/δ.
    fn update_mode(&mut self) {
        let (standing, min, max) = match (
            self.rtt_standing.get(),
            self.rtt_min.get(),
            self.rtt_max.get(),
        ) {
            (Some(s), Some(mn), Some(mx)) => (s, mn, mx),
            _ => return,
        };
        let dq = (standing - min).max(0.0);
        let spread = (max - min).max(0.0);
        let nearly_empty = spread < 1e-9 || dq < 0.1 * spread;
        if nearly_empty {
            self.rounds_since_nearly_empty = 0;
        } else {
            self.rounds_since_nearly_empty = self.rounds_since_nearly_empty.saturating_add(1);
        }
        if self.is_competitive() {
            let mut inv = 1.0 / self.delta;
            if self.loss_in_round {
                inv = (inv / 2.0).max(1.0 / DELTA_DEFAULT);
            } else {
                inv += 1.0;
            }
            self.delta = (1.0 / inv).clamp(DELTA_MIN, DELTA_DEFAULT);
        } else {
            self.delta = DELTA_DEFAULT;
        }
        self.loss_in_round = false;
    }

    pub fn cwnd_mss(&self) -> f64 {
        self.cwnd
    }

    /// Current queuing-delay estimate in seconds.
    pub fn queuing_delay(&self) -> Option<f64> {
        let standing = self.rtt_standing.get()?;
        let min = self.rtt_min.get()?;
        Some((standing - min).max(0.0))
    }

    fn update_velocity(&mut self) {
        let dir_now: i8 = if self.cwnd > self.cwnd_at_round_start {
            1
        } else {
            -1
        };
        if dir_now == self.direction {
            self.same_direction_rounds += 1;
            if self.same_direction_rounds >= 3 {
                self.v *= 2.0;
            }
        } else {
            self.v = 1.0;
            self.same_direction_rounds = 0;
            self.direction = dir_now;
        }
        // Velocity is bounded so a direction flip recovers quickly.
        self.v = self.v.min(self.cwnd.max(1.0));
        self.cwnd_at_round_start = self.cwnd;
    }
}

impl Default for Copa {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Copa {
    fn name(&self) -> &'static str {
        "copa"
    }

    fn on_ack(&mut self, ack: &AckSample, view: &FlowView) {
        self.mss = view.mss as f64;
        self.rounds
            .on_ack(ack.packet_delivered_at_send, ack.delivered_total);
        if let Some(rtt) = ack.rtt {
            let r = rtt.as_secs_f64();
            let tick = ack.now.as_nanos();
            self.rtt_min.update(tick, r);
            self.rtt_standing.update(tick, r);
            self.rtt_max.update(tick, r);
        }
        if self.rounds.round_start() {
            self.update_velocity();
            self.update_mode();
        }
        let (standing, min) = match (self.rtt_standing.get(), self.rtt_min.get()) {
            (Some(s), Some(m)) => (s, m),
            _ => {
                self.cwnd += 1.0 / self.cwnd; // no samples yet: gentle growth
                return;
            }
        };
        let dq = (standing - min).max(0.0);
        let step = self.v / (self.delta * self.cwnd);
        if dq <= 1e-9 {
            // Queue empty: below target by definition; increase.
            self.cwnd += step;
        } else {
            let target_rate = self.mss / (self.delta * dq); // bytes/sec
            let current_rate = self.cwnd * self.mss / standing;
            if current_rate <= target_rate {
                self.cwnd += step;
            } else {
                self.cwnd -= step;
            }
        }
        self.cwnd = self.cwnd.max(MIN_CWND_MSS);
    }

    fn on_congestion_event(&mut self, _now: SimTime, _view: &FlowView) {
        self.loss_in_round = true;
        // Loss guard: halve at most once per RTT.
        if self.rounds.rounds() > self.last_loss_round {
            self.last_loss_round = self.rounds.rounds();
            self.cwnd = (self.cwnd / 2.0).max(MIN_CWND_MSS);
            self.v = 1.0;
            self.same_direction_rounds = 0;
            self.direction = -1;
        }
    }

    fn on_rto(&mut self, _now: SimTime, _view: &FlowView) {
        self.cwnd = MIN_CWND_MSS;
        self.v = 1.0;
        self.same_direction_rounds = 0;
    }

    fn cwnd_bytes(&self) -> u64 {
        round_u64(self.cwnd * self.mss)
    }

    fn pacing_rate(&self) -> Option<f64> {
        // Copa paces at 2·cwnd/RTT_standing to smooth bursts.
        let standing = self.rtt_standing.get()?;
        Some(2.0 * self.cwnd * self.mss / standing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_dumbbell;

    #[test]
    fn copa_alone_uses_link_with_low_delay() {
        let report = run_dumbbell(20.0, 40, 8.0, 30.0, vec![Box::new(Copa::new())]);
        let tp = report.flows[0].throughput_mbps();
        assert!(tp > 15.0, "copa throughput={tp}");
        // δ=0.5 targets only a few packets of queue — far below 8 BDP.
        let bdp = 20.0e6 / 8.0 * 0.04;
        assert!(
            report.queue.avg_occupancy_bytes < 0.5 * bdp,
            "queue={}",
            report.queue.avg_occupancy_bytes
        );
    }

    #[test]
    fn copa_loses_to_cubic() {
        // Fig. 7 of the paper: Copa stays below fair share against CUBIC.
        let report = run_dumbbell(
            50.0,
            40,
            2.0,
            60.0,
            vec![Box::new(Copa::new()), Box::new(crate::cubic::Cubic::new())],
        );
        let copa = report.flows[0].throughput_mbps();
        let cubic = report.flows[1].throughput_mbps();
        assert!(copa < cubic, "copa={copa} cubic={cubic}");
    }

    #[test]
    fn velocity_doubles_after_three_consistent_rounds() {
        let mut c = Copa::new();
        c.direction = 1;
        for _ in 0..3 {
            c.cwnd += 1.0;
            c.update_velocity();
        }
        assert!(c.v >= 2.0, "v={}", c.v);
    }

    #[test]
    fn loss_halves_at_most_once_per_round() {
        let mut c = Copa::new();
        c.cwnd = 64.0;
        // Advance one round so rounds() > last_loss_round.
        c.rounds.on_ack(0, 1500);
        let v = FlowView {
            mss: 1500,
            srtt: None,
            min_rtt: None,
            inflight_bytes: 0,
            delivered_bytes: 0,
            in_recovery: false,
        };
        c.on_congestion_event(SimTime::ZERO, &v);
        assert!((c.cwnd_mss() - 32.0).abs() < 1e-9);
        // Second loss in the same round: no further cut.
        c.on_congestion_event(SimTime::ZERO, &v);
        assert!((c.cwnd_mss() - 32.0).abs() < 1e-9);
    }
}
