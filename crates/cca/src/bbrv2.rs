//! BBRv2 (IETF draft-cardwell-iccrg-bbr-congestion-control-02, 2019 —
//! the version the paper evaluated).
//!
//! BBRv2 keeps v1's model-based core (BtlBw × RTprop) but bounds it with
//! loss feedback, which is exactly why the paper finds its Nash
//! Equilibria contain *more CUBIC flows* than v1's (Fig. 11):
//!
//! * **`inflight_hi`** — a hard upper bound learned from loss: when the
//!   per-round loss rate during bandwidth probing exceeds 2%, the current
//!   in-flight volume becomes the ceiling.
//! * **`inflight_lo`** — a short-term bound set to `β = 0.7` of the
//!   window on each congestion event (a CUBIC-like multiplicative cut),
//!   released at the next probe (REFILL).
//! * **Headroom** — while cruising, BBRv2 only uses 85% of
//!   `inflight_hi`, leaving room for other flows.
//! * **ProbeBW sub-states** — DOWN (0.75) → CRUISE (1.0) → REFILL (1.0)
//!   → UP (1.25), with probes spaced seconds apart instead of every
//!   8 RTTs.
//! * **ProbeRTT** every 5 s to `0.5 × BDP` (gentler than v1's 4 packets).
//!
//! Simplifications vs. Linux `tcp_bbr2.c`: no ECN support, no `bw_lo`
//! bandwidth bound (the in-flight bounds dominate in drop-tail
//! bottlenecks), and deterministic probe spacing derived from the
//! per-flow seed instead of a random 2–3 s draw.

use crate::util::{RoundCounter, WindowedMax};
use bbrdom_netsim::cc::{AckSample, CongestionControl, FlowView};
use bbrdom_netsim::time::{SimDuration, SimTime};
use bbrdom_netsim::units::round_u64;

const HIGH_GAIN: f64 = 2.885;
const BETA: f64 = 0.7;
const LOSS_THRESH: f64 = 0.02;
const HEADROOM: f64 = 0.85;
const BTLBW_WINDOW_ROUNDS: u64 = 10;
const RTPROP_WINDOW: SimDuration = SimDuration(10_000_000_000);
const PROBE_RTT_INTERVAL: SimDuration = SimDuration(5_000_000_000);
const PROBE_RTT_DURATION: SimDuration = SimDuration(200_000_000);
const CWND_GAIN: f64 = 2.0;
const MIN_CWND_MSS: f64 = 4.0;
const INIT_CWND_MSS: f64 = 10.0;

/// BBRv2 state machine states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    Startup,
    Drain,
    ProbeBwDown,
    ProbeBwCruise,
    ProbeBwRefill,
    ProbeBwUp,
    ProbeRtt,
}

/// BBR version 2.
#[derive(Debug, Clone)]
pub struct BbrV2 {
    mss: f64,
    state: State,
    rounds: RoundCounter,
    btlbw: WindowedMax,
    rtprop: Option<f64>,
    rtprop_stamp: SimTime,
    filled_pipe: bool,
    full_bw: f64,
    full_bw_count: u32,
    pacing_gain: f64,
    /// Loss-learned in-flight ceiling (bytes).
    inflight_hi: f64,
    /// Short-term in-flight bound from the last congestion event (bytes).
    inflight_lo: f64,
    /// Loss accounting for the current round.
    round_lost_bytes: u64,
    round_delivered_bytes: u64,
    loss_events_in_startup_round: u32,
    startup_lossy_rounds: u32,
    /// When the current ProbeBW sub-state began.
    cycle_stamp: SimTime,
    /// Seconds to cruise between probes (seed-derived, 2–3 s).
    probe_wait_secs: f64,
    refill_done_round: u64,
    probe_rtt_done_stamp: Option<SimTime>,
    probe_rtt_exit_round: u64,
    prev_cwnd: f64,
    cwnd: f64,
    pacing: Option<f64>,
}

impl BbrV2 {
    pub fn new(seed: u64) -> Self {
        BbrV2 {
            mss: 1500.0,
            state: State::Startup,
            rounds: RoundCounter::new(),
            btlbw: WindowedMax::new(BTLBW_WINDOW_ROUNDS),
            rtprop: None,
            rtprop_stamp: SimTime::ZERO,
            filled_pipe: false,
            full_bw: 0.0,
            full_bw_count: 0,
            pacing_gain: HIGH_GAIN,
            inflight_hi: f64::INFINITY,
            inflight_lo: f64::INFINITY,
            round_lost_bytes: 0,
            round_delivered_bytes: 0,
            loss_events_in_startup_round: 0,
            startup_lossy_rounds: 0,
            cycle_stamp: SimTime::ZERO,
            probe_wait_secs: 2.0 + (seed % 1000) as f64 / 1000.0,
            refill_done_round: 0,
            probe_rtt_done_stamp: None,
            probe_rtt_exit_round: 0,
            prev_cwnd: 0.0,
            cwnd: INIT_CWND_MSS * 1500.0,
            pacing: None,
        }
    }

    pub fn state(&self) -> State {
        self.state
    }

    pub fn inflight_hi(&self) -> f64 {
        self.inflight_hi
    }

    fn bdp(&self) -> Option<f64> {
        Some(self.btlbw.get()? * self.rtprop?)
    }

    fn min_cwnd(&self) -> f64 {
        MIN_CWND_MSS * self.mss
    }

    fn enter_down(&mut self, now: SimTime) {
        self.state = State::ProbeBwDown;
        self.pacing_gain = 0.75;
        self.cycle_stamp = now;
    }

    fn enter_cruise(&mut self, now: SimTime) {
        self.state = State::ProbeBwCruise;
        self.pacing_gain = 1.0;
        self.cycle_stamp = now;
    }

    fn enter_refill(&mut self, now: SimTime) {
        self.state = State::ProbeBwRefill;
        self.pacing_gain = 1.0;
        self.cycle_stamp = now;
        // Release the short-term bound before probing.
        self.inflight_lo = f64::INFINITY;
        self.refill_done_round = self.rounds.rounds() + 1;
    }

    fn enter_up(&mut self, now: SimTime) {
        self.state = State::ProbeBwUp;
        self.pacing_gain = 1.25;
        self.cycle_stamp = now;
    }

    fn round_loss_rate(&self) -> f64 {
        let total = self.round_lost_bytes + self.round_delivered_bytes;
        if total == 0 {
            0.0
        } else {
            self.round_lost_bytes as f64 / total as f64
        }
    }

    fn check_full_pipe(&mut self) {
        if self.filled_pipe || !self.rounds.round_start() {
            return;
        }
        // Loss-based startup exit (new in v2): two consecutive lossy
        // rounds mean the pipe is overfull even if bandwidth still grows.
        if self.round_loss_rate() > LOSS_THRESH && self.loss_events_in_startup_round > 0 {
            self.startup_lossy_rounds += 1;
        } else {
            self.startup_lossy_rounds = 0;
        }
        if self.startup_lossy_rounds >= 2 {
            self.filled_pipe = true;
            return;
        }
        let bw = match self.btlbw.get() {
            Some(b) => b,
            None => return,
        };
        if bw >= self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
            return;
        }
        self.full_bw_count += 1;
        if self.full_bw_count >= 3 {
            self.filled_pipe = true;
        }
    }

    fn update_state_machine(&mut self, ack: &AckSample) {
        let inflight = ack.inflight_bytes as f64;
        match self.state {
            State::Startup => {
                self.check_full_pipe();
                if self.filled_pipe {
                    self.state = State::Drain;
                    self.pacing_gain = 1.0 / HIGH_GAIN;
                }
            }
            State::Drain => {
                if self.bdp().is_some_and(|b| inflight <= b) {
                    self.enter_down(ack.now);
                }
            }
            State::ProbeBwDown => {
                let target = self
                    .bdp()
                    .map(|b| (HEADROOM * self.inflight_hi).max(b))
                    .unwrap_or(f64::INFINITY);
                if inflight <= target.min(self.inflight_hi * HEADROOM)
                    || self.bdp().is_some_and(|b| inflight <= b)
                {
                    self.enter_cruise(ack.now);
                }
            }
            State::ProbeBwCruise => {
                let elapsed = ack.now.saturating_since(self.cycle_stamp).as_secs_f64();
                if elapsed > self.probe_wait_secs {
                    self.enter_refill(ack.now);
                }
            }
            State::ProbeBwRefill => {
                if self.rounds.rounds() >= self.refill_done_round {
                    self.enter_up(ack.now);
                }
            }
            State::ProbeBwUp => {
                let rtprop = self.rtprop.unwrap_or(0.1);
                let elapsed = ack.now.saturating_since(self.cycle_stamp).as_secs_f64() > rtprop;
                let too_high = self.round_loss_rate() > LOSS_THRESH;
                if too_high {
                    // Loss ceiling found: remember it and back down.
                    self.inflight_hi = inflight.max(self.bdp().unwrap_or(inflight));
                    self.enter_down(ack.now);
                } else if elapsed && self.bdp().is_some_and(|b| inflight >= 1.25 * b) {
                    // Probe achieved its volume without excessive loss:
                    // raise the ceiling and back down.
                    if self.inflight_hi.is_finite() {
                        self.inflight_hi = self.inflight_hi.max(inflight);
                    }
                    self.enter_down(ack.now);
                }
            }
            State::ProbeRtt => {}
        }
    }

    /// Accept an RTT sample into the RTprop filter. `expired` is
    /// computed before any stamp refresh (see the BBRv1 note: reading
    /// the stamp after this update would suppress ProbeRTT forever and
    /// ratchet the estimate upward).
    fn update_rtprop(&mut self, ack: &AckSample, expired: bool) {
        if let Some(rtt) = ack.rtt {
            let r = rtt.as_secs_f64();
            if self.rtprop.is_none() || expired || r <= self.rtprop.unwrap() {
                self.rtprop = Some(r);
                self.rtprop_stamp = ack.now;
            }
        }
    }

    fn probe_rtt_cwnd(&self) -> f64 {
        match self.bdp() {
            Some(b) => (0.5 * b).max(self.min_cwnd()),
            None => self.min_cwnd(),
        }
    }

    fn handle_probe_rtt(&mut self, ack: &AckSample, due: bool) {
        if self.state != State::ProbeRtt && due && self.rtprop.is_some() {
            self.state = State::ProbeRtt;
            self.pacing_gain = 1.0;
            self.prev_cwnd = self.cwnd;
            self.probe_rtt_done_stamp = None;
        }
        if self.state == State::ProbeRtt {
            let floor = self.probe_rtt_cwnd();
            self.cwnd = self.cwnd.min(floor);
            if self.probe_rtt_done_stamp.is_none() && (ack.inflight_bytes as f64) <= floor {
                self.probe_rtt_done_stamp = Some(ack.now + PROBE_RTT_DURATION);
                self.probe_rtt_exit_round = self.rounds.rounds() + 1;
            }
            if let Some(done) = self.probe_rtt_done_stamp {
                if ack.now >= done && self.rounds.rounds() >= self.probe_rtt_exit_round {
                    self.rtprop_stamp = ack.now;
                    self.cwnd = self.cwnd.max(self.prev_cwnd);
                    if self.filled_pipe {
                        self.enter_down(ack.now);
                    } else {
                        self.state = State::Startup;
                        self.pacing_gain = HIGH_GAIN;
                    }
                }
            }
        }
    }

    fn cwnd_bound(&self) -> f64 {
        let mut bound = self.inflight_lo.min(match self.state {
            // Cruising leaves headroom below the loss ceiling.
            State::ProbeBwCruise => HEADROOM * self.inflight_hi,
            _ => self.inflight_hi,
        });
        if let Some(bdp) = self.bdp() {
            bound = bound.min(CWND_GAIN * bdp);
        }
        bound.max(self.min_cwnd())
    }

    fn update_control(&mut self, ack: &AckSample) {
        if let Some(bw) = self.btlbw.get() {
            let rate = self.pacing_gain * bw;
            match self.pacing {
                Some(cur) if !self.filled_pipe && rate < cur => {}
                _ => self.pacing = Some(rate.max(1.0)),
            }
        }
        if self.state == State::ProbeRtt {
            return; // already clamped in handle_probe_rtt
        }
        let bound = self.cwnd_bound();
        if self.filled_pipe {
            self.cwnd = (self.cwnd + ack.acked_bytes as f64).min(bound);
        } else {
            self.cwnd += ack.acked_bytes as f64;
        }
        self.cwnd = self.cwnd.max(self.min_cwnd());
    }
}

impl CongestionControl for BbrV2 {
    fn name(&self) -> &'static str {
        "bbrv2"
    }

    fn on_ack(&mut self, ack: &AckSample, view: &FlowView) {
        self.mss = view.mss as f64;
        self.rounds
            .on_ack(ack.packet_delivered_at_send, ack.delivered_total);
        if self.rounds.round_start() {
            self.round_lost_bytes = 0;
            self.round_delivered_bytes = 0;
            self.loss_events_in_startup_round = 0;
        }
        self.round_delivered_bytes += ack.acked_bytes;
        self.round_lost_bytes += ack.newly_lost_bytes;
        if let Some(rate) = ack.delivery_rate {
            self.btlbw.update(self.rounds.rounds(), rate);
        } else if self.rounds.round_start() {
            self.btlbw.expire(self.rounds.rounds());
        }
        let filter_expired = ack.now.saturating_since(self.rtprop_stamp) > RTPROP_WINDOW;
        let probe_due = ack.now.saturating_since(self.rtprop_stamp) > PROBE_RTT_INTERVAL;
        self.update_rtprop(ack, filter_expired);
        self.update_state_machine(ack);
        self.handle_probe_rtt(ack, probe_due);
        self.update_control(ack);
    }

    fn on_congestion_event(&mut self, _now: SimTime, _view: &FlowView) {
        self.loss_events_in_startup_round += 1;
        // v2's CUBIC-like short-term reaction: β cut via inflight_lo.
        let basis = self.cwnd;
        self.inflight_lo = (BETA * basis).max(self.min_cwnd());
        if self.cwnd > self.inflight_lo {
            self.cwnd = self.inflight_lo;
        }
        // Loss while probing up also caps inflight_hi (handled per-round
        // via the loss-rate check in update_state_machine; a direct event
        // during UP means the probe hit the ceiling).
        if self.state == State::ProbeBwUp {
            let ceiling = self.cwnd.max(self.bdp().unwrap_or(self.cwnd));
            self.inflight_hi = if self.inflight_hi.is_finite() {
                self.inflight_hi.min(ceiling)
            } else {
                ceiling
            };
        }
    }

    fn on_rto(&mut self, _now: SimTime, _view: &FlowView) {
        self.prev_cwnd = self.cwnd.max(self.prev_cwnd);
        self.cwnd = self.min_cwnd();
        self.inflight_lo = f64::INFINITY;
    }

    fn cwnd_bytes(&self) -> u64 {
        round_u64(self.cwnd)
    }

    fn pacing_rate(&self) -> Option<f64> {
        self.pacing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_dumbbell;

    #[test]
    fn single_bbrv2_flow_fills_link() {
        let report = run_dumbbell(20.0, 40, 2.0, 30.0, vec![Box::new(BbrV2::new(0))]);
        let tp = report.flows[0].throughput_mbps();
        assert!(tp > 17.0, "bbrv2 throughput={tp}");
    }

    #[test]
    fn bbrv2_reacts_to_loss() {
        let mut b = BbrV2::new(0);
        b.cwnd = 100_000.0;
        let v = FlowView {
            mss: 1500,
            srtt: None,
            min_rtt: None,
            inflight_bytes: 0,
            delivered_bytes: 0,
            in_recovery: false,
        };
        b.on_congestion_event(SimTime::ZERO, &v);
        assert!((b.cwnd - 70_000.0).abs() < 1.0, "cwnd={}", b.cwnd);
    }

    #[test]
    fn bbrv2_less_aggressive_than_v1_against_cubic() {
        // Fig. 7/11 of the paper: BBRv2 takes a smaller share from CUBIC
        // than BBRv1 does, in a shallow buffer.
        let v1 = run_dumbbell(
            50.0,
            40,
            1.0,
            60.0,
            vec![
                Box::new(crate::bbr::Bbr::new(0)),
                Box::new(crate::cubic::Cubic::new()),
            ],
        );
        let v2 = run_dumbbell(
            50.0,
            40,
            1.0,
            60.0,
            vec![
                Box::new(BbrV2::new(0)),
                Box::new(crate::cubic::Cubic::new()),
            ],
        );
        let share_v1 = v1.flows[0].throughput_mbps();
        let share_v2 = v2.flows[0].throughput_mbps();
        assert!(
            share_v2 < share_v1,
            "v2 should be gentler: v1={share_v1} v2={share_v2}"
        );
    }

    #[test]
    fn probe_wait_is_seed_dependent_but_bounded() {
        for seed in 0..10 {
            let b = BbrV2::new(seed);
            assert!(b.probe_wait_secs >= 2.0 && b.probe_wait_secs < 3.0);
        }
    }
}
