//! BBRv1 (Cardwell et al., 2016/17; IETF draft-cardwell-iccrg-bbr-00).
//!
//! Faithful to the published state machine:
//!
//! * **Startup** — pacing gain 2/ln 2 ≈ 2.885; exits when the windowed
//!   bottleneck-bandwidth estimate grows < 25% across three consecutive
//!   round trips ("full pipe").
//! * **Drain** — inverse gain until in-flight ≤ 1 estimated BDP.
//! * **ProbeBW** — the 8-phase gain cycle `[1.25, 0.75, 1 ×6]`, one phase
//!   per RTprop; the 1.25 phase holds until a loss or 1.25·BDP in flight,
//!   the 0.75 phase exits early once in-flight ≤ 1 BDP.
//! * **ProbeRTT** — every 10 s, clamp cwnd to 4 MSS for max(200 ms, one
//!   round trip), then refresh RTprop and restore.
//!
//! The crucial property for the paper's model: in ProbeBW the congestion
//! window is capped at `cwnd_gain × BDP_est = 2 × BtlBw·RTprop`, so when
//! competing with buffer-filling CUBIC flows BBR becomes **cwnd-limited**
//! with ≈ 2·BDP in flight (model assumption 2), where the BDP estimate is
//! inflated by the RTprop over-estimate `RTT⁺` (model Eq. (9)).
//!
//! Simplifications vs. Linux `tcp_bbr.c`: no pacing-quantum shaping, no
//! idle-restart handling (flows are backlogged), and loss is ignored
//! except for RTO (v1 is loss-agnostic — model assumption 4).

use crate::util::{RoundCounter, WindowedMax};
use bbrdom_netsim::cc::{AckSample, CongestionControl, FlowView};
use bbrdom_netsim::time::{SimDuration, SimTime};
use bbrdom_netsim::units::round_u64;

/// Startup/Drain gain: 2/ln(2).
const HIGH_GAIN: f64 = 2.885;
/// ProbeBW pacing-gain cycle.
const GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// BtlBw max-filter window, in round trips.
const BTLBW_WINDOW_ROUNDS: u64 = 10;
/// RTprop validity window. In BBRv1 this doubles as the ProbeRTT
/// cadence: when the filter expires (no new minimum for 10 s), the flow
/// both accepts fresher samples and enters ProbeRTT.
const RTPROP_WINDOW: SimDuration = SimDuration(10_000_000_000);
/// Minimum time spent at the ProbeRTT floor.
const PROBE_RTT_DURATION: SimDuration = SimDuration(200_000_000);
/// cwnd gain while probing bandwidth (the 2×BDP in-flight cap).
const CWND_GAIN_PROBE_BW: f64 = 2.0;
/// ProbeRTT / absolute cwnd floor, in MSS.
const MIN_CWND_MSS: f64 = 4.0;
/// Initial window, in MSS.
const INIT_CWND_MSS: f64 = 10.0;

/// BBR state machine states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// BBR version 1.
#[derive(Debug, Clone)]
pub struct Bbr {
    mss: f64,
    state: State,
    rounds: RoundCounter,
    /// Windowed-max delivery-rate filter (bytes/s) over rounds.
    btlbw: WindowedMax,
    /// Minimum-RTT estimate and when it was last refreshed.
    rtprop: Option<f64>,
    rtprop_stamp: SimTime,
    /// Whether Startup saw the pipe fill.
    filled_pipe: bool,
    full_bw: f64,
    full_bw_count: u32,
    /// Gains currently in force.
    pacing_gain: f64,
    cwnd_gain: f64,
    /// ProbeBW cycle position and when the phase began.
    cycle_idx: usize,
    cycle_stamp: SimTime,
    /// ProbeRTT bookkeeping.
    probe_rtt_done_stamp: Option<SimTime>,
    probe_rtt_round_done: bool,
    probe_rtt_exit_round: u64,
    prev_cwnd: f64,
    /// Congestion window, bytes.
    cwnd: f64,
    /// Pacing rate, bytes/s (`None` until the first RTT/bandwidth sample).
    pacing: Option<f64>,
}

impl Bbr {
    /// `cycle_seed` randomizes the initial ProbeBW phase (Linux does this
    /// to de-synchronize flows); passing the flow index is sufficient.
    pub fn new(cycle_seed: u64) -> Self {
        // Any phase except the 0.75 drain phase (index 1), as in Linux.
        let mut idx = (cycle_seed % 7) as usize; // 0..=6
        if idx >= 1 {
            idx += 1; // skip index 1
        }
        Bbr {
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
            cwnd_gain: HIGH_GAIN,
            cycle_idx: idx,
            cycle_stamp: SimTime::ZERO,
            probe_rtt_done_stamp: None,
            probe_rtt_round_done: false,
            probe_rtt_exit_round: 0,
            prev_cwnd: 0.0,
            cwnd: INIT_CWND_MSS * 1500.0,
            pacing: None,
        }
    }

    /// Current state (exposed for tests and experiment instrumentation).
    pub fn state(&self) -> State {
        self.state
    }

    /// Current bottleneck-bandwidth estimate (bytes/s).
    pub fn btlbw_estimate(&self) -> Option<f64> {
        self.btlbw.get()
    }

    /// Current min-RTT estimate (seconds).
    pub fn rtprop_estimate(&self) -> Option<f64> {
        self.rtprop
    }

    /// Estimated BDP in bytes, if both estimates exist.
    fn bdp(&self) -> Option<f64> {
        Some(self.btlbw.get()? * self.rtprop?)
    }

    fn target_inflight(&self, gain: f64) -> Option<f64> {
        Some((self.bdp()? * gain).max(MIN_CWND_MSS * self.mss))
    }

    fn min_cwnd(&self) -> f64 {
        MIN_CWND_MSS * self.mss
    }

    fn enter_probe_bw(&mut self, now: SimTime) {
        self.state = State::ProbeBw;
        self.pacing_gain = GAIN_CYCLE[self.cycle_idx];
        self.cwnd_gain = CWND_GAIN_PROBE_BW;
        self.cycle_stamp = now;
    }

    fn advance_cycle(&mut self, now: SimTime) {
        self.cycle_idx = (self.cycle_idx + 1) % GAIN_CYCLE.len();
        self.pacing_gain = GAIN_CYCLE[self.cycle_idx];
        self.cycle_stamp = now;
    }

    fn check_cycle_phase(&mut self, ack: &AckSample) {
        if self.state != State::ProbeBw {
            return;
        }
        let rtprop = match self.rtprop {
            Some(r) => r,
            None => return,
        };
        let elapsed = (ack.now.saturating_since(self.cycle_stamp)).as_secs_f64() > rtprop;
        let inflight = ack.inflight_bytes as f64;
        let next = if self.pacing_gain > 1.0 {
            elapsed
                && (ack.newly_lost_bytes > 0
                    || self
                        .target_inflight(self.pacing_gain)
                        .is_some_and(|t| inflight >= t))
        } else if self.pacing_gain < 1.0 {
            elapsed || self.target_inflight(1.0).is_some_and(|t| inflight <= t)
        } else {
            elapsed
        };
        if next {
            self.advance_cycle(ack.now);
        }
    }

    fn check_full_pipe(&mut self) {
        if self.filled_pipe || !self.rounds.round_start() {
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
        match self.state {
            State::Startup => {
                self.check_full_pipe();
                if self.filled_pipe {
                    self.state = State::Drain;
                    self.pacing_gain = 1.0 / HIGH_GAIN;
                    self.cwnd_gain = HIGH_GAIN;
                }
            }
            State::Drain => {
                if self
                    .target_inflight(1.0)
                    .is_some_and(|t| (ack.inflight_bytes as f64) <= t)
                {
                    self.enter_probe_bw(ack.now);
                }
            }
            State::ProbeBw => {
                self.check_cycle_phase(ack);
            }
            State::ProbeRtt => {}
        }
    }

    /// Accept an RTT sample into the RTprop filter. `expired` must be
    /// computed *before* this call (draft `UpdateRTprop`): the same flag
    /// also drives ProbeRTT entry, and recomputing it after the stamp
    /// refresh here would mean ProbeRTT never fires and the RTprop
    /// estimate ratchets upward forever on a never-empty queue.
    fn update_rtprop(&mut self, ack: &AckSample, expired: bool) {
        if let Some(rtt) = ack.rtt {
            let r = rtt.as_secs_f64();
            if self.rtprop.is_none() || expired || r <= self.rtprop.unwrap() {
                self.rtprop = Some(r);
                self.rtprop_stamp = ack.now;
            }
        }
    }

    fn handle_probe_rtt(&mut self, ack: &AckSample, expired: bool) {
        if self.state != State::ProbeRtt && expired && self.rtprop.is_some() {
            // Enter ProbeRTT.
            self.state = State::ProbeRtt;
            self.pacing_gain = 1.0;
            self.cwnd_gain = 1.0;
            self.prev_cwnd = self.cwnd;
            self.probe_rtt_done_stamp = None;
        }
        if self.state == State::ProbeRtt {
            // Clamp the window to the ProbeRTT floor.
            self.cwnd = self.cwnd.min(self.min_cwnd());
            if self.probe_rtt_done_stamp.is_none() && (ack.inflight_bytes as f64) <= self.min_cwnd()
            {
                self.probe_rtt_done_stamp = Some(ack.now + PROBE_RTT_DURATION);
                self.probe_rtt_round_done = false;
                self.probe_rtt_exit_round = self.rounds.rounds() + 1;
            }
            if let Some(done) = self.probe_rtt_done_stamp {
                if self.rounds.rounds() >= self.probe_rtt_exit_round {
                    self.probe_rtt_round_done = true;
                }
                if self.probe_rtt_round_done && ack.now >= done {
                    // Exit ProbeRTT: refresh the RTprop stamp and restore.
                    self.rtprop_stamp = ack.now;
                    self.cwnd = self.cwnd.max(self.prev_cwnd);
                    if self.filled_pipe {
                        self.enter_probe_bw(ack.now);
                    } else {
                        self.state = State::Startup;
                        self.pacing_gain = HIGH_GAIN;
                        self.cwnd_gain = HIGH_GAIN;
                    }
                }
            }
        }
    }

    fn update_control(&mut self, ack: &AckSample) {
        // Pacing: gain × BtlBw. Before the pipe is filled, never let the
        // rate decrease (startup needs monotone probing).
        if let (Some(bw), Some(_)) = (self.btlbw.get(), self.rtprop) {
            let rate = self.pacing_gain * bw;
            match self.pacing {
                Some(cur) if !self.filled_pipe && rate < cur => {}
                _ => self.pacing = Some(rate.max(1.0)),
            }
        }
        // cwnd: grow toward cwnd_gain × BDP.
        if self.state == State::ProbeRtt {
            self.cwnd = self.cwnd.min(self.min_cwnd());
            return;
        }
        if let Some(target) = self.target_inflight(self.cwnd_gain) {
            if self.filled_pipe {
                self.cwnd = (self.cwnd + ack.acked_bytes as f64).min(target);
            } else {
                // Startup: always grow; the pacing rate is the brake.
                self.cwnd += ack.acked_bytes as f64;
            }
        } else {
            self.cwnd += ack.acked_bytes as f64;
        }
        self.cwnd = self.cwnd.max(self.min_cwnd());
    }
}

impl CongestionControl for Bbr {
    fn name(&self) -> &'static str {
        "bbr"
    }

    fn on_ack(&mut self, ack: &AckSample, view: &FlowView) {
        self.mss = view.mss as f64;
        self.rounds
            .on_ack(ack.packet_delivered_at_send, ack.delivered_total);
        if let Some(rate) = ack.delivery_rate {
            self.btlbw.update(self.rounds.rounds(), rate);
        } else if self.rounds.round_start() {
            self.btlbw.expire(self.rounds.rounds());
        }
        let rtprop_expired = ack.now.saturating_since(self.rtprop_stamp) > RTPROP_WINDOW;
        self.update_rtprop(ack, rtprop_expired);
        self.update_state_machine(ack);
        self.handle_probe_rtt(ack, rtprop_expired);
        self.update_control(ack);
    }

    fn on_congestion_event(&mut self, _now: SimTime, _view: &FlowView) {
        // BBRv1 is loss-agnostic (model assumption 4).
    }

    fn on_rto(&mut self, _now: SimTime, _view: &FlowView) {
        // Conservative collapse; the window re-grows from ACKs.
        self.prev_cwnd = self.cwnd.max(self.prev_cwnd);
        self.cwnd = self.min_cwnd();
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
    fn cycle_seed_never_starts_in_drain_phase() {
        for seed in 0..20 {
            let b = Bbr::new(seed);
            assert_ne!(b.cycle_idx, 1, "seed {seed} started at the 0.75 phase");
        }
    }

    #[test]
    fn single_bbr_flow_fills_link() {
        let report = run_dumbbell(20.0, 40, 2.0, 30.0, vec![Box::new(Bbr::new(0))]);
        let tp = report.flows[0].throughput_mbps();
        assert!(tp > 18.0, "bbr throughput={tp}");
    }

    #[test]
    fn bbr_keeps_queue_small_when_alone() {
        // Alone, BBR should not fill a deep buffer: its in-flight cap is
        // 2×BDP against a true BDP, so queue ≲ 1 BDP on average.
        let report = run_dumbbell(20.0, 40, 10.0, 30.0, vec![Box::new(Bbr::new(0))]);
        let bdp = 20.0e6 / 8.0 * 0.040;
        assert!(
            report.queue.avg_occupancy_bytes < 1.5 * bdp,
            "avg queue {} vs bdp {}",
            report.queue.avg_occupancy_bytes,
            bdp
        );
    }

    #[test]
    fn bbr_estimates_bandwidth_and_rtt() {
        let rate_mbps = 20.0;
        let mut sim = {
            use bbrdom_netsim::{FlowConfig, Rate, SimConfig, SimDuration, Simulator};
            let rate = Rate::from_mbps(rate_mbps);
            let rtt = SimDuration::from_millis(40);
            let buf = bbrdom_netsim::units::buffer_bytes(rate, rtt, 2.0);
            let mut sim =
                Simulator::new(SimConfig::new(rate, buf, SimDuration::from_secs_f64(15.0)));
            sim.add_flow(FlowConfig::new(Box::new(Bbr::new(0)), rtt));
            sim
        };
        let report = sim.run();
        // Through the report we only see throughput; estimate quality shows
        // as achieving ~full rate, with loss confined to the Startup
        // overshoot (BBRv1 famously bursts while probing for the ceiling,
        // then runs loss-free alone: its steady-state inflight is 2×BDP
        // against 3×BDP of capacity here).
        assert!(report.flows[0].throughput_mbps() > 0.9 * rate_mbps);
        let sent_packets = report.flows[0].sent_bytes / 1500;
        assert!(
            (report.flows[0].lost_packets as f64) < 0.05 * sent_packets as f64,
            "loss {} of {} sent",
            report.flows[0].lost_packets,
            sent_packets
        );
    }

    #[test]
    fn bbr_loss_is_startup_only_when_alone() {
        // Losses must not grow with run length: they all happen in the
        // Startup overshoot.
        let short = run_dumbbell(20.0, 40, 2.0, 15.0, vec![Box::new(Bbr::new(0))]);
        let long = run_dumbbell(20.0, 40, 2.0, 60.0, vec![Box::new(Bbr::new(0))]);
        assert_eq!(
            short.flows[0].lost_packets, long.flows[0].lost_packets,
            "steady-state BBR alone must be loss-free"
        );
    }

    #[test]
    fn two_bbr_flows_share_fairly() {
        let report = run_dumbbell(
            20.0,
            40,
            4.0,
            60.0,
            vec![Box::new(Bbr::new(0)), Box::new(Bbr::new(1))],
        );
        let t0 = report.flows[0].throughput_mbps();
        let t1 = report.flows[1].throughput_mbps();
        let total = t0 + t1;
        assert!(total > 18.0, "total={total}");
        let jain = total * total / (2.0 * (t0 * t0 + t1 * t1));
        assert!(jain > 0.85, "jain={jain} (t0={t0}, t1={t1})");
    }

    #[test]
    fn bbr_beats_cubic_in_shallow_buffer() {
        // Hock et al. / Ware et al.: in shallow buffers BBR takes more
        // than its fair share from CUBIC.
        let report = run_dumbbell(
            50.0,
            40,
            1.0,
            60.0,
            vec![Box::new(Bbr::new(0)), Box::new(crate::cubic::Cubic::new())],
        );
        let bbr = report.flows[0].throughput_mbps();
        let cubic = report.flows[1].throughput_mbps();
        assert!(bbr > cubic, "bbr={bbr} cubic={cubic}");
    }

    #[test]
    fn cubic_gains_ground_in_deep_buffer() {
        // The paper's Fig. 3: BBR's share falls as the buffer deepens,
        // because its 2×BDP in-flight cap limits its queue share while
        // CUBIC fills the rest.
        let shallow = run_dumbbell(
            50.0,
            40,
            2.0,
            60.0,
            vec![Box::new(Bbr::new(0)), Box::new(crate::cubic::Cubic::new())],
        );
        let deep = run_dumbbell(
            50.0,
            40,
            16.0,
            60.0,
            vec![Box::new(Bbr::new(0)), Box::new(crate::cubic::Cubic::new())],
        );
        let bbr_shallow = shallow.flows[0].throughput_mbps();
        let bbr_deep = deep.flows[0].throughput_mbps();
        assert!(
            bbr_deep < bbr_shallow,
            "bbr share should fall with buffer depth: shallow={bbr_shallow} deep={bbr_deep}"
        );
    }
}
