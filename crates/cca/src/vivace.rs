//! PCC Vivace (Dong et al., NSDI '18): online-learning rate control.
//!
//! Vivace ignores the TCP machinery entirely and performs gradient-style
//! ascent on a utility function measured over *monitor intervals* (MIs):
//!
//! ```text
//! u(x) = x^0.9 − b·x·(dRTT/dt) − c·x·L        x: throughput (Mbps)
//! ```
//!
//! with `b = 900`, `c = 11.35` (the paper's defaults). The latency term
//! penalizes RTT *growth* (not absolute delay), and the loss coefficient
//! tolerates moderate loss — which is why Vivace, like BBR, can take a
//! disproportionate bandwidth share from CUBIC (paper Fig. 7).
//!
//! Implementation notes, mirroring the PCC reference behaviour:
//!
//! * **Send-time attribution.** An MI's utility is computed from the
//!   ACKs of packets *sent during* that MI, which arrive roughly one RTT
//!   later. (Attributing by ACK arrival time measures the previous MI's
//!   rate and makes every up-probe look useless — the controller then
//!   walks the rate to the floor.) Because the bottleneck is FIFO,
//!   per-flow delivery is in order: an ACK for a packet sent after an
//!   MI's end proves all of that MI's packets have been ACKed or lost,
//!   which is our finalization signal.
//! * **Latency-inflation dead zone.** RTT gradients below the dead zone are
//!   noise; without the filter the 900× coefficient annihilates every
//!   probe.
//! * Slow start doubles the rate each MI until utility drops; then
//!   paired `r(1±ε)` probes with a confidence-amplified step (the
//!   paper's `m`), coasting at the base rate while a pair's ACKs drain.

use bbrdom_netsim::cc::{AckSample, CongestionControl, FlowView};
use bbrdom_netsim::time::SimTime;
use std::collections::VecDeque;

/// Utility exponent on throughput.
const EXPONENT: f64 = 0.9;
/// Latency-gradient penalty coefficient.
const B_LATENCY: f64 = 900.0;
/// Loss penalty coefficient.
const C_LOSS: f64 = 11.35;
/// Probe amplitude ε.
const EPSILON: f64 = 0.05;
/// Latency-inflation dead zone (s/s). RTT growth slower than this is
/// treated as noise, as in the PCC reference implementation's
/// latency-inflation filter. The value sits above the ramp rate of a
/// competing CUBIC's window growth (≈ 0.03 s/s at the paper's settings)
/// but below Vivace's own overshoot signature, which is what makes
/// Vivace compete with loss-based flows instead of yielding to them.
const GRADIENT_DEAD_ZONE: f64 = 0.035;
/// Base step as a fraction of the rate.
const STEP_BASE: f64 = 0.02;
/// Maximum step as a fraction of the rate.
const STEP_MAX: f64 = 0.20;
/// Minimum sending rate, bytes/s (≈ 0.3 Mbps).
const MIN_RATE: f64 = 37_500.0;
/// Minimum monitor-interval length, seconds.
const MIN_MI: f64 = 0.01;

/// What a monitor interval was testing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MiRole {
    /// Slow start: rate doubled from the previous MI.
    SlowStart,
    /// First probe of a pair, at `r(1+ε)`.
    ProbeUp,
    /// Second probe of a pair, at `r(1−ε)`.
    ProbeDown,
    /// Coasting at the base rate (no decision attached).
    Neutral,
}

/// One monitor interval's accounting.
#[derive(Debug, Clone, Copy)]
struct Mi {
    role: MiRole,
    start: SimTime,
    /// Set when the sender moves on to the next MI.
    end: Option<SimTime>,
    /// The sending rate during this MI, bytes/s.
    rate: f64,
    acked_bytes: u64,
    lost_bytes: u64,
    first_rtt: Option<(SimTime, f64)>,
    last_rtt: Option<(SimTime, f64)>,
}

impl Mi {
    fn new(role: MiRole, start: SimTime, rate: f64) -> Self {
        Mi {
            role,
            start,
            end: None,
            rate,
            acked_bytes: 0,
            lost_bytes: 0,
            first_rtt: None,
            last_rtt: None,
        }
    }

    fn contains(&self, t: SimTime) -> bool {
        t >= self.start && self.end.is_none_or(|e| t < e)
    }

    /// Vivace utility of this (finished) MI.
    fn utility(&self) -> f64 {
        let end = self.end.expect("utility of an open MI");
        let elapsed = end.saturating_since(self.start).as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let throughput_mbps = self.acked_bytes as f64 * 8.0 / 1e6 / elapsed;
        let total = self.acked_bytes + self.lost_bytes;
        let loss_rate = if total == 0 {
            0.0
        } else {
            self.lost_bytes as f64 / total as f64
        };
        let raw_gradient = match (self.first_rtt, self.last_rtt) {
            (Some((t0, r0)), Some((t1, r1))) if t1 > t0 => (r1 - r0) / (t1 - t0).as_secs_f64(),
            _ => 0.0,
        };
        let rtt_gradient = if raw_gradient.abs() < GRADIENT_DEAD_ZONE {
            0.0
        } else {
            raw_gradient
        };
        throughput_mbps.powf(EXPONENT)
            - B_LATENCY * throughput_mbps * rtt_gradient.max(0.0)
            - C_LOSS * throughput_mbps * loss_rate
    }
}

/// Controller phase (what the *next* MI should test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    SlowStart,
    /// Send the `r(1+ε)` probe next.
    ProbePairUp,
    /// Send the `r(1−ε)` probe next.
    ProbePairDown,
    /// Coast until the outstanding pair's utilities arrive.
    Waiting,
}

/// PCC Vivace congestion control.
#[derive(Debug, Clone)]
pub struct Vivace {
    mss: f64,
    phase: Phase,
    /// Base sending rate, bytes/s.
    rate: f64,
    /// Utility of the previous slow-start MI.
    prev_utility: Option<f64>,
    /// Utility of the pending pair's up-probe.
    pending_up: Option<f64>,
    /// Consecutive same-direction moves (confidence amplifier `m`).
    streak: u32,
    last_direction: i8,
    /// Open + unfinalized MIs, oldest first.
    mis: VecDeque<Mi>,
    /// MI length: max(srtt, MIN_MI), captured at MI start.
    mi_len: f64,
    started: bool,
}

impl Vivace {
    pub fn new(_seed: u64) -> Self {
        Vivace {
            mss: 1500.0,
            phase: Phase::SlowStart,
            rate: 10.0 * 1500.0 / 0.04, // ≈ 3 Mbps starting point
            prev_utility: None,
            pending_up: None,
            streak: 0,
            last_direction: 0,
            mis: VecDeque::new(),
            mi_len: MIN_MI,
            started: false,
        }
    }

    /// Current base rate, bytes/s.
    pub fn rate_bytes_per_sec(&self) -> f64 {
        self.rate
    }

    /// Rate for an MI with the given role.
    fn rate_for(&self, role: MiRole) -> f64 {
        match role {
            MiRole::ProbeUp => self.rate * (1.0 + EPSILON),
            MiRole::ProbeDown => self.rate * (1.0 - EPSILON),
            _ => self.rate,
        }
    }

    fn current_mi_rate(&self) -> f64 {
        self.mis.back().map(|m| m.rate).unwrap_or(self.rate)
    }

    fn step_fraction(&self) -> f64 {
        (STEP_BASE * (1 + self.streak) as f64).min(STEP_MAX)
    }

    /// Open the next MI according to the controller phase.
    fn open_next_mi(&mut self, now: SimTime, srtt: f64) {
        let role = match self.phase {
            Phase::SlowStart => MiRole::SlowStart,
            Phase::ProbePairUp => {
                self.phase = Phase::ProbePairDown;
                MiRole::ProbeUp
            }
            Phase::ProbePairDown => {
                self.phase = Phase::Waiting;
                MiRole::ProbeDown
            }
            Phase::Waiting => MiRole::Neutral,
        };
        let rate = self.rate_for(role);
        self.mis.push_back(Mi::new(role, now, rate));
        self.mi_len = srtt.max(MIN_MI);
        // Bound memory if finalization stalls (e.g. heavy loss).
        while self.mis.len() > 64 {
            self.mis.pop_front();
        }
    }

    /// Consume a finalized MI's utility.
    fn on_mi_utility(&mut self, role: MiRole, rate: f64, u: f64) {
        match role {
            MiRole::SlowStart => {
                match self.prev_utility {
                    Some(prev) if u < prev => {
                        // Overshot: fall back to the last good rate. The
                        // decision lags ~1 RTT, so a couple more doubled
                        // MIs are already in flight; `rate/2` of the
                        // *measured* MI is the last known-good level.
                        if self.phase == Phase::SlowStart {
                            self.rate = (rate / 2.0).max(MIN_RATE);
                            self.phase = Phase::ProbePairUp;
                            self.prev_utility = None;
                        }
                    }
                    _ => {
                        self.prev_utility = Some(u);
                        if self.phase == Phase::SlowStart {
                            self.rate = (rate * 2.0).max(MIN_RATE);
                        }
                    }
                }
            }
            MiRole::ProbeUp => {
                self.pending_up = Some(u);
            }
            MiRole::ProbeDown => {
                let u_up = self.pending_up.take().unwrap_or(u);
                let dir: i8 = if u_up >= u { 1 } else { -1 };
                if dir == self.last_direction {
                    self.streak += 1;
                } else {
                    self.streak = 0;
                    self.last_direction = dir;
                }
                let step = self.step_fraction();
                if dir > 0 {
                    self.rate *= 1.0 + step;
                } else {
                    self.rate *= 1.0 - step;
                }
                self.rate = self.rate.max(MIN_RATE);
                if self.phase == Phase::Waiting {
                    self.phase = Phase::ProbePairUp;
                }
            }
            MiRole::Neutral => {}
        }
    }

    /// Attribute an ACK to the MI its packet was sent in, finalize any
    /// MIs proven complete, and rotate the sending MI on schedule.
    fn process_ack(&mut self, ack: &AckSample, srtt: f64) {
        if !self.started {
            self.started = true;
            self.mis
                .push_back(Mi::new(MiRole::SlowStart, ack.now, self.rate));
            self.mi_len = srtt.max(MIN_MI);
        }
        // Send-time of the ACKed packet (Karn: retransmits carry no RTT
        // sample; attribute those to the oldest open MI's losses only).
        if let Some(rtt) = ack.rtt {
            let sent_at = SimTime(ack.now.as_nanos().saturating_sub(rtt.as_nanos()));
            for mi in self.mis.iter_mut() {
                if mi.contains(sent_at) {
                    mi.acked_bytes += ack.acked_bytes;
                    mi.lost_bytes += ack.newly_lost_bytes;
                    let entry = (ack.now, rtt.as_secs_f64());
                    if mi.first_rtt.is_none() {
                        mi.first_rtt = Some(entry);
                    }
                    mi.last_rtt = Some(entry);
                    break;
                }
            }
            // Finalize every closed MI that this ACK proves drained.
            while let Some(front) = self.mis.front() {
                match front.end {
                    Some(end) if sent_at >= end => {
                        let mi = self.mis.pop_front().expect("front exists");
                        self.on_mi_utility(mi.role, mi.rate, mi.utility());
                    }
                    _ => break,
                }
            }
        }
        // Rotate the sending MI when its duration elapses.
        let rotate = match self.mis.back() {
            Some(open) if open.end.is_none() => {
                ack.now.saturating_since(open.start).as_secs_f64() >= self.mi_len
            }
            _ => self.mis.is_empty(),
        };
        if rotate {
            if let Some(open) = self.mis.back_mut() {
                if open.end.is_none() {
                    open.end = Some(ack.now);
                }
            }
            self.open_next_mi(ack.now, srtt);
        }
    }
}

impl CongestionControl for Vivace {
    fn name(&self) -> &'static str {
        "vivace"
    }

    fn on_ack(&mut self, ack: &AckSample, view: &FlowView) {
        self.mss = view.mss as f64;
        let srtt = view.srtt.map(|d| d.as_secs_f64()).unwrap_or(MIN_MI);
        self.process_ack(ack, srtt);
    }

    fn on_congestion_event(&mut self, _now: SimTime, _view: &FlowView) {
        // Loss enters the utility; no immediate reaction.
    }

    fn on_rto(&mut self, _now: SimTime, _view: &FlowView) {
        self.rate = (self.rate / 2.0).max(MIN_RATE);
        self.phase = Phase::ProbePairUp;
        self.streak = 0;
        self.pending_up = None;
        self.prev_utility = None;
    }

    fn cwnd_bytes(&self) -> u64 {
        // Generous cap so pacing, not the window, shapes the rate: two
        // seconds' worth of the current MI rate over a 200 ms horizon.
        ((2.0 * self.current_mi_rate() * 0.2).max(4.0 * self.mss)) as u64
    }

    fn pacing_rate(&self) -> Option<f64> {
        Some(self.current_mi_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_dumbbell;
    use bbrdom_netsim::time::SimDuration;

    fn finished_mi(role: MiRole, acked: u64, lost: u64, secs: f64) -> Mi {
        let mut mi = Mi::new(role, SimTime::ZERO, 1e6);
        mi.end = Some(SimTime::from_secs_f64(secs));
        mi.acked_bytes = acked;
        mi.lost_bytes = lost;
        mi
    }

    #[test]
    fn utility_prefers_higher_throughput_without_penalty() {
        let a = finished_mi(MiRole::Neutral, 1_000_000, 0, 1.0);
        let b = finished_mi(MiRole::Neutral, 2_000_000, 0, 1.0);
        assert!(b.utility() > a.utility());
    }

    #[test]
    fn utility_penalizes_loss() {
        let clean = finished_mi(MiRole::Neutral, 1_000_000, 0, 1.0);
        let lossy = finished_mi(MiRole::Neutral, 1_000_000, 100_000, 1.0);
        assert!(lossy.utility() < clean.utility());
    }

    #[test]
    fn utility_penalizes_rtt_growth_beyond_dead_zone() {
        let mut flat = finished_mi(MiRole::Neutral, 1_000_000, 0, 1.0);
        flat.first_rtt = Some((SimTime::ZERO, 0.04));
        flat.last_rtt = Some((SimTime::from_secs_f64(1.0), 0.04));
        let mut rising = flat;
        rising.last_rtt = Some((SimTime::from_secs_f64(1.0), 0.09)); // 0.05 s/s
        assert!(rising.utility() < flat.utility());
        // Sub-dead-zone jitter is ignored.
        let mut jitter = flat;
        jitter.last_rtt = Some((SimTime::from_secs_f64(1.0), 0.045)); // 0.005 s/s
        assert!((jitter.utility() - flat.utility()).abs() < 1e-9);
    }

    #[test]
    fn ack_attribution_uses_send_time() {
        let mut v = Vivace::new(0);
        let view = FlowView {
            mss: 1500,
            srtt: Some(SimDuration::from_millis(40)),
            min_rtt: Some(SimDuration::from_millis(40)),
            inflight_bytes: 0,
            delivered_bytes: 0,
            in_recovery: false,
        };
        // First ACK at t=100ms with rtt=40ms: starts the first MI.
        let ack = |now_ms: u64| AckSample {
            now: SimTime::from_secs_f64(now_ms as f64 / 1e3),
            acked_bytes: 1500,
            rtt: Some(SimDuration::from_millis(40)),
            delivery_rate: None,
            delivered_total: 0,
            packet_delivered_at_send: 0,
            inflight_bytes: 0,
            newly_lost_bytes: 0,
        };
        v.on_ack(&ack(100), &view);
        assert_eq!(v.mis.len(), 1);
        // ACKs up to 140ms: same MI; at 140ms the MI rotates.
        v.on_ack(&ack(120), &view);
        v.on_ack(&ack(141), &view);
        assert_eq!(v.mis.len(), 2, "MI should rotate after mi_len elapses");
        // An ACK at 182 ms was sent at 142 ms ≥ the first MI's end
        // (141 ms), proving the first MI drained: it gets finalized.
        // (The same call also rotates the now-41 ms-old second MI, so
        // the deque holds MIs 2 and 3 — the oldest must be MI 2.)
        v.on_ack(&ack(182), &view);
        assert_eq!(v.mis.len(), 2);
        assert_eq!(
            v.mis.front().unwrap().start,
            SimTime::from_secs_f64(0.141),
            "first MI should be finalized and gone"
        );
    }

    #[test]
    fn slow_start_doubles_until_utility_drops() {
        let mut v = Vivace::new(0);
        let r0 = v.rate;
        v.phase = Phase::SlowStart;
        v.on_mi_utility(MiRole::SlowStart, r0, 10.0);
        assert!((v.rate - 2.0 * r0).abs() < 1e-6);
        v.on_mi_utility(MiRole::SlowStart, v.rate, 25.0);
        assert!((v.rate - 4.0 * r0).abs() < 1e-6);
        // Utility drop: fall back to half the measured MI's rate.
        let measured = v.rate;
        v.on_mi_utility(MiRole::SlowStart, measured, 5.0);
        assert!((v.rate - measured / 2.0).abs() < 1e-6);
        assert_eq!(v.phase, Phase::ProbePairUp);
    }

    #[test]
    fn probe_pair_moves_rate_toward_better_utility() {
        let mut v = Vivace::new(0);
        v.phase = Phase::Waiting;
        v.rate = 1e6;
        v.on_mi_utility(MiRole::ProbeUp, 1.05e6, 10.0);
        v.on_mi_utility(MiRole::ProbeDown, 0.95e6, 8.0);
        assert!(v.rate > 1e6, "up-probe won; rate must rise");
        let r = v.rate;
        v.phase = Phase::Waiting;
        v.on_mi_utility(MiRole::ProbeUp, r * 1.05, 5.0);
        v.on_mi_utility(MiRole::ProbeDown, r * 0.95, 9.0);
        assert!(v.rate < r, "down-probe won; rate must fall");
    }

    #[test]
    fn confidence_streak_grows_step() {
        let mut v = Vivace::new(0);
        v.last_direction = 1;
        v.streak = 0;
        assert!((v.step_fraction() - STEP_BASE).abs() < 1e-12);
        v.streak = 4;
        assert!((v.step_fraction() - 5.0 * STEP_BASE).abs() < 1e-12);
        v.streak = 100;
        assert!((v.step_fraction() - STEP_MAX).abs() < 1e-12);
    }

    #[test]
    fn single_vivace_flow_fills_link() {
        let report = run_dumbbell(20.0, 40, 2.0, 30.0, vec![Box::new(Vivace::new(0))]);
        let tp = report.flows[0].throughput_mbps();
        assert!(tp > 14.0, "vivace throughput={tp}");
    }

    #[test]
    fn vivace_competes_with_cubic() {
        // Fig. 7: Vivace is not starved by CUBIC; it keeps a substantial
        // share at a 2 BDP buffer.
        let report = run_dumbbell(
            100.0,
            40,
            2.0,
            60.0,
            vec![
                Box::new(Vivace::new(0)),
                Box::new(crate::cubic::Cubic::new()),
            ],
        );
        let vivace = report.flows[0].throughput_mbps();
        assert!(vivace > 25.0, "vivace={vivace}");
    }
}
