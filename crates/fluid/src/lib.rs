//! # bbrdom-fluid — fluid/ODE fast simulation backend
//!
//! The paper's NE analysis (Eq. (25), the Fig. 9/11 grids) only consumes
//! *steady-state throughput shares*, yet every grid cell costs a full
//! packet-level discrete-event run. Following the fluid-model line of
//! work on BBR/CUBIC competition (Scherrer et al., *"Model-Based Insights
//! on the Performance, Fairness, and Stability of BBR"* and *"A
//! Control-Theoretic Perspective on BBR/CUBIC Competition"*), this crate
//! integrates a small deterministic ODE system — per-flow CUBIC window /
//! loss-epoch dynamics and per-flow BBR btlbw / min-RTT / inflight-cap
//! dynamics coupled through one shared bottleneck queue — and emits the
//! **same [`SimReport`]** the DES produces, in microseconds instead of
//! seconds.
//!
//! ## State variables (per integration step `dt`)
//!
//! * **Queue** `q(t)` ∈ `[0, B]` bytes: `dq/dt = Σᵢ aᵢ − C` while
//!   positive, where `aᵢ` is flow *i*'s arrival rate and `C` the link
//!   rate. Overflow beyond `B` is dropped, attributed to flows in
//!   proportion to their arrival rates.
//! * **Round-trip time** `R(t) = τᵢ + q(t)/C` (base propagation + queuing).
//! * **CUBIC flows**: window `w(t) = W_max + 0.4·(t_e − K)³` (MSS units,
//!   `K = ∛(0.3·W_max/0.4)`), with the RFC 8312 TCP-friendly AIMD floor;
//!   slow start doubles `w` per RTT until the first loss; a sampled loss
//!   (Poisson-thinned from the flow's share of overflow drops, at most
//!   once per RTT) multiplies `w` by β = 0.7 and restarts the epoch.
//!   NewReno is the same skeleton with linear growth and β = 0.5.
//! * **BBR flows**: delivery-rate max filter over the last 10 rounds
//!   feeds `btlbw`; `rtprop` is the windowed (10 s) minimum of `R(t)`
//!   with a 200 ms ProbeRTT drain when stale; sending rate
//!   `aᵢ = min(g·btlbw, cwnd/R)` with the ProbeBW pacing-gain cycle
//!   `g ∈ {1.25, 0.75, 1, …}` and the v1 inflight cap
//!   `cwnd = 2·btlbw·rtprop`. BBRv2 reuses the skeleton with a 0.85
//!   headroom on the cap and a 0.7 multiplicative cut of the cap on
//!   sampled loss (recovering ~5%/round) — a coarser model, validated
//!   only qualitatively.
//!
//! Integration is explicit Euler with `dt = min RTT / 24` (clamped to
//! `[20 µs, 2 ms]`); [`SimReport::events_processed`] records the step
//! count, which [`FluidConfig::steps`] gives before integrating, so perf
//! accounting stays meaningful.
//!
//! Flow state lives in columns, one pass per CCA class: loss-based
//! windows as one `Vec<f64>` per field, stepped two lanes at a time,
//! BBR as one record per flow, and the rates and accumulators of every
//! flow as shared columns. `R`, `1/R` and the window ceiling are computed
//! once per group of flows with the same CCA and base RTT. The total
//! rate is summed in flow order, and on an overflow step one sweep in
//! flow order takes one RNG draw per started flow and applies the
//! reactions, so every output bit is the one the per-flow loop it
//! replaced produced. Three shortcuts keep the draws cheap without
//! changing a bit or their order: a draw no flow can act on (BBRv1, or a
//! flow inside its once-per-RTT guard) only advances the stream; the hit
//! test decides from the bracket `x − x²/2 ≤ 1 − e^−x ≤ x` and calls
//! `exp` only for a draw near the probability; and `min`/`max` are
//! NaN-free compares. `DESIGN.md` §6.2 gives the exactness arguments.
//!
//! ## Validity envelope
//!
//! The fluid backend deliberately rejects — with a typed
//! [`FluidError`] — everything outside the regime where the aggregate
//! approximation is trusted: only CUBIC / NewReno / BBR / BBRv2 flows,
//! drop-tail queues, clean paths (no fault injection) and backlogged
//! flows (no byte limits). Within the envelope, steady-state shares
//! track the DES within the tolerances documented in `EXPERIMENTS.md`
//! (cross-validation suite in `tests/fluid_vs_des.rs`); transients,
//! per-packet loss patterns and queue-delay microstructure are *not*
//! faithful, which is why every committed figure, its equilibria
//! included, comes from the DES.
//!
//! ```
//! use bbrdom_fluid::{simulate, FluidCca, FluidConfig, FluidFlowSpec};
//!
//! let cfg = FluidConfig {
//!     capacity_bytes_per_sec: 50e6 / 8.0, // 50 Mbps
//!     buffer_bytes: 250_000.0,            // ~2 BDP at 20 ms
//!     duration_secs: 10.0,
//!     seed: 1,
//!     flows: vec![
//!         FluidFlowSpec { cca: FluidCca::Cubic, rtt_secs: 0.02, start_secs: 0.0 },
//!         FluidFlowSpec { cca: FluidCca::Bbr, rtt_secs: 0.02, start_secs: 0.0 },
//!     ],
//! };
//! let report = simulate(&cfg).unwrap();
//! assert_eq!(report.flows.len(), 2);
//! let total: f64 = report.flows.iter().map(|f| f.throughput_bytes_per_sec).sum();
//! assert!(total > 0.5 * cfg.capacity_bytes_per_sec); // link well used
//! ```

use bbrdom_netsim::packet::FlowId;
use bbrdom_netsim::{FlowReport, QueueReport, SimReport, Trace, MSS};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;
use std::ops::Range;

#[cfg(test)]
mod reference;

/// CUBIC multiplicative back-off factor (RFC 8312).
const CUBIC_BETA: f64 = 0.7;
/// CUBIC growth constant `C` (MSS/s³ units).
const CUBIC_C: f64 = 0.4;
/// NewReno back-off factor.
const RENO_BETA: f64 = 0.5;
/// BBR ProbeBW pacing-gain cycle (one entry per rtprop-long round).
const PROBE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// BBR Startup pacing/cwnd gain (2/ln 2).
const STARTUP_GAIN: f64 = 2.885;
/// Rounds of <25% btlbw growth before Startup is declared full.
const STARTUP_FULL_ROUNDS: u32 = 3;
/// Delivery-rate max-filter depth, in rounds (BBR's 10-RTT window).
const BW_FILTER_ROUNDS: usize = 10;
/// rtprop expiry window (seconds) and ProbeRTT drain length.
const RTPROP_WINDOW_SECS: f64 = 10.0;
const PROBE_RTT_SECS: f64 = 0.2;
/// BBRv2: inflight-cap headroom and loss-cut factor.
const V2_HEADROOM: f64 = 0.85;
const V2_LOSS_CUT: f64 = 0.7;
/// Optimism factor on the per-round bandwidth sample. The packet-level
/// max filter rides per-ACK delivery-rate spikes (ack clustering,
/// sub-round queue drains) that a fluid step averages away; competing
/// BBR flows are *known* to collectively overestimate btlbw for exactly
/// this reason. Calibrated against seed-averaged DES references on the
/// (50 Mbps/20 ms, 100 Mbps/20 ms) cross-validation grids (worst share
/// delta 0.27 → 0.16). To recalibrate, edit this constant and rerun
/// `tests/fluid_vs_des.rs`; it is not in the scenario hash, so a changed
/// value also needs a `CACHE_FORMAT_VERSION` bump.
const BW_SAMPLE_HEADROOM: f64 = 1.2;

/// Congestion-control algorithms the fluid model can integrate.
///
/// This is deliberately a subset of the DES's registry: Copa, Vivace and
/// Vegas have no validated aggregate fluid description here, so scenarios
/// using them must run on the DES backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FluidCca {
    Cubic,
    NewReno,
    Bbr,
    BbrV2,
}

impl FluidCca {
    /// Wire name, matching the DES registry's `CcaKind::name`.
    pub fn name(self) -> &'static str {
        match self {
            FluidCca::Cubic => "cubic",
            FluidCca::NewReno => "newreno",
            FluidCca::Bbr => "bbr",
            FluidCca::BbrV2 => "bbrv2",
        }
    }

    /// Inverse of [`FluidCca::name`]; `None` for algorithms outside the
    /// fluid envelope.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "cubic" => FluidCca::Cubic,
            "newreno" => FluidCca::NewReno,
            "bbr" => FluidCca::Bbr,
            "bbrv2" => FluidCca::BbrV2,
            _ => return None,
        })
    }

    fn is_loss_based(self) -> bool {
        matches!(self, FluidCca::Cubic | FluidCca::NewReno)
    }
}

/// One flow of the fluid system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidFlowSpec {
    pub cca: FluidCca,
    /// Base (propagation) RTT, seconds.
    pub rtt_secs: f64,
    /// Time the flow starts sending, seconds.
    pub start_secs: f64,
}

/// A complete fluid-simulation configuration (one bottleneck).
#[derive(Debug, Clone, PartialEq)]
pub struct FluidConfig {
    /// Bottleneck capacity, bytes/second.
    pub capacity_bytes_per_sec: f64,
    /// Drop-tail buffer size, bytes.
    pub buffer_bytes: f64,
    /// Simulated horizon, seconds.
    pub duration_secs: f64,
    /// Decorrelation seed: staggers BBR gain-cycle phases and samples
    /// which flows a given overflow event hits, so trials with different
    /// seeds produce (deterministically) different reports, like the DES.
    pub seed: u64,
    pub flows: Vec<FluidFlowSpec>,
}

/// Why a configuration cannot run on the fluid backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FluidError {
    /// No flows configured.
    NoFlows,
    /// A numeric field was non-finite or non-positive.
    Invalid { field: &'static str },
    /// A feature outside the fluid validity envelope (see crate docs).
    Unsupported { feature: &'static str },
}

impl fmt::Display for FluidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FluidError::NoFlows => write!(f, "fluid backend: no flows configured"),
            FluidError::Invalid { field } => {
                write!(f, "fluid backend: {field} must be positive and finite")
            }
            FluidError::Unsupported { feature } => {
                write!(
                    f,
                    "fluid backend does not support {feature} (use the DES backend)"
                )
            }
        }
    }
}

impl std::error::Error for FluidError {}

impl FluidConfig {
    /// Validate without running.
    pub fn validate(&self) -> Result<(), FluidError> {
        if self.flows.is_empty() {
            return Err(FluidError::NoFlows);
        }
        for (field, v) in [
            ("capacity_bytes_per_sec", self.capacity_bytes_per_sec),
            ("buffer_bytes", self.buffer_bytes),
            ("duration_secs", self.duration_secs),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(FluidError::Invalid { field });
            }
        }
        for f in &self.flows {
            if !f.rtt_secs.is_finite() || f.rtt_secs <= 0.0 {
                return Err(FluidError::Invalid {
                    field: "flow rtt_secs",
                });
            }
            if !f.start_secs.is_finite() || f.start_secs < 0.0 {
                return Err(FluidError::Invalid {
                    field: "flow start_secs",
                });
            }
        }
        Ok(())
    }

    /// Integration step, seconds: a 24th of the shortest base RTT,
    /// clamped to `[20 µs, 2 ms]` and to an eighth of the horizon.
    fn dt(&self) -> f64 {
        let min_rtt = self
            .flows
            .iter()
            .map(|f| f.rtt_secs)
            .fold(f64::INFINITY, f64::min);
        (min_rtt / 24.0)
            .clamp(2e-5, 2e-3)
            .min(self.duration_secs / 8.0)
    }

    /// Number of integration steps [`simulate`] takes, which is the
    /// [`SimReport::events_processed`] it reports, so a caller can size
    /// the work before integrating. Meaningful only for a config that
    /// passes [`FluidConfig::validate`].
    pub fn steps(&self) -> u64 {
        (self.duration_secs / self.dt()).ceil() as u64
    }
}

/// Rank of a CCA in slot order: the loss-based classes come first.
fn class_rank(cca: FluidCca) -> u8 {
    match cca {
        FluidCca::Cubic => 0,
        FluidCca::NewReno => 1,
        FluidCca::Bbr => 2,
        FluidCca::BbrV2 => 3,
    }
}

/// A run of slots whose flows share a CCA and a base RTT, so one step's
/// `R`, `1/R` and window ceiling are computed once for all of them. The
/// run is in start-time order, so its started flows are the prefix
/// `first..first + active`.
struct Group {
    cca: FluidCca,
    rtt: f64,
    first: usize,
    len: usize,
    active: usize,
    cohorts: Vec<Cohort>,
}

/// The flows of one group that started at the same step. Each of them
/// adds the same `dt` and `R·dt` every step, so their active time and
/// RTT integral are one sum each, kept for the cohort.
struct Cohort {
    slots: Range<usize>,
    active_secs: f64,
    rtt_integral: f64,
}

/// The per-slot columns both classes share: base RTT, sending rate,
/// loss-reaction guard, hit-test input and measurement accumulators
/// (mirrors the DES's `FlowStats`). `rate` holds the current step's
/// value; a flow that has not started keeps rate 0.
struct Acc {
    rtt: Vec<f64>,
    rate: Vec<f64>,
    /// Time of the last reaction to a loss (one per RTT, like TCP); +∞
    /// for BBRv1, which never reacts.
    last_reaction: Vec<f64>,
    /// This step's hit-test input: the flow's share of the overflow in
    /// MSS units, or −1 when the flow cannot react and its draw only
    /// advances the stream.
    hit_x: Vec<f64>,
    sent: Vec<f64>,
    delivered: Vec<f64>,
    dropped: Vec<f64>,
    occupancy: Vec<f64>,
    cwnd_integral: Vec<f64>,
    max_cwnd: Vec<f64>,
    congestion_events: Vec<u64>,
}

impl Acc {
    fn new(n: usize) -> Self {
        Acc {
            rtt: vec![0.0; n],
            rate: vec![0.0; n],
            last_reaction: vec![f64::NEG_INFINITY; n],
            hit_x: vec![0.0; n],
            sent: vec![0.0; n],
            delivered: vec![0.0; n],
            dropped: vec![0.0; n],
            occupancy: vec![0.0; n],
            cwnd_integral: vec![0.0; n],
            max_cwnd: vec![0.0; n],
            congestion_events: vec![0; n],
        }
    }

    /// The window integrals of a flow whose window this step is `cwnd`.
    #[inline]
    fn integrate(cwnd_integral: &mut f64, max_cwnd: &mut f64, cwnd: f64, dt: f64) {
        *cwnd_integral += cwnd * dt;
        *max_cwnd = fmax(*max_cwnd, cwnd);
    }

    /// The service pass over every slot: each flow's share of the
    /// departures and of the queue. A flow that has not started has rate
    /// 0, so it adds exact zeros.
    #[inline]
    fn serve(&mut self, inv_total: f64, depart: f64, q_next: f64, dt: f64) {
        for (((&rate, sent), delivered), occupancy) in self
            .rate
            .iter()
            .zip(&mut self.sent)
            .zip(&mut self.delivered)
            .zip(&mut self.occupancy)
        {
            let share = rate * inv_total;
            *sent += rate * dt;
            *delivered += depart * share * dt;
            *occupancy += q_next * share * dt;
        }
    }

    /// Attribute an overflow of `overflow` bytes at time `t` to the slots
    /// in proportion to their rates, and set each slot's hit-test input:
    /// a flow may react if its last reaction is more than one RTT
    /// (`rtt + q_delay`) old.
    #[inline]
    fn shed(&mut self, inv_total: f64, overflow: f64, t: f64, q_delay: f64) {
        let mss = MSS as f64;
        for ((((&rate, &rtt), &last), dropped), hit_x) in self
            .rate
            .iter()
            .zip(&self.rtt)
            .zip(&self.last_reaction)
            .zip(&mut self.dropped)
            .zip(&mut self.hit_x)
        {
            let dropped_i = overflow * (rate * inv_total);
            *dropped += dropped_i;
            *hit_x = if t - last > rtt + q_delay {
                dropped_i / mss
            } else {
                -1.0
            };
        }
    }
}

/// Loss-based (CUBIC / NewReno) window state, one column per field,
/// indexed by slot (these flows hold slots `0..n_loss`).
struct LossCols {
    /// Congestion window, bytes.
    w: Vec<f64>,
    /// Window at the last back-off, MSS units (CUBIC's `W_max`).
    w_max_mss: Vec<f64>,
    /// Seconds since the last back-off (CUBIC epoch clock).
    epoch: Vec<f64>,
    /// CUBIC's `K` for the current `w_max_mss` — cached because `cbrt`
    /// in the per-step window evaluation dominates the loss-flow cost.
    k: Vec<f64>,
    slow_start: Vec<bool>,
    backoffs: Vec<Vec<f64>>,
}

impl LossCols {
    fn new(n: usize) -> Self {
        LossCols {
            w: vec![10.0 * MSS as f64; n],
            w_max_mss: vec![10.0; n],
            epoch: vec![0.0; n],
            k: vec![cubic_k(10.0); n],
            slow_start: vec![true; n],
            backoffs: vec![Vec::new(); n],
        }
    }

    /// One step of the window ODE for slots `lanes` (one group's started
    /// flows) at `1/R` = `r_inv`, capped at `ceiling`; `growth(epoch,
    /// w_max_mss, k)` is the class's congestion-avoidance window in bytes.
    #[inline]
    fn rates(
        &mut self,
        acc: &mut Acc,
        lanes: Range<usize>,
        (r_inv, ceiling, dt): (f64, f64, f64),
        growth: impl Fn(f64, f64, f64) -> f64,
    ) {
        // Once every flow has left slow start, the doubling is not needed.
        if self.slow_start[lanes.clone()].contains(&true) {
            self.step::<true>(acc, lanes, (r_inv, ceiling, dt), growth);
        } else {
            self.step::<false>(acc, lanes, (r_inv, ceiling, dt), growth);
        }
    }

    /// [`LossCols::rates`], with `SLOW_START` false when no flow of
    /// `lanes` is in slow start. Written as selects over slices of equal
    /// length, so the loop runs two lanes at a time. The epoch clock runs
    /// in slow start too: it is reset at the first back-off, which is also
    /// when slow start ends, so no growth curve reads those ticks.
    #[inline]
    fn step<const SLOW_START: bool>(
        &mut self,
        acc: &mut Acc,
        lanes: Range<usize>,
        (r_inv, ceiling, dt): (f64, f64, f64),
        growth: impl Fn(f64, f64, f64) -> f64,
    ) {
        let mss = MSS as f64;
        let n = lanes.len();
        let w = &mut self.w[lanes.clone()][..n];
        let epoch = &mut self.epoch[lanes.clone()][..n];
        let w_max_mss = &self.w_max_mss[lanes.clone()][..n];
        let k = &self.k[lanes.clone()][..n];
        let slow_start = &self.slow_start[lanes.clone()][..n];
        let rate = &mut acc.rate[lanes.clone()][..n];
        let cwnd_integral = &mut acc.cwnd_integral[lanes.clone()][..n];
        let max_cwnd = &mut acc.max_cwnd[lanes][..n];
        for j in 0..n {
            epoch[j] += dt;
            let mut w_j = fmax(growth(epoch[j], w_max_mss[j], k[j]), 2.0 * mss);
            if SLOW_START && slow_start[j] {
                // Doubling per RTT: dw/dt = w·ln2/R.
                w_j = w[j] + w[j] * std::f64::consts::LN_2 * dt * r_inv;
            }
            // Physical ceiling: a window beyond BDP + buffer only
            // inflates drops the queue already accounts for.
            let w_j = fmin(w_j, ceiling);
            w[j] = w_j;
            rate[j] = w_j * r_inv;
            Acc::integrate(&mut cwnd_integral[j], &mut max_cwnd[j], w_j, dt);
        }
    }

    /// React to a sampled loss at time `t`: multiplicative back-off and a
    /// new growth epoch.
    fn back_off(&mut self, p: usize, cca: FluidCca, t: f64) {
        let mss = MSS as f64;
        let w_mss = self.w[p] / mss;
        // CUBIC fast convergence: a shrinking flow remembers a slightly
        // smaller W_max.
        self.w_max_mss[p] = if w_mss < self.w_max_mss[p] {
            w_mss * (2.0 - CUBIC_BETA) / 2.0
        } else {
            w_mss
        };
        let beta = if cca == FluidCca::Cubic {
            CUBIC_BETA
        } else {
            RENO_BETA
        };
        self.k[p] = cubic_k(self.w_max_mss[p]);
        self.w[p] = fmax(self.w[p] * beta, 2.0 * mss);
        self.epoch[p] = 0.0;
        self.slow_start[p] = false;
        self.backoffs[p].push(t);
    }
}

/// One BBR (v1/v2) flow's state. BBR's step is branchy scalar code, so
/// its state stays one record per flow: as a column per field its hot
/// path would need more base pointers than there are registers. The
/// class still gets a vector of its own, with no per-flow dispatch.
struct BbrFlow {
    /// Output of the delivery-rate max filter, bytes/s.
    btlbw: f64,
    /// Per-round delivery-rate samples feeding the max filter, the first
    /// `bw_len` filled.
    bw_ring: [f64; BW_FILTER_ROUNDS],
    bw_len: usize,
    bw_pos: usize,
    /// Windowed-minimum RTT estimate and its freshness stamp.
    rtprop: f64,
    rtprop_stamp: f64,
    /// Start of the current round (one rtprop). The bandwidth sample fed
    /// to the max filter at its end is the round's `round_max_rate`.
    round_start: f64,
    /// ProbeBW gain-cycle index.
    phase: usize,
    startup: bool,
    drain: bool,
    full_bw: f64,
    full_rounds: u32,
    /// While `t < probe_rtt_until` the flow sits at 4 MSS of inflight.
    probe_rtt_until: f64,
    probe_rtt_min: f64,
    /// The class's inflight-cap factor ([`V2_HEADROOM`] for BBRv2).
    headroom: f64,
    /// BBRv2 inflight-ceiling multiplier (1.0 for v1; cut on loss).
    hi_mult: f64,
    /// `pacing_gain·btlbw` and the inflight cap `max(cwnd_gain·btlbw·
    /// rtprop·headroom·hi_mult, 4 MSS)` of the current mode, recomputed
    /// by [`BbrFlow::refresh`] whenever one of their inputs changes.
    pacing_rate: f64,
    cwnd_cap: f64,
}

impl BbrFlow {
    /// A flow of base RTT `rtt` starting at `start`, whose gain cycle
    /// starts at index `phase` and whose first round starts at
    /// `round_start`.
    fn new(cca: FluidCca, rtt: f64, start: f64, round_start: f64, phase: usize) -> Self {
        let mut s = BbrFlow {
            btlbw: 10.0 * MSS as f64 / rtt,
            bw_ring: [0.0; BW_FILTER_ROUNDS],
            bw_len: 0,
            bw_pos: 0,
            rtprop: rtt,
            rtprop_stamp: start,
            round_start,
            phase,
            startup: true,
            drain: false,
            full_bw: 0.0,
            full_rounds: 0,
            probe_rtt_until: f64::NEG_INFINITY,
            probe_rtt_min: f64::INFINITY,
            headroom: if cca == FluidCca::BbrV2 {
                V2_HEADROOM
            } else {
                1.0
            },
            hi_mult: 1.0,
            pacing_rate: 0.0,
            cwnd_cap: 0.0,
        };
        s.refresh();
        s
    }

    /// One step at RTT `r` (`floor_rate` = `MSS/R`, `r_inv` = `1/R`) and
    /// time `t`: update the estimators, end the round if it is over
    /// (taking its `round_max_rate`), and return `(rate, cwnd)`.
    #[inline]
    fn step(
        &mut self,
        round_max_rate: &mut f64,
        (r, r_inv, floor_rate): (f64, f64, f64),
        (t, dt): (f64, f64),
        c: f64,
    ) -> (f64, f64) {
        // rtprop tracking and ProbeRTT.
        let mut stale = false;
        if t < self.probe_rtt_until {
            self.probe_rtt_min = fmin(self.probe_rtt_min, r);
        } else if self.probe_rtt_min.is_finite() {
            // Leaving ProbeRTT: adopt the drained floor.
            self.rtprop = self.probe_rtt_min;
            self.rtprop_stamp = t;
            self.probe_rtt_min = f64::INFINITY;
            stale = true;
        } else if r <= self.rtprop {
            self.rtprop = r;
            self.rtprop_stamp = t;
            stale = true;
        } else if t - self.rtprop_stamp > RTPROP_WINDOW_SECS {
            self.probe_rtt_until = t + PROBE_RTT_SECS;
            self.probe_rtt_min = r;
        }
        if fmax(t - self.round_start, dt) >= self.rtprop {
            self.end_round(round_max_rate, t, c);
            stale = true;
        }
        if stale {
            self.refresh();
        }
        let cwnd = if t < self.probe_rtt_until {
            4.0 * MSS as f64
        } else {
            self.cwnd_cap
        };
        (fmax(fmin(self.pacing_rate, cwnd * r_inv), floor_rate), cwnd)
    }

    /// Round boundary at time `t`: fold the round's delivery rate into
    /// the max filter and advance the gain cycle and the mode.
    fn end_round(&mut self, round_max_rate: &mut f64, t: f64, c: f64) {
        let sample = fmin(*round_max_rate * BW_SAMPLE_HEADROOM, c);
        if self.bw_len < BW_FILTER_ROUNDS {
            self.bw_ring[self.bw_len] = sample;
            self.bw_len += 1;
        } else {
            self.bw_ring[self.bw_pos] = sample;
            self.bw_pos = (self.bw_pos + 1) % BW_FILTER_ROUNDS;
        }
        self.btlbw = self.bw_ring[..self.bw_len]
            .iter()
            .copied()
            .fold(sample, fmax);
        self.round_start = t;
        *round_max_rate = 0.0;
        self.phase = (self.phase + 1) % PROBE_GAINS.len();
        if self.startup {
            if self.btlbw > self.full_bw * 1.25 {
                self.full_bw = self.btlbw;
                self.full_rounds = 0;
            } else {
                self.full_rounds += 1;
                if self.full_rounds >= STARTUP_FULL_ROUNDS {
                    self.startup = false;
                    self.drain = true;
                }
            }
        } else if self.drain {
            self.drain = false; // one drain round
        }
        // BBRv2 ceiling recovers a few percent per round.
        self.hi_mult = fmin(self.hi_mult * 1.05, 1.0);
    }

    /// Recompute the pacing rate and inflight cap from the mode, the
    /// estimates and the ceiling multiplier.
    fn refresh(&mut self) {
        let (pacing_gain, cwnd_gain) = if self.startup {
            (STARTUP_GAIN, STARTUP_GAIN)
        } else if self.drain {
            (1.0 / STARTUP_GAIN, 2.0)
        } else {
            (PROBE_GAINS[self.phase], 2.0)
        };
        self.pacing_rate = pacing_gain * self.btlbw;
        self.cwnd_cap = fmax(
            cwnd_gain * self.btlbw * self.rtprop * self.headroom * self.hi_mult,
            4.0 * MSS as f64,
        );
    }

    /// BBRv2's reaction to a sampled loss: cut the inflight ceiling.
    fn cut(&mut self) {
        self.hi_mult = fmax(self.hi_mult * V2_LOSS_CUT, 0.3);
        self.refresh();
    }
}

fn cubic_k(w_max_mss: f64) -> f64 {
    (w_max_mss * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt()
}

/// TCP-friendly AIMD slope, MSS per RTT (RFC 8312 §4.2).
const CUBIC_TCP_ALPHA: f64 = 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA);

/// RFC 8312 window at `epoch` seconds after a back-off from `w_max_mss`
/// (`k` = [`cubic_k`]`(w_max_mss)`, cached by the caller), including the
/// TCP-friendly AIMD floor (MSS units).
fn cubic_window_mss(epoch: f64, w_max_mss: f64, k: f64, rtt: f64) -> f64 {
    let cubic = CUBIC_C * (epoch - k).powi(3) + w_max_mss;
    let tcp = w_max_mss * CUBIC_BETA + CUBIC_TCP_ALPHA * epoch / rtt;
    fmax(cubic, tcp)
}

/// `a.max(b)` as one `maxsd`, without the NaN handling of `f64::max`.
/// Equal to it for operands that are not NaN, up to the sign of a zero
/// result; the kernel's operands are finite or ±∞ once
/// [`FluidConfig::validate`] passes, and it makes no −0.
#[inline]
fn fmax(a: f64, b: f64) -> f64 {
    debug_assert!(!a.is_nan() && !b.is_nan(), "fmax({a}, {b})");
    if b > a {
        b
    } else {
        a
    }
}

/// `a.min(b)` for operands that are never NaN; see [`fmax`].
#[inline]
fn fmin(a: f64, b: f64) -> f64 {
    debug_assert!(!a.is_nan() && !b.is_nan(), "fmin({a}, {b})");
    if b < a {
        b
    } else {
        a
    }
}

/// Margin of the bracketed hit test in [`poisson_hit`]. The computed
/// `1 − e^−x` and both bounds are each within 1e-15 of their exact
/// values wherever a bound can decide (`x < 2`), so a draw this far
/// outside the bracket is on the same side of the computed probability.
const HIT_MARGIN: f64 = 1e-12;

/// Poisson thinning of an overflow: whether a flow that lost `x ≥ 0` MSS
/// of it saw at least one drop, for a uniform draw `u ∈ [0, 1)`.
///
/// Returns exactly `u < (1 − e^−x).clamp(0, 1)`, but evaluates `exp` only
/// when `u` falls near the probability: for `x ≥ 0`,
/// `x − x²/2 ≤ 1 − e^−x ≤ x`, so a draw more than [`HIT_MARGIN`] above
/// `x` misses and one more than it below `x − x²/2` hits.
#[inline]
fn poisson_hit(u: f64, x: f64) -> bool {
    if u > x + HIT_MARGIN {
        false
    } else if u < x - x * x * 0.5 - HIT_MARGIN {
        true
    } else {
        u < (1.0 - (-x).exp()).clamp(0.0, 1.0)
    }
}

/// Run the fluid model and package the result as the DES's report type.
///
/// Deterministic: the same config (including seed) produces a
/// bit-identical report. `events_processed` counts integration steps.
pub fn simulate(cfg: &FluidConfig) -> Result<SimReport, FluidError> {
    cfg.validate()?;
    let c = cfg.capacity_bytes_per_sec;
    let buffer = cfg.buffer_bytes;
    let mss = MSS as f64;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf1u64.rotate_left(32));
    let dt = cfg.dt();
    let steps = cfg.steps();
    let n = cfg.flows.len();

    // Slot order: loss-based flows first, then by CCA, base RTT and
    // start time, so each (CCA, RTT) group is one run of slots.
    let mut flow_of: Vec<usize> = (0..n).collect();
    flow_of.sort_by(|&a, &b| {
        let (a, b) = (&cfg.flows[a], &cfg.flows[b]);
        (class_rank(a.cca), a.rtt_secs.to_bits())
            .cmp(&(class_rank(b.cca), b.rtt_secs.to_bits()))
            .then(a.start_secs.total_cmp(&b.start_secs))
    });
    let mut slot_of = vec![0; n];
    for (p, &i) in flow_of.iter().enumerate() {
        slot_of[i] = p;
    }
    let start: Vec<f64> = flow_of.iter().map(|&i| cfg.flows[i].start_secs).collect();
    let mut groups: Vec<Group> = Vec::new();
    for (p, &i) in flow_of.iter().enumerate() {
        let f = &cfg.flows[i];
        match groups.last_mut() {
            Some(g) if g.cca == f.cca && g.rtt.to_bits() == f.rtt_secs.to_bits() => g.len += 1,
            _ => groups.push(Group {
                cca: f.cca,
                rtt: f.rtt_secs,
                first: p,
                len: 1,
                active: 0,
                cohorts: Vec::new(),
            }),
        }
    }
    let n_loss = flow_of
        .iter()
        .take_while(|&&i| cfg.flows[i].cca.is_loss_based())
        .count();

    // Initial per-flow state. BBR phases and round clocks are staggered
    // by the seed so flows (and trials) decorrelate, mirroring the DES's
    // per-flow phase seeds; they are drawn in flow order.
    let mut acc = Acc::new(n);
    for (p, &i) in flow_of.iter().enumerate() {
        acc.rtt[p] = cfg.flows[i].rtt_secs;
        if cfg.flows[i].cca == FluidCca::Bbr {
            acc.last_reaction[p] = f64::INFINITY;
        }
    }
    let mut loss = LossCols::new(n_loss);
    let draws: Vec<(f64, usize)> = cfg
        .flows
        .iter()
        .map(|f| match f.cca.is_loss_based() {
            true => (0.0, 0),
            false => (
                f.start_secs + rng.gen_range(0.0..f.rtt_secs),
                rng.gen_range(0..PROBE_GAINS.len()),
            ),
        })
        .collect();
    let mut bbr: Vec<BbrFlow> = flow_of[n_loss..]
        .iter()
        .map(|&i| {
            let f = &cfg.flows[i];
            let (round_start, phase) = draws[i];
            BbrFlow::new(f.cca, f.rtt_secs, f.start_secs, round_start, phase)
        })
        .collect();
    // Each BBR flow's bandwidth sample for the current round: the
    // *maximum instantaneous* delivered rate seen within the round
    // (mirroring per-ACK delivery-rate sampling). This is what lets BBR's
    // estimate ratchet upward during the brief queue drain after a
    // competing CUBIC back-off — the inflight-cap domination mechanism
    // (Ware et al., IMC '19) that decides shallow buffers. A round-average
    // sample misses those spikes and systematically underestimates BBR's
    // share.
    let mut round_max_rate = vec![0.0; n - n_loss];

    let mut q = 0.0_f64;
    let mut q_integral = 0.0;
    let mut q_peak = 0.0_f64;
    let mut total_dropped = 0.0;

    // The slots of the flows that have started, in flow order.
    let mut live: Vec<usize> = Vec::with_capacity(n);
    let inv_c = 1.0 / c;
    for step in 0..steps {
        let t = step as f64 * dt;
        let q_delay = q * inv_c;
        let started = live.len();
        // Rate pass, one group at a time: each started flow's rate goes
        // into `acc.rate`; a flow that has not started keeps rate 0.
        for g in &mut groups {
            let was_active = g.active;
            while g.active < g.len && t >= start[g.first + g.active] {
                live.push(g.first + g.active);
                g.active += 1;
            }
            let lanes = g.first..g.first + g.active;
            if g.active > was_active {
                g.cohorts.push(Cohort {
                    slots: g.first + was_active..lanes.end,
                    active_secs: 0.0,
                    rtt_integral: 0.0,
                });
            }
            let r = g.rtt + q_delay;
            let r_inv = 1.0 / r;
            let ceiling = 2.0 * (c * r + buffer);
            match g.cca {
                FluidCca::Cubic => {
                    loss.rates(&mut acc, lanes, (r_inv, ceiling, dt), |e, w_max, k| {
                        cubic_window_mss(e, w_max, k, r) * mss
                    })
                }
                // NewReno: one MSS per RTT from the back-off point.
                FluidCca::NewReno => {
                    loss.rates(&mut acc, lanes, (r_inv, ceiling, dt), |e, w_max, _| {
                        w_max * RENO_BETA * mss + mss * e * r_inv
                    })
                }
                FluidCca::Bbr | FluidCca::BbrV2 => {
                    let b = lanes.start - n_loss..lanes.end - n_loss;
                    let floor_rate = mss * r_inv;
                    for ((((s, max), rate), cwnd_i), max_cwnd) in bbr[b.clone()]
                        .iter_mut()
                        .zip(&mut round_max_rate[b])
                        .zip(&mut acc.rate[lanes.clone()])
                        .zip(&mut acc.cwnd_integral[lanes.clone()])
                        .zip(&mut acc.max_cwnd[lanes.clone()])
                    {
                        let cwnd;
                        (*rate, cwnd) = s.step(max, (r, r_inv, floor_rate), (t, dt), c);
                        Acc::integrate(cwnd_i, max_cwnd, cwnd, dt);
                    }
                }
            }
            let r_dt = r * dt;
            for cohort in &mut g.cohorts {
                cohort.active_secs += dt;
                cohort.rtt_integral += r_dt;
            }
        }
        if live.len() > started {
            live.sort_unstable_by_key(|&p| flow_of[p]);
        }
        // Summed in flow order, as the flows' rates are defined.
        let total_rate = live.iter().fold(0.0, |sum, &p| sum + acc.rate[p]);

        // Shared-queue service: drain at link rate while backlogged.
        let depart = if q > 0.0 { c } else { fmin(total_rate, c) };
        let mut q_next = q + (total_rate - depart) * dt;
        let overflow = fmax(q_next - buffer, 0.0);
        q_next = q_next.clamp(0.0, buffer);
        total_dropped += overflow;

        let inv_total = 1.0 / fmax(total_rate, f64::MIN_POSITIVE);
        acc.serve(inv_total, depart, q_next, dt);
        for (max, &rate) in round_max_rate.iter_mut().zip(&acc.rate[n_loss..]) {
            *max = fmax(*max, depart * (rate * inv_total));
        }
        if overflow > 0.0 {
            acc.shed(inv_total, overflow, t, q_next * inv_c);
            // Poisson thinning, in flow order: the chance each started
            // flow saw at least one of the event's dropped packets.
            // Partial synchronization — the regime the paper measures —
            // emerges naturally: small overflows hit few flows, deep ones
            // hit all. Every started flow takes one draw, but only a flow
            // that may react (loss-based or BBRv2, past its once-per-RTT
            // guard) needs the outcome; the others just advance the
            // stream. A reaction changes no value this step reads.
            for &p in &live {
                let x = acc.hit_x[p];
                if x < 0.0 {
                    rng.next_u64();
                } else if poisson_hit(rng.gen_range(0.0..1.0), x) {
                    match p.checked_sub(n_loss) {
                        None => loss.back_off(p, cfg.flows[flow_of[p]].cca, t),
                        Some(b) => bbr[b].cut(),
                    }
                    acc.last_reaction[p] = t;
                    acc.congestion_events[p] += 1;
                }
            }
        }

        q = q_next;
        q_integral += q * dt;
        q_peak = fmax(q_peak, q);
    }

    let horizon = steps as f64 * dt;
    let mut active_secs = vec![0.0; n];
    let mut rtt_integral = vec![0.0; n];
    for cohort in groups.iter().flat_map(|g| &g.cohorts) {
        active_secs[cohort.slots.clone()].fill(cohort.active_secs);
        rtt_integral[cohort.slots.clone()].fill(cohort.rtt_integral);
    }
    let delivered_total: f64 = slot_of.iter().map(|&p| acc.delivered[p]).sum();
    let sent_total: f64 = slot_of.iter().map(|&p| acc.sent[p]).sum();
    let flows = cfg
        .flows
        .iter()
        .zip(&slot_of)
        .enumerate()
        .map(|(i, (f, &p))| {
            let active_secs = active_secs[p];
            FlowReport {
                flow: FlowId(i as u32),
                cc_name: f.cca.name().to_string(),
                throughput_bytes_per_sec: acc.delivered[p] / horizon,
                goodput_bytes: acc.delivered[p].round() as u64,
                sent_bytes: acc.sent[p].round() as u64,
                retransmits: (acc.dropped[p] / mss).round() as u64,
                lost_packets: (acc.dropped[p] / mss).round() as u64,
                congestion_events: acc.congestion_events[p],
                rtos: 0,
                wire_lost_fwd: 0,
                wire_lost_ack: 0,
                avg_queue_occupancy_bytes: acc.occupancy[p] / horizon,
                min_rtt_secs: (active_secs > 0.0).then_some(f.rtt_secs),
                mean_rtt_secs: (active_secs > 0.0).then(|| rtt_integral[p] / active_secs),
                avg_cwnd_bytes: if active_secs > 0.0 {
                    acc.cwnd_integral[p] / active_secs
                } else {
                    0.0
                },
                max_cwnd_bytes: acc.max_cwnd[p].round() as u64,
                completion_time_secs: None,
                backoff_times_secs: loss
                    .backoffs
                    .get_mut(p)
                    .map(std::mem::take)
                    .unwrap_or_default(),
            }
        })
        .collect::<Vec<_>>();
    let queue = QueueReport {
        avg_occupancy_bytes: q_integral / horizon,
        avg_queuing_delay_secs: q_integral / horizon / c,
        peak_occupancy_bytes: q_peak.round() as u64,
        capacity_bytes: buffer.round() as u64,
        dropped_packets: (total_dropped / mss).round() as u64,
        aqm_drops: 0,
        enqueued_packets: (sent_total / mss).round() as u64,
        utilization: delivered_total / (c * horizon),
        // Individual drop timestamps are a packet-level notion; the fluid
        // model only attributes aggregate drop volume (see crate docs).
        drops: Vec::new(),
    };
    Ok(SimReport {
        flows,
        queue,
        hops: Vec::new(),
        duration_secs: cfg.duration_secs,
        events_processed: steps,
        trace: Trace::default(),
        workload_spawned: 0,
        workload_completed: 0,
        workload_fct: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_flow_cfg(seed: u64) -> FluidConfig {
        FluidConfig {
            capacity_bytes_per_sec: 50e6 / 8.0,
            buffer_bytes: 2.0 * (50e6 / 8.0) * 0.02,
            duration_secs: 15.0,
            seed,
            flows: vec![
                FluidFlowSpec {
                    cca: FluidCca::Cubic,
                    rtt_secs: 0.02,
                    start_secs: 0.0,
                },
                FluidFlowSpec {
                    cca: FluidCca::Bbr,
                    rtt_secs: 0.02,
                    start_secs: 0.0,
                },
            ],
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = simulate(&two_flow_cfg(7)).unwrap();
        let b = simulate(&two_flow_cfg(7)).unwrap();
        for (x, y) in a.flows.iter().zip(&b.flows) {
            assert_eq!(
                x.throughput_bytes_per_sec.to_bits(),
                y.throughput_bytes_per_sec.to_bits()
            );
        }
        let c = simulate(&two_flow_cfg(8)).unwrap();
        assert_ne!(
            a.flows[0].throughput_bytes_per_sec.to_bits(),
            c.flows[0].throughput_bytes_per_sec.to_bits(),
            "different seeds must decorrelate"
        );
    }

    #[test]
    fn link_is_fully_used_and_physical() {
        let r = simulate(&two_flow_cfg(1)).unwrap();
        let cap = 50e6 / 8.0;
        let total: f64 = r.flows.iter().map(|f| f.throughput_bytes_per_sec).sum();
        assert!(total > 0.85 * cap, "utilization too low: {}", total / cap);
        assert!(total <= 1.001 * cap, "throughput exceeds the link");
        assert!(r.queue.utilization > 0.85 && r.queue.utilization <= 1.001);
        assert!(r.queue.peak_occupancy_bytes <= r.queue.capacity_bytes);
    }

    #[test]
    fn bbr_beats_cubic_in_shallow_buffers_and_loses_in_deep() {
        // The paper's central asymmetry (Fig. 5): BBR's inflight cap
        // dominates in shallow buffers; CUBIC fills deep ones.
        let share = |bdp_mult: f64| {
            let mut cfg = two_flow_cfg(3);
            cfg.buffer_bytes = bdp_mult * (50e6 / 8.0) * 0.02;
            let r = simulate(&cfg).unwrap();
            let bbr = r.flows[1].throughput_bytes_per_sec;
            let total: f64 = r.flows.iter().map(|f| f.throughput_bytes_per_sec).sum();
            bbr / total
        };
        let shallow = share(0.5);
        let deep = share(16.0);
        assert!(shallow > 0.5, "shallow-buffer BBR share {shallow}");
        assert!(deep < 0.5, "deep-buffer BBR share {deep}");
        assert!(shallow > deep);
    }

    #[test]
    fn cubic_alone_fills_the_link_and_backs_off() {
        let mut cfg = two_flow_cfg(2);
        cfg.flows.truncate(1);
        let r = simulate(&cfg).unwrap();
        assert!(r.flows[0].throughput_bytes_per_sec > 0.8 * 50e6 / 8.0);
        assert!(
            !r.flows[0].backoff_times_secs.is_empty(),
            "a lone CUBIC flow must hit the buffer and back off"
        );
    }

    /// The once-per-RTT loss guard measures the RTT on the queue after
    /// the step's service, which is full on every overflow step. A lone
    /// CUBIC flow backs off at `t0` and its queue drains; 25 steps later
    /// a burst of starting flows overflows the buffer in one step. That
    /// back-off is then 25 steps old: more than `rtt + q/C` on the
    /// drained queue, but not more than `rtt + buffer/C` (25.5 steps),
    /// so the flow must not react to the burst.
    #[test]
    fn loss_guard_reads_the_queue_after_service() {
        let mbps = 100.0;
        let c = mbps * 1e6 / 8.0;
        let rtt = 0.02;
        let mut cfg = FluidConfig {
            capacity_bytes_per_sec: c,
            buffer_bytes: 0.0,
            duration_secs: 4.0,
            seed: 3,
            flows: vec![FluidFlowSpec {
                cca: FluidCca::Cubic,
                rtt_secs: rtt,
                start_secs: 0.0,
            }],
        };
        let dt = cfg.dt();
        assert_eq!(dt, rtt / 24.0);
        cfg.buffer_bytes = 1.5 * c * dt;
        let alone = simulate(&cfg).unwrap();
        let t0 = alone.flows[0].backoff_times_secs[0];
        let burst_step = (t0 / dt).round() + 25.0;
        cfg.flows.extend((0..100).map(|_| FluidFlowSpec {
            cca: FluidCca::Cubic,
            rtt_secs: rtt,
            start_secs: burst_step * dt,
        }));
        let r = simulate(&cfg).unwrap();
        let backoffs = &r.flows[0].backoff_times_secs;
        assert_eq!(backoffs[0], t0, "the burst cannot change the past");
        assert!(
            r.flows[1..]
                .iter()
                .any(|f| f.backoff_times_secs.first() == Some(&(burst_step * dt))),
            "the burst must overflow the buffer on its first step"
        );
        let guard = rtt + cfg.buffer_bytes * (1.0 / c);
        for pair in backoffs.windows(2) {
            assert!(
                pair[1] - pair[0] > guard,
                "back-offs at {} and {} are within one RTT ({guard} s)",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut cfg = two_flow_cfg(1);
        cfg.flows.clear();
        assert_eq!(simulate(&cfg).err(), Some(FluidError::NoFlows));
        let mut cfg = two_flow_cfg(1);
        cfg.capacity_bytes_per_sec = 0.0;
        assert!(matches!(
            simulate(&cfg),
            Err(FluidError::Invalid {
                field: "capacity_bytes_per_sec"
            })
        ));
        let mut cfg = two_flow_cfg(1);
        cfg.flows[0].rtt_secs = f64::NAN;
        assert!(simulate(&cfg).is_err());
    }

    #[test]
    fn events_processed_counts_steps() {
        let cfg = two_flow_cfg(1);
        let r = simulate(&cfg).unwrap();
        assert!(r.events_processed > 0);
        assert_eq!(r.events_processed, cfg.steps());
        assert_eq!(r.duration_secs, 15.0);
    }

    /// The hit probability the bracket in [`poisson_hit`] stands in for.
    fn exact_hit(u: f64, x: f64) -> bool {
        u < (1.0 - (-x).exp()).clamp(0.0, 1.0)
    }

    /// An overflow share `x ≥ 0` (MSS units) from one of five classes:
    /// zero, subnormal, around 1e-20, log-uniform over 1e-6…2, and ≥ 40
    /// (where `1 − e^−x` rounds to 1).
    fn share_of_class(class: usize, v: f64) -> f64 {
        match class {
            0 => 0.0,
            1 => f64::from_bits(1 + (v * ((1u64 << 52) - 2) as f64) as u64),
            2 => 1e-20 * (1.0 + v),
            3 => 1e-6 * 2e6_f64.powf(v),
            _ => 40.0 * 1e10_f64.powf(v),
        }
    }

    /// Base RTTs the differential test draws from (several RTT classes
    /// per config).
    const RTTS: [f64; 4] = [0.01, 0.02, 0.035, 0.08];
    const CCAS: [FluidCca; 4] = [
        FluidCca::Cubic,
        FluidCca::NewReno,
        FluidCca::Bbr,
        FluidCca::BbrV2,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        /// The column kernel writes the reference kernel's report bit for
        /// bit: every fluid CCA, interleaved in flow order, several RTT
        /// classes, starts staggered over most of the horizon, buffers
        /// from 0.3 to 40 BDP (steps with and without overflow) and 1 to
        /// 60 flows.
        #[test]
        fn column_kernel_matches_the_reference(
            flows in proptest::prop::collection::vec(((0usize..4, 0usize..4), (0u8..3, 0.0f64..1.0)), 1..61),
            mbps in 0usize..3,
            bdp in 0.3f64..40.0,
            duration_secs in 0.5f64..3.0,
            seed in 0u64..u64::MAX,
        ) {
            let capacity_bytes_per_sec = [10.0, 50.0, 100.0][mbps] * 1e6 / 8.0;
            let cfg = FluidConfig {
                capacity_bytes_per_sec,
                buffer_bytes: (bdp * capacity_bytes_per_sec * 0.02).round(),
                duration_secs,
                seed,
                flows: flows
                    .iter()
                    .map(|&((cca, rtt), (stagger, at))| FluidFlowSpec {
                        cca: CCAS[cca],
                        rtt_secs: RTTS[rtt],
                        // A third of the flows start at 0; the others
                        // within the first 80% of the horizon.
                        start_secs: if stagger == 0 { 0.0 } else { at * 0.8 * duration_secs },
                    })
                    .collect(),
            };
            let got = simulate(&cfg).unwrap().to_json_value().to_json();
            let want = reference::simulate(&cfg).unwrap().to_json_value().to_json();
            proptest::prop_assert!(got == want, "reports differ for {cfg:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(20_000))]

        /// The bracketed hit test decides every draw exactly as the
        /// closed form does: uniform draws, and draws within one ulp of
        /// the probability, of both bracket bounds and of both
        /// margin-shifted thresholds.
        #[test]
        fn bracketed_hit_test_matches_the_closed_form(
            x_draw in (0usize..5, 0.0f64..1.0),
            u_draw in (0usize..6, 0u8..3, 0.0f64..1.0),
        ) {
            let x = share_of_class(x_draw.0, x_draw.1);
            let (anchor, ulps, uniform) = u_draw;
            let lo = x - x * x * 0.5;
            let centre = match anchor {
                0 => uniform,
                1 => (1.0 - (-x).exp()).clamp(0.0, 1.0),
                2 => x,
                3 => lo,
                4 => x + HIT_MARGIN,
                _ => lo - HIT_MARGIN,
            };
            let u = match ulps {
                0 => centre.next_down(),
                1 => centre,
                _ => centre.next_up(),
            };
            // Draws come from [0, 1); anchors outside it stand for none.
            let u = if (0.0..1.0).contains(&u) { u } else { uniform };
            proptest::prop_assert_eq!(poisson_hit(u, x), exact_hit(u, x), "u = {u:e}, x = {x:e}");
        }
    }
}
