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
//! count, which [`FluidConfig::steps`] gives before integrating, so event
//! budgets and perf accounting stay meaningful.
//!
//! Each step divides once per active flow (`1/R`; CUBIC once more) and,
//! when the buffer overflows, takes one RNG draw per active flow. Three
//! shortcuts keep that cheap without changing an output bit or the order
//! of draws: a draw no flow can act on (BBRv1, or a flow inside its
//! once-per-RTT guard) only advances the stream; the hit test decides
//! from the bracket `x − x²/2 ≤ 1 − e^−x ≤ x` and calls `exp` only for a
//! draw near the probability; and `min`/`max` are NaN-free compares.
//! `DESIGN.md` §6.2 gives the exactness arguments.
//!
//! ## Validity envelope
//!
//! The fluid backend deliberately rejects — with a typed
//! [`FluidError`] — everything outside the regime where the aggregate
//! approximation is trusted: only CUBIC / NewReno / BBR / BBRv2 flows,
//! drop-tail queues, clean paths (no fault injection), backlogged flows
//! (no byte limits), and fixed horizons (no early-stop policy). Within
//! the envelope, steady-state shares track the DES within the tolerances
//! documented in `EXPERIMENTS.md` (cross-validation suite in
//! `tests/fluid_vs_des.rs`); transients, per-packet loss patterns and
//! queue-delay microstructure are *not* faithful, which is why the
//! two-tier pipeline always certifies equilibria with DES cells.
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
    /// [`SimReport::events_processed`] it reports, so a caller can check
    /// an event budget before integrating. Meaningful only for a config
    /// that passes [`FluidConfig::validate`].
    pub fn steps(&self) -> u64 {
        (self.duration_secs / self.dt()).ceil() as u64
    }
}

/// Per-flow loss-based (CUBIC / NewReno) window state.
struct LossState {
    /// Congestion window, bytes.
    w: f64,
    /// Window at the last back-off, MSS units (CUBIC's `W_max`).
    w_max_mss: f64,
    /// Seconds since the last back-off (CUBIC epoch clock).
    epoch: f64,
    /// CUBIC's `K` for the current `w_max_mss` — cached because `cbrt`
    /// in the per-step window evaluation dominates the loss-flow cost.
    k: f64,
    slow_start: bool,
    /// Last back-off time (one reaction per RTT, like TCP).
    last_backoff: f64,
}

/// Per-flow BBR (v1/v2) state.
struct BbrState {
    /// Output of the delivery-rate max filter, bytes/s.
    btlbw: f64,
    /// Ring of per-round delivery-rate samples feeding the max filter.
    bw_ring: Vec<f64>,
    bw_pos: usize,
    /// Windowed-minimum RTT estimate and its freshness stamp.
    rtprop: f64,
    rtprop_stamp: f64,
    /// Current round (one rtprop) bookkeeping. The bandwidth sample fed
    /// to the max filter is the *maximum instantaneous* delivered rate
    /// seen within the round (mirroring per-ACK delivery-rate sampling):
    /// this is what lets BBR's estimate ratchet upward during the brief
    /// queue drain after a competing CUBIC back-off — the inflight-cap
    /// domination mechanism (Ware et al., IMC '19) that decides shallow
    /// buffers. A round-average sample misses those spikes and
    /// systematically underestimates BBR's share.
    round_start: f64,
    round_max_rate: f64,
    /// ProbeBW gain-cycle index.
    phase: usize,
    startup: bool,
    drain: bool,
    full_bw: f64,
    full_rounds: u32,
    /// While `t < probe_rtt_until` the flow sits at 4 MSS of inflight.
    probe_rtt_until: f64,
    probe_rtt_min: f64,
    /// BBRv2 inflight-ceiling multiplier (1.0 for v1; cut on loss).
    hi_mult: f64,
    last_loss_cut: f64,
}

enum CcState {
    Loss(LossState),
    Bbr(BbrState),
}

/// One flow's integration state: its CC model, its sending rate this
/// step (0 before it starts) and its measurement accumulators.
struct FlowSim {
    cc: CcState,
    rate: f64,
    acc: FlowAcc,
}

/// Per-flow measurement accumulators (mirrors the DES's `FlowStats`).
#[derive(Default)]
struct FlowAcc {
    sent_bytes: f64,
    delivered_bytes: f64,
    dropped_bytes: f64,
    backoffs: Vec<f64>,
    occupancy_integral: f64,
    cwnd_integral: f64,
    max_cwnd: f64,
    rtt_integral: f64,
    active_secs: f64,
    congestion_events: u64,
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

    // Initial per-flow state. BBR phases and round clocks are staggered
    // by the seed so flows (and trials) decorrelate, mirroring the DES's
    // per-flow phase seeds.
    let mut sims: Vec<FlowSim> = cfg
        .flows
        .iter()
        .map(|f| {
            let cc = if f.cca.is_loss_based() {
                CcState::Loss(LossState {
                    w: 10.0 * mss,
                    w_max_mss: 10.0,
                    epoch: 0.0,
                    k: cubic_k(10.0),
                    slow_start: true,
                    last_backoff: f64::NEG_INFINITY,
                })
            } else {
                CcState::Bbr(BbrState {
                    btlbw: 10.0 * mss / f.rtt_secs,
                    bw_ring: Vec::with_capacity(BW_FILTER_ROUNDS),
                    bw_pos: 0,
                    rtprop: f.rtt_secs,
                    rtprop_stamp: f.start_secs,
                    round_start: f.start_secs + rng.gen_range(0.0..f.rtt_secs),
                    round_max_rate: 0.0,
                    phase: rng.gen_range(0..PROBE_GAINS.len()),
                    startup: true,
                    drain: false,
                    full_bw: 0.0,
                    full_rounds: 0,
                    probe_rtt_until: f64::NEG_INFINITY,
                    probe_rtt_min: f64::INFINITY,
                    hi_mult: 1.0,
                    last_loss_cut: f64::NEG_INFINITY,
                })
            };
            FlowSim {
                cc,
                rate: 0.0,
                acc: FlowAcc::default(),
            }
        })
        .collect();

    let mut q = 0.0_f64;
    let mut q_integral = 0.0;
    let mut q_peak = 0.0_f64;
    let mut total_dropped = 0.0;

    let inv_c = 1.0 / c;
    for step in 0..steps {
        let t = step as f64 * dt;
        let mut total_rate = 0.0;
        let q_delay = q * inv_c;
        for (f, sim) in cfg.flows.iter().zip(&mut sims) {
            if t < f.start_secs {
                sim.rate = 0.0;
                continue;
            }
            let r = f.rtt_secs + q_delay;
            let r_inv = 1.0 / r;
            let (rate, cwnd) = match &mut sim.cc {
                CcState::Loss(s) => {
                    if s.slow_start {
                        // Doubling per RTT: dw/dt = w·ln2/R.
                        s.w += s.w * std::f64::consts::LN_2 * dt * r_inv;
                    } else {
                        s.epoch += dt;
                        let growth = match f.cca {
                            FluidCca::Cubic => cubic_window_mss(s.epoch, s.w_max_mss, s.k, r) * mss,
                            // NewReno: one MSS per RTT from the back-off point.
                            _ => s.w_max_mss * RENO_BETA * mss + mss * s.epoch * r_inv,
                        };
                        s.w = fmax(growth, 2.0 * mss);
                    }
                    // Physical ceiling: a window beyond BDP + buffer only
                    // inflates drops the queue already accounts for.
                    s.w = fmin(s.w, 2.0 * (c * r + buffer));
                    (s.w * r_inv, s.w)
                }
                CcState::Bbr(s) => {
                    // rtprop tracking and ProbeRTT.
                    if t < s.probe_rtt_until {
                        s.probe_rtt_min = fmin(s.probe_rtt_min, r);
                    } else if s.probe_rtt_min.is_finite() {
                        // Leaving ProbeRTT: adopt the drained floor.
                        s.rtprop = s.probe_rtt_min;
                        s.rtprop_stamp = t;
                        s.probe_rtt_min = f64::INFINITY;
                    } else if r <= s.rtprop {
                        s.rtprop = r;
                        s.rtprop_stamp = t;
                    } else if t - s.rtprop_stamp > RTPROP_WINDOW_SECS {
                        s.probe_rtt_until = t + PROBE_RTT_SECS;
                        s.probe_rtt_min = r;
                    }
                    // Round boundary: fold the round's delivery rate into
                    // the max filter, advance the gain cycle.
                    let round_len = fmax(t - s.round_start, dt);
                    if round_len >= s.rtprop {
                        let sample = fmin(s.round_max_rate * BW_SAMPLE_HEADROOM, c);
                        if s.bw_ring.len() < BW_FILTER_ROUNDS {
                            s.bw_ring.push(sample);
                        } else {
                            s.bw_ring[s.bw_pos] = sample;
                            s.bw_pos = (s.bw_pos + 1) % BW_FILTER_ROUNDS;
                        }
                        s.btlbw = s.bw_ring.iter().copied().fold(sample, fmax);
                        s.round_start = t;
                        s.round_max_rate = 0.0;
                        s.phase = (s.phase + 1) % PROBE_GAINS.len();
                        if s.startup {
                            if s.btlbw > s.full_bw * 1.25 {
                                s.full_bw = s.btlbw;
                                s.full_rounds = 0;
                            } else {
                                s.full_rounds += 1;
                                if s.full_rounds >= STARTUP_FULL_ROUNDS {
                                    s.startup = false;
                                    s.drain = true;
                                }
                            }
                        } else if s.drain {
                            s.drain = false; // one drain round
                        }
                        // BBRv2 ceiling recovers a few percent per round.
                        s.hi_mult = fmin(s.hi_mult * 1.05, 1.0);
                    }
                    let in_probe_rtt = t < s.probe_rtt_until;
                    let (pacing_gain, cwnd_gain) = if s.startup {
                        (STARTUP_GAIN, STARTUP_GAIN)
                    } else if s.drain {
                        (1.0 / STARTUP_GAIN, 2.0)
                    } else {
                        (PROBE_GAINS[s.phase], 2.0)
                    };
                    let headroom = if f.cca == FluidCca::BbrV2 {
                        V2_HEADROOM
                    } else {
                        1.0
                    };
                    let cwnd = if in_probe_rtt {
                        4.0 * mss
                    } else {
                        fmax(
                            cwnd_gain * s.btlbw * s.rtprop * headroom * s.hi_mult,
                            4.0 * mss,
                        )
                    };
                    let rate = fmax(fmin(pacing_gain * s.btlbw, cwnd * r_inv), mss * r_inv);
                    (rate, cwnd)
                }
            };
            sim.rate = rate;
            total_rate += rate;
            let a = &mut sim.acc;
            a.active_secs += dt;
            a.rtt_integral += r * dt;
            a.cwnd_integral += cwnd * dt;
            a.max_cwnd = fmax(a.max_cwnd, cwnd);
        }

        // Shared-queue service: drain at link rate while backlogged.
        let depart = if q > 0.0 { c } else { fmin(total_rate, c) };
        let mut q_next = q + (total_rate - depart) * dt;
        let overflow = fmax(q_next - buffer, 0.0);
        q_next = q_next.clamp(0.0, buffer);
        total_dropped += overflow;

        let inv_total = 1.0 / fmax(total_rate, f64::MIN_POSITIVE);
        for (f, sim) in cfg.flows.iter().zip(&mut sims) {
            if sim.rate <= 0.0 {
                continue;
            }
            let share = sim.rate * inv_total;
            let a = &mut sim.acc;
            a.sent_bytes += sim.rate * dt;
            a.delivered_bytes += depart * share * dt;
            a.occupancy_integral += q_next * share * dt;
            if overflow > 0.0 {
                let dropped_i = overflow * share;
                a.dropped_bytes += dropped_i;
                // Poisson thinning: the chance this flow saw at least one
                // of the event's dropped packets. Partial synchronization
                // — the regime the paper measures — emerges naturally:
                // small overflows hit few flows, deep ones hit all.
                // Every active flow takes one draw per overflow step, but
                // only a flow that may react (loss-based or BBRv2, past
                // its once-per-RTT guard) needs the outcome; the others
                // just advance the stream.
                let r = f.rtt_secs + q_next * inv_c;
                let armed = match &sim.cc {
                    CcState::Loss(s) => t - s.last_backoff > r,
                    CcState::Bbr(s) => f.cca == FluidCca::BbrV2 && t - s.last_loss_cut > r,
                };
                if !armed {
                    rng.next_u64();
                } else if poisson_hit(rng.gen_range(0.0..1.0), dropped_i / mss) {
                    match &mut sim.cc {
                        CcState::Loss(s) => {
                            let w_mss = s.w / mss;
                            // CUBIC fast convergence: a shrinking flow
                            // remembers a slightly smaller W_max.
                            s.w_max_mss = if w_mss < s.w_max_mss {
                                w_mss * (2.0 - CUBIC_BETA) / 2.0
                            } else {
                                w_mss
                            };
                            let beta = if f.cca == FluidCca::Cubic {
                                CUBIC_BETA
                            } else {
                                RENO_BETA
                            };
                            s.k = cubic_k(s.w_max_mss);
                            s.w = fmax(s.w * beta, 2.0 * mss);
                            s.epoch = 0.0;
                            s.slow_start = false;
                            s.last_backoff = t;
                            a.backoffs.push(t);
                        }
                        CcState::Bbr(s) => {
                            s.hi_mult = fmax(s.hi_mult * V2_LOSS_CUT, 0.3);
                            s.last_loss_cut = t;
                        }
                    }
                    a.congestion_events += 1;
                }
            }
            if let CcState::Bbr(s) = &mut sim.cc {
                s.round_max_rate = fmax(s.round_max_rate, depart * share);
            }
        }

        q = q_next;
        q_integral += q * dt;
        q_peak = fmax(q_peak, q);
    }

    let horizon = steps as f64 * dt;
    let flows = cfg
        .flows
        .iter()
        .zip(&sims)
        .enumerate()
        .map(|(i, (f, sim))| {
            let a = &sim.acc;
            FlowReport {
                flow: FlowId(i as u32),
                cc_name: f.cca.name().to_string(),
                throughput_bytes_per_sec: a.delivered_bytes / horizon,
                goodput_bytes: a.delivered_bytes.round() as u64,
                sent_bytes: a.sent_bytes.round() as u64,
                retransmits: (a.dropped_bytes / mss).round() as u64,
                lost_packets: (a.dropped_bytes / mss).round() as u64,
                congestion_events: a.congestion_events,
                rtos: 0,
                wire_lost_fwd: 0,
                wire_lost_ack: 0,
                avg_queue_occupancy_bytes: a.occupancy_integral / horizon,
                min_rtt_secs: (a.active_secs > 0.0).then_some(f.rtt_secs),
                mean_rtt_secs: (a.active_secs > 0.0).then(|| a.rtt_integral / a.active_secs),
                avg_cwnd_bytes: if a.active_secs > 0.0 {
                    a.cwnd_integral / a.active_secs
                } else {
                    0.0
                },
                max_cwnd_bytes: a.max_cwnd.round() as u64,
                completion_time_secs: None,
                backoff_times_secs: a.backoffs.clone(),
            }
        })
        .collect::<Vec<_>>();
    let delivered_total: f64 = sims.iter().map(|s| s.acc.delivered_bytes).sum();
    let sent_total: f64 = sims.iter().map(|s| s.acc.sent_bytes).sum();
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
        effective_duration_secs: cfg.duration_secs,
        early_stopped: false,
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
        assert!(!r.early_stopped);
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
