//! The kernel [`crate::simulate`] replaced: one pass per step over a
//! vector of per-flow enums, zipped with the flow specs. Kept as the
//! executable specification the column kernel is checked against, bit
//! for bit (`column_kernel_matches_the_reference` in the crate tests).

use super::*;

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

/// The reference kernel: the same contract as [`crate::simulate`].
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
        events_processed: steps,
        trace: Trace::default(),
        workload_spawned: 0,
        workload_completed: 0,
        workload_fct: Vec::new(),
    })
}
