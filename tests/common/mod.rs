//! Shared fixtures for the workspace-level regression suites: the
//! golden-seed scenario matrix, the bit-exact report fingerprint, and
//! the raw-report runner. Used by `golden_simreports.rs` (pins the
//! matrix against checked-in goldens) and `topology_equivalence.rs`
//! (re-runs the same matrix with the dumbbell spelled as an explicit
//! topology and demands bit-identical reports).
#![allow(dead_code)]

use bbrdom_experiments::scenario::{BackendSpec, DisciplineSpec, FaultSpec, Scenario};
use bbrdom_netsim::SimReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over a byte stream.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u64(u64::MAX - 1),
            Some(x) => self.f64(x),
        }
    }
}

/// Every field of the report, bit-exact, folded into one u64.
pub fn fingerprint(report: &SimReport) -> u64 {
    let mut h = Fnv::new();
    h.f64(report.duration_secs);
    h.u64(report.events_processed);
    for f in &report.flows {
        h.write(f.cc_name.as_bytes());
        h.f64(f.throughput_bytes_per_sec);
        h.u64(f.goodput_bytes);
        h.u64(f.sent_bytes);
        h.u64(f.retransmits);
        h.u64(f.lost_packets);
        h.u64(f.congestion_events);
        h.u64(f.rtos);
        h.f64(f.avg_queue_occupancy_bytes);
        h.opt_f64(f.min_rtt_secs);
        h.opt_f64(f.mean_rtt_secs);
        h.f64(f.avg_cwnd_bytes);
        h.u64(f.max_cwnd_bytes);
        h.opt_f64(f.completion_time_secs);
        h.u64(f.backoff_times_secs.len() as u64);
        for &t in &f.backoff_times_secs {
            h.f64(t);
        }
    }
    let q = &report.queue;
    h.f64(q.avg_occupancy_bytes);
    h.f64(q.avg_queuing_delay_secs);
    h.u64(q.peak_occupancy_bytes);
    h.u64(q.capacity_bytes);
    h.u64(q.dropped_packets);
    h.u64(q.aqm_drops);
    h.u64(q.enqueued_packets);
    h.f64(q.utilization);
    h.u64(q.drops.len() as u64);
    for &(t, flow) in &q.drops {
        h.f64(t);
        h.u64(flow.0 as u64);
    }
    h.0
}

/// The regression matrix: every CCA the paper studies, shallow and deep
/// buffers, two seeds — plus a many-flow case and an AQM case so the
/// queue disciplines and larger event populations are covered too.
pub fn matrix() -> Vec<(String, Scenario)> {
    use bbrdom_cca::CcaKind::*;
    let mut cases = Vec::new();
    for cca in [Cubic, NewReno, Bbr, BbrV2, Copa, Vivace, Vegas] {
        for buffer_bdp in [0.5, 2.0] {
            for seed in [1u64, 2] {
                let s = Scenario::versus(10.0, 20.0, buffer_bdp, 1, cca, 1, 5.0, seed);
                cases.push((
                    format!("{}_b{buffer_bdp}_s{seed}", s.flows[1].cca.name()),
                    s,
                ));
            }
        }
    }
    // 8 flows, mixed algorithms, deeper buffer: bigger event population.
    let mixed = Scenario::versus(40.0, 30.0, 3.0, 4, Bbr, 4, 5.0, 7);
    cases.push(("mixed8_b3_s7".to_string(), mixed));
    // AQM paths (RED drops on arrival, CoDel at dequeue).
    for (name, d) in [
        ("red", DisciplineSpec::Red),
        ("codel", DisciplineSpec::Codel),
    ] {
        let s = Scenario::versus(20.0, 20.0, 2.0, 1, Bbr, 1, 5.0, 3).with_discipline(d);
        cases.push((format!("{name}_b2_s3"), s));
    }
    // Seeded fault schedules: wire loss, outage + capacity step, and a
    // delay spike, so the fault RNG and schedule plumbing are pinned too.
    let mut lossy = Scenario::versus(10.0, 20.0, 2.0, 1, Cubic, 1, 5.0, 11);
    lossy.faults = FaultSpec {
        loss_fwd: 0.01,
        loss_ack: 0.005,
        ..FaultSpec::default()
    };
    cases.push(("faults_loss_s11".to_string(), lossy));
    let mut outage = Scenario::versus(20.0, 40.0, 1.0, 2, Bbr, 2, 6.0, 12);
    outage.faults = FaultSpec {
        outages: vec![(2.0, 0.5)],
        rate_steps: vec![(4.0, 10.0)],
        ..FaultSpec::default()
    };
    cases.push(("faults_outage_rate_s12".to_string(), outage));
    let mut spike = Scenario::versus(15.0, 30.0, 2.0, 1, BbrV2, 1, 5.0, 13);
    spike.faults = FaultSpec {
        loss_fwd: 0.002,
        delay_spikes: vec![(1.5, 0.5, 30.0)],
        ..FaultSpec::default()
    };
    cases.push(("faults_spike_s13".to_string(), spike));
    // Randomized configs from a pinned RNG: broad coverage of the config
    // space (rates, RTTs, buffers, splits, disciplines, faults) without
    // hand-picking. The draw sequence is part of the golden contract.
    let mut rng = StdRng::seed_from_u64(0x601d_5eed);
    let ccas = [Cubic, NewReno, Bbr, BbrV2, Copa, Vivace, Vegas];
    for i in 0..10 {
        let mbps = [8.0, 16.0, 32.0][rng.gen_range(0usize..3)];
        let rtt_ms = [10.0, 20.0, 40.0][rng.gen_range(0usize..3)];
        let buffer_bdp = [0.5, 1.0, 2.0, 4.0][rng.gen_range(0usize..4)];
        let n_each: u32 = rng.gen_range(1u32..4);
        let incumbent = ccas[rng.gen_range(0..ccas.len())];
        let challenger = ccas[rng.gen_range(0..ccas.len())];
        let seed = rng.gen_range(1..1_000_000u64);
        let mut s = Scenario::versus(
            mbps, rtt_ms, buffer_bdp, n_each, challenger, n_each, 4.0, seed,
        );
        s.flows[..n_each as usize]
            .iter_mut()
            .for_each(|f| f.cca = incumbent);
        if rng.gen_bool(0.5) {
            s.faults.loss_fwd = [0.001, 0.005][rng.gen_range(0usize..2)];
        }
        if rng.gen_bool(0.3) {
            s.faults.outages.push((1.0, 0.25));
        }
        cases.push((format!("rand{i:02}"), s));
    }
    cases
}

/// Scenario::run returns a TrialResult; the harnesses need the raw
/// SimReport, so rebuild the simulator the same way Scenario does (or,
/// for a fluid-backend scenario, run the fluid model).
pub fn run_report(s: &Scenario) -> SimReport {
    match s.backend {
        BackendSpec::Des => s.build_simulator().run(),
        BackendSpec::Fluid => s.try_report().expect("fluid run"),
    }
}
