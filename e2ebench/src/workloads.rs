//! The benchmark's workloads and the seeded generation of their inputs.
//!
//! Every input a run uses is derived here from `--seed` through the
//! stable hash: the program under test only ever receives the generated
//! [`Scenario`]s (figure workloads) or simulator configurations
//! (`forwarding`). The shape of each workload (panels, buffers, splits,
//! horizons) is fixed; the seed picks the trial seeds, so different seeds
//! are different trials of the same experiment.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::payoff::{default_epsilon_mbps, distribution_scenario};
use bbrdom_experiments::{BackendSpec, DisciplineSpec, FaultSpec, Profile, Scenario, WorkloadSpec};
use bbrdom_netsim::cc::FixedWindow;
use bbrdom_netsim::hash::{StableHash, StableHasher};
use bbrdom_netsim::{FlowConfig, Rate, SimConfig, SimDuration, SimTime, Simulator, Topology, MSS};

/// Workload names, in the order the all-workloads mode runs them.
pub const NAMES: [&str; 4] = ["ne-des", "ne-fluid", "churn", "forwarding"];

/// The seed whose digests and work counts are pinned in `pins.json`.
pub const DEFAULT_SEED: u64 = 1;

/// Stable 64-bit value derived from the workload, the seed and a label.
fn derive(workload: &str, seed: u64, label: &[u8], index: u64) -> u64 {
    let mut h = StableHasher::new();
    h.write_bytes(b"e2ebench");
    workload.stable_hash(&mut h);
    seed.stable_hash(&mut h);
    h.write_bytes(label);
    index.stable_hash(&mut h);
    h.finish() as u64
}

/// One row of a Nash-equilibrium figure: every CUBIC/BBR split of `n`
/// flows at one network setting, `profile.ne_trials` times.
#[derive(Debug, Clone)]
pub struct Row {
    pub mbps: f64,
    pub rtt_ms: f64,
    pub buffer_bdp: f64,
    pub n: u32,
    /// Cell horizon, trials, backend and background workload.
    pub profile: Profile,
    pub base_seed: u64,
}

impl Row {
    /// The splits the NE search measures: `k = 0..=n` BBR flows.
    pub fn ks(&self) -> Vec<u32> {
        (0..=self.n).collect()
    }

    /// The row's cells, trial-major then `k`, as
    /// `payoff::measure_payoffs_at_on` builds them for every `k` at once.
    pub fn cells(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for trial in 0..self.profile.ne_trials.max(1) {
            for k in self.ks() {
                out.push(distribution_scenario(
                    self.mbps,
                    self.rtt_ms,
                    self.buffer_bdp,
                    self.n,
                    k,
                    trial,
                    CcaKind::Bbr,
                    &self.profile,
                    self.base_seed,
                    DisciplineSpec::DropTail,
                    &FaultSpec::default(),
                ));
            }
        }
        out
    }

    /// NE tolerance the figures use for this row.
    pub fn epsilon(&self) -> f64 {
        default_epsilon_mbps(self.mbps, self.n)
    }

    /// Web-churn arrival rate of the row's background workload (0 when
    /// none), for the CSV.
    pub fn churn_rate(&self) -> f64 {
        match self.profile.workload.map(|w| w.arrival) {
            Some(bbrdom_experiments::ArrivalSpec::Poisson { rate_per_sec }) => rate_per_sec,
            _ => 0.0,
        }
    }
}

/// Shape of one figure workload; see the README for why each was chosen.
struct FigureShape {
    panels: &'static [(f64, f64)],
    buffers: &'static [f64],
    n: u32,
    duration_secs: f64,
    trials: u32,
    backend: BackendSpec,
    /// Web-churn arrival rates (flows/s); empty for no churn.
    churn_rates: &'static [f64],
}

fn figure_shape(workload: &str, smoke: bool) -> Option<FigureShape> {
    let shape = match (workload, smoke) {
        ("ne-des", false) => FigureShape {
            panels: &[(50.0, 20.0)],
            buffers: &[0.5, 2.0, 8.0, 32.0],
            n: 20,
            duration_secs: 4.0,
            trials: 2,
            backend: BackendSpec::Des,
            churn_rates: &[],
        },
        ("ne-fluid", false) => FigureShape {
            panels: &[(50.0, 20.0), (100.0, 40.0)],
            buffers: &[0.5, 2.0, 8.0, 32.0],
            n: 50,
            duration_secs: 10.0,
            trials: 1,
            backend: BackendSpec::Fluid,
            churn_rates: &[],
        },
        ("churn", false) => FigureShape {
            panels: &[(50.0, 40.0)],
            buffers: &[4.0],
            n: 10,
            duration_secs: 10.0,
            trials: 1,
            backend: BackendSpec::Des,
            churn_rates: &[20.0, 80.0, 200.0],
        },
        ("ne-des", true) => FigureShape {
            panels: &[(50.0, 20.0)],
            buffers: &[8.0],
            n: 6,
            duration_secs: 2.0,
            trials: 1,
            backend: BackendSpec::Des,
            churn_rates: &[],
        },
        ("ne-fluid", true) => FigureShape {
            panels: &[(50.0, 20.0)],
            buffers: &[8.0],
            n: 50,
            duration_secs: 2.0,
            trials: 1,
            backend: BackendSpec::Fluid,
            churn_rates: &[],
        },
        ("churn", true) => FigureShape {
            panels: &[(50.0, 40.0)],
            buffers: &[4.0],
            n: 10,
            duration_secs: 2.0,
            trials: 1,
            backend: BackendSpec::Des,
            churn_rates: &[80.0],
        },
        _ => return None,
    };
    Some(shape)
}

/// The rows of a figure workload for `seed`, or `None` when `workload`
/// is not a figure workload.
pub fn figure_rows(workload: &str, seed: u64, smoke: bool) -> Option<Vec<Row>> {
    let shape = figure_shape(workload, smoke)?;
    let churn: Vec<Option<WorkloadSpec>> = if shape.churn_rates.is_empty() {
        vec![None]
    } else {
        shape
            .churn_rates
            .iter()
            .map(|&rate| Some(WorkloadSpec::web(CcaKind::Cubic, rate, 20.0)))
            .collect()
    };
    let mut rows = Vec::new();
    for &(mbps, rtt_ms) in shape.panels {
        for &buffer_bdp in shape.buffers {
            for &workload_spec in &churn {
                let profile = Profile {
                    duration_secs: shape.duration_secs,
                    ne_flows: shape.n,
                    ne_trials: shape.trials,
                    backend: shape.backend,
                    workload: workload_spec,
                    ..Profile::quick()
                };
                let index = rows.len() as u64;
                rows.push(Row {
                    mbps,
                    rtt_ms,
                    buffer_bdp,
                    n: shape.n,
                    profile,
                    base_seed: derive(workload, seed, b"row", index),
                });
            }
        }
    }
    Some(rows)
}

/// One bare-forwarding configuration: `FixedWindow` senders, so the run
/// costs only the event queue, queues, links and routing.
#[derive(Debug, Clone, Copy)]
pub struct ForwardingCase {
    pub name: &'static str,
    /// Long flows (for the parking lot, flows that cross every hop).
    pub flows: usize,
    /// Per-flow window as a fraction of the path BDP.
    pub window_bdp: f64,
    /// `(hops, cross flows per hop)` for the parking lot; `None` is the
    /// dumbbell.
    pub parking_lot: Option<(u32, usize)>,
    pub horizon_secs: f64,
    /// Seeded start offsets of the flows, within one RTT.
    pub start_seed: u64,
}

const FWD_RTT_MS: u64 = 20;

/// Start-phase draws per configuration. How the flows' start phases
/// interleave moves the cost per event by up to a fifth at the same
/// event count, so a pass averages over several draws.
const FWD_DRAWS: u64 = 8;

/// The forwarding cases for `seed`: netsim_perf's
/// `dumbbell_1s_10flows_100mbps` and `parkinglot_1s_3hops_100mbps`
/// configurations, each as [`FWD_DRAWS`] runs with their own start
/// phases, together about 2 and 4 million events.
pub fn forwarding_cases(seed: u64, smoke: bool) -> Vec<ForwardingCase> {
    let scale = if smoke { 1.0 / 60.0 } else { 1.0 };
    let configs = [
        ForwardingCase {
            name: "dumbbell",
            flows: 10,
            window_bdp: 1.0 / 3.0,
            parking_lot: None,
            horizon_secs: 120.0,
            start_seed: 0,
        },
        ForwardingCase {
            name: "parkinglot",
            flows: 4,
            window_bdp: 1.0 / 3.0,
            parking_lot: Some((3, 2)),
            horizon_secs: 80.0,
            start_seed: 0,
        },
    ];
    configs
        .into_iter()
        .flat_map(|c| {
            (0..FWD_DRAWS).map(move |draw| ForwardingCase {
                horizon_secs: c.horizon_secs * scale / FWD_DRAWS as f64,
                start_seed: derive("forwarding", seed, c.name.as_bytes(), draw),
                ..c
            })
        })
        .collect()
}

impl ForwardingCase {
    /// Build the simulator (100 Mbps, 20 ms, 2-BDP buffers), as
    /// netsim_perf does, with each flow starting at a seeded offset.
    pub fn build(&self) -> Simulator {
        let rate = Rate::from_mbps(100.0);
        let rtt = SimDuration::from_millis(FWD_RTT_MS);
        let buf = bbrdom_netsim::units::buffer_bytes(rate, rtt, 2.0);
        let mut cfg = SimConfig::new(rate, buf, SimDuration::from_secs_f64(self.horizon_secs));
        let mut cross = 0;
        if let Some((hops, cross_per_hop)) = self.parking_lot {
            let mut topo = Topology::parking_lot(hops, rate, SimDuration::from_millis(2), buf);
            topo.flow_routes = (0..self.flows as u32)
                .map(|_| 0)
                .chain((0..hops).flat_map(|h| std::iter::repeat_n(1 + h, cross_per_hop)))
                .collect();
            cross = hops as usize * cross_per_hop;
            cfg = cfg.with_topology(topo);
        }
        let mut sim = Simulator::try_new(cfg).expect("forwarding configs are valid");
        let window = ((rate.bdp_bytes(rtt) as f64 * self.window_bdp) as u64).max(MSS);
        for i in 0..self.flows + cross {
            let offset_us =
                derive(self.name, self.start_seed, b"start", i as u64) % (FWD_RTT_MS * 1000);
            sim.add_flow(
                FlowConfig::new(Box::new(FixedWindow::new(window)), rtt)
                    .starting_at(SimTime::from_secs_f64(offset_us as f64 * 1e-6)),
            );
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_seeds_differ() {
        let a = figure_rows("ne-des", 3, false).unwrap();
        let b = figure_rows("ne-des", 3, false).unwrap();
        let c = figure_rows("ne-des", 4, false).unwrap();
        let seeds = |rows: &[Row]| rows.iter().map(|r| r.base_seed).collect::<Vec<_>>();
        assert_eq!(seeds(&a), seeds(&b));
        assert_ne!(seeds(&a), seeds(&c));
        let cells: Vec<String> = a.iter().flat_map(Row::cells).map(|s| s.to_json()).collect();
        let again: Vec<String> = b.iter().flat_map(Row::cells).map(|s| s.to_json()).collect();
        assert_eq!(cells, again);
    }

    #[test]
    fn every_workload_has_inputs_in_both_modes() {
        for smoke in [false, true] {
            for name in NAMES {
                let rows = figure_rows(name, 1, smoke);
                assert_eq!(rows.is_none(), name == "forwarding", "{name}");
                if let Some(rows) = rows {
                    assert!(rows
                        .iter()
                        .all(|r| r.cells().len()
                            == (r.n as usize + 1) * r.profile.ne_trials as usize));
                }
            }
            assert_eq!(forwarding_cases(1, smoke).len(), 2 * FWD_DRAWS as usize);
        }
    }
}
