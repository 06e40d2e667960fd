//! Topology-equivalence suite: the explicit-dumbbell contract.
//!
//! A scenario without a topology runs the implicit dumbbell, which the
//! simulator lowers to `Topology::dumbbell` on the same compiled-path
//! engine every topology uses. Spelling that dumbbell out as an explicit
//! 4-node / 3-link [`bbrdom_experiments::TopologySpec`] must produce a
//! **bit-identical** [`bbrdom_netsim::SimReport`] — same event count,
//! same float bits, same serialized JSON. This suite runs the entire
//! golden-seed matrix (every CCA, shallow/deep buffers, AQM disciplines,
//! seeded fault schedules, randomized configs) both ways and diffs the
//! full reports, plus workload and audited variants.
//!
//! If this suite fails, the lowering of the implicit dumbbell (or the
//! experiments layer's `TopologySpec::dumbbell`) has drifted from the
//! explicit spelling — that is a correctness bug, never a golden to
//! regenerate.

mod common;

use bbrdom_cca::CcaKind;
use bbrdom_experiments::{Scenario, TopologySpec, WorkloadSpec};
use bbrdom_netsim::cc::FixedWindow;
use bbrdom_netsim::{
    FaultSchedule, FlowConfig, Rate, SimConfig, SimDuration, SimTime, Simulator, Topology,
};
use common::{fingerprint, matrix, run_report};

/// Full-report JSON, the strictest practical equality (shortest
/// round-trip float formatting pins every bit).
fn report_json(s: &Scenario) -> String {
    run_report(s).to_json_value().to_json()
}

/// The scenario with its dumbbell spelled as an explicit topology.
fn explicit(s: &Scenario) -> Scenario {
    let topo = TopologySpec::dumbbell(s.mbps, s.buffer_bdp);
    s.clone().with_topology(Some(topo))
}

/// Every golden-matrix scenario — all CCAs, buffer depths, disciplines,
/// and fault schedules — must be bit-identical when the dumbbell is
/// spelled as an explicit topology.
#[test]
fn golden_matrix_is_bit_identical_as_topology() {
    let mut mismatches = Vec::new();
    for (key, implicit) in matrix() {
        let topo = explicit(&implicit);
        topo.validate()
            .unwrap_or_else(|e| panic!("{key}: explicit dumbbell must validate: {e}"));
        let l = run_report(&implicit);
        let t = run_report(&topo);
        assert!(
            t.hops.is_empty(),
            "{key}: single-bottleneck topology must not grow per-hop reports"
        );
        if l.to_json_value().to_json() != t.to_json_value().to_json() {
            mismatches.push(format!(
                "{key}: implicit fingerprint {:016x}, explicit {:016x}",
                fingerprint(&l),
                fingerprint(&t)
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "the explicit dumbbell diverged from the implicit one:\n{}",
        mismatches.join("\n")
    );
}

/// Open-loop workload runs route their short flows over the topology's
/// `workload_route` and must stay bit-identical too.
#[test]
fn workload_scenario_is_bit_identical_as_topology() {
    let implicit = Scenario::versus(20.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 17)
        .with_workload(Some(WorkloadSpec::web(CcaKind::Cubic, 40.0, 15.0)));
    assert_eq!(report_json(&implicit), report_json(&explicit(&implicit)));
}

/// With the conservation auditor enabled and a seeded fault schedule
/// active, both spellings must still agree bit for bit (the auditor
/// itself must not perturb either run).
#[test]
fn audited_faulted_run_is_bit_identical_as_topology() {
    let run = |with_topo: bool| {
        let rate = Rate::from_mbps(12.0);
        let rtt = SimDuration::from_millis(30);
        let buffer = bbrdom_netsim::units::buffer_bytes(rate, rtt, 2.0);
        let mut cfg = SimConfig::new(rate, buffer, SimDuration::from_secs_f64(6.0))
            .with_faults(FaultSchedule {
                loss_fwd: 0.01,
                outages: vec![(SimTime::from_secs_f64(2.0), SimDuration::from_secs_f64(0.3))],
                ..FaultSchedule::default()
            })
            .with_audit(true);
        if with_topo {
            cfg.topology = Some(Topology::dumbbell(rate, buffer));
        }
        let bdp = rate.bdp_bytes(rtt);
        let mut sim = Simulator::try_new(cfg).unwrap();
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt));
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        sim.try_run().expect("audited faulted run")
    };
    assert_eq!(
        run(false).to_json_value().to_json(),
        run(true).to_json_value().to_json()
    );
}
