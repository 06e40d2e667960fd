//! Lowering from [`Scenario`] to the `bbrdom-fluid` ODE backend.
//!
//! This module is the *validity-envelope gate*: it translates the
//! paper-unit scenario (Mbps, ms, BDP multiples) into the fluid model's
//! byte/second units — reusing the exact same
//! [`bbrdom_netsim::units::buffer_bytes`] lowering the DES uses, so both
//! backends see bit-identical buffer sizes — and rejects, with a typed
//! [`ConfigError::Unsupported`], every scenario feature the fluid
//! aggregate model cannot represent:
//!
//! * AQM disciplines (RED/CoDel) — the fluid queue is drop-tail only;
//! * fault injection (wire loss, outages, rate steps, delay spikes);
//! * finite (`byte_limit`) flows — fluid models backlogged aggregates;
//! * explicit multi-hop topologies — the fluid queue models exactly one
//!   bottleneck;
//! * CCAs outside {CUBIC, NewReno, BBR, BBRv2}.
//!
//! Anything rejected here must run on the DES backend; see DESIGN.md
//! ("Fluid backend — validity envelope") for the rationale.

use crate::scenario::Scenario;
use bbrdom_cca::CcaKind;
use bbrdom_fluid::{FluidCca, FluidConfig, FluidError, FluidFlowSpec};
use bbrdom_netsim::{ConfigError, Rate, SimDuration, SimError, SimReport, SimTime};

/// Map a scenario CCA to its fluid counterpart, or name the unsupported
/// algorithm for the error message.
fn fluid_cca(cca: CcaKind) -> Result<FluidCca, ConfigError> {
    FluidCca::from_name(cca.name()).ok_or(ConfigError::Unsupported {
        backend: "fluid",
        feature: match cca {
            CcaKind::Copa => "the 'copa' algorithm",
            CcaKind::Vivace => "the 'vivace' algorithm",
            CcaKind::Vegas => "the 'vegas' algorithm",
            // Unreachable today (the four others all lower), but keeps
            // the message honest if the registry grows.
            _ => "this congestion-control algorithm",
        },
    })
}

/// Check the envelope and lower to a [`FluidConfig`] without running.
pub fn lower(scenario: &Scenario) -> Result<FluidConfig, SimError> {
    scenario.validate()?;
    let unsupported = |feature: &'static str| {
        SimError::Config(ConfigError::Unsupported {
            backend: "fluid",
            feature,
        })
    };
    if scenario.discipline != crate::scenario::DisciplineSpec::DropTail {
        return Err(unsupported("AQM queue disciplines (RED/CoDel)"));
    }
    if !scenario.faults.is_noop() {
        return Err(unsupported("fault injection"));
    }
    if scenario.flows.iter().any(|f| f.byte_limit.is_some()) {
        return Err(unsupported("finite (byte-limited) flows"));
    }
    if scenario.workload.is_some() {
        return Err(unsupported("open-loop workloads"));
    }
    if scenario.topology.is_some() {
        return Err(unsupported("multi-hop topologies"));
    }
    let rate = Rate::from_mbps(scenario.mbps);
    let ref_rtt = SimDuration::from_secs_f64(scenario.reference_rtt_ms / 1e3);
    let buffer = bbrdom_netsim::units::buffer_bytes(rate, ref_rtt, scenario.buffer_bdp);
    let flows = scenario
        .flows
        .iter()
        .map(|f| {
            Ok(FluidFlowSpec {
                cca: fluid_cca(f.cca).map_err(SimError::Config)?,
                rtt_secs: f.rtt_ms / 1e3,
                start_secs: f.start_s,
            })
        })
        .collect::<Result<Vec<_>, SimError>>()?;
    Ok(FluidConfig {
        capacity_bytes_per_sec: rate.bytes_per_sec(),
        buffer_bytes: buffer as f64,
        duration_secs: scenario.duration_secs,
        seed: scenario.seed,
        flows,
    })
}

/// Run `scenario` on the fluid backend. `event_budget` bounds the
/// integration step count, mirroring the DES's livelock guard (the same
/// budget the engine uses for cache admission). The step count is known
/// before integrating, so an over-budget cell is rejected at once.
pub fn run_fluid(scenario: &Scenario, event_budget: Option<u64>) -> Result<SimReport, SimError> {
    let cfg = lower(scenario)?;
    let to_sim_error = |e| match e {
        FluidError::NoFlows => SimError::Config(ConfigError::NoFlows),
        // Scenario::validate has already screened numeric fields, so this
        // arm only fires on internal lowering bugs; surface it as the
        // nearest config error rather than panicking mid-sweep.
        FluidError::Invalid { field } => SimError::Config(ConfigError::NonFinite { field }),
        FluidError::Unsupported { feature } => SimError::Config(ConfigError::Unsupported {
            backend: "fluid",
            feature,
        }),
    };
    cfg.validate().map_err(to_sim_error)?;
    let steps = cfg.steps();
    if event_budget.is_some_and(|budget| steps > budget) {
        return Err(SimError::EventBudgetExceeded {
            events: steps,
            sim_time: SimTime::from_secs_f64(scenario.duration_secs),
        });
    }
    bbrdom_fluid::simulate(&cfg).map_err(to_sim_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::BackendSpec;
    use bbrdom_cca::CcaKind;

    fn fluid_scenario() -> Scenario {
        Scenario::versus(50.0, 20.0, 2.0, 2, CcaKind::Bbr, 2, 10.0, 7)
            .with_backend(BackendSpec::Fluid)
    }

    #[test]
    fn lowering_matches_des_buffer_bytes() {
        let s = fluid_scenario();
        let cfg = lower(&s).unwrap();
        let rate = Rate::from_mbps(s.mbps);
        let ref_rtt = SimDuration::from_secs_f64(s.reference_rtt_ms / 1e3);
        let expect = bbrdom_netsim::units::buffer_bytes(rate, ref_rtt, s.buffer_bdp);
        assert_eq!(cfg.buffer_bytes, expect as f64);
        assert_eq!(cfg.capacity_bytes_per_sec, 50e6 / 8.0);
        assert_eq!(cfg.flows.len(), 4);
        assert_eq!(cfg.seed, 7);
    }

    #[test]
    fn event_budget_guards_the_step_count() {
        let s = fluid_scenario();
        let full = run_fluid(&s, None).unwrap();
        assert!(run_fluid(&s, Some(full.events_processed)).is_ok());
        let err = run_fluid(&s, Some(full.events_processed - 1)).unwrap_err();
        assert!(err.to_string().contains("event budget"), "{err}");
    }

    #[test]
    fn over_budget_cell_is_rejected_before_integrating() {
        // 10⁶ s at a ~0.8 ms step is ~1.2e9 steps, minutes of work if
        // integrated: the budget check must answer without running it.
        let mut s = fluid_scenario();
        s.duration_secs = 1e6;
        let started = std::time::Instant::now();
        let err = run_fluid(&s, Some(1)).unwrap_err();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(1),
            "the over-budget cell was integrated first"
        );
        match err {
            SimError::EventBudgetExceeded { events, sim_time } => {
                assert_eq!(events, lower(&s).unwrap().steps());
                assert_eq!(sim_time, SimTime::from_secs_f64(1e6));
            }
            other => panic!("expected EventBudgetExceeded, got {other}"),
        }
    }

    #[test]
    fn report_carries_flow_order_and_names() {
        let s = fluid_scenario();
        let report = run_fluid(&s, None).unwrap();
        let names: Vec<&str> = report.flows.iter().map(|f| f.cc_name.as_str()).collect();
        assert_eq!(names, ["cubic", "cubic", "bbr", "bbr"]);
        assert!(report
            .flows
            .iter()
            .all(|f| f.throughput_bytes_per_sec > 0.0));
    }
}
