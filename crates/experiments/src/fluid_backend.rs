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
use bbrdom_netsim::{ConfigError, Rate, SimDuration, SimError, SimReport};

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

/// Run `scenario` on the fluid backend.
pub fn run_fluid(scenario: &Scenario) -> Result<SimReport, SimError> {
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
    fn report_carries_flow_order_and_names() {
        let s = fluid_scenario();
        let report = run_fluid(&s).unwrap();
        let names: Vec<&str> = report.flows.iter().map(|f| f.cc_name.as_str()).collect();
        assert_eq!(names, ["cubic", "cubic", "bbr", "bbr"]);
        assert!(report
            .flows
            .iter()
            .all(|f| f.throughput_bytes_per_sec > 0.0));
    }
}
