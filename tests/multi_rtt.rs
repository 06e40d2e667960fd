//! Multi-RTT integration (paper §4.5 / Fig. 10, at test scale): NE
//! existence with heterogeneous RTTs and the CUBIC-prefers-short-RTT
//! ordering.

use bbrdom::experiments::figs::fig10;
use bbrdom::experiments::{Engine, EngineConfig, Profile};

fn tiny_profile() -> Profile {
    let mut p = Profile::smoke();
    p.duration_secs = 12.0;
    p.ne_flows = 12; // → groups of 2 flows per RTT class
    p
}

#[test]
fn multi_rtt_equilibria_exist() {
    let (nes, g) = fig10::find_equilibria(
        &Engine::new(EngineConfig::serial_uncached()),
        4.0,
        &tiny_profile(),
    );
    assert!(g >= 2);
    assert!(
        !nes.is_empty(),
        "expected at least one multi-RTT Nash equilibrium"
    );
    for ne in &nes {
        assert_eq!(ne.len(), 3);
        for &k in ne {
            assert!(k <= g);
        }
    }
}

#[test]
fn rtt_fairness_direction_in_simulation() {
    // The mechanism behind the paper's Fig. 10 ordering, checked
    // directly: with CUBIC on all flows, the short-RTT flow wins; with
    // BBR on all flows, the long-RTT flow is not starved (BBR favours
    // long RTTs because its in-flight cap is proportional to RTT).
    use bbrdom::cca::CcaKind;
    use bbrdom::experiments::{FlowSpec, Scenario};

    let make = |cca: CcaKind| {
        let flows = vec![FlowSpec::long(cca, 10.0), FlowSpec::long(cca, 50.0)];
        Scenario {
            mbps: 30.0,
            buffer_bdp: 6.0,
            reference_rtt_ms: 10.0,
            flows,
            duration_secs: 60.0,
            seed: 99,
            discipline: Default::default(),
            faults: Default::default(),
            backend: Default::default(),
            workload: None,
            topology: None,
        }
        .run()
    };

    let cubic = make(CcaKind::Cubic);
    assert!(
        cubic.throughput_mbps[0] > cubic.throughput_mbps[1],
        "CUBIC should favour the short-RTT flow: {:?}",
        cubic.throughput_mbps
    );

    let bbr = make(CcaKind::Bbr);
    let ratio = bbr.throughput_mbps[1] / bbr.throughput_mbps[0].max(1e-9);
    assert!(
        ratio > 0.5,
        "BBR long-RTT flow should hold its own (ratio {ratio:.2}): {:?}",
        bbr.throughput_mbps
    );
}
