//! Integration tests for the extension experiments (the paper's open
//! questions — see `experiments::ext`).

use bbrdom::cca::CcaKind;
use bbrdom::experiments::ext::{run_extension, ALL_EXTENSIONS};
use bbrdom::experiments::{DisciplineSpec, Engine, EngineConfig, Profile, Scenario};

fn smoke() -> Profile {
    Profile::smoke()
}

fn engine() -> Engine {
    Engine::new(EngineConfig::serial_uncached())
}

#[test]
fn aqm_disciplines_change_the_split() {
    // The same 1v1 contest under drop-tail vs CoDel: CoDel curbs the
    // standing queue, which must show up as materially lower queuing
    // delay at the same buffer.
    let base = Scenario::versus(20.0, 40.0, 16.0, 1, CcaKind::Bbr, 1, 20.0, 9);
    let droptail = base.clone().run();
    let codel = base.with_discipline(DisciplineSpec::Codel).run();
    assert!(
        codel.avg_queuing_delay_ms < droptail.avg_queuing_delay_ms,
        "codel {} vs droptail {}",
        codel.avg_queuing_delay_ms,
        droptail.avg_queuing_delay_ms
    );
}

#[test]
fn red_produces_early_drops() {
    let s = Scenario::versus(20.0, 40.0, 8.0, 2, CcaKind::Cubic, 0, 20.0, 9)
        .with_discipline(DisciplineSpec::Red);
    let r = s.run();
    assert!(r.aqm_drops > 0, "RED should early-drop under CUBIC load");
    assert!(r.utilization > 0.8);
}

#[test]
fn ternary_game_measures_and_enumerates() {
    let mut p = smoke();
    p.duration_secs = 6.0;
    let (game, states) = bbrdom::experiments::ext::ternary::measure_game(&engine(), 4, &p);
    assert_eq!(states.len(), 15);
    // The oracle answers for every state; NE enumeration runs.
    let _ = game.nash_equilibria();
}

#[test]
fn utility_extension_reports_ne_for_every_weight() {
    let r = run_extension("ext-utility", &engine(), &smoke()).unwrap();
    assert_eq!(r.id, "ext-utility");
    for row in &r.tables[0].rows {
        assert!(
            !row[1].is_empty(),
            "every delay weight must report an NE set (guaranteed for \
             two-strategy symmetric games)"
        );
    }
}

#[test]
#[ignore = "heavier: full extension suite; run via `repro ext`"]
fn all_extensions_run_end_to_end() {
    for id in ALL_EXTENSIONS {
        let r = run_extension(id, &engine(), &smoke()).unwrap_or_else(|| panic!("{id} missing"));
        assert!(!r.tables.is_empty(), "{id}: no tables");
    }
}
