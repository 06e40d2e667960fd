//! The determinism test layer for the parallel scenario engine.
//!
//! The engine's contract is that parallelism and caching are *invisible*:
//! `--jobs 1` and `--jobs 8` produce byte-identical result-store indexes
//! and bit-identical result vectors, every scenario field is part of the
//! cache key and survives the index's JSON round-trip, a damaged index
//! line degrades to re-simulation, never to a wrong or missing result,
//! and rerunning a sweep against the same cache resumes it. These tests
//! pin each clause.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::engine::{scenario_hash, scenario_hash_hex, Engine, EngineConfig};
use bbrdom_experiments::runner::{SweepConfig, TrialOutcome};
use bbrdom_experiments::store::{StoreEntry, StoreOutcome, INDEX_FILE};
use bbrdom_experiments::{FaultSpec, FlowSpec, Scenario, TopoLinkSpec, TopologySpec};
use proptest::prelude::*;
use std::path::PathBuf;

/// A hermetic engine: no memo, no disk — every run truly simulates.
fn uncached() -> Engine {
    Engine::new(EngineConfig::serial_uncached())
}

fn temp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("bbrdom-engine-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Short scenarios (fractions of a simulated second) so the property
/// test stays fast while still exercising multi-flow contention.
fn short_scenario(mbps: f64, buffer_bdp: f64, n_cubic: u32, n_bbr: u32, seed: u64) -> Scenario {
    Scenario::versus(
        mbps,
        20.0,
        buffer_bdp,
        n_cubic,
        CcaKind::Bbr,
        n_bbr,
        0.5,
        seed,
    )
}

/// Decode one random draw into a scenario: `shape` packs the discrete
/// choices (link rate, buffer depth, flow mix), `lossy` flips seeded
/// wire loss on — the fault RNG stream must also be independent of
/// worker scheduling.
fn decode_scenario(shape: u32, seed: u64, lossy: f64) -> Scenario {
    let mbps = if shape & 1 == 0 { 10.0 } else { 20.0 };
    let buf = if shape & 2 == 0 { 0.5 } else { 2.0 };
    let n_cubic = 1 + ((shape >> 2) & 1);
    let n_bbr = (shape >> 3) & 1;
    let s = short_scenario(mbps, buf, n_cubic, n_bbr, seed);
    if lossy < 0.5 {
        s
    } else {
        s.with_faults(FaultSpec {
            loss_fwd: 0.02,
            ..FaultSpec::default()
        })
    }
}

proptest! {
    // Simulations are costly; a handful of random batches is plenty to
    // catch a scheduling-dependent result or index interleaving.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `--jobs 1` and `--jobs 8` must produce bit-identical result
    /// vectors and byte-identical result-store indexes, faults included.
    #[test]
    fn parallelism_is_invisible(
        draws in prop::collection::vec((0u32..16, 0u64..u64::MAX, 0.0f64..1.0), 2..5),
        case in 0u32..1_000_000,
    ) {
        let scenarios: Vec<Scenario> = draws
            .iter()
            .map(|&(shape, seed, lossy)| decode_scenario(shape, seed, lossy))
            .collect();
        let serial_dir = temp_dir(&format!("det-serial-{case}"));
        let parallel_dir = temp_dir(&format!("det-parallel-{case}"));

        let serial = engine_with_store(&serial_dir)
            .run_sweep(&scenarios, &SweepConfig {
                jobs: Some(1),
                ..SweepConfig::default()
            })
            .expect("serial sweep runs");
        let parallel = engine_with_store(&parallel_dir)
            .run_sweep(&scenarios, &SweepConfig {
                jobs: Some(8),
                ..SweepConfig::default()
            })
            .expect("parallel sweep runs");

        // Byte-identical indexes: same lines, same order, same floats.
        let serial_bytes = std::fs::read(serial_dir.join(INDEX_FILE)).unwrap();
        let parallel_bytes = std::fs::read(parallel_dir.join(INDEX_FILE)).unwrap();
        prop_assert_eq!(serial_bytes, parallel_bytes);

        // Bit-identical result vectors (JSON text pins every float bit
        // thanks to shortest-round-trip formatting).
        prop_assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert_eq!(
                s.ok().unwrap().to_json_value().to_json(),
                p.ok().unwrap().to_json_value().to_json()
            );
        }
        let _ = std::fs::remove_dir_all(&serial_dir);
        let _ = std::fs::remove_dir_all(&parallel_dir);
    }
}

/// A scenario with every field set to something non-default, so each
/// single-field mutation below is visible if (and only if) the field is
/// hashed.
fn rich_scenario() -> Scenario {
    let mut s = Scenario::versus(25.0, 30.0, 1.5, 2, CcaKind::Bbr, 1, 4.0, 42);
    s.flows[0].start_s = 0.25;
    s.flows[1].byte_limit = Some(500_000);
    s.faults = FaultSpec {
        loss_fwd: 0.01,
        loss_ack: 0.005,
        outages: vec![(1.0, 0.2)],
        rate_steps: vec![(2.0, 10.0)],
        delay_spikes: vec![(3.0, 0.5, 40.0)],
    };
    s.workload = Some(bbrdom_experiments::WorkloadSpec::web(
        CcaKind::Cubic,
        50.0,
        25.0,
    ));
    // Every TopologySpec field non-default too.
    let mut topo = TopologySpec::parking_lot(2, 25.0, 2.0, 1.5);
    topo.flow_routes = vec![0, 0, 1];
    topo.fault_link = Some(1);
    s.topology = Some(topo);
    s
}

/// Each case, applied to the rich scenario, must move its key.
fn assert_each_moves_the_key(cases: &[fn(&mut Scenario)]) {
    let base = scenario_hash(&rich_scenario());
    for (i, mutate) in cases.iter().enumerate() {
        let mut s = rich_scenario();
        mutate(&mut s);
        assert_ne!(scenario_hash(&s), base, "case {i} kept the key");
    }
    assert_eq!(scenario_hash(&rich_scenario()), base, "a pure function");
}

/// One case per kind of value the key's sink feeds: an f64, a u64, a
/// string, an optional integer, and an array's length.
#[test]
fn each_unconditional_value_moves_the_key() {
    assert_each_moves_the_key(&[
        |s| s.mbps = 26.0,
        |s| s.seed = 43,
        |s| s.discipline = bbrdom_experiments::DisciplineSpec::Red,
        |s| s.flows[1].byte_limit = Some(600_000),
        |s| s.flows[1].byte_limit = None,
        |s| s.flows.truncate(2),
    ]);
}

/// Each member the line writes only sometimes keys apart present and
/// absent: the sink feeds its name.
#[test]
fn each_conditional_member_keys_apart_present_and_absent() {
    assert_each_moves_the_key(&[
        |s| s.faults = FaultSpec::default(),
        |s| s.backend = bbrdom_experiments::BackendSpec::Fluid,
        |s| s.workload = None,
        |s| s.topology = None,
        |s| s.topology.as_mut().unwrap().links[0].mbps = None,
        |s| s.topology.as_mut().unwrap().flow_routes.clear(),
        |s| s.topology.as_mut().unwrap().workload_route = None,
        |s| s.topology.as_mut().unwrap().fault_link = None,
    ]);
}

/// A workload's arrival and size variants carry the same numbers in the
/// same slots; only the variant's member name tells Poisson 2.0 from
/// Deterministic 2.0.
#[test]
fn workload_variants_with_the_same_number_key_apart() {
    use bbrdom_experiments::{ArrivalSpec, SizeSpec};
    let with = |arrival, size| {
        let mut s = rich_scenario();
        let wl = s.workload.as_mut().unwrap();
        (wl.arrival, wl.size) = (arrival, size);
        scenario_hash(&s)
    };
    let poisson = ArrivalSpec::Poisson { rate_per_sec: 2.0 };
    let fixed = SizeSpec::Fixed { bytes: 2 };
    assert_ne!(
        with(poisson, fixed),
        with(ArrivalSpec::Deterministic { interval_s: 2.0 }, fixed)
    );
    let pareto = |alpha| SizeSpec::Pareto {
        alpha,
        min_bytes: 2,
        max_bytes: 2,
    };
    assert_ne!(with(poisson, fixed), with(poisson, pareto(2.0)));
    assert_ne!(with(poisson, pareto(2.0)), with(poisson, pareto(2.5)));
}

/// Cache-key stability with every opt-in extension engaged: faults,
/// workload and topology. If this digest moves, every existing cache
/// entry is orphaned — bump `CACHE_FORMAT_VERSION` deliberately
/// instead.
#[test]
fn rich_scenario_keeps_its_golden_hash() {
    assert_eq!(
        format!("{:032x}", scenario_hash(&rich_scenario())),
        "df15e2fd42af8fea750bf4e1db7dbd2f",
        "the rich scenario's cache key must stay stable across releases"
    );
}

/// Cache-key stability for the plain shape of most cells: no faults, no
/// workload, no topology. Pinned at `CACHE_FORMAT_VERSION` 2, when the
/// key became a hash of what the index line writes; like the rich
/// scenario's digest, it moves only with a deliberate version bump.
#[test]
fn topology_free_scenarios_keep_their_historical_hash() {
    let s = Scenario::versus(50.0, 40.0, 4.0, 2, CcaKind::Bbr, 2, 10.0, 7);
    assert_eq!(
        format!("{:032x}", scenario_hash(&s)),
        "49f364c8565939e0c9ccfcc969f5a582",
        "the plain cache key must stay stable across releases"
    );
    // And spelling the same physics as an explicit topology is a
    // *different* cache entry, never an alias.
    assert_ne!(
        scenario_hash(
            &s.clone()
                .with_topology(Some(TopologySpec::dumbbell(50.0, 4.0)))
        ),
        scenario_hash(&s)
    );
}

/// Flow-order matters for results (flow ids, jitter draws), so it must
/// matter for the hash too.
#[test]
fn flow_order_changes_the_hash() {
    let mut swapped = rich_scenario();
    swapped.flows.swap(0, 2);
    assert_ne!(scenario_hash(&swapped), scenario_hash(&rich_scenario()));
}

/// Draws `Scenario`s with every opt-in extension present or absent —
/// faults, backend, workload, topology — and floats that a
/// JSON round-trip is most likely to get wrong (±0, subnormals, extreme
/// exponents) or any finite bit pattern. Validity is not required: the
/// index records whatever scenario a sweep ran, fault specs that cannot
/// be compiled (negative times, non-positive rate steps) included.
struct AnyScenario;

fn any_finite(rng: &mut rand::rngs::StdRng) -> f64 {
    use rand::{Rng, RngCore};
    const EDGES: [f64; 8] = [
        0.0,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        1e22,
        0.1,
        2.5,
    ];
    if rng.gen_bool(0.5) {
        return EDGES[rng.gen_range(0..EDGES.len())];
    }
    loop {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            return x;
        }
    }
}

impl proptest::Strategy for AnyScenario {
    type Value = Scenario;

    fn sample(&self, rng: &mut rand::rngs::StdRng) -> Scenario {
        use bbrdom_experiments::{
            ArrivalSpec, BackendSpec, DisciplineSpec, SizeSpec, WorkloadSpec,
        };
        use rand::{Rng, RngCore};
        let cca = |rng: &mut rand::rngs::StdRng| CcaKind::ALL[rng.gen_range(0..CcaKind::ALL.len())];
        let index = |rng: &mut rand::rngs::StdRng| rng.gen_range(0..6usize);
        let flows = (0..rng.gen_range(0..4usize))
            .map(|_| FlowSpec {
                cca: cca(rng),
                rtt_ms: any_finite(rng),
                start_s: any_finite(rng),
                byte_limit: rng.gen_bool(0.5).then(|| rng.next_u64()),
            })
            .collect();
        let faults = if rng.gen_bool(0.5) {
            let n = rng.gen_range(0..3usize);
            FaultSpec {
                loss_fwd: any_finite(rng),
                loss_ack: any_finite(rng),
                outages: (0..n).map(|_| (any_finite(rng), any_finite(rng))).collect(),
                rate_steps: (0..n).map(|_| (any_finite(rng), any_finite(rng))).collect(),
                delay_spikes: (0..n)
                    .map(|_| (any_finite(rng), any_finite(rng), any_finite(rng)))
                    .collect(),
            }
        } else {
            FaultSpec::default()
        };
        let workload = rng.gen_bool(0.5).then(|| WorkloadSpec {
            cca: cca(rng),
            arrival: if rng.gen_bool(0.5) {
                ArrivalSpec::Poisson {
                    rate_per_sec: any_finite(rng),
                }
            } else {
                ArrivalSpec::Deterministic {
                    interval_s: any_finite(rng),
                }
            },
            size: if rng.gen_bool(0.5) {
                SizeSpec::Fixed {
                    bytes: rng.next_u64(),
                }
            } else {
                SizeSpec::Pareto {
                    alpha: any_finite(rng),
                    min_bytes: rng.next_u64(),
                    max_bytes: rng.next_u64(),
                }
            },
            rtt_ms: any_finite(rng),
        });
        const NAMES: [&str; 4] = ["a", "n1", "q\"uo\\te\u{e9}\n", ""];
        let name = |rng: &mut rand::rngs::StdRng| NAMES[rng.gen_range(0..NAMES.len())];
        let topology = rng.gen_bool(0.5).then(|| TopologySpec {
            nodes: (0..rng.gen_range(0..4usize))
                .map(|_| name(rng).to_string())
                .collect(),
            links: (0..rng.gen_range(0..4usize))
                .map(|_| TopoLinkSpec {
                    from: name(rng).to_string(),
                    to: name(rng).to_string(),
                    mbps: rng.gen_bool(0.5).then(|| any_finite(rng)),
                    delay_ms: any_finite(rng),
                    buffer_bdp: any_finite(rng),
                })
                .collect(),
            routes: (0..rng.gen_range(0..3usize))
                .map(|_| (0..rng.gen_range(0..4usize)).map(|_| index(rng)).collect())
                .collect(),
            flow_routes: (0..rng.gen_range(0..3usize)).map(|_| index(rng)).collect(),
            workload_route: rng.gen_bool(0.5).then(|| index(rng)),
            fault_link: rng.gen_bool(0.5).then(|| index(rng)),
        });
        // Spelled out, every spec a literal: a new field fails to compile
        // here until it is drawn, and the round trip below fails until
        // `emit` writes it.
        Scenario {
            mbps: any_finite(rng),
            buffer_bdp: any_finite(rng),
            reference_rtt_ms: any_finite(rng),
            flows,
            duration_secs: any_finite(rng),
            seed: rng.next_u64(),
            discipline: [
                DisciplineSpec::DropTail,
                DisciplineSpec::Red,
                DisciplineSpec::Codel,
            ][rng.gen_range(0..3usize)],
            faults,
            backend: [BackendSpec::Des, BackendSpec::Fluid][rng.gen_range(0..2usize)],
            workload,
            topology,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The index is the only record of which scenario a result belongs
    /// to (`repro query` and `--missing` read it back): every scenario
    /// survives `to_json` → `from_json` with every field, the same bytes
    /// and the same cache key, and so does the index line that records
    /// it.
    #[test]
    fn scenarios_round_trip_through_json(s in AnyScenario, budget in 0u64..u64::MAX) {
        let text = s.to_json();
        let back = Scenario::from_json(&text).expect("a serialized scenario parses");
        prop_assert_eq!(back.to_json(), text.clone());
        prop_assert_eq!(scenario_hash(&back), scenario_hash(&s), "{}", text);
        // Every field reads back, so none is missing from the line or
        // the key; only a clean path's `-0.0` loss reads back as `0.0`.
        let mut want = s.clone();
        if want.faults.is_noop() {
            want.faults = FaultSpec::default();
        }
        prop_assert_eq!(format!("{back:?}"), format!("{want:?}"));

        let entry = StoreEntry {
            key: scenario_hash_hex(&s),
            scenario: s,
            outcome: StoreOutcome::Failed {
                error: "invalid \"config\"".into(),
                context: String::new(),
                event_budget: Some(budget),
                wall_budget_ns: (budget % 2 == 0).then_some(budget / 2),
            },
        };
        let line = entry.to_json_line();
        let back = StoreEntry::from_json_line(&line).expect("an index line parses");
        prop_assert_eq!(back.to_json_line(), line);
    }
}

/// A fault spec that cannot be compiled — a negative outage start, a
/// zero rate step — fails its own cell with a config error: hashing it
/// does not panic, and its siblings in the fail-soft batch still run.
#[test]
fn an_unlowerable_fault_spec_fails_only_its_own_cell() {
    let mut negative = short_scenario(10.0, 1.0, 1, 1, 62);
    negative.faults.outages = vec![(-1.0, 0.5)];
    let mut zero_rate = short_scenario(10.0, 1.0, 1, 1, 63);
    zero_rate.faults.rate_steps = vec![(1.0, 0.0)];
    let mut nan_spike = short_scenario(10.0, 1.0, 1, 1, 64);
    nan_spike.faults.delay_spikes = vec![(1.0, f64::NAN, 5.0)];
    let batch = [
        short_scenario(10.0, 1.0, 1, 1, 61),
        negative,
        zero_rate,
        nan_spike,
        short_scenario(10.0, 1.0, 1, 1, 65),
    ];
    let keys: Vec<u128> = batch.iter().map(scenario_hash).collect();
    for (i, a) in keys.iter().enumerate() {
        assert!(keys[i + 1..].iter().all(|b| a != b), "distinct keys");
    }
    assert_eq!(scenario_hash(&batch[1].clone()), keys[1], "a stable key");

    let dir = temp_dir("unlowerable-faults");
    let outcomes = engine_with_store(&dir)
        .run_sweep(
            &batch,
            &SweepConfig {
                jobs: Some(2),
                ..SweepConfig::default()
            },
        )
        .expect("the sweep runs");
    assert!(outcomes[0].ok().is_some() && outcomes[4].ok().is_some());
    for (i, needle) in [
        (1, "fault outage start must be zero or more"),
        (2, "fault rate step mbps must be positive"),
        (3, "fault delay spike length must be zero or more"),
    ] {
        let failure = outcomes[i].failure().expect("an unlowerable spec fails");
        assert!(failure.error.contains(needle), "{}", failure.error);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A -0.0 loss probability loses nothing, like 0.0, so the spec is
/// serialized without faults: it must read back under the same key.
#[test]
fn a_negative_zero_loss_keeps_its_cache_key() {
    let mut s = short_scenario(10.0, 1.0, 1, 1, 1);
    s.faults.loss_fwd = -0.0;
    s.faults.loss_ack = -0.0;
    let back = Scenario::from_json(&s.to_json()).expect("scenario parses");
    assert_eq!(scenario_hash(&back), scenario_hash(&s));
}

/// Backend domain separation end-to-end: the same scenario run on both
/// backends occupies two distinct index lines, each warm rerun hits its
/// own line, and neither is ever served the other's numbers.
#[test]
fn fluid_and_des_results_never_alias_in_the_cache() {
    let dir = temp_dir("backend-domains");
    let des = short_scenario(10.0, 1.0, 1, 1, 33);
    let fluid = des
        .clone()
        .with_backend(bbrdom_experiments::BackendSpec::Fluid);
    assert_ne!(scenario_hash(&des), scenario_hash(&fluid));

    let warm = engine_with_store(&dir);
    let first = warm.run_all(&[des.clone(), fluid.clone()]);
    assert_eq!(warm.stats().simulated, 2, "distinct hashes, two real runs");
    assert_ne!(
        first[0].to_json_value().to_json(),
        first[1].to_json_value().to_json(),
        "the two backends must not report identical results"
    );
    let keys: Vec<String> = std::fs::read_to_string(dir.join(INDEX_FILE))
        .unwrap()
        .lines()
        .map(|l| StoreEntry::from_json_line(l).expect("valid index line").key)
        .collect();
    assert_eq!(
        keys,
        [scenario_hash_hex(&des), scenario_hash_hex(&fluid)],
        "each backend gets its own index line"
    );

    let cold = engine_with_store(&dir);
    let again = cold.run_all(&[des, fluid]);
    assert_eq!(cold.stats().store_hits, 2, "both lines must hit warm");
    assert_eq!(cold.stats().simulated, 0);
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(
            a.to_json_value().to_json(),
            b.to_json_value().to_json(),
            "cached results reproduce live runs bit-for-bit"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A disk cache with the result store on and no memo: what `repro
/// --cache-dir` runs, minus the memo (so hits come only from disk).
fn engine_with_store(dir: &std::path::Path) -> Engine {
    Engine::new(EngineConfig {
        jobs: 1,
        disk_cache: Some(dir.to_path_buf()),
        memory_cache: false,
        result_store: true,
        ..EngineConfig::default()
    })
}

/// A corrupted, truncated, non-UTF-8 or wrong-format index line is a
/// miss — the engine re-simulates and still returns the right answer.
#[test]
fn corrupted_cache_entry_falls_back_to_simulation() {
    let dir = temp_dir("corrupt-cache");
    let scenario = short_scenario(10.0, 1.0, 1, 1, 9);
    let fresh = uncached().run_all(std::slice::from_ref(&scenario));

    // Seed the index, then verify it actually hits.
    let writer = engine_with_store(&dir);
    writer.run_all(std::slice::from_ref(&scenario));
    assert_eq!(writer.stats().simulated, 1);
    let reader = engine_with_store(&dir);
    reader.run_all(std::slice::from_ref(&scenario));
    assert_eq!(reader.stats().store_hits, 1, "want a warm store hit");

    let index = dir.join(INDEX_FILE);
    let line = std::fs::read(&index).unwrap();
    let mut truncated = line[..line.len() / 2].to_vec();
    truncated.push(b'\n');
    let mut non_utf8 = line.clone();
    non_utf8[line.len() / 2] = 0xFF;
    let wrong_version = String::from_utf8_lossy(&line).replace("\"v\":1", "\"v\":999");
    for garbage in [
        b"".to_vec(),
        b"{".to_vec(),
        b"not json\n".to_vec(),
        b"[1,2,3]\n".to_vec(),
        truncated,
        non_utf8,
        wrong_version.into_bytes(),
    ] {
        std::fs::write(&index, &garbage).unwrap();
        let engine = engine_with_store(&dir);
        let results = engine.run_all(std::slice::from_ref(&scenario));
        assert_eq!(engine.stats().store_hits, 0, "corrupt line must miss");
        assert_eq!(engine.stats().simulated, 1);
        assert_eq!(
            results[0].to_json_value().to_json(),
            fresh[0].to_json_value().to_json(),
            "fallback result must be bit-identical to a fresh run"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cached success recorded without budgets must not flip a budgeted
/// rerun: the index line is only admitted when its event count fits.
#[test]
fn cache_respects_event_budgets() {
    let dir = temp_dir("budget-cache");
    let scenario = short_scenario(10.0, 1.0, 1, 1, 11);
    let warm = engine_with_store(&dir);
    warm.run_all(std::slice::from_ref(&scenario));

    let budgeted = engine_with_store(&dir);
    let outcomes = budgeted
        .run_sweep(
            std::slice::from_ref(&scenario),
            &SweepConfig {
                jobs: Some(1),
                event_budget: Some(100),
                ..SweepConfig::default()
            },
        )
        .expect("budgeted sweep runs");
    assert_eq!(budgeted.stats().store_hits, 0, "over-budget line admitted");
    let failure = outcomes[0].failure().expect("tiny budget must still trip");
    assert!(failure.error.contains("event budget"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume is a rerun against the same cache: after a sweep over the
/// first `k` cells, the full batch on a fresh engine simulates exactly
/// the `n - k` missing cells and reproduces a one-shot run byte for byte.
#[test]
fn rerun_against_the_same_cache_resumes_a_partial_sweep() {
    let dir = temp_dir("resume-partial");
    let scenarios: Vec<Scenario> = (0..5)
        .map(|seed| short_scenario(10.0, 1.0, 1, 1, 40 + seed))
        .collect();
    let k = 2;
    let cfg = SweepConfig {
        jobs: Some(2),
        ..SweepConfig::default()
    };

    let one_shot = uncached()
        .run_sweep(&scenarios, &cfg)
        .expect("one-shot sweep runs");
    engine_with_store(&dir)
        .run_sweep(&scenarios[..k], &cfg)
        .expect("partial sweep runs");

    let resumed_engine = engine_with_store(&dir);
    let resumed = resumed_engine
        .run_sweep(&scenarios, &cfg)
        .expect("resumed sweep runs");
    assert_eq!(
        resumed_engine.stats().simulated,
        (scenarios.len() - k) as u64
    );
    assert_eq!(resumed_engine.stats().store_hits, k as u64);
    let json = |outcomes: &[TrialOutcome]| -> Vec<String> {
        outcomes
            .iter()
            .map(|o| o.ok().expect("cell succeeds").to_json_value().to_json())
            .collect()
    };
    assert_eq!(json(&resumed), json(&one_shot));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Failures are never served from the cache: a cell that failed under a
/// tiny event budget reruns to success under a larger one, and an
/// identical third run is served without simulating.
#[test]
fn failed_cell_reruns_to_success_when_the_budget_grows() {
    let dir = temp_dir("budget-rerun");
    let scenario = short_scenario(10.0, 1.0, 1, 0, 5);
    let sweep = |budget: u64| -> (Vec<TrialOutcome>, u64) {
        let engine = engine_with_store(&dir);
        let outcomes = engine
            .run_sweep(
                std::slice::from_ref(&scenario),
                &SweepConfig {
                    jobs: Some(1),
                    event_budget: Some(budget),
                    ..SweepConfig::default()
                },
            )
            .expect("sweep runs");
        (outcomes, engine.stats().simulated)
    };

    let (strangled, _) = sweep(100);
    assert!(strangled[0].failure().is_some(), "tiny budget must trip");

    let (recovered, simulated) = sweep(10_000_000);
    assert!(
        recovered[0].ok().is_some(),
        "raised budget must rerun the failed cell, got {:?}",
        recovered[0].failure()
    );
    assert_eq!(simulated, 1);

    let (again, simulated) = sweep(10_000_000);
    assert!(again[0].ok().is_some());
    assert_eq!(simulated, 0, "an identical rerun is served from the store");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fail-soft under parallelism: with `jobs = 4` and an event budget that
/// only the long scenarios exceed, exactly those trials fail, and the
/// result-store index holds exactly one line per scenario — none lost to
/// a race, none duplicated.
#[test]
fn concurrent_budget_failures_are_exact() {
    let short = |seed| short_scenario(10.0, 1.0, 1, 1, seed);
    let long = |seed| {
        let mut s = short_scenario(10.0, 1.0, 1, 1, seed);
        s.duration_secs = 8.0;
        s
    };
    // Budget: double a short run's cost — plenty for 0.5 s, hopeless
    // for 8 s (event count scales with simulated time).
    let probe = short(0).try_report_with(None, None).unwrap();
    let budget = probe.events_processed * 2;

    let scenarios = vec![short(1), long(2), short(3), long(4), short(5), long(6)];
    let expect_failed = [1usize, 3, 5];

    let dir = temp_dir("concurrent-budget");
    let outcomes = engine_with_store(&dir)
        .run_sweep(
            &scenarios,
            &SweepConfig {
                jobs: Some(4),
                event_budget: Some(budget),
                ..SweepConfig::default()
            },
        )
        .expect("concurrent sweep runs");

    for (i, outcome) in outcomes.iter().enumerate() {
        if expect_failed.contains(&i) {
            let f = outcome
                .failure()
                .unwrap_or_else(|| panic!("scenario {i} should have tripped the event budget"));
            assert_eq!(f.index, i);
            assert!(f.error.contains("event budget"), "index {i}: {}", f.error);
        } else {
            assert!(outcome.ok().is_some(), "scenario {i} should have passed");
        }
    }

    // Exactly one index line per scenario, in scenario order.
    let text = std::fs::read_to_string(dir.join(INDEX_FILE)).unwrap();
    let keys: Vec<String> = text
        .lines()
        .map(|l| StoreEntry::from_json_line(l).expect("valid index line").key)
        .collect();
    let expected: Vec<String> = scenarios.iter().map(scenario_hash_hex).collect();
    assert_eq!(keys, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Intra-batch dedup: a payoff matrix evaluates identical cells; the
/// engine must simulate each distinct scenario once and fan the result
/// out bit-identically.
#[test]
fn identical_scenarios_simulate_once() {
    let s = short_scenario(10.0, 1.0, 1, 1, 21);
    let batch = vec![
        s.clone(),
        s.clone(),
        s.clone(),
        short_scenario(10.0, 1.0, 1, 1, 22),
    ];
    let engine = uncached();
    let results = engine.run_all_jobs(&batch, 4);
    assert_eq!(engine.stats().simulated, 2);
    assert_eq!(engine.stats().deduped, 2);
    assert_eq!(
        results[0].to_json_value().to_json(),
        results[2].to_json_value().to_json()
    );
    assert_ne!(
        results[0].to_json_value().to_json(),
        results[3].to_json_value().to_json()
    );
}
