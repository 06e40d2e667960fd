//! Simulator-core performance: event throughput of the dumbbell DES.
//!
//! Not a paper figure — this tracks the substrate's speed (events/sec),
//! which bounds how fast the paper-scale sweeps (`repro --full`) run.
//!
//! Three 64-simulated-second runs at 100 Mbps / 20 ms — a single
//! saturating flow (in-order fast path), the historical 10-flow mix (the
//! cross-engine comparison case — keep its config stable), and a 50-flow
//! overload that drops and retransmits (scoreboard + loss-marking path) —
//! plus a 48-second open-loop churn case that spawns and tears down over
//! fifty thousand finite flows, exercising the workload engine's slot
//! recycling at internet-like arrival rates, and 24 s of a 3-hop
//! parking-lot chain with per-hop cross traffic, exercising the multi-hop
//! enqueue → serialize → propagate path (each packet of a long flow is
//! ~3× the event work of the dumbbell case), and one 120 s Fig 9 payoff
//! cell (5 CUBIC + 5 BBR at 50 Mbps / 20 ms behind an 8-BDP drop-tail
//! buffer, built through the same `Scenario` wiring as the figures), where
//! the queue-inflated window makes per-ACK loss marking the hot path.
//! Every case dispatches over a million events per sample, so a sample
//! lasts tens of milliseconds or more and timer resolution does not
//! enter the numbers. The 10-flow dumbbell, churn, parking-lot and Fig 9
//! cases carry pinned events/sec floors: a regression that adds work to
//! every forwarded packet or event-queue operation, or makes teardown,
//! slot reuse, hop forwarding or loss marking leak work, shows up as a
//! hard bench failure, not a silent slowdown (set `BENCH_NO_FLOOR=1` to
//! report without gating, e.g. on loaded CI boxes).
//!
//! Besides the stdout report, the run writes `BENCH_netsim.json` at the
//! repo root: machine-readable events/sec per case (format documented in
//! `EXPERIMENTS.md`), so perf regressions are diffable in review.

use bbrdom_cca::CcaKind;
use bbrdom_experiments::Scenario;
use bbrdom_netsim::cc::FixedWindow;
use bbrdom_netsim::{
    ArrivalProcess, FlowConfig, Rate, SimConfig, SimDuration, Simulator, SizeDist, Topology,
    WorkloadConfig, MSS,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

struct Case {
    name: &'static str,
    flows: usize,
    /// Per-flow fixed window as a fraction of the path BDP.
    window_bdp: f64,
    /// Simulated horizon, seconds.
    secs: f64,
    /// Open-loop churn: `(arrival rate flows/s, fixed flow size bytes)`.
    /// Expected cumulative spawns ≈ rate × secs.
    workload: Option<(f64, u64)>,
    /// Multi-hop: `(chain hops, cross flows per hop)`; `flows` long
    /// flows traverse the whole chain, each cross flow one hop. `None`
    /// is the implicit dumbbell.
    parking_lot: Option<(u32, usize)>,
    /// Fig 9 payoff cell `(n_cubic, n_bbr, buffer in BDP)` at 50 Mbps /
    /// 20 ms, built by `Scenario::versus` (seed 1); the fields above
    /// other than `flows` and `secs` are unused.
    fig9: Option<(u32, u32, f64)>,
    /// Pinned regression floor, events/sec (0 = report only, no gate).
    /// Each sits at a fifth to a half of the median measured on a 2-core
    /// Xeon VM (41 samples on a loaded day: 10-flow dumbbell 9.0–9.6M,
    /// parking lot 9.8–10.5M, Fig 9 6.9–7.2M events/s), so machine noise
    /// does not trip it, yet above what the structural regression it
    /// guards against reaches (work added per packet, leaked timers,
    /// unrecycled slots, per-slot queue work, per-ACK window rescans).
    /// Churn's floor keeps the 2M it had before the case was lengthened:
    /// two thirds of the 3.0M measured that day.
    floor_events_per_sec: f64,
}

const CASES: &[Case] = &[
    Case {
        name: "dumbbell_64s_1flow_100mbps",
        flows: 1,
        window_bdp: 2.0,
        secs: 64.0,
        workload: None,
        parking_lot: None,
        fig9: None,
        floor_events_per_sec: 0.0,
    },
    // Bare per-packet forwarding, e2e `forwarding`'s dumbbell without
    // its start phases: the floor, about half the median, fails work
    // added to every packet or event-queue operation.
    Case {
        name: "dumbbell_64s_10flows_100mbps",
        flows: 10,
        window_bdp: 1.0 / 3.0,
        secs: 64.0,
        workload: None,
        parking_lot: None,
        fig9: None,
        floor_events_per_sec: 4_500_000.0,
    },
    Case {
        name: "dumbbell_64s_50flows_100mbps",
        flows: 50,
        window_bdp: 1.0 / 8.0,
        secs: 64.0,
        workload: None,
        parking_lot: None,
        fig9: None,
        floor_events_per_sec: 0.0,
    },
    // ~58k cumulative open-loop flows (Poisson 1200/s × 48 s of 8 kB
    // transfers ≈ 77 Mbps offered) over 2 long flows. The bench asserts
    // ≥ 50k spawns and gates on the events/s floor, which sits above the
    // 1.3–1.8M events/s measured (on the 10 s case) when every enqueue
    // and dequeue also integrated the occupancy of every workload slot.
    Case {
        name: "dumbbell_48s_churn58k_100mbps",
        flows: 2,
        window_bdp: 0.5,
        secs: 48.0,
        workload: Some((1200.0, 8_000)),
        parking_lot: None,
        fig9: None,
        floor_events_per_sec: 2_000_000.0,
    },
    // 4 long flows over a 3-hop chain (2 ms/hop) with 2 CUBIC-window
    // cross flows per hop: 10 flows, 3 queues, every long-flow packet
    // enqueued/serialized/propagated at each hop.
    Case {
        name: "parkinglot_24s_3hops_100mbps",
        flows: 4,
        window_bdp: 1.0 / 3.0,
        secs: 24.0,
        workload: None,
        parking_lot: Some((3, 2)),
        fig9: None,
        floor_events_per_sec: 3_000_000.0,
    },
    // The workload the NE figures actually run: one deep-buffer mixed
    // cell. Every drop pins the scoreboard head for a queue-inflated RTT;
    // the floor fails a loss-marking path that rescans the window per ACK.
    Case {
        name: "fig9_120s_5cubic5bbr_50mbps_8bdp",
        flows: 10,
        window_bdp: 0.0,
        secs: 120.0,
        workload: None,
        parking_lot: None,
        fig9: Some((5, 5, 8.0)),
        floor_events_per_sec: 2_000_000.0,
    },
];

fn build_sim(case: &Case) -> Simulator {
    if let Some((n_cubic, n_bbr, buffer_bdp)) = case.fig9 {
        return Scenario::versus(
            50.0,
            20.0,
            buffer_bdp,
            n_cubic,
            CcaKind::Bbr,
            n_bbr,
            case.secs,
            1,
        )
        .build_simulator();
    }
    let rate = Rate::from_mbps(100.0);
    let rtt = SimDuration::from_millis(20);
    let buf = bbrdom_netsim::units::buffer_bytes(rate, rtt, 2.0);
    let mut cfg = SimConfig::new(rate, buf, SimDuration::from_secs_f64(case.secs));
    if let Some((rate_per_sec, bytes)) = case.workload {
        cfg = cfg.with_workload(WorkloadConfig::new(
            ArrivalProcess::Poisson { rate_per_sec },
            SizeDist::Fixed { bytes },
            rtt,
            11,
        ));
    }
    let mut cross = 0;
    if let Some((hops, cross_per_hop)) = case.parking_lot {
        let mut topo = Topology::parking_lot(hops, rate, SimDuration::from_millis(2), buf);
        // Long flows ride route 0 (the whole chain); cross flows route
        // 1 + h (hop h only).
        topo.flow_routes = (0..case.flows as u32)
            .map(|_| 0)
            .chain((0..hops).flat_map(|h| std::iter::repeat_n(1 + h, cross_per_hop)))
            .collect();
        cross = hops as usize * cross_per_hop;
        cfg = cfg.with_topology(topo);
    }
    let mut sim = Simulator::try_new(cfg).expect("valid bench config");
    if case.workload.is_some() {
        sim.set_workload_cc(Box::new(|_| Box::new(FixedWindow::new(8 * MSS))));
    }
    let bdp = rate.bdp_bytes(rtt);
    let window = ((bdp as f64 * case.window_bdp) as u64).max(MSS);
    for _ in 0..case.flows + cross {
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(window)), rtt));
    }
    sim
}

struct Measurement {
    events: u64,
    spawned: u64,
    median: Duration,
    min: Duration,
}

/// Time `samples` full runs of one case (after one untimed warm-up).
fn measure(case: &Case, samples: usize) -> Measurement {
    let warmup = build_sim(case).run();
    let (events, spawned) = (warmup.events_processed, warmup.workload_spawned);
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let mut sim = build_sim(case);
            let start = Instant::now();
            black_box(sim.run());
            start.elapsed()
        })
        .collect();
    times.sort();
    Measurement {
        events,
        spawned,
        median: times[times.len() / 2],
        min: times[0],
    }
}

fn events_per_sec(m: &Measurement) -> f64 {
    m.events as f64 / m.median.as_secs_f64()
}

fn main() {
    let samples: usize = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);

    let gate_floors = std::env::var("BENCH_NO_FLOOR").map_or(true, |v| v != "1");

    let mut results = Vec::new();
    let mut floor_failures = Vec::new();
    for case in CASES {
        let m = measure(case, samples);
        println!(
            "netsim/{:<32} median {:>12.3?}  min {:>12.3?}  {:>12.0} events/s  ({} events)",
            case.name,
            m.median,
            m.min,
            events_per_sec(&m),
            m.events,
        );
        if case.workload.is_some() {
            assert!(
                m.spawned >= 50_000,
                "{}: expected >= 50k cumulative workload flows, spawned {}",
                case.name,
                m.spawned,
            );
        }
        if case.floor_events_per_sec > 0.0 && events_per_sec(&m) < case.floor_events_per_sec {
            floor_failures.push(format!(
                "{}: {:.0} events/s below pinned floor {:.0}",
                case.name,
                events_per_sec(&m),
                case.floor_events_per_sec,
            ));
        }
        results.push((case, m));
    }

    let (model, nproc) = bbrdom_bench::machine();
    let mut json = format!(
        "{{\n  \"schema\": \"netsim-perf-v3\",\n  \"machine\": {},\n  \"nproc\": {nproc},\n  \
         \"samples\": {samples},\n  \"cases\": [\n",
        bbrdom_netsim::json::Value::Str(model).to_json(),
    );
    for (i, (case, m)) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"flows\": {}, \"workload_flows\": {}, \"events\": {}, \
             \"median_secs\": {:.6}, \"min_secs\": {:.6}, \"events_per_sec\": {:.0}, \
             \"floor_events_per_sec\": {:.0}}}{}\n",
            case.name,
            case.flows,
            m.spawned,
            m.events,
            m.median.as_secs_f64(),
            m.min.as_secs_f64(),
            events_per_sec(m),
            case.floor_events_per_sec,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    bbrdom_bench::write_record("BENCH_netsim.json", &json);

    if !floor_failures.is_empty() {
        for f in &floor_failures {
            eprintln!("FLOOR REGRESSION: {f}");
        }
        if gate_floors {
            std::process::exit(1);
        }
        eprintln!("(BENCH_NO_FLOOR=1: reporting only, not gating)");
    }
}
