//! `SimReport` JSON round-trip: the DES goldens and full-report digests
//! compare simulator reports by their JSON, so serialize → parse →
//! serialize must be the identity (bit-exact floats included) for
//! reports with every optional feature exercised: traces, drops, wire
//! loss, finite flows. The parser must also reject torn or corrupted
//! report text without panicking.

use bbrdom_netsim::cc::FixedWindow;
use bbrdom_netsim::json;
use bbrdom_netsim::{
    FaultSchedule, FlowConfig, Rate, SimConfig, SimDuration, SimReport, Simulator, MSS,
};

fn busy_report() -> SimReport {
    busy_report_for(3.0)
}

fn busy_report_for(secs: f64) -> SimReport {
    let rate = Rate::from_mbps(10.0);
    let rtt = SimDuration::from_millis(20);
    let buf = bbrdom_netsim::units::buffer_bytes(rate, rtt, 0.5);
    let cfg = SimConfig::new(rate, buf, SimDuration::from_secs_f64(secs))
        .with_trace(SimDuration::from_millis(250))
        .with_faults(FaultSchedule::none().with_loss(0.01).with_seed(7));
    let mut sim = Simulator::new(cfg);
    // Oversized windows force drops; a finite flow exercises completion.
    let window = rate.bdp_bytes(rtt) * 4;
    sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(window)), rtt));
    sim.add_flow(FlowConfig::new(
        Box::new(FixedWindow::new(window.max(MSS))),
        rtt,
    ));
    sim.run()
}

/// A clean single finite flow, so `completion_time_secs` is `Some`.
fn finite_flow_report() -> SimReport {
    let rate = Rate::from_mbps(10.0);
    let rtt = SimDuration::from_millis(20);
    let buf = bbrdom_netsim::units::buffer_bytes(rate, rtt, 2.0);
    let mut sim = Simulator::new(SimConfig::new(rate, buf, SimDuration::from_secs_f64(3.0)));
    sim.add_flow(
        FlowConfig::new(Box::new(FixedWindow::new(rate.bdp_bytes(rtt))), rtt)
            .with_byte_limit(100_000),
    );
    sim.run()
}

#[test]
fn sim_report_roundtrips_bit_exactly() {
    let report = busy_report();
    // The run must exercise the interesting fields, or the round-trip
    // proves less than it claims.
    assert!(report.queue.dropped_packets > 0, "want drops in the report");
    assert!(!report.trace.is_empty(), "want trace samples");

    let text = report.to_json_value().to_json();
    let parsed = SimReport::from_json_value(&json::parse(&text).unwrap()).unwrap();

    // Serialize → parse → serialize is the identity on the JSON form,
    // which covers every field in both directions.
    assert_eq!(parsed.to_json_value().to_json(), text);

    // Spot-check bit-exactness of floats and structure of nested data.
    assert_eq!(
        parsed.flows[0].throughput_bytes_per_sec.to_bits(),
        report.flows[0].throughput_bytes_per_sec.to_bits()
    );
    assert_eq!(parsed.queue.drops, report.queue.drops);
    assert_eq!(parsed.events_processed, report.events_processed);
    assert_eq!(parsed.trace.len(), report.trace.len());
    assert_eq!(
        parsed.trace.samples[1].cwnd_bytes,
        report.trace.samples[1].cwnd_bytes
    );
}

#[test]
fn finite_flow_completion_time_roundtrips() {
    let report = finite_flow_report();
    assert!(
        report.flows[0].completion_time_secs.is_some(),
        "want a completed finite flow"
    );
    let text = report.to_json_value().to_json();
    let parsed = SimReport::from_json_value(&json::parse(&text).unwrap()).unwrap();
    assert_eq!(parsed.to_json_value().to_json(), text);
    assert_eq!(
        parsed.flows[0].completion_time_secs.unwrap().to_bits(),
        report.flows[0].completion_time_secs.unwrap().to_bits()
    );
}

/// A multi-hop run, so the optional `hops` array is populated.
fn multi_hop_report() -> SimReport {
    let rate = Rate::from_mbps(10.0);
    let rtt = SimDuration::from_millis(20);
    let buf = bbrdom_netsim::units::buffer_bytes(rate, rtt, 2.0);
    let mut topo = bbrdom_netsim::Topology::parking_lot(2, rate, SimDuration::from_millis(2), buf);
    topo.flow_routes = vec![0, 1];
    let cfg = SimConfig::new(rate, buf, SimDuration::from_secs_f64(3.0)).with_topology(topo);
    let mut sim = Simulator::try_new(cfg).unwrap();
    for _ in 0..2 {
        sim.add_flow(FlowConfig::new(
            Box::new(FixedWindow::new(2 * rate.bdp_bytes(rtt))),
            rtt,
        ));
    }
    sim.run()
}

#[test]
fn per_hop_reports_roundtrip_bit_exactly() {
    let report = multi_hop_report();
    assert_eq!(report.hops.len(), 2, "want per-hop reports");
    let text = report.to_json_value().to_json();
    assert!(text.contains("\"hops\""), "multi-hop reports carry the key");
    let parsed = SimReport::from_json_value(&json::parse(&text).unwrap()).unwrap();
    assert_eq!(parsed.to_json_value().to_json(), text);
    assert_eq!(
        parsed.hops[1].avg_queuing_delay_secs.to_bits(),
        report.hops[1].avg_queuing_delay_secs.to_bits()
    );
    // Single-bottleneck reports must NOT carry the key: pre-topology
    // cache entries and goldens stay byte-identical.
    let legacy = busy_report();
    assert!(legacy.hops.is_empty());
    assert!(!legacy.to_json_value().to_json().contains("\"hops\""));
}

#[test]
fn sim_report_parse_rejects_malformed_input() {
    let report = busy_report();
    let good = report.to_json_value();

    // Whole-value corruption.
    assert!(SimReport::from_json_value(&json::Value::Null).is_err());

    // Member-level corruption: drop a required field.
    let mut missing = good.clone();
    if let json::Value::Object(map) = &mut missing {
        map.remove("queue");
    }
    assert!(SimReport::from_json_value(&missing).is_err());
}

/// The text of a short busy run (drops, trace, wire loss), small enough
/// to feed every prefix of it to the parser.
fn hostile_sample() -> String {
    let report = busy_report_for(0.5);
    assert!(report.queue.dropped_packets > 0, "want drops in the sample");
    assert!(!report.trace.is_empty(), "want trace samples in the sample");
    report.to_json_value().to_json()
}

/// Whether `text` parses as a report. Must not panic, whatever the bytes.
fn reads_as_report(text: &str) -> bool {
    json::parse(text).is_ok_and(|v| SimReport::from_json_value(&v).is_ok())
}

/// Torn writes: every prefix of a valid report is rejected without a
/// panic, and the whole report is accepted.
#[test]
fn sim_report_parse_rejects_every_prefix() {
    let text = hostile_sample();
    assert!(reads_as_report(&text));
    for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        assert!(
            !reads_as_report(&text[..end]),
            "prefix of {end} bytes accepted"
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

    /// Hostile bytes: arbitrary input never panics the report parser.
    #[test]
    fn sim_report_parse_survives_arbitrary_bytes(
        bytes in proptest::prelude::prop::collection::vec(0u8..=255, 0..512),
    ) {
        reads_as_report(&String::from_utf8_lossy(&bytes));
    }

    /// Corrupted reports: random bytes spliced into a valid report reach
    /// the parser's field checks, not just the tokenizer.
    #[test]
    fn sim_report_parse_survives_corrupted_reports(
        at in 0.0f64..1.0,
        junk in proptest::prelude::prop::collection::vec(0u8..=255, 1..8),
    ) {
        let mut bytes = hostile_sample().into_bytes();
        let at = (at * bytes.len() as f64) as usize;
        let end = (at + junk.len()).min(bytes.len());
        bytes.splice(at..end, junk);
        reads_as_report(&String::from_utf8_lossy(&bytes));
    }
}

/// Draws `SimReport`s whose floats are the ones a JSON round-trip is
/// most likely to get wrong (±0, subnormals, extreme exponents, short
/// decimals) or any finite bit pattern, with every optional part present
/// or absent: traces, per-hop queues, drops, workload FCTs,
/// RTTs and completion times.
struct AnyReport;

fn any_finite(rng: &mut rand::rngs::StdRng) -> f64 {
    use rand::{Rng, RngCore};
    const EDGES: [f64; 10] = [
        0.0,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1e22,
        0.1,
        1206.8342526583306,
        0.006666666666666667,
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

fn any_queue(rng: &mut rand::rngs::StdRng) -> bbrdom_netsim::QueueReport {
    use rand::{Rng, RngCore};
    bbrdom_netsim::QueueReport {
        avg_occupancy_bytes: any_finite(rng),
        avg_queuing_delay_secs: any_finite(rng),
        peak_occupancy_bytes: rng.next_u64(),
        capacity_bytes: rng.next_u64(),
        dropped_packets: rng.next_u64(),
        aqm_drops: rng.next_u64(),
        enqueued_packets: rng.next_u64(),
        utilization: any_finite(rng),
        drops: (0..rng.gen_range(0..4usize))
            .map(|_| {
                (
                    any_finite(rng),
                    bbrdom_netsim::FlowId(rng.next_u64() as u32),
                )
            })
            .collect(),
    }
}

impl proptest::Strategy for AnyReport {
    type Value = SimReport;

    fn sample(&self, rng: &mut rand::rngs::StdRng) -> SimReport {
        use rand::{Rng, RngCore};
        const NAMES: [&str; 3] = ["cubic", "bbr", "q\"uo\\te\u{e9}\n"];
        let name = |rng: &mut rand::rngs::StdRng| NAMES[rng.gen_range(0..NAMES.len())].to_string();
        let opt = |rng: &mut rand::rngs::StdRng| rng.gen_bool(0.5).then(|| any_finite(rng));
        let flows = (0..rng.gen_range(0..4usize))
            .map(|_| bbrdom_netsim::FlowReport {
                flow: bbrdom_netsim::FlowId(rng.next_u64() as u32),
                cc_name: name(rng),
                throughput_bytes_per_sec: any_finite(rng),
                goodput_bytes: rng.next_u64(),
                sent_bytes: rng.next_u64(),
                retransmits: rng.next_u64(),
                lost_packets: rng.next_u64(),
                congestion_events: rng.next_u64(),
                rtos: rng.next_u64(),
                wire_lost_fwd: rng.next_u64(),
                wire_lost_ack: rng.next_u64(),
                avg_queue_occupancy_bytes: any_finite(rng),
                min_rtt_secs: opt(rng),
                mean_rtt_secs: opt(rng),
                avg_cwnd_bytes: any_finite(rng),
                max_cwnd_bytes: rng.next_u64(),
                completion_time_secs: opt(rng),
                backoff_times_secs: (0..rng.gen_range(0..5usize))
                    .map(|_| any_finite(rng))
                    .collect(),
            })
            .collect();
        let u64s = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<u64> {
            (0..n).map(|_| rng.next_u64()).collect()
        };
        let samples = (0..rng.gen_range(0..3usize))
            .map(|_| {
                let n = rng.gen_range(0..3usize);
                bbrdom_netsim::Sample {
                    time: bbrdom_netsim::SimTime(rng.next_u64()),
                    queue_bytes: rng.next_u64(),
                    cwnd_bytes: u64s(rng, n),
                    inflight_bytes: u64s(rng, n),
                    delivered_bytes: u64s(rng, n),
                }
            })
            .collect();
        let workload_spawned = if rng.gen_bool(0.5) {
            rng.gen_range(1..u64::MAX)
        } else {
            0
        };
        let (workload_completed, workload_fct) = if workload_spawned > 0 {
            let fct = (0..rng.gen_range(0..3usize))
                .map(|_| bbrdom_netsim::FctPercentiles {
                    cc_name: name(rng),
                    count: rng.next_u64(),
                    p50_secs: any_finite(rng),
                    p95_secs: any_finite(rng),
                    p99_secs: any_finite(rng),
                })
                .collect();
            (rng.next_u64(), fct)
        } else {
            (0, Vec::new())
        };
        SimReport {
            flows,
            queue: any_queue(rng),
            hops: (0..rng.gen_range(0..3usize) * 2)
                .map(|_| any_queue(rng))
                .collect(),
            duration_secs: any_finite(rng),
            events_processed: rng.next_u64(),
            trace: bbrdom_netsim::Trace { samples },
            workload_spawned,
            workload_completed,
            workload_fct,
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

    /// Generated reports survive serialize → `json::parse` →
    /// `SimReport::from_json_value`: the text is the same and so is every
    /// field (the `Debug` form spells every float's bits).
    #[test]
    fn generated_reports_round_trip_through_json(report in AnyReport) {
        let text = report.to_json_value().to_json();
        let parsed = SimReport::from_json_value(&json::parse(&text).unwrap()).unwrap();
        proptest::prop_assert_eq!(parsed.to_json_value().to_json(), text);
        proptest::prop_assert_eq!(format!("{parsed:?}"), format!("{report:?}"));
    }
}
