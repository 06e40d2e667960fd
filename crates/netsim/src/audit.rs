//! Opt-in runtime invariant auditor.
//!
//! When enabled — `BBRDOM_AUDIT=1` in the environment or
//! [`crate::SimConfig::with_audit`] — the simulator weaves a checker into
//! its event loop that verifies, as the run progresses:
//!
//! * **monotonic event time**: the clock never goes backwards;
//! * **queue bounds**: queued bytes never exceed the configured buffer,
//!   and the per-flow occupancy breakdown sums to the total;
//! * **packet conservation** (per flow): every sent packet is accounted
//!   for exactly once across in-flight-between-hops / dropped /
//!   still-queued / in-service on each queue of its route / serviced at
//!   the last hop, every last-hop-serviced packet was either delivered
//!   or lost on the wire, and every delivered packet either produced an
//!   ACK event or lost its ACK;
//! * **sane control state**: cwnd stays positive, pacing rates stay
//!   finite and positive;
//! * **report finiteness** at drain: no NaN/∞ reaches the CSVs.
//!
//! A violation aborts the run with an [`AuditViolation`] carrying the
//! flow and simulated time, instead of letting corrupt numbers flow
//! silently into `results/*.csv`.
//!
//! Cost model: the cheap checks (time, queue bounds) run on every event;
//! the O(flows) conservation sweep runs every [`DEEP_CHECK_INTERVAL`]
//! events and once at drain. With auditing off the simulator pays one
//! branch per event, keeping `netsim_perf` within its budget.

use crate::error::AuditViolation;
use crate::flow::Flow;
use crate::packet::FlowId;
use crate::queue::DropTailQueue;
use crate::stats::{FlowReport, QueueReport};
use crate::time::SimTime;
use std::sync::OnceLock;

/// How many events between full conservation sweeps.
pub const DEEP_CHECK_INTERVAL: u64 = 256;

/// Whether `BBRDOM_AUDIT` requests auditing (cached after first read).
pub fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        std::env::var("BBRDOM_AUDIT")
            .map(|v| !(v.is_empty() || v == "0"))
            .unwrap_or(false)
    })
}

/// Per-run audit state, owned by the simulator's event loop.
#[derive(Debug)]
pub(crate) struct Auditor {
    last_now: SimTime,
    events_seen: u64,
    /// Packets handed to each flow's receiver.
    delivered: Vec<u64>,
    /// ACK events scheduled (delivered minus ACK-path wire losses).
    acks_scheduled: Vec<u64>,
    /// ACK events that have fired.
    acks_fired: Vec<u64>,
}

fn violation(
    time: SimTime,
    flow: Option<FlowId>,
    check: &'static str,
    detail: String,
) -> AuditViolation {
    AuditViolation {
        time,
        flow,
        check,
        detail,
    }
}

impl Auditor {
    pub(crate) fn new(n_flows: usize) -> Self {
        Auditor {
            last_now: SimTime::ZERO,
            events_seen: 0,
            delivered: vec![0; n_flows],
            acks_scheduled: vec![0; n_flows],
            acks_fired: vec![0; n_flows],
        }
    }

    /// Extend the per-flow ledgers to cover `n_flows` flows (open-loop
    /// workload growth).
    pub(crate) fn grow_to(&mut self, n_flows: usize) {
        if n_flows <= self.delivered.len() {
            return;
        }
        self.delivered.resize(n_flows, 0);
        self.acks_scheduled.resize(n_flows, 0);
        self.acks_fired.resize(n_flows, 0);
    }

    /// Zero the ledgers of a quiescent recycled slot, in lockstep with
    /// [`crate::queue::DropTailQueue::reset_flow_slot`], so conservation
    /// holds (0 = 0) for the slot's next occupant.
    pub(crate) fn reset_flow_slot(&mut self, flow: FlowId) {
        self.delivered[flow.index()] = 0;
        self.acks_scheduled[flow.index()] = 0;
        self.acks_fired[flow.index()] = 0;
    }

    pub(crate) fn on_delivered(&mut self, flow: FlowId) {
        self.delivered[flow.index()] += 1;
    }

    pub(crate) fn on_ack_scheduled(&mut self, flow: FlowId) {
        self.acks_scheduled[flow.index()] += 1;
    }

    pub(crate) fn on_ack_fired(&mut self, flow: FlowId) {
        self.acks_fired[flow.index()] += 1;
    }

    /// Run after every dispatched event.
    pub(crate) fn after_event(
        &mut self,
        now: SimTime,
        queues: &[DropTailQueue],
        flows: &[Flow],
    ) -> Result<(), AuditViolation> {
        if now < self.last_now {
            return Err(violation(
                now,
                None,
                "monotonic-time",
                format!("event at {now} after {}", self.last_now),
            ));
        }
        self.last_now = now;
        for queue in queues {
            if queue.queued_bytes() > queue.capacity_bytes() {
                return Err(violation(
                    now,
                    None,
                    "queue-bound",
                    format!(
                        "queued {} bytes > capacity {}",
                        queue.queued_bytes(),
                        queue.capacity_bytes()
                    ),
                ));
            }
        }
        self.events_seen += 1;
        if self.events_seen.is_multiple_of(DEEP_CHECK_INTERVAL) {
            self.deep_check(now, queues, flows)?;
        }
        Ok(())
    }

    /// The O(flows × hops) conservation sweep.
    ///
    /// On a multi-hop path the per-flow identity telescopes along the
    /// route: every sent packet is in flight between hops, held by some
    /// queue on the path (dropped / queued / in service), or was
    /// serviced by the *last* hop — which is the only place delivery
    /// and wire loss happen. On a dumbbell this reduces to the
    /// single-queue identity with zero hops in flight.
    pub(crate) fn deep_check(
        &self,
        now: SimTime,
        queues: &[DropTailQueue],
        flows: &[Flow],
    ) -> Result<(), AuditViolation> {
        let mut per_flow_queued_total = vec![0u64; queues.len()];
        for flow in flows {
            let id = flow.id;
            let mss = flow.mss().max(1);
            let path = &flow.path().ser;
            let mut held = 0u64; // dropped + queued + in-service over the path
            for (hop, &slot) in path.iter().enumerate() {
                let queue = &queues[slot as usize];
                let offered = queue.offered_packets_of(id);
                let dropped = queue.dropped_packets_of(id);
                let serviced = queue.serviced_packets_of(id);
                let queued_pkts = queue.queued_bytes_of(id) / mss;
                let in_service = (queue.in_service_flow() == Some(id)) as u64;
                let accounted = dropped + serviced + queued_pkts + in_service;
                if offered != accounted {
                    return Err(violation(
                        now,
                        Some(id),
                        "packet-conservation",
                        format!(
                            "hop {hop}: offered={offered} != dropped={dropped} + \
                             serviced={serviced} + queued={queued_pkts} + \
                             in_service={in_service}"
                        ),
                    ));
                }
                held += dropped + queued_pkts + in_service;
            }
            for (slot, total) in per_flow_queued_total.iter_mut().enumerate() {
                *total += queues[slot].queued_bytes_of(id);
            }
            let last = &queues[*path.last().expect("paths are non-empty") as usize];
            let serviced = last.serviced_packets_of(id);
            let sent_pkts = flow.stats.sent_bytes / mss;
            let in_flight = flow.hops_in_flight() as u64;
            if sent_pkts != in_flight + held + serviced {
                return Err(violation(
                    now,
                    Some(id),
                    "packet-conservation",
                    format!(
                        "sent={sent_pkts} != hops_in_flight={in_flight} + \
                         held_in_queues={held} + serviced_at_last_hop={serviced}"
                    ),
                ));
            }
            let idx = id.index();
            let wire_lost_fwd = flow.stats.wire_lost_fwd;
            let wire_lost_ack = flow.stats.wire_lost_ack;
            if serviced != self.delivered[idx] + wire_lost_fwd {
                return Err(violation(
                    now,
                    Some(id),
                    "packet-conservation",
                    format!(
                        "serviced={serviced} != delivered={} + wire_lost_fwd={wire_lost_fwd}",
                        self.delivered[idx]
                    ),
                ));
            }
            if self.delivered[idx] != self.acks_scheduled[idx] + wire_lost_ack {
                return Err(violation(
                    now,
                    Some(id),
                    "packet-conservation",
                    format!(
                        "delivered={} != acks_scheduled={} + wire_lost_ack={wire_lost_ack}",
                        self.delivered[idx], self.acks_scheduled[idx]
                    ),
                ));
            }
            if self.acks_fired[idx] > self.acks_scheduled[idx] {
                return Err(violation(
                    now,
                    Some(id),
                    "packet-conservation",
                    format!(
                        "acks fired {} > scheduled {}",
                        self.acks_fired[idx], self.acks_scheduled[idx]
                    ),
                ));
            }

            let cwnd = flow.cc().cwnd_bytes();
            if cwnd == 0 {
                return Err(violation(
                    now,
                    Some(id),
                    "positive-cwnd",
                    "cwnd is 0".into(),
                ));
            }
            if let Some(rate) = flow.cc().pacing_rate() {
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(violation(
                        now,
                        Some(id),
                        "finite-pacing-rate",
                        format!("pacing rate {rate}"),
                    ));
                }
            }
        }
        for (slot, &total) in per_flow_queued_total.iter().enumerate() {
            if total != queues[slot].queued_bytes() {
                return Err(violation(
                    now,
                    None,
                    "queue-bound",
                    format!(
                        "queue {slot}: per-flow occupancy sums to {total} but total is {}",
                        queues[slot].queued_bytes()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Report-field finiteness at drain: nothing non-finite may reach the
    /// figures.
    pub(crate) fn check_report(
        &self,
        end: SimTime,
        flows: &[FlowReport],
        queue: &QueueReport,
    ) -> Result<(), AuditViolation> {
        for f in flows {
            let fields = [
                ("throughput_bytes_per_sec", f.throughput_bytes_per_sec),
                ("avg_queue_occupancy_bytes", f.avg_queue_occupancy_bytes),
                ("avg_cwnd_bytes", f.avg_cwnd_bytes),
                ("min_rtt_secs", f.min_rtt_secs.unwrap_or(0.0)),
                ("mean_rtt_secs", f.mean_rtt_secs.unwrap_or(0.0)),
                (
                    "completion_time_secs",
                    f.completion_time_secs.unwrap_or(0.0),
                ),
            ];
            for (name, v) in fields {
                if !v.is_finite() {
                    return Err(violation(
                        end,
                        Some(f.flow),
                        "finite-report",
                        format!("{name} = {v}"),
                    ));
                }
            }
        }
        for (name, v) in [
            ("avg_occupancy_bytes", queue.avg_occupancy_bytes),
            ("avg_queuing_delay_secs", queue.avg_queuing_delay_secs),
            ("utilization", queue.utilization),
        ] {
            if !v.is_finite() {
                return Err(violation(
                    end,
                    None,
                    "finite-report",
                    format!("queue {name} = {v}"),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedWindow;
    use crate::packet::Packet;
    use crate::time::SimDuration;
    use crate::units::{Rate, MSS};

    fn flow(id: u32) -> Flow {
        Flow::new(
            FlowId(id),
            Box::new(FixedWindow::new(4 * MSS)),
            MSS,
            SimDuration::from_millis(10),
            SimTime::ZERO,
            crate::routing::dumbbell_path(),
        )
    }

    /// Drive a queue and matching flow-stats by hand; the deep check must
    /// accept the consistent state and reject a corrupted counter.
    #[test]
    fn deep_check_accepts_consistent_state_and_catches_corruption() {
        let mut q = DropTailQueue::new(Rate::from_mbps(10.0), 4 * MSS, 1);
        let mut f = flow(0);
        let t = SimTime::ZERO;
        // Two packets: one enters service, one queues.
        for seq in 0..2 {
            let pkt = Packet {
                flow: FlowId(0),
                seq,
                size: MSS,
            };
            q.offer(t, pkt);
            f.stats.sent_bytes += MSS;
        }
        let aud = Auditor::new(1);
        let flows = [f];
        aud.deep_check(t, std::slice::from_ref(&q), &flows)
            .expect("consistent state");

        // Seeded conservation bug: a serviced count with no matching
        // delivery. The auditor must flag it with flow context.
        q.test_corrupt_serviced_counter(FlowId(0));
        let err = aud
            .deep_check(t, std::slice::from_ref(&q), &flows)
            .expect_err("corruption must be caught");
        assert_eq!(err.check, "packet-conservation");
        assert_eq!(err.flow, Some(FlowId(0)));
    }

    #[test]
    fn monotonic_time_violation_is_reported() {
        let q = DropTailQueue::new(Rate::from_mbps(10.0), 4 * MSS, 1);
        let flows = [flow(0)];
        let mut aud = Auditor::new(1);
        aud.after_event(
            SimTime::from_secs_f64(2.0),
            std::slice::from_ref(&q),
            &flows,
        )
        .unwrap();
        let err = aud
            .after_event(
                SimTime::from_secs_f64(1.0),
                std::slice::from_ref(&q),
                &flows,
            )
            .expect_err("time went backwards");
        assert_eq!(err.check, "monotonic-time");
    }

    #[test]
    fn report_finiteness_is_enforced() {
        let aud = Auditor::new(1);
        let queue_report = QueueReport {
            avg_occupancy_bytes: 0.0,
            avg_queuing_delay_secs: 0.0,
            peak_occupancy_bytes: 0,
            capacity_bytes: 1,
            dropped_packets: 0,
            aqm_drops: 0,
            enqueued_packets: 0,
            utilization: f64::NAN,
            drops: vec![],
        };
        let err = aud
            .check_report(SimTime::ZERO, &[], &queue_report)
            .expect_err("NaN utilization must be caught");
        assert_eq!(err.check, "finite-report");
    }
}
