//! Per-flow and per-queue measurement reports.
//!
//! These are the quantities the paper plots: per-flow average throughput
//! (goodput), queuing delay, per-flow buffer occupancy (`b_b`, `b_c` in the
//! model), loss/back-off timing (for CUBIC synchronization analysis), and
//! link utilization.

use crate::json::{self, Value};
use crate::packet::FlowId;
use crate::time::SimTime;

/// Mutable per-flow counters, accumulated while the simulation runs.
#[derive(Debug, Default, Clone)]
pub struct FlowStats {
    /// Unique payload bytes accepted by the receiver inside the
    /// measurement window `[0, horizon]`.
    pub goodput_bytes: u64,
    /// All payload bytes accepted (including deliveries that land past
    /// the horizon).
    pub goodput_bytes_total: u64,
    /// Bytes handed to the bottleneck (including retransmissions).
    pub sent_bytes: u64,
    /// Packets retransmitted.
    pub retransmits: u64,
    /// Packets declared lost (dup-threshold or RTO).
    pub lost_packets: u64,
    /// Congestion events (≤ one per loss round).
    pub congestion_events: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
    /// Packets lost to injected forward-path wire loss *after* the
    /// bottleneck (fault injection; excludes queue drops).
    pub wire_lost_fwd: u64,
    /// ACKs lost to injected reverse-path wire loss (fault injection).
    pub wire_lost_ack: u64,
    /// ACKs for sequence numbers with no outstanding scoreboard entry
    /// (spurious-RTO duplicates).
    pub spurious_acks: u64,
    /// Times of congestion events (CUBIC back-offs) — used by experiment
    /// code to measure cross-flow loss synchronization.
    pub backoff_times: Vec<SimTime>,
    /// Largest congestion window reported by the CC algorithm.
    pub max_cwnd_bytes: u64,
    /// ∫ cwnd dt, for average-cwnd reporting.
    pub cwnd_time_integral: f64,
    /// Time of the last cwnd integral update.
    pub last_cwnd_update: SimTime,
    /// Sum and count of RTT samples (for mean RTT).
    pub rtt_sum: f64,
    pub rtt_samples: u64,
}

/// Immutable per-flow results returned by [`crate::sim::Simulator::run`].
#[derive(Debug, Clone)]
pub struct FlowReport {
    pub flow: FlowId,
    pub cc_name: String,
    /// Average goodput over the measurement window, bytes/sec.
    pub throughput_bytes_per_sec: f64,
    pub goodput_bytes: u64,
    pub sent_bytes: u64,
    pub retransmits: u64,
    pub lost_packets: u64,
    pub congestion_events: u64,
    pub rtos: u64,
    /// Data packets lost to injected wire loss after the bottleneck.
    pub wire_lost_fwd: u64,
    /// ACKs lost to injected reverse-path wire loss.
    pub wire_lost_ack: u64,
    /// Time-weighted average of this flow's bottleneck-buffer occupancy,
    /// bytes (the model's `b_c` / `b_b`).
    pub avg_queue_occupancy_bytes: f64,
    /// Minimum RTT observed by the sender (s).
    pub min_rtt_secs: Option<f64>,
    /// Mean of all RTT samples (s).
    pub mean_rtt_secs: Option<f64>,
    /// Time-weighted average congestion window (bytes).
    pub avg_cwnd_bytes: f64,
    pub max_cwnd_bytes: u64,
    /// For finite transfers: flow completion time (seconds from the
    /// flow's start). `None` for backlogged flows or incomplete ones.
    pub completion_time_secs: Option<f64>,
    /// Congestion-event (back-off) timestamps, seconds.
    pub backoff_times_secs: Vec<f64>,
}

impl FlowReport {
    /// Throughput in the paper's unit (Mbps).
    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_bytes_per_sec * 8.0 / 1e6
    }
}

/// Flow-completion-time percentiles for one CCA's workload flows.
///
/// Produced per congestion-control algorithm when an open-loop
/// [`crate::workload::WorkloadConfig`] runs; percentiles use the
/// nearest-rank method on the completed-flow FCT samples.
#[derive(Debug, Clone, PartialEq)]
pub struct FctPercentiles {
    /// CC algorithm name (e.g. "cubic", "bbr").
    pub cc_name: String,
    /// Completed workload flows contributing samples.
    pub count: u64,
    pub p50_secs: f64,
    pub p95_secs: f64,
    pub p99_secs: f64,
}

impl FctPercentiles {
    /// Nearest-rank percentiles from an ascending-sorted FCT sample list.
    /// Returns `None` for an empty list.
    pub fn from_sorted(cc_name: &str, sorted_secs: &[f64]) -> Option<Self> {
        if sorted_secs.is_empty() {
            return None;
        }
        let rank = |p: f64| {
            // Nearest rank: smallest index i with (i+1)/n >= p/100.
            let n = sorted_secs.len();
            let i = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
            sorted_secs[i - 1]
        };
        Some(FctPercentiles {
            cc_name: cc_name.to_string(),
            count: sorted_secs.len() as u64,
            p50_secs: rank(50.0),
            p95_secs: rank(95.0),
            p99_secs: rank(99.0),
        })
    }

    /// Serialize for the on-disk scenario result cache (inverse of
    /// [`FctPercentiles::from_json_value`]).
    pub fn to_json_value(&self) -> Value {
        let mut v = Value::object();
        v.set("cc_name", self.cc_name.as_str().into())
            .set("count", Value::U64(self.count))
            .set("p50_secs", self.p50_secs.into())
            .set("p95_secs", self.p95_secs.into())
            .set("p99_secs", self.p99_secs.into());
        v
    }

    /// Parse a value serialized with [`FctPercentiles::to_json_value`],
    /// through its text and [`FctPercentiles::read`] (exact for every
    /// finite float: the writer's floats round-trip bit for bit).
    pub fn from_json_value(v: &Value) -> Result<Self, String> {
        json::Reader::document(&v.to_json(), Self::read).map_err(|e| e.to_string())?
    }

    /// Read one percentile record off a JSON reader: the one field reader
    /// of this type. Unknown keys are ignored and a repeated key's last
    /// value wins.
    pub fn read(r: &mut json::Reader<'_>) -> Result<json::Field<Self>, json::ParseError> {
        let (mut cc_name, mut count, mut p50, mut p95, mut p99) = (None, None, None, None, None);
        r.object(|r, key| {
            match key {
                "cc_name" => cc_name = Some(r.str()?),
                "count" => count = Some(r.u64()?),
                "p50_secs" => p50 = Some(r.f64()?),
                "p95_secs" => p95 = Some(r.f64()?),
                "p99_secs" => p99 = Some(r.f64()?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let num = |slot: Option<Option<f64>>, key: &str| {
            slot.ok_or_else(|| format!("missing '{key}'"))?
                .ok_or_else(|| format!("non-numeric '{key}'"))
        };
        Ok((|| {
            Ok(FctPercentiles {
                cc_name: cc_name
                    .ok_or("missing 'cc_name'")?
                    .ok_or("non-string 'cc_name'")?
                    .into_owned(),
                count: count
                    .ok_or("missing 'count'")?
                    .ok_or("non-integer 'count'")?,
                p50_secs: num(p50, "p50_secs")?,
                p95_secs: num(p95, "p95_secs")?,
                p99_secs: num(p99, "p99_secs")?,
            })
        })())
    }
}

/// Bottleneck-queue results.
#[derive(Debug, Clone)]
pub struct QueueReport {
    /// Time-weighted average occupancy (bytes).
    pub avg_occupancy_bytes: f64,
    /// Average queuing delay (s) = average occupancy / link rate.
    pub avg_queuing_delay_secs: f64,
    pub peak_occupancy_bytes: u64,
    pub capacity_bytes: u64,
    pub dropped_packets: u64,
    /// Drops made by the AQM (RED early / CoDel head drops); the rest of
    /// `dropped_packets` are plain tail drops.
    pub aqm_drops: u64,
    pub enqueued_packets: u64,
    /// Fraction of link capacity carried as goodput by all flows.
    pub utilization: f64,
    /// (time s, flow) for every tail drop.
    pub drops: Vec<(f64, FlowId)>,
}

impl FlowReport {
    /// Serialize for the on-disk scenario result cache (inverse of
    /// [`FlowReport::from_json_value`]). Floats round-trip bit-exactly.
    pub fn to_json_value(&self) -> Value {
        let mut v = Value::object();
        v.set("flow", Value::U64(self.flow.0 as u64))
            .set("cc_name", self.cc_name.as_str().into())
            .set(
                "throughput_bytes_per_sec",
                self.throughput_bytes_per_sec.into(),
            )
            .set("goodput_bytes", Value::U64(self.goodput_bytes))
            .set("sent_bytes", Value::U64(self.sent_bytes))
            .set("retransmits", Value::U64(self.retransmits))
            .set("lost_packets", Value::U64(self.lost_packets))
            .set("congestion_events", Value::U64(self.congestion_events))
            .set("rtos", Value::U64(self.rtos))
            .set("wire_lost_fwd", Value::U64(self.wire_lost_fwd))
            .set("wire_lost_ack", Value::U64(self.wire_lost_ack))
            .set(
                "avg_queue_occupancy_bytes",
                self.avg_queue_occupancy_bytes.into(),
            )
            .set("min_rtt_secs", json::opt_f64(self.min_rtt_secs))
            .set("mean_rtt_secs", json::opt_f64(self.mean_rtt_secs))
            .set("avg_cwnd_bytes", self.avg_cwnd_bytes.into())
            .set("max_cwnd_bytes", Value::U64(self.max_cwnd_bytes))
            .set(
                "completion_time_secs",
                json::opt_f64(self.completion_time_secs),
            )
            .set(
                "backoff_times_secs",
                json::f64_array(&self.backoff_times_secs),
            );
        v
    }

    /// Parse a report serialized with [`FlowReport::to_json_value`].
    pub fn from_json_value(v: &Value) -> Result<Self, String> {
        Ok(FlowReport {
            flow: FlowId(u32::try_from(json::req_u64(v, "flow")?).map_err(|_| "flow id overflow")?),
            cc_name: json::req(v, "cc_name")?
                .as_str()
                .ok_or("non-string 'cc_name'")?
                .to_string(),
            throughput_bytes_per_sec: json::req_f64(v, "throughput_bytes_per_sec")?,
            goodput_bytes: json::req_u64(v, "goodput_bytes")?,
            sent_bytes: json::req_u64(v, "sent_bytes")?,
            retransmits: json::req_u64(v, "retransmits")?,
            lost_packets: json::req_u64(v, "lost_packets")?,
            congestion_events: json::req_u64(v, "congestion_events")?,
            rtos: json::req_u64(v, "rtos")?,
            wire_lost_fwd: json::req_u64(v, "wire_lost_fwd")?,
            wire_lost_ack: json::req_u64(v, "wire_lost_ack")?,
            avg_queue_occupancy_bytes: json::req_f64(v, "avg_queue_occupancy_bytes")?,
            min_rtt_secs: json::opt_f64_member(v, "min_rtt_secs")?,
            mean_rtt_secs: json::opt_f64_member(v, "mean_rtt_secs")?,
            avg_cwnd_bytes: json::req_f64(v, "avg_cwnd_bytes")?,
            max_cwnd_bytes: json::req_u64(v, "max_cwnd_bytes")?,
            completion_time_secs: json::opt_f64_member(v, "completion_time_secs")?,
            backoff_times_secs: json::req_f64s(v, "backoff_times_secs")?,
        })
    }
}

impl QueueReport {
    /// Serialize for the on-disk scenario result cache (inverse of
    /// [`QueueReport::from_json_value`]).
    pub fn to_json_value(&self) -> Value {
        let mut v = Value::object();
        v.set("avg_occupancy_bytes", self.avg_occupancy_bytes.into())
            .set("avg_queuing_delay_secs", self.avg_queuing_delay_secs.into())
            .set(
                "peak_occupancy_bytes",
                Value::U64(self.peak_occupancy_bytes),
            )
            .set("capacity_bytes", Value::U64(self.capacity_bytes))
            .set("dropped_packets", Value::U64(self.dropped_packets))
            .set("aqm_drops", Value::U64(self.aqm_drops))
            .set("enqueued_packets", Value::U64(self.enqueued_packets))
            .set("utilization", self.utilization.into())
            .set(
                "drops",
                Value::Array(
                    self.drops
                        .iter()
                        .map(|&(t, flow)| {
                            Value::Array(vec![Value::F64(t), Value::U64(flow.0 as u64)])
                        })
                        .collect(),
                ),
            );
        v
    }

    /// Parse a report serialized with [`QueueReport::to_json_value`].
    pub fn from_json_value(v: &Value) -> Result<Self, String> {
        let drops = json::req(v, "drops")?
            .as_array()
            .ok_or("'drops' must be an array")?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or("each drop must be a [time, flow] pair")?;
                let t = pair[0].as_f64().ok_or("non-numeric drop time")?;
                let id = pair[1].as_u64().ok_or("non-integer drop flow")?;
                Ok((
                    t,
                    FlowId(u32::try_from(id).map_err(|_| "drop flow id overflow")?),
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(QueueReport {
            avg_occupancy_bytes: json::req_f64(v, "avg_occupancy_bytes")?,
            avg_queuing_delay_secs: json::req_f64(v, "avg_queuing_delay_secs")?,
            peak_occupancy_bytes: json::req_u64(v, "peak_occupancy_bytes")?,
            capacity_bytes: json::req_u64(v, "capacity_bytes")?,
            dropped_packets: json::req_u64(v, "dropped_packets")?,
            aqm_drops: json::req_u64(v, "aqm_drops")?,
            enqueued_packets: json::req_u64(v, "enqueued_packets")?,
            utilization: json::req_f64(v, "utilization")?,
            drops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_mbps_conversion() {
        let r = FlowReport {
            flow: FlowId(0),
            cc_name: "test".into(),
            throughput_bytes_per_sec: 1_250_000.0, // 10 Mbps
            goodput_bytes: 0,
            sent_bytes: 0,
            retransmits: 0,
            lost_packets: 0,
            congestion_events: 0,
            rtos: 0,
            wire_lost_fwd: 0,
            wire_lost_ack: 0,
            avg_queue_occupancy_bytes: 0.0,
            min_rtt_secs: None,
            mean_rtt_secs: None,
            avg_cwnd_bytes: 0.0,
            max_cwnd_bytes: 0,
            completion_time_secs: None,
            backoff_times_secs: vec![],
        };
        assert!((r.throughput_mbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fct_percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = FctPercentiles::from_sorted("cubic", &sorted).unwrap();
        assert_eq!(p.count, 100);
        assert_eq!(p.p50_secs, 50.0);
        assert_eq!(p.p95_secs, 95.0);
        assert_eq!(p.p99_secs, 99.0);
        // Tiny sample: every percentile is the single element.
        let one = FctPercentiles::from_sorted("bbr", &[0.25]).unwrap();
        assert_eq!(
            (one.p50_secs, one.p95_secs, one.p99_secs),
            (0.25, 0.25, 0.25)
        );
        assert!(FctPercentiles::from_sorted("bbr", &[]).is_none());
    }

    #[test]
    fn fct_percentiles_round_trip_through_json() {
        let p = FctPercentiles {
            cc_name: "bbr".into(),
            count: 42,
            p50_secs: 0.031_25,
            p95_secs: 0.75,
            p99_secs: 1.625,
        };
        let back = FctPercentiles::from_json_value(&p.to_json_value()).unwrap();
        assert_eq!(back, p);
    }
}
