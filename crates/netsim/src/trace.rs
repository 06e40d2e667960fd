//! Time-series tracing: periodic samples of queue occupancy, per-flow
//! congestion windows, in-flight data, and cumulative delivery.
//!
//! The paper repeatedly reasons from traces ("we checked the traces of
//! our experiments and verified that the CUBIC flows were indeed not
//! synchronized", §3.2; the cwnd-limited regimes of Fig. 12). Enabling
//! a sample interval on [`crate::sim::SimConfig`] records the same
//! evidence here: per-interval throughput, cwnd sawtooths, and queue
//! dynamics, cheap enough to keep on for every experiment.

use crate::json::{self, Value};
use crate::time::SimTime;

/// One periodic sample of global and per-flow state.
#[derive(Debug, Clone)]
pub struct Sample {
    pub time: SimTime,
    /// Bottleneck queue occupancy, bytes.
    pub queue_bytes: u64,
    /// Per-flow congestion window, bytes (flow order = flow id).
    pub cwnd_bytes: Vec<u64>,
    /// Per-flow bytes in flight.
    pub inflight_bytes: Vec<u64>,
    /// Per-flow cumulative unique bytes delivered to the receiver.
    pub delivered_bytes: Vec<u64>,
}

/// A full trace: samples at a fixed interval.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub samples: Vec<Sample>,
}

impl Trace {
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Per-flow throughput between consecutive samples, bytes/sec:
    /// `(time of right sample, rates per flow)`.
    pub fn throughput_series(&self) -> Vec<(SimTime, Vec<f64>)> {
        self.samples
            .windows(2)
            .map(|w| {
                let dt = w[1].time.saturating_since(w[0].time).as_secs_f64();
                let rates = w[1]
                    .delivered_bytes
                    .iter()
                    .zip(&w[0].delivered_bytes)
                    .map(|(b, a)| {
                        if dt > 0.0 {
                            b.saturating_sub(*a) as f64 / dt
                        } else {
                            0.0
                        }
                    })
                    .collect();
                (w[1].time, rates)
            })
            .collect()
    }

    /// The queue-occupancy series `(time, bytes)`.
    pub fn queue_series(&self) -> Vec<(SimTime, u64)> {
        self.samples
            .iter()
            .map(|s| (s.time, s.queue_bytes))
            .collect()
    }

    /// The cwnd series of one flow `(time, bytes)`.
    pub fn cwnd_series(&self, flow: usize) -> Vec<(SimTime, u64)> {
        self.samples
            .iter()
            .map(|s| (s.time, s.cwnd_bytes[flow]))
            .collect()
    }

    /// Fraction of samples in which `flow` was cwnd-limited, i.e. its
    /// in-flight volume was within one MSS of its window (the regime
    /// annotation of the paper's Fig. 12).
    pub fn cwnd_limited_fraction(&self, flow: usize, mss: u64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let limited = self
            .samples
            .iter()
            .filter(|s| s.inflight_bytes[flow] + mss >= s.cwnd_bytes[flow])
            .count();
        Some(limited as f64 / self.samples.len() as f64)
    }
}

impl Sample {
    /// Serialize for the on-disk scenario result cache (inverse of
    /// [`Sample::from_json_value`]).
    pub fn to_json_value(&self) -> Value {
        let mut v = Value::object();
        v.set("time_ns", Value::U64(self.time.as_nanos()))
            .set("queue_bytes", Value::U64(self.queue_bytes))
            .set("cwnd_bytes", json::u64_array(&self.cwnd_bytes))
            .set("inflight_bytes", json::u64_array(&self.inflight_bytes))
            .set("delivered_bytes", json::u64_array(&self.delivered_bytes));
        v
    }

    /// Parse a sample serialized with [`Sample::to_json_value`].
    pub fn from_json_value(v: &Value) -> Result<Self, String> {
        Ok(Sample {
            time: SimTime(json::req_u64(v, "time_ns")?),
            queue_bytes: json::req_u64(v, "queue_bytes")?,
            cwnd_bytes: json::req_u64s(v, "cwnd_bytes")?,
            inflight_bytes: json::req_u64s(v, "inflight_bytes")?,
            delivered_bytes: json::req_u64s(v, "delivered_bytes")?,
        })
    }
}

impl Trace {
    /// Serialize the whole trace as a JSON array of samples.
    pub fn to_json_value(&self) -> Value {
        Value::Array(self.samples.iter().map(Sample::to_json_value).collect())
    }

    /// Parse a trace serialized with [`Trace::to_json_value`].
    pub fn from_json_value(v: &Value) -> Result<Self, String> {
        Ok(Trace {
            samples: v
                .as_array()
                .ok_or("trace must be an array")?
                .iter()
                .map(Sample::from_json_value)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn sample(t_s: f64, delivered: Vec<u64>, cwnd: Vec<u64>, inflight: Vec<u64>) -> Sample {
        Sample {
            time: SimTime::from_secs_f64(t_s),
            queue_bytes: 0,
            cwnd_bytes: cwnd,
            inflight_bytes: inflight,
            delivered_bytes: delivered,
        }
    }

    #[test]
    fn throughput_series_differentiates_delivery() {
        let trace = Trace {
            samples: vec![
                sample(0.0, vec![0], vec![10], vec![10]),
                sample(1.0, vec![1_000_000], vec![10], vec![10]),
                sample(2.0, vec![1_500_000], vec![10], vec![10]),
            ],
        };
        let ts = trace.throughput_series();
        assert_eq!(ts.len(), 2);
        assert!((ts[0].1[0] - 1e6).abs() < 1e-6);
        assert!((ts[1].1[0] - 5e5).abs() < 1e-6);
    }

    #[test]
    fn cwnd_limited_fraction_counts_binding_samples() {
        let trace = Trace {
            samples: vec![
                sample(0.0, vec![0], vec![3000], vec![3000]), // limited
                sample(1.0, vec![0], vec![3000], vec![1000]), // not
                sample(2.0, vec![0], vec![3000], vec![1600]), // within 1 MSS
            ],
        };
        let f = trace.cwnd_limited_fraction(0, 1500).unwrap();
        assert!((f - 2.0 / 3.0).abs() < 1e-12);
        assert!(Trace::default().cwnd_limited_fraction(0, 1500).is_none());
    }

    #[test]
    fn zero_dt_yields_zero_rate() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        let trace = Trace {
            samples: vec![
                Sample {
                    time: t,
                    queue_bytes: 0,
                    cwnd_bytes: vec![1],
                    inflight_bytes: vec![0],
                    delivered_bytes: vec![0],
                },
                Sample {
                    time: t,
                    queue_bytes: 0,
                    cwnd_bytes: vec![1],
                    inflight_bytes: vec![0],
                    delivered_bytes: vec![100],
                },
            ],
        };
        assert_eq!(trace.throughput_series()[0].1[0], 0.0);
    }
}
