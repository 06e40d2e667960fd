//! The simulator: configuration, event loop, and reporting.
//!
//! A [`Simulator`] wires N flows (each with its own congestion-control
//! algorithm and base RTT) through one drop-tail bottleneck, runs the
//! event loop until the configured duration, and returns a [`SimReport`]
//! with per-flow throughput and queue measurements — the raw material for
//! every figure in the paper.
//!
//! Every run forwards packets over a compiled [`Topology`]: each rated
//! link owns a queue, and packets enqueue → serialize → propagate hop by
//! hop along each flow's route. [`SimConfig::with_topology`] supplies an
//! explicit one (e.g. a parking-lot chain); without it the run lowers
//! the implicit bottleneck to [`Topology::dumbbell`], which compiles to a
//! single queue slot with zero extra propagation.
//!
//! # Example
//!
//! ```
//! use bbrdom_netsim::{FlowConfig, SimConfig, Simulator, Rate, SimDuration};
//! use bbrdom_netsim::cc::FixedWindow;
//!
//! let rate = Rate::from_mbps(10.0);
//! let rtt = SimDuration::from_millis(40);
//! let cfg = SimConfig::new(rate, rate.bdp_bytes(rtt), SimDuration::from_secs_f64(5.0));
//! let mut sim = Simulator::new(cfg);
//! // A fixed 2*BDP window saturates the link.
//! sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * rate.bdp_bytes(rtt))), rtt));
//! let report = sim.run();
//! assert!(report.queue.utilization > 0.9);
//! ```

use crate::aqm::QueueDiscipline;
use crate::audit::Auditor;
use crate::cc::CongestionControl;
use crate::error::{ConfigError, SimError};
use crate::event::{Event, EventQueue};
use crate::fault::{FaultAction, FaultSchedule};
use crate::flow::Flow;
use crate::packet::FlowId;
use crate::queue::{DropTailQueue, Offer};
use crate::stats::{FctPercentiles, FlowReport, QueueReport};
use crate::time::{SimDuration, SimTime};
use crate::topo::Topology;
use crate::trace::{Sample, Trace};
use crate::units::{Rate, MSS};
use crate::workload::WorkloadConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bottleneck and run-length configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Bottleneck link capacity.
    pub rate: Rate,
    /// Bottleneck buffer size in bytes.
    pub buffer_bytes: u64,
    /// Total simulated time. All window-averaged report quantities —
    /// throughput, utilization, average queue occupancy, and average
    /// cwnd — cover `[0, duration]`, as the paper measures from flow
    /// start.
    pub duration: SimDuration,
    /// Maximum segment size.
    pub mss: u64,
    /// If set, record a [`Trace`] sample every interval.
    pub sample_interval: Option<SimDuration>,
    /// Bottleneck queue discipline (default: drop-tail, as in the paper).
    pub discipline: QueueDiscipline,
    /// Uniform random extra delay on the ACK path, `[0, ack_jitter)`.
    ///
    /// Real hosts and routers have µs-scale timing noise; a perfectly
    /// deterministic simulator phase-locks the ACK clocks so the only
    /// packet ever dropped at a full queue is the *growing* flow's own
    /// marginal packet — which systematically punishes short-RTT flows
    /// (they grow more often per second) and inverts TCP's real RTT
    /// bias. A small jitter dithers the phases so drops land across
    /// bursts, as in real networks. Zero disables it.
    pub ack_jitter: SimDuration,
    /// Seed for the jitter RNG (simulations stay reproducible).
    pub seed: u64,
    /// Path impairments for this run (default: none — a clean path).
    pub faults: FaultSchedule,
    /// Force the runtime invariant auditor on for this run (it is also
    /// enabled globally by `BBRDOM_AUDIT=1`; see [`crate::audit`]).
    pub audit: bool,
    /// Open-loop workload: finite flows arriving during the run (see
    /// [`crate::workload`]). `None` (the default) simulates only the
    /// statically added flows.
    pub workload: Option<WorkloadConfig>,
    /// Multi-hop topology (see [`crate::topo`]). `None` (the default)
    /// runs [`Topology::dumbbell`] built from `rate` and `buffer_bytes`.
    /// When set, queues come from the topology's rated links and each
    /// flow follows its assigned route; `rate` remains the reference
    /// capacity the top-level queue report is normalized against.
    pub topology: Option<Topology>,
}

impl SimConfig {
    pub fn new(rate: Rate, buffer_bytes: u64, duration: SimDuration) -> Self {
        SimConfig {
            rate,
            buffer_bytes,
            duration,
            mss: MSS,
            sample_interval: None,
            discipline: QueueDiscipline::DropTail,
            ack_jitter: SimDuration::ZERO,
            seed: 0,
            faults: FaultSchedule::none(),
            audit: false,
            workload: None,
            topology: None,
        }
    }

    /// Validate the configuration without constructing a simulator.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.buffer_bytes == 0 {
            return Err(ConfigError::NonPositive { field: "buffer" });
        }
        if self.duration == SimDuration::ZERO {
            return Err(ConfigError::NonPositive { field: "duration" });
        }
        if self.mss == 0 {
            return Err(ConfigError::NonPositive { field: "mss" });
        }
        if self.sample_interval == Some(SimDuration::ZERO) {
            return Err(ConfigError::NonPositive {
                field: "trace sample interval",
            });
        }
        if let Some(wl) = &self.workload {
            wl.validate()?;
        }
        if let Some(t) = &self.topology {
            t.validate()?;
            if self.workload.is_some() && t.workload_route.is_none() {
                return Err(ConfigError::InvalidTopology {
                    reason: "an open-loop workload needs workload_route".into(),
                });
            }
        }
        self.faults.validate()
    }

    /// Enable time-series tracing at the given sample interval.
    pub fn with_trace(mut self, interval: SimDuration) -> Self {
        assert!(interval > SimDuration::ZERO);
        self.sample_interval = Some(interval);
        self
    }

    /// Replace the drop-tail FIFO with an AQM (RED or CoDel).
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Enable ACK-path timing jitter (see [`SimConfig::ack_jitter`]).
    pub fn with_ack_jitter(mut self, jitter: SimDuration, seed: u64) -> Self {
        self.ack_jitter = jitter;
        self.seed = seed;
        self
    }

    /// Attach a fault schedule (wire loss, outages, rate changes, delay
    /// spikes) to this run.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Force the runtime invariant auditor on for this run.
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Attach an open-loop workload (finite flows arriving during the
    /// run). The congestion-control factory for spawned flows is set via
    /// [`Simulator::set_workload_cc`].
    pub fn with_workload(mut self, wl: WorkloadConfig) -> Self {
        self.workload = Some(wl);
        self
    }

    /// Replace the single built-in bottleneck with a multi-hop
    /// [`Topology`]. Flow routes default to route `0`; set
    /// [`Topology::flow_routes`] (one entry per added flow) to split
    /// them across routes.
    pub fn with_topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }
}

/// Per-flow configuration.
pub struct FlowConfig {
    /// The congestion-control algorithm instance for this flow.
    pub cc: Box<dyn CongestionControl>,
    /// Base (propagation) RTT of the flow's path.
    pub base_rtt: SimDuration,
    /// When the application starts sending.
    pub start_time: SimTime,
    /// Payload size for a finite transfer (None = backlogged).
    pub byte_limit: Option<u64>,
}

impl FlowConfig {
    pub fn new(cc: Box<dyn CongestionControl>, base_rtt: SimDuration) -> Self {
        FlowConfig {
            cc,
            base_rtt,
            start_time: SimTime::ZERO,
            byte_limit: None,
        }
    }

    /// Validate the flow configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.base_rtt == SimDuration::ZERO {
            return Err(ConfigError::NonPositive { field: "base RTT" });
        }
        if self.byte_limit == Some(0) {
            return Err(ConfigError::NonPositive {
                field: "byte limit",
            });
        }
        Ok(())
    }

    pub fn starting_at(mut self, t: SimTime) -> Self {
        self.start_time = t;
        self
    }

    /// Make this a finite transfer of `bytes` payload bytes (e.g. a
    /// short web/ad flow). Its completion time is reported as the FCT.
    pub fn with_byte_limit(mut self, bytes: u64) -> Self {
        assert!(bytes > 0);
        self.byte_limit = Some(bytes);
        self
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub flows: Vec<FlowReport>,
    pub queue: QueueReport,
    /// Per-hop queue reports for multi-hop topology runs, one per queue
    /// slot in slot order. Empty on single-queue runs (then `queue` is
    /// the whole story), so their reports serialize byte-identically.
    pub hops: Vec<QueueReport>,
    /// Simulated horizon in seconds.
    pub duration_secs: f64,
    /// Discrete events dispatched by the run — the denominator for
    /// events/sec throughput measurements (`crates/bench/benches/netsim_perf.rs`).
    pub events_processed: u64,
    /// Time-series trace (empty unless `SimConfig::with_trace` was set).
    pub trace: Trace,
    /// Flows spawned by the open-loop workload (0 unless
    /// [`SimConfig::with_workload`] was set). Workload flows are not
    /// listed in `flows`; they are summarized by `workload_fct`.
    pub workload_spawned: u64,
    /// Workload flows that delivered their full size before the horizon.
    pub workload_completed: u64,
    /// Per-CCA flow-completion-time percentiles of the completed
    /// workload flows, sorted by CC name.
    pub workload_fct: Vec<FctPercentiles>,
}

impl SimReport {
    /// Serialize the full report (inverse of
    /// [`SimReport::from_json_value`]). Floats round-trip bit-exactly,
    /// so a cached report reproduces a live run's numbers verbatim —
    /// the property the scenario result cache in `bbrdom-experiments`
    /// depends on.
    pub fn to_json_value(&self) -> crate::json::Value {
        use crate::json::Value;
        let mut v = Value::object();
        v.set(
            "flows",
            Value::Array(self.flows.iter().map(|f| f.to_json_value()).collect()),
        )
        .set("queue", self.queue.to_json_value())
        .set("duration_secs", self.duration_secs.into())
        .set("events_processed", Value::U64(self.events_processed));
        if !self.trace.is_empty() {
            v.set("trace", self.trace.to_json_value());
        }
        // Per-hop queue reports exist only on multi-hop topology runs.
        if !self.hops.is_empty() {
            v.set(
                "hops",
                Value::Array(self.hops.iter().map(|q| q.to_json_value()).collect()),
            );
        }
        // Workload fields appear only on workload runs, keeping every
        // pre-existing report byte-identical.
        if self.workload_spawned > 0 {
            v.set("workload_spawned", Value::U64(self.workload_spawned))
                .set("workload_completed", Value::U64(self.workload_completed))
                .set(
                    "workload_fct",
                    Value::Array(
                        self.workload_fct
                            .iter()
                            .map(|p| p.to_json_value())
                            .collect(),
                    ),
                );
        }
        v
    }

    /// Parse a report serialized with [`SimReport::to_json_value`].
    pub fn from_json_value(v: &crate::json::Value) -> Result<Self, String> {
        use crate::json;
        Ok(SimReport {
            flows: json::req(v, "flows")?
                .as_array()
                .ok_or("'flows' must be an array")?
                .iter()
                .map(crate::stats::FlowReport::from_json_value)
                .collect::<Result<_, _>>()?,
            queue: crate::stats::QueueReport::from_json_value(json::req(v, "queue")?)?,
            hops: match v.get("hops") {
                None => Vec::new(),
                Some(a) => a
                    .as_array()
                    .ok_or("'hops' must be an array")?
                    .iter()
                    .map(crate::stats::QueueReport::from_json_value)
                    .collect::<Result<_, _>>()?,
            },
            duration_secs: json::req_f64(v, "duration_secs")?,
            events_processed: json::req_u64(v, "events_processed")?,
            trace: match v.get("trace") {
                None => Trace::default(),
                Some(t) => Trace::from_json_value(t)?,
            },
            workload_spawned: v
                .get("workload_spawned")
                .map(|x| x.as_u64().ok_or("non-integer 'workload_spawned'"))
                .transpose()?
                .unwrap_or(0),
            workload_completed: v
                .get("workload_completed")
                .map(|x| x.as_u64().ok_or("non-integer 'workload_completed'"))
                .transpose()?
                .unwrap_or(0),
            workload_fct: match v.get("workload_fct") {
                None => Vec::new(),
                Some(a) => a
                    .as_array()
                    .ok_or("'workload_fct' must be an array")?
                    .iter()
                    .map(FctPercentiles::from_json_value)
                    .collect::<Result<_, _>>()?,
            },
        })
    }

    /// Sum of per-flow throughputs (bytes/sec).
    pub fn total_throughput_bytes_per_sec(&self) -> f64 {
        self.flows.iter().map(|f| f.throughput_bytes_per_sec).sum()
    }

    /// Mean per-flow throughput (Mbps) over flows whose CC name matches.
    pub fn mean_throughput_mbps_of(&self, cc_name: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .flows
            .iter()
            .filter(|f| f.cc_name == cc_name)
            .map(|f| f.throughput_mbps())
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }
}

/// Factory building the CC instance for the `n`-th spawned workload
/// flow (see [`Simulator::set_workload_cc`]).
pub type WorkloadCcFactory = Box<dyn FnMut(u64) -> Box<dyn CongestionControl> + Send>;

/// The discrete-event network simulator.
pub struct Simulator {
    config: SimConfig,
    /// Flows added but not yet built: a flow's route is known only once
    /// [`Self::try_run`] has compiled the topology.
    pending: Vec<FlowConfig>,
    flows: Vec<Flow>,
    /// Builds the CC instance for the `n`-th spawned workload flow.
    workload_cc: Option<WorkloadCcFactory>,
    /// Deliberately corrupt a queue counter after this many events, so
    /// tests can prove the auditor catches a mid-run conservation bug.
    #[cfg(test)]
    corrupt_at_event: Option<u64>,
    /// Keep completed finite flows alive (the pre-teardown behavior), so
    /// tests can A/B the events that teardown deschedules.
    #[cfg(test)]
    teardown_disabled: bool,
}

impl Simulator {
    /// Construct a simulator, panicking on invalid configuration (the
    /// legacy interface; see [`Self::try_new`] for the fallible one).
    pub fn new(config: SimConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct a simulator, rejecting invalid configuration.
    pub fn try_new(config: SimConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Simulator {
            config,
            pending: Vec::new(),
            flows: Vec::new(),
            workload_cc: None,
            #[cfg(test)]
            corrupt_at_event: None,
            #[cfg(test)]
            teardown_disabled: false,
        })
    }

    /// Set the factory building each spawned workload flow's CC instance
    /// (argument: the 0-based spawn index). Required before running a
    /// config that carries a [`WorkloadConfig`].
    pub fn set_workload_cc(&mut self, factory: WorkloadCcFactory) {
        self.workload_cc = Some(factory);
    }

    /// Add a flow; returns its id. Must be called before [`Self::run`].
    /// Panics on an invalid flow config (the legacy interface; see
    /// [`Self::try_add_flow`]).
    pub fn add_flow(&mut self, fc: FlowConfig) -> FlowId {
        self.try_add_flow(fc).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Add a flow, rejecting invalid flow configuration.
    pub fn try_add_flow(&mut self, fc: FlowConfig) -> Result<FlowId, ConfigError> {
        assert!(self.flows.is_empty(), "cannot add flows after run()");
        fc.validate()?;
        self.pending.push(fc);
        Ok(FlowId(self.pending.len() as u32 - 1))
    }

    /// Number of flows added so far (after a run: flow slots, including
    /// those the open-loop workload spawned).
    pub fn flow_count(&self) -> usize {
        self.pending.len() + self.flows.len()
    }

    /// Run the simulation to completion and produce the report, panicking
    /// on any [`SimError`] (the legacy interface; see [`Self::try_run`]).
    pub fn run(&mut self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run the simulation to completion and produce the report.
    ///
    /// Fails with a structured [`SimError`] instead of panicking when the
    /// configuration is invalid or (with auditing on) a runtime invariant
    /// is violated.
    pub fn try_run(&mut self) -> Result<SimReport, SimError> {
        // A workload-only run legitimately starts with zero static flows.
        if self.pending.is_empty() && self.config.workload.is_none() {
            return Err(ConfigError::NoFlows.into());
        }
        // Lower the topology into queue slots and per-route paths. A
        // config without one runs the implicit dumbbell built from `rate`
        // and `buffer_bytes`.
        let implicit;
        let topo = match &self.config.topology {
            Some(t) => t,
            None => {
                implicit = Topology::dumbbell(self.config.rate, self.config.buffer_bytes);
                &implicit
            }
        };
        let compiled = crate::routing::compile(topo)?;
        if !topo.flow_routes.is_empty() && topo.flow_routes.len() != self.pending.len() {
            return Err(ConfigError::InvalidTopology {
                reason: format!(
                    "flow_routes has {} entries for {} flows",
                    topo.flow_routes.len(),
                    self.pending.len()
                ),
            }
            .into());
        }
        for (i, fc) in self.pending.drain(..).enumerate() {
            let r = topo.flow_routes.get(i).map_or(0, |&r| r as usize);
            let mut flow = Flow::new(
                FlowId(i as u32),
                fc.cc,
                self.config.mss,
                fc.base_rtt,
                fc.start_time,
                Arc::clone(&compiled.paths[r]),
            );
            if let Some(limit) = fc.byte_limit {
                flow.set_byte_limit(limit);
            }
            #[cfg(test)]
            {
                flow.teardown_disabled = self.teardown_disabled;
            }
            self.flows.push(flow);
        }
        let mut queues: Vec<DropTailQueue> = compiled
            .queues
            .iter()
            .map(|&(rate, buffer)| {
                DropTailQueue::with_discipline(
                    rate,
                    buffer,
                    self.flows.len(),
                    self.config.discipline,
                )
            })
            .collect();
        // Link-level faults act on one queue: the compiled fault slot.
        let fault_slot = compiled.fault_slot as usize;
        let end = SimTime::ZERO + self.config.duration;
        let mut trace = Trace::default();
        let mut jitter_rng = StdRng::seed_from_u64(self.config.seed);
        let jitter_ns = self.config.ack_jitter.as_nanos();

        // Nothing schedules before the run starts, so the event queue (a
        // ~230 KB calendar ring) lives only as long as the run.
        let mut events = EventQueue::new();

        // Fault machinery: the compiled timeline is scheduled up front as
        // ordinary events; the random-loss draws use their own RNG stream
        // so enabling loss does not perturb the ACK-jitter sequence.
        let mut faults = if self.config.faults.is_noop() {
            None
        } else {
            let timeline = self.config.faults.compile();
            for (i, (t, _)) in timeline.iter().enumerate() {
                events.schedule(*t, Event::Fault(i as u32));
            }
            Some(FaultRuntime {
                timeline,
                rng: StdRng::seed_from_u64(self.config.faults.seed),
                loss_fwd: self.config.faults.loss_fwd,
                loss_ack: self.config.faults.loss_ack,
                extra_delay: SimDuration::ZERO,
            })
        };
        let mut auditor = if self.config.audit || crate::audit::env_enabled() {
            Some(Auditor::new(self.flows.len()))
        } else {
            None
        };
        // Open-loop workload: schedule the first arrival; everything
        // after that is driven by the WorkloadArrival handler. The
        // workload draws from its own RNG stream so attaching one never
        // perturbs the jitter or fault sequences.
        let mut workload = match self.config.workload {
            Some(wl) => {
                if self.workload_cc.is_none() {
                    return Err(ConfigError::Unsupported {
                        backend: "open-loop workload",
                        feature: "runs without a CC factory (call set_workload_cc)",
                    }
                    .into());
                }
                let mut rng = StdRng::seed_from_u64(wl.seed);
                let first = wl.start + wl.arrivals.sample_gap(&mut rng);
                if first <= SimTime::ZERO + self.config.duration {
                    events.schedule(first, Event::WorkloadArrival);
                }
                Some(WorkloadRuntime {
                    rng,
                    spawned: 0,
                    completed: 0,
                    fct: BTreeMap::new(),
                    free: Vec::new(),
                    n_static: self.flows.len(),
                    recycled_goodput: 0,
                })
            }
            None => None,
        };

        // Schedule the first trace sample at t=0 (before any FlowStart) so
        // traces carry the true baseline: empty queue, initial cwnd, zero
        // delivered bytes.
        if self.config.sample_interval.is_some() {
            events.schedule(SimTime::ZERO, Event::StatsSample);
        }
        for f in &self.flows {
            events.schedule(f.start_time, Event::FlowStart(f.id));
        }

        let mut events_processed: u64 = 0;
        while let Some((now, event)) = events.pop() {
            if now > end {
                break;
            }
            events_processed += 1;
            match event {
                Event::FlowStart(id) => {
                    let q = self.flows[id.index()].ingress_slot() as usize;
                    self.flows[id.index()].on_start(now, &mut queues[q], &mut events);
                }
                Event::Pacing(id) => {
                    let q = self.flows[id.index()].ingress_slot() as usize;
                    self.flows[id.index()].on_pacing(now, &mut queues[q], &mut events);
                }
                Event::LinkDequeue(slot) => {
                    let (finished, next_size) = queues[slot as usize].service_complete(now);
                    if let Some(size) = next_size {
                        let done = now + queues[slot as usize].serialization_time(size);
                        events.schedule(done, Event::LinkDequeue(slot));
                    }
                    // A mid-path hop hands the packet to the next queue
                    // after the inter-hop propagation; delivery, wire
                    // impairments, and the ACK path act at the last hop
                    // only (so the fault RNG draw order is unchanged on
                    // single-hop paths).
                    let next_hop = {
                        let p = self.flows[finished.flow.index()].path();
                        let hop = p.hop_of(slot);
                        (hop + 1 < p.ser.len()).then(|| (p.ser[hop + 1], p.gaps[hop]))
                    };
                    if let Some((next_slot, gap)) = next_hop {
                        self.flows[finished.flow.index()].note_hop_scheduled();
                        events.schedule_hop(now + gap, next_slot, finished);
                    } else {
                        // Injected wire impairments act after the bottleneck:
                        // forward loss drops the data packet, a delay spike
                        // stretches the forward path, ACK loss drops the ACK.
                        let (fwd_lost, spike) = match faults.as_mut() {
                            Some(f) => (
                                f.loss_fwd > 0.0 && f.rng.gen_bool(f.loss_fwd),
                                f.extra_delay,
                            ),
                            None => (false, SimDuration::ZERO),
                        };
                        let flow = &mut self.flows[finished.flow.index()];
                        // Propagation after the last serializing hop and
                        // along the reverse route (both zero on a dumbbell).
                        let (post_delay, rev_delay) =
                            (flow.path().post_delay, flow.path().rev_delay);
                        if fwd_lost {
                            flow.stats.wire_lost_fwd += 1;
                        } else {
                            let delivery_time = now + post_delay + flow.prop_fwd + spike;
                            // Receiver bookkeeping happens at delivery time.
                            let new_bytes = flow.receiver_on_data(finished.seq, finished.size);
                            flow.stats.goodput_bytes_total += new_bytes;
                            if delivery_time <= end {
                                flow.stats.goodput_bytes += new_bytes;
                            }
                            if let Some(aud) = auditor.as_mut() {
                                aud.on_delivered(finished.flow);
                            }
                            let ack_lost = match faults.as_mut() {
                                Some(f) => f.loss_ack > 0.0 && f.rng.gen_bool(f.loss_ack),
                                None => false,
                            };
                            if ack_lost {
                                flow.stats.wire_lost_ack += 1;
                            } else {
                                let mut ack_time = delivery_time + rev_delay + flow.prop_rev;
                                if jitter_ns > 0 {
                                    ack_time += crate::time::SimDuration(
                                        jitter_rng.gen_range(0..jitter_ns),
                                    );
                                }
                                if let Some(aud) = auditor.as_mut() {
                                    aud.on_ack_scheduled(finished.flow);
                                }
                                flow.note_ack_scheduled();
                                events.schedule(
                                    ack_time,
                                    Event::AckArrive {
                                        flow: finished.flow,
                                        seq: finished.seq,
                                    },
                                );
                            }
                        }
                    }
                }
                Event::HopArrive { link, pkt } => {
                    let pkt = events.claim_hop(pkt);
                    self.flows[pkt.flow.index()].note_hop_arrived();
                    let q = &mut queues[link as usize];
                    match q.offer(now, pkt) {
                        Offer::StartService => {
                            let done = now + q.serialization_time(pkt.size);
                            events.schedule(done, Event::LinkDequeue(link));
                        }
                        Offer::Queued => {}
                        Offer::Dropped => {
                            // Mid-path tail drop: discovered by the sender
                            // later via dup-ACKs or RTO, like any drop.
                        }
                    }
                }
                Event::AckArrive { flow, seq } => {
                    if let Some(aud) = auditor.as_mut() {
                        aud.on_ack_fired(flow);
                    }
                    self.flows[flow.index()].note_ack_fired();
                    let q = self.flows[flow.index()].ingress_slot() as usize;
                    self.flows[flow.index()].on_ack(now, seq, &mut queues[q], &mut events);
                    // Harvest workload completions at the completing ACK:
                    // record the FCT and queue the slot for recycling.
                    if let Some(rt) = workload.as_mut() {
                        let idx = flow.index();
                        if idx >= rt.n_static && self.flows[idx].take_just_completed() {
                            let f = &self.flows[idx];
                            debug_assert!(
                                f.is_complete(),
                                "completion edge without a completion time"
                            );
                            let fct = now.as_secs_f64() - f.start_time.as_secs_f64();
                            rt.fct.entry(f.cc_name()).or_default().push(fct);
                            rt.completed += 1;
                            rt.free.push(idx);
                        }
                    }
                }
                Event::RtoCheck(id) => {
                    let q = self.flows[id.index()].ingress_slot() as usize;
                    self.flows[id.index()].on_rto_check(now, &mut queues[q], &mut events);
                }
                Event::StatsSample => {
                    trace.samples.push(Sample {
                        time: now,
                        queue_bytes: queues[0].queued_bytes(),
                        cwnd_bytes: self.flows.iter().map(|f| f.cc().cwnd_bytes()).collect(),
                        inflight_bytes: self.flows.iter().map(|f| f.inflight_bytes()).collect(),
                        delivered_bytes: self
                            .flows
                            .iter()
                            .map(|f| f.stats.goodput_bytes_total)
                            .collect(),
                    });
                    if let Some(interval) = self.config.sample_interval {
                        let next = now + interval;
                        if next <= end {
                            events.schedule(next, Event::StatsSample);
                        }
                    }
                }
                Event::Fault(idx) => {
                    if let Some(f) = faults.as_mut() {
                        match f.timeline[idx as usize].1 {
                            FaultAction::LinkDown => queues[fault_slot].pause(now),
                            FaultAction::LinkUp => {
                                // Resume pulls the head-of-line packet into
                                // service if the link went fully up and idle.
                                if let Some(size) = queues[fault_slot].resume(now) {
                                    let done = now + queues[fault_slot].serialization_time(size);
                                    events.schedule(done, Event::LinkDequeue(fault_slot as u32));
                                }
                            }
                            FaultAction::SetRate(rate) => queues[fault_slot].set_rate(rate),
                            FaultAction::DelayStart(d) => {
                                f.extra_delay = f.extra_delay + d;
                            }
                            FaultAction::DelayEnd(d) => {
                                f.extra_delay = SimDuration(f.extra_delay.0.saturating_sub(d.0));
                            }
                        }
                    }
                }
                Event::WorkloadArrival => {
                    if let Some(rt) = workload.as_mut() {
                        let wl = self
                            .config
                            .workload
                            .expect("workload runtime implies config");
                        // Fixed draw order (size, then next gap) keeps
                        // runs reproducible.
                        let size = wl.sizes.sample(&mut rt.rng);
                        let next = now + wl.arrivals.sample_gap(&mut rt.rng);
                        if next <= end {
                            events.schedule(next, Event::WorkloadArrival);
                        }
                        let cc = (self
                            .workload_cc
                            .as_mut()
                            .expect("factory verified before the loop"))(
                            rt.spawned
                        );
                        rt.spawned += 1;
                        // Recycle a quiescent completed slot — torn down,
                        // no pending timer/ACK events, nothing left in
                        // the bottleneck — so cumulative flows cost only
                        // peak-concurrency state; grow otherwise.
                        let slot = rt.free.iter().position(|&i| {
                            let f = &self.flows[i];
                            f.is_torn_down()
                                && !f.has_pending_events()
                                && queues.iter().all(|q| {
                                    q.queued_bytes_of(f.id) == 0
                                        && q.in_service_flow() != Some(f.id)
                                })
                        });
                        let idx = match slot {
                            Some(k) => {
                                let i = rt.free.remove(k);
                                let id = self.flows[i].id;
                                rt.recycled_goodput += self.flows[i].stats.goodput_bytes;
                                for q in &mut queues {
                                    q.reset_flow_slot(id);
                                }
                                if let Some(aud) = auditor.as_mut() {
                                    aud.reset_flow_slot(id);
                                }
                                i
                            }
                            None => {
                                let i = self.flows.len();
                                for q in &mut queues {
                                    q.grow_to(i + 1);
                                }
                                if let Some(aud) = auditor.as_mut() {
                                    aud.grow_to(i + 1);
                                }
                                i
                            }
                        };
                        let r = compiled
                            .workload_path
                            .expect("validated: workload has a route");
                        let mut flow = Flow::new(
                            FlowId(idx as u32),
                            cc,
                            self.config.mss,
                            wl.base_rtt,
                            now,
                            Arc::clone(&compiled.paths[r]),
                        );
                        flow.set_byte_limit(size);
                        #[cfg(test)]
                        {
                            flow.teardown_disabled = self.teardown_disabled;
                        }
                        if idx == self.flows.len() {
                            self.flows.push(flow);
                        } else {
                            self.flows[idx] = flow;
                        }
                        let q = self.flows[idx].ingress_slot() as usize;
                        self.flows[idx].on_start(now, &mut queues[q], &mut events);
                    }
                }
            }
            #[cfg(test)]
            if Some(events_processed) == self.corrupt_at_event {
                queues[0].test_corrupt_serviced_counter(FlowId(0));
            }
            if let Some(aud) = auditor.as_mut() {
                aud.after_event(now, &queues, &self.flows)?;
            }
        }

        // Drain-time conservation sweep: every packet must be accounted
        // for before the counters are folded into reports.
        if let Some(aud) = auditor.as_ref() {
            aud.deep_check(end, &queues, &self.flows)?;
        }
        for q in &mut queues {
            q.finalize(end);
        }
        for f in &mut self.flows {
            f.finalize(end);
        }

        let measure_secs = end.as_secs_f64();
        // Workload flows are reported in aggregate (FCT percentiles), not
        // as individual FlowReports — a 10k-flow run would drown the CSVs.
        let n_report = workload.as_ref().map_or(self.flows.len(), |rt| rt.n_static);
        let flow_reports: Vec<FlowReport> = self.flows[..n_report]
            .iter()
            .map(|f| FlowReport {
                flow: f.id,
                cc_name: f.cc_name().to_string(),
                throughput_bytes_per_sec: if measure_secs > 0.0 {
                    f.stats.goodput_bytes as f64 / measure_secs
                } else {
                    0.0
                },
                goodput_bytes: f.stats.goodput_bytes,
                sent_bytes: f.stats.sent_bytes,
                retransmits: f.stats.retransmits,
                lost_packets: f.stats.lost_packets,
                congestion_events: f.stats.congestion_events,
                rtos: f.stats.rtos,
                wire_lost_fwd: f.stats.wire_lost_fwd,
                wire_lost_ack: f.stats.wire_lost_ack,
                // The occupancy the flow holds, summed across every queue
                // on its route.
                avg_queue_occupancy_bytes: f
                    .path()
                    .ser
                    .iter()
                    .map(|&s| queues[s as usize].avg_occupancy_bytes_of(f.id, measure_secs))
                    .sum(),
                min_rtt_secs: f.min_rtt().map(|d| d.as_secs_f64()),
                mean_rtt_secs: f.mean_rtt_secs(),
                avg_cwnd_bytes: if measure_secs > 0.0 {
                    f.stats.cwnd_time_integral / measure_secs
                } else {
                    0.0
                },
                max_cwnd_bytes: f.stats.max_cwnd_bytes,
                completion_time_secs: f
                    .completion_time()
                    .map(|t| t.as_secs_f64() - f.start_time.as_secs_f64()),
                backoff_times_secs: f
                    .stats
                    .backoff_times
                    .iter()
                    .map(|t| t.as_secs_f64())
                    .collect(),
            })
            .collect();

        // Utilization counts every flow's window goodput — including live
        // workload flows and the recycled slots' accumulated deliveries.
        // Without a workload this sums the same values as the reports.
        let total_goodput: u64 = self
            .flows
            .iter()
            .map(|f| f.stats.goodput_bytes)
            .sum::<u64>()
            + workload.as_ref().map_or(0, |rt| rt.recycled_goodput);
        let capacity_bytes_in_window = self.config.rate.bytes_per_sec() * measure_secs;
        let avg_occ = queues[0].avg_occupancy_bytes(measure_secs);
        let queue_report = QueueReport {
            avg_occupancy_bytes: avg_occ,
            avg_queuing_delay_secs: avg_occ / self.config.rate.bytes_per_sec(),
            peak_occupancy_bytes: queues[0].peak_bytes(),
            capacity_bytes: queues[0].capacity_bytes(),
            dropped_packets: queues[0].dropped_packets(),
            aqm_drops: queues[0].aqm_drops(),
            enqueued_packets: queues[0].enqueued_packets(),
            utilization: if capacity_bytes_in_window > 0.0 {
                total_goodput as f64 / capacity_bytes_in_window
            } else {
                0.0
            },
            drops: queues[0]
                .drops()
                .iter()
                .map(|d| (d.time.as_secs_f64(), d.flow))
                .collect(),
        };
        // On multi-hop runs, every queue slot also gets its own report;
        // hop utilization is bytes the hop actually serialized in the
        // window against its own (possibly fault-adjusted) rate.
        let hops: Vec<QueueReport> = if queues.len() > 1 {
            queues
                .iter()
                .map(|q| {
                    let avg_occ = q.avg_occupancy_bytes(measure_secs);
                    let cap_window = q.rate().bytes_per_sec() * measure_secs;
                    QueueReport {
                        avg_occupancy_bytes: avg_occ,
                        avg_queuing_delay_secs: avg_occ / q.rate().bytes_per_sec(),
                        peak_occupancy_bytes: q.peak_bytes(),
                        capacity_bytes: q.capacity_bytes(),
                        dropped_packets: q.dropped_packets(),
                        aqm_drops: q.aqm_drops(),
                        enqueued_packets: q.enqueued_packets(),
                        utilization: if cap_window > 0.0 {
                            q.serviced_bytes() as f64 / cap_window
                        } else {
                            0.0
                        },
                        drops: q
                            .drops()
                            .iter()
                            .map(|d| (d.time.as_secs_f64(), d.flow))
                            .collect(),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        if let Some(aud) = auditor.as_ref() {
            aud.check_report(end, &flow_reports, &queue_report)?;
        }

        let (workload_spawned, workload_completed, workload_fct) = match workload.as_ref() {
            Some(rt) => {
                let mut fct = Vec::new();
                for (cc_name, samples) in &rt.fct {
                    let mut sorted = samples.clone();
                    sorted.sort_by(|a, b| a.partial_cmp(b).expect("FCTs are finite"));
                    if let Some(p) = FctPercentiles::from_sorted(cc_name, &sorted) {
                        fct.push(p);
                    }
                }
                (rt.spawned, rt.completed, fct)
            }
            None => (0, 0, Vec::new()),
        };

        Ok(SimReport {
            flows: flow_reports,
            queue: queue_report,
            hops,
            duration_secs: self.config.duration.as_secs_f64(),
            events_processed,
            trace,
            workload_spawned,
            workload_completed,
            workload_fct,
        })
    }

    /// Deliberately corrupt a queue counter mid-run (test-only), proving
    /// the auditor fails fast on a seeded conservation bug.
    #[cfg(test)]
    pub(crate) fn set_corrupt_at_event(&mut self, n: u64) {
        self.corrupt_at_event = Some(n);
    }

    /// Revert to the pre-teardown lifecycle (test-only): completed finite
    /// flows keep their timers and scoreboards, as before the fix. Lets
    /// tests measure exactly how many events teardown deschedules.
    #[cfg(test)]
    pub(crate) fn set_teardown_disabled(&mut self) {
        self.teardown_disabled = true;
    }
}

/// Live fault state during one run: the compiled action timeline, the
/// loss-draw RNG, and the currently active extra forward delay.
struct FaultRuntime {
    timeline: Vec<(SimTime, FaultAction)>,
    rng: StdRng,
    loss_fwd: f64,
    loss_ack: f64,
    extra_delay: SimDuration,
}

/// Live open-loop workload state during one run.
struct WorkloadRuntime {
    /// Private draw stream for arrival gaps and flow sizes.
    rng: StdRng,
    spawned: u64,
    completed: u64,
    /// Completed-flow FCT samples (seconds) keyed by CC name; the
    /// BTreeMap keeps report ordering deterministic (`str` orders as
    /// `String` does).
    fct: BTreeMap<&'static str, Vec<f64>>,
    /// Completed slot indices awaiting recycling (not necessarily
    /// quiescent yet — in-flight duplicates may still be draining).
    free: Vec<usize>,
    /// Statically configured flows; they keep their individual reports,
    /// workload flows occupy slots at or above this index.
    n_static: usize,
    /// Measurement-window goodput of recycled slots, folded back into
    /// link utilization.
    recycled_goodput: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::FixedWindow;

    fn base_config(mbps: f64, rtt_ms: u64, buffer_bdp: f64, secs: f64) -> (SimConfig, SimDuration) {
        let rate = Rate::from_mbps(mbps);
        let rtt = SimDuration::from_millis(rtt_ms);
        let buf = crate::units::buffer_bytes(rate, rtt, buffer_bdp);
        (
            SimConfig::new(rate, buf, SimDuration::from_secs_f64(secs)),
            rtt,
        )
    }

    #[test]
    fn single_fixed_window_flow_saturates_link() {
        let (cfg, rtt) = base_config(10.0, 40, 2.0, 10.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let mut sim = Simulator::new(cfg);
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        let report = sim.run();
        // 2*BDP window into a 2*BDP buffer: no loss, full utilization.
        assert_eq!(report.queue.dropped_packets, 0);
        assert!(
            report.queue.utilization > 0.95,
            "utilization={}",
            report.queue.utilization
        );
        let tp = report.flows[0].throughput_mbps();
        assert!((tp - 10.0).abs() < 0.5, "throughput={tp}");
    }

    #[test]
    fn undersized_window_is_rtt_limited() {
        // cwnd = BDP/2 → throughput ≈ rate/2 and empty queue.
        let (cfg, rtt) = base_config(10.0, 40, 2.0, 10.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let mut sim = Simulator::new(cfg);
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(bdp / 2)), rtt));
        let report = sim.run();
        let tp = report.flows[0].throughput_mbps();
        assert!((tp - 5.0).abs() < 0.5, "throughput={tp}");
        assert!(report.queue.avg_occupancy_bytes < 2.0 * MSS as f64);
    }

    #[test]
    fn two_equal_fixed_flows_share_evenly() {
        let (cfg, rtt) = base_config(10.0, 40, 4.0, 20.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let mut sim = Simulator::new(cfg);
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        let report = sim.run();
        let t0 = report.flows[0].throughput_mbps();
        let t1 = report.flows[1].throughput_mbps();
        assert!((t0 - t1).abs() < 1.0, "t0={t0} t1={t1}");
        assert!((t0 + t1 - 10.0).abs() < 0.5);
    }

    #[test]
    fn oversized_windows_cause_loss_and_recovery_keeps_link_full() {
        // Two flows with windows larger than buffer+BDP: drops must occur,
        // retransmissions must recover them, link stays fully utilized.
        let (cfg, rtt) = base_config(10.0, 40, 1.0, 20.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let mut sim = Simulator::new(cfg);
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt));
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt));
        let report = sim.run();
        assert!(report.queue.dropped_packets > 0);
        let total: f64 = report.flows.iter().map(|f| f.throughput_mbps()).sum();
        assert!(total > 9.0, "total={total}");
        // Retransmissions happened and goodput only counts unique bytes.
        assert!(report.flows.iter().any(|f| f.retransmits > 0));
    }

    #[test]
    fn conservation_of_bytes() {
        // goodput + still-queued + in-flight + drops accounts for all sends.
        let (cfg, rtt) = base_config(20.0, 20, 1.0, 5.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let mut sim = Simulator::new(cfg);
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(4 * bdp)), rtt));
        let report = sim.run();
        let f = &report.flows[0];
        let sent_pkts = f.sent_bytes / MSS;
        let delivered_pkts = f.goodput_bytes / MSS;
        let dropped = report.queue.dropped_packets;
        // delivered (unique) + dropped <= sent; duplicates possible.
        assert!(delivered_pkts + dropped <= sent_pkts);
        // Nothing is silently created.
        assert!(delivered_pkts > 0);
    }

    #[test]
    fn staggered_start_flow_gets_share() {
        let (cfg, rtt) = base_config(10.0, 40, 4.0, 20.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let mut sim = Simulator::new(cfg);
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        sim.add_flow(
            FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt)
                .starting_at(SimTime::from_secs_f64(5.0)),
        );
        let report = sim.run();
        assert!(report.flows[1].throughput_mbps() > 1.0);
    }

    #[test]
    #[should_panic]
    fn run_without_flows_panics() {
        let (cfg, _) = base_config(10.0, 40, 2.0, 1.0);
        Simulator::new(cfg).run();
    }

    #[test]
    fn window_averages_cover_the_whole_run() {
        // A flow pinned at cwnd = 2*BDP from t=0: one BDP in flight, one
        // BDP in the buffer. Every window-averaged quantity is normalized
        // by the full horizon and lands on that steady state.
        let (cfg, rtt) = base_config(10.0, 40, 8.0, 10.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let window = 2 * bdp;
        let mut sim = Simulator::new(cfg);
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(window)), rtt));
        let report = sim.run();
        let f = &report.flows[0];
        let cwnd = window as f64;
        let queued = (window - bdp) as f64;
        assert!(
            (f.avg_cwnd_bytes - cwnd).abs() / cwnd < 0.15,
            "avg_cwnd={} want≈{cwnd}",
            f.avg_cwnd_bytes
        );
        assert!(
            (f.avg_queue_occupancy_bytes - queued).abs() / queued < 0.15,
            "avg_queue_occ={} want≈{queued}",
            f.avg_queue_occupancy_bytes
        );
        assert!(
            (report.queue.avg_occupancy_bytes - queued).abs() / queued < 0.15,
            "queue avg_occ={} want≈{queued}",
            report.queue.avg_occupancy_bytes
        );
        let tp = f.throughput_mbps();
        assert!((tp - 10.0).abs() < 0.5, "throughput={tp}");
        assert!(report.queue.utilization > 0.9);
    }

    #[test]
    fn flowless_try_run_returns_config_error() {
        let (cfg, _) = base_config(10.0, 40, 2.0, 1.0);
        let err = Simulator::try_new(cfg).unwrap().try_run().unwrap_err();
        assert!(matches!(err, SimError::Config(ConfigError::NoFlows)));
    }

    #[test]
    fn try_new_rejects_zero_buffer() {
        let cfg = SimConfig::new(Rate::from_mbps(10.0), 0, SimDuration::from_secs_f64(1.0));
        let err = Simulator::try_new(cfg).err().expect("zero buffer rejected");
        assert_eq!(err.to_string(), "buffer must be positive");
    }

    #[test]
    fn try_add_flow_rejects_degenerate_flow_config() {
        let (cfg, rtt) = base_config(10.0, 40, 2.0, 1.0);
        let mut sim = Simulator::try_new(cfg).unwrap();
        let zero_rtt = FlowConfig::new(Box::new(FixedWindow::new(1500)), SimDuration::ZERO);
        let err = sim.try_add_flow(zero_rtt).unwrap_err();
        assert_eq!(err.to_string(), "base RTT must be positive");
        let mut zero_limit = FlowConfig::new(Box::new(FixedWindow::new(1500)), rtt);
        zero_limit.byte_limit = Some(0);
        let err = sim.try_add_flow(zero_limit).unwrap_err();
        assert_eq!(err.to_string(), "byte limit must be positive");
        assert_eq!(sim.flow_count(), 0);
    }

    #[test]
    fn audited_clean_run_succeeds() {
        let (cfg, rtt) = base_config(10.0, 40, 1.0, 10.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let mut sim = Simulator::try_new(cfg.with_audit(true)).unwrap();
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt));
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt));
        let report = sim.try_run().expect("audited run must pass");
        assert!(report.queue.utilization > 0.9);
    }

    #[test]
    fn auditor_catches_seeded_conservation_bug() {
        let (cfg, rtt) = base_config(10.0, 40, 2.0, 10.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let mut sim = Simulator::try_new(cfg.with_audit(true)).unwrap();
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        sim.set_corrupt_at_event(500);
        match sim.try_run() {
            Err(SimError::Audit(v)) => {
                assert_eq!(v.check, "packet-conservation");
                assert_eq!(v.flow, Some(FlowId(0)));
            }
            other => panic!("expected audit violation, got {other:?}"),
        }
    }

    #[test]
    fn forward_wire_loss_is_counted_and_audited() {
        use crate::fault::FaultSchedule;
        let (cfg, rtt) = base_config(10.0, 40, 2.0, 20.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let cfg = cfg
            .with_faults(FaultSchedule::none().with_loss(0.01).with_seed(7))
            .with_audit(true);
        let mut sim = Simulator::try_new(cfg).unwrap();
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        let report = sim
            .try_run()
            .expect("lossy audited run must stay consistent");
        let f = &report.flows[0];
        assert!(f.wire_lost_fwd > 0, "1% loss over 20s must hit packets");
        // Losses force retransmissions; goodput only counts unique bytes.
        assert!(f.retransmits > 0);
    }

    #[test]
    fn ack_wire_loss_is_counted_and_audited() {
        use crate::fault::FaultSchedule;
        let (cfg, rtt) = base_config(10.0, 40, 2.0, 20.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let cfg = cfg
            .with_faults(FaultSchedule::none().with_ack_loss(0.01).with_seed(7))
            .with_audit(true);
        let mut sim = Simulator::try_new(cfg).unwrap();
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        let report = sim.try_run().expect("ACK-lossy audited run");
        assert!(report.flows[0].wire_lost_ack > 0);
        // Per-packet SACK-like ACKs tolerate sparse ACK loss well.
        assert!(report.queue.utilization > 0.8);
    }

    #[test]
    fn link_outage_stalls_then_recovers() {
        use crate::fault::FaultSchedule;
        let (cfg, rtt) = base_config(10.0, 40, 2.0, 20.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        // 2s outage in a 20s run: ~10% of capacity is lost while the
        // flow's RTO keeps it alive across the gap.
        let faults = FaultSchedule::none()
            .with_outage(SimTime::from_secs_f64(5.0), SimDuration::from_secs_f64(2.0));
        let clean = {
            let (cfg, _) = base_config(10.0, 40, 2.0, 20.0);
            let mut sim = Simulator::try_new(cfg.with_audit(true)).unwrap();
            sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
            sim.try_run().unwrap().flows[0].throughput_mbps()
        };
        let mut sim = Simulator::try_new(cfg.with_faults(faults).with_audit(true)).unwrap();
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        let report = sim.try_run().expect("outage run must stay consistent");
        let faulted = report.flows[0].throughput_mbps();
        assert!(
            faulted < clean - 0.5,
            "outage must cost throughput: clean={clean} faulted={faulted}"
        );
        assert!(
            faulted > clean * 0.5,
            "flow must recover after the outage: clean={clean} faulted={faulted}"
        );
    }

    #[test]
    fn rate_step_halves_throughput() {
        use crate::fault::FaultSchedule;
        let (cfg, rtt) = base_config(10.0, 40, 2.0, 20.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        // Halve the link rate at t=0: reported throughput tracks the
        // degraded capacity (the queue simply serializes slower).
        let faults = FaultSchedule::none().with_rate_step(SimTime::ZERO, Rate::from_mbps(5.0));
        let mut sim = Simulator::try_new(cfg.with_faults(faults).with_audit(true)).unwrap();
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        let report = sim.try_run().expect("rate-step run");
        let tp = report.flows[0].throughput_mbps();
        assert!((tp - 5.0).abs() < 0.5, "throughput={tp}");
    }

    #[test]
    fn delay_spike_is_survived() {
        use crate::fault::FaultSchedule;
        let (cfg, rtt) = base_config(10.0, 40, 2.0, 20.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let faults = FaultSchedule::none().with_delay_spike(
            SimTime::from_secs_f64(5.0),
            SimDuration::from_secs_f64(1.0),
            SimDuration::from_millis(80),
        );
        let mut sim = Simulator::try_new(cfg.with_faults(faults).with_audit(true)).unwrap();
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        let report = sim.try_run().expect("delay-spike run must stay consistent");
        assert!(report.queue.utilization > 0.7);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        use crate::fault::FaultSchedule;
        let run_once = || {
            let (cfg, rtt) = base_config(10.0, 40, 1.0, 10.0);
            let bdp = cfg.rate.bdp_bytes(rtt);
            let faults = FaultSchedule::none()
                .with_loss(0.005)
                .with_ack_loss(0.005)
                .with_seed(42)
                .with_outage(SimTime::from_secs_f64(3.0), SimDuration::from_secs_f64(0.5));
            let mut sim = Simulator::try_new(cfg.with_faults(faults).with_audit(true)).unwrap();
            sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt));
            sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt));
            let r = sim.try_run().unwrap();
            (
                r.flows[0].goodput_bytes,
                r.flows[1].goodput_bytes,
                r.flows[0].wire_lost_fwd,
                r.flows[1].wire_lost_ack,
                r.queue.dropped_packets,
            )
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn trace_samples_every_interval() {
        let (cfg, rtt) = base_config(10.0, 40, 2.0, 10.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let mut sim = Simulator::new(cfg.with_trace(SimDuration::from_millis(100)));
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        let report = sim.run();
        assert_eq!(report.trace.len(), 101); // t=0 .. t=10s inclusive
        assert_eq!(report.trace.samples[4].time.as_secs_f64(), 0.4);
    }

    #[test]
    fn degenerate_trace_interval_is_rejected() {
        let (mut cfg, _) = base_config(10.0, 40, 2.0, 10.0);
        cfg.sample_interval = Some(SimDuration::ZERO);
        assert!(Simulator::try_new(cfg).is_err());
    }

    /// One paced finite flow plus a backlogged competitor. With teardown
    /// the completing ACK no longer re-enters `try_send`, so the pacing
    /// events of the completed flow's ACK-drain tail are descheduled;
    /// the observable results must not change.
    #[test]
    fn teardown_deschedules_events_without_changing_results() {
        use crate::cc::FixedRate;
        let run = |disable_teardown: bool| {
            let (cfg, rtt) = base_config(10.0, 40, 2.0, 20.0);
            let bdp = cfg.rate.bdp_bytes(rtt);
            let mut sim = Simulator::new(cfg);
            if disable_teardown {
                sim.set_teardown_disabled();
            }
            // 2 Mbps paced finite transfer: done after ~2s of a 20s run.
            sim.add_flow(
                FlowConfig::new(Box::new(FixedRate::new(250_000.0)), rtt).with_byte_limit(500_000),
            );
            sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
            sim.run()
        };
        let with_teardown = run(false);
        let without = run(true);
        assert!(
            with_teardown.events_processed < without.events_processed,
            "teardown must deschedule events: {} vs {}",
            with_teardown.events_processed,
            without.events_processed
        );
        // The fix is pure lifecycle bookkeeping: completion time, goodput,
        // and the competitor's results are identical either way.
        assert_eq!(
            with_teardown.flows[0].completion_time_secs,
            without.flows[0].completion_time_secs
        );
        assert!(with_teardown.flows[0].completion_time_secs.is_some());
        assert_eq!(
            with_teardown.flows[0].goodput_bytes,
            without.flows[0].goodput_bytes
        );
        assert_eq!(
            with_teardown.flows[1].goodput_bytes,
            without.flows[1].goodput_bytes
        );
    }

    /// Teardown under audit: finite flows complete while duplicates and
    /// retransmissions are still draining through the bottleneck; the
    /// conservation ledgers must stay consistent through and after it.
    #[test]
    fn audited_run_stays_consistent_through_teardown() {
        let (cfg, rtt) = base_config(10.0, 40, 0.5, 10.0);
        let bdp = cfg.rate.bdp_bytes(rtt);
        let mut sim = Simulator::try_new(cfg.with_audit(true)).unwrap();
        // Oversized windows against a small buffer force losses, so the
        // finite flows complete amid retransmissions and dup ACKs.
        sim.add_flow(
            FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt).with_byte_limit(400_000),
        );
        sim.add_flow(
            FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt).with_byte_limit(400_000),
        );
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt));
        let report = sim.try_run().expect("audited teardown run");
        assert!(report.flows[0].completion_time_secs.is_some());
        assert!(report.flows[1].completion_time_secs.is_some());
        // Goodput-based utilization: lossy run, so well below 1 but busy.
        assert!(report.queue.utilization > 0.5);
    }

    fn workload_sim(secs: f64, rate_per_sec: f64, audit: bool) -> Simulator {
        let (cfg, rtt) = base_config(50.0, 20, 2.0, secs);
        let cfg = cfg
            .with_workload(crate::workload::WorkloadConfig::new(
                crate::workload::ArrivalProcess::Poisson { rate_per_sec },
                crate::workload::SizeDist::Fixed { bytes: 15_000 },
                rtt,
                11,
            ))
            .with_audit(audit);
        let mut sim = Simulator::try_new(cfg).unwrap();
        sim.set_workload_cc(Box::new(|_| Box::new(FixedWindow::new(8 * MSS))));
        sim
    }

    #[test]
    fn workload_spawns_completes_and_recycles_slots() {
        let mut sim = workload_sim(5.0, 200.0, false);
        let report = sim.try_run().expect("workload run");
        assert!(
            report.workload_spawned > 800,
            "Poisson(200/s) over 5s spawned only {}",
            report.workload_spawned
        );
        assert!(
            report.workload_completed > report.workload_spawned * 8 / 10,
            "most short flows must finish: {}/{}",
            report.workload_completed,
            report.workload_spawned
        );
        // No static flows: individual reports stay empty, the workload
        // reports in aggregate.
        assert!(report.flows.is_empty());
        let fct = &report.workload_fct;
        assert_eq!(fct.len(), 1, "one CCA in the mix");
        assert_eq!(fct[0].cc_name, "fixed");
        assert_eq!(
            fct[0].count, report.workload_completed,
            "every completion contributes an FCT sample"
        );
        assert!(fct[0].p50_secs > 0.0 && fct[0].p50_secs <= fct[0].p99_secs);
        // Slot recycling keeps the flow table near peak concurrency, far
        // below the cumulative spawn count.
        assert!(
            (sim.flow_count() as u64) < report.workload_spawned / 4,
            "slots {} vs spawned {}",
            sim.flow_count(),
            report.workload_spawned
        );
        // The open-loop load is ~2.4 Mbps on a 50 Mbps link.
        assert!(report.queue.utilization > 0.02);
    }

    #[test]
    fn audited_workload_run_stays_consistent() {
        let mut sim = workload_sim(3.0, 150.0, true);
        let report = sim.try_run().expect("audited workload run");
        assert!(report.workload_spawned > 200);
        assert!(report.workload_completed > 0);
    }

    #[test]
    fn workload_runs_are_deterministic() {
        let run = || {
            let mut sim = workload_sim(3.0, 150.0, false);
            let r = sim.try_run().unwrap();
            (
                r.workload_spawned,
                r.workload_completed,
                r.events_processed,
                r.workload_fct[0].p50_secs.to_bits(),
                r.workload_fct[0].p99_secs.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn workload_report_roundtrips_through_json() {
        let mut sim = workload_sim(2.0, 100.0, false);
        let report = sim.try_run().unwrap();
        assert!(report.workload_spawned > 0);
        let text = report.to_json_value().to_json();
        let parsed = SimReport::from_json_value(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed.to_json_value().to_json(), text);
        assert_eq!(parsed.workload_spawned, report.workload_spawned);
        assert_eq!(parsed.workload_fct, report.workload_fct);
    }

    #[test]
    fn workload_without_cc_factory_is_rejected() {
        let (cfg, rtt) = base_config(50.0, 20, 2.0, 1.0);
        let cfg = cfg.with_workload(crate::workload::WorkloadConfig::new(
            crate::workload::ArrivalProcess::Poisson { rate_per_sec: 10.0 },
            crate::workload::SizeDist::Fixed { bytes: 15_000 },
            rtt,
            1,
        ));
        let mut sim = Simulator::try_new(cfg).unwrap();
        assert!(matches!(
            sim.try_run(),
            Err(SimError::Config(ConfigError::Unsupported { .. }))
        ));
    }

    #[test]
    fn determinism_same_config_same_result() {
        let run_once = || {
            let (cfg, rtt) = base_config(10.0, 40, 1.0, 10.0);
            let bdp = cfg.rate.bdp_bytes(rtt);
            let mut sim = Simulator::new(cfg);
            sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt));
            sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt));
            let r = sim.run();
            (
                r.flows[0].goodput_bytes,
                r.flows[1].goodput_bytes,
                r.queue.dropped_packets,
            )
        };
        assert_eq!(run_once(), run_once());
    }

    /// A config without a topology runs the dumbbell; spelling it out as
    /// an explicit 4-node topology must give the same run bit for bit:
    /// same event count, same serialized report.
    #[test]
    fn implicit_dumbbell_matches_the_explicit_topology() {
        let run = |with_topo: bool| {
            let (mut cfg, rtt) = base_config(10.0, 40, 2.0, 10.0);
            if with_topo {
                cfg.topology = Some(crate::topo::Topology::dumbbell(cfg.rate, cfg.buffer_bytes));
            }
            let bdp = cfg.rate.bdp_bytes(rtt);
            let mut sim = Simulator::try_new(cfg.with_audit(true)).unwrap();
            sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(3 * bdp)), rtt));
            sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
            sim.try_run().unwrap()
        };
        let implicit = run(false);
        let topo = run(true);
        assert_eq!(implicit.events_processed, topo.events_processed);
        assert!(topo.hops.is_empty(), "one slot: no per-hop reports");
        assert_eq!(
            implicit.to_json_value().to_json(),
            topo.to_json_value().to_json()
        );
    }

    /// An audited two-hop parking-lot run: the long flow crosses both
    /// queues, each cross flow only its own; conservation holds across
    /// hops and the per-hop reports appear.
    #[test]
    fn audited_parking_lot_run_stays_consistent() {
        let rate = Rate::from_mbps(10.0);
        let rtt = SimDuration::from_millis(40);
        let bdp = rate.bdp_bytes(rtt);
        let mut topo =
            crate::topo::Topology::parking_lot(2, rate, SimDuration::from_millis(2), 2 * bdp);
        topo.flow_routes = vec![0, 1, 2];
        let cfg = SimConfig::new(rate, 2 * bdp, SimDuration::from_secs_f64(10.0))
            .with_topology(topo)
            .with_audit(true);
        let mut sim = Simulator::try_new(cfg).unwrap();
        for _ in 0..3 {
            sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        }
        let report = sim.try_run().expect("audited multi-hop run");
        assert_eq!(report.hops.len(), 2, "one report per rated link");
        // Both hops carry the long flow plus one cross flow; each must
        // be busy and every flow must move bytes.
        for hop in &report.hops {
            assert!(hop.utilization > 0.8, "hop utilization {}", hop.utilization);
        }
        for f in &report.flows {
            assert!(f.goodput_bytes > 0);
        }
        // The long flow's min RTT includes both per-hop propagation
        // delays on top of its configured base RTT (fwd + rev: 2 × 2ms
        // × 2 hops = 8ms).
        let long_rtt = report.flows[0].min_rtt_secs.unwrap();
        assert!(long_rtt >= 0.048, "long-path RTT {long_rtt}");
        let report_json = report.to_json_value().to_json();
        let parsed =
            SimReport::from_json_value(&crate::json::parse(&report_json).unwrap()).unwrap();
        assert_eq!(parsed.to_json_value().to_json(), report_json);
    }

    #[test]
    fn flow_routes_length_mismatch_is_typed() {
        let rate = Rate::from_mbps(10.0);
        let rtt = SimDuration::from_millis(40);
        let bdp = rate.bdp_bytes(rtt);
        let mut topo =
            crate::topo::Topology::parking_lot(2, rate, SimDuration::from_millis(2), 2 * bdp);
        topo.flow_routes = vec![0, 1]; // two entries, one flow
        let cfg =
            SimConfig::new(rate, 2 * bdp, SimDuration::from_secs_f64(1.0)).with_topology(topo);
        let mut sim = Simulator::try_new(cfg).unwrap();
        sim.add_flow(FlowConfig::new(Box::new(FixedWindow::new(2 * bdp)), rtt));
        match sim.try_run() {
            Err(SimError::Config(ConfigError::InvalidTopology { reason })) => {
                assert!(reason.contains("flow_routes"), "{reason}")
            }
            other => panic!("expected InvalidTopology, got {other:?}"),
        }
    }

    #[test]
    fn topology_workload_needs_a_route() {
        let (cfg, rtt) = base_config(50.0, 20, 2.0, 2.0);
        let mut topo = crate::topo::Topology::dumbbell(Rate::from_mbps(50.0), 100_000);
        topo.workload_route = None;
        let cfg = cfg
            .with_workload(crate::workload::WorkloadConfig::new(
                crate::workload::ArrivalProcess::Poisson { rate_per_sec: 50.0 },
                crate::workload::SizeDist::Fixed { bytes: 15_000 },
                rtt,
                3,
            ))
            .with_topology(topo);
        assert!(matches!(
            Simulator::try_new(cfg),
            Err(ConfigError::InvalidTopology { .. })
        ));
    }

    /// An audited workload routed over a multi-hop chain: spawned flows
    /// take the workload route, recycle across all queues, and conserve.
    #[test]
    fn audited_workload_over_parking_lot_runs() {
        let rate = Rate::from_mbps(50.0);
        let rtt = SimDuration::from_millis(20);
        let bdp = rate.bdp_bytes(rtt);
        let topo =
            crate::topo::Topology::parking_lot(2, rate, SimDuration::from_millis(1), 2 * bdp);
        let cfg = SimConfig::new(rate, 2 * bdp, SimDuration::from_secs_f64(3.0))
            .with_workload(crate::workload::WorkloadConfig::new(
                crate::workload::ArrivalProcess::Poisson {
                    rate_per_sec: 100.0,
                },
                crate::workload::SizeDist::Fixed { bytes: 15_000 },
                rtt,
                5,
            ))
            .with_topology(topo)
            .with_audit(true);
        let mut sim = Simulator::try_new(cfg).unwrap();
        sim.set_workload_cc(Box::new(|_| Box::new(FixedWindow::new(8 * MSS))));
        let report = sim.try_run().expect("audited multi-hop workload run");
        assert!(report.workload_spawned > 100);
        assert!(report.workload_completed > report.workload_spawned / 2);
    }
}
