//! Declarative experiment scenarios.
//!
//! A [`Scenario`] captures everything one simulator run needs — link,
//! buffer, flow list, duration, and a seed — and produces a
//! [`TrialResult`] with the measurements the figures consume. Seeds make
//! trials reproducible: the same scenario + seed is bit-identical.

use bbrdom_cca::CcaKind;
use bbrdom_netsim::hash::{StableHash, StableHasher};
use bbrdom_netsim::json::{Field, Kind, ParseError, Reader, Value};
use bbrdom_netsim::{
    ConfigError, FaultSchedule, FlowConfig, Rate, SimConfig, SimDuration, SimError, SimTime,
    Simulator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// One flow in a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Which congestion-control algorithm the flow runs.
    pub cca: CcaKind,
    /// Base RTT in milliseconds.
    pub rtt_ms: f64,
    /// Application start time, seconds (on top of the seed jitter).
    pub start_s: f64,
    /// Finite transfer size in bytes (`None` = backlogged long flow).
    pub byte_limit: Option<u64>,
}

impl FlowSpec {
    /// A backlogged long flow starting at t≈0.
    pub fn long(cca: CcaKind, rtt_ms: f64) -> Self {
        FlowSpec {
            cca,
            rtt_ms,
            start_s: 0.0,
            byte_limit: None,
        }
    }

    /// A finite transfer of `bytes`, starting at `start_s`.
    pub fn short(cca: CcaKind, rtt_ms: f64, start_s: f64, bytes: u64) -> Self {
        FlowSpec {
            cca,
            rtt_ms,
            start_s,
            byte_limit: Some(bytes),
        }
    }
}

/// Serializable bottleneck queue discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DisciplineSpec {
    #[default]
    DropTail,
    /// RED with the classic parameterization for the buffer capacity.
    Red,
    /// CoDel with RFC 8289 defaults (5 ms / 100 ms).
    Codel,
}

impl DisciplineSpec {
    pub fn name(self) -> &'static str {
        match self {
            DisciplineSpec::DropTail => "droptail",
            DisciplineSpec::Red => "red",
            DisciplineSpec::Codel => "codel",
        }
    }

    /// Inverse of [`DisciplineSpec::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "droptail" => Some(DisciplineSpec::DropTail),
            "red" => Some(DisciplineSpec::Red),
            "codel" => Some(DisciplineSpec::Codel),
            _ => None,
        }
    }

    fn to_discipline(self, buffer_bytes: u64) -> bbrdom_netsim::QueueDiscipline {
        use bbrdom_netsim::{CodelConfig, QueueDiscipline, RedConfig};
        match self {
            DisciplineSpec::DropTail => QueueDiscipline::DropTail,
            DisciplineSpec::Red => QueueDiscipline::Red(RedConfig::for_capacity(buffer_bytes)),
            DisciplineSpec::Codel => QueueDiscipline::Codel(CodelConfig::default()),
        }
    }
}

/// The CCA whose wire name is exactly `name`. Unlike `CcaKind`'s
/// `FromStr`, no aliases are accepted: a scenario's JSON (and so its
/// content hash) has one spelling per algorithm.
fn cca_from_name(name: &str) -> Option<CcaKind> {
    CcaKind::ALL.into_iter().find(|k| k.name() == name)
}

/// Where a spec type's `emit` writes its fields: the one list of what a
/// scenario is. Two sinks read that list, the [`Value`] tree behind
/// [`Scenario::to_json_value`] (an index line's bytes) and the content
/// hash behind [`crate::scenario_hash`], so a field the line writes is a
/// field the key covers.
///
/// A member every line writes is named with [`Sink::key`]; one the
/// writer only sometimes writes, with [`Sink::opt_key`]. The hash feeds
/// values alone, plus the names given to `opt_key`, so an absent member
/// never reads as a present one.
pub(crate) trait Sink: Sized {
    /// Name the next value: a member the open object always holds.
    fn key(&mut self, key: &'static str) -> &mut Self;
    /// Name the next value: a member the open object holds only sometimes.
    fn opt_key(&mut self, key: &'static str) -> &mut Self {
        self.key(key)
    }
    fn f64(&mut self, v: f64);
    fn u64(&mut self, v: u64);
    /// An integer, or `null` for `None`.
    fn opt_u64(&mut self, v: Option<u64>);
    fn str(&mut self, v: &str);
    fn object(&mut self, fill: impl FnOnce(&mut Self));
    fn array<T>(&mut self, items: &[T], each: impl FnMut(&mut Self, &T));
    fn f64s(&mut self, xs: &[f64]) {
        self.array(xs, |s, &x| s.f64(x));
    }
}

/// The [`Sink`] that builds a [`Value`] tree.
struct Tree {
    /// The open object or array.
    value: Value,
    /// The name of the next member, when `value` is an object.
    key: &'static str,
}

impl Tree {
    fn build(value: Value, fill: impl FnOnce(&mut Tree)) -> Value {
        let mut tree = Tree { value, key: "" };
        fill(&mut tree);
        tree.value
    }

    fn put(&mut self, v: Value) {
        match &mut self.value {
            Value::Array(items) => items.push(v),
            object => {
                object.set(self.key, v);
            }
        }
    }
}

impl Sink for Tree {
    fn key(&mut self, key: &'static str) -> &mut Self {
        self.key = key;
        self
    }
    fn f64(&mut self, v: f64) {
        self.put(Value::F64(v));
    }
    fn u64(&mut self, v: u64) {
        self.put(Value::U64(v));
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        self.put(v.map_or(Value::Null, Value::U64));
    }
    fn str(&mut self, v: &str) {
        self.put(v.into());
    }
    fn object(&mut self, fill: impl FnOnce(&mut Self)) {
        let v = Tree::build(Value::object(), fill);
        self.put(v);
    }
    fn array<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) {
        let v = Tree::build(Value::Array(Vec::with_capacity(items.len())), |t| {
            items.iter().for_each(|item| each(t, item))
        });
        self.put(v);
    }
}

/// Serializable path impairments for a scenario: seconds/Mbps-denominated
/// mirror of [`FaultSchedule`] (which uses integer-nanosecond sim types).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Forward-path (data) random wire-loss probability, `[0, 1]`.
    pub loss_fwd: f64,
    /// Reverse-path (ACK) random wire-loss probability, `[0, 1]`.
    pub loss_ack: f64,
    /// Link outages: `(start_s, down_for_s)`.
    pub outages: Vec<(f64, f64)>,
    /// Capacity steps: `(start_s, new_mbps)`.
    pub rate_steps: Vec<(f64, f64)>,
    /// Delay spikes: `(start_s, length_s, extra_ms)` added to the
    /// forward path.
    pub delay_spikes: Vec<(f64, f64, f64)>,
}

impl FaultSpec {
    /// True when the spec injects nothing (a clean path).
    pub fn is_noop(&self) -> bool {
        self.loss_fwd == 0.0
            && self.loss_ack == 0.0
            && self.outages.is_empty()
            && self.rate_steps.is_empty()
            && self.delay_spikes.is_empty()
    }

    /// Check the fields [`FaultSpec::to_schedule`] would assert on: every
    /// time, length and spike delay must be zero or more, every rate step
    /// positive (NaN fails both). A spec that passes always lowers.
    pub fn check_lowerable(&self) -> Result<(), ConfigError> {
        let time = |field, secs: f64| {
            if secs >= 0.0 {
                Ok(())
            } else {
                Err(ConfigError::Negative { field })
            }
        };
        for &(at, down) in &self.outages {
            time("fault outage start", at)?;
            time("fault outage length", down)?;
        }
        for &(at, mbps) in &self.rate_steps {
            time("fault rate step time", at)?;
            if mbps.is_nan() || mbps <= 0.0 {
                return Err(ConfigError::NonPositive {
                    field: "fault rate step mbps",
                });
            }
        }
        for &(at, len, extra_ms) in &self.delay_spikes {
            time("fault delay spike start", at)?;
            time("fault delay spike length", len)?;
            time("fault delay spike extra_ms", extra_ms / 1e3)?;
        }
        Ok(())
    }

    /// Lower to the simulator's [`FaultSchedule`]. The loss RNG is seeded
    /// from the trial seed so trials stay reproducible yet decorrelated.
    /// Panics on a spec [`FaultSpec::check_lowerable`] rejects.
    pub fn to_schedule(&self, seed: u64) -> FaultSchedule {
        // `+ 0.0` turns a -0.0 probability into 0.0: both lose nothing,
        // and a spec holding either serializes without faults, so the
        // two share a cache key and must run alike.
        let mut faults = FaultSchedule::none()
            .with_loss(self.loss_fwd + 0.0)
            .with_ack_loss(self.loss_ack + 0.0)
            .with_seed(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        for &(at, down) in &self.outages {
            faults =
                faults.with_outage(SimTime::from_secs_f64(at), SimDuration::from_secs_f64(down));
        }
        for &(at, mbps) in &self.rate_steps {
            faults = faults.with_rate_step(SimTime::from_secs_f64(at), Rate::from_mbps(mbps));
        }
        for &(at, len, extra_ms) in &self.delay_spikes {
            faults = faults.with_delay_spike(
                SimTime::from_secs_f64(at),
                SimDuration::from_secs_f64(len),
                SimDuration::from_secs_f64(extra_ms / 1e3),
            );
        }
        faults
    }

    fn emit<S: Sink>(&self, s: &mut S) {
        s.key("loss_fwd").f64(self.loss_fwd);
        s.key("loss_ack").f64(self.loss_ack);
        s.key("outages")
            .array(&self.outages, |s, &(a, b)| s.f64s(&[a, b]));
        s.key("rate_steps")
            .array(&self.rate_steps, |s, &(a, b)| s.f64s(&[a, b]));
        s.key("delay_spikes")
            .array(&self.delay_spikes, |s, &(a, b, c)| s.f64s(&[a, b, c]));
    }

    fn read(r: &mut Reader<'_>) -> Result<Field<Self>, ParseError> {
        /// One `[at, ...]` tuple of `want` numbers.
        fn nums(
            r: &mut Reader<'_>,
            want: usize,
            what: &str,
        ) -> Result<Field<Vec<f64>>, ParseError> {
            let items = r.array_of(|r| Ok(Ok(r.f64()?)))?;
            Ok(items
                .and_then(Result::ok)
                .filter(|a| a.len() == want)
                .ok_or_else(|| format!("fault {what} must be a {want}-element array"))
                .and_then(|a| {
                    a.into_iter()
                        .map(|x| x.ok_or_else(|| format!("non-numeric {what}")))
                        .collect()
                }))
        }
        /// An absent list is empty; a present one must be an array.
        fn list<T>(
            r: &mut Reader<'_>,
            key: &str,
            item: impl FnMut(&mut Reader<'_>) -> Result<Field<T>, ParseError>,
        ) -> Result<Field<Vec<T>>, ParseError> {
            Ok(r.array_of(item)?
                .unwrap_or_else(|| Err(format!("fault '{key}' must be an array"))))
        }
        let (mut loss_fwd, mut loss_ack) = (None, None);
        let (mut outages, mut rate_steps, mut delay_spikes) =
            (Ok(Vec::new()), Ok(Vec::new()), Ok(Vec::new()));
        r.object(|r, key| {
            match key {
                "loss_fwd" => loss_fwd = r.f64()?,
                "loss_ack" => loss_ack = r.f64()?,
                "outages" => {
                    outages = list(r, key, |r| Ok(nums(r, 2, "outage")?.map(|n| (n[0], n[1]))))?
                }
                "rate_steps" => {
                    rate_steps = list(r, key, |r| {
                        Ok(nums(r, 2, "rate step")?.map(|n| (n[0], n[1])))
                    })?
                }
                "delay_spikes" => {
                    delay_spikes = list(r, key, |r| {
                        Ok(nums(r, 3, "delay spike")?.map(|n| (n[0], n[1], n[2])))
                    })?
                }
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok((|| {
            Ok(FaultSpec {
                loss_fwd: loss_fwd.unwrap_or(0.0),
                loss_ack: loss_ack.unwrap_or(0.0),
                outages: outages?,
                rate_steps: rate_steps?,
                delay_spikes: delay_spikes?,
            })
        })())
    }
}

/// Arrival process of an open-loop workload, in paper units (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Memoryless arrivals at `rate_per_sec` flows per second.
    Poisson { rate_per_sec: f64 },
    /// One arrival every `interval_s` seconds, exactly.
    Deterministic { interval_s: f64 },
}

/// Flow-size model of an open-loop workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeSpec {
    /// Every flow transfers exactly `bytes`.
    Fixed { bytes: u64 },
    /// Bounded Pareto on `[min_bytes, max_bytes]` with tail index
    /// `alpha` (heavy-tailed web-transfer sizes).
    Pareto {
        alpha: f64,
        min_bytes: u64,
        max_bytes: u64,
    },
}

/// An open-loop background workload attached to a scenario
/// (`repro --workload`): finite flows of one CCA arriving during the
/// run, torn down on completion, reported in aggregate as per-CCA FCT
/// percentiles. Serializable mirror of
/// [`bbrdom_netsim::WorkloadConfig`], in the paper's units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// CCA run by every workload flow.
    pub cca: CcaKind,
    /// When new flows arrive.
    pub arrival: ArrivalSpec,
    /// How large each flow is.
    pub size: SizeSpec,
    /// Base RTT (ms) of the workload flows' path.
    pub rtt_ms: f64,
}

impl WorkloadSpec {
    /// Poisson arrivals of fixed-size transfers.
    pub fn poisson_fixed(cca: CcaKind, rate_per_sec: f64, bytes: u64, rtt_ms: f64) -> Self {
        WorkloadSpec {
            cca,
            arrival: ArrivalSpec::Poisson { rate_per_sec },
            size: SizeSpec::Fixed { bytes },
            rtt_ms,
        }
    }

    /// Poisson arrivals of web-like transfers: bounded Pareto with the
    /// classic heavy-tail index α = 1.2 on 10 kB–1 MB.
    pub fn web(cca: CcaKind, rate_per_sec: f64, rtt_ms: f64) -> Self {
        WorkloadSpec {
            cca,
            arrival: ArrivalSpec::Poisson { rate_per_sec },
            size: SizeSpec::Pareto {
                alpha: 1.2,
                min_bytes: 10_000,
                max_bytes: 1_000_000,
            },
            rtt_ms,
        }
    }

    /// Lower to the simulator's workload config. The workload RNG-stream
    /// seed is derived from the trial seed through the stable hash, so it
    /// can never collide with the ACK-jitter, fault-loss, or CCA-phase
    /// seed formulas (which are all small affine maps of the same seed).
    pub fn to_config(&self, trial_seed: u64) -> bbrdom_netsim::WorkloadConfig {
        let arrivals = match self.arrival {
            ArrivalSpec::Poisson { rate_per_sec } => {
                bbrdom_netsim::ArrivalProcess::Poisson { rate_per_sec }
            }
            ArrivalSpec::Deterministic { interval_s } => {
                bbrdom_netsim::ArrivalProcess::Deterministic {
                    interval: SimDuration::from_secs_f64(interval_s),
                }
            }
        };
        let sizes = match self.size {
            SizeSpec::Fixed { bytes } => bbrdom_netsim::SizeDist::Fixed { bytes },
            SizeSpec::Pareto {
                alpha,
                min_bytes,
                max_bytes,
            } => bbrdom_netsim::SizeDist::BoundedPareto {
                alpha,
                min_bytes,
                max_bytes,
            },
        };
        let mut h = StableHasher::new();
        h.write_bytes(b"workload-stream");
        trial_seed.stable_hash(&mut h);
        bbrdom_netsim::WorkloadConfig::new(
            arrivals,
            sizes,
            SimDuration::from_secs_f64(self.rtt_ms / 1e3),
            h.finish() as u64,
        )
    }

    fn validate(&self, trial_seed: u64) -> Result<(), ConfigError> {
        if !self.rtt_ms.is_finite() || self.rtt_ms <= 0.0 {
            return Err(ConfigError::NonPositive {
                field: "workload rtt_ms",
            });
        }
        if let ArrivalSpec::Deterministic { interval_s } = self.arrival {
            if !interval_s.is_finite() || interval_s <= 0.0 {
                return Err(ConfigError::NonPositive {
                    field: "workload arrival interval",
                });
            }
        }
        if let ArrivalSpec::Poisson { rate_per_sec } = self.arrival {
            if !rate_per_sec.is_finite() || rate_per_sec <= 0.0 {
                return Err(ConfigError::NonPositive {
                    field: "workload arrival rate",
                });
            }
        }
        self.to_config(trial_seed).validate()
    }

    fn emit<S: Sink>(&self, s: &mut S) {
        s.key("cca").str(self.cca.name());
        match self.arrival {
            ArrivalSpec::Poisson { rate_per_sec } => s.opt_key("poisson_per_sec").f64(rate_per_sec),
            ArrivalSpec::Deterministic { interval_s } => s.opt_key("interval_s").f64(interval_s),
        }
        match self.size {
            SizeSpec::Fixed { bytes } => s.opt_key("fixed_bytes").u64(bytes),
            SizeSpec::Pareto {
                alpha,
                min_bytes,
                max_bytes,
            } => {
                s.opt_key("pareto_alpha").f64(alpha);
                s.key("min_bytes").u64(min_bytes);
                s.key("max_bytes").u64(max_bytes);
            }
        }
        s.key("rtt_ms").f64(self.rtt_ms);
    }

    fn read(r: &mut Reader<'_>) -> Result<Field<Self>, ParseError> {
        let (mut cca, mut rtt_ms, mut poisson, mut interval) = (None, None, None, None);
        let (mut fixed, mut alpha, mut min_bytes, mut max_bytes) = (None, None, None, None);
        r.object(|r, key| {
            match key {
                "cca" => cca = r.str()?,
                "poisson_per_sec" => poisson = r.f64()?,
                "interval_s" => interval = r.f64()?,
                "fixed_bytes" => fixed = r.u64()?,
                "pareto_alpha" => alpha = r.f64()?,
                "min_bytes" => min_bytes = r.u64()?,
                "max_bytes" => max_bytes = r.u64()?,
                "rtt_ms" => rtt_ms = r.f64()?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok((|| {
            let cca_name = cca.ok_or("workload missing 'cca'")?;
            let cca = cca_from_name(&cca_name)
                .ok_or_else(|| format!("unknown workload cca '{cca_name}'"))?;
            // A Poisson rate wins over an interval, a fixed size over a
            // Pareto one.
            let arrival = match (poisson, interval) {
                (Some(rate_per_sec), _) => ArrivalSpec::Poisson { rate_per_sec },
                (None, Some(interval_s)) => ArrivalSpec::Deterministic { interval_s },
                (None, None) => return Err("workload missing arrival process".to_string()),
            };
            let size = match (fixed, alpha) {
                (Some(bytes), _) => SizeSpec::Fixed { bytes },
                (None, Some(alpha)) => SizeSpec::Pareto {
                    alpha,
                    min_bytes: min_bytes.ok_or("workload pareto missing 'min_bytes'")?,
                    max_bytes: max_bytes.ok_or("workload pareto missing 'max_bytes'")?,
                },
                (None, None) => return Err("workload missing size model".to_string()),
            };
            Ok(WorkloadSpec {
                cca,
                arrival,
                size,
                rtt_ms: rtt_ms.ok_or("workload missing 'rtt_ms'")?,
            })
        })())
    }
}

/// One directed link of a scenario-level topology, in paper units
/// (Mbps / ms / BDP multiples). Endpoints are node *names*, resolved to
/// indices when the spec is lowered to the simulator's
/// [`bbrdom_netsim::Topology`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopoLinkSpec {
    /// Source node name (must appear in [`TopologySpec::nodes`]).
    pub from: String,
    /// Destination node name.
    pub to: String,
    /// `Some(mbps)` makes this a rated link (it owns a queue and
    /// serializes packets); `None` makes it a delay-only wire.
    pub mbps: Option<f64>,
    /// One-way propagation delay, milliseconds.
    pub delay_ms: f64,
    /// Queue capacity in BDP multiples of (own rate × the scenario's
    /// reference RTT); ignored for delay-only wires.
    pub buffer_bdp: f64,
}

impl TopoLinkSpec {
    /// A rated (serializing) link.
    pub fn rated(from: &str, to: &str, mbps: f64, delay_ms: f64, buffer_bdp: f64) -> Self {
        TopoLinkSpec {
            from: from.to_string(),
            to: to.to_string(),
            mbps: Some(mbps),
            delay_ms,
            buffer_bdp,
        }
    }

    /// A delay-only wire.
    pub fn wire(from: &str, to: &str, delay_ms: f64) -> Self {
        TopoLinkSpec {
            from: from.to_string(),
            to: to.to_string(),
            mbps: None,
            delay_ms,
            buffer_bdp: 0.0,
        }
    }
}

/// An explicit multi-bottleneck topology attached to a scenario: named
/// nodes, directed links, and static routes (ordered link-index lists).
/// Serializable mirror of [`bbrdom_netsim::Topology`] in the paper's
/// units; [`TopologySpec::lower`] validates everything up front and
/// returns typed [`ConfigError::InvalidTopology`] errors instead of
/// panicking.
///
/// A scenario without a topology (the default) runs the implicit
/// dumbbell; [`TopologySpec::dumbbell`] spells it out explicitly, which
/// the `topology_equivalence` suite proves bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Node names; link endpoints refer to these.
    pub nodes: Vec<String>,
    /// The directed links.
    pub links: Vec<TopoLinkSpec>,
    /// Routes, each an ordered list of link indices forming a connected
    /// forward path.
    pub routes: Vec<Vec<usize>>,
    /// Route of configured flow `i`. Empty means every flow follows
    /// route `0`; when non-empty its length must equal the flow count.
    pub flow_routes: Vec<usize>,
    /// Route taken by open-loop workload flows (`None` rejects workload
    /// configs with a typed error).
    pub workload_route: Option<usize>,
    /// Rated link targeted by link-level faults (`None` targets the
    /// first rated link of route `0`).
    pub fault_link: Option<usize>,
}

impl TopologySpec {
    /// The dumbbell as an explicit 4-node / 3-link topology: zero-delay
    /// access wire, the rated bottleneck, zero-delay egress wire. Lowers
    /// to exactly what the simulator builds for a scenario without a
    /// topology, so runs are bit-identical to the implicit dumbbell
    /// (only the content hash differs).
    pub fn dumbbell(mbps: f64, buffer_bdp: f64) -> Self {
        TopologySpec {
            nodes: vec![
                "src".to_string(),
                "in".to_string(),
                "out".to_string(),
                "dst".to_string(),
            ],
            links: vec![
                TopoLinkSpec::wire("src", "in", 0.0),
                TopoLinkSpec::rated("in", "out", mbps, 0.0, buffer_bdp),
                TopoLinkSpec::wire("out", "dst", 0.0),
            ],
            routes: vec![vec![0, 1, 2]],
            flow_routes: Vec::new(),
            workload_route: Some(0),
            fault_link: None,
        }
    }

    /// A parking-lot chain of `hops` equal bottlenecks in series. Route
    /// `0` traverses the whole chain; route `1 + h` covers only hop `h`,
    /// for cross-traffic that shares just that bottleneck with the long
    /// flows.
    pub fn parking_lot(hops: u32, mbps: f64, per_hop_delay_ms: f64, buffer_bdp: f64) -> Self {
        let nodes: Vec<String> = (0..=hops).map(|i| format!("n{i}")).collect();
        let links = (0..hops as usize)
            .map(|h| {
                TopoLinkSpec::rated(&nodes[h], &nodes[h + 1], mbps, per_hop_delay_ms, buffer_bdp)
            })
            .collect();
        let mut routes = vec![(0..hops as usize).collect::<Vec<usize>>()];
        routes.extend((0..hops as usize).map(|h| vec![h]));
        TopologySpec {
            nodes,
            links,
            routes,
            flow_routes: Vec::new(),
            workload_route: Some(0),
            fault_link: None,
        }
    }

    /// Validate and lower to the simulator's [`bbrdom_netsim::Topology`].
    /// `ref_rtt` is the scenario's reference RTT, used for the same
    /// BDP-to-bytes buffer lowering the implicit dumbbell applies
    /// ([`bbrdom_netsim::units::buffer_bytes`]), so an explicit dumbbell
    /// gets a bit-identical buffer.
    pub fn lower(&self, ref_rtt: SimDuration) -> Result<bbrdom_netsim::Topology, ConfigError> {
        let bad = |reason: String| ConfigError::InvalidTopology { reason };
        let mut index = std::collections::HashMap::new();
        for (i, name) in self.nodes.iter().enumerate() {
            if index.insert(name.as_str(), i as u32).is_some() {
                return Err(bad(format!("duplicate node name '{name}'")));
            }
        }
        let mut links = Vec::with_capacity(self.links.len());
        for (i, l) in self.links.iter().enumerate() {
            let node = |name: &str| {
                index
                    .get(name)
                    .copied()
                    .ok_or_else(|| bad(format!("link {i} references unknown node '{name}'")))
            };
            let from = node(&l.from)?;
            let to = node(&l.to)?;
            if !l.delay_ms.is_finite() || l.delay_ms < 0.0 {
                return Err(bad(format!("link {i} delay_ms must be finite and >= 0")));
            }
            let delay = SimDuration::from_secs_f64(l.delay_ms / 1e3);
            links.push(match l.mbps {
                None => bbrdom_netsim::LinkSpec::wire(from, to, delay),
                Some(mbps) => {
                    // Screen before Rate::from_mbps, which asserts > 0.
                    if !mbps.is_finite() || mbps <= 0.0 {
                        return Err(bad(format!("link {i} mbps must be positive and finite")));
                    }
                    if !l.buffer_bdp.is_finite() || l.buffer_bdp <= 0.0 {
                        return Err(bad(format!(
                            "link {i} buffer_bdp must be positive and finite"
                        )));
                    }
                    let rate = Rate::from_mbps(mbps);
                    let buffer = bbrdom_netsim::units::buffer_bytes(rate, ref_rtt, l.buffer_bdp);
                    bbrdom_netsim::LinkSpec::rated(from, to, rate, delay, buffer)
                }
            });
        }
        let topo = bbrdom_netsim::Topology {
            n_nodes: self.nodes.len() as u32,
            links,
            routes: self
                .routes
                .iter()
                .map(|r| r.iter().map(|&l| l as u32).collect())
                .collect(),
            flow_routes: self.flow_routes.iter().map(|&r| r as u32).collect(),
            workload_route: self.workload_route.map(|r| r as u32),
            fault_link: self.fault_link.map(|l| l as u32),
        };
        topo.validate()?;
        Ok(topo)
    }

    fn emit<S: Sink>(&self, s: &mut S) {
        let indices = |s: &mut S, xs: &[usize]| s.array(xs, |s, &x| s.u64(x as u64));
        s.key("nodes").array(&self.nodes, |s, n| s.str(n));
        s.key("links")
            .array(&self.links, |s, l| s.object(|s| l.emit(s)));
        s.key("routes").array(&self.routes, |s, r| indices(s, r));
        if !self.flow_routes.is_empty() {
            indices(s.opt_key("flow_routes"), &self.flow_routes);
        }
        if let Some(wr) = self.workload_route {
            s.opt_key("workload_route").u64(wr as u64);
        }
        if let Some(fl) = self.fault_link {
            s.opt_key("fault_link").u64(fl as u64);
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Field<Self>, ParseError> {
        /// A list of link or route indices; `None` when not an array.
        fn indices(
            r: &mut Reader<'_>,
            what: &str,
        ) -> Result<Option<Field<Vec<usize>>>, ParseError> {
            r.array_of(|r| {
                Ok(r.u64()?
                    .map(|n| n as usize)
                    .ok_or_else(|| format!("non-integer entry in {what}")))
            })
        }
        let (mut nodes, mut links, mut routes) = (None, None, None);
        let (mut flow_routes, mut workload_route, mut fault_link) = (None, None, None);
        r.object(|r, key| {
            match key {
                "nodes" => {
                    nodes = r.array_of(|r| {
                        Ok(r.str()?
                            .map(Cow::into_owned)
                            .ok_or_else(|| "non-string node name".to_string()))
                    })?
                }
                "links" => links = r.array_of(TopoLinkSpec::read)?,
                "routes" => {
                    routes = r.array_of(|r| {
                        Ok(indices(r, "topology route")?
                            .unwrap_or_else(|| Err("topology route must be an array".into())))
                    })?
                }
                "flow_routes" => {
                    flow_routes = Some(
                        indices(r, "topology flow_routes")?
                            .unwrap_or_else(|| Err("topology flow_routes must be an array".into())),
                    )
                }
                "workload_route" => workload_route = r.u64()?,
                "fault_link" => fault_link = r.u64()?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok((|| {
            Ok(TopologySpec {
                nodes: nodes.ok_or("topology missing 'nodes'")??,
                links: links.ok_or("topology missing 'links'")??,
                routes: routes.ok_or("topology missing 'routes'")??,
                flow_routes: flow_routes.unwrap_or(Ok(Vec::new()))?,
                workload_route: workload_route.map(|r| r as usize),
                fault_link: fault_link.map(|l| l as usize),
            })
        })())
    }
}

impl TopoLinkSpec {
    fn emit<S: Sink>(&self, s: &mut S) {
        s.key("from").str(&self.from);
        s.key("to").str(&self.to);
        if let Some(mbps) = self.mbps {
            s.opt_key("mbps").f64(mbps);
        }
        s.key("delay_ms").f64(self.delay_ms);
        s.key("buffer_bdp").f64(self.buffer_bdp);
    }

    fn read(r: &mut Reader<'_>) -> Result<Field<Self>, ParseError> {
        let (mut from, mut to, mut mbps, mut delay_ms, mut buffer_bdp) =
            (None, None, None, None, None);
        r.object(|r, key| {
            match key {
                "from" => from = r.str()?,
                "to" => to = r.str()?,
                "mbps" => mbps = r.f64()?,
                "delay_ms" => delay_ms = r.f64()?,
                "buffer_bdp" => buffer_bdp = r.f64()?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let name = |slot: Option<Cow<'_, str>>, key: &str| {
            slot.map(Cow::into_owned)
                .ok_or_else(|| format!("topology link missing '{key}'"))
        };
        Ok((|| {
            Ok(TopoLinkSpec {
                from: name(from, "from")?,
                to: name(to, "to")?,
                mbps,
                delay_ms: delay_ms.ok_or("topology link missing 'delay_ms'")?,
                buffer_bdp: buffer_bdp.unwrap_or(0.0),
            })
        })())
    }
}

/// Which simulation backend executes a scenario.
///
/// * [`BackendSpec::Des`] — the packet-level discrete-event simulator
///   (`bbrdom-netsim`): the ground truth, faithful to per-packet loss,
///   retransmission, and queue microstructure. Seconds per run.
/// * [`BackendSpec::Fluid`] — the `bbrdom-fluid` ODE aggregate model:
///   steady-state throughput shares only, microseconds per run, valid
///   for drop-tail + clean-path + backlogged CUBIC/NewReno/BBR/BBRv2
///   scenarios (anything else is rejected with
///   [`ConfigError::Unsupported`]).
///
/// The backend is part of a scenario's *identity*: it feeds the JSON
/// serialization and the engine's content hash, so a fluid result can
/// never alias a DES result in the cache.
///
/// ```
/// use bbrdom_experiments::scenario::BackendSpec;
/// assert_eq!(BackendSpec::from_name("fluid"), Some(BackendSpec::Fluid));
/// assert_eq!(BackendSpec::Fluid.name(), "fluid");
/// assert_eq!(BackendSpec::default(), BackendSpec::Des);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendSpec {
    /// Packet-level discrete-event simulation (the default).
    #[default]
    Des,
    /// Fluid/ODE aggregate model (fast, envelope-restricted).
    Fluid,
}

impl BackendSpec {
    /// Wire name used by `--backend` and the JSON serialization.
    pub fn name(self) -> &'static str {
        match self {
            BackendSpec::Des => "des",
            BackendSpec::Fluid => "fluid",
        }
    }

    /// Inverse of [`BackendSpec::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "des" => Some(BackendSpec::Des),
            "fluid" => Some(BackendSpec::Fluid),
            _ => None,
        }
    }
}

/// A complete, runnable experiment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Bottleneck rate, Mbps.
    pub mbps: f64,
    /// Buffer size in BDP multiples of the *reference RTT*.
    pub buffer_bdp: f64,
    /// Reference RTT (ms) used for the BDP normalization. For same-RTT
    /// scenarios this equals every flow's RTT; for multi-RTT scenarios
    /// the paper normalizes by the shortest RTT.
    pub reference_rtt_ms: f64,
    /// The flows.
    pub flows: Vec<FlowSpec>,
    /// Simulated seconds.
    pub duration_secs: f64,
    /// Trial seed: start-time jitter and per-flow CCA phase seeds.
    pub seed: u64,
    /// Bottleneck queue discipline (default drop-tail, as in the paper).
    pub discipline: DisciplineSpec,
    /// Path impairments (default: none — the paper's clean testbed).
    pub faults: FaultSpec,
    /// Which simulator executes the scenario (default: the packet DES).
    pub backend: BackendSpec,
    /// Opt-in open-loop background workload (default: none — only the
    /// declared flows run, bit-identical to historical behavior).
    pub workload: Option<WorkloadSpec>,
    /// Opt-in explicit multi-bottleneck topology (default: none — the
    /// implicit dumbbell, bit-identical to historical behavior).
    pub topology: Option<TopologySpec>,
}

/// Measurements from one run.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Per-flow throughput, Mbps (same order as `Scenario::flows`).
    pub throughput_mbps: Vec<f64>,
    /// Per-flow CC names.
    pub cc_names: Vec<String>,
    /// Per-flow average bottleneck-buffer occupancy, bytes.
    pub avg_queue_occupancy_bytes: Vec<f64>,
    /// Per-flow congestion-event (back-off) timestamps, seconds.
    pub backoff_times_secs: Vec<Vec<f64>>,
    /// Average queuing delay, milliseconds.
    pub avg_queuing_delay_ms: f64,
    /// Link utilization over the measurement window.
    pub utilization: f64,
    /// Total drops at the bottleneck.
    pub dropped_packets: u64,
    /// Drops made by the AQM (RED/CoDel), if any.
    pub aqm_drops: u64,
    /// Per-flow completion time, seconds from flow start (finite flows
    /// that completed only).
    pub completion_times_secs: Vec<Option<f64>>,
    /// Open-loop workload flows spawned (0 when no workload is attached).
    pub workload_spawned: u64,
    /// Workload flows that delivered their full size in time.
    pub workload_completed: u64,
    /// Per-CCA FCT percentiles of the completed workload flows.
    pub workload_fct: Vec<bbrdom_netsim::FctPercentiles>,
}

impl Scenario {
    /// A same-RTT scenario with `n_cubic` CUBIC flows and `n_x` flows of
    /// algorithm `x` — the shape of most of the paper's experiments.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
    pub fn versus(
        mbps: f64,
        rtt_ms: f64,
        buffer_bdp: f64,
        n_cubic: u32,
        x: CcaKind,
        n_x: u32,
        duration_secs: f64,
        seed: u64,
    ) -> Self {
        let mut flows = Vec::with_capacity((n_cubic + n_x) as usize);
        for _ in 0..n_cubic {
            flows.push(FlowSpec::long(CcaKind::Cubic, rtt_ms));
        }
        for _ in 0..n_x {
            flows.push(FlowSpec::long(x, rtt_ms));
        }
        Scenario {
            mbps,
            buffer_bdp,
            reference_rtt_ms: rtt_ms,
            flows,
            duration_secs,
            seed,
            discipline: DisciplineSpec::DropTail,
            faults: FaultSpec::default(),
            backend: BackendSpec::Des,
            workload: None,
            topology: None,
        }
    }

    /// Replace the bottleneck discipline.
    pub fn with_discipline(mut self, d: DisciplineSpec) -> Self {
        self.discipline = d;
        self
    }

    /// Attach path impairments.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Select the simulation backend.
    ///
    /// ```
    /// use bbrdom_cca::CcaKind;
    /// use bbrdom_experiments::scenario::{BackendSpec, Scenario};
    ///
    /// let fluid = Scenario::versus(50.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 10.0, 1)
    ///     .with_backend(BackendSpec::Fluid);
    /// let r = fluid.run(); // microseconds, not seconds
    /// assert_eq!(r.throughput_mbps.len(), 2);
    /// assert!(r.total_throughput() > 0.5 * 50.0);
    /// ```
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Attach (or detach) an open-loop background workload.
    pub fn with_workload(mut self, workload: Option<WorkloadSpec>) -> Self {
        self.workload = workload;
        self
    }

    /// Attach (or detach) an explicit multi-bottleneck topology.
    pub fn with_topology(mut self, topology: Option<TopologySpec>) -> Self {
        self.topology = topology;
        self
    }

    /// Validate the scenario without running it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.flows.is_empty() && self.workload.is_none() {
            return Err(ConfigError::NoFlows);
        }
        for (name, v) in [
            ("mbps", self.mbps),
            ("buffer_bdp", self.buffer_bdp),
            ("reference_rtt_ms", self.reference_rtt_ms),
            ("duration_secs", self.duration_secs),
        ] {
            if !v.is_finite() {
                return Err(ConfigError::NonFinite { field: name });
            }
            if v <= 0.0 {
                return Err(ConfigError::NonPositive { field: name });
            }
        }
        for f in &self.flows {
            if !f.rtt_ms.is_finite() || f.rtt_ms <= 0.0 {
                return Err(ConfigError::NonPositive {
                    field: "flow rtt_ms",
                });
            }
            if !f.start_s.is_finite() || f.start_s < 0.0 {
                return Err(ConfigError::NonFinite {
                    field: "flow start_s",
                });
            }
            if f.byte_limit == Some(0) {
                return Err(ConfigError::NonPositive {
                    field: "flow byte_limit",
                });
            }
        }
        if let Some(wl) = &self.workload {
            wl.validate(self.seed)?;
        }
        if let Some(t) = &self.topology {
            t.lower(SimDuration::from_secs_f64(self.reference_rtt_ms / 1e3))?;
            if !t.flow_routes.is_empty() && t.flow_routes.len() != self.flows.len() {
                return Err(ConfigError::InvalidTopology {
                    reason: format!(
                        "flow_routes has {} entries for {} flows",
                        t.flow_routes.len(),
                        self.flows.len()
                    ),
                });
            }
            if self.workload.is_some() && t.workload_route.is_none() {
                return Err(ConfigError::InvalidTopology {
                    reason: "an open-loop workload needs workload_route".into(),
                });
            }
        }
        self.faults.check_lowerable()?;
        self.faults.to_schedule(self.seed).validate()
    }

    /// Number of flows running `cca`.
    pub fn count_of(&self, cca: CcaKind) -> usize {
        self.flows.iter().filter(|f| f.cca == cca).count()
    }

    /// Build the configured simulator without running it. Exposed so the
    /// golden-seed regression harness (and any tool that wants the raw
    /// [`bbrdom_netsim::SimReport`]) shares the exact flow/jitter/seed
    /// wiring that [`Scenario::run`] uses.
    pub fn build_simulator(&self) -> Simulator {
        assert!(
            !self.flows.is_empty() || self.workload.is_some(),
            "scenario needs flows"
        );
        self.try_build_simulator(None, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Scenario::build_simulator`]. The two arguments are
    /// placeholders that select nothing (`Some` cannot be built): they
    /// stay only because e2ebench calls `try_build_simulator(None, None)`,
    /// and the benchmark-only change (ROADMAP, "One benchmark-only
    /// change") deletes them.
    pub fn try_build_simulator(
        &self,
        _: Option<std::convert::Infallible>,
        _: Option<std::convert::Infallible>,
    ) -> Result<Simulator, ConfigError> {
        self.validate()?;
        let rate = Rate::from_mbps(self.mbps);
        let ref_rtt = SimDuration::from_secs_f64(self.reference_rtt_ms / 1e3);
        let buffer = bbrdom_netsim::units::buffer_bytes(rate, ref_rtt, self.buffer_bdp);
        let mut cfg = SimConfig::new(rate, buffer, SimDuration::from_secs_f64(self.duration_secs))
            .with_discipline(self.discipline.to_discipline(buffer))
            // 100 µs of ACK-path timing noise: real hosts are never
            // phase-locked; without this a deterministic simulator drops only
            // the growing flow's marginal packets and inverts TCP's RTT bias
            // (see `SimConfig::ack_jitter`).
            .with_ack_jitter(SimDuration::from_micros(100), self.seed)
            .with_faults(self.faults.to_schedule(self.seed));
        if let Some(wl) = self.workload {
            cfg = cfg.with_workload(wl.to_config(self.seed));
        }
        if let Some(t) = &self.topology {
            cfg = cfg.with_topology(t.lower(ref_rtt)?);
        }
        let mut sim = Simulator::try_new(cfg)?;
        if let Some(wl) = self.workload {
            let kind = wl.cca;
            let seed = self.seed;
            // Per-spawn CCA phase seeds, derived through the stable hash
            // (the static flows below use `seed*1000 + i`; the hash keeps
            // the two families disjoint for every spawn index).
            sim.set_workload_cc(Box::new(move |spawn| {
                let mut h = StableHasher::new();
                h.write_bytes(b"workload-cca");
                seed.stable_hash(&mut h);
                spawn.stable_hash(&mut h);
                kind.build(h.finish() as u64)
            }));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        for (i, f) in self.flows.iter().enumerate() {
            let kind = f.cca;
            // Per-flow phase seed: decorrelates BBR gain-cycle phases and
            // BBRv2 probe spacing across flows and across trials.
            let cca_seed = self.seed.wrapping_mul(1000).wrapping_add(i as u64);
            let cc = kind.build(cca_seed);
            let rtt = SimDuration::from_secs_f64(f.rtt_ms / 1e3);
            // The paper starts all flows simultaneously; we jitter within
            // one reference RTT so "simultaneous" trials still differ by
            // seed (the testbed's natural noise).
            let jitter = rng.gen_range(0.0..ref_rtt.as_secs_f64().max(1e-6));
            let mut fc =
                FlowConfig::new(cc, rtt).starting_at(SimTime::from_secs_f64(f.start_s + jitter));
            if let Some(limit) = f.byte_limit {
                fc = fc.with_byte_limit(limit);
            }
            sim.add_flow(fc);
        }
        Ok(sim)
    }

    /// Run the scenario through the simulator, panicking on error (the
    /// legacy interface; see [`Scenario::try_report`]).
    pub fn run(&self) -> TrialResult {
        assert!(
            !self.flows.is_empty() || self.workload.is_some(),
            "scenario needs flows"
        );
        TrialResult::from_report(&self.try_report().unwrap_or_else(|e| panic!("{e}")))
    }

    /// Run the scenario to its horizon on its backend and return the raw
    /// simulator report, from which [`TrialResult`]s are derived. Returns
    /// a structured error instead of panicking when the configuration is
    /// invalid or (with auditing on) a simulator invariant is violated.
    pub fn try_report(&self) -> Result<bbrdom_netsim::SimReport, SimError> {
        match self.backend {
            BackendSpec::Des => self.try_build_simulator(None, None)?.try_run(),
            BackendSpec::Fluid => crate::fluid_backend::run_fluid(self),
        }
    }
}

impl FlowSpec {
    fn emit<S: Sink>(&self, s: &mut S) {
        s.key("cca").str(self.cca.name());
        s.key("rtt_ms").f64(self.rtt_ms);
        s.key("start_s").f64(self.start_s);
        s.key("byte_limit").opt_u64(self.byte_limit);
    }

    fn read(r: &mut Reader<'_>) -> Result<Field<Self>, ParseError> {
        let (mut cca, mut rtt_ms, mut start_s, mut byte_limit) = (None, None, None, None);
        r.object(|r, key| {
            match key {
                "cca" => cca = r.str()?,
                "rtt_ms" => rtt_ms = r.f64()?,
                "start_s" => start_s = r.f64()?,
                "byte_limit" => byte_limit = r.u64()?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok((|| {
            let cca_name = cca.ok_or("flow missing 'cca'")?;
            Ok(FlowSpec {
                cca: cca_from_name(&cca_name).ok_or_else(|| format!("unknown cca '{cca_name}'"))?,
                rtt_ms: rtt_ms.ok_or("flow missing 'rtt_ms'")?,
                start_s: start_s.unwrap_or(0.0),
                byte_limit,
            })
        })())
    }
}

impl Scenario {
    /// Serialize to a compact JSON string (inverse of
    /// [`Scenario::from_json`]). Floats round-trip bit-exactly, so a
    /// stored scenario reproduces its trial bit-for-bit.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Serialize as a JSON [`Value`], for embedding inside a larger
    /// document (an index line). Read back with [`Scenario::read`].
    pub fn to_json_value(&self) -> Value {
        Tree::build(Value::object(), |t| self.emit(t))
    }

    /// Write every field into `s`: the one field list behind both the
    /// index line and the cache key. Defaults the reader restores (no
    /// faults, the DES, no workload, no topology) are left out.
    pub(crate) fn emit<S: Sink>(&self, s: &mut S) {
        s.key("mbps").f64(self.mbps);
        s.key("buffer_bdp").f64(self.buffer_bdp);
        s.key("reference_rtt_ms").f64(self.reference_rtt_ms);
        s.key("flows")
            .array(&self.flows, |s, f| s.object(|s| f.emit(s)));
        s.key("duration_secs").f64(self.duration_secs);
        s.key("seed").u64(self.seed);
        s.key("discipline").str(self.discipline.name());
        if !self.faults.is_noop() {
            s.opt_key("faults").object(|s| self.faults.emit(s));
        }
        if self.backend != BackendSpec::Des {
            s.opt_key("backend").str(self.backend.name());
        }
        if let Some(wl) = &self.workload {
            s.opt_key("workload").object(|s| wl.emit(s));
        }
        if let Some(t) = &self.topology {
            s.opt_key("topology").object(|s| t.emit(s));
        }
    }

    /// Parse a scenario serialized with [`Scenario::to_json`].
    /// `start_s`, `byte_limit`, and `discipline` may be omitted.
    pub fn from_json(text: &str) -> Result<Self, String> {
        Reader::document(text, Scenario::read).map_err(|e| e.to_string())?
    }

    /// Read a scenario off a JSON reader (inverse of
    /// [`Scenario::to_json_value`]): the one field reader of this type.
    /// Unknown keys are ignored, a repeated key's last value wins, and a
    /// field of the wrong type reads as absent. An `early_stop` member
    /// fails the field.
    pub fn read(r: &mut Reader<'_>) -> Result<Field<Self>, ParseError> {
        let (mut mbps, mut buffer_bdp, mut reference_rtt_ms) = (None, None, None);
        let (mut flows, mut duration_secs, mut seed) = (None, None, None);
        let (mut discipline, mut faults, mut early_stop) = (None, None, false);
        let (mut backend, mut workload, mut topology) = (None, None, None);
        r.object(|r, key| {
            match key {
                "mbps" => mbps = r.f64()?,
                "buffer_bdp" => buffer_bdp = r.f64()?,
                "reference_rtt_ms" => reference_rtt_ms = r.f64()?,
                "flows" => flows = r.array_of(FlowSpec::read)?,
                "duration_secs" => duration_secs = r.f64()?,
                "seed" => seed = r.u64()?,
                "discipline" => discipline = r.str()?,
                "faults" => faults = Some(FaultSpec::read(r)?),
                "early_stop" => {
                    r.skip()?;
                    early_stop = true;
                }
                "backend" => backend = r.str()?,
                "workload" => workload = Some(WorkloadSpec::read(r)?),
                "topology" => topology = Some(TopologySpec::read(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok((|| {
            // Index lines written by the deleted `--early-stop` option
            // hold runs cut short of `duration_secs`; reading one as a
            // fixed-horizon scenario would pass its numbers off as such.
            if early_stop {
                return Err("early-stopped scenarios are no longer supported".into());
            }
            let flows = flows.ok_or("scenario missing 'flows'")??;
            let field = |slot: Option<f64>, name: &str| {
                slot.ok_or_else(|| format!("scenario missing '{name}'"))
            };
            let discipline = match discipline {
                None => DisciplineSpec::DropTail,
                Some(name) => DisciplineSpec::from_name(&name)
                    .ok_or_else(|| format!("unknown discipline '{name}'"))?,
            };
            let faults = faults.unwrap_or(Ok(FaultSpec::default()))?;
            let backend = match backend {
                None => BackendSpec::Des,
                Some(name) => BackendSpec::from_name(&name)
                    .ok_or_else(|| format!("unknown backend '{name}'"))?,
            };
            let workload = workload.transpose()?;
            let topology = topology.transpose()?;
            Ok(Scenario {
                mbps: field(mbps, "mbps")?,
                buffer_bdp: field(buffer_bdp, "buffer_bdp")?,
                reference_rtt_ms: field(reference_rtt_ms, "reference_rtt_ms")?,
                flows,
                duration_secs: field(duration_secs, "duration_secs")?,
                seed: seed.ok_or("scenario missing 'seed'")?,
                discipline,
                faults,
                backend,
                workload,
                topology,
            })
        })())
    }
}

impl TrialResult {
    /// The measurements a figure consumes, extracted from a raw
    /// simulator report (live or cached).
    pub fn from_report(report: &bbrdom_netsim::SimReport) -> Self {
        TrialResult {
            throughput_mbps: report.flows.iter().map(|f| f.throughput_mbps()).collect(),
            cc_names: report.flows.iter().map(|f| f.cc_name.clone()).collect(),
            avg_queue_occupancy_bytes: report
                .flows
                .iter()
                .map(|f| f.avg_queue_occupancy_bytes)
                .collect(),
            backoff_times_secs: report
                .flows
                .iter()
                .map(|f| f.backoff_times_secs.clone())
                .collect(),
            avg_queuing_delay_ms: report.queue.avg_queuing_delay_secs * 1e3,
            utilization: report.queue.utilization,
            dropped_packets: report.queue.dropped_packets,
            aqm_drops: report.queue.aqm_drops,
            completion_times_secs: report
                .flows
                .iter()
                .map(|f| f.completion_time_secs)
                .collect(),
            workload_spawned: report.workload_spawned,
            workload_completed: report.workload_completed,
            workload_fct: report.workload_fct.clone(),
        }
    }

    /// Mean throughput (Mbps) over flows whose CC name matches.
    pub fn mean_throughput_of(&self, cc_name: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .cc_names
            .iter()
            .zip(&self.throughput_mbps)
            .filter(|(n, _)| n.as_str() == cc_name)
            .map(|(_, t)| *t)
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }

    /// Mean throughput (Mbps) over the *first* `n` flows whose CC name
    /// matches. The multi-bottleneck experiments append cross-traffic
    /// flows after the game's own `n` long flows; the cross traffic runs
    /// CUBIC too, so [`TrialResult::mean_throughput_of`] would fold it
    /// into the payoffs. This restriction keeps the game's payoffs to
    /// the game's players.
    pub fn mean_throughput_of_first(&self, n: usize, cc_name: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .cc_names
            .iter()
            .zip(&self.throughput_mbps)
            .take(n)
            .filter(|(name, _)| name.as_str() == cc_name)
            .map(|(_, t)| *t)
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }

    /// Aggregate throughput (Mbps) over flows whose CC name matches.
    pub fn total_throughput_of(&self, cc_name: &str) -> f64 {
        self.cc_names
            .iter()
            .zip(&self.throughput_mbps)
            .filter(|(n, _)| n.as_str() == cc_name)
            .map(|(_, t)| *t)
            .sum()
    }

    /// Total throughput of all flows, Mbps.
    pub fn total_throughput(&self) -> f64 {
        self.throughput_mbps.iter().sum()
    }

    /// Serialize for the result store's index lines
    /// (inverse of [`TrialResult::read`]). Floats round-trip
    /// bit-exactly, so store-served sweeps reproduce the original numbers.
    pub fn to_json_value(&self) -> Value {
        let f64s = |xs: &[f64]| Value::Array(xs.iter().map(|&x| x.into()).collect());
        let mut v = Value::object();
        v.set("throughput_mbps", f64s(&self.throughput_mbps))
            .set(
                "cc_names",
                Value::Array(
                    self.cc_names
                        .iter()
                        .map(|n| Value::Str(n.clone()))
                        .collect(),
                ),
            )
            .set(
                "avg_queue_occupancy_bytes",
                f64s(&self.avg_queue_occupancy_bytes),
            )
            .set(
                "backoff_times_secs",
                Value::Array(self.backoff_times_secs.iter().map(|xs| f64s(xs)).collect()),
            )
            .set("avg_queuing_delay_ms", self.avg_queuing_delay_ms.into())
            .set("utilization", self.utilization.into())
            .set("dropped_packets", Value::U64(self.dropped_packets))
            .set("aqm_drops", Value::U64(self.aqm_drops))
            .set(
                "completion_times_secs",
                Value::Array(
                    self.completion_times_secs
                        .iter()
                        .map(|c| match c {
                            Some(t) if t.is_finite() => Value::F64(*t),
                            // `null` means "never completed": a non-finite
                            // time must not read back as that, so it is
                            // written as a value the reader rejects.
                            Some(_) => Value::Str("non-finite".into()),
                            None => Value::Null,
                        })
                        .collect(),
                ),
            );
        // Workload aggregates only appear when a workload ran, keeping
        // every pre-existing index line byte-identical.
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

    /// Parse a result serialized with [`TrialResult::to_json_value`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        Reader::document(text, TrialResult::read).map_err(|e| e.to_string())?
    }

    /// Read a result off a JSON reader: the one field reader of this
    /// type. Unknown keys are ignored and a repeated key's last value
    /// wins.
    pub fn read(r: &mut Reader<'_>) -> Result<Field<Self>, ParseError> {
        let (mut throughput, mut cc_names, mut occupancy, mut backoffs) = (None, None, None, None);
        let (mut delay, mut utilization, mut dropped, mut aqm_drops) = (None, None, None, None);
        let (mut completions, mut spawned, mut completed) = (None, None, None);
        let mut fct = None;
        r.object(|r, key| {
            match key {
                "throughput_mbps" => throughput = r.f64s("'throughput_mbps'")?,
                "cc_names" => {
                    cc_names = r.array_of(|r| {
                        Ok(r.str()?
                            .map(Cow::into_owned)
                            .ok_or_else(|| "non-string cc name".to_string()))
                    })?
                }
                "avg_queue_occupancy_bytes" => occupancy = r.f64s("'avg_queue_occupancy_bytes'")?,
                "backoff_times_secs" => {
                    backoffs = r.array_of(|r| {
                        Ok(r.f64s("backoff time")?
                            .unwrap_or_else(|| Err("non-array backoff list".into())))
                    })?
                }
                "avg_queuing_delay_ms" => delay = r.f64()?,
                "utilization" => utilization = r.f64()?,
                "dropped_packets" => dropped = r.u64()?,
                "aqm_drops" => aqm_drops = r.u64()?,
                "completion_times_secs" => {
                    completions = r.array_of(|r| {
                        Ok(if r.peek()? == Kind::Null {
                            r.skip()?;
                            Ok(None)
                        } else {
                            r.f64()?
                                .map(Some)
                                .ok_or_else(|| "non-numeric completion time".to_string())
                        })
                    })?
                }
                "workload_spawned" => spawned = r.u64()?,
                "workload_completed" => completed = r.u64()?,
                "workload_fct" => {
                    fct = Some(
                        r.array_of(bbrdom_netsim::FctPercentiles::read)?
                            .unwrap_or_else(|| Err("'workload_fct' must be an array".into())),
                    )
                }
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let missing = |key: &str| format!("result missing '{key}'");
        Ok((|| {
            Ok(TrialResult {
                throughput_mbps: throughput.ok_or_else(|| missing("throughput_mbps"))??,
                cc_names: cc_names.ok_or_else(|| missing("cc_names"))??,
                avg_queue_occupancy_bytes: occupancy
                    .ok_or_else(|| missing("avg_queue_occupancy_bytes"))??,
                backoff_times_secs: backoffs.ok_or_else(|| missing("backoff_times_secs"))??,
                avg_queuing_delay_ms: delay.ok_or_else(|| missing("avg_queuing_delay_ms"))?,
                utilization: utilization.ok_or_else(|| missing("utilization"))?,
                dropped_packets: dropped.ok_or_else(|| missing("dropped_packets"))?,
                aqm_drops: aqm_drops.unwrap_or(0),
                completion_times_secs: completions
                    .ok_or_else(|| missing("completion_times_secs"))??,
                workload_spawned: spawned.unwrap_or(0),
                workload_completed: completed.unwrap_or(0),
                workload_fct: fct.unwrap_or(Ok(Vec::new()))?,
            })
        })())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versus_builds_expected_flow_list() {
        let s = Scenario::versus(100.0, 40.0, 3.0, 5, CcaKind::Bbr, 5, 10.0, 1);
        assert_eq!(s.flows.len(), 10);
        assert_eq!(s.count_of(CcaKind::Cubic), 5);
        assert_eq!(s.count_of(CcaKind::Bbr), 5);
    }

    #[test]
    fn same_seed_same_result() {
        let s = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 42);
        let a = s.run();
        let b = s.run();
        assert_eq!(a.throughput_mbps, b.throughput_mbps);
        assert_eq!(a.dropped_packets, b.dropped_packets);
    }

    #[test]
    fn different_seed_different_result() {
        let a = Scenario::versus(10.0, 20.0, 1.0, 1, CcaKind::Bbr, 1, 5.0, 1).run();
        let b = Scenario::versus(10.0, 20.0, 1.0, 1, CcaKind::Bbr, 1, 5.0, 2).run();
        // Throughputs are extremely unlikely to match bit-for-bit.
        assert_ne!(a.throughput_mbps, b.throughput_mbps);
    }

    #[test]
    fn result_accessors_aggregate_by_cc() {
        let s = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 7);
        let r = s.run();
        let cubic = r.mean_throughput_of("cubic").unwrap();
        let bbr = r.mean_throughput_of("bbr").unwrap();
        assert!(cubic > 0.0 && bbr > 0.0);
        assert!(r.mean_throughput_of("copa").is_none());
        assert!((r.total_throughput() - cubic - bbr).abs() < 1e-9);
    }

    #[test]
    fn scenario_roundtrips_through_json() {
        let mut s = Scenario::versus(100.0, 40.0, 3.0, 2, CcaKind::Vivace, 3, 10.0, u64::MAX - 17)
            .with_discipline(DisciplineSpec::Codel);
        s.flows[0].byte_limit = Some(50_000);
        s.flows[1].start_s = 2.5;
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back.flows.len(), 5);
        assert_eq!(back.count_of(CcaKind::Vivace), 3);
        assert_eq!(back.seed, u64::MAX - 17);
        assert_eq!(back.discipline, DisciplineSpec::Codel);
        assert_eq!(back.flows[0].byte_limit, Some(50_000));
        assert_eq!(back.flows[1].start_s, 2.5);
        assert_eq!(back.mbps.to_bits(), s.mbps.to_bits());
    }

    #[test]
    fn faults_roundtrip_through_json() {
        let mut s = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 3);
        s.faults = FaultSpec {
            loss_fwd: 0.01,
            loss_ack: 0.002,
            outages: vec![(2.0, 0.5)],
            rate_steps: vec![(1.0, 5.0), (3.0, 10.0)],
            delay_spikes: vec![(4.0, 0.25, 40.0)],
        };
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back.faults, s.faults);

        // A clean scenario omits the key and parses back to no-op faults.
        let clean = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 3);
        assert!(!clean.to_json().contains("faults"));
        assert!(Scenario::from_json(&clean.to_json())
            .unwrap()
            .faults
            .is_noop());
    }

    #[test]
    fn backend_spec_roundtrips_through_json() {
        let fluid = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 3)
            .with_backend(BackendSpec::Fluid);
        let back = Scenario::from_json(&fluid.to_json()).unwrap();
        assert_eq!(back.backend, BackendSpec::Fluid);

        // DES scenarios omit the key entirely: every pre-backend JSON
        // string stays byte-identical and parses to the DES default.
        let des = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 3);
        assert!(!des.to_json().contains("backend"));
        assert_eq!(
            Scenario::from_json(&des.to_json()).unwrap().backend,
            BackendSpec::Des
        );

        let bad = des
            .to_json()
            .replace("\"seed\"", "\"backend\":\"ns3\",\"seed\"");
        assert!(Scenario::from_json(&bad).unwrap_err().contains("ns3"));
    }

    #[test]
    fn fluid_backend_runs_and_matches_report_shape() {
        let s = Scenario::versus(50.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 10.0, 3)
            .with_backend(BackendSpec::Fluid);
        let a = s.run();
        let b = s.run();
        assert_eq!(
            a.throughput_mbps, b.throughput_mbps,
            "fluid is deterministic"
        );
        assert_eq!(a.cc_names, vec!["cubic".to_string(), "bbr".to_string()]);
        assert!(a.total_throughput() > 0.5 * 50.0);
        assert!(a.utilization > 0.5 && a.utilization <= 1.001);
    }

    #[test]
    fn fluid_backend_rejects_out_of_envelope_scenarios() {
        let base = || {
            Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 1)
                .with_backend(BackendSpec::Fluid)
        };
        let unsupported = |s: &Scenario| {
            let err = s.try_report().unwrap_err();
            assert!(
                err.to_string().contains("fluid backend does not support"),
                "{err}"
            );
        };

        unsupported(&base().with_discipline(DisciplineSpec::Codel));
        unsupported(&base().with_topology(Some(TopologySpec::dumbbell(10.0, 2.0))));

        let mut s = base();
        s.faults.loss_fwd = 0.01;
        unsupported(&s);

        let mut s = base();
        s.flows[0].byte_limit = Some(50_000);
        unsupported(&s);

        let s = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Copa, 1, 5.0, 1)
            .with_backend(BackendSpec::Fluid);
        unsupported(&s);
    }

    #[test]
    fn faulted_scenario_runs_and_counts_wire_loss() {
        let mut s = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Cubic, 1, 10.0, 5);
        s.faults.loss_fwd = 0.02;
        let clean = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Cubic, 1, 10.0, 5).run();
        let lossy = s.run();
        // 2% loss must hurt CUBIC's aggregate throughput.
        assert!(lossy.total_throughput() < clean.total_throughput());
    }

    #[test]
    fn validate_rejects_degenerate_scenarios() {
        let ok = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 1);
        assert!(ok.validate().is_ok());

        let mut s = ok.clone();
        s.flows.clear();
        assert!(s.validate().is_err());

        let mut s = ok.clone();
        s.mbps = f64::NAN;
        assert!(s.validate().is_err());

        let mut s = ok.clone();
        s.duration_secs = 0.0;
        assert!(s.validate().is_err());

        let mut s = ok.clone();
        s.flows[0].byte_limit = Some(0);
        assert!(s.validate().is_err());

        let mut s = ok.clone();
        s.faults.loss_fwd = 1.5;
        assert!(s.validate().is_err());

        // Fault fields the schedule's constructors assert on are screened
        // first: an error, not a panic.
        for faults in [
            FaultSpec {
                outages: vec![(-1.0, 0.5)],
                ..FaultSpec::default()
            },
            FaultSpec {
                outages: vec![(1.0, f64::NAN)],
                ..FaultSpec::default()
            },
            FaultSpec {
                rate_steps: vec![(1.0, 0.0)],
                ..FaultSpec::default()
            },
            FaultSpec {
                rate_steps: vec![(f64::NAN, 5.0)],
                ..FaultSpec::default()
            },
            FaultSpec {
                delay_spikes: vec![(1.0, 0.5, -2.0)],
                ..FaultSpec::default()
            },
        ] {
            let s = ok.clone().with_faults(faults);
            assert!(s.faults.check_lowerable().is_err());
            assert!(s.validate().is_err(), "{:?}", s.faults);
            assert!(s.try_report().is_err());
        }
    }

    #[test]
    fn trial_result_roundtrips_through_json() {
        let r = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 9).run();
        let back = TrialResult::from_json(&r.to_json_value().to_json()).unwrap();
        assert_eq!(back.throughput_mbps, r.throughput_mbps);
        assert_eq!(back.cc_names, r.cc_names);
        assert_eq!(back.backoff_times_secs, r.backoff_times_secs);
        assert_eq!(back.completion_times_secs, r.completion_times_secs);
        assert_eq!(back.dropped_packets, r.dropped_packets);
        assert_eq!(back.utilization.to_bits(), r.utilization.to_bits());
    }

    #[test]
    fn workload_spec_roundtrips_through_json() {
        let wl = WorkloadSpec::web(CcaKind::Cubic, 80.0, 30.0);
        let s =
            Scenario::versus(50.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 3).with_workload(Some(wl));
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back.workload, Some(wl));

        let fixed = WorkloadSpec::poisson_fixed(CcaKind::Bbr, 10.0, 30_000, 20.0);
        let s2 = s.clone().with_workload(Some(fixed));
        assert_eq!(
            Scenario::from_json(&s2.to_json()).unwrap().workload,
            Some(fixed)
        );

        // No workload: the key is omitted entirely (byte-stable
        // serialization for all existing scenarios).
        let plain = Scenario::versus(50.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 3);
        assert!(!plain.to_json().contains("workload"));
        assert_eq!(
            Scenario::from_json(&plain.to_json()).unwrap().workload,
            None
        );
    }

    #[test]
    fn topology_spec_roundtrips_through_json() {
        let mut topo = TopologySpec::parking_lot(3, 40.0, 2.0, 2.0);
        topo.flow_routes = vec![0, 0, 1];
        topo.fault_link = Some(1);
        let s = Scenario::versus(40.0, 40.0, 2.0, 2, CcaKind::Bbr, 1, 5.0, 3)
            .with_topology(Some(topo.clone()));
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back.topology, Some(topo));

        // The dumbbell builder round-trips too (wire links omit "mbps").
        let s = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 3)
            .with_topology(Some(TopologySpec::dumbbell(10.0, 2.0)));
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back.topology, s.topology);

        // No topology: the key is omitted entirely (byte-stable
        // serialization for all existing scenarios).
        let plain = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 3);
        assert!(!plain.to_json().contains("topology"));
        assert_eq!(
            Scenario::from_json(&plain.to_json()).unwrap().topology,
            None
        );
    }

    #[test]
    fn explicit_dumbbell_reproduces_the_implicit_run() {
        let implicit = Scenario::versus(10.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 7);
        let a = implicit.try_report().unwrap();
        let b = implicit
            .clone()
            .with_topology(Some(TopologySpec::dumbbell(10.0, 2.0)))
            .try_report()
            .unwrap();
        assert_eq!(a.to_json_value().to_json(), b.to_json_value().to_json());
    }

    #[test]
    fn degenerate_topologies_are_rejected_with_typed_errors() {
        let base = Scenario::versus(10.0, 20.0, 2.0, 2, CcaKind::Bbr, 1, 5.0, 1);
        let reject = |s: &Scenario, needle: &str| {
            let err = s.validate().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        };

        // A zero-rate link is screened *before* Rate::from_mbps (which
        // would panic on it).
        let mut t = TopologySpec::dumbbell(10.0, 2.0);
        t.links[1].mbps = Some(0.0);
        reject(
            &base.clone().with_topology(Some(t)),
            "mbps must be positive",
        );

        let mut t = TopologySpec::dumbbell(10.0, 2.0);
        t.links[0].to = "nowhere".to_string();
        reject(&base.clone().with_topology(Some(t)), "unknown node");

        let mut t = TopologySpec::dumbbell(10.0, 2.0);
        t.routes[0] = vec![0, 9, 2];
        reject(&base.clone().with_topology(Some(t)), "missing link 9");

        let mut t = TopologySpec::dumbbell(10.0, 2.0);
        t.flow_routes = vec![0];
        reject(
            &base.with_topology(Some(t)),
            "flow_routes has 1 entries for 3 flows",
        );
    }

    #[test]
    fn parking_lot_scenario_runs_with_cross_traffic() {
        let mut topo = TopologySpec::parking_lot(2, 20.0, 2.0, 2.0);
        // 2 long flows over the chain + 1 CUBIC cross flow per hop.
        topo.flow_routes = vec![0, 0, 1, 2];
        let mut s = Scenario::versus(20.0, 40.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 9);
        s.flows.push(FlowSpec::long(CcaKind::Cubic, 20.0));
        s.flows.push(FlowSpec::long(CcaKind::Cubic, 20.0));
        let s = s.with_topology(Some(topo));
        let r = s.run();
        assert_eq!(r.throughput_mbps.len(), 4);
        // The first-n restriction keeps cross traffic out of the game's
        // payoffs: the full CUBIC mean folds in both cross flows.
        let long_cubic = r.mean_throughput_of_first(2, "cubic").unwrap();
        assert!((long_cubic - r.throughput_mbps[0]).abs() < 1e-12);
        assert_ne!(
            r.mean_throughput_of("cubic").unwrap().to_bits(),
            long_cubic.to_bits()
        );
        // Everyone gets a share of a 20 Mbps chain.
        assert!(r.throughput_mbps.iter().all(|&t| t > 0.0 && t < 21.0));
    }

    #[test]
    fn workload_scenario_runs_and_reports_fct_percentiles() {
        let wl = WorkloadSpec::poisson_fixed(CcaKind::Cubic, 60.0, 20_000, 20.0);
        let s =
            Scenario::versus(50.0, 20.0, 2.0, 1, CcaKind::Bbr, 0, 8.0, 5).with_workload(Some(wl));
        let r = s.run();
        assert!(r.workload_spawned > 200, "spawned={}", r.workload_spawned);
        assert!(r.workload_completed > 0);
        assert_eq!(r.workload_fct.len(), 1);
        assert_eq!(r.workload_fct[0].cc_name, "cubic");
        assert!(r.workload_fct[0].p50_secs > 0.0);
        // The single static flow still gets its individual report.
        assert_eq!(r.throughput_mbps.len(), 1);

        // Workload results ride through the store serialization.
        let back = TrialResult::from_json(&r.to_json_value().to_json()).unwrap();
        assert_eq!(back.workload_spawned, r.workload_spawned);
        assert_eq!(back.workload_fct, r.workload_fct);

        // Same scenario, same bits.
        let again = s.run();
        assert_eq!(again.workload_spawned, r.workload_spawned);
        assert_eq!(
            again.workload_fct[0].p99_secs.to_bits(),
            r.workload_fct[0].p99_secs.to_bits()
        );
    }

    #[test]
    fn workload_only_scenario_is_valid() {
        let wl = WorkloadSpec::poisson_fixed(CcaKind::Cubic, 40.0, 20_000, 20.0);
        let s = Scenario {
            flows: Vec::new(),
            ..Scenario::versus(50.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 5)
        };
        assert!(s.validate().is_err(), "no flows and no workload");
        let s = s.with_workload(Some(wl));
        assert!(s.validate().is_ok());
        let r = s.run();
        assert!(r.throughput_mbps.is_empty());
        assert!(r.workload_completed > 0);
    }

    #[test]
    fn degenerate_workload_specs_are_rejected() {
        let base = Scenario::versus(50.0, 20.0, 2.0, 1, CcaKind::Bbr, 1, 5.0, 5);
        let mut wl = WorkloadSpec::poisson_fixed(CcaKind::Cubic, 40.0, 20_000, 20.0);
        wl.rtt_ms = 0.0;
        assert!(base.clone().with_workload(Some(wl)).validate().is_err());
        let mut wl = WorkloadSpec::poisson_fixed(CcaKind::Cubic, 0.0, 20_000, 20.0);
        assert!(base.clone().with_workload(Some(wl)).validate().is_err());
        wl = WorkloadSpec::poisson_fixed(CcaKind::Cubic, 40.0, 0, 20.0);
        assert!(base.clone().with_workload(Some(wl)).validate().is_err());
        let mut wl = WorkloadSpec::web(CcaKind::Cubic, 40.0, 20.0);
        wl.arrival = ArrivalSpec::Deterministic { interval_s: 0.0 };
        assert!(base.with_workload(Some(wl)).validate().is_err());
    }

    #[test]
    fn scenario_from_json_defaults_and_errors() {
        let minimal = r#"{"mbps":10.0,"buffer_bdp":2.0,"reference_rtt_ms":20.0,
            "flows":[{"cca":"bbr","rtt_ms":20.0}],"duration_secs":3.0,"seed":1}"#;
        let s = Scenario::from_json(minimal).unwrap();
        assert_eq!(s.discipline, DisciplineSpec::DropTail);
        assert_eq!(s.flows[0].start_s, 0.0);
        assert_eq!(s.flows[0].byte_limit, None);

        assert!(Scenario::from_json("{}").is_err());
        assert!(Scenario::from_json("not json").is_err());
        let bad_cca = minimal.replace("\"bbr\"", "\"quic\"");
        assert!(Scenario::from_json(&bad_cca).unwrap_err().contains("quic"));
    }
}
