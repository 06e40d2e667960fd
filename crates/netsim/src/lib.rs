//! # bbrdom-netsim — packet-level discrete-event network simulator
//!
//! This crate is the experimental substrate for the IMC '22 reproduction
//! *"Are we heading towards a BBR-dominant Internet?"*. The paper ran its
//! experiments on a Linux testbed; we substitute a deterministic, seeded,
//! packet-level discrete-event simulator of the same dumbbell topology:
//!
//! ```text
//!  sender 1 ──┐
//!  sender 2 ──┤                ┌────────────┐
//!     ...     ├──► drop-tail ──►  bottleneck ├──► receivers ──► ACKs back
//!  sender N ──┘     queue B    │  link  C    │      (prop. delay per flow)
//!                              └────────────┘
//! ```
//!
//! Everything the paper's model consumes — bottleneck capacity `C`, buffer
//! size `B`, base RTT, drop-tail losses, queuing delay, per-flow buffer
//! occupancy — is produced here from first principles: packets are enqueued,
//! serialized at link rate, delivered after a propagation delay, and ACKed
//! on a per-packet basis (SACK-like), with dup-threshold loss detection,
//! fast retransmit, and RTO fallback at the senders.
//!
//! Congestion control is pluggable via the [`cc::CongestionControl`] trait;
//! the algorithms themselves (CUBIC, BBR, BBRv2, Copa, Vivace, NewReno)
//! live in the `bbrdom-cca` crate.
//!
//! Design notes (following the session's networking guides):
//! * **Event-driven, synchronous.** The workload is CPU-bound; no async
//!   runtime is used. A calendar queue (see [`event`]) orders events by
//!   `(time, seq)`, making runs bit-for-bit deterministic for a given seed.
//! * **No hidden global state.** A [`sim::Simulator`] owns everything.
//! * **Simplicity over cleverness** (smoltcp's stated design goal): plain
//!   structs, explicit state machines, no macro tricks.

pub mod aqm;
pub mod audit;
pub mod cc;
pub mod error;
pub mod event;
pub mod fault;
pub mod flow;
pub mod hash;
pub mod json;
pub mod packet;
pub mod queue;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod stop;
pub mod time;
pub mod topo;
pub mod trace;
pub mod units;
pub mod workload;

pub use aqm::{CodelConfig, QueueDiscipline, RedConfig};
pub use cc::{AckSample, CongestionControl, FlowView};
pub use error::{AuditViolation, ConfigError, SimError};
pub use fault::{FaultAction, FaultSchedule};
pub use hash::{StableHash, StableHasher};
pub use packet::FlowId;
pub use sim::{FlowConfig, SimConfig, SimReport, Simulator};
pub use stats::{FctPercentiles, FlowReport, QueueReport};
pub use stop::EarlyStop;
pub use time::{SimDuration, SimTime};
pub use topo::{LinkSpec, Topology};
pub use trace::{Sample, Trace, TraceConfig};
pub use units::{Rate, MSS};
pub use workload::{ArrivalProcess, SizeDist, WorkloadConfig};
