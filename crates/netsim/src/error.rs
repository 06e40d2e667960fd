//! Typed errors: configuration validation and runtime simulation failure.
//!
//! The simulator fails *fast* on internal corruption (audit violations)
//! and *softly* at the caller: [`crate::sim::Simulator::try_run`] returns
//! a [`SimError`] instead of panicking, so a sweep can record one bad
//! trial and keep going. The panicking constructors/`run()` remain as
//! thin wrappers over these typed paths.

use crate::packet::FlowId;
use crate::time::SimTime;
use std::fmt;

/// A configuration rejected at validation time.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A field that must be strictly positive was zero (or negative).
    NonPositive { field: &'static str },
    /// A float field that must be finite was NaN or infinite.
    NonFinite { field: &'static str },
    /// A time or length that must be zero or more was negative (or NaN).
    Negative { field: &'static str },
    /// The simulator was asked to run with no flows configured.
    NoFlows,
    /// A loss probability outside `[0, 1]` (or NaN).
    LossOutOfRange { path: &'static str, value: f64 },
    /// A scheduled fault interval (outage / delay spike) with zero length.
    EmptyFaultInterval { kind: &'static str, at: SimTime },
    /// The selected simulation backend cannot model a requested feature
    /// (e.g. the fluid backend asked to run an AQM or fault schedule).
    Unsupported {
        backend: &'static str,
        feature: &'static str,
    },
    /// A multi-hop [`crate::topo::Topology`] failed structural
    /// validation: bad link endpoints, a route referencing a missing
    /// link, a disconnected or cyclic route, a rated link with no
    /// buffer, or an out-of-range route/flow/fault reference.
    InvalidTopology {
        /// Human-readable description naming the offending element.
        reason: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NonPositive { field } => write!(f, "{field} must be positive"),
            ConfigError::NonFinite { field } => write!(f, "{field} must be finite"),
            ConfigError::Negative { field } => write!(f, "{field} must be zero or more"),
            ConfigError::NoFlows => write!(f, "no flows configured"),
            ConfigError::LossOutOfRange { path, value } => {
                write!(f, "{path} loss probability {value} outside [0, 1]")
            }
            ConfigError::EmptyFaultInterval { kind, at } => {
                write!(f, "{kind} at {at} has zero length")
            }
            ConfigError::Unsupported { backend, feature } => {
                write!(f, "{backend} backend does not support {feature}")
            }
            ConfigError::InvalidTopology { reason } => {
                write!(f, "invalid topology: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A runtime invariant violation detected by the auditor
/// (see [`crate::audit`]).
#[derive(Debug, Clone)]
pub struct AuditViolation {
    /// Simulated time of the failing check.
    pub time: SimTime,
    /// The flow the violated invariant belongs to, if per-flow.
    pub flow: Option<FlowId>,
    /// Which invariant failed (short identifier).
    pub check: &'static str,
    /// Human-readable detail with the numbers that disagreed.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant '{}' violated at t={}", self.check, self.time)?;
        if let Some(flow) = self.flow {
            write!(f, " (flow {})", flow.0)?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for AuditViolation {}

/// Why a simulation run failed.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The configuration was invalid.
    Config(ConfigError),
    /// The runtime auditor caught an internal inconsistency.
    Audit(AuditViolation),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::Audit(v) => write!(f, "audit failure: {v}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<AuditViolation> for SimError {
    fn from(v: AuditViolation) -> Self {
        SimError::Audit(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_assert_messages() {
        // `Simulator::new` used to assert with these exact phrases; the
        // panicking wrapper must keep them recognizable.
        let e = ConfigError::NonPositive { field: "buffer" };
        assert_eq!(e.to_string(), "buffer must be positive");
        let e = ConfigError::NonPositive { field: "duration" };
        assert_eq!(e.to_string(), "duration must be positive");
    }

    #[test]
    fn sim_error_display_carries_context() {
        let v = AuditViolation {
            time: SimTime::from_secs_f64(1.5),
            flow: Some(FlowId(3)),
            check: "packet-conservation",
            detail: "offered=10 accounted=9".into(),
        };
        let s = SimError::Audit(v).to_string();
        assert!(s.contains("packet-conservation"), "{s}");
        assert!(s.contains("flow 3"), "{s}");
        assert!(s.contains("1.5"), "{s}");
    }
}
