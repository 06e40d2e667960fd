//! The `forwarding` workload: bare per-packet forwarding with
//! `FixedWindow` senders and no engine.

use crate::trace::Tracer;
use crate::workloads::ForwardingCase;
use bbrdom_netsim::hash::StableHasher;
use bbrdom_netsim::SimReport;
use std::time::Instant;

/// One pass over every case.
pub struct ForwardingPass {
    /// Simulator construction.
    pub setup_s: f64,
    /// Run time of each case.
    pub parts_s: Vec<f64>,
    /// Events per case, in case order.
    pub events: Vec<u64>,
    pub digest: u128,
}

fn digest(reports: &[SimReport]) -> u128 {
    let mut h = StableHasher::new();
    for r in reports {
        h.write_bytes(r.to_json_value().to_json().as_bytes());
    }
    h.finish()
}

/// Build every case, then run them, timing the two steps apart.
/// `Err` names a case the simulator rejected.
pub fn pass(cases: &[ForwardingCase]) -> Result<ForwardingPass, String> {
    let start = Instant::now();
    let sims: Vec<_> = cases.iter().map(ForwardingCase::build).collect();
    let setup_s = start.elapsed().as_secs_f64();
    let mut parts_s = Vec::with_capacity(cases.len());
    let mut reports = Vec::with_capacity(cases.len());
    for (mut sim, c) in sims.into_iter().zip(cases) {
        let start = Instant::now();
        reports.push(sim.try_run().map_err(|e| format!("{}: {e}", c.name))?);
        parts_s.push(start.elapsed().as_secs_f64());
    }
    Ok(ForwardingPass {
        setup_s,
        parts_s,
        events: reports.iter().map(|r| r.events_processed).collect(),
        digest: digest(&reports),
    })
}

/// [`pass`] inside trace spans: per case a `netsim.build` and a
/// `netsim.run` span, tagged with the case's index as their cell.
/// Returns the digest of the reports.
pub fn traced_pass(t: &mut Tracer, cases: &[ForwardingCase]) -> Result<u128, String> {
    let reports = t.span("pass", None, |t| {
        cases
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut sim = t.span("netsim.build", Some(i as u128), |_| c.build());
                t.span("netsim.run", Some(i as u128), |_| sim.try_run())
                    .map_err(|e| format!("{}: {e}", c.name))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(digest(&reports))
}
