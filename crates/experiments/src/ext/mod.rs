//! Extension experiments beyond the paper's figures — each one explores
//! a question the paper raises but leaves open:
//!
//! | Module | Paper hook | Question |
//! |---|---|---|
//! | [`aqm`] | §1/§5 (AQMs, buffer sizing) | Does the CUBIC/BBR split — and the Nash mix — survive RED and CoDel bottlenecks? |
//! | [`ternary`] | §4.2 (future work: >2 CCAs) | Where does a three-strategy CUBIC/BBR/BBRv2 game settle? |
//! | [`shortflows`] | §5 (future work: diverse workloads) | How do short-flow completion times change as the long-flow mix shifts from CUBIC to BBR? |
//! | [`utility`] | §4.3 (complex utility functions) | Do Nash equilibria persist under `u = throughput − w·delay`? |
//! | [`faults`] | §5 (real-path diversity) | Does the split — and the Nash mix — survive wire loss, outages, and delay spikes? |
//! | [`churn`] | §5 (future work: diverse workloads) | Does the split — and the Nash mix — survive open-loop flow churn, and what FCT tail does the churn see? |
//! | [`parkinglot`] | §5 (real-path diversity) | Does the game survive a multi-bottleneck parking-lot chain with per-hop cross traffic? |
//!
//! All are runnable through the `repro` binary: `repro ext-aqm`,
//! `repro ext-ternary`, `repro ext-shortflows`, `repro ext-utility`,
//! `repro ext-faults`, `repro ext-churn`, `repro ext-parkinglot`.

pub mod aqm;
pub mod churn;
pub mod faults;
pub mod parkinglot;
pub mod shortflows;
pub mod ternary;
pub mod utility;

use crate::engine::Engine;
use crate::figs::FigResult;
use crate::profile::Profile;

/// All extension experiment ids.
pub const ALL_EXTENSIONS: [&str; 7] = [
    "ext-aqm",
    "ext-ternary",
    "ext-shortflows",
    "ext-utility",
    "ext-faults",
    "ext-churn",
    "ext-parkinglot",
];

/// Run an extension experiment by id.
pub fn run_extension(id: &str, engine: &Engine, profile: &Profile) -> Option<FigResult> {
    match id {
        "ext-aqm" => Some(aqm::run(engine, profile)),
        "ext-ternary" => Some(ternary::run(engine, profile)),
        "ext-shortflows" => Some(shortflows::run(engine, profile)),
        "ext-utility" => Some(utility::run(engine, profile)),
        "ext-faults" => Some(faults::run(engine, profile)),
        "ext-churn" => Some(churn::run(engine, profile)),
        "ext-parkinglot" => Some(parkinglot::run(engine, profile)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_extension_is_none() {
        assert!(
            run_extension("ext-nope", &crate::engine::test_engine(), &Profile::smoke()).is_none()
        );
    }
}
