//! Shared helpers for the per-figure Criterion benchmarks.
//!
//! Each `benches/figNN.rs` regenerates (a scaled-down slice of) the data
//! behind one figure of the paper, so `cargo bench` both times the
//! machinery and re-verifies that every figure's pipeline still runs.
//! The full-size figure data comes from the `repro` binary
//! (`bbrdom-experiments`); benches use the smoke profile to stay fast.

use bbrdom_experiments::Profile;

/// The profile benches run with: seconds-scale sims.
pub fn bench_profile() -> Profile {
    Profile::smoke()
}

/// The machine a bench ran on, for the `BENCH_*.json` it writes: the CPU
/// model (the first `model name` of `/proc/cpuinfo`, or `"unknown"` where
/// that file does not exist) and the number of CPUs this process may use.
pub fn machine() -> (String, usize) {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (model, nproc)
}

/// A tiny two-flow simulation used by several benches, returning the
/// challenger's measured throughput in Mbps.
pub fn tiny_sim(mbps: f64, buffer_bdp: f64, challenger: bbrdom_cca::CcaKind) -> f64 {
    use bbrdom_experiments::Scenario;
    let s = Scenario::versus(mbps, 20.0, buffer_bdp, 1, challenger, 1, 4.0, 42);
    s.run().mean_throughput_of(challenger.name()).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sim_produces_throughput() {
        let t = tiny_sim(10.0, 2.0, bbrdom_cca::CcaKind::Bbr);
        assert!(t > 0.0 && t < 11.0);
    }

    #[test]
    fn machine_names_a_cpu_count() {
        let (model, nproc) = machine();
        assert!(!model.is_empty());
        assert!(nproc >= 1);
    }

    #[test]
    fn bench_profile_is_smoke_sized() {
        assert!(bench_profile().duration_secs <= 10.0);
    }
}
