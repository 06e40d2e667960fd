//! Shared helpers for the performance benchmarks in `benches/`.
//!
//! Each bench times one layer of the reproduction (the packet DES, the
//! scenario engine, the result store, the adaptive NE search, the fluid
//! backend), asserts its pinned claims, and writes a `BENCH_*.json`
//! record at the repository root. Figure data itself comes from the
//! `repro` binary (`bbrdom-experiments`).

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_names_a_cpu_count() {
        let (model, nproc) = machine();
        assert!(!model.is_empty());
        assert!(nproc >= 1);
    }
}
