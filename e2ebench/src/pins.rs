//! Result digests and work counts pinned for the default seed.
//!
//! `pins.json` maps a key (`<workload>` or `<workload>.smoke`) to the
//! digest of a pass's results and the events (fluid steps for
//! `ne-fluid`) one cold pass simulates. A run with the default seed
//! fails its output checks when either differs, so a change that alters
//! what the benchmark computes cannot pass as a speed-up. Re-pinning is
//! a change to the benchmark alone; see the README.

use bbrdom_netsim::json::{self, Value};

const PINS: &str = include_str!("../pins.json");

/// The pin key of a workload in the given mode.
pub fn key(workload: &str, smoke: bool) -> String {
    if smoke {
        format!("{workload}.smoke")
    } else {
        workload.to_string()
    }
}

/// The pin entry for `key` with the given values, as it would appear
/// in `pins.json`.
pub fn entry(key: &str, digest: u128, events: u64) -> String {
    format!("\"{key}\": {{\"digest\": \"{digest:032x}\", \"events\": {events}}}")
}

/// Check a default-seed run against its pin.
pub fn check(key: &str, digest: u128, events: u64) -> Result<(), String> {
    let pins = json::parse(PINS).map_err(|e| format!("pins.json: {e}"))?;
    let pin = pins
        .get(key)
        .ok_or_else(|| format!("no pin for {key}; add {}", entry(key, digest, events)))?;
    let want_digest = pin.get("digest").and_then(Value::as_str);
    let want_events = pin.get("events").and_then(Value::as_u64);
    if want_digest == Some(format!("{digest:032x}").as_str()) && want_events == Some(events) {
        Ok(())
    } else {
        Err(format!(
            "results differ from the pin for {key}: got {}; re-pin only in a change to the benchmark alone",
            entry(key, digest, events)
        ))
    }
}
