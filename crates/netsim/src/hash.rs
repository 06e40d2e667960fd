//! Stable, process-independent hashing for simulation configurations.
//!
//! The scenario result cache and store (`bbrdom-experiments`) key
//! results by the *content* of a run's configuration. `std::hash` is
//! unsuitable for that: `Hasher` output is only guaranteed stable within
//! one process and one std version. This module provides a fixed
//! algorithm — FNV-1a with a 128-bit state — whose output is pinned by
//! golden tests (the reference vectors here, the scenario-key digests
//! in `bbrdom-experiments`), so an on-disk cache entry written today is
//! still addressable by a build from next year.
//!
//! Only the types the scenario key and seed derivations feed are
//! implemented: primitives, `Option`/sequences/tuples, simulator times
//! and rates, and the compiled [`FaultSchedule`]. Composite values hash
//! their fields in declared order; sequences and strings are
//! length-prefixed. `f64` hashes its raw bit pattern, so two configs
//! hash alike exactly when their floats are bit-identical — the same
//! criterion the simulator's determinism guarantee uses.

use crate::fault::FaultSchedule;
use crate::time::{SimDuration, SimTime};
use crate::units::Rate;

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit FNV-1a hasher with process-independent output.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u128,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    pub fn new() -> Self {
        StableHasher {
            state: FNV128_OFFSET,
        }
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// The 128-bit digest of everything absorbed so far.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// Values that contribute to a stable configuration digest.
pub trait StableHash {
    fn stable_hash(&self, h: &mut StableHasher);
}

macro_rules! int_stable_hash {
    ($($t:ty),*) => {$(
        impl StableHash for $t {
            fn stable_hash(&self, h: &mut StableHasher) {
                h.write_bytes(&self.to_le_bytes());
            }
        }
    )*};
}
int_stable_hash!(u8, u16, u32, u64, u128, i8, i16, i32, i64);

impl StableHash for bool {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_bytes(&[*self as u8]);
    }
}

impl StableHash for f64 {
    fn stable_hash(&self, h: &mut StableHasher) {
        h.write_bytes(&self.to_bits().to_le_bytes());
    }
}

impl StableHash for str {
    fn stable_hash(&self, h: &mut StableHasher) {
        (self.len() as u64).stable_hash(h);
        h.write_bytes(self.as_bytes());
    }
}

impl StableHash for String {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_str().stable_hash(h);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        match self {
            None => h.write_bytes(&[0]),
            Some(v) => {
                h.write_bytes(&[1]);
                v.stable_hash(h);
            }
        }
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, h: &mut StableHasher) {
        (self.len() as u64).stable_hash(h);
        for item in self {
            item.stable_hash(h);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.as_slice().stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash> StableHash for (A, B) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
    }
}

impl<A: StableHash, B: StableHash, C: StableHash> StableHash for (A, B, C) {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
        self.1.stable_hash(h);
        self.2.stable_hash(h);
    }
}

impl StableHash for SimTime {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
    }
}

impl StableHash for SimDuration {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.0.stable_hash(h);
    }
}

impl StableHash for Rate {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.bytes_per_sec().stable_hash(h);
    }
}

impl StableHash for FaultSchedule {
    fn stable_hash(&self, h: &mut StableHasher) {
        self.loss_fwd.stable_hash(h);
        self.loss_ack.stable_hash(h);
        self.seed.stable_hash(h);
        self.outages.stable_hash(h);
        self.rate_changes.stable_hash(h);
        self.delay_spikes.stable_hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a 128 test vectors (empty input = offset basis; "a" is the
    /// classic reference vector). Pins the algorithm across versions.
    #[test]
    fn fnv128_reference_vectors() {
        assert_eq!(StableHasher::new().finish(), FNV128_OFFSET);
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    fn stable_digest<T: StableHash + ?Sized>(value: &T) -> u128 {
        let mut h = StableHasher::new();
        value.stable_hash(&mut h);
        h.finish()
    }

    /// Every `FaultSchedule` field feeds the digest (the scenario cache
    /// key hashes the compiled schedule, so aliasing here would alias
    /// whole scenarios).
    #[test]
    fn every_fault_schedule_field_changes_the_hash() {
        let base = stable_digest(&FaultSchedule::none());
        let muts: Vec<(&str, FaultSchedule)> = vec![
            ("loss_fwd", FaultSchedule::none().with_loss(0.01)),
            ("loss_ack", FaultSchedule::none().with_ack_loss(0.01)),
            ("seed", FaultSchedule::none().with_seed(3)),
            (
                "outages",
                FaultSchedule::none()
                    .with_outage(SimTime::from_secs_f64(1.0), SimDuration::from_millis(100)),
            ),
            (
                "rate_changes",
                FaultSchedule::none()
                    .with_rate_step(SimTime::from_secs_f64(1.0), Rate::from_mbps(5.0)),
            ),
            (
                "delay_spikes",
                FaultSchedule::none().with_delay_spike(
                    SimTime::from_secs_f64(1.0),
                    SimDuration::from_millis(100),
                    SimDuration::from_millis(10),
                ),
            ),
        ];
        for (field, mutated) in muts {
            assert_ne!(
                stable_digest(&mutated),
                base,
                "mutating FaultSchedule::{field} did not change the stable hash"
            );
        }
    }

    /// Sequences are length-prefixed: `["ab"]` and `["a", "b"]` (and
    /// nested splits generally) must not collide.
    #[test]
    fn length_prefixing_separates_sequence_splits() {
        let one: Vec<String> = vec!["ab".into()];
        let two: Vec<String> = vec!["a".into(), "b".into()];
        assert_ne!(stable_digest(&one), stable_digest(&two));
        assert_ne!(stable_digest(&Some(0u64)), stable_digest(&None::<u64>));
    }
}
