//! Stable, process-independent hashing.
//!
//! `std::hash` is unsuitable wherever a digest outlives the process:
//! `Hasher` output is only guaranteed stable within one process and one
//! std version. This module provides a fixed algorithm — FNV-1a with a
//! 128-bit state, pinned by the reference vectors below — for three
//! kinds of caller: the per-trial seed derivations (workload streams,
//! CCA phases, extension trial seeds), the result digests of the
//! end-to-end benchmark, and the scenario cache key in
//! `bbrdom-experiments`, which feeds the values a scenario's index line
//! writes through [`StableHash`] and is pinned there by its own golden
//! digests.
//!
//! Only primitives, `str` and `Option` implement [`StableHash`]; callers
//! compose them. Strings are length-prefixed and `Option` is tagged, so
//! adjacent values cannot run into each other. `f64` hashes its raw bit
//! pattern, so two values hash alike exactly when they are
//! bit-identical — the same criterion the simulator's determinism
//! guarantee uses.

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

    /// Strings are length-prefixed: `"ab", ""` and `"a", "b"` must not
    /// collide, nor may `Some` and `None`.
    #[test]
    fn length_prefixing_separates_string_splits() {
        let pair = |a: &str, b: &str| {
            let mut h = StableHasher::new();
            a.stable_hash(&mut h);
            b.stable_hash(&mut h);
            h.finish()
        };
        assert_ne!(pair("ab", ""), pair("a", "b"));
        assert_ne!(stable_digest(&Some(0u64)), stable_digest(&None::<u64>));
    }
}
