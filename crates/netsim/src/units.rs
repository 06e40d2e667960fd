//! Bandwidth and buffer units.
//!
//! The paper specifies links in Mbps, RTTs in milliseconds, and buffers in
//! multiples of the bandwidth-delay product (BDP). This module provides the
//! conversions so experiment code reads like the paper.

use crate::time::SimDuration;

/// Maximum segment size used throughout the simulator, in bytes.
///
/// The paper's testbed used standard Ethernet framing; we use the classic
/// 1500-byte MTU payload as the unit of data.
pub const MSS: u64 = 1500;

/// A data rate in bytes per second.
///
/// Stored as `f64` because rates are the one place where fractional values
/// are natural (serialization times, pacing intervals); all byte *counts*
/// stay integral.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Rate(f64);

impl Rate {
    /// Construct from megabits per second (the paper's unit).
    pub fn from_mbps(mbps: f64) -> Self {
        assert!(mbps > 0.0, "link rate must be positive");
        Rate(mbps * 1e6 / 8.0)
    }

    /// Construct from bytes per second.
    pub fn from_bytes_per_sec(bps: f64) -> Self {
        assert!(bps > 0.0, "link rate must be positive");
        Rate(bps)
    }

    /// The rate in bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// The rate in megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.0 * 8.0 / 1e6
    }

    /// Time to serialize `bytes` at this rate.
    pub fn serialization_time(self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.0)
    }

    /// Bandwidth-delay product for a given base RTT, in bytes.
    pub fn bdp_bytes(self, rtt: SimDuration) -> u64 {
        (self.0 * rtt.as_secs_f64()).round() as u64
    }
}

/// `x.round() as u64`, bit for bit, without a call into libm.
///
/// `f64::round` has no instruction on baseline x86-64 (SSE4.1's `roundsd`
/// is not assumed), so it compiles to a libm call; the simulator rounds a
/// window or a duration on every ACK. For `0 <= x < 2^52` — every window
/// and duration it rounds — truncation to `i64` and back is one
/// instruction each and exact, and so is the fraction `x - trunc(x)`, so
/// comparing it with 0.5 reproduces round-half-away-from-zero. Anything
/// else (negative, NaN, huge) takes `round` itself.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    if (0.0..4_503_599_627_370_496.0).contains(&x) {
        let t = x as i64;
        (t + (x - t as f64 >= 0.5) as i64) as u64
    } else {
        x.round() as u64
    }
}

/// Convert a buffer size expressed in BDP multiples into bytes, with a
/// floor of one packet so a queue always exists.
pub fn buffer_bytes(rate: Rate, rtt: SimDuration, bdp_multiple: f64) -> u64 {
    assert!(bdp_multiple > 0.0, "buffer must be positive");
    ((rate.bdp_bytes(rtt) as f64 * bdp_multiple).round() as u64).max(MSS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_u64_matches_round_on_edge_cases() {
        let cases = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            4503599627370495.5,
            4503599627370496.0,
            4503599627370497.0,
            9007199254740993.0,
            18446744073709549568.0,
            18446744073709551616.0,
            1e300,
            -0.5,
            -0.7,
            -1.5,
            f64::MIN_POSITIVE,
            5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in cases {
            assert_eq!(round_u64(x), x.round() as u64, "{x:e}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// Random bit patterns cover every exponent, sign, NaN and
        /// infinity; windows and durations of the simulator's own range
        /// (bytes, nanoseconds below 2^40) are drawn separately, with a
        /// quarter landing exactly on a half.
        #[test]
        fn round_u64_matches_round(
            bits in 0u64..u64::MAX,
            whole in 0u64..1 << 40,
            frac in 0.0f64..1.0,
            half in proptest::prop::bool::weighted(0.25),
        ) {
            let x = f64::from_bits(bits);
            proptest::prop_assert_eq!(round_u64(x), x.round() as u64, "{:e}", x);
            let y = whole as f64 + if half { 0.5 } else { frac };
            proptest::prop_assert_eq!(round_u64(y), y.round() as u64, "{:e}", y);
        }
    }

    #[test]
    fn mbps_roundtrip() {
        let r = Rate::from_mbps(50.0);
        assert!((r.as_mbps() - 50.0).abs() < 1e-9);
        assert!((r.bytes_per_sec() - 6_250_000.0).abs() < 1e-6);
    }

    #[test]
    fn serialization_time_of_one_mss() {
        // 1500 B at 12 Mbps = 1500*8/12e6 s = 1 ms.
        let r = Rate::from_mbps(12.0);
        assert_eq!(r.serialization_time(MSS), SimDuration::from_millis(1));
    }

    #[test]
    fn bdp_computation() {
        // 100 Mbps * 40 ms = 12.5e6 B/s * 0.04 s = 500_000 B.
        let r = Rate::from_mbps(100.0);
        assert_eq!(r.bdp_bytes(SimDuration::from_millis(40)), 500_000);
    }

    #[test]
    fn buffer_floor_is_one_packet() {
        let r = Rate::from_mbps(1.0);
        let b = buffer_bytes(r, SimDuration::from_micros(10), 0.1);
        assert_eq!(b, MSS);
    }

    #[test]
    fn buffer_in_bdp_multiples() {
        let r = Rate::from_mbps(100.0);
        let rtt = SimDuration::from_millis(40);
        assert_eq!(buffer_bytes(r, rtt, 3.0), 1_500_000);
    }
}
