//! Nash-equilibrium prediction (§4.1, Eq. (25)).
//!
//! For `N` same-RTT flows, a distribution with `N_b` BBR flows is the
//! Nash Equilibrium when BBR's per-flow bandwidth equals the fair share:
//!
//! ```text
//! λ̂_b / N_b  =  C / N                                        (Eq. 25)
//! ```
//!
//! Below the crossing (fewer BBR flows) BBR is above fair share, so some
//! CUBIC flow gains by switching to BBR; above it the reverse holds —
//! the crossing is stable (the paper's point C in Fig. 6).
//!
//! Each CUBIC-synchronization bound of the multi-flow model yields its
//! own crossing; together they delimit the "Nash region" plotted in
//! Fig. 9. A key property (asserted in the tests, observed in §4.4):
//! expressed in BDP-normalized buffer units, the region depends on
//! *neither* `C` nor `RTT` individually — only on `B/BDP`.

use super::multi_flow::{MultiFlowModel, SyncMode};
use super::two_flow::{solve_with_gamma, CUBIC_BETA};
use super::{LinkParams, ModelError};

/// Predicts the Nash-equilibrium distribution for `n_total` same-RTT flows.
#[derive(Debug, Clone, Copy)]
pub struct NashPredictor {
    pub link: LinkParams,
    pub n_total: u32,
}

/// The predicted equilibrium for one synchronization bound.
#[derive(Debug, Clone, Copy)]
pub struct NashPrediction {
    pub mode: SyncMode,
    /// Continuous solution of Eq. (25): number of BBR flows at the NE.
    pub n_bbr: f64,
    /// Continuous number of CUBIC flows at the NE (`N − n_bbr`).
    pub n_cubic: f64,
}

impl NashPrediction {
    /// Integer distributions adjacent to the continuous crossing —
    /// the NE candidates an empirical search should find.
    ///
    /// A non-finite crossing (which a hand-built prediction can carry)
    /// yields no candidates rather than a silent `NaN as u32 == 0`.
    pub fn integer_candidates(&self, n_total: u32) -> Vec<u32> {
        if !self.n_cubic.is_finite() {
            return Vec::new();
        }
        let lo = self.n_cubic.floor().clamp(0.0, n_total as f64) as u32;
        let hi = self.n_cubic.ceil().clamp(0.0, n_total as f64) as u32;
        if lo == hi {
            vec![lo]
        } else {
            vec![lo, hi]
        }
    }
}

/// The Nash region across a buffer sweep: for each buffer size, the
/// number of CUBIC flows at the NE under each bound (Fig. 9's shaded
/// region boundaries).
#[derive(Debug, Clone)]
pub struct NashRegion {
    /// `(buffer_bdp, #CUBIC at NE [sync bound], #CUBIC at NE [de-sync bound])`.
    pub points: Vec<(f64, f64, f64)>,
    pub n_total: u32,
}

impl NashPredictor {
    pub fn new(link: LinkParams, n_total: u32) -> Self {
        NashPredictor { link, n_total }
    }

    pub fn from_paper_units(mbps: f64, rtt_ms: f64, buffer_bdp: f64, n_total: u32) -> Self {
        NashPredictor::new(
            LinkParams::from_paper_units(mbps, rtt_ms, buffer_bdp),
            n_total,
        )
    }

    /// BBR per-flow bandwidth (bytes/s) at a (possibly fractional)
    /// distribution with `n_bbr` BBR flows, under `mode`.
    ///
    /// Uses the continuous extension of the aggregate back-off factor
    /// (γ(N_c) = (N_c − 0.3)/N_c with real-valued `N_c`), which the
    /// integer model interpolates.
    pub fn bbr_per_flow(&self, n_bbr: f64, mode: SyncMode) -> Result<f64, ModelError> {
        self.link.validate()?;
        let n = self.n_total as f64;
        if !(0.0 < n_bbr && n_bbr <= n) {
            return Err(ModelError::InvalidParameter("n_bbr out of range"));
        }
        let n_cubic = n - n_bbr;
        if n_cubic < 1e-9 {
            return Ok(self.link.capacity / n);
        }
        let gamma = match mode {
            SyncMode::Synchronized => CUBIC_BETA,
            // Continuous extension: below one CUBIC flow the de-sync
            // formula degenerates (a single flow is trivially
            // "synchronized with itself"), so clamp N_c to 1 — which
            // makes γ = 0.7 there, matching the synchronized bound.
            SyncMode::DeSynchronized => {
                let nc = n_cubic.max(1.0);
                (nc - (1.0 - CUBIC_BETA)) / nc
            }
        };
        let pred = solve_with_gamma(&self.link, gamma)?;
        let per_flow = pred.bbr_bandwidth / n_bbr;
        if !per_flow.is_finite() {
            return Err(ModelError::NoSolution);
        }
        Ok(per_flow)
    }

    /// Solve Eq. (25) for one bound: the `n_bbr` where BBR's per-flow
    /// bandwidth crosses the fair share `C/N`.
    pub fn predict(&self, mode: SyncMode) -> Result<NashPrediction, ModelError> {
        self.link.validate()?;
        if self.n_total < 2 {
            return Err(ModelError::InvalidParameter("need at least two flows"));
        }
        let n = self.n_total as f64;
        let fair = self.link.capacity / n;
        let f = |nb: f64| -> Result<f64, ModelError> { Ok(self.bbr_per_flow(nb, mode)? - fair) };
        // At n_bbr = N the curve touches fair share exactly; the interior
        // crossing (if any) is where f changes sign. Scan coarsely, then
        // bisect.
        let steps = 512usize;
        let lo0 = 1e-3;
        let mut prev_x = lo0;
        let mut prev_f = f(prev_x)?;
        if prev_f <= 0.0 {
            // Even a vanishing BBR presence is below fair share: the NE
            // is "no BBR flows" (possible in ultra-deep buffers).
            return Ok(NashPrediction {
                mode,
                n_bbr: 0.0,
                n_cubic: n,
            });
        }
        for i in 1..=steps {
            let x = lo0 + (n - lo0) * i as f64 / steps as f64;
            let fx = f(x)?;
            if fx <= 0.0 {
                // Bisect in [prev_x, x].
                let (mut a, mut b) = (prev_x, x);
                for _ in 0..100 {
                    let m = 0.5 * (a + b);
                    if f(m)? > 0.0 {
                        a = m;
                    } else {
                        b = m;
                    }
                }
                let nb = 0.5 * (a + b);
                return Ok(NashPrediction {
                    mode,
                    n_bbr: nb,
                    n_cubic: n - nb,
                });
            }
            prev_x = x;
            prev_f = fx;
        }
        let _ = prev_f;
        // Above fair share everywhere: all flows switch to BBR (Case 1).
        Ok(NashPrediction {
            mode,
            n_bbr: n,
            n_cubic: 0.0,
        })
    }

    /// Both bounds at once — the edges of the Nash region at this buffer.
    pub fn predict_region(&self) -> Result<(NashPrediction, NashPrediction), ModelError> {
        Ok((
            self.predict(SyncMode::Synchronized)?,
            self.predict(SyncMode::DeSynchronized)?,
        ))
    }

    /// Inclusive integer bracket `[lo, hi]` (in BBR-flow counts) that
    /// covers every integer NE candidate Eq. (25) admits under either
    /// synchronization bound — the band an empirical NE is compared
    /// against.
    pub fn ne_band(&self) -> Result<(u32, u32), ModelError> {
        let (sync, desync) = self.predict_region()?;
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for p in [sync, desync] {
            for n_cubic in p.integer_candidates(self.n_total) {
                let k = self.n_total - n_cubic;
                lo = lo.min(k);
                hi = hi.max(k);
            }
        }
        if lo > hi {
            // Both predictions carried non-finite crossings.
            return Err(ModelError::NoSolution);
        }
        Ok((lo, hi))
    }

    /// The full per-distribution curve (Fig. 6): BBR per-flow bandwidth
    /// for every integer `N_b ∈ [1, N]`, plus the fair-share line.
    pub fn distribution_curve(&self, mode: SyncMode) -> Result<Vec<(u32, f64)>, ModelError> {
        let mut out = Vec::with_capacity(self.n_total as usize);
        for nb in 1..=self.n_total {
            let m = MultiFlowModel::new(self.link, self.n_total - nb, nb);
            let p = m.solve(mode)?;
            out.push((nb, p.bbr_per_flow));
        }
        Ok(out)
    }

    /// Fair-share bandwidth `C/N`, bytes/s.
    pub fn fair_share(&self) -> f64 {
        self.link.capacity / self.n_total as f64
    }
}

/// Sweep buffer sizes and compute the Nash region (Fig. 9's predicted
/// band) for a fixed flow count.
pub fn nash_region_over_buffers(
    mbps: f64,
    rtt_ms: f64,
    buffer_bdps: &[f64],
    n_total: u32,
) -> Result<NashRegion, ModelError> {
    let mut points = Vec::with_capacity(buffer_bdps.len());
    for &bdp in buffer_bdps {
        let p = NashPredictor::from_paper_units(mbps, rtt_ms, bdp, n_total);
        let (sync, desync) = p.predict_region()?;
        points.push((bdp, sync.n_cubic, desync.n_cubic));
    }
    Ok(NashRegion { points, n_total })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor(buffer_bdp: f64, n: u32) -> NashPredictor {
        NashPredictor::from_paper_units(100.0, 40.0, buffer_bdp, n)
    }

    #[test]
    fn ne_is_interior_for_moderate_buffers() {
        let p = predictor(10.0, 50);
        let (sync, desync) = p.predict_region().unwrap();
        for ne in [sync, desync] {
            assert!(
                ne.n_cubic > 0.0 && ne.n_cubic < 50.0,
                "NE should be a mixed distribution, got n_cubic={}",
                ne.n_cubic
            );
        }
    }

    #[test]
    fn deeper_buffers_mean_more_cubic_at_ne() {
        // Fig. 9's dominant trend.
        let shallow = predictor(2.0, 50).predict(SyncMode::Synchronized).unwrap();
        let deep = predictor(30.0, 50).predict(SyncMode::Synchronized).unwrap();
        assert!(
            deep.n_cubic > shallow.n_cubic,
            "shallow={} deep={}",
            shallow.n_cubic,
            deep.n_cubic
        );
    }

    #[test]
    fn region_depends_only_on_bdp_normalized_buffer() {
        // §4.4: the predicted region is identical across (C, RTT) when the
        // buffer is expressed in BDP.
        for mode in SyncMode::BOTH {
            let a = NashPredictor::from_paper_units(50.0, 20.0, 8.0, 50)
                .predict(mode)
                .unwrap();
            let b = NashPredictor::from_paper_units(100.0, 80.0, 8.0, 50)
                .predict(mode)
                .unwrap();
            assert!(
                (a.n_cubic - b.n_cubic).abs() < 1e-6,
                "mode {:?}: {} vs {}",
                mode,
                a.n_cubic,
                b.n_cubic
            );
        }
    }

    #[test]
    fn crossing_satisfies_eq25() {
        let p = predictor(10.0, 50);
        let ne = p.predict(SyncMode::Synchronized).unwrap();
        let per_flow = p.bbr_per_flow(ne.n_bbr, SyncMode::Synchronized).unwrap();
        let fair = p.fair_share();
        assert!(
            (per_flow - fair).abs() < 1e-6 * fair,
            "per_flow={per_flow} fair={fair}"
        );
    }

    #[test]
    fn distribution_curve_is_decreasing_and_ends_at_fair_share() {
        let p = predictor(3.0, 10);
        let curve = p.distribution_curve(SyncMode::Synchronized).unwrap();
        assert_eq!(curve.len(), 10);
        // Interior states (some CUBIC present): per-flow BBR bandwidth is
        // the fixed aggregate divided by N_b, hence strictly decreasing.
        for w in curve[..curve.len() - 1].windows(2) {
            assert!(
                w[0].1 >= w[1].1 - 1e-9,
                "interior curve must be non-increasing"
            );
        }
        // The all-BBR endpoint is exactly the fair share (point B in
        // Fig. 6). Note the aggregate model is discontinuous here: with
        // one CUBIC flow left, the model still gives the CUBIC
        // *aggregate* its two-aggregate share, so the curve may jump up
        // to fair share at the end — the NE crossing analysis only uses
        // states with at least one CUBIC flow.
        let last = curve.last().unwrap();
        assert!((last.1 - p.fair_share()).abs() < 1e-9);
    }

    #[test]
    fn integer_candidates_bracket_continuous_value() {
        let p = predictor(10.0, 50);
        let ne = p.predict(SyncMode::Synchronized).unwrap();
        let cands = ne.integer_candidates(50);
        assert!(!cands.is_empty() && cands.len() <= 2);
        for c in &cands {
            assert!((*c as f64 - ne.n_cubic).abs() < 1.0 + 1e-9);
        }
    }

    #[test]
    fn region_over_buffers_is_monotone_in_buffer() {
        let region =
            nash_region_over_buffers(100.0, 40.0, &[2.0, 5.0, 10.0, 20.0, 40.0], 50).unwrap();
        for w in region.points.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-6,
                "sync bound should add CUBIC with depth"
            );
        }
    }

    #[test]
    fn two_flows_minimum() {
        assert!(predictor(5.0, 1).predict(SyncMode::Synchronized).is_err());
        assert!(predictor(5.0, 2).predict(SyncMode::Synchronized).is_ok());
    }

    #[test]
    fn degenerate_links_are_rejected_not_propagated() {
        // NaN, zero, and infinite capacity must all surface as typed
        // errors from every solver entry point — never as NaN results.
        for capacity in [f64::NAN, 0.0, -5.0, f64::INFINITY] {
            let mut p = predictor(10.0, 50);
            p.link.capacity = capacity;
            assert!(
                p.predict(SyncMode::Synchronized).is_err(),
                "capacity={capacity} must be rejected by predict()"
            );
            assert!(
                p.bbr_per_flow(10.0, SyncMode::Synchronized).is_err(),
                "capacity={capacity} must be rejected by bbr_per_flow()"
            );
        }
        let mut p = predictor(10.0, 50);
        p.link.rtt = f64::NAN;
        assert!(p.predict_region().is_err());
    }

    #[test]
    fn nan_buffer_in_region_sweep_is_an_error() {
        // A single degenerate buffer point hands from_paper_units a NaN
        // buffer; the sweep must fail loudly, not emit NaN rows.
        let err = nash_region_over_buffers(100.0, 40.0, &[2.0, f64::NAN, 10.0], 50);
        assert!(err.is_err());
        let err = nash_region_over_buffers(100.0, 40.0, &[2.0, 0.0], 50);
        assert!(err.is_err());
    }

    #[test]
    fn integer_candidates_of_non_finite_crossing_are_empty() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let ne = NashPrediction {
                mode: SyncMode::Synchronized,
                n_bbr: 50.0 - bad,
                n_cubic: bad,
            };
            assert!(
                ne.integer_candidates(50).is_empty(),
                "n_cubic={bad} must yield no candidates"
            );
        }
    }

    #[test]
    fn ne_band_brackets_both_bounds_crossings() {
        for bdp in [2.0, 5.0, 10.0, 25.0] {
            let p = predictor(bdp, 50);
            let (lo, hi) = p.ne_band().unwrap();
            assert!(lo <= hi && hi <= 50, "bdp={bdp}: band ({lo}, {hi})");
            let (sync, desync) = p.predict_region().unwrap();
            for ne in [sync, desync] {
                let k_bbr = 50.0 - ne.n_cubic;
                assert!(
                    lo as f64 <= k_bbr + 1.0 + 1e-9 && k_bbr - 1.0 - 1e-9 <= hi as f64,
                    "bdp={bdp}: crossing k_bbr={k_bbr} outside band ({lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn sync_bound_has_at_least_as_much_cubic_as_desync() {
        // Under the synchronized bound BBR is weakest, so its per-flow
        // curve crosses fair share at a smaller N_b — i.e. the NE keeps
        // MORE CUBIC flows than under the de-synchronized bound.
        for bdp in [2.0, 5.0, 10.0, 25.0] {
            let (sync, desync) = predictor(bdp, 50).predict_region().unwrap();
            assert!(
                sync.n_cubic >= desync.n_cubic - 1e-6,
                "bdp={bdp}: sync={} desync={}",
                sync.n_cubic,
                desync.n_cubic
            );
        }
    }
}
