//! Fig. 11a–b — BBRv2 Nash equilibria vs. the region predicted for BBR.
//!
//! Paper setup: repeat the Fig. 9 NE search with BBRv2 as the
//! challenger, at 50 and 100 Mbps (RTT ∈ {20, 40, 80} ms overlaid per
//! panel). Expectations: equilibria still exist (BBRv2 also starts above
//! fair share, Fig. 7), but because BBRv2 is gentler, the equilibria
//! hold *more CUBIC flows* than BBR's for the same buffer; the BBR
//! model fits best at small RTTs.

use super::fig09;
use super::FigResult;
use crate::engine::Engine;
use crate::profile::Profile;
use bbrdom_cca::CcaKind;

/// Panels: link speeds; each panel overlays the three RTTs.
pub const SPEEDS: [f64; 2] = [50.0, 100.0];
pub const RTTS_MS: [f64; 3] = [20.0, 40.0, 80.0];

pub fn run(engine: &Engine, profile: &Profile) -> FigResult {
    let mut tables = Vec::new();
    for mbps in SPEEDS {
        for rtt in RTTS_MS {
            let mut t = fig09::run_panel(engine, mbps, rtt, profile, CcaKind::BbrV2);
            t.title = format!(
                "Fig 11: #CUBIC at NE with BBRv2, {} flows, {mbps} Mbps, {rtt} ms",
                profile.ne_flows
            );
            tables.push(t);
        }
    }
    // Comparison note: average observed CUBIC share at NE, BBRv2 vs the
    // model's (BBR) sync bound.
    let mut more_cubic_points = 0usize;
    let mut total_points = 0usize;
    for t in &tables {
        for row in &t.rows {
            let sync: f64 = row[1].parse().unwrap_or(f64::NAN);
            if let Some(first) = row[3].split(';').next() {
                if let Ok(obs) = first.parse::<f64>() {
                    if sync.is_finite() {
                        total_points += 1;
                        if obs >= sync {
                            more_cubic_points += 1;
                        }
                    }
                }
            }
        }
    }
    FigResult {
        id: "fig11",
        tables,
        notes: vec![format!(
            "BBRv2 equilibria retain ≥ the BBR-predicted (sync-bound) CUBIC count at \
             {more_cubic_points}/{total_points} measured points — BBRv2 is the gentler algorithm"
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_count_matches_grid() {
        // Don't run the full fig (expensive even in smoke for 6 panels);
        // check the constants line up with the paper's grid.
        assert_eq!(SPEEDS.len() * RTTS_MS.len(), 6);
    }
}
