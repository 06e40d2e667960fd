//! # bbrdom-experiments — the paper's evaluation, reproduced
//!
//! One module per figure of *"Are we heading towards a BBR-dominant
//! Internet?"* (IMC '22), plus the shared machinery:
//!
//! * [`scenario`] — declarative experiment specs → simulator runs;
//! * [`engine`] — the parallel worker-pool engine with a
//!   content-addressed scenario result cache; every figure, extension
//!   and payoff sweep takes the engine it runs on as an argument;
//! * [`runner`] — the fail-soft sweep types ([`runner::SweepConfig`],
//!   [`runner::TrialOutcome`]) of [`Engine::run_sweep`];
//! * [`store`] — the indexed result store over the cache: content hash
//!   → scenario params + extracted metrics, so warm figure assembly and
//!   `repro query` skip both simulation and a file read per cell;
//! * [`payoff`] — empirical payoff curves over all `n + 1` CUBIC/X splits
//!   and the §4.4 Nash-equilibrium search;
//! * [`fluid_backend`] — lowers a [`Scenario`] onto `bbrdom-fluid`'s
//!   ODE integrator and enforces its validity envelope;
//! * [`sync`] — CUBIC loss-synchronization measurement (used to decide
//!   which model bound a trial should sit near);
//! * [`output`] — CSV/table emission for every figure;
//! * [`figs`] — `fig01` … `fig12`, each regenerating one figure's data.
//!
//! The binary `repro` drives everything:
//!
//! ```text
//! repro 3 [--full] [--out results/]
//! repro all ext --quick
//! repro 9 --ne-flows 10 --duration 20      # per-knob overrides
//! ```
//!
//! **Quick vs. full**: the paper runs 2-minute flows and 10 trials per
//! point; `--full` replicates that, while the default "quick" profile
//! shortens flows (30 s) and thins the sweep grids so the entire
//! evaluation reruns in minutes on a laptop. EXPERIMENTS.md records the
//! profile used for the committed numbers.

pub mod engine;
pub mod ext;
pub mod figs;
pub mod fluid_backend;
pub mod output;
pub mod payoff;
pub mod profile;
pub mod runner;
pub mod scenario;
pub mod store;
pub mod sync;

pub use engine::{scenario_hash, scenario_hash_hex, CacheStats, Engine, EngineConfig};
pub use profile::Profile;
pub use scenario::{
    ArrivalSpec, BackendSpec, DisciplineSpec, EarlyStopSpec, FaultSpec, FlowSpec, Scenario,
    SizeSpec, TopoLinkSpec, TopologySpec, TrialResult, WorkloadSpec,
};
pub use store::{CacheDirStats, Store, StoreEntry, StoreOutcome};
