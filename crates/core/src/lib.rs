//! # asym-core
//!
//! The methodology of *"The Impact of Performance Asymmetry in Emerging
//! Multicore Architectures"* (ISCA 2005), as a library:
//!
//! * [`AsymConfig`] — the paper's `nf-ms/scale` machine configurations
//!   (duty-cycle-modulated cores) and the standard nine-configuration
//!   sweep;
//! * [`Workload`] — anything that can run once on a configuration and
//!   produce a metric;
//! * [`run_experiment`] — repeated runs per configuration in one
//!   [`SpecMode`], on the [`CellRunner`] host thread pool, with full
//!   determinism per seed: clean runs; resilient runs (per-run fault and
//!   environment plans, watchdogs and sim-time budgets, contained
//!   panics, per-run [`RunClass`] classification, bounded retries, and
//!   partial results when a configuration is wiped out); or
//!   differential stock-vs-aware runs under identical disturbances;
//! * [`Experiment`] — the one result shape of every mode: per
//!   configuration, one [`RunRecord`] per executed leg;
//! * [`Samples`], [`Stability`], [`Scalability`] — the paper's two
//!   predictability metrics;
//! * [`SummaryRow`] / [`Verdict`] — Table-1-style qualitative verdicts,
//!   including "No (Yes with asymmetry-aware kernel)" remedy annotations.
//!
//! # Examples
//!
//! ```
//! use asym_core::{run_experiment, AsymConfig, Direction, ExperimentOptions,
//!                 RunResult, RunSetup, SpecMode, Workload};
//! use asym_kernel::SchedPolicy;
//!
//! /// A toy workload whose throughput is exactly proportional to compute
//! /// power (and therefore perfectly stable and scalable).
//! struct Ideal;
//! impl Workload for Ideal {
//!     fn name(&self) -> &str { "ideal" }
//!     fn unit(&self) -> &str { "ops/s" }
//!     fn direction(&self) -> Direction { Direction::HigherIsBetter }
//!     fn run(&self, setup: &RunSetup) -> RunResult {
//!         RunResult::new(setup.config.compute_power() * 1000.0)
//!     }
//! }
//!
//! let exp = run_experiment(
//!     &Ideal,
//!     &AsymConfig::standard_nine(),
//!     SpecMode::Clean {
//!         policy: SchedPolicy::os_default(),
//!         options: ExperimentOptions::new(3),
//!     },
//! );
//! assert!(exp.scalability().is_predictable(0.95));
//! assert!(exp.worst_asymmetric_cov() < 1e-12);
//! ```

#![warn(missing_docs)]

mod cache;
mod config;
mod engine;
mod experiment;
mod metrics;
mod summary;
mod table;
mod workload;

pub use cache::{CacheStats, CellCache};
pub use config::{AsymConfig, ParseConfigError};
pub use engine::{
    default_jobs, resolve_jobs, Cell, CellReport, CellRunner, ExperimentPlan, KernelCheck,
    PlanOutcome, SpecMode, SweepReport, TraceCheck,
};
pub use experiment::{
    run_experiment, ConfigOutcome, DifferentialRep, EnvPlanner, Experiment, ExperimentOptions,
    FaultPlanner, ResilientOptions, RunClass, RunRecord,
};
pub use metrics::{Direction, Samples, Scalability, Stability};
pub use summary::{SummaryRow, Verdict, WorkloadClass};
pub use table::{fmt_f, fmt_pct, TextTable};
pub use workload::{RunResult, RunSetup, Workload};
