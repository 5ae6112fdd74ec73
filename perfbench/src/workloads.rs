//! The four benchmark workloads: which cells each one sweeps, how the
//! workload seed moves those cells' simulation seeds, and which runner
//! settings (pool size, metrics fold, trace check, cache) it uses.
//!
//! The cell sets come from the `asym-bench` spec registry, so the
//! benchmark sweeps exactly what `asym_sweep` sweeps.

use asym_bench::{concurrency_check, paper_workloads, registry, Section, SweepContext};
use asym_core::{AsymConfig, CellCache, CellRunner, ExperimentPlan, SpecMode};
use asym_kernel::SchedPolicy;

/// Run slots kept per (section, configuration) of the `extra_scale`
/// spec: 16 of 320, so 5,040 of its 100,800 cells (about 20 MB of cache
/// entries per cold sweep).
const SCALE_SLOTS: usize = 16;

/// Seed stride between workload seeds. The registry's cell seeds are
/// `base + j*1000 + i` with `j < 9` and `i < 320`, so a stride of 10,000
/// keeps every workload seed's cells disjoint from every other's.
const SEED_STRIDE: u64 = 10_000;

/// The workload seed whose per-cell results are pinned in `pinned/`.
pub const DEFAULT_SEED: u64 = 0;

/// How a workload's timed sweeps use the on-disk cell cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheUse {
    /// No cache attached.
    Off,
    /// Every timed sweep starts from an empty private cache directory.
    Cold,
    /// Every timed sweep reads a private cache filled during set-up.
    Warm,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper cells in all three execution modes, metrics fold on, report
    /// JSON built, on the engine pool at `nproc` threads.
    PaperJson,
    /// A cross-workload clean cell set under the concurrency trace check,
    /// on the engine pool at `nproc` threads.
    PaperCheck,
    /// A slice of the `extra_scale` micro-burst cells, empty cache.
    ScaleCold,
    /// The same slice against a cache filled during set-up.
    ScaleWarm,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 4] = [
        Kind::PaperJson,
        Kind::PaperCheck,
        Kind::ScaleCold,
        Kind::ScaleWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperJson => "paper-json",
            Kind::PaperCheck => "paper-check",
            Kind::ScaleCold => "scale-cold",
            Kind::ScaleWarm => "scale-warm",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Host threads of the engine pool: `nproc` for the paper workloads,
    /// whose pool balances cells across host CPUs of unequal speed; one
    /// for the scale workloads, whose cache work runs on the calling
    /// thread anyway.
    pub fn jobs(self, nproc: usize) -> usize {
        match self {
            Kind::PaperJson | Kind::PaperCheck => nproc,
            Kind::ScaleCold | Kind::ScaleWarm => 1,
        }
    }

    /// Whether the metrics fold runs (and the report JSON is built).
    pub fn metrics(self) -> bool {
        self == Kind::PaperJson
    }

    /// Whether the concurrency trace check runs on every cell.
    pub fn check(self) -> bool {
        self == Kind::PaperCheck
    }

    /// How the timed sweeps use the cell cache.
    pub fn cache(self) -> CacheUse {
        match self {
            Kind::ScaleCold => CacheUse::Cold,
            Kind::ScaleWarm => CacheUse::Warm,
            _ => CacheUse::Off,
        }
    }

    /// Stem of the pinned-digest file; the two scale workloads sweep
    /// the same cells and share one.
    pub fn pinned_file(self) -> &'static str {
        match self {
            Kind::ScaleCold | Kind::ScaleWarm => "scale",
            k => k.name(),
        }
    }

    /// The per-cell digests pinned at [`DEFAULT_SEED`].
    pub fn pinned(self) -> &'static str {
        match self {
            Kind::PaperJson => include_str!("../pinned/paper-json.txt"),
            Kind::PaperCheck => include_str!("../pinned/paper-check.txt"),
            Kind::ScaleCold | Kind::ScaleWarm => include_str!("../pinned/scale.txt"),
        }
    }

    /// Builds the workload's sections with every cell seed moved by the
    /// workload seed.
    pub fn sections(self, seed: u64) -> Vec<Section> {
        let mut sections = match self {
            Kind::PaperJson => {
                let mut s = spec("fig10", false);
                s.extend(spec("extra_fault_sweep", true));
                s.extend(spec("extra_absorption", true));
                s
            }
            Kind::PaperCheck => paper_check_sections(),
            Kind::ScaleCold | Kind::ScaleWarm => {
                let mut s = spec("extra_scale", false);
                for section in &mut s {
                    set_runs(&mut section.mode, SCALE_SLOTS);
                }
                s
            }
        };
        let offset = (seed % 1_000_000) * SEED_STRIDE;
        for section in &mut sections {
            shift_seed(&mut section.mode, offset);
        }
        sections
    }

    /// A runner with the workload's pool size, metrics and trace-check
    /// settings, and `cache` attached when given.
    pub fn runner(self, jobs: usize, cache: Option<CellCache>) -> CellRunner {
        let mut runner = CellRunner::new(jobs).with_metrics(self.metrics());
        if self.check() {
            runner = runner.with_trace_check(concurrency_check());
        }
        if let Some(cache) = cache {
            runner = runner.with_cache(cache);
        }
        runner
    }
}

/// Expands every section into one plan, as `asym_sweep` does.
pub fn plan<'a>(name: &str, sections: &'a [Section]) -> ExperimentPlan<'a> {
    let mut plan = ExperimentPlan::new(name);
    for s in sections {
        plan.push(
            s.label.as_str(),
            s.workload.as_ref(),
            &s.configs,
            s.mode.clone(),
        );
    }
    plan
}

/// The sections of one registered spec.
fn spec(name: &str, quick: bool) -> Vec<Section> {
    let spec = registry()
        .into_iter()
        .find(|s| s.name == name)
        .expect("the benchmark names registered specs only");
    (spec.build)(&SweepContext { quick }).sections
}

/// Every paper workload on the standard nine configurations, one run
/// each, under the stock kernel: 72 clean cells. Each cell's trace
/// length follows its seed; 72 cells keep the sum steady across seeds.
fn paper_check_sections() -> Vec<Section> {
    let nine = AsymConfig::standard_nine();
    paper_workloads()
        .into_iter()
        .map(|w| {
            let label = format!("check/{}", w.name());
            Section::clean(label, w, &nine, SchedPolicy::os_default(), 1, 0)
        })
        .collect()
}

fn set_runs(mode: &mut SpecMode, runs: usize) {
    match mode {
        SpecMode::Clean { options, .. } => options.runs = runs,
        SpecMode::Resilient { options, .. } | SpecMode::Differential { options } => {
            options.runs = runs;
        }
    }
}

fn shift_seed(mode: &mut SpecMode, offset: u64) {
    match mode {
        SpecMode::Clean { options, .. } => options.base_seed += offset,
        SpecMode::Resilient { options, .. } | SpecMode::Differential { options } => {
            options.base_seed += offset;
        }
    }
}
