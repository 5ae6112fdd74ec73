//! The cell-based experiment engine.
//!
//! Every figure of the paper is a sweep over (workload × configuration ×
//! policy × seed) cells, and each cell is an independent,
//! seed-deterministic simulation. This module makes that the unit of
//! execution: an [`ExperimentPlan`] expands any sweep into a flat list
//! of [`Cell`]s with precomputed seeds and fault plans, and a
//! [`CellRunner`] executes the cells on a host thread pool (size
//! controlled by `--jobs` flags or the `ASYM_JOBS` environment variable,
//! defaulting to `available_parallelism`) and reassembles results in
//! deterministic plan order, so parallel output is bit-identical to
//! serial.
//!
//! There is one cell pipeline. A cell's [`SpecMode`] lowers it into
//! *legs* — one for clean and resilient cells, four (stock/aware ×
//! undisturbed/disturbed) for differential cells — and every leg runs
//! through the same guarded, classified retry loop, producing one
//! [`RunRecord`]. Clean mode is that loop with no retries and an empty
//! guard. Records are the unit of every result: the assembled
//! [`Experiment`]s hold them, the on-disk cache stores them, and each
//! cell's [`CellReport`] is derived from them. Cells are deduplicated
//! and cached under one key: the first
//! cell with a given key executes (or is restored from the on-disk
//! [`CellCache`]), and later cells with the same key copy its outcome.
//!
//! Alongside the assembled experiment results, every run of a plan
//! produces a [`SweepReport`]: per-cell wall-clock timings, retry
//! counts, classifications, and trace hashes, serializable as JSON (a
//! hand-rolled writer, no dependencies) — the repository's perf
//! trajectory artifact (`BENCH_sweep.json`).

use crate::cache::{CacheStats, CellCache, Lookup};
use crate::config::AsymConfig;
use crate::experiment::{
    ConfigOutcome, DifferentialRep, Experiment, ExperimentOptions, ResilientOptions, RunClass,
    RunRecord,
};
use crate::workload::{RunSetup, Workload};
use asym_kernel::{
    capture_stream, with_run_guard, RunGuard, RunOutcome, SchedPolicy, TraceConsumer, TraceEvent,
    TraceHashFold, TraceHasher,
};
use asym_obs::{DiffAttribution, ProfileFold, ProfileMetrics};
use asym_sim::{EnvironmentPlan, FaultPlan, MachineSpec, SimDuration, SimTime, StableHasher};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::hash::{BuildHasherDefault, Hash, Hasher as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ----------------------------------------------------------------------
// Host parallelism
// ----------------------------------------------------------------------

/// Resolves the host-thread-pool size: an explicit request (a `--jobs`
/// flag) wins, then the `ASYM_JOBS` environment variable, then
/// `available_parallelism`. Zero and unparseable values are ignored.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var("ASYM_JOBS")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// The default pool size: `ASYM_JOBS` if set, else `available_parallelism`.
pub fn default_jobs() -> usize {
    resolve_jobs(None)
}

// ----------------------------------------------------------------------
// Plans and cells
// ----------------------------------------------------------------------

/// How one experiment in a plan executes its cells: which harness
/// semantics (clean / resilient / differential) and with what options.
#[derive(Clone)]
pub enum SpecMode {
    /// The clean harness: one run per cell, no guard, no retries; a run
    /// that does not complete fails the sweep.
    Clean {
        /// Scheduling policy for every run.
        policy: SchedPolicy,
        /// Runs per configuration and base seed.
        options: ExperimentOptions,
    },
    /// The resilient harness: guarded, classified, adaptively retried
    /// runs (see [`run_experiment`](crate::run_experiment)).
    Resilient {
        /// Scheduling policy for every run.
        policy: SchedPolicy,
        /// Slots, retries, watchdog, budget, plans, trace check.
        options: ResilientOptions,
    },
    /// The differential harness: each cell runs four times (stock/aware
    /// × clean/faulted) from one seed and one shared fault plan (see
    /// [`run_experiment`](crate::run_experiment)).
    Differential {
        /// Repeats, retries, watchdog, budget, plans, trace check.
        options: ResilientOptions,
    },
}

/// The options clean cells run their single leg under: no retries, no
/// watchdog, no budget, no plans, no check — an empty, inert
/// [`RunGuard`].
static CLEAN: ResilientOptions = ResilientOptions::new(1).retries(0);

impl SpecMode {
    /// Short machine-readable mode name (used in the JSON sink).
    pub fn name(&self) -> &'static str {
        match self {
            SpecMode::Clean { .. } => "clean",
            SpecMode::Resilient { .. } => "resilient",
            SpecMode::Differential { .. } => "differential",
        }
    }

    /// The options every leg's guard and retry ladder read.
    fn leg_options(&self) -> &ResilientOptions {
        match self {
            SpecMode::Clean { .. } => &CLEAN,
            SpecMode::Resilient { options, .. } | SpecMode::Differential { options } => options,
        }
    }

    /// Runs per configuration and the base seed.
    fn slots(&self) -> (usize, u64) {
        match self {
            SpecMode::Clean { options, .. } => (options.runs, options.base_seed),
            _ => (self.leg_options().runs, self.leg_options().base_seed),
        }
    }

    /// The policy recorded per cell and per result: the run policy, or
    /// the canonical stock policy for differential cells (which run both).
    fn policy(&self) -> SchedPolicy {
        match self {
            SpecMode::Clean { policy, .. } | SpecMode::Resilient { policy, .. } => *policy,
            SpecMode::Differential { .. } => SchedPolicy::os_default(),
        }
    }
}

/// One experiment inside a plan.
struct PlanSpec<'w> {
    label: String,
    workload: &'w dyn Workload,
    configs: Vec<AsymConfig>,
    mode: SpecMode,
}

/// One schedulable unit of a sweep: a single run slot (clean/resilient)
/// or one four-run differential repeat. Seeds and the *initial* fault
/// plan are precomputed at plan-expansion time, so execution order can
/// never influence them; only reseeding retries re-derive a plan.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Index of the owning spec within the plan.
    pub spec: usize,
    /// Index of the cell's configuration within the spec's `configs`.
    pub config_index: usize,
    /// Run slot (clean/resilient) or repeat index (differential) within
    /// the configuration.
    pub rep: usize,
    /// The precomputed setup (config, policy, seed) of the first attempt.
    pub setup: RunSetup,
    /// The precomputed fault plan of the first attempt, if the spec has
    /// a fault planner.
    pub fault_plan: Option<FaultPlan>,
    /// The precomputed environment plan of the first attempt, if the
    /// spec has an environment planner.
    pub environment: Option<EnvironmentPlan>,
}

/// A flat, deterministic expansion of one or more experiments into
/// [`Cell`]s, ready for a [`CellRunner`].
///
/// Pushing a spec expands its cells immediately, in configuration-major
/// seed order — the exact order the serial harnesses used — so results
/// reassembled by cell index are independent of execution interleaving.
pub struct ExperimentPlan<'w> {
    name: String,
    specs: Vec<PlanSpec<'w>>,
    cells: Vec<Cell>,
}

impl<'w> ExperimentPlan<'w> {
    /// An empty plan named `name` (the name labels the [`SweepReport`]).
    pub fn new(name: impl Into<String>) -> Self {
        ExperimentPlan {
            name: name.into(),
            specs: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Adds one experiment to the plan and expands its cells. Returns
    /// the spec's index (its position in [`PlanOutcome::results`]).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or the mode's `runs` is zero.
    pub fn push(
        &mut self,
        label: impl Into<String>,
        workload: &'w dyn Workload,
        configs: &[AsymConfig],
        mode: SpecMode,
    ) -> usize {
        let (runs, base_seed) = mode.slots();
        assert!(!configs.is_empty(), "need at least one configuration");
        assert!(runs > 0, "need at least one run");
        let index = self.specs.len();
        let policy = mode.policy();
        let options = mode.leg_options();
        for (j, &config) in configs.iter().enumerate() {
            for i in 0..runs {
                let setup = RunSetup::new(config, policy, base_seed + j as u64 * 1000 + i as u64);
                self.cells.push(Cell {
                    spec: index,
                    config_index: j,
                    rep: i,
                    setup,
                    fault_plan: options.planner.as_ref().map(|p| p(&setup)),
                    environment: options.env_planner.as_ref().map(|p| p(&setup)),
                });
            }
        }
        self.specs.push(PlanSpec {
            label: label.into(),
            workload,
            configs: configs.to_vec(),
            mode,
        });
        index
    }

    /// Number of cells in the plan.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the plan has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

// ----------------------------------------------------------------------
// Cell keys: one for in-plan dedup and the on-disk cache
// ----------------------------------------------------------------------

/// The content address of one cell: every input that can steer its
/// execution. Equal keys mean equal outcomes, so the first cell with a
/// key stands for every later one — in the plan (in-plan dedup) and on
/// disk (the [`CellCache`] entry is addressed by the key's rendering).
#[derive(PartialEq, Eq, Hash)]
struct CellKey<'a> {
    /// The workload's [`Workload::spec_key`].
    spec: &'a str,
    config: AsymConfig,
    policy: SchedPolicy,
    seed: u64,
    mode: &'static str,
    /// [`StableHasher`] digests of the precomputed fault and environment
    /// plans.
    faults: Option<u64>,
    environment: Option<u64>,
    /// Resilient cells: the retries, budget, and watchdog the retry
    /// ladder reads.
    knobs: Option<(u32, Option<SimDuration>, Option<SimDuration>)>,
}

impl fmt::Display for CellKey<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spec={}|config={}|policy={}|seed={}|mode={}",
            self.spec, self.config, self.policy, self.seed, self.mode
        )?;
        for (name, digest) in [("faults", self.faults), ("env", self.environment)] {
            match digest {
                Some(d) => write!(f, "|{name}={d:016x}")?,
                None => write!(f, "|{name}=none")?,
            }
        }
        if let Some((retries, budget, watchdog)) = self.knobs {
            let nanos =
                |d: Option<SimDuration>| d.map_or("none".into(), |d| d.as_nanos().to_string());
            let (budget, watchdog) = (nanos(budget), nanos(watchdog));
            write!(f, "|retries={retries}|budget={budget}|watchdog={watchdog}")?;
        }
        Ok(())
    }
}

/// The [`StableHasher`] digest of a fault or environment plan.
fn plan_digest(plan: &impl Hash) -> u64 {
    let mut h = StableHasher::new();
    plan.hash(&mut h);
    h.finish()
}

/// The key of one cell, or `None` when the cell is never deduplicated
/// or cached: cells of a spec with its own trace check — the check must
/// see every requested run — and differential cells, whose four legs
/// are paired in one cell. `spec_key` is the owning spec's
/// [`Workload::spec_key`], rendered once per spec.
fn cache_key<'a>(spec: &PlanSpec<'_>, spec_key: &'a str, cell: &Cell) -> Option<CellKey<'a>> {
    let knobs = match &spec.mode {
        SpecMode::Clean { .. } => None,
        SpecMode::Resilient { options, .. } if options.check.is_none() => {
            Some((options.retries, options.sim_time_budget, options.watchdog))
        }
        _ => return None,
    };
    Some(CellKey {
        spec: spec_key,
        config: cell.setup.config,
        policy: cell.setup.policy,
        seed: cell.setup.seed,
        mode: spec.mode.name(),
        faults: cell.fault_plan.as_ref().map(plan_digest),
        environment: cell.environment.as_ref().map(plan_digest),
        knobs,
    })
}

// ----------------------------------------------------------------------
// Cell execution: legs, attempts, and the retry ladder
// ----------------------------------------------------------------------

/// Stride between retry seeds: a prime far from the `j * 1000 + i` seed
/// grid, so a reseeded attempt never collides with another slot.
pub(crate) const RETRY_SEED_STRIDE: u64 = 7919;

/// Cap on sim-time-budget escalation: a `TimeLimit` retry doubles the
/// budget each attempt, up to this multiple of the configured budget.
pub(crate) const MAX_BUDGET_FACTOR: u32 = 8;

/// One kernel's trace check: a [`TraceConsumer`] fed the kernel's events
/// as they are emitted, beside the trace hasher and the metrics fold,
/// that renders its findings once the stream has closed.
pub trait KernelCheck: TraceConsumer {
    /// The rendered findings (empty = clean), after
    /// [`on_close`](TraceConsumer::on_close).
    fn findings(self: Box<Self>) -> Vec<String>;
}

/// A trace check: a factory of one [`KernelCheck`] per kernel an attempt
/// creates, given the kernel's machine and policy. The engine stays
/// agnostic about what is checked — `asym-analysis` plugs any selection
/// of its twelve analyses in through this hook, either for a whole run
/// ([`CellRunner::with_trace_check`], `asym_sweep --check`) or for one
/// spec ([`ResilientOptions::check`]). No trace is ever buffered for it.
pub type TraceCheck = Arc<dyn Fn(&MachineSpec, SchedPolicy) -> Box<dyn KernelCheck> + Send + Sync>;

/// The four legs of a differential cell, in leg order: name, whether
/// the leg runs the asymmetry-aware policy (else stock), and whether it
/// runs under the cell's fault and environment plans.
const DIFFERENTIAL_LEGS: [(&str, bool, bool); 4] = [
    ("stock-clean", false, false),
    ("stock-faulted", false, true),
    ("aware-clean", true, false),
    ("aware-faulted", true, true),
];

/// What one executed cell produced, before reassembly.
#[derive(Clone)]
struct CellOutcome {
    /// One record per leg, in leg order: one for clean and resilient
    /// cells, four for differential cells.
    legs: Vec<RunRecord>,
    /// Differential cells: the attribution between the disturbed legs.
    diff: Option<DiffAttribution>,
    wall_nanos: u64,
    memoized: bool,
    cached: bool,
}

impl CellOutcome {
    /// The copy stored for a deduplicated cell: same results, but marked
    /// memoized and charged zero wall-clock (no host time was spent).
    /// The `cached` flag carries over — a copy of a cache hit is itself
    /// cache-derived.
    fn memoized_copy(&self) -> CellOutcome {
        let mut copy = self.clone();
        copy.wall_nanos = 0;
        copy.memoized = true;
        copy
    }
}

/// Classifies one kernel's ending. A `TimeLimit` outcome only fails the
/// run when the kernel's own budget (not a caller-chosen measurement
/// window) cut it short — that is what `budget_exhausted` records.
fn classify_one(outcome: Option<RunOutcome>, budget_exhausted: bool) -> RunClass {
    match outcome {
        Some(RunOutcome::Deadlock(_)) => RunClass::Deadlock,
        Some(RunOutcome::Stalled) => RunClass::Stalled,
        _ if budget_exhausted => RunClass::TimeLimit,
        _ => RunClass::Completed,
    }
}

/// The engine's streaming trace consumer: one per kernel, feeding the
/// stable hash, the run profile (when metrics are wanted) and every
/// installed check from one stream as events are emitted. No
/// [`KernelTrace`](asym_kernel::KernelTrace) is ever materialized, and
/// the profile fold runs without its Perfetto timeline (the engine keeps
/// only the metrics), so the fold and hash are O(1) in trace length.
/// Only the profile and diff tools build the timeline, which is
/// O(events).
struct CellFold {
    hasher: TraceHasher,
    profile: Option<ProfileFold>,
    /// The runner's check, then the spec's, for this kernel.
    checks: Vec<Box<dyn KernelCheck>>,
    /// How the kernel ended, once the stream has closed.
    class: RunClass,
}

impl TraceConsumer for CellFold {
    fn on_event(&mut self, time: SimTime, event: &TraceEvent) {
        self.hasher.on_event(time, event);
        if let Some(p) = self.profile.as_mut() {
            p.on_event(time, event);
        }
        for c in &mut self.checks {
            c.on_event(time, event);
        }
    }

    fn on_shared_label(&mut self, label: &str) {
        for c in &mut self.checks {
            c.on_shared_label(label);
        }
    }

    fn on_close(&mut self, outcome: Option<RunOutcome>, budget_exhausted: bool) {
        self.hasher.on_close(outcome, budget_exhausted);
        if let Some(p) = self.profile.as_mut() {
            p.on_close(outcome, budget_exhausted);
        }
        for c in &mut self.checks {
            c.on_close(outcome, budget_exhausted);
        }
        self.class = classify_one(outcome, budget_exhausted);
    }
}

/// Applies one rung of the fault-softening ladder: level 0 is the full
/// plan, 1 drops thread kills, 2 additionally drops hotplug, and 3+
/// injects nothing at all.
pub(crate) fn soften_plan(plan: FaultPlan, level: u32) -> Option<FaultPlan> {
    match level {
        0 => Some(plan),
        1 => Some(plan.without_kills()),
        2 => Some(plan.without_kills().without_hotplug()),
        _ => None,
    }
}

/// One guarded, panic-contained attempt, recorded as a one-attempt
/// [`RunRecord`] (panicked: no value, extras, hash, or metrics). Every
/// kernel's stream is folded as it is emitted into the worst
/// classification, the folded trace hash, the merged metrics and the
/// checks' findings — check by check (the runner's, then the spec's),
/// each in kernel-creation order. Byte-identical to capturing buffered
/// traces and post-processing them, which the engine's
/// `streamed_equals_buffered` test pins.
fn attempt_run(
    workload: &dyn Workload,
    setup: &RunSetup,
    guard: RunGuard,
    want_metrics: bool,
    checks: [Option<&TraceCheck>; 2],
) -> RunRecord {
    let mut record = RunRecord {
        seed: setup.seed,
        attempts: 1,
        class: RunClass::Panicked,
        value: None,
        extras: Vec::new(),
        trace_hash: None,
        metrics: None,
        violations: Vec::new(),
    };
    let checks: Vec<TraceCheck> = checks.into_iter().flatten().cloned().collect();
    let mut findings = vec![Vec::new(); checks.len()];
    let fold = move |machine: &MachineSpec, policy| CellFold {
        hasher: TraceHasher::new(),
        profile: want_metrics.then(|| ProfileFold::without_timeline(machine, policy)),
        checks: checks.iter().map(|c| c(machine, policy)).collect(),
        class: RunClass::Completed,
    };
    let run = || capture_stream(fold, || with_run_guard(guard, || workload.run(setup)));
    let Ok((result, folds)) = catch_unwind(AssertUnwindSafe(run)) else {
        return record;
    };
    let mut hash = TraceHashFold::new();
    let mut metrics = want_metrics.then(ProfileMetrics::new);
    record.class = RunClass::Completed;
    for fold in folds {
        record.class = record.class.max(fold.class);
        hash.push(fold.hasher.finish());
        if let (Some(acc), Some(p)) = (metrics.as_mut(), fold.profile) {
            acc.merge(&p.finish().metrics());
        }
        for (found, check) in findings.iter_mut().zip(fold.checks) {
            found.extend(check.findings());
        }
    }
    record.trace_hash = Some(hash.finish());
    record.metrics = metrics.map(Arc::new);
    record.violations = findings.concat();
    record.value = Some(result.value).filter(|_| record.class == RunClass::Completed);
    record.extras = result.extras.into_iter().collect();
    record
}

/// How a failed attempt changes the next one.
enum Escalation {
    /// Same seed, twice the sim-time budget (capped at
    /// [`MAX_BUDGET_FACTOR`]×).
    DoubleBudget,
    /// Same seed, one rung softer fault plan (see [`soften_plan`]).
    Soften,
    /// A fresh seed (stride [`RETRY_SEED_STRIDE`]), with the plans
    /// re-derived from it.
    Reseed,
}

/// The retry ladder: how an attempt that ended in `class` escalates, or
/// `None` when the leg stops here.
///
/// * [`RunClass::TimeLimit`] — the run was legitimate but slow (faults
///   can stretch a run well past its clean duration): double the budget
///   on the same seed.
/// * [`RunClass::Stalled`] — the fault schedule drove the workload into
///   a livelock: soften the fault plan on the same seed.
/// * [`RunClass::Deadlock`] / [`RunClass::Panicked`] — wedged in a way
///   no budget or fault change explains: reseed.
///
/// Paired (differential) legs must keep the seed and plan their twins
/// ran, so they only ever double a budget still below the cap; any
/// other failure is recorded as-is.
fn escalation(class: RunClass, paired: bool, budget_factor: u32) -> Option<Escalation> {
    match class {
        RunClass::Completed => None,
        RunClass::TimeLimit if !paired || budget_factor < MAX_BUDGET_FACTOR => {
            Some(Escalation::DoubleBudget)
        }
        _ if paired => None,
        RunClass::Stalled => Some(Escalation::Soften),
        _ => Some(Escalation::Reseed),
    }
}

/// Runs one leg of `cell` — under `policy`, and under the cell's fault
/// and environment plans when `disturbed` — through the retry ladder:
/// attempt, classify, escalate, until the leg completes, the ladder
/// stops it, or the spec's retries are spent. Differential legs are
/// paired. Every attempt runs the runner's `check` and the spec's own
/// check; the final attempt's record comes back carrying the findings
/// of every attempt.
fn run_leg(
    spec: &PlanSpec<'_>,
    cell: &Cell,
    policy: SchedPolicy,
    disturbed: bool,
    want_metrics: bool,
    check: Option<&TraceCheck>,
) -> RunRecord {
    let options = spec.mode.leg_options();
    let paired = matches!(spec.mode, SpecMode::Differential { .. });
    let checks = [check, options.check.as_ref()];
    let want_metrics = want_metrics || options.check.is_some();
    let mut earlier_findings = Vec::new();
    let mut attempts = 0u32;
    let mut seed_bump = 0u64;
    let mut budget_factor = 1u32;
    let mut soften = 0u32;
    loop {
        attempts += 1;
        let setup = RunSetup::new(cell.setup.config, policy, cell.setup.seed + seed_bump);
        // The first attempt reuses the plans precomputed at expansion;
        // reseeded attempts re-derive them from the bumped seed.
        // Environment plans are never softened: a hostile environment
        // is the condition under test, not an injected defect.
        let (faults, environment) = match (disturbed, seed_bump) {
            (false, _) => (None, None),
            (true, 0) => (cell.fault_plan.clone(), cell.environment.clone()),
            (true, _) => (
                options.planner.as_ref().map(|p| p(&setup)),
                options.env_planner.as_ref().map(|p| p(&setup)),
            ),
        };
        let mut guard = RunGuard::new();
        if let Some(w) = options.watchdog {
            guard = guard.watchdog(w);
        }
        if let Some(b) = options.sim_time_budget {
            guard = guard.sim_time_budget(SimDuration::from_nanos(
                b.as_nanos().saturating_mul(u64::from(budget_factor)),
            ));
        }
        if let Some(plan) = faults.and_then(|f| soften_plan(f, soften)) {
            guard = guard.fault_plan(plan);
        }
        if let Some(env) = environment {
            guard = guard.environment(env);
        }
        let mut record = attempt_run(spec.workload, &setup, guard, want_metrics, checks);
        let next = if attempts > options.retries {
            None
        } else {
            escalation(record.class, paired, budget_factor)
        };
        let Some(next) = next else {
            record.attempts = attempts;
            earlier_findings.append(&mut record.violations);
            record.violations = earlier_findings;
            return record;
        };
        let prefixed = record
            .violations
            .iter()
            .map(|v| format!("attempt {attempts}: {v}"));
        earlier_findings.extend(prefixed);
        match next {
            Escalation::DoubleBudget => {
                budget_factor = (budget_factor * 2).min(MAX_BUDGET_FACTOR);
            }
            Escalation::Soften => soften += 1,
            Escalation::Reseed => seed_bump += RETRY_SEED_STRIDE,
        }
    }
}

/// Executes one cell: lowers its mode into legs and runs each leg
/// through [`run_leg`].
fn exec_cell(
    spec: &PlanSpec<'_>,
    cell: &Cell,
    want_metrics: bool,
    check: Option<&TraceCheck>,
) -> CellOutcome {
    let start = Instant::now();
    let (legs, diff) = if let SpecMode::Differential { .. } = spec.mode {
        // Four runs from the cell's single seed: each policy once
        // undisturbed and once under the cell's fault and environment
        // plans, so the absorption metric quantifies how much of the
        // disturbance the aware policy recovers. Metrics are always
        // derived for differential legs: the diff attribution needs the
        // disturbed legs' metrics, and the fold is pure — it cannot
        // perturb the run.
        let legs: Vec<RunRecord> = DIFFERENTIAL_LEGS
            .iter()
            .map(|&(_, aware, disturbed)| {
                let policy = if aware {
                    SchedPolicy::asymmetry_aware()
                } else {
                    SchedPolicy::os_default()
                };
                run_leg(spec, cell, policy, disturbed, true, check)
            })
            .collect();
        // The disturbed legs: stock-faulted and aware-faulted.
        let diff = match (&legs[1].metrics, &legs[3].metrics) {
            (Some(stock), Some(aware)) => Some(DiffAttribution::from_metrics(stock, aware)),
            _ => None,
        };
        (legs, diff)
    } else {
        let leg = run_leg(spec, cell, cell.setup.policy, true, want_metrics, check);
        (vec![leg], None)
    };
    CellOutcome {
        legs,
        diff,
        wall_nanos: start.elapsed().as_nanos() as u64,
        memoized: false,
        cached: false,
    }
}

// ----------------------------------------------------------------------
// The runner
// ----------------------------------------------------------------------

/// Executes an [`ExperimentPlan`]'s cells on a host thread pool and
/// reassembles results in plan order.
///
/// The pool is a shared work queue over `std::thread::scope`: each of
/// `jobs` OS workers pulls the next unclaimed cell index until the plan
/// is drained, writing its outcome into the cell's own slot. Because
/// every cell's seed and fault plan were precomputed at expansion, and
/// ambient kernel state (trace capture, [`RunGuard`]) is per host
/// thread, results are bit-identical whatever the pool size.
pub struct CellRunner {
    jobs: usize,
    metrics: bool,
    check: Option<TraceCheck>,
    cache: Option<CellCache>,
}

impl CellRunner {
    /// A runner with an explicit pool size (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        CellRunner {
            jobs: jobs.max(1),
            metrics: false,
            check: None,
            cache: None,
        }
    }

    /// Attaches a persistent on-disk cell cache: before executing,
    /// every keyed cell (clean cells and resilient cells without a spec
    /// check, when no runner check is installed) is looked up by its
    /// content address, and its stored [`RunRecord`] is restored without
    /// running the simulation.
    /// Misses execute normally and are stored afterwards. Hit, miss,
    /// skip, store, and invalidation counts land in
    /// [`SweepReport::cache`]. Off by default.
    pub fn with_cache(mut self, cache: CellCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Installs a trace check for every cell: each attempt of every leg
    /// streams every kernel's events through a consumer `check` builds
    /// for it, alongside the trace hash, and the findings land in
    /// [`RunRecord::violations`] (earlier attempts prefixed
    /// `attempt k: `), hence in [`CellReport::violations`] and the JSON
    /// sink. Memoized cells reuse their primary's findings — the traces
    /// are identical by construction. Off by default.
    pub fn with_trace_check(mut self, check: TraceCheck) -> Self {
        self.check = Some(check);
        self
    }

    /// Enables (or disables) per-cell observability metrics: every leg
    /// folds its kernels' events into a [`ProfileMetrics`] record as they
    /// stream by, and each [`CellReport`] carries its cell's merged
    /// record, which the JSON sink then emits. Off by default — the fold
    /// costs time on every event.
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// The pool size this runner will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every cell of `plan` and reassembles per-spec results plus
    /// the structured [`SweepReport`].
    ///
    /// # Panics
    ///
    /// Panics if a clean cell did not complete (its workload panicked or
    /// a kernel it created deadlocked, stalled, or ran out of budget):
    /// a clean sample must be a real measurement.
    pub fn run(&self, plan: ExperimentPlan<'_>) -> PlanOutcome {
        let start = Instant::now();
        let (outcomes, cache) = self.run_cells(&plan);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        let report = build_report(&plan, &outcomes, self.jobs, wall_ms, cache, self.metrics);
        let results = assemble(plan, outcomes);
        PlanOutcome { results, report }
    }

    /// Executes all cells, preserving slot order.
    ///
    /// Every cell gets one key ([`cache_key`]); the first cell with a
    /// given key is its *primary*. Later cells with the same key are
    /// never executed: the primary's outcome is copied into their slot
    /// afterwards (marked memoized, zero wall-clock). Because the
    /// primary is always the *first* occurrence in plan order, copies
    /// are filled front to back in one pass, whatever the pool size.
    ///
    /// When a [`CellCache`] is attached, each keyed primary is probed on
    /// the calling thread as its key is computed, and hits are restored;
    /// only the remaining cells execute, and a store pass afterwards
    /// persists what they produced. Both passes stay off the pool, so
    /// cache I/O never perturbs worker scheduling and the stats need no
    /// synchronization.
    fn run_cells(&self, plan: &ExperimentPlan<'_>) -> (Vec<CellOutcome>, Option<CacheStats>) {
        let spec_keys: Vec<String> = plan.specs.iter().map(|s| s.workload.spec_key()).collect();
        let mut first: HashMap<CellKey<'_>, usize, BuildHasherDefault<StableHasher>> =
            HashMap::with_capacity_and_hasher(plan.cells.len(), Default::default());
        let mut primary_of = Vec::with_capacity(plan.cells.len());
        let mut slots = Vec::with_capacity(plan.cells.len());
        let mut todo = Vec::new();
        let mut stats = self.cache.as_ref().map(|_| CacheStats::default());
        let mut stores: Vec<(usize, String)> = Vec::new();
        for (i, cell) in plan.cells.iter().enumerate() {
            let key = cache_key(&plan.specs[cell.spec], &spec_keys[cell.spec], cell);
            let (primary, rendered) = match key.map(|k| first.entry(k)) {
                Some(Entry::Occupied(e)) => (Some(*e.get()), None),
                Some(Entry::Vacant(v)) => {
                    // A check's findings are not stored, so under a
                    // check a hit could silently drop violations.
                    let rendered =
                        (self.cache.is_some() && self.check.is_none()).then(|| v.key().to_string());
                    v.insert(i);
                    (None, rendered)
                }
                None => (None, None),
            };
            let mut restored = None;
            if let (Some(cache), Some(st), None) = (&self.cache, stats.as_mut(), primary) {
                match rendered {
                    None => st.skips += 1,
                    Some(key) => match cache.load(&key, self.metrics) {
                        Lookup::Hit(record) => {
                            st.hits += 1;
                            restored = Some(CellOutcome {
                                legs: vec![*record],
                                diff: None,
                                wall_nanos: 0,
                                memoized: false,
                                cached: true,
                            });
                        }
                        Lookup::Stale => {
                            st.invalidations += 1;
                            stores.push((i, key));
                        }
                        Lookup::Miss => {
                            st.misses += 1;
                            stores.push((i, key));
                        }
                    },
                }
            }
            if primary.is_none() && restored.is_none() {
                todo.push(i);
            }
            primary_of.push(primary);
            slots.push(Mutex::new(restored));
        }
        self.exec_cells(plan, &todo, &slots);
        let mut outs: Vec<CellOutcome> = Vec::with_capacity(slots.len());
        for (slot, primary) in slots.into_iter().zip(primary_of) {
            let out = match primary {
                Some(j) => outs[j].memoized_copy(),
                None => slot
                    .into_inner()
                    .expect("cell slot poisoned")
                    .expect("cell ran"),
            };
            outs.push(out);
        }
        if let (Some(cache), Some(st)) = (&self.cache, stats.as_mut()) {
            for (i, key) in &stores {
                if cache.store(key, &outs[*i].legs[0]).is_ok() {
                    st.stores += 1;
                }
            }
        }
        (outs, stats)
    }

    /// The execution pass of [`run_cells`](CellRunner::run_cells):
    /// executes the `todo` cells into their slots, on the calling thread
    /// when one worker suffices, else on `jobs` pool workers.
    fn exec_cells(
        &self,
        plan: &ExperimentPlan<'_>,
        todo: &[usize],
        slots: &[Mutex<Option<CellOutcome>>],
    ) {
        let next = AtomicUsize::new(0);
        let work = || {
            while let Some(&i) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                let cell = &plan.cells[i];
                let out = exec_cell(
                    &plan.specs[cell.spec],
                    cell,
                    self.metrics,
                    self.check.as_ref(),
                );
                *slots[i].lock().expect("cell slot poisoned") = Some(out);
            }
        };
        let nthreads = self.jobs.min(todo.len());
        if nthreads <= 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..nthreads {
                    scope.spawn(work);
                }
            });
        }
    }
}

impl Default for CellRunner {
    /// A runner sized by [`default_jobs`].
    fn default() -> Self {
        CellRunner::new(default_jobs())
    }
}

/// Everything a plan run produced: assembled experiments plus the
/// structured per-cell report.
pub struct PlanOutcome {
    /// Per-spec results, in push order.
    pub results: Vec<Experiment>,
    /// The structured per-cell report (JSON-serializable).
    pub report: SweepReport,
}

/// Reassembles the flat outcome list into per-spec experiments: each
/// configuration's records, in plan order. Each spec's cells are
/// contiguous and configuration-major (see [`ExperimentPlan::push`]), so
/// the specs consume the list in order.
fn assemble(plan: ExperimentPlan<'_>, outcomes: Vec<CellOutcome>) -> Vec<Experiment> {
    let mut cells = outcomes.into_iter();
    plan.specs
        .iter()
        .map(|spec| {
            let (runs, _) = spec.mode.slots();
            let differential = matches!(spec.mode, SpecMode::Differential { .. });
            let outcomes = spec
                .configs
                .iter()
                .map(|&config| {
                    let mut o = ConfigOutcome {
                        config,
                        records: Vec::with_capacity(runs),
                        diffs: Vec::new(),
                    };
                    for cell in cells.by_ref().take(runs) {
                        o.records.extend(cell.legs);
                        if differential {
                            o.diffs.push(cell.diff);
                        }
                    }
                    let failed = o.records.iter().find(|r| r.value.is_none());
                    if let (SpecMode::Clean { .. }, Some(r)) = (&spec.mode, failed) {
                        panic!(
                            "clean spec {:?} on {config} seed {} did not complete: {}",
                            spec.label, r.seed, r.class
                        );
                    }
                    o
                })
                .collect();
            let w = spec.workload;
            Experiment {
                workload: w.name().to_string(),
                unit: w.unit().to_string(),
                direction: w.direction(),
                policy: spec.mode.policy(),
                outcomes,
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// The structured results sink
// ----------------------------------------------------------------------

/// One cell's entry in the [`SweepReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Label of the owning spec.
    pub spec: String,
    /// Workload name.
    pub workload: String,
    /// Configuration, in `nf-ms/scale` notation.
    pub config: String,
    /// Harness mode: `clean`, `resilient`, or `differential`.
    pub mode: &'static str,
    /// Scheduling policy (canonical stock for differential cells).
    pub policy: String,
    /// The cell's base seed.
    pub seed: u64,
    /// Run slot / repeat index within the configuration.
    pub rep: usize,
    /// Final classification (worst of the four runs for differential
    /// cells).
    pub class: RunClass,
    /// Total attempts spent, retries included (summed over the four
    /// runs for differential cells).
    pub attempts: u32,
    /// Primary metric: the run value, or the per-repeat absorption for
    /// differential cells; absent when unavailable.
    pub value: Option<f64>,
    /// Host wall-clock the cell consumed, in milliseconds (zero for
    /// memoized cells — no host time was spent).
    pub wall_ms: f64,
    /// Folded kernel-trace hash of the cell's final attempt(s) (of its
    /// legs' record hashes, for differential cells); absent when every
    /// run panicked.
    pub trace_hash: Option<u64>,
    /// `true` when the cell's outcome was copied from an earlier cell
    /// with the same key instead of executing.
    pub memoized: bool,
    /// `true` when the cell's outcome was restored from the persistent
    /// on-disk cell cache (directly, or memoized from a restored
    /// primary) instead of executing.
    pub cached: bool,
    /// Trace-check findings (runner check and spec check) of every
    /// attempt, in the checks' (deterministic) order — the record's
    /// [`RunRecord::violations`], or a differential cell's four legs'
    /// findings prefixed with the leg name. Empty when no check was
    /// installed or the cell was clean.
    pub violations: Vec<String>,
    /// Merged observability metrics of the cell's final attempt(s) (the
    /// record's own, shared; merged over the legs for differential
    /// cells), present when the runner ran with
    /// [`CellRunner::with_metrics`]`(true)` and the cell did not panic.
    pub metrics: Option<Arc<ProfileMetrics>>,
    /// Differential cells only: the stock-faulted − aware-faulted diff
    /// attribution (where the stock kernel lost time under the
    /// identical disturbance plan). `None` for non-differential cells.
    pub diff: Option<DiffAttribution>,
}

/// The structured outcome of one plan run: per-cell records plus
/// wall-clock totals, serializable as JSON with [`SweepReport::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Plan name.
    pub name: String,
    /// Host thread-pool size used.
    pub jobs: usize,
    /// Elapsed wall-clock of the whole plan, in milliseconds.
    pub wall_ms: f64,
    /// Traffic counters of the persistent cell cache, when one was
    /// attached ([`CellRunner::with_cache`]).
    pub cache: Option<CacheStats>,
    /// Per-cell records, in plan order.
    pub cells: Vec<CellReport>,
}

impl SweepReport {
    /// Sum of per-cell wall-clock times — the serial-equivalent cost.
    pub fn cells_wall_ms(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_ms).sum()
    }

    /// Observed parallel speedup: serial-equivalent cost over elapsed
    /// wall-clock (≈ 1.0 when `jobs = 1`).
    pub fn speedup(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.cells_wall_ms() / self.wall_ms
        } else {
            1.0
        }
    }

    /// Number of cells whose final class is `class`.
    pub fn count(&self, class: RunClass) -> usize {
        self.cells.iter().filter(|c| c.class == class).count()
    }

    /// Number of cells copied from an earlier cell with the same key.
    pub fn memoized_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.memoized).count()
    }

    /// Number of cells whose outcome came from the persistent cell
    /// cache instead of executing.
    pub fn cached_cells(&self) -> usize {
        self.cells.iter().filter(|c| c.cached).count()
    }

    /// Total trace-check findings across all cells.
    pub fn total_violations(&self) -> usize {
        self.cells.iter().map(|c| c.violations.len()).sum()
    }

    /// Total retries across all cells (attempts beyond the first; a
    /// differential cell's baseline is four attempts).
    pub fn total_retries(&self) -> u32 {
        self.cells
            .iter()
            .map(|c| {
                let baseline = if c.mode == "differential" { 4 } else { 1 };
                c.attempts.saturating_sub(baseline)
            })
            .sum()
    }

    /// Serializes the report as a self-contained JSON document
    /// (hand-rolled writer — no dependencies, stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.cells.len() * 192);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"name\": {},", json_string(&self.name));
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(out, "  \"wall_ms\": {},", json_f64(self.wall_ms));
        let _ = writeln!(
            out,
            "  \"cells_wall_ms\": {},",
            json_f64(self.cells_wall_ms())
        );
        let _ = writeln!(out, "  \"speedup\": {},", json_f64(self.speedup()));
        let _ = writeln!(out, "  \"total_retries\": {},", self.total_retries());
        let _ = writeln!(out, "  \"memoized_cells\": {},", self.memoized_cells());
        let _ = writeln!(out, "  \"cached_cells\": {},", self.cached_cells());
        match &self.cache {
            Some(stats) => {
                let _ = writeln!(out, "  \"cache\": {},", stats.to_json());
            }
            None => out.push_str("  \"cache\": null,\n"),
        }
        let _ = writeln!(out, "  \"total_violations\": {},", self.total_violations());
        out.push_str("  \"classes\": {");
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for c in &self.cells {
            *counts.entry(c.class.to_string()).or_insert(0) += 1;
        }
        for (i, (class, n)) in counts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_string(class), n);
        }
        out.push_str("},\n");
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str("    {");
            let _ = write!(out, "\"spec\": {}, ", json_string(&c.spec));
            let _ = write!(out, "\"workload\": {}, ", json_string(&c.workload));
            let _ = write!(out, "\"config\": {}, ", json_string(&c.config));
            let _ = write!(out, "\"mode\": {}, ", json_string(c.mode));
            let _ = write!(out, "\"policy\": {}, ", json_string(&c.policy));
            let _ = write!(out, "\"seed\": {}, ", c.seed);
            let _ = write!(out, "\"rep\": {}, ", c.rep);
            let _ = write!(out, "\"class\": {}, ", json_string(&c.class.to_string()));
            let _ = write!(out, "\"attempts\": {}, ", c.attempts);
            match c.value {
                Some(v) if v.is_finite() => {
                    let _ = write!(out, "\"value\": {}, ", json_f64(v));
                }
                _ => out.push_str("\"value\": null, "),
            }
            let _ = write!(out, "\"wall_ms\": {}, ", json_f64(c.wall_ms));
            let _ = write!(out, "\"memoized\": {}, ", c.memoized);
            let _ = write!(out, "\"cached\": {}, ", c.cached);
            out.push_str("\"violations\": [");
            for (k, v) in c.violations.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(v));
            }
            out.push_str("], ");
            match &c.metrics {
                Some(m) => {
                    let _ = write!(out, "\"metrics\": {}, ", m.to_json());
                }
                None => out.push_str("\"metrics\": null, "),
            }
            match &c.diff {
                Some(d) => {
                    let _ = write!(out, "\"diff\": {}, ", d.to_json());
                }
                None => out.push_str("\"diff\": null, "),
            }
            match c.trace_hash {
                Some(h) => {
                    let _ = write!(out, "\"trace_hash\": \"{h:#018x}\"");
                }
                None => out.push_str("\"trace_hash\": null"),
            }
            out.push('}');
            if i + 1 < self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite `f64` as a JSON number (non-finite values become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Derives every cell's [`CellReport`] from its records.
fn build_report(
    plan: &ExperimentPlan<'_>,
    outcomes: &[CellOutcome],
    jobs: usize,
    wall_ms: f64,
    cache: Option<CacheStats>,
    want_metrics: bool,
) -> SweepReport {
    let cells = plan
        .cells
        .iter()
        .zip(outcomes)
        .map(|(cell, out)| {
            let spec = &plan.specs[cell.spec];
            let legs = &out.legs;
            let (value, trace_hash, metrics, violations) = match legs.as_slice() {
                [record] => (
                    record.value,
                    record.trace_hash,
                    record.metrics.clone(),
                    record.violations.clone(),
                ),
                _ => {
                    let rep = DifferentialRep::new(legs, out.diff.as_ref());
                    let (mut fold, mut any_hash) = (TraceHashFold::new(), false);
                    for h in legs.iter().filter_map(|r| r.trace_hash) {
                        fold.push(h);
                        any_hash = true;
                    }
                    let mut merged = ProfileMetrics::new();
                    for m in legs.iter().filter_map(|r| r.metrics.as_deref()) {
                        merged.merge(m);
                    }
                    let violations = DIFFERENTIAL_LEGS
                        .iter()
                        .zip(legs)
                        .flat_map(|(&(name, ..), r)| {
                            r.violations.iter().map(move |v| format!("{name}: {v}"))
                        })
                        .collect();
                    let value = rep.absorption(spec.workload.direction());
                    (
                        value,
                        any_hash.then(|| fold.finish()),
                        Some(Arc::new(merged)),
                        violations,
                    )
                }
            };
            CellReport {
                spec: spec.label.clone(),
                workload: spec.workload.name().to_string(),
                config: cell.setup.config.to_string(),
                mode: spec.mode.name(),
                policy: cell.setup.policy.to_string(),
                seed: cell.setup.seed,
                rep: cell.rep,
                class: legs.iter().map(|r| r.class).max().expect("a cell has legs"),
                attempts: legs.iter().map(|r| r.attempts).sum(),
                value,
                wall_ms: out.wall_nanos as f64 / 1e6,
                trace_hash,
                memoized: out.memoized,
                cached: out.cached,
                violations,
                metrics: metrics.filter(|_| want_metrics),
                diff: out.diff,
            }
        })
        .collect();
    SweepReport {
        name: plan.name.clone(),
        jobs,
        wall_ms,
        cache,
        cells,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics::Direction;
    use crate::workload::RunResult;

    struct Proportional;
    impl Workload for Proportional {
        fn name(&self) -> &str {
            "proportional"
        }
        fn unit(&self) -> &str {
            "ops/s"
        }
        fn direction(&self) -> Direction {
            Direction::HigherIsBetter
        }
        fn run(&self, setup: &RunSetup) -> RunResult {
            RunResult::new(setup.config.compute_power() * 100.0 + (setup.seed % 5) as f64)
        }
    }

    fn mini_plan(w: &Proportional) -> ExperimentPlan<'_> {
        let mut plan = ExperimentPlan::new("mini");
        plan.push(
            "a",
            w,
            &AsymConfig::standard_nine(),
            SpecMode::Clean {
                policy: SchedPolicy::os_default(),
                options: ExperimentOptions::new(3),
            },
        );
        plan.push(
            "b",
            w,
            &[AsymConfig::new(2, 2, 8)],
            SpecMode::Clean {
                policy: SchedPolicy::asymmetry_aware(),
                options: ExperimentOptions::new(2).base_seed(100),
            },
        );
        plan
    }

    #[test]
    fn plan_expansion_is_config_major_seed_order() {
        let w = Proportional;
        let plan = mini_plan(&w);
        assert_eq!(plan.len(), 9 * 3 + 2);
        // Spec 0, config 1, rep 2 → seed 1 * 1000 + 2.
        let cell = &plan.cells[5];
        assert_eq!(cell.spec, 0);
        assert_eq!(cell.config_index, 1);
        assert_eq!(cell.rep, 2);
        assert_eq!(cell.setup.seed, 1002);
        // Spec 1 starts after spec 0's 27 cells, at base seed 100.
        assert_eq!(plan.cells[27].spec, 1);
        assert_eq!(plan.cells[27].setup.seed, 100);
    }

    #[test]
    fn parallel_results_are_bit_identical_to_serial() {
        let w = Proportional;
        let serial = CellRunner::new(1).run(mini_plan(&w));
        let parallel = CellRunner::new(4).run(mini_plan(&w));
        assert_eq!(serial.results, parallel.results);
        // Trace hashes per cell are identical too (values only — wall
        // clock naturally differs).
        let hashes = |o: &PlanOutcome| {
            o.report
                .cells
                .iter()
                .map(|c| (c.seed, c.trace_hash))
                .collect::<Vec<_>>()
        };
        assert_eq!(hashes(&serial), hashes(&parallel));
        assert_eq!(parallel.report.jobs, 4);
    }

    #[test]
    fn report_counts_and_json_shape() {
        let w = Proportional;
        let out = CellRunner::new(2).run(mini_plan(&w));
        assert_eq!(out.report.cells.len(), 29);
        assert_eq!(out.report.count(RunClass::Completed), 29);
        assert_eq!(out.report.total_retries(), 0);
        let json = out.report.to_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"name\": \"mini\""));
        assert!(json.contains("\"classes\": {\"completed\": 29}"));
        assert!(json.contains("\"speedup\": "));
        assert!(!json.contains("panicked"));
    }

    #[test]
    fn identical_clean_cells_are_memoized_across_specs() {
        let w = Proportional;
        // Two specs with the same workload, configs, policy, and seeds —
        // the fig2/table1 overlap in miniature.
        let mut plan = ExperimentPlan::new("dup");
        let mode = || SpecMode::Clean {
            policy: SchedPolicy::os_default(),
            options: ExperimentOptions::new(2),
        };
        plan.push("first", &w, &[AsymConfig::new(2, 2, 8)], mode());
        plan.push("second", &w, &[AsymConfig::new(2, 2, 8)], mode());
        let out = CellRunner::new(2).run(plan);
        let memoized: Vec<bool> = out.report.cells.iter().map(|c| c.memoized).collect();
        assert_eq!(memoized, vec![false, false, true, true]);
        assert_eq!(out.report.memoized_cells(), 2);
        assert_eq!(out.report.cells[2].wall_ms, 0.0);
        assert_eq!(
            out.report.cells[0].trace_hash,
            out.report.cells[2].trace_hash
        );
        // The assembled experiments are indistinguishable from running
        // both specs in full.
        assert_eq!(out.results[0].outcomes, out.results[1].outcomes);
        let json = out.report.to_json();
        assert!(json.contains("\"memoized_cells\": 2"));
        assert!(json.contains("\"memoized\": true"));
    }

    #[test]
    fn different_policy_or_seed_is_not_memoized() {
        let w = Proportional;
        let mut plan = ExperimentPlan::new("nodup");
        plan.push(
            "stock",
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SpecMode::Clean {
                policy: SchedPolicy::os_default(),
                options: ExperimentOptions::new(1),
            },
        );
        plan.push(
            "aware",
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SpecMode::Clean {
                policy: SchedPolicy::asymmetry_aware(),
                options: ExperimentOptions::new(1),
            },
        );
        plan.push(
            "reseeded",
            &w,
            &[AsymConfig::new(2, 2, 8)],
            SpecMode::Clean {
                policy: SchedPolicy::os_default(),
                options: ExperimentOptions::new(1).base_seed(7),
            },
        );
        let out = CellRunner::new(1).run(plan);
        assert_eq!(out.report.memoized_cells(), 0);
    }

    #[test]
    fn metrics_attach_when_requested_and_match_across_jobs() {
        let w = Proportional;
        let none = CellRunner::new(1).run(mini_plan(&w));
        assert!(none.report.cells.iter().all(|c| c.metrics.is_none()));
        let serial = CellRunner::new(1).with_metrics(true).run(mini_plan(&w));
        let pooled = CellRunner::new(4).with_metrics(true).run(mini_plan(&w));
        for (a, b) in serial.report.cells.iter().zip(&pooled.report.cells) {
            assert_eq!(a.metrics, b.metrics, "metrics must not depend on --jobs");
            // Proportional spawns no kernels, so the record is present
            // but empty — still serialized, still finite.
            let m = a.metrics.as_ref().expect("metrics attached");
            assert_eq!(m.kernels, 0);
            assert!(a
                .metrics
                .as_ref()
                .expect("metrics attached")
                .to_json()
                .contains("\"sched_latency\""));
        }
        let json = serial.report.to_json();
        assert!(json.contains("\"metrics\": {\"kernels\":0,"));
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::NAN), "0");
    }

    /// A workload that actually spawns a kernel, so streaming capture,
    /// metrics folding, and trace hashing all have real events to chew
    /// on. Value and extras depend on the seed, so cache round-trips
    /// are distinguishable per cell.
    struct KernelBursts;
    impl Workload for KernelBursts {
        fn name(&self) -> &str {
            "kernel-bursts"
        }
        fn unit(&self) -> &str {
            "ops/s"
        }
        fn direction(&self) -> Direction {
            Direction::HigherIsBetter
        }
        fn run(&self, setup: &RunSetup) -> RunResult {
            use asym_kernel::{FnThread, Kernel, SpawnOptions, Step};
            use asym_sim::Cycles;
            let mut k = Kernel::new(setup.config.machine(), setup.policy, setup.seed);
            for t in 0..3u64 {
                let mut bursts = 2 + (setup.seed + t) % 3;
                k.spawn(
                    FnThread::new("w", move |_cx| {
                        if bursts == 0 {
                            Step::Done
                        } else {
                            bursts -= 1;
                            Step::Compute(Cycles::from_millis_at_full_speed(0.05))
                        }
                    }),
                    SpawnOptions::new(),
                );
            }
            k.run();
            RunResult::new(1000.0 + setup.seed as f64).with_extra("seed", setup.seed as f64)
        }
    }

    fn kernel_plan(w: &KernelBursts) -> ExperimentPlan<'_> {
        let mut plan = ExperimentPlan::new("kernel");
        plan.push(
            "clean",
            w,
            &[AsymConfig::new(1, 3, 8), AsymConfig::new(2, 2, 8)],
            SpecMode::Clean {
                policy: SchedPolicy::asymmetry_aware(),
                options: ExperimentOptions::new(2),
            },
        );
        plan.push(
            "resilient",
            w,
            &[AsymConfig::new(1, 3, 8)],
            SpecMode::Resilient {
                policy: SchedPolicy::os_default(),
                options: ResilientOptions::new(2),
            },
        );
        plan
    }

    /// Counts one kernel's events; a `loud` counter reports the count as
    /// its one finding.
    struct EventCount {
        events: usize,
        loud: bool,
    }

    impl TraceConsumer for EventCount {
        fn on_event(&mut self, _: SimTime, _: &TraceEvent) {
            self.events += 1;
        }
    }

    impl KernelCheck for EventCount {
        fn findings(self: Box<Self>) -> Vec<String> {
            let found = format!("events={}", self.events);
            self.loud.then_some(found).into_iter().collect()
        }
    }

    /// A check that streams every event and never finds anything.
    fn noop_check() -> TraceCheck {
        Arc::new(|_, _| {
            Box::new(EventCount {
                events: 0,
                loud: false,
            })
        })
    }

    /// A check with one finding per kernel trace, naming its length.
    pub(crate) fn per_trace_check() -> TraceCheck {
        Arc::new(|_, _| {
            Box::new(EventCount {
                events: 0,
                loud: true,
            })
        })
    }

    /// The stable per-cell fields two equivalent runs must agree on.
    fn cell_facts(report: &SweepReport) -> Vec<(RunClass, Option<f64>, Option<u64>, String)> {
        report
            .cells
            .iter()
            .map(|c| {
                (
                    c.class,
                    c.value,
                    c.trace_hash,
                    c.metrics
                        .as_deref()
                        .map(ProfileMetrics::to_json)
                        .unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn streamed_equals_buffered_byte_exactly() {
        use asym_kernel::{capture_traces, fold_trace_hashes};
        use asym_obs::metrics_of_traces;
        let w = KernelBursts;
        // One stream feeds the hash, the metrics fold and the check...
        let streamed = CellRunner::new(1)
            .with_metrics(true)
            .with_trace_check(per_trace_check())
            .run(kernel_plan(&w));
        // ...and every cell must equal what its buffered traces give
        // when post-processed: hash, class, value, metrics, findings.
        let plan = kernel_plan(&w);
        assert_eq!(plan.cells.len(), streamed.report.cells.len());
        for (cell, report) in plan.cells.iter().zip(&streamed.report.cells) {
            let (result, traces) =
                capture_traces(|| with_run_guard(RunGuard::new(), || w.run(&cell.setup)));
            let class = traces
                .iter()
                .map(|t| classify_one(t.outcome, t.budget_exhausted))
                .max()
                .unwrap_or(RunClass::Completed);
            let lengths: Vec<String> = traces
                .iter()
                .map(|t| format!("events={}", t.num_records()))
                .collect();
            assert_eq!(report.class, class);
            assert_eq!(report.value, Some(result.value));
            assert_eq!(report.trace_hash, Some(fold_trace_hashes(&traces)));
            assert_eq!(
                report.metrics.as_deref().map(ProfileMetrics::to_json),
                Some(metrics_of_traces(&traces).to_json())
            );
            assert_eq!(report.violations, lengths);
        }
        // The workload really produced kernels and events.
        let m = streamed.report.cells[0]
            .metrics
            .as_ref()
            .expect("metrics attached");
        assert_eq!(m.kernels, 1);
        assert!(m.busy_ns > 0);
    }

    #[test]
    fn streamed_metrics_match_across_jobs() {
        let w = KernelBursts;
        let serial = CellRunner::new(1).with_metrics(true).run(kernel_plan(&w));
        let pooled = CellRunner::new(4).with_metrics(true).run(kernel_plan(&w));
        assert_eq!(cell_facts(&serial.report), cell_facts(&pooled.report));
        assert!(serial.report.cells.iter().all(|c| c
            .metrics
            .as_ref()
            .expect("metrics attached")
            .kernels
            > 0));
    }

    fn temp_cache(tag: &str) -> CellCache {
        let dir =
            std::env::temp_dir().join(format!("asym-engine-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CellCache::open(dir).expect("temp cache opens")
    }

    #[test]
    fn cache_warm_run_executes_nothing_and_is_bit_identical() {
        let w = KernelBursts;
        let cache = temp_cache("warm");
        let cold = CellRunner::new(2)
            .with_metrics(true)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        let stats = cold.report.cache.as_ref().expect("cache stats attached");
        let cells = cold.report.cells.len();
        assert_eq!(stats.misses, cells as u64);
        assert_eq!(stats.stores, cells as u64);
        assert_eq!(stats.hits, 0);
        assert_eq!(cold.report.cached_cells(), 0);

        let warm = CellRunner::new(2)
            .with_metrics(true)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        let stats = warm.report.cache.as_ref().expect("cache stats attached");
        assert_eq!(stats.hits, cells as u64);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.stores, 0);
        assert_eq!(warm.report.cached_cells(), cells);
        assert!(warm
            .report
            .cells
            .iter()
            .all(|c| c.cached && c.wall_ms == 0.0));
        // Bit-identical results and reports, wall clock aside.
        assert_eq!(cell_facts(&cold.report), cell_facts(&warm.report));
        assert_eq!(cold.results, warm.results);
        let json = warm.report.to_json();
        assert!(json.contains("\"cache\": {\"hits\":"));
        assert!(json.contains("\"cached\": true"));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn cache_entry_without_metrics_misses_when_metrics_wanted() {
        let w = KernelBursts;
        let cache = temp_cache("upgrade");
        let lean = CellRunner::new(1)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        assert!(lean.report.cache.as_ref().expect("stats").stores > 0);
        // The richer run cannot use metric-less entries…
        let rich = CellRunner::new(1)
            .with_metrics(true)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        let stats = rich.report.cache.as_ref().expect("stats");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, rich.report.cells.len() as u64);
        // …but after it overwrites them, both kinds of runner hit.
        let lean2 = CellRunner::new(1)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        assert_eq!(
            lean2.report.cache.as_ref().expect("stats").hits,
            lean2.report.cells.len() as u64
        );
        assert_eq!(lean.results, lean2.results);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn fingerprint_mismatch_invalidates_and_overwrites() {
        let w = KernelBursts;
        let cache = temp_cache("fingerprint");
        let first = CellRunner::new(1)
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        assert!(first.report.cache.as_ref().expect("stats").stores > 0);
        // A "different build" sees every entry as stale, re-executes,
        // and overwrites.
        let other = cache.clone().with_fingerprint("another-build");
        let second = CellRunner::new(1)
            .with_cache(other.clone())
            .run(kernel_plan(&w));
        let stats = second.report.cache.as_ref().expect("stats");
        assert_eq!(stats.invalidations, second.report.cells.len() as u64);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.stores, second.report.cells.len() as u64);
        // Same "build" again: all hits now.
        let third = CellRunner::new(1).with_cache(other).run(kernel_plan(&w));
        assert_eq!(
            third.report.cache.as_ref().expect("stats").hits,
            third.report.cells.len() as u64
        );
        assert_eq!(first.results, third.results);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn trace_check_and_differential_cells_skip_the_cache() {
        let w = KernelBursts;
        let cache = temp_cache("skip");
        // An installed check disqualifies every cell (its findings are
        // not stored, so a hit could silently drop violations).
        let checked = CellRunner::new(1)
            .with_trace_check(noop_check())
            .with_cache(cache.clone())
            .run(kernel_plan(&w));
        let stats = checked.report.cache.as_ref().expect("stats");
        assert_eq!(stats.skips, checked.report.cells.len() as u64);
        assert_eq!(stats.stores + stats.hits + stats.misses, 0);
        // Differential cells never cache either.
        let mut plan = ExperimentPlan::new("diff");
        plan.push(
            "d",
            &w,
            &[AsymConfig::new(1, 3, 8)],
            SpecMode::Differential {
                options: ResilientOptions::new(1),
            },
        );
        let diff = CellRunner::new(1).with_cache(cache.clone()).run(plan);
        let stats = diff.report.cache.as_ref().expect("stats");
        assert_eq!(stats.skips, 1);
        assert_eq!(stats.stores + stats.hits + stats.misses, 0);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn memoized_copies_of_cached_primaries_stay_cached_in_json() {
        let w = Proportional;
        let cache = temp_cache("memo");
        let mode = || SpecMode::Clean {
            policy: SchedPolicy::os_default(),
            options: ExperimentOptions::new(1),
        };
        let build = || {
            let mut plan = ExperimentPlan::new("dup");
            plan.push("first", &w, &[AsymConfig::new(2, 2, 8)], mode());
            plan.push("second", &w, &[AsymConfig::new(2, 2, 8)], mode());
            plan
        };
        let cold = CellRunner::new(1).with_cache(cache.clone()).run(build());
        // Only the memo primary consulted the cache; the copy rode along.
        assert_eq!(cold.report.cache.as_ref().expect("stats").misses, 1);
        let warm = CellRunner::new(1).with_cache(cache.clone()).run(build());
        assert_eq!(warm.report.cache.as_ref().expect("stats").hits, 1);
        let memo = &warm.report.cells[1];
        assert!(memo.memoized && memo.cached);
        assert_eq!(memo.wall_ms, 0.0);
        let json = warm.report.to_json();
        assert!(json.contains("\"wall_ms\": 0, \"memoized\": true, \"cached\": true"));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    fn resilient(options: ResilientOptions) -> SpecMode {
        SpecMode::Resilient {
            policy: SchedPolicy::os_default(),
            options,
        }
    }

    fn guarded() -> ResilientOptions {
        ResilientOptions::new(2)
            .watchdog(SimDuration::from_secs(5))
            .sim_time_budget(SimDuration::from_secs(1))
            .retries(1)
    }

    #[test]
    fn identical_resilient_cells_without_an_observer_are_memoized() {
        let w = KernelBursts;
        let config = AsymConfig::new(1, 3, 8);
        let mut plan = ExperimentPlan::new("dup");
        plan.push("first", &w, &[config], resilient(guarded()));
        plan.push("second", &w, &[config], resilient(guarded()));
        let out = CellRunner::new(2).with_metrics(true).run(plan);
        let memoized: Vec<bool> = out.report.cells.iter().map(|c| c.memoized).collect();
        assert_eq!(memoized, vec![false, false, true, true]);
        let facts = cell_facts(&out.report);
        assert_eq!(facts[..2], facts[2..]);
        assert_eq!(out.results[0].outcomes, out.results[1].outcomes);
    }

    #[test]
    fn resilient_cells_differing_in_one_knob_are_not_memoized() {
        use asym_sim::EnvironmentProfile;
        let w = KernelBursts;
        let config = AsymConfig::new(1, 3, 8);
        let env = |profile: fn(SimDuration) -> EnvironmentProfile| {
            move |setup: &RunSetup| {
                EnvironmentPlan::generate(
                    setup.seed,
                    setup.config.num_cores() as usize,
                    &profile(SimDuration::from_millis(10)),
                )
            }
        };
        let mut plan = ExperimentPlan::new("nodup");
        plan.push("base", &w, &[config], resilient(guarded()));
        plan.push("retries", &w, &[config], resilient(guarded().retries(2)));
        plan.push(
            "budget",
            &w,
            &[config],
            resilient(guarded().sim_time_budget(SimDuration::from_secs(2))),
        );
        plan.push(
            "watchdog",
            &w,
            &[config],
            resilient(guarded().watchdog(SimDuration::from_secs(6))),
        );
        plan.push(
            "dvfs",
            &w,
            &[config],
            resilient(guarded().environment_planner(env(EnvironmentProfile::dvfs))),
        );
        plan.push(
            "thermal",
            &w,
            &[config],
            resilient(guarded().environment_planner(env(EnvironmentProfile::thermal))),
        );
        let out = CellRunner::new(2).run(plan);
        assert_eq!(out.report.cells.len(), 12);
        assert_eq!(out.report.memoized_cells(), 0);
        assert_eq!(out.report.count(RunClass::Completed), 12);
    }

    #[test]
    fn memoized_copy_carries_the_primary_outcome() {
        let w = KernelBursts;
        // A check with findings, so the copied violations are visible.
        let check = per_trace_check();
        let mode = || SpecMode::Clean {
            policy: SchedPolicy::asymmetry_aware(),
            options: ExperimentOptions::new(2),
        };
        let mut plan = ExperimentPlan::new("carry");
        plan.push("first", &w, &[AsymConfig::new(1, 3, 8)], mode());
        plan.push("second", &w, &[AsymConfig::new(1, 3, 8)], mode());
        let out = CellRunner::new(2)
            .with_metrics(true)
            .with_trace_check(check)
            .run(plan);
        for (primary, copy) in out.report.cells[..2].iter().zip(&out.report.cells[2..]) {
            assert!(!primary.memoized && copy.memoized);
            assert_eq!(copy.wall_ms, 0.0);
            assert_eq!(copy.class, primary.class);
            assert_eq!(copy.value, primary.value);
            assert_eq!(copy.trace_hash, primary.trace_hash);
            assert!(copy.metrics.is_some());
            assert_eq!(copy.metrics, primary.metrics);
            assert_eq!(copy.violations.len(), 1);
            assert!(copy.violations[0].starts_with("events="));
            assert_eq!(copy.violations, primary.violations);
        }
    }

    #[test]
    fn cache_key_digests_every_plan_field() {
        use asym_sim::{CoreId, EnvironmentProfile, FaultKind, ThermalParams};
        let w = KernelBursts;
        let mut plan = ExperimentPlan::new("keys");
        plan.push("k", &w, &[AsymConfig::new(1, 3, 8)], resilient(guarded()));
        let key = |faults: Option<FaultPlan>, environment: Option<EnvironmentPlan>| {
            let cell = Cell {
                fault_plan: faults,
                environment,
                ..plan.cells[0].clone()
            };
            cache_key(&plan.specs[0], "kernel-bursts", &cell)
                .expect("resilient cells are keyed")
                .to_string()
        };
        let offline = |ms: u64, core: usize| {
            let mut p = FaultPlan::new();
            p.inject(
                SimTime::ZERO + SimDuration::from_millis(ms),
                FaultKind::CoreOffline { core: CoreId(core) },
            );
            p
        };
        let horizon = SimDuration::from_millis(50);
        let env = |profile: EnvironmentProfile| EnvironmentPlan::generate(3, 4, &profile);
        let thermal = |throttle_at: u32| EnvironmentProfile {
            thermal: Some(ThermalParams {
                heat_per_busy_tick: 1,
                cool_per_idle_tick: 2,
                throttle_at,
                steps_per_excess: 4,
            }),
            ..EnvironmentProfile::quiet(horizon)
        };
        let bursts = |n: u32| EnvironmentProfile {
            bursts: n,
            ..EnvironmentProfile::quiet(horizon)
        };
        // Equal plans, equal keys.
        assert_eq!(
            key(Some(offline(1, 1)), None),
            key(Some(offline(1, 1)), None)
        );
        assert_eq!(
            key(None, Some(env(bursts(6)))),
            key(None, Some(env(bursts(6))))
        );
        // One changed fault record, burst, or thermal parameter changes
        // the key.
        let keys = [
            key(None, None),
            key(Some(FaultPlan::new()), None),
            key(Some(offline(1, 1)), None),
            key(Some(offline(2, 1)), None),
            key(Some(offline(1, 2)), None),
            key(None, Some(env(bursts(6)))),
            key(None, Some(env(bursts(5)))),
            key(None, Some(env(thermal(16)))),
            key(None, Some(env(thermal(17)))),
        ];
        let distinct: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:#?}");
    }

    #[test]
    fn differential_cell_report_folds_its_four_legs() {
        use asym_sim::{CoreId, FaultKind};
        let w = KernelBursts;
        let options = ResilientOptions::new(1).fault_planner(|_setup: &RunSetup| {
            let mut plan = FaultPlan::new();
            plan.inject(
                SimTime::ZERO + SimDuration::from_micros(20),
                FaultKind::CoreOffline { core: CoreId(0) },
            );
            plan
        });
        let mut plan = ExperimentPlan::new("diff");
        plan.push(
            "d",
            &w,
            &[AsymConfig::new(1, 3, 8)],
            SpecMode::Differential { options },
        );
        let out = CellRunner::new(1)
            .with_metrics(true)
            .with_trace_check(per_trace_check())
            .run(plan);
        let cell = &out.report.cells[0];
        assert_eq!(cell.trace_hash, Some(PINNED_DIFF_HASH));
        let m = cell.metrics.as_ref().expect("metrics attached");
        assert_eq!(m.kernels, 4);
        assert_eq!(
            (m.busy_ns, m.idle_ns, m.offline_ns, m.migrations),
            PINNED_DIFF_METRICS
        );
        assert_eq!(cell.violations, PINNED_DIFF_VIOLATIONS);
    }

    const PINNED_DIFF_HASH: u64 = 0x16f8_0162_454d_1b7d;
    const PINNED_DIFF_METRICS: (u64, u64, u64, u64) = (9_878_798, 5_794_959, 3_025_715, 4);
    const PINNED_DIFF_VIOLATIONS: [&str; 4] = [
        "stock-clean: events=9",
        "stock-faulted: events=14",
        "aware-clean: events=17",
        "aware-faulted: events=14",
    ];

    #[test]
    fn identical_specs_with_their_own_check_are_never_memoized_or_cached() {
        let w = KernelBursts;
        let config = AsymConfig::new(1, 3, 8);
        let cache = temp_cache("own-check");
        let mut plan = ExperimentPlan::new("own-check");
        let checked = || ResilientOptions {
            check: Some(noop_check()),
            ..guarded()
        };
        plan.push("first", &w, &[config], resilient(checked()));
        plan.push("second", &w, &[config], resilient(checked()));
        let out = CellRunner::new(2).with_cache(cache.clone()).run(plan);
        assert_eq!(out.report.memoized_cells(), 0);
        let stats = out.report.cache.as_ref().expect("stats");
        assert_eq!(stats.skips, 4);
        assert_eq!(stats.hits + stats.misses + stats.stores, 0);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn jobs_resolution_prefers_explicit() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
    }
}
