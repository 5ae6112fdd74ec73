//! The traced pass: times each layer from outside by calling its public
//! function directly, inside spans the benchmark records itself.
//!
//! Three kinds of pass run per workload:
//!
//! * the **engine** pass runs the workload's plan through
//!   `CellRunner::run` once (cache off) and reads the per-cell report;
//! * the **cache** pass runs the plan at one thread with the cache off,
//!   against an empty cache, and against the cache it just filled;
//! * the **leg** passes re-run a sample of the plan's cells run by run
//!   ("legs": one `Workload::run` each, four per differential cell),
//!   once per layer: plain, streamed into `TraceHasher`, buffered by
//!   `capture_traces` and checked by `asym-analysis`, and streamed into
//!   `ProfileFold`. A layer's time is its pass minus the plain pass.
//!
//! Legs replay each cell's first attempt (seed, fault and environment
//! plan as `ExperimentPlan::push` derives them); the pass checks that
//! its trace hashes equal the engine's for every cell that needed no
//! retry, so the timed work is the work the engine does.

use crate::digest::Digests;
use crate::host::{median, quantile, Scratch};
use crate::workloads::{plan, Kind};
use asym_analysis::hb::{check_concurrency, happens_before};
use asym_bench::Section;
use asym_core::{CellCache, RunResult, RunSetup, SpecMode, SweepReport, Workload};
use asym_kernel::{
    capture_stream, capture_traces, with_run_guard, RunGuard, SchedPolicy, TraceHashFold,
    TraceHasher,
};
use asym_obs::{ProfileDiff, ProfileFold, RunProfile};
use asym_sim::{EnvironmentPlan, FaultPlan, SimDuration};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One recorded span: a named interval, the span that caused it, and
/// the plan cell it worked on (if any).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Plan index of the cell the span worked on.
    pub cell: Option<usize>,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
    ) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in milliseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span; returns its result and duration in ms.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, cell);
        let r = f();
        let ms = self.close(id);
        (r, ms)
    }

    /// The spans as a JSON array (one object per line).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"cell\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.cell)
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

/// The disturbances and limits one leg runs under.
struct Guard {
    watchdog: Option<SimDuration>,
    budget: Option<SimDuration>,
    faults: Option<FaultPlan>,
    environment: Option<EnvironmentPlan>,
}

/// One `Workload::run` of a sampled cell.
struct Leg<'a> {
    cell: usize,
    workload: &'a dyn Workload,
    setup: RunSetup,
    guard: Option<Guard>,
    /// Differential cells: `Some(true)` for the stock-faulted leg,
    /// `Some(false)` for the aware-faulted leg — the pair the profile
    /// diff aligns.
    diff_side: Option<bool>,
}

impl Leg<'_> {
    fn run(&self) -> RunResult {
        match &self.guard {
            None => self.workload.run(&self.setup),
            Some(g) => {
                let mut guard = RunGuard::new();
                if let Some(w) = g.watchdog {
                    guard = guard.watchdog(w);
                }
                if let Some(b) = g.budget {
                    guard = guard.sim_time_budget(b);
                }
                if let Some(p) = &g.faults {
                    guard = guard.fault_plan(p.clone());
                }
                if let Some(e) = &g.environment {
                    guard = guard.environment(e.clone());
                }
                with_run_guard(guard, || self.workload.run(&self.setup))
            }
        }
    }
}

/// Expands every `stride`-th cell of `sections` into its legs, in plan
/// order, as `ExperimentPlan::push` expands cells: seed `base + j*1000 +
/// i` (the seeds `Section::clean` documents), fault and environment
/// plans derived from the first attempt's setup. Returns the legs and
/// the number of legs in the whole plan.
fn legs(sections: &[Section], stride: usize) -> (Vec<Leg<'_>>, usize) {
    let mut out = Vec::new();
    let mut total = 0;
    let mut cell = 0;
    for sec in sections {
        let (policy, runs, base, planner, env_planner, limits) = match &sec.mode {
            SpecMode::Clean { policy, options } => {
                (*policy, options.runs, options.base_seed, None, None, None)
            }
            SpecMode::Resilient { policy, options } => (
                *policy,
                options.runs,
                options.base_seed,
                options.planner.clone(),
                options.env_planner.clone(),
                Some((options.watchdog, options.sim_time_budget)),
            ),
            SpecMode::Differential { options } => (
                SchedPolicy::os_default(),
                options.runs,
                options.base_seed,
                options.planner.clone(),
                options.env_planner.clone(),
                Some((options.watchdog, options.sim_time_budget)),
            ),
        };
        let differential = matches!(sec.mode, SpecMode::Differential { .. });
        for (j, &config) in sec.configs.iter().enumerate() {
            for i in 0..runs {
                let index = cell;
                cell += 1;
                total += if differential { 4 } else { 1 };
                if index % stride != 0 {
                    continue;
                }
                let setup = RunSetup::new(config, policy, base + j as u64 * 1000 + i as u64);
                let faults = planner.as_ref().map(|p| p(&setup));
                let environment = env_planner.as_ref().map(|p| p(&setup));
                let guard = |disturbed: bool| {
                    limits.map(|(watchdog, budget)| Guard {
                        watchdog,
                        budget,
                        faults: faults.clone().filter(|_| disturbed),
                        environment: environment.clone().filter(|_| disturbed),
                    })
                };
                let leg = |policy: SchedPolicy, disturbed: bool, diff_side: Option<bool>| Leg {
                    cell: index,
                    workload: sec.workload.as_ref(),
                    setup: RunSetup::new(config, policy, setup.seed),
                    guard: guard(disturbed),
                    diff_side,
                };
                if differential {
                    // The engine's leg order: stock clean, stock faulted,
                    // aware clean, aware faulted.
                    let (stock, aware) =
                        (SchedPolicy::os_default(), SchedPolicy::asymmetry_aware());
                    out.push(leg(stock, false, None));
                    out.push(leg(stock, true, Some(true)));
                    out.push(leg(aware, false, None));
                    out.push(leg(aware, true, Some(false)));
                } else {
                    out.push(leg(policy, true, None));
                }
            }
        }
    }
    (out, total)
}

/// Cells between two sampled cells of the leg passes.
fn leg_stride(kind: Kind) -> usize {
    match kind {
        Kind::PaperJson => 4,
        Kind::PaperCheck => 1,
        Kind::ScaleCold | Kind::ScaleWarm => 20,
    }
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The value of metric `name` in `metrics` (NaN when absent).
pub fn lookup(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.0 == name)
        .map_or(f64::NAN, |m| m.1)
}

/// Everything the traced pass measured, by metric name.
pub struct Ledger {
    /// The per-layer metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Sampled cells whose leg hashes differ from the engine's.
    pub hash_mismatches: usize,
    /// Cells the engine pass ran.
    pub cells: usize,
    /// Per-cell digests of the engine pass.
    pub digests: Digests,
}

/// Exact counts a later change may cite: they must repeat across two
/// traced passes of the same code.
pub const EXACT_COUNTS: [&str; 6] = [
    "kernel.events",
    "analysis.hb_edges",
    "cache.stores",
    "cache.hits",
    "plan.cells",
    "report.json_bytes",
];

/// Runs the traced pass of `kind` at `seed`. `wall_ms` is the untraced
/// median sweep time the ledger closes against.
pub fn traced_pass(
    kind: Kind,
    seed: u64,
    jobs: usize,
    wall_ms: f64,
    spans: &mut Spans,
) -> std::io::Result<Ledger> {
    let root = spans.open("traced_pass", None, None);
    let mut m: Vec<Metric> = Vec::new();

    // plan: spec build + expansion, median of several builds.
    let mut builds = Vec::new();
    let mut cells = 0;
    for _ in 0..5 {
        let (n, ms) = spans.time("plan", Some(root), None, || {
            let sections = kind.sections(seed);
            plan(kind.name(), &sections).len()
        });
        cells = n;
        builds.push(ms);
    }
    m.push(("plan.build_ms", median(&builds), "ms"));
    m.push(("plan.cells", cells as f64, "count"));

    let sections = kind.sections(seed);

    // engine: one run of the workload's plan, cache off.
    let (report, _) = spans.time("engine", Some(root), None, || {
        kind.runner(jobs, None)
            .run(plan(kind.name(), &sections))
            .report
    });
    let cell_walls: Vec<f64> = report
        .cells
        .iter()
        .filter(|c| !c.memoized)
        .map(|c| c.wall_ms)
        .collect();
    let n = cell_walls.len();
    let tail_q = if n >= 20 { 1.0 - 10.0 / n as f64 } else { 1.0 };
    let engine_overhead = report.wall_ms - report.cells_wall_ms() / jobs as f64;
    m.push(("engine.overhead_ms", engine_overhead, "ms"));
    m.push((
        "engine.pool_efficiency",
        report.speedup() / jobs as f64,
        "ratio",
    ));
    m.push(("engine.cell_p50_ms", median(&cell_walls), "ms"));
    m.push(("engine.cell_tail_ms", quantile(&cell_walls, tail_q), "ms"));
    m.push(("engine.cell_samples", n as f64, "count"));
    m.push(("engine.retries", f64::from(report.total_retries()), "count"));

    // report: JSON of the engine pass. The byte count is taken with the
    // host wall times zeroed, so it depends on the simulated results only.
    let (json, json_ms) = spans.time("report", Some(root), None, || report.to_json());
    black_box(json);
    m.push(("report.json_ms", json_ms, "ms"));
    m.push(("report.json_bytes", timeless_json_len(&report) as f64, "B"));

    // cache: off / cold / warm at one thread, without the trace check
    // (the engine never consults the cache under a check).
    let cache = cache_pass(kind, &sections, spans, root)?;
    m.extend(cache.iter().copied());

    // legs: every layer over a sample of cells.
    let (legs_v, total_legs) = legs(&sections, leg_stride(kind));
    let lp = leg_passes(&legs_v, &report, spans, root);
    let scale = total_legs as f64 / legs_v.len().max(1) as f64;
    let events = lp.events.max(1) as f64;
    m.push(("kernel.legs", legs_v.len() as f64, "count"));
    m.push(("kernel.run_ms", lp.kernel_ms * scale, "ms"));
    m.push(("kernel.events", lp.events as f64, "count"));
    m.push(("kernel.ns_per_event", lp.kernel_ms * 1e6 / events, "ns"));
    m.push(("trace.hash_ms", lp.hash_ms * scale, "ms"));
    m.push(("trace.hash_ns_per_event", lp.hash_ms * 1e6 / events, "ns"));
    m.push(("trace.buffer_ms", lp.buffer_ms * scale, "ms"));
    m.push(("trace.bytes_per_event", lp.bytes as f64 / events, "B"));
    m.push(("obs.fold_ms", lp.fold_ms * scale, "ms"));
    m.push(("obs.fold_ns_per_event", lp.fold_ms * 1e6 / events, "ns"));
    m.push(("obs.diff_ms", lp.diff_ms * scale, "ms"));
    m.push(("analysis.check_ms", lp.check_ms * scale, "ms"));
    m.push(("analysis.ns_per_event", lp.check_ms * 1e6 / events, "ns"));
    m.push(("analysis.hb_edges", lp.hb_edges as f64, "count"));
    m.push(("analysis.violations", lp.violations as f64, "count"));

    // ledger: the layers on this workload's path, as thread time, against
    // the untraced sweep.
    let get = |name: &str| lookup(&m, name);
    let stores = get("cache.stores");
    let hits = get("cache.hits");
    let path_ms = match kind {
        Kind::PaperJson => {
            get("kernel.run_ms") + get("trace.hash_ms") + get("obs.fold_ms") + get("report.json_ms")
        }
        Kind::PaperCheck => {
            get("kernel.run_ms")
                + get("trace.buffer_ms")
                + get("trace.hash_ms")
                + get("analysis.check_ms")
        }
        Kind::ScaleCold => {
            get("kernel.run_ms")
                + get("trace.hash_ms")
                + get("cache.store_us_per_cell") * stores / 1e3
        }
        Kind::ScaleWarm => get("cache.load_us_per_cell") * hits / 1e3,
    } + engine_overhead * jobs as f64;
    let total_ms = spans.close(root);
    m.push((
        "ledger.unattributed_ms",
        wall_ms - path_ms / jobs as f64,
        "ms",
    ));
    m.push(("ledger.trace_overhead", total_ms / wall_ms, "ratio"));

    Ok(Ledger {
        metrics: m,
        hash_mismatches: lp.hash_mismatches,
        cells: report.cells.len(),
        digests: Digests::of(&report),
    })
}

/// Length of `report`'s JSON with every host wall time zeroed.
fn timeless_json_len(report: &SweepReport) -> usize {
    let mut r = report.clone();
    r.wall_ms = 0.0;
    for c in &mut r.cells {
        c.wall_ms = 0.0;
    }
    r.to_json().len()
}

/// The cache layer: per-cell store and load cost as the difference
/// between sweeps with and without a cache, on a private directory.
fn cache_pass(
    kind: Kind,
    sections: &[Section],
    spans: &mut Spans,
    root: usize,
) -> std::io::Result<Vec<Metric>> {
    let runner = |cache: Option<CellCache>| {
        let mut r = asym_core::CellRunner::new(1).with_metrics(kind.metrics());
        if let Some(c) = cache {
            r = r.with_cache(c);
        }
        r
    };
    let (off, _) = spans.time("cache.off", Some(root), None, || {
        runner(None).run(plan(kind.name(), sections)).report
    });
    let dir = Scratch::new("cache-pass")?;
    let (cold, _) = spans.time("cache.cold", Some(root), None, || {
        runner(Some(
            CellCache::open(dir.path()).expect("scratch cache opens"),
        ))
        .run(plan(kind.name(), sections))
        .report
    });
    let disk_mb = dir.size_mb();
    let (warm, _) = spans.time("cache.warm", Some(root), None, || {
        runner(Some(
            CellCache::open(dir.path()).expect("scratch cache opens"),
        ))
        .run(plan(kind.name(), sections))
        .report
    });
    drop(dir);
    let cold_stats = cold.cache.clone().unwrap_or_default();
    let warm_stats = warm.cache.clone().unwrap_or_default();
    let stores = cold_stats.stores as f64;
    let hits = warm_stats.hits as f64;
    let probes = (warm_stats.hits + warm_stats.misses + warm_stats.skips + warm_stats.invalidations)
        .max(1) as f64;
    // The cache works on the calling thread outside every cell's own
    // time, so its cost is the sweep's time outside cells, less that of
    // the sweep without a cache.
    let outside = |r: &SweepReport| r.wall_ms - r.cells_wall_ms();
    let per = |ms: f64, n: f64| if n > 0.0 { ms * 1e3 / n } else { 0.0 };
    Ok(vec![
        (
            "cache.store_us_per_cell",
            per(outside(&cold) - outside(&off), stores),
            "us",
        ),
        ("cache.stores", stores, "count"),
        ("cache.disk_mb", disk_mb, "MiB"),
        (
            "cache.load_us_per_cell",
            per(outside(&warm) - outside(&off), hits),
            "us",
        ),
        ("cache.hits", hits, "count"),
        ("cache.hit_ratio", hits / probes, "ratio"),
    ])
}

/// Totals of the leg passes over the sample.
#[derive(Default)]
struct LegTotals {
    kernel_ms: f64,
    hash_ms: f64,
    buffer_ms: f64,
    fold_ms: f64,
    diff_ms: f64,
    check_ms: f64,
    events: u64,
    bytes: u64,
    hb_edges: u64,
    violations: u64,
    hash_mismatches: usize,
}

fn leg_passes(legs: &[Leg<'_>], report: &SweepReport, spans: &mut Spans, root: usize) -> LegTotals {
    let mut t = LegTotals::default();
    let mut cell_hashes: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut stock_faulted: Option<Vec<RunProfile>> = None;
    for leg in legs.iter() {
        let cell = Some(leg.cell);
        let leg_span = spans.open("leg", Some(root), cell);
        let parent = Some(leg_span);

        let (_, kernel_ms) = spans.time("kernel", parent, cell, || black_box(leg.run()));

        let ((_, hashers), hash_ms) = spans.time("trace.hash", parent, cell, || {
            capture_stream(|_, _| TraceHasher::new(), || black_box(leg.run()))
        });
        let mut leg_hash = TraceHashFold::new();
        for h in &hashers {
            leg_hash.push(h.finish());
        }
        cell_hashes
            .entry(leg.cell)
            .or_default()
            .push(leg_hash.finish());

        let ((_, traces), buffer_ms) = spans.time("trace.buffer", parent, cell, || {
            capture_traces(|| black_box(leg.run()))
        });
        for trace in &traces {
            t.events += trace.num_records() as u64;
            t.bytes += trace.encoded_len() as u64;
            let (v, ms) = spans.time("analysis.check", parent, cell, || check_concurrency(trace));
            t.violations += v.len() as u64;
            t.check_ms += ms;
            t.hb_edges += happens_before(trace).edges.len() as u64;
        }
        drop(traces);

        let ((_, folds), fold_ms) = spans.time("obs.fold", parent, cell, || {
            let (r, folds) = capture_stream(ProfileFold::new, || black_box(leg.run()));
            (
                r,
                folds
                    .into_iter()
                    .map(ProfileFold::finish)
                    .collect::<Vec<_>>(),
            )
        });
        // Differential cells diff their two disturbed legs; every other
        // leg diffs against itself, which costs the same alignment.
        let pair = match leg.diff_side {
            Some(true) => {
                stock_faulted = Some(folds);
                None
            }
            Some(false) => stock_faulted.take().map(|a| (a, folds)),
            None => Some((folds.clone(), folds)),
        };
        if let Some((a, b)) = pair {
            let (_, ms) = spans.time("obs.diff", parent, cell, || {
                black_box(ProfileDiff::new(&a, &b, "a", "b").ok())
            });
            t.diff_ms += ms;
        }

        t.kernel_ms += kernel_ms;
        t.hash_ms += hash_ms - kernel_ms;
        t.buffer_ms += buffer_ms - kernel_ms;
        t.fold_ms += fold_ms - kernel_ms;
        spans.close(leg_span);
    }
    // A clean or resilient cell's hash is its one leg's; a differential
    // cell folds its four legs' hashes.
    for (cell, hashes) in cell_hashes {
        let c = &report.cells[cell];
        let expected = match hashes[..] {
            [one] => one,
            _ => {
                let mut fold = TraceHashFold::new();
                hashes.iter().for_each(|&h| fold.push(h));
                fold.finish()
            }
        };
        let baseline = if c.mode == "differential" { 4 } else { 1 };
        if c.attempts == baseline && c.trace_hash != Some(expected) {
            t.hash_mismatches += 1;
        }
    }
    t
}
