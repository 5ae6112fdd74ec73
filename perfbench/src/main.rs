//! `asym-perfbench`: the host-time benchmark of the sweep pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-json --seed 0 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` times the workload's sweep through the public engine
//! (`ExperimentPlan` + `CellRunner::run`) and prints the end-to-end
//! metrics. `--trace 1` then runs two traced passes, prints the
//! per-layer metrics of the first and requires the exact counts to
//! repeat in the second. `--pin` rewrites the workload's pinned per-cell
//! digests (default seed only). See `perfbench/README.md`.

mod digest;
mod host;
mod layers;
mod workloads;

use digest::Digests;
use host::{cpu_seconds, median, Scratch};
use layers::{lookup, traced_pass, Metric, Spans, EXACT_COUNTS};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{plan, CacheUse, Kind, DEFAULT_SEED};

/// Plan builds timed per run (at least this many, and for at least
/// [`SETUP_BUILD_SECONDS`]); `setup_s` reports their median.
const SETUP_BUILDS: usize = 9;

/// Minimum time spent on timed plan builds per run.
const SETUP_BUILD_SECONDS: f64 = 0.2;

/// Cache fills timed per `scale-warm` run; `setup_s` adds their median.
const SETUP_FILLS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

const USAGE: &str =
    "usage: asym-perfbench --workload <paper-json|paper-check|scale-cold|scale-warm> \
                     [--seed N] [--seconds S] [--trace 0|1] [--pin]";

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut args = Args {
        kind: Kind::PaperJson,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got '{v}'")),
                }
            }
            "--pin" => args.pin = true,
            _ => return Err(format!("unknown argument '{a}'")),
        }
    }
    args.kind = kind.ok_or("--workload is required")?;
    if args.pin && args.seed != DEFAULT_SEED {
        return Err(format!("--pin pins the default seed ({DEFAULT_SEED}) only"));
    }
    Ok(args)
}

/// What the untraced timed sweeps measured.
struct EndToEnd {
    /// Every timed sweep's wall time, in seconds, in run order.
    walls: Vec<f64>,
    cpu_s: f64,
    setup_s: f64,
    attempted: usize,
    failed: usize,
    /// Checks beyond per-cell digests (cache equivalence, clean check,
    /// warm sweeps restoring every cell) that did not hold.
    problems: Vec<String>,
    /// Digest of the last timed sweep.
    digest: u64,
    /// What every sweep's cells are compared against: the pinned
    /// digests at the default seed, the warm-up sweep's elsewhere.
    reference: Digests,
}

/// A sweep's private cache directory: a fresh one per sweep for
/// `scale-cold`, the one filled during set-up for `scale-warm`.
fn open_cache(dir: &Scratch) -> asym_core::CellCache {
    asym_core::CellCache::open(dir.path()).expect("scratch cache directory opens")
}

/// Runs the workload untraced: set-up, one warm-up sweep, then timed
/// sweeps for `seconds`, checking every sweep's cells.
fn end_to_end(kind: Kind, seed: u64, seconds: f64, jobs: usize) -> std::io::Result<EndToEnd> {
    let mut problems = Vec::new();

    // Set-up: spec build and plan expansion, several times; for
    // scale-warm also the cache fill, several times into fresh
    // directories, keeping the last.
    let mut builds = Vec::new();
    let started = Instant::now();
    while builds.len() < SETUP_BUILDS || started.elapsed().as_secs_f64() < SETUP_BUILD_SECONDS {
        let t = Instant::now();
        let sections = kind.sections(seed);
        black_box(plan(kind.name(), &sections));
        builds.push(t.elapsed().as_secs_f64());
    }
    let mut setup_s = median(&builds);
    let mut filled: Option<(Scratch, Digests)> = None;
    if kind.cache() == CacheUse::Warm {
        let mut fills = Vec::with_capacity(SETUP_FILLS);
        for _ in 0..SETUP_FILLS {
            let sections = kind.sections(seed);
            let dir = Scratch::new("warm")?;
            let t = Instant::now();
            let report = kind
                .runner(jobs, Some(open_cache(&dir)))
                .run(plan(kind.name(), &sections))
                .report;
            fills.push(t.elapsed().as_secs_f64());
            filled = Some((dir, Digests::of(&report)));
        }
        setup_s += median(&fills);
    }

    let sweep = |cold_dir: Option<&Scratch>| {
        let sections = kind.sections(seed);
        let cache = match kind.cache() {
            CacheUse::Off => None,
            CacheUse::Cold => cold_dir.map(open_cache),
            CacheUse::Warm => filled.as_ref().map(|(d, _)| open_cache(d)),
        };
        let runner = kind.runner(jobs, cache);
        let p = plan(kind.name(), &sections);
        let c0 = cpu_seconds();
        let t0 = Instant::now();
        let outcome = runner.run(p);
        if kind.metrics() {
            black_box(outcome.report.to_json());
        }
        let wall = t0.elapsed().as_secs_f64();
        (outcome.report, wall, cpu_seconds() - c0)
    };

    // Warm-up sweep, untimed: its cells are the reference away from the
    // default seed.
    let warmup_dir = (kind.cache() == CacheUse::Cold)
        .then(|| Scratch::new("cold"))
        .transpose()?;
    let (warmup, _, _) = sweep(warmup_dir.as_ref());
    drop(warmup_dir);
    let reference = if seed == DEFAULT_SEED {
        Digests::parse(kind.pinned())
    } else {
        Digests::of(&warmup)
    };
    if let Some((_, fill)) = &filled {
        if fill.differing(&reference).next().is_some() {
            problems.push("the cold fill differs from the reference".into());
        }
    }

    let mut walls = Vec::new();
    let mut cpu = 0.0;
    let mut attempted = 0;
    let mut failed = 0;
    let mut digest = 0;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let cold_dir = (kind.cache() == CacheUse::Cold)
            .then(|| Scratch::new("cold"))
            .transpose()?;
        let (report, wall, cpu_used) = sweep(cold_dir.as_ref());
        drop(cold_dir);
        walls.push(wall);
        cpu += cpu_used;
        let digests = Digests::of(&report);
        digest = digests.fold();
        attempted += report.cells.len();
        // A cell fails when its result differs from the reference, or —
        // under the trace check — when the check found anything.
        let flagged = report.cells.iter().enumerate();
        let flagged = flagged
            .filter(|(_, c)| !c.violations.is_empty())
            .map(|(i, _)| i);
        let bad: BTreeSet<usize> = digests.differing(&reference).chain(flagged).collect();
        failed += bad.len();
        match kind.cache() {
            CacheUse::Warm if report.cached_cells() != report.cells.len() => {
                problems.push("a warm sweep executed cells instead of restoring them".into());
            }
            CacheUse::Cold
                if report.cache.as_ref().map_or(0, |c| c.stores) as usize != report.cells.len() =>
            {
                problems.push("a cold sweep did not store every cell".into());
            }
            _ => {}
        }
    }

    if kind.cache() == CacheUse::Warm {
        // The restored cells must equal both the cold fill and a sweep
        // with no cache at all, so a cache returning wrong values fails.
        let sections = kind.sections(seed);
        let off = Digests::of(
            &kind
                .runner(jobs, None)
                .run(plan(kind.name(), &sections))
                .report,
        );
        let fill = &filled.as_ref().expect("scale-warm filled its cache").1;
        if off.fold() != digest || fill.fold() != digest {
            problems.push(format!(
                "restored digest {digest:016x}, cold fill {:016x}, cache off {:016x}",
                fill.fold(),
                off.fold()
            ));
        }
    }

    Ok(EndToEnd {
        cpu_s: cpu / walls.len() as f64,
        walls,
        setup_s,
        attempted,
        failed,
        problems,
        digest,
        reference,
    })
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    out + "}}"
}

/// Rewrites the workload's pinned per-cell digests from one sweep at
/// the default seed.
fn pin(kind: Kind, jobs: usize) -> std::io::Result<()> {
    let sections = kind.sections(DEFAULT_SEED);
    let report = kind
        .runner(jobs, None)
        .run(plan(kind.name(), &sections))
        .report;
    let digests = Digests::of(&report);
    let path = format!("perfbench/pinned/{}.txt", kind.pinned_file());
    let header = format!(
        "per-cell digests of {} at seed {DEFAULT_SEED}: {} cells, digest {:016x}",
        kind.name(),
        digests.0.len(),
        digests.fold()
    );
    std::fs::write(&path, digests.render(&header))?;
    println!("wrote {path}: {header}");
    Ok(())
}

fn run(args: &Args) -> std::io::Result<()> {
    let kind = args.kind;
    let nproc = host::nproc();
    let jobs = kind.jobs(nproc);
    println!(
        "# workload {} seed {} | nproc {nproc} | host threads {jobs} | load1 {:.2} | host probe {:.1} ms before the run",
        kind.name(),
        args.seed,
        host::load1(),
        host::probe_ms()
    );
    if args.pin {
        return pin(kind, jobs);
    }

    let e2e = end_to_end(kind, args.seed, args.seconds, jobs)?;
    let pinned = Digests::parse(kind.pinned()).fold();
    println!(
        "# {} timed sweep(s), {} cells each; digest {:016x} ({})",
        e2e.walls.len(),
        e2e.reference.0.len(),
        e2e.digest,
        if args.seed != DEFAULT_SEED {
            "seed not pinned; compare across commits".to_string()
        } else if e2e.digest == pinned {
            "matches the pinned digest".to_string()
        } else {
            format!("pinned {pinned:016x}: MISMATCH")
        }
    );
    let walls: Vec<String> = e2e.walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("# sweep walls (s): {}", walls.join(" "));
    println!(
        "# host probe {:.1} ms after the timed sweeps",
        host::probe_ms()
    );
    for p in &e2e.problems {
        println!("# FAILED CHECK: {p}");
    }
    let e2e_metrics = [
        ("wall_s", median(&e2e.walls), "s"),
        ("cpu_s", e2e.cpu_s, "s"),
        ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        ("setup_s", e2e.setup_s, "s"),
        (
            "failed_frac",
            e2e.failed as f64 / e2e.attempted.max(1) as f64,
            "ratio",
        ),
    ];
    print_metrics(&e2e_metrics);
    let mut attempted = e2e.attempted;
    let mut failed = e2e.failed;
    let mut correct = e2e.problems.is_empty();

    if !args.trace {
        // The result line carries failed_frac as `failed` / `attempted`:
        // a metric that is 0 on a correct run cannot be bounded.
        println!(
            "{}",
            result_line(correct && failed == 0, attempted, failed, &e2e_metrics[..4])
        );
        return Ok(());
    }

    // Two traced passes: the per-layer figures come from the first, and
    // the exact counts must repeat in the second.
    let mut spans = Spans::new();
    let wall_ms = median(&e2e.walls) * 1e3;
    let ledgers = [
        traced_pass(kind, args.seed, jobs, wall_ms, &mut spans)?,
        traced_pass(kind, args.seed, jobs, wall_ms, &mut spans)?,
    ];
    for ledger in &ledgers {
        attempted += ledger.cells;
        failed += ledger.digests.differing(&e2e.reference).count() + ledger.hash_mismatches;
        if ledger.hash_mismatches > 0 {
            println!(
                "# FAILED CHECK: {} sampled cell(s) hash differently outside the engine",
                ledger.hash_mismatches
            );
        }
    }
    let ledger = &ledgers[0];
    if kind.check() && lookup(&ledger.metrics, "analysis.violations") != 0.0 {
        println!("# FAILED CHECK: analysis.violations is not 0");
        correct = false;
    }
    for name in EXACT_COUNTS {
        let (a, b) = (
            lookup(&ledger.metrics, name),
            lookup(&ledgers[1].metrics, name),
        );
        let verdict = if a == b { "repeats" } else { "DIFFERS" };
        println!("# exact count {name}: {a} then {b}: {verdict}");
        correct &= a == b;
    }
    std::fs::create_dir_all(host::WORK_DIR)?;
    let spans_path =
        std::path::Path::new(host::WORK_DIR).join(format!("spans-{}.json", kind.name()));
    std::fs::write(&spans_path, spans.to_json())?;
    println!("# spans written to {}", spans_path.display());
    print_metrics(&ledger.metrics);
    println!(
        "{}",
        result_line(correct && failed == 0, attempted, failed, &ledger.metrics)
    );
    Ok(())
}

fn print_metrics(metrics: &[Metric]) {
    for (name, value, unit) in metrics {
        println!("{name:<26} {value:>18.6} {unit}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // An incorrect result still exits 0: the result line says so.
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("asym-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
