//! Properties of the happens-before engine over real workload traces,
//! plus determinism of the engine-integrated trace check.
//!
//! * The happens-before relation must be acyclic and consistent with
//!   trace timestamps on every clean run of the full experiment matrix
//!   (all nine configurations × all eight paper workloads), and its
//!   exact size and edge lists are pinned.
//! * The one-pass suite must report exactly what the five standalone
//!   checks report between them, on every matrix trace.
//! * The violations a [`CellRunner`] trace check reports must be
//!   byte-identical whatever the host thread count.

use asym_analysis::hb::{
    check_concurrency, check_locksets, check_races, check_rerank_hygiene, check_stale_ranking,
    check_starvation, happens_before,
};
use asym_analysis::normalize_violations;
use asym_bench::{concurrency_check, paper_workloads};
use asym_core::{
    AsymConfig, CellRunner, Direction, ExperimentOptions, ExperimentPlan, RunResult, RunSetup,
    SpecMode, Workload,
};
use asym_kernel::{
    capture_traces, FnThread, Kernel, SchedPolicy, SpawnOptions, Step, TraceHashFold,
};
use asym_sim::{Cycles, StableHasher};
use asym_sync::SimShared;
use std::hash::Hasher;

/// The HB relation of every trace of every (workload, config) cell is a
/// DAG consistent with time: every edge points from an earlier record
/// index to a strictly later one, and never backwards in simulated
/// time. Clean runs must also be free of data races. The matrix's
/// kernel, event and edge totals are pinned exactly, and so is a digest
/// of every trace's `(src, dst, kind)` edge list, so a checker rewrite
/// cannot drop, add or reorder a single edge unnoticed.
#[test]
fn hb_relation_is_acyclic_and_time_consistent_across_matrix() {
    let policy = SchedPolicy::asymmetry_aware();
    let (mut kernels, mut events, mut edges) = (0usize, 0usize, 0usize);
    let mut digest = TraceHashFold::new();
    for w in paper_workloads() {
        for config in AsymConfig::standard_nine() {
            let setup = RunSetup::new(config, policy, 0);
            let (_, traces) = capture_traces(|| w.run(&setup));
            let label = format!("{} @ {config}", w.name());
            assert!(!traces.is_empty(), "{label}: no kernels captured");
            for trace in &traces {
                let analysis = happens_before(trace);
                let records: Vec<_> = trace.records().collect();
                assert!(
                    !analysis.edges.is_empty(),
                    "{label}: no happens-before edges at all"
                );
                for e in &analysis.edges {
                    // src < dst makes any cycle impossible: the relation
                    // is a sub-order of the record index order.
                    assert!(
                        e.src < e.dst,
                        "{label}: edge {:?} #{}->#{} points backwards",
                        e.kind,
                        e.src,
                        e.dst
                    );
                    let (t_src, t_dst) = (records[e.src].time, records[e.dst].time);
                    assert!(
                        t_src <= t_dst,
                        "{label}: edge {:?} #{}->#{} goes back in time ({:?} > {:?})",
                        e.kind,
                        e.src,
                        e.dst,
                        t_src,
                        t_dst
                    );
                }
                assert!(
                    analysis.races.is_empty(),
                    "{label}: clean run reported races: {:?}",
                    analysis.races
                );
                let mut h = StableHasher::new();
                for e in &analysis.edges {
                    h.write_u64(e.src as u64);
                    h.write_u64(e.dst as u64);
                    h.write_u8(e.kind as u8);
                }
                digest.push(h.finish());
                kernels += 1;
                events += trace.num_records();
                edges += analysis.edges.len();

                let mut separate = check_races(trace);
                separate.extend(check_locksets(trace));
                separate.extend(check_stale_ranking(trace));
                separate.extend(check_rerank_hygiene(trace));
                separate.extend(check_starvation(trace));
                assert_eq!(
                    check_concurrency(trace),
                    normalize_violations(separate),
                    "{label}: the one-pass suite disagrees with the standalone checks"
                );
            }
        }
    }
    assert_eq!(
        (kernels, events, edges),
        (72, 11_262_562, 4_755_243),
        "matrix totals (kernels, trace events, happens-before edges)"
    );
    assert_eq!(
        digest.finish(),
        1_974_014_718_397_254_071,
        "digest of every trace's happens-before edge list"
    );
}

/// A deliberately racy workload: two threads increment one [`SimShared`]
/// counter with unsynchronized read-then-write sequences, so every run
/// produces data-race findings for the engine's trace check to report.
struct Racy;

impl Workload for Racy {
    fn name(&self) -> &str {
        "racy"
    }
    fn unit(&self) -> &str {
        "ops"
    }
    fn direction(&self) -> Direction {
        Direction::HigherIsBetter
    }
    fn run(&self, setup: &RunSetup) -> RunResult {
        let mut k = Kernel::new(setup.config.machine(), setup.policy, setup.seed);
        let counter = SimShared::new(&mut k, "racy.counter", 0u64);
        for i in 0..2 {
            let c = counter.clone();
            let mut left = 3u32;
            k.spawn(
                FnThread::new(format!("racer{i}"), move |cx| {
                    if left == 0 {
                        return Step::Done;
                    }
                    left -= 1;
                    let v = c.read(cx, |c| *c);
                    c.write(cx, |c| *c = v + 1);
                    Step::Compute(Cycles::new(1_000))
                }),
                SpawnOptions::new(),
            );
        }
        k.run();
        RunResult::new(counter.peek(|c| *c) as f64)
    }
}

/// Satellite invariant: the violation lists the engine's trace check
/// attaches to each cell are sorted, deduplicated, and byte-identical
/// between `--jobs 1` and `--jobs 4`.
#[test]
fn trace_check_violations_are_deterministic_across_jobs() {
    let racy = Racy;
    let configs = [AsymConfig::new(2, 0, 1), AsymConfig::new(1, 1, 8)];
    let run = |jobs: usize| {
        let mut plan = ExperimentPlan::new("race-determinism");
        plan.push(
            "racy",
            &racy,
            &configs,
            SpecMode::Clean {
                policy: SchedPolicy::os_default(),
                options: ExperimentOptions::new(2),
            },
        );
        CellRunner::new(jobs)
            .with_trace_check(concurrency_check())
            .run(plan)
    };
    let serial = run(1);
    let parallel = run(4);
    let violations = |o: &asym_core::PlanOutcome| {
        o.report
            .cells
            .iter()
            .map(|c| c.violations.clone())
            .collect::<Vec<_>>()
    };
    let (sv, pv) = (violations(&serial), violations(&parallel));
    assert_eq!(sv, pv, "violations must not depend on --jobs");
    assert!(
        sv.iter().all(|cell| !cell.is_empty()),
        "every racy cell must report at least one finding: {sv:?}"
    );
    for cell in &sv {
        let mut sorted = cell.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            *cell, sorted,
            "per-cell violations must arrive sorted and deduplicated"
        );
    }
    assert!(
        sv.iter()
            .flatten()
            .all(|v| v.contains("data-race") && v.contains("racy.counter")),
        "findings should be data races on racy.counter: {sv:?}"
    );
    // The JSON sink carries the findings verbatim.
    let json = serial.report.to_json();
    assert!(json.contains("\"violations\": [\"[data-race]"));
    assert!(json.contains("\"total_violations\": "));
}
