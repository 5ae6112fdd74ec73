//! Golden run-profile regression test: the full rendered [`RunProfile`]
//! of one seeded SPECjbb cell — per-core utilization, fast-idle time,
//! migration counts, per-thread residency, sync waits, and both
//! scheduler histograms — must match `tests/golden_profile.txt` byte
//! for byte. Where `golden_hashes` pins the raw event streams, this
//! pins the derived observability layer on top of them: a change in
//! either the kernel's behaviour or the profile accounting shows up as
//! a readable diff of the report itself.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p asym-workloads --test golden_profile
//! ```

use asym_core::{
    AsymConfig, CellRunner, ExperimentOptions, ExperimentPlan, RunSetup, SpecMode, Workload,
};
use asym_kernel::{
    capture_stream, capture_traces, with_run_guard, KernelTrace, RunGuard, SchedPolicy, TraceEvent,
};
use asym_obs::{profile_traces, ProfileFold, ProfileMetrics, RunProfile};
use asym_sim::{EnvironmentPlan, EnvironmentProfile, FaultPlan, FaultProfile, SimDuration};
use asym_workloads::h264::H264;
use asym_workloads::japps::JAppServer;
use asym_workloads::pmake::Pmake;
use asym_workloads::specjbb::{GcKind, SpecJbb};
use asym_workloads::specomp::SpecOmp;
use asym_workloads::tpch::TpcH;
use asym_workloads::webserver::{Apache, LoadLevel, Zeus};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 42;

/// The pinned cell: the acceptance scenario from the observability
/// issue — SPECjbb with the concurrent collector on the half-speed
/// four-processor configuration under the stock policy.
fn pinned_cell() -> (SpecJbb, AsymConfig, SchedPolicy) {
    (
        SpecJbb::new(16).gc(GcKind::ConcurrentGenerational),
        AsymConfig::new(2, 2, 4),
        SchedPolicy::os_default(),
    )
}

fn rendered_profile() -> String {
    let (w, config, policy) = pinned_cell();
    let setup = RunSetup::new(config, policy, SEED);
    let (_, traces) = capture_traces(|| w.run(&setup));
    let profiles = profile_traces(&traces);
    assert!(!profiles.is_empty(), "run produced no kernel traces");
    let mut out = String::from(
        "# Golden rendered RunProfile: SPECjbb (concurrent GC) on 2f-2s/4,\n\
         # stock policy, seed 42. Regenerate with\n\
         # UPDATE_GOLDEN=1 cargo test -p asym-workloads --test golden_profile\n",
    );
    for p in &profiles {
        write!(out, "{p}").unwrap();
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden_profile.txt")
}

#[test]
fn rendered_profile_matches_golden() {
    let current = rendered_profile();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &current).expect("write golden file");
        eprintln!("golden profile regenerated at {}", path.display());
        return;
    }
    let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        recorded, current,
        "rendered profile diverged from tests/golden_profile.txt; \
         if the change is intentional, re-bless with UPDATE_GOLDEN=1."
    );
}

/// Runs the pinned cell through the sweep engine with metrics enabled
/// at `jobs` host threads and returns the attached [`ProfileMetrics`].
fn engine_metrics(jobs: usize) -> Vec<Option<ProfileMetrics>> {
    let (w, config, policy) = pinned_cell();
    let mut plan = ExperimentPlan::new("golden-profile");
    plan.push(
        w.name(),
        &w,
        &[config],
        SpecMode::Clean {
            policy,
            options: ExperimentOptions::new(2).base_seed(SEED),
        },
    );
    let outcome = CellRunner::new(jobs).with_metrics(true).run(plan);
    outcome
        .report
        .cells
        .iter()
        .map(|c| c.metrics.as_deref().cloned())
        .collect()
}

/// The per-cell metrics the sweep JSON embeds must be present and
/// byte-identical whether the engine ran serially or on four host
/// threads — the profile layer inherits the engine's determinism
/// contract.
#[test]
fn engine_metrics_identical_across_jobs() {
    let serial = engine_metrics(1);
    let parallel = engine_metrics(4);
    assert!(
        serial.iter().all(|m| m.is_some()),
        "every clean cell must attach metrics when requested"
    );
    assert_eq!(
        serial, parallel,
        "per-cell profile metrics changed with host thread count"
    );
    for m in serial.into_iter().flatten() {
        assert!(serial_json_is_finite(&m));
    }
}

/// All numeric fields in the JSON encoding are plain integers or
/// fixed-decimal renderings — nothing NaN/inf can appear.
fn serial_json_is_finite(m: &ProfileMetrics) -> bool {
    let json = m.to_json();
    !json.contains("NaN") && !json.contains("inf") && !json.is_empty()
}

fn paper_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(JAppServer::new(320.0)),
        Box::new(SpecJbb::new(16).gc(GcKind::ConcurrentGenerational)),
        Box::new(Apache::new(LoadLevel::light())),
        Box::new(Zeus::new(LoadLevel::light())),
        Box::new(TpcH::power_run()),
        Box::new(H264::new()),
        Box::new(SpecOmp::new("swim").work_scale(0.5)),
        Box::new(Pmake::new()),
    ]
}

/// Counts the events of `traces` that `pick` selects.
fn count_events(traces: &[KernelTrace], pick: impl Fn(&TraceEvent) -> bool) -> usize {
    traces
        .iter()
        .flat_map(|t| t.records())
        .filter(|r| pick(&r.event))
        .count()
}

/// The sweep engine folds metrics without the Perfetto timeline. On one
/// faulted-plus-environment cell per paper workload (throttles, hotplug,
/// kills and environment speed changes all occur), that fold must give
/// the same profile as a post-hoc replay with the timeline, field for
/// field, while carrying no timeline itself.
#[test]
fn timeline_free_fold_equals_replay_under_faults_and_environment() {
    let config = AsymConfig::new(1, 3, 8);
    let cores = config.num_cores() as usize;
    let horizon = SimDuration::from_millis(500);
    // At this seed every workload's plan lands at least one kill before
    // the run ends (pmake finishes too early for some seeds).
    let seed = 1;
    for w in paper_workloads() {
        let guard = || {
            RunGuard::new()
                .watchdog(SimDuration::from_secs(5))
                .sim_time_budget(SimDuration::from_secs(120))
                .fault_plan(FaultPlan::generate(
                    seed,
                    cores,
                    &FaultProfile::with_kills(horizon, 2),
                ))
                .environment(EnvironmentPlan::generate(
                    seed,
                    cores,
                    &EnvironmentProfile::combined(horizon),
                ))
        };
        let setup = RunSetup::new(config, SchedPolicy::os_default(), seed);
        let (_, traces) = capture_traces(|| with_run_guard(guard(), || w.run(&setup)));
        let (_, folds) = capture_stream(ProfileFold::without_timeline, || {
            with_run_guard(guard(), || w.run(&setup))
        });
        let name = w.name();
        assert!(
            count_events(&traces, |e| matches!(e, TraceEvent::SpeedChange { .. })) > 0,
            "{name}: no speed change"
        );
        assert!(
            count_events(&traces, |e| matches!(e, TraceEvent::CoreOffline { .. })) > 0,
            "{name}: no hotplug"
        );
        assert!(
            count_events(&traces, |e| matches!(e, TraceEvent::ThreadKilled { .. })) > 0,
            "{name}: no kill"
        );
        assert_eq!(traces.len(), folds.len(), "{name}: kernel count");
        for (trace, fold) in traces.iter().zip(folds) {
            let replayed = RunProfile::from_trace(trace);
            let folded = fold.finish();
            assert_eq!(replayed.metrics(), folded.metrics(), "{name}: metrics");
            assert_eq!(replayed.to_string(), folded.to_string(), "{name}: profile");
            assert!(
                replayed.timeline_len() > 0,
                "{name}: replay lost its timeline"
            );
            assert_eq!(
                folded.timeline_len(),
                0,
                "{name}: timeline-free fold kept one"
            );
        }
    }
}
