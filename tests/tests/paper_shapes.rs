//! Integration tests asserting the qualitative *shape* of every result
//! the paper reports — the acceptance criteria of this reproduction.

use asym_core::AsymConfig;
use asym_kernel::SchedPolicy;
use asym_tests::{mean, nine, spread, subset};
use asym_workloads::h264::H264;
use asym_workloads::japps::JAppServer;
use asym_workloads::pmake::Pmake;
use asym_workloads::specjbb::{GcKind, SpecJbb};
use asym_workloads::specomp::{OmpVariant, SpecOmp};
use asym_workloads::tpch::TpcH;
use asym_workloads::webserver::{Apache, LoadLevel, Zeus};

fn c(label: &str) -> AsymConfig {
    label.parse().expect("valid config label")
}

// ------------------------------------------------------------------
// Figure 1 / 2: SPECjbb
// ------------------------------------------------------------------

#[test]
fn fig2_specjbb_unstable_on_asym_fixed_by_aware_kernel() {
    let jbb = SpecJbb::new(12).gc(GcKind::ConcurrentGenerational);
    let configs = [c("4f-0s"), c("2f-2s/8"), c("0f-4s/8")];
    let stock = subset(&jbb, &configs, SchedPolicy::os_default(), 5);
    // Symmetric configurations are repeatable...
    assert!(spread(&stock, c("4f-0s")) < 0.02);
    assert!(spread(&stock, c("0f-4s/8")) < 0.02);
    // ...the asymmetric one is not (Figure 1(b)/2(a)).
    assert!(
        spread(&stock, c("2f-2s/8")) > 0.25,
        "expected large instability, got {}",
        spread(&stock, c("2f-2s/8"))
    );
    // The asymmetry-aware kernel eliminates it (Figure 2(b)) and raises
    // the mean.
    let aware = subset(&jbb, &configs, SchedPolicy::asymmetry_aware(), 5);
    assert!(spread(&aware, c("2f-2s/8")) < 0.05);
    assert!(mean(&aware, c("2f-2s/8")) > mean(&stock, c("2f-2s/8")));
}

#[test]
fn fig1_concurrent_gc_worse_than_parallel_gc_on_asym() {
    let par = SpecJbb::new(12).gc(GcKind::Parallel);
    let conc = SpecJbb::new(12).gc(GcKind::ConcurrentGenerational);
    let configs = [c("2f-2s/8")];
    let p = subset(&par, &configs, SchedPolicy::os_default(), 6);
    let q = subset(&conc, &configs, SchedPolicy::os_default(), 6);
    assert!(
        spread(&q, c("2f-2s/8")) > 2.0 * spread(&p, c("2f-2s/8")),
        "concurrent GC must be the instability amplifier: parallel {} concurrent {}",
        spread(&p, c("2f-2s/8")),
        spread(&q, c("2f-2s/8"))
    );
}

// ------------------------------------------------------------------
// Figure 3: SPECjAppServer
// ------------------------------------------------------------------

#[test]
fn fig3_japps_stable_and_feedback_scales_throughput() {
    let japps = JAppServer::new(320.0);
    let exp = nine(&japps, SchedPolicy::os_default(), 3);
    // Stable everywhere (the feedback loop adapts).
    assert!(
        exp.worst_asymmetric_cov() < 0.10,
        "jAppServer should be stable, worst CoV {}",
        exp.worst_asymmetric_cov()
    );
    // Strong configs sustain the injection rate; weak ones are throttled
    // in proportion to capacity (Figure 3(a)).
    let top = mean(&exp, c("4f-0s"));
    assert!((mean(&exp, c("3f-1s/4")) / top) > 0.8, "near-flat top");
    assert!(mean(&exp, c("0f-4s/8")) < 0.35 * top, "throttled bottom");
    // Response-time percentiles are ordered and scale with slowness
    // (Figure 3(b)).
    let o = exp.outcome(c("2f-2s/8")).expect("config present");
    assert!(o.extras_mean()["mfg_p90_ms"] >= o.extras_mean()["mfg_avg_ms"] * 0.8);
    assert!(o.extras_mean()["mfg_max_ms"] >= o.extras_mean()["mfg_p90_ms"]);
}

// ------------------------------------------------------------------
// Figures 4 & 5: TPC-H
// ------------------------------------------------------------------

#[test]
fn fig4_tpch_power_run_unstable_only_on_asym() {
    let exp = nine(&TpcH::power_run(), SchedPolicy::os_default(), 4);
    assert!(exp.worst_symmetric_cov() < 0.03, "symmetric stable");
    assert!(
        exp.worst_asymmetric_cov() > 0.15,
        "asymmetric unstable: {}",
        exp.worst_asymmetric_cov()
    );
}

#[test]
fn fig5_parallelization_up_variance_up_optimization_down_variance_down() {
    let base = nine(&TpcH::power_run(), SchedPolicy::os_default(), 4);
    let p8 = nine(
        &TpcH::power_run().parallelization(8),
        SchedPolicy::os_default(),
        4,
    );
    let o2 = nine(
        &TpcH::power_run().optimization(2),
        SchedPolicy::os_default(),
        4,
    );
    // P=8 does not calm things down (the paper measured it getting worse).
    assert!(p8.worst_asymmetric_cov() > 0.5 * base.worst_asymmetric_cov());
    // Lower optimization slashes the variance (the paper: up to ~10x)...
    assert!(
        o2.worst_asymmetric_cov() < 0.4 * base.worst_asymmetric_cov(),
        "opt2 {} vs opt7 {}",
        o2.worst_asymmetric_cov(),
        base.worst_asymmetric_cov()
    );
    // ...while making every configuration slower.
    for cfg in ["4f-0s", "0f-4s/8"] {
        assert!(mean(&o2, c(cfg)) > 1.5 * mean(&base, c(cfg)));
    }
}

#[test]
fn tpch_kernel_fix_ineffective() {
    let configs = [c("2f-2s/8")];
    let stock = subset(
        &TpcH::single_query(3),
        &configs,
        SchedPolicy::os_default(),
        8,
    );
    let aware = subset(
        &TpcH::single_query(3),
        &configs,
        SchedPolicy::asymmetry_aware(),
        8,
    );
    assert!(
        spread(&aware, c("2f-2s/8")) > 0.5 * spread(&stock, c("2f-2s/8")),
        "pinned DB processes are beyond the kernel's reach"
    );
}

// ------------------------------------------------------------------
// Figures 6 & 7: Apache and Zeus
// ------------------------------------------------------------------

#[test]
fn fig6_apache_light_unstable_heavy_stable_kernel_fix_works() {
    let light = Apache::new(LoadLevel {
        concurrency: 10,
        total_requests: 4_000,
    });
    let heavy = Apache::new(LoadLevel {
        concurrency: 60,
        total_requests: 10_000,
    });
    let configs = [c("3f-1s/8"), c("0f-4s/8")];
    let l = subset(&light, &configs, SchedPolicy::os_default(), 6);
    let h = subset(&heavy, &configs, SchedPolicy::os_default(), 4);
    assert!(spread(&l, c("3f-1s/8")) > 0.10, "light-load instability");
    assert!(spread(&l, c("0f-4s/8")) < 0.05, "symmetric stays stable");
    assert!(spread(&h, c("3f-1s/8")) < 0.08, "heavy load is stable");
    let aware = subset(&light, &configs, SchedPolicy::asymmetry_aware(), 6);
    assert!(
        spread(&aware, c("3f-1s/8")) < 0.4 * spread(&l, c("3f-1s/8")),
        "the kernel fix repairs Apache"
    );
}

#[test]
fn fig7_zeus_unstable_both_loads_and_beyond_kernel_reach() {
    let light = Zeus::new(LoadLevel {
        concurrency: 10,
        total_requests: 20_000,
    });
    let heavy = Zeus::new(LoadLevel {
        concurrency: 60,
        total_requests: 50_000,
    });
    let configs = [c("3f-1s/8"), c("4f-0s")];
    let l = subset(&light, &configs, SchedPolicy::os_default(), 6);
    let h = subset(&heavy, &configs, SchedPolicy::os_default(), 6);
    assert!(spread(&l, c("3f-1s/8")) > 0.10, "light unstable");
    assert!(spread(&h, c("3f-1s/8")) > 0.08, "heavy unstable too");
    assert!(spread(&l, c("4f-0s")) < 0.08, "symmetric stable");
    // Identical results under the aware kernel: pinned event loops.
    let aware = subset(&light, &configs, SchedPolicy::asymmetry_aware(), 6);
    assert_eq!(
        l.outcome(c("3f-1s/8")).unwrap().samples(),
        aware.outcome(c("3f-1s/8")).unwrap().samples(),
    );
}

// ------------------------------------------------------------------
// Figure 8: SPEC OMP
// ------------------------------------------------------------------

#[test]
fn fig8a_static_omp_paces_at_slowest_core() {
    let swim = SpecOmp::new("swim").work_scale(0.3);
    let configs = [c("4f-0s"), c("2f-2s/8"), c("0f-4s/4"), c("0f-4s/8")];
    let exp = subset(&swim, &configs, SchedPolicy::os_default(), 2);
    let asym = mean(&exp, c("2f-2s/8"));
    let slow8 = mean(&exp, c("0f-4s/8"));
    // 2f-2s/8 runs essentially like 0f-4s/8 (within 20%), despite having
    // 4.5x the compute power.
    assert!(asym > 0.8 * slow8, "asym {asym} vs all-slow {slow8}");
    // And is worse than 0f-4s/4, which has LESS power (the galgel/fma3d
    // observation generalizes under pure static pacing).
    assert!(asym > mean(&exp, c("0f-4s/4")));
}

#[test]
fn fig8b_dynamic_chunks_restore_scaling() {
    let fixed = SpecOmp::new("swim")
        .variant(OmpVariant::DynamicChunked)
        .work_scale(0.3);
    let configs = [c("4f-0s"), c("2f-2s/8"), c("0f-4s/8")];
    let exp = subset(&fixed, &configs, SchedPolicy::os_default(), 2);
    let asym = mean(&exp, c("2f-2s/8"));
    let midpoint = (mean(&exp, c("4f-0s")) + mean(&exp, c("0f-4s/8"))) / 2.0;
    // "Asymmetric configurations perform better than the midpoints of
    // 4f-0s and 0f-4s/8" (§3.5).
    assert!(asym < midpoint, "asym {asym} vs midpoint {midpoint}");
}

// ------------------------------------------------------------------
// Figure 9: H.264 and PMAKE
// ------------------------------------------------------------------

#[test]
fn fig9_h264_stable_scalable_and_asymmetry_helps() {
    let h = H264::new();
    let configs = [c("4f-0s"), c("1f-3s/8"), c("0f-4s/4"), c("0f-4s/8")];
    let exp = subset(&h, &configs, SchedPolicy::os_default(), 3);
    assert!(exp.worst_asymmetric_cov() < 0.05, "H.264 is stable");
    // One fast core beats all-slow machines of equal or greater power.
    let one_fast = mean(&exp, c("1f-3s/8"));
    assert!(one_fast < mean(&exp, c("0f-4s/4")));
    assert!(one_fast < mean(&exp, c("0f-4s/8")));
}

#[test]
fn fig9_pmake_stable_scalable_and_asymmetry_helps() {
    let p = Pmake::new();
    let configs = [c("4f-0s"), c("1f-3s/8"), c("0f-4s/4"), c("0f-4s/8")];
    let exp = subset(&p, &configs, SchedPolicy::os_default(), 2);
    assert!(exp.worst_asymmetric_cov() < 0.08, "PMAKE is near-stable");
    let one_fast = mean(&exp, c("1f-3s/8"));
    assert!(one_fast < mean(&exp, c("0f-4s/4")));
    // And scalability: the fast machine crushes the slow one.
    assert!(mean(&exp, c("0f-4s/8")) > 4.0 * mean(&exp, c("4f-0s")));
}

// ------------------------------------------------------------------
// Figure 10 / summary points
// ------------------------------------------------------------------

#[test]
fn fig10_speedups_normalize_and_order() {
    let h = H264::new();
    let exp = nine(&h, SchedPolicy::os_default(), 2);
    let speedups = exp.speedups_over(c("0f-4s/8"));
    let get = |label: &str| {
        speedups
            .iter()
            .find(|(cfg, _)| cfg.to_string() == label)
            .map(|(_, s)| *s)
            .expect("config present")
    };
    assert!((get("0f-4s/8") - 1.0).abs() < 1e-9);
    assert!(get("4f-0s") > 4.0, "fast end dominates");
    // Speedup decreases monotonically-ish with compute power for this
    // well-behaved workload.
    assert!(get("4f-0s") > get("2f-2s/8"));
    assert!(get("2f-2s/8") > get("0f-4s/8"));
}

#[test]
fn point3_asymmetric_beats_all_slow_for_serial_heavy_work() {
    // Paper point 3: an asymmetric CMP beats an all-slow CMP because the
    // fast core executes serial portions. Demonstrated by PMAKE's serial
    // parse/link plus H.264's serial pre/post.
    let p = Pmake::new();
    let configs = [c("2f-2s/8"), c("0f-4s/4"), c("0f-4s/8")];
    let exp = subset(&p, &configs, SchedPolicy::os_default(), 2);
    let asym = mean(&exp, c("2f-2s/8"));
    let mid = (mean(&exp, c("0f-4s/4")) + mean(&exp, c("0f-4s/8"))) / 2.0;
    assert!(
        asym < mid,
        "2f-2s/8 ({asym}) should beat the all-slow midpoint ({mid})"
    );
}
