//! Ablation harness for the design choices called out in DESIGN.md §6:
//! what actually produces the paper's instability, and what the
//! asymmetry-aware scheduler's pieces each contribute.

use asym_bench::figure_header;
use asym_core::{run_experiment, AsymConfig, ExperimentOptions, SpecMode, TextTable, Workload};
use asym_kernel::SchedPolicy;
use asym_workloads::specjbb::{GcKind, SpecJbb};
use asym_workloads::webserver::{Apache, LoadLevel};

fn cov_at(workload: &dyn Workload, policy: SchedPolicy, config: AsymConfig) -> f64 {
    let options = ExperimentOptions::new(5);
    let exp = run_experiment(workload, &[config], SpecMode::Clean { policy, options });
    exp.outcomes[0].samples().cov()
}

fn main() {
    let config = AsymConfig::new(2, 2, 8);
    let jbb = SpecJbb::new(12).gc(GcKind::ConcurrentGenerational);
    let apache = Apache::new(LoadLevel::light());

    figure_header(
        "Ablation 1",
        "Scheduler policy variants vs instability (CoV % on 2f-2s/8, 5 runs)",
    );
    let mut t = TextTable::new(vec!["policy", "SPECjbb cov%", "Apache cov%"]);
    for (name, policy) in [
        ("stock (randomized ties)", SchedPolicy::os_default()),
        (
            "stock, deterministic ties",
            SchedPolicy::os_default_deterministic(),
        ),
        ("asym-aware, full", SchedPolicy::asymmetry_aware()),
        (
            "asym-aware, no running-thread migration",
            SchedPolicy::asymmetry_aware_no_migration(),
        ),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:.1}", cov_at(&jbb, policy, config) * 100.0),
            format!("{:.1}", cov_at(&apache, policy, config) * 100.0),
        ]);
        eprintln!("  [ablation] {name} done");
    }
    println!("{}", t.render());
    println!(
        "Deterministic tie-breaking freezes each run's placement but different\n\
         seeds still land different lotteries; the aware policy's wakeup\n\
         preference does most of the stabilizing, and running-thread migration\n\
         closes the rest (idle fast cores rescue stranded threads)."
    );

    figure_header(
        "Ablation 2",
        "Mean performance cost/benefit of the aware policy (2f-2s/8)",
    );
    let mut t = TextTable::new(vec!["workload", "stock mean", "aware mean", "gain"]);
    for (name, w) in [
        ("SPECjbb tx/s", &jbb as &dyn Workload),
        ("Apache req/s", &apache as &dyn Workload),
    ] {
        let mean = |policy| {
            let options = ExperimentOptions::new(5);
            let exp = run_experiment(w, &[config], SpecMode::Clean { policy, options });
            exp.outcomes[0].samples().mean()
        };
        let (sm, am) = (
            mean(SchedPolicy::os_default()),
            mean(SchedPolicy::asymmetry_aware()),
        );
        t.row(vec![
            name.to_string(),
            format!("{sm:.0}"),
            format!("{am:.0}"),
            format!("{:+.0}%", (am / sm - 1.0) * 100.0),
        ]);
    }
    println!("{}", t.render());
}
