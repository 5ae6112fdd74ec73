//! Compare two web-server architectures on asymmetric hardware: Apache's
//! kernel-visible pre-forked processes versus Zeus's self-scheduled event
//! loops — and see why the kernel fix helps only one of them.
//!
//! Run with: `cargo run --release -p asym-examples --example webserver_farm`

use asym_core::{run_experiment, AsymConfig, ExperimentOptions, SpecMode};
use asym_examples::print_experiment;
use asym_kernel::SchedPolicy;
use asym_workloads::webserver::{Apache, LoadLevel, Zeus};

fn main() {
    let configs = [
        AsymConfig::new(4, 0, 1),
        AsymConfig::new(3, 1, 8),
        AsymConfig::new(2, 2, 8),
        AsymConfig::new(0, 4, 8),
    ];
    let clean = |policy| SpecMode::Clean {
        policy,
        options: ExperimentOptions::new(5),
    };

    let apache = Apache::new(LoadLevel::light());
    print_experiment(
        "Apache, stock kernel (unstable on asymmetric configs)",
        &run_experiment(&apache, &configs, clean(SchedPolicy::os_default())),
    );
    print_experiment(
        "Apache, asymmetry-aware kernel (fixed: processes are kernel-visible)",
        &run_experiment(&apache, &configs, clean(SchedPolicy::asymmetry_aware())),
    );

    let zeus = Zeus::new(LoadLevel::light());
    print_experiment(
        "Zeus, stock kernel (unstable: sessions bound by the accept race)",
        &run_experiment(&zeus, &configs, clean(SchedPolicy::os_default())),
    );
    print_experiment(
        "Zeus, asymmetry-aware kernel (NOT fixed: the kernel cannot reach \
         Zeus's internal scheduling)",
        &run_experiment(&zeus, &configs, clean(SchedPolicy::asymmetry_aware())),
    );
}
