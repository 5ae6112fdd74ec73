//! Regression test: shared-access tracing is observationally transparent
//! to the scheduler. Running any workload with access tracing disabled
//! must produce exactly the same kernel event stream as running it with
//! tracing enabled and then erasing the annotation events
//! (`SharedRead`/`SharedWrite`/`SharedAtomic`/`ThreadJoin`) — same
//! events, same timestamps, same order. If instrumentation ever leaks
//! into a scheduling decision, the two streams diverge here.

use asym_core::{AsymConfig, RunSetup, Workload};
use asym_kernel::{capture_traces, set_access_tracing, SchedPolicy, TraceEvent, TraceRecord};
use asym_workloads::h264::H264;
use asym_workloads::japps::JAppServer;
use asym_workloads::pmake::Pmake;
use asym_workloads::specjbb::{GcKind, SpecJbb};
use asym_workloads::specomp::SpecOmp;
use asym_workloads::tpch::TpcH;
use asym_workloads::webserver::{Apache, LoadLevel, Zeus};

const SEED: u64 = 42;

fn workloads() -> Vec<Box<dyn Workload>> {
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

fn is_annotation(event: &TraceEvent) -> bool {
    matches!(
        event,
        TraceEvent::SharedRead { .. }
            | TraceEvent::SharedWrite { .. }
            | TraceEvent::SharedAtomic { .. }
            | TraceEvent::ThreadJoin { .. }
    )
}

/// Restores the thread-local access-tracing flag on drop, so a failing
/// assertion cannot poison other tests on the same test thread.
struct TracingGuard(bool);

impl Drop for TracingGuard {
    fn drop(&mut self) {
        set_access_tracing(self.0);
    }
}

#[test]
fn access_tracing_never_changes_scheduling() {
    let matrix = [
        (AsymConfig::new(1, 3, 8), SchedPolicy::os_default()),
        (AsymConfig::new(4, 0, 8), SchedPolicy::asymmetry_aware()),
    ];
    for w in workloads() {
        for (config, policy) in matrix {
            let setup = RunSetup::new(config, policy, SEED);

            let guard = TracingGuard(set_access_tracing(true));
            let (_, on) = capture_traces(|| w.run(&setup));
            set_access_tracing(false);
            let (_, off) = capture_traces(|| w.run(&setup));
            drop(guard);

            let label = format!("{} on {config}", w.name());
            assert_eq!(
                on.len(),
                off.len(),
                "{label}: kernel count changed with tracing"
            );
            let mut saw_shared_access = false;
            for (t_on, t_off) in on.iter().zip(&off) {
                saw_shared_access |= t_on.records().any(|r| {
                    matches!(
                        r.event,
                        TraceEvent::SharedRead { .. }
                            | TraceEvent::SharedWrite { .. }
                            | TraceEvent::SharedAtomic { .. }
                    )
                });
                assert!(
                    !t_off.records().any(|r| is_annotation(&r.event)),
                    "{label}: annotation events leaked into a tracing-off run"
                );
                let scheduler_stream: Vec<TraceRecord> = t_on
                    .records()
                    .filter(|r| !is_annotation(&r.event))
                    .collect();
                assert_eq!(
                    scheduler_stream,
                    t_off.records().collect::<Vec<_>>(),
                    "{label}: scheduler event stream differs with tracing on vs off"
                );
            }
            assert!(
                saw_shared_access,
                "{label}: workload emitted no shared-access events — instrumentation missing"
            );
        }
    }
}
