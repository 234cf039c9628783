//! End-to-end guarantees of the multi-tenant serving layer.
//!
//! * **Determinism**: a serving run is a pure function of `(seed,
//!   config)` — repeat runs, worker-thread fan-out (`--jobs`), and
//!   fabric host threading (`--sim-threads`) must all produce
//!   byte-identical exports.
//! * **Overload**: at 10× saturation the scheduler sheds load with
//!   explicit rejections; nothing stalls, nothing trips a watchdog,
//!   and every completion still validates against the golden
//!   reference.
//! * **Preemption**: jobs preempted for higher-priority traffic and
//!   later resumed from their checkpoint produce golden-exact results
//!   for the integer algorithms and ≤ 1e-5 for PageRank (asserted
//!   inside the scheduler via `golden_mismatches`).
//! * **Priority**: strict-priority scheduling plus boundary preemption
//!   bounds priority inversion — the high class's tail latency stays
//!   below the low class's under mixed overload.

use bench::experiments::serve::ServeSweepOptions;
use bench::experiments::{self, Scope};
use bench::EngineConfig;
use serve::{run, JobKey, Priority, Request, Scheduler, ServeConfig};
use simkit::record::to_json;
use simkit::Cycle;

/// Tiny scope: every test runs the 64×-shrunk catalog so the whole file
/// stays inside the debug-mode CI budget.
fn tiny_scope() -> Scope {
    Scope {
        full: false,
        shrink: 64,
    }
}

fn tiny_cfg() -> ServeConfig {
    ServeConfig {
        requests: 40,
        shrink: 64,
        ..ServeConfig::default()
    }
}

#[test]
fn repeat_runs_are_byte_identical() {
    let cfg = tiny_cfg();
    let a = run(&cfg).expect("first run");
    let b = run(&cfg).expect("second run");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "same seed + config must reproduce the full report byte for byte"
    );
    assert!(a.completed > 0, "the smoke workload must complete requests");
}

#[test]
fn sweep_export_is_independent_of_worker_count() {
    let opts = ServeSweepOptions {
        requests: 30,
        rates_permille: vec![500, 1000, 4000],
        ..ServeSweepOptions::default()
    };
    let sweep = |jobs| {
        let eng = EngineConfig {
            jobs,
            ..EngineConfig::default()
        };
        experiments::serve::run(tiny_scope(), &opts, &eng).expect("sweep")
    };
    let (serial, parallel) = (sweep(1), sweep(4));
    assert_eq!(
        to_json(&serial.rows),
        to_json(&parallel.rows),
        "indexed result slots must make --jobs invisible in the export"
    );
    assert_eq!(serial.text, parallel.text);
}

#[test]
fn fabric_slots_are_byte_identical_across_sim_threads() {
    let base = ServeConfig {
        requests: 20,
        slot_devices: 2,
        shrink: 64,
        ..ServeConfig::default()
    };
    let one = run(&ServeConfig {
        sim_threads: 1,
        ..base.clone()
    })
    .expect("sim-threads=1");
    let four = run(&ServeConfig {
        sim_threads: 4,
        ..base
    })
    .expect("sim-threads=4");
    assert_eq!(
        format!("{one:?}"),
        format!("{four:?}"),
        "fabric host threading must never reach the report"
    );
    assert_eq!(one.golden_mismatches, 0);
}

#[test]
fn overload_sheds_explicitly_without_watchdog_trips() {
    let rep = run(&ServeConfig {
        requests: 80,
        rate_permille: 10_000,
        shrink: 64,
        ..ServeConfig::default()
    })
    .expect("10x overload run");
    assert!(
        rep.shed > 0,
        "10x saturation must trigger admission-control rejections: {rep:?}"
    );
    assert_eq!(rep.watchdog_trips, 0, "overload must shed, not stall");
    assert_eq!(rep.failed, 0);
    assert_eq!(rep.golden_mismatches, 0);
    assert_eq!(rep.admitted + rep.shed, rep.generated);
    assert_eq!(
        rep.completed, rep.admitted,
        "every admitted request finishes"
    );
    assert!(
        rep.shed_rate() > 0.0 && rep.shed_rate() < 1.0,
        "shedding is partial, not total: {}",
        rep.shed_rate()
    );
}

/// Hand-built stream: three long low-priority jobs (PageRank, SSSP, BFS)
/// fill the single slot, then a burst of high-priority requests forces
/// checkpoint-park-resume on each. The scheduler validates every
/// completion against the golden executors, so `golden_mismatches == 0`
/// IS the preempted-then-resumed correctness assertion — exact for the
/// integer algorithms, ≤ 1e-5 for PageRank.
#[test]
fn preempted_then_resumed_jobs_still_validate_golden() {
    let sched = Scheduler::new(&ServeConfig {
        slots: 1,
        quantum: 1,
        max_parked: 8,
        shrink: 64,
        ..ServeConfig::default()
    })
    .expect("calibration");
    let est = sched.service_estimates().to_vec();
    let mut requests = Vec::new();
    // Low-priority long jobs, arriving back to back.
    for (i, query) in [4usize, 2, 0].into_iter().enumerate() {
        let job = JobKey { graph: 0, query };
        requests.push(Request {
            id: i as u64,
            arrival: 1 + i as Cycle,
            tenant: 3,
            priority: Priority::Low,
            job,
            deadline: Cycle::MAX,
        });
    }
    // A high-priority burst landing mid-execution of the first job.
    let spark = est[sched.catalog().job_index(JobKey { graph: 0, query: 0 })] / 4;
    for i in 0..4u64 {
        requests.push(Request {
            id: 3 + i,
            arrival: spark + i,
            tenant: 0,
            priority: Priority::High,
            job: JobKey {
                graph: (i % 3) as usize,
                query: 1,
            },
            deadline: Cycle::MAX,
        });
    }
    requests.sort_by_key(|r| r.arrival);
    let rep = sched.run(&requests).expect("schedule");
    assert_eq!(rep.completed, 7, "every request completes: {rep:?}");
    assert!(rep.preemptions >= 1, "the burst must preempt: {rep:?}");
    assert!(rep.resumes >= 1, "parked work must resume: {rep:?}");
    assert_eq!(
        rep.golden_mismatches, 0,
        "preempted-then-resumed results must validate against golden"
    );
    assert_eq!(rep.failed, 0);
}

/// Under sustained mixed overload the high class must not wait behind
/// low-class work: strict-priority dispatch plus boundary preemption
/// keeps its p99 below the low class's p99.
#[test]
fn priority_inversion_is_bounded_under_mixed_load() {
    let rep = run(&ServeConfig {
        requests: 120,
        rate_permille: 4_000,
        max_queue: 64,
        shrink: 64,
        ..ServeConfig::default()
    })
    .expect("mixed 4x load");
    let high = &rep.class_latency[Priority::High.index()];
    let low = &rep.class_latency[Priority::Low.index()];
    assert!(
        high.count() >= 5 && low.count() >= 5,
        "both classes need samples: high={} low={}",
        high.count(),
        low.count()
    );
    assert!(
        high.quantile(0.99) < low.quantile(0.99),
        "high-class p99 {} must stay below low-class p99 {}",
        high.quantile(0.99),
        low.quantile(0.99)
    );
    assert_eq!(rep.golden_mismatches, 0);
}

/// The serve trace track carries the request lifecycle: arrivals,
/// dispatches, and completions for every request, preempt/resume pairs
/// when the scheduler parks work.
#[test]
fn trace_records_request_lifecycle() {
    let rep = run(&ServeConfig {
        requests: 20,
        rate_permille: 2_000,
        shrink: 64,
        trace: simkit::trace::TraceConfig::events(),
        ..ServeConfig::default()
    })
    .expect("traced run");
    let names: Vec<&str> = rep.trace.events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(
        names.iter().filter(|n| **n == "serve.arrive").count() as u64,
        rep.generated
    );
    assert_eq!(
        names.iter().filter(|n| **n == "serve.complete").count() as u64,
        rep.completed
    );
    assert_eq!(
        names.iter().filter(|n| **n == "serve.shed").count() as u64,
        rep.shed
    );
    assert_eq!(
        names.iter().filter(|n| **n == "serve.preempt").count() as u64,
        rep.preemptions
    );
    assert!(
        rep.trace.events.windows(2).all(|w| w[0].time <= w[1].time),
        "trace events are time-ordered"
    );
}
