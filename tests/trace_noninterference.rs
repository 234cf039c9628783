//! Differential harness for the observability layer: tracing must be a
//! pure observer.
//!
//! * Running any algorithm with tracing off, at `counters` level, or at
//!   full `events` level must produce bit-identical result values AND the
//!   exact same simulated cycle count — a tracer that shifts timing by
//!   even one cycle is a probe effect, not an observer.
//! * The same must hold with fault injection active, because the fault
//!   schedule keys off simulation state and would amplify any
//!   perturbation.
//! * A tiny fixed-seed run produces a byte-stable canonical event stream,
//!   committed as a fixture; regenerate it with
//!   `REPRO_BLESS_TRACE=1 cargo test -p bench --test trace_noninterference`.

use accel::{System, SystemConfig};
use algos::Algorithm;
use graph::{CooGraph, GraphSpec, Partitioner};
use simkit::trace::{to_canonical, to_chrome_json, to_csv, TraceConfig, TraceLevel};
use simkit::{FaultConfig, FaultProfile};

fn test_graph() -> CooGraph {
    GraphSpec::rmat(8, 6)
        .build(41)
        .with_random_weights(0, 255, 3)
}

fn all_algos() -> [Algorithm; 4] {
    [
        Algorithm::bfs(0),
        Algorithm::Scc,
        Algorithm::sssp(0),
        Algorithm::pagerank(),
    ]
}

fn run_traced(
    g: &CooGraph,
    algo: Algorithm,
    fault: FaultConfig,
    trace: TraceConfig,
) -> accel::RunResult {
    let mut cfg = SystemConfig::small();
    cfg.fault = fault;
    cfg.trace = trace;
    System::new(g, Partitioner::new(256, 256), algo, cfg)
        .run_to_outcome(None)
        .unwrap()
}

fn level(level: TraceLevel) -> TraceConfig {
    TraceConfig {
        level,
        ..TraceConfig::default()
    }
}

#[test]
fn tracing_never_changes_results_or_cycles() {
    let g = test_graph();
    for algo in all_algos() {
        let base = run_traced(&g, algo, FaultConfig::none(), level(TraceLevel::Off));
        assert!(base.trace.is_empty(), "tracing off must collect nothing");
        for lvl in [TraceLevel::Counters, TraceLevel::Events] {
            let r = run_traced(&g, algo, FaultConfig::none(), level(lvl));
            assert_eq!(
                r.values,
                base.values,
                "{} at {lvl:?}: traced values diverged from untraced run",
                algo.name()
            );
            assert_eq!(
                r.cycles,
                base.cycles,
                "{} at {lvl:?}: tracing changed the simulated cycle count",
                algo.name()
            );
            assert!(
                !r.trace.counters.is_empty(),
                "{} at {lvl:?}: occupancy sampling should be active",
                algo.name()
            );
            if lvl == TraceLevel::Events {
                assert!(
                    !r.trace.events.is_empty(),
                    "{}: events level recorded no events",
                    algo.name()
                );
            } else {
                assert!(
                    r.trace.events.is_empty(),
                    "{}: counters level must not record events",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn tracing_is_noninterfering_under_fault_injection() {
    let g = test_graph();
    let fault = FaultConfig {
        profile: FaultProfile::ChaosLite,
        seed: 7,
    };
    for algo in all_algos() {
        let base = run_traced(&g, algo, fault, level(TraceLevel::Off));
        for lvl in [TraceLevel::Counters, TraceLevel::Events] {
            let r = run_traced(&g, algo, fault, level(lvl));
            assert_eq!(
                r.values,
                base.values,
                "{} at {lvl:?} under chaos-lite: traced values diverged",
                algo.name()
            );
            assert_eq!(
                r.cycles,
                base.cycles,
                "{} at {lvl:?} under chaos-lite: cycle count diverged",
                algo.name()
            );
        }
    }
}

#[test]
fn trace_window_restricts_event_range() {
    let g = test_graph();
    let full = run_traced(
        &g,
        Algorithm::Scc,
        FaultConfig::none(),
        level(TraceLevel::Events),
    );
    let window = (100, 400);
    let mut cfg = level(TraceLevel::Events);
    cfg.window = Some(window);
    let r = run_traced(&g, Algorithm::Scc, FaultConfig::none(), cfg);
    assert_eq!(r.cycles, full.cycles, "windowing changed the simulation");
    assert!(!r.trace.events.is_empty(), "window [100,400) saw no events");
    assert!(
        r.trace
            .events
            .iter()
            .all(|e| e.time >= window.0 && e.time < window.1),
        "an event escaped the trace window"
    );
    assert!(
        r.trace.events.len() < full.trace.events.len(),
        "window did not reduce the event count"
    );
}

const GOLDEN_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden_trace.txt"
);

/// The tiny fixed-seed run behind the golden fixture: small enough that
/// the canonical stream stays reviewable, deterministic by construction.
fn golden_run() -> accel::RunResult {
    let g = GraphSpec::rmat(5, 4).build(13);
    let mut trace = level(TraceLevel::Events);
    trace.capacity = 1 << 20; // never drop: the fixture must be complete
    run_traced(&g, Algorithm::bfs(0), FaultConfig::none(), trace)
}

#[test]
fn golden_trace_is_byte_stable() {
    let r = golden_run();
    assert_eq!(r.trace.dropped, 0, "golden run must not drop events");
    let got = to_canonical(&r.trace.events);
    if std::env::var_os("REPRO_BLESS_TRACE").is_some() {
        std::fs::write(GOLDEN_FIXTURE, &got).expect("bless golden fixture");
        eprintln!("blessed {GOLDEN_FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_FIXTURE)
        .expect("missing fixture; run with REPRO_BLESS_TRACE=1 to create it");
    assert_eq!(
        got, want,
        "canonical event stream drifted from tests/fixtures/golden_trace.txt; \
         if the change is intentional, re-bless with REPRO_BLESS_TRACE=1"
    );
}

#[test]
fn exporters_render_the_golden_run() {
    let r = golden_run();
    let json = to_chrome_json(&r.trace);
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"M\""), "missing metadata events");
    let csv = to_csv(&r.trace);
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("time,track,record,name,value"));
    assert!(lines.next().is_some(), "CSV export is empty");
}
