//! Determinism guarantees of the sweep engine and the idle-skip fast
//! path.
//!
//! * The parallel sweep engine must produce byte-identical exports
//!   regardless of worker count: results are written into per-point
//!   slots and host timing never reaches the exported fields, so
//!   `--jobs 1` and `--jobs 4` cannot be told apart from the output.
//!   That holds for every experiment, since each one runs its points
//!   through the engine and returns them in its report.
//! * A stalled point is a `failed` row plus a failure line in the
//!   experiment's report, never a panic that takes the sweep down.
//! * Idle skipping is a host-side optimisation only: with it on or off,
//!   a run must report the same simulated cycle count, the same result
//!   values, the same merged statistics, and the same trace event
//!   stream. Only `host_ticks` (loop iterations actually executed) may
//!   differ.

use accel::{System, SystemConfig};
use algos::Algorithm;
use bench::engine::{run_points, EngineConfig, Outcome, PointSpec};
use bench::experiments::{fig12, Scope};
use bench::{ArchPoint, RunSpec};
use graph::benchmarks::BenchmarkId;
use graph::{CooGraph, GraphSpec, Partitioner};
use simkit::record::{to_csv, to_json};
use simkit::trace::{to_canonical, TraceConfig, TraceLevel};
use simkit::{FaultConfig, FaultProfile};

/// The small matrix both engine runs execute: two algorithms on two
/// architectures of the smallest benchmark, heavily shrunk so the whole
/// test stays in CI budget.
fn engine_points() -> Vec<PointSpec> {
    let mut points = Vec::new();
    for arch in [ArchPoint::QUICK[2], ArchPoint::QUICK[3]] {
        for (algo, iters) in [(Algorithm::Scc, None), (Algorithm::pagerank(), Some(2))] {
            let mut spec = RunSpec::new(arch);
            spec.shrink = 16;
            spec.max_iterations = iters;
            points.push(PointSpec {
                bench: BenchmarkId::Wt,
                algo,
                spec,
            });
        }
    }
    points
}

fn engine_config(jobs: usize) -> EngineConfig {
    EngineConfig {
        jobs,
        ..EngineConfig::default()
    }
}

#[test]
fn sweep_exports_are_independent_of_worker_count() {
    let points = engine_points();
    let serial = run_points(&points, &engine_config(1));
    let parallel = run_points(&points, &engine_config(4));
    assert_eq!(serial.len(), parallel.len());
    // Host wall-clock is the one field allowed to differ; everything the
    // exporters see must match byte for byte.
    assert_eq!(
        to_json(&serial),
        to_json(&parallel),
        "JSON export differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        to_csv(&serial),
        to_csv(&parallel),
        "CSV export differs between --jobs 1 and --jobs 4"
    );
}

fn fig12_scope() -> Scope {
    Scope {
        full: false,
        shrink: 64,
    }
}

#[test]
fn fig12_rows_are_independent_of_worker_count() {
    let serial = fig12::run(fig12_scope(), &engine_config(1));
    let parallel = fig12::run(fig12_scope(), &engine_config(4));
    assert_eq!(
        serial.rows.len(),
        2 * fig12_scope().benches().len() * fig12_scope().archs().len()
    );
    assert_eq!(to_json(&serial.rows), to_json(&parallel.rows));
    assert_eq!(serial.text, parallel.text);
    assert!(serial.failures.is_empty(), "{:?}", serial.failures);
}

#[test]
fn fig12_reports_stalled_points_as_failed_rows() {
    let eng = EngineConfig {
        jobs: 2,
        fault: FaultConfig {
            profile: FaultProfile::BlackHole,
            seed: 0,
        },
        watchdog_cycles: Some(50_000),
        ..EngineConfig::default()
    };
    let report = fig12::run(fig12_scope(), &eng);
    assert!(!report.rows.is_empty());
    for r in &report.rows {
        assert_eq!(r.outcome, Outcome::Failed, "{}", r.label());
        let err = r.error.as_deref().expect("failed rows carry the stall");
        assert!(err.starts_with("watchdog:"), "{err}");
    }
    assert_eq!(report.failures.len(), report.rows.len());
    assert!(report.text.contains("failed"), "{}", report.text);
    assert!(!report.text.contains("timeout"), "{}", report.text);
}

fn test_graph() -> CooGraph {
    GraphSpec::rmat(8, 6)
        .build(41)
        .with_random_weights(0, 255, 3)
}

fn run_with_skip(g: &CooGraph, algo: Algorithm, idle_skip: bool) -> accel::RunResult {
    let mut cfg = SystemConfig::small();
    cfg.idle_skip = idle_skip;
    cfg.trace = TraceConfig {
        level: TraceLevel::Events,
        ..TraceConfig::default()
    };
    System::new(g, Partitioner::new(256, 256), algo, cfg)
        .run_to_outcome(None)
        .unwrap()
}

#[test]
fn idle_skip_is_a_pure_host_optimisation() {
    let g = test_graph();
    let mut skipped_somewhere = false;
    for algo in [
        Algorithm::bfs(0),
        Algorithm::Scc,
        Algorithm::sssp(0),
        Algorithm::pagerank(),
    ] {
        let on = run_with_skip(&g, algo, true);
        let off = run_with_skip(&g, algo, false);
        let name = algo.name();
        assert_eq!(
            off.host_ticks, off.cycles,
            "{name}: with skipping off, every cycle must be ticked"
        );
        assert_eq!(
            on.cycles, off.cycles,
            "{name}: idle skipping changed timing"
        );
        assert_eq!(
            on.values, off.values,
            "{name}: idle skipping changed results"
        );
        assert_eq!(
            on.iterations, off.iterations,
            "{name}: idle skipping changed iteration count"
        );
        assert_eq!(
            on.edges_processed, off.edges_processed,
            "{name}: idle skipping changed edge count"
        );
        assert_eq!(
            on.stats, off.stats,
            "{name}: idle skipping changed merged statistics"
        );
        assert_eq!(
            to_canonical(&on.trace.events),
            to_canonical(&off.trace.events),
            "{name}: idle skipping changed the trace event stream"
        );
        assert!(
            on.host_ticks <= on.cycles,
            "{name}: host ticks cannot exceed simulated cycles"
        );
        skipped_somewhere |= on.host_ticks < on.cycles;
    }
    assert!(
        skipped_somewhere,
        "idle skipping never engaged on any algorithm; the fast path is dead"
    );
}
