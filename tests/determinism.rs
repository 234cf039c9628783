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
//! * Idle skipping is a host-side optimisation only: with it on, the
//!   loop ticks only the PEs and MOMS parts that have work and jumps the
//!   clock over cycles in which nothing does; with it off, it ticks
//!   everything every cycle. A run must report the same cycle count,
//!   values, merged statistics, metrics snapshot (PE cycle attribution,
//!   MOMS and DRAM counters) and trace event stream either way. Only
//!   `host_ticks` (loop iterations actually executed) may differ.

use accel::{Driver, ExecutionMode, Fabric, RunConfig, RunError, RunResult, System, SystemConfig};
use algos::Algorithm;
use bench::engine::{run_points, EngineConfig, Outcome, PointSpec};
use bench::experiments::{fig12, Scope};
use bench::ArchPoint;
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
            let mut point = PointSpec::new(BenchmarkId::Wt, algo, arch, 4, 16);
            point.run.max_iterations = iters;
            points.push(point);
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

fn events() -> TraceConfig {
    TraceConfig {
        level: TraceLevel::Events,
        ..TraceConfig::default()
    }
}

fn run_with_skip(g: &CooGraph, algo: Algorithm, idle_skip: bool) -> RunResult {
    let mut cfg = SystemConfig::small();
    cfg.idle_skip = idle_skip;
    cfg.trace = events();
    System::new(g, Partitioner::new(256, 256), algo, cfg)
        .run_to_outcome(None)
        .unwrap()
}

/// Runs `rc` twice, skipping on and off.
fn run_config_both(g: &CooGraph, algo: Algorithm, rc: &RunConfig) -> (RunResult, RunResult) {
    let run = |idle_skip: bool| {
        let mut rc = rc.clone();
        rc.idle_skip = idle_skip;
        rc.trace = events();
        let (cfg, partitioner) = rc.build();
        System::new(g, partitioner, algo, cfg)
            .run_to_outcome(None)
            .unwrap()
    };
    (run(true), run(false))
}

/// Every simulated field of two runs must match; only `host_ticks` may
/// differ, and with skipping off it must equal the cycle count.
fn assert_same_simulation(name: &str, on: &RunResult, off: &RunResult) {
    assert_eq!(
        off.host_ticks, off.cycles,
        "{name}: with skipping off, every cycle must be ticked"
    );
    assert!(
        on.host_ticks <= on.cycles,
        "{name}: host ticks cannot exceed simulated cycles"
    );
    assert_eq!(on.cycles, off.cycles, "{name}: skipping changed timing");
    assert_eq!(on.values, off.values, "{name}: skipping changed results");
    assert_eq!(
        on.iterations, off.iterations,
        "{name}: skipping changed iteration count"
    );
    assert_eq!(
        on.edges_processed, off.edges_processed,
        "{name}: skipping changed edge count"
    );
    assert_eq!(
        on.stats, off.stats,
        "{name}: skipping changed merged statistics"
    );
    assert_eq!(
        on.metrics.pe_cycles, off.metrics.pe_cycles,
        "{name}: skipping changed the PE cycle attribution"
    );
    assert_eq!(
        on.metrics, off.metrics,
        "{name}: skipping changed the MOMS or DRAM metrics"
    );
    assert_eq!(
        to_canonical(&on.trace.events),
        to_canonical(&off.trace.events),
        "{name}: skipping changed the trace event stream"
    );
    let rest = |r: &RunResult| {
        format!(
            "{:?}",
            RunResult {
                host_ticks: 0,
                ..r.clone()
            }
        )
    };
    assert_eq!(rest(on), rest(off), "{name}: skipping changed the result");
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
        assert_same_simulation(algo.name(), &on, &off);
        skipped_somewhere |= on.host_ticks < on.cycles;
    }
    assert!(
        skipped_somewhere,
        "idle skipping never engaged on any algorithm; the fast path is dead"
    );

    // The quick architectures: shared, private, two-level 18/16 (the
    // benchmark's design point) and traditional MSHRs, each with 18 or 20
    // PEs and many more jobs than PEs.
    let g = GraphSpec::rmat(10, 8).build(43);
    for arch in ArchPoint::QUICK {
        let rc = RunConfig::new(arch.moms_config(4, 64, true), (256, 64));
        let (on, off) = run_config_both(&g, Algorithm::Scc, &rc);
        assert_same_simulation(&format!("scc on {}", arch.name), &on, &off);
    }

    // Forced-synchronous SSSP: Apply writes a separate `V_out`, so it is
    // self-timed, and the weighted interface keeps free-ID state.
    let weighted = test_graph();
    let mut rc = Driver::new().run_config(&weighted);
    rc.execution = ExecutionMode::ForceSynchronous;
    let (on, off) = run_config_both(&weighted, Algorithm::sssp(0), &rc);
    assert_same_simulation("forced-sync sssp", &on, &off);
}

/// One synchronous PageRank iteration over every 8th source interval:
/// the `paperscale-setup` benchmark shape at test size, where nearly
/// every PE-cycle is the fixed-rate Init fill or synchronous Apply.
fn sparse_pagerank_iteration(g: &CooGraph, idle_skip: bool) -> RunResult {
    let mut rc = RunConfig::new(
        ArchPoint::two_level_18_16().moms_config(4, 64, true),
        (256, 512),
    );
    rc.idle_skip = idle_skip;
    rc.trace = events();
    let (cfg, partitioner) = rc.build();
    let mut sys = System::new(g, partitioner, Algorithm::PageRank { iterations: 10 }, cfg);
    let active: Vec<bool> = (0..sys.num_source_intervals())
        .map(|s| s % 8 == 0)
        .collect();
    assert!(sys.begin_iteration(0, &active) > 0, "no jobs scheduled");
    let edges = sys.step_iteration(0, None).unwrap();
    sys.finish(1, edges)
}

#[test]
fn idle_skip_jumps_over_self_timed_phases() {
    let g = GraphSpec::power_law_cluster(8_000, 16_000, 1.7, 0.2, 64, true).build(47);
    let on = sparse_pagerank_iteration(&g, true);
    let off = sparse_pagerank_iteration(&g, false);
    assert_same_simulation("sparse pagerank iteration", &on, &off);
    assert!(
        on.host_ticks < on.cycles,
        "skipping never jumped the clock: {} host ticks for {} cycles",
        on.host_ticks,
        on.cycles
    );
    assert!(on.metrics.pe_cycles.init > 0 && on.metrics.pe_cycles.apply > 0);
}

#[test]
fn idle_skip_leaves_fabric_runs_unchanged() {
    let g = test_graph();
    for algo in [Algorithm::sssp(0), Algorithm::pagerank()] {
        let run = |idle_skip: bool| {
            let mut rc = Driver::new().devices(2).run_config(&g);
            rc.idle_skip = idle_skip;
            let r = Fabric::new(&g, algo, &rc).run_to_outcome(None).unwrap();
            format!("{r:?}")
        };
        assert_eq!(
            run(true),
            run(false),
            "{}: skipping changed a 2-device fabric run",
            algo.name()
        );
    }
}

#[test]
fn idle_skip_reports_a_stall_at_the_same_cycle() {
    // A black-holed DRAM completion path deadlocks the run. Skipping
    // never jumps past the watchdog's trip point, so both loops report
    // the stall at the first silent cycle past the threshold, with the
    // same diagnostic snapshot.
    let g = test_graph();
    let stall = |idle_skip: bool| {
        let mut cfg = SystemConfig::small();
        cfg.moms.private = cfg.moms.private.without_cache();
        cfg.moms.shared = cfg.moms.shared.without_cache();
        cfg.fault = FaultConfig {
            profile: FaultProfile::BlackHole,
            seed: 5,
        };
        cfg.watchdog_cycles = Some(20_000);
        cfg.idle_skip = idle_skip;
        let mut sys = System::new(&g, Partitioner::new(64, 64), Algorithm::sssp(0), cfg);
        match sys.run_to_outcome(None) {
            Err(RunError::Stalled(snap)) => snap,
            other => panic!("expected a watchdog stall, got {other:?}"),
        }
    };
    let (on, off) = (stall(true), stall(false));
    assert_eq!(on.cycle, on.last_progress + 20_001);
    assert_eq!(on.to_string(), off.to_string());
}
