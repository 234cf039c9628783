//! Runs one experiment point through the simulator and reports a result
//! row.

use accel::System;
use graph::benchmarks::BenchmarkId;
use graph::reorder::{self, Preprocess};
use graph::CooGraph;
use simkit::trace::TraceReport;

use crate::engine::{EngineConfig, PointSpec};

/// One result row of an experiment table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark tag (Table II).
    pub bench: String,
    /// Algorithm name.
    pub algo: String,
    /// Architecture label.
    pub arch: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Template 1 iterations executed.
    pub iterations: u32,
    /// Edges processed.
    pub edges: u64,
    /// Estimated clock in MHz (resource model).
    pub freq_mhz: f64,
    /// Throughput in GTEPS at the estimated clock.
    pub gteps: f64,
    /// Combined cache hit rate across MOMS levels.
    pub hit_rate: f64,
    /// DRAM lines fetched by the MOMS (irregular-read traffic).
    pub moms_dram_lines: u64,
    /// PE cycles with at least one gather retiring, summed over PEs.
    pub pe_busy_cycles: u64,
    /// Gather-pipeline stalls on read-after-write hazards (PageRank's
    /// floating-point accumulate).
    pub pe_raw_stalls: u64,
    /// PE cycles the weighted-graph interface starved for free IDs.
    pub pe_id_starved: u64,
    /// PE requests refused by a full MOMS input port.
    pub pe_moms_backpressure: u64,
}

/// Builds the preprocessed graph for a benchmark.
pub fn prepare_graph(bench: BenchmarkId, pre: Preprocess, shrink: u64, weighted: bool) -> CooGraph {
    let mut g = bench.build(shrink);
    if weighted {
        g = g.with_random_weights(0, 255, 52);
    }
    let (g, _times) = reorder::apply(&g, pre, 16, 97);
    g
}

/// Why a point produced no result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunFailure {
    /// The wall-clock deadline expired mid-simulation.
    TimedOut,
    /// The simulator panicked or its no-progress watchdog tripped; the
    /// message carries the panic text or the stall summary.
    Failed(String),
}

/// Runs `point` on a prebuilt graph with the run-level flags of `eng`
/// applied (faults, watchdog, tracing, and `eng.timeout` as a wall-clock
/// deadline from now). Returns the table row, the run's structured
/// metrics and its trace, or a [`RunFailure`] describing why the point
/// produced none.
///
/// This is the one fallible single-point function: a panicking
/// simulation becomes [`RunFailure::Failed`], not a crashed sweep. It
/// records nothing; a watchdog stall's diagnostic snapshot goes to
/// stderr.
pub fn run_graph_outcome(
    g: &CooGraph,
    point: &PointSpec,
    eng: &EngineConfig,
) -> Result<(Row, accel::MetricsSnapshot, TraceReport), RunFailure> {
    let deadline = eng.deadline();
    let (bench, algo, arch) = (point.bench.tag(), point.algo, point.arch);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut rc = point.run.clone();
        eng.apply(&mut rc);
        let (cfg, partitioner) = rc.build();
        let mut sys = System::new(g, partitioner, algo, cfg);
        sys.run_to_outcome(deadline)
    }));
    match outcome {
        Ok(Ok(result)) => {
            let freq = arch.frequency_mhz(point.run.num_channels(), &algo);
            let stat = |name| result.stats.get(name);
            let row = Row {
                bench: bench.to_owned(),
                algo: algo.name().to_owned(),
                arch: arch.name.to_owned(),
                cycles: result.cycles,
                iterations: result.iterations,
                edges: result.edges_processed,
                freq_mhz: freq,
                gteps: result.gteps(freq),
                hit_rate: result.cache_hit_rate,
                moms_dram_lines: stat("dram_line_requests"),
                pe_busy_cycles: stat("busy_cycles"),
                pe_raw_stalls: stat("raw_stalls"),
                pe_id_starved: stat("id_starved"),
                pe_moms_backpressure: stat("moms_backpressure"),
            };
            Ok((row, result.metrics, result.trace))
        }
        Ok(Err(accel::RunError::TimedOut)) => Err(RunFailure::TimedOut),
        Ok(Err(accel::RunError::Stalled(snap))) => {
            eprintln!("[{bench}/{}/{}] {snap}", algo.name(), arch.name);
            Err(RunFailure::Failed(format!(
                "watchdog: no forward progress for {} cycles (threshold {})",
                snap.cycle.saturating_sub(snap.last_progress),
                snap.threshold
            )))
        }
        Err(payload) => Err(RunFailure::Failed(crate::engine::panic_message(
            payload.as_ref(),
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchPoint;
    use algos::Algorithm;

    fn run_point(point: &PointSpec) -> Row {
        let g = prepare_graph(point.bench, point.pre, point.shrink, false);
        let (row, _, trace) = run_graph_outcome(&g, point, &EngineConfig::default())
            .expect("fault-free point completes");
        assert!(trace.is_empty(), "tracing is off by default");
        row
    }

    #[test]
    fn smoke_run_point() {
        let arch = ArchPoint::two_level_16_16();
        let point = PointSpec::new(BenchmarkId::Wt, Algorithm::Scc, arch, 4, 32);
        let row = run_point(&point);
        assert!(row.gteps > 0.0);
        assert!(row.cycles > 0);
        assert_eq!(row.bench, "WT");
        assert_eq!(row.arch, "2lvl 16/16");
    }

    #[test]
    fn cacheless_spec_reports_zero_hit_rate() {
        let arch = ArchPoint::two_level_20_8();
        let mut point = PointSpec::new(BenchmarkId::R24, Algorithm::Scc, arch, 4, 32);
        point.run.caches = accel::CacheVariant::None;
        assert_eq!(run_point(&point).hit_rate, 0.0);
    }

    #[test]
    fn weighted_algorithms_get_weighted_graphs() {
        let g = prepare_graph(BenchmarkId::Wt, Preprocess::None, 32, true);
        assert!(g.is_weighted());
    }
}
