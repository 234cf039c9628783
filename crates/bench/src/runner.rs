//! Runs one (benchmark, algorithm, architecture) point through the
//! simulator and reports a result row.

use accel::{RunConfig, System};
use algos::Algorithm;
use graph::benchmarks::BenchmarkId;
use graph::reorder::{self, Preprocess};
use graph::CooGraph;
use simkit::trace::TraceReport;

use crate::arch::ArchPoint;
use crate::engine::EngineConfig;

pub use accel::CacheVariant;

/// Interval sizes `(Ns, Nd)` for a given extra shrink factor.
///
/// Scaled so that jobs stay 1–2 orders of magnitude more numerous than
/// PEs, as §IV-E requires (the paper has 500–3,600 jobs for 16–24 PEs;
/// quick-scope graphs have 15k–40k nodes, so Nd must shrink with them).
pub fn intervals_for(shrink: u64) -> (u32, u32) {
    if shrink >= 4 {
        (2048, 256)
    } else {
        (4096, 512)
    }
}

/// Everything needed to run one experiment point.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Architecture design point.
    pub arch: ArchPoint,
    /// DRAM channels.
    pub channels: usize,
    /// Preprocessing variant.
    pub pre: Preprocess,
    /// Graph shrink factor on top of the default scale.
    pub shrink: u64,
    /// Which cache arrays stay enabled (Fig. 12/15).
    pub caches: CacheVariant,
    /// Cap iterations (PageRank throughput is iteration-independent, so
    /// experiments run 2 instead of 10 to save wall-clock).
    pub max_iterations: Option<u32>,
    /// Synchronous/asynchronous execution control.
    pub execution: accel::ExecutionMode,
}

impl RunSpec {
    /// Default spec for an architecture at 4 channels.
    pub fn new(arch: ArchPoint) -> Self {
        RunSpec {
            arch,
            channels: 4,
            pre: Preprocess::DbgHash,
            shrink: 4,
            caches: CacheVariant::Full,
            max_iterations: None,
            execution: accel::ExecutionMode::AlgorithmDefault,
        }
    }

    /// Lowers this spec into the shared [`RunConfig`] path (the same one
    /// `accel::Driver` uses), which owns cache stripping, PE BRAM sizing,
    /// and validation.
    pub fn run_config(&self) -> RunConfig {
        let mut rc = RunConfig::new(
            self.arch
                .moms_config(self.channels, self.shrink.max(1) as usize, true),
            intervals_for(self.shrink),
        );
        rc.caches = self.caches;
        rc.execution = self.execution;
        rc.max_iterations = self.max_iterations;
        rc
    }
}

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

/// Runs one point on a prebuilt graph with the run-level flags of `eng`
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
    bench_tag: &str,
    algo: Algorithm,
    spec: &RunSpec,
    eng: &EngineConfig,
) -> Result<(Row, accel::MetricsSnapshot, TraceReport), RunFailure> {
    let deadline = eng.deadline();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut rc = spec.run_config();
        eng.apply(&mut rc);
        let (cfg, partitioner) = rc.build();
        let mut sys = System::new(g, partitioner, algo, cfg);
        sys.run_to_outcome(deadline)
    }));
    match outcome {
        Ok(Ok(result)) => {
            let freq = spec.arch.frequency_mhz(spec.channels, &algo);
            let row = Row {
                bench: bench_tag.to_owned(),
                algo: algo.name().to_owned(),
                arch: spec.arch.name.to_owned(),
                cycles: result.cycles,
                iterations: result.iterations,
                edges: result.edges_processed,
                freq_mhz: freq,
                gteps: result.gteps(freq),
                hit_rate: result.cache_hit_rate,
                moms_dram_lines: result.stats.get("dram_line_requests"),
            };
            Ok((row, result.metrics, result.trace))
        }
        Ok(Err(accel::RunError::TimedOut)) => Err(RunFailure::TimedOut),
        Ok(Err(accel::RunError::Stalled(snap))) => {
            eprintln!("[{bench_tag}/{}/{}] {snap}", algo.name(), spec.arch.name);
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

    #[test]
    fn smoke_run_point() {
        let mut spec = RunSpec::new(ArchPoint::two_level_16_16());
        spec.shrink = 32;
        let g = prepare_graph(BenchmarkId::Wt, spec.pre, spec.shrink, false);
        let (row, _, trace) = run_graph_outcome(
            &g,
            BenchmarkId::Wt.tag(),
            Algorithm::Scc,
            &spec,
            &EngineConfig::default(),
        )
        .expect("fault-free point completes");
        assert!(trace.is_empty(), "tracing is off by default");
        assert!(row.gteps > 0.0);
        assert!(row.cycles > 0);
        assert_eq!(row.bench, "WT");
        assert_eq!(row.arch, "2lvl 16/16");
    }

    #[test]
    fn cacheless_spec_reports_zero_hit_rate() {
        let mut spec = RunSpec::new(ArchPoint::two_level_20_8());
        spec.shrink = 32;
        spec.caches = CacheVariant::None;
        let g = prepare_graph(BenchmarkId::R24, spec.pre, spec.shrink, false);
        let (row, _, _) = run_graph_outcome(
            &g,
            BenchmarkId::R24.tag(),
            Algorithm::Scc,
            &spec,
            &EngineConfig::default(),
        )
        .expect("fault-free point completes");
        assert_eq!(row.hit_rate, 0.0);
    }

    #[test]
    fn weighted_algorithms_get_weighted_graphs() {
        let g = prepare_graph(BenchmarkId::Wt, Preprocess::None, 32, true);
        assert!(g.is_weighted());
    }
}
