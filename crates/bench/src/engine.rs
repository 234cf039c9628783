//! Parallel experiment-execution engine.
//!
//! Experiments enumerate their (benchmark × algorithm × architecture)
//! matrix as [`PointSpec`]s; [`run_points`] fans them out over a worker
//! pool and returns one [`PointResult`] per point, **in submission order**.
//!
//! # Determinism
//!
//! Results are bit-identical to a sequential run and independent of the
//! worker count: each point's simulation is single-threaded and seeded
//! only by values inside its own spec (graph seed, preprocessing seed),
//! workers claim points by atomic index and write into per-index slots, and
//! host-timing fields are excluded from serialization. The only shared
//! mutable state is a memoization cache of prepared graphs, whose entries
//! are themselves deterministic functions of the key.
//!
//! # Timeouts
//!
//! An optional per-point wall-clock budget turns runaway points into
//! [`Outcome::TimedOut`] rows instead of hung processes. The deadline is
//! enforced cooperatively inside the simulator loop
//! ([`accel::System::run_to_outcome`]), so no watchdog threads or
//! process kills are involved.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accel::MetricsSnapshot;
use algos::Algorithm;
use graph::benchmarks::BenchmarkId;
use graph::reorder::Preprocess;
use graph::CooGraph;
use simkit::record::{Record, Value};

use crate::runner::{prepare_graph, run_graph_outcome, Row, RunFailure, RunSpec};

/// One experiment point: what to run, on which graph, on which design.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Benchmark graph.
    pub bench: BenchmarkId,
    /// Algorithm (with source vertex where applicable).
    pub algo: Algorithm,
    /// Architecture/channel/cache/preprocessing configuration.
    pub spec: RunSpec,
}

/// How a point ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Simulation ran to convergence.
    Completed,
    /// The per-point wall-clock budget expired mid-simulation.
    TimedOut,
    /// The point panicked or the no-progress watchdog tripped; the sweep
    /// continued past it. See [`PointResult::error`].
    Failed,
}

impl Outcome {
    /// Serialized label.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::TimedOut => "timed_out",
            Outcome::Failed => "failed",
        }
    }
}

/// The structured result of one experiment point.
///
/// Identity fields are always present; measurement fields are `None` when
/// the point timed out. `wall_seconds` is host timing — it is reported in
/// progress output but deliberately excluded from [`Record::fields`], so
/// exports are byte-identical across runs and worker counts.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Benchmark tag (Table II).
    pub bench: String,
    /// Algorithm name.
    pub algo: String,
    /// Architecture label.
    pub arch: String,
    /// DRAM channels.
    pub channels: usize,
    /// Cache-variant label.
    pub caches: String,
    /// Preprocessing label.
    pub pre: String,
    /// Graph shrink factor.
    pub shrink: u64,
    /// Execution-mode label.
    pub execution: String,
    /// How the point ended.
    pub outcome: Outcome,
    /// The throughput row (`None` unless the point completed).
    pub row: Option<Row>,
    /// MOMS/DRAM/PE metrics (`None` unless the point completed).
    pub metrics: Option<MetricsSnapshot>,
    /// What went wrong when `outcome` is [`Outcome::Failed`]: the panic
    /// message or the watchdog's stall summary.
    pub error: Option<String>,
    /// Host wall-clock seconds spent on this point (prepare + simulate).
    pub wall_seconds: f64,
}

impl PointResult {
    /// Builds the result for `point` from a finished (or failed) run.
    pub fn new(
        point: &PointSpec,
        run: &Result<(Row, MetricsSnapshot), RunFailure>,
        wall_seconds: f64,
    ) -> PointResult {
        PointResult::from_outcome(
            point.bench.tag(),
            point.algo,
            &point.spec,
            run,
            wall_seconds,
        )
    }

    /// Builds a result from the pieces [`run_graph_outcome`] works with,
    /// so any run path can feed the recorder.
    pub fn from_outcome(
        bench: &str,
        algo: Algorithm,
        spec: &RunSpec,
        run: &Result<(Row, MetricsSnapshot), RunFailure>,
        wall_seconds: f64,
    ) -> PointResult {
        let (row, metrics, outcome, error) = match run {
            Ok((row, metrics)) => (
                Some(row.clone()),
                Some(metrics.clone()),
                Outcome::Completed,
                None,
            ),
            Err(RunFailure::TimedOut) => (None, None, Outcome::TimedOut, None),
            Err(RunFailure::Failed(msg)) => (None, None, Outcome::Failed, Some(msg.clone())),
        };
        PointResult {
            bench: bench.to_owned(),
            algo: algo.name().to_owned(),
            arch: spec.arch.name.to_owned(),
            channels: spec.channels,
            caches: spec.caches.name().to_owned(),
            pre: spec.pre.name().to_owned(),
            shrink: spec.shrink,
            execution: spec.execution.name().to_owned(),
            outcome,
            row,
            metrics,
            error,
            wall_seconds,
        }
    }

    /// Deterministic ordering key over the identity fields, used to
    /// normalize result sets gathered in completion order.
    #[allow(clippy::type_complexity)]
    pub fn sort_key(&self) -> (String, String, String, usize, String, String, u64, String) {
        (
            self.bench.clone(),
            self.algo.clone(),
            self.arch.clone(),
            self.channels,
            self.caches.clone(),
            self.pre.clone(),
            self.shrink,
            self.execution.clone(),
        )
    }
}

impl Record for PointResult {
    fn fields(&self) -> Vec<(&'static str, Value)> {
        let row = self.row.as_ref();
        let m = self.metrics.as_ref();
        let cycles = row.map(|r| r.cycles);
        vec![
            ("bench", Value::from(self.bench.clone())),
            ("algo", Value::from(self.algo.clone())),
            ("arch", Value::from(self.arch.clone())),
            ("channels", Value::from(self.channels)),
            ("caches", Value::from(self.caches.clone())),
            ("pre", Value::from(self.pre.clone())),
            ("shrink", Value::from(self.shrink)),
            ("execution", Value::from(self.execution.clone())),
            ("outcome", Value::from(self.outcome.name())),
            ("error", Value::from(self.error.clone())),
            ("cycles", Value::from(cycles)),
            ("iterations", Value::from(row.map(|r| r.iterations))),
            ("edges", Value::from(row.map(|r| r.edges))),
            ("freq_mhz", Value::from(row.map(|r| r.freq_mhz))),
            ("gteps", Value::from(row.map(|r| r.gteps))),
            ("moms_hit_rate", Value::from(row.map(|r| r.hit_rate))),
            (
                "moms_dram_lines",
                Value::from(row.map(|r| r.moms_dram_lines)),
            ),
            (
                "peak_mshr_occupancy",
                Value::from(m.map(|m| m.moms.peak_outstanding_lines)),
            ),
            (
                "peak_pending_misses",
                Value::from(m.map(|m| m.moms.peak_outstanding_misses)),
            ),
            (
                "dram_row_hit_rate",
                Value::from(m.map(|m| m.dram_total().row_hit_rate())),
            ),
            (
                "dram_bw_gbs",
                match (m, row) {
                    (Some(m), Some(r)) => Value::from(m.dram_bandwidth_gbs(r.cycles, r.freq_mhz)),
                    _ => Value::Null,
                },
            ),
            (
                "dram_bw_total_gbs",
                match (m, row) {
                    (Some(m), Some(r)) => {
                        Value::from(m.dram_total().bandwidth_gbs(r.cycles, r.freq_mhz))
                    }
                    _ => Value::Null,
                },
            ),
            ("pe_busy_cycles", Value::from(m.map(|m| m.pe.busy_cycles))),
            ("pe_raw_stalls", Value::from(m.map(|m| m.pe.raw_stalls))),
            ("pe_id_starved", Value::from(m.map(|m| m.pe.id_starved))),
            (
                "pe_moms_backpressure",
                Value::from(m.map(|m| m.pe.moms_backpressure)),
            ),
        ]
    }
}

/// Worker-pool configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Worker threads; 0 = one per available core.
    pub jobs: usize,
    /// Per-point wall-clock budget; `None` = unbounded.
    pub timeout: Option<Duration>,
    /// Emit live progress (completed/total, ETA, slowest in-flight point)
    /// to stderr.
    pub progress: bool,
    /// Fault-injection schedule applied to every simulated point (default:
    /// no faults).
    pub fault: simkit::FaultConfig,
    /// Override for the per-run no-progress watchdog: `None` keeps the
    /// simulator default, `Some(0)` disables the watchdog, any other
    /// value sets the threshold in cycles.
    pub watchdog_cycles: Option<u64>,
    /// Tracing configuration applied to every simulated point (default:
    /// off — every trace hook stays a dead branch).
    pub trace: simkit::TraceConfig,
    /// Fault-injection schedule applied to the fabric link network of
    /// multi-device experiments (default: no faults). Independent of
    /// `fault`, which targets DRAM completions.
    pub link_fault: simkit::FaultConfig,
    /// Override for the reliable transport's initial retransmission
    /// timeout in cycles (`--link-retry`); `None` keeps the default.
    pub link_retry: Option<u64>,
    /// Fabric checkpoint interval in barriers (`--checkpoint-interval`);
    /// 0 disables checkpoint/rollback recovery.
    pub checkpoint_interval: u32,
    /// Host worker threads for each fabric point's compute phase
    /// (`--sim-threads`); 0 = auto (`min(devices, cores)`). The fabric
    /// sweeps clamp `jobs × sim_threads` to the available parallelism so
    /// engine-level and shard-level threading cannot oversubscribe the
    /// host. Results are byte-identical for every value.
    pub sim_threads: usize,
}

impl EngineConfig {
    /// Resolved worker count.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Process-wide engine settings and result recorder.
///
/// The `repro` binary parses `--jobs`/`--timeout-secs` once and installs
/// them here so every experiment module picks them up without threading a
/// config through each `run(scope)` signature; `--out` enables the
/// recorder, which captures a [`PointResult`] for every point that flows
/// through [`run_graph_outcome`] — i.e. every simulated point of
/// every subcommand, whether or not it went through the parallel engine.
struct GlobalState {
    config: EngineConfig,
    recorder: Option<Vec<PointResult>>,
    traces: Option<Vec<(String, simkit::TraceReport)>>,
}

static GLOBAL: Mutex<GlobalState> = Mutex::new(GlobalState {
    config: EngineConfig {
        jobs: 0,
        timeout: None,
        progress: false,
        fault: simkit::FaultConfig {
            profile: simkit::FaultProfile::None,
            seed: 0,
        },
        watchdog_cycles: None,
        trace: simkit::TraceConfig {
            level: simkit::trace::TraceLevel::Off,
            capacity: 1 << 16,
            window: None,
            sample_period: 1024,
        },
        link_fault: simkit::FaultConfig {
            profile: simkit::FaultProfile::None,
            seed: 0,
        },
        link_retry: None,
        checkpoint_interval: 0,
        sim_threads: 0,
    },
    recorder: None,
    traces: None,
});

/// Process-wide count of points that ended in [`Outcome::Failed`]
/// (panic or watchdog stall). The `repro` binary checks this after the
/// run and exits nonzero with a one-line summary, so a sweep whose table
/// prints `failed` rows cannot still report success to CI. Timed-out
/// points are excluded: a `--timeout-secs` budget expiring is a
/// requested bound, not an engine failure.
static FAILED_POINTS: AtomicUsize = AtomicUsize::new(0);

/// Records one engine-level point failure (see [`failed_points`]).
pub(crate) fn note_point_failure() {
    FAILED_POINTS.fetch_add(1, Ordering::Relaxed);
}

/// How many points have failed (panicked or stalled) so far.
pub fn failed_points() -> usize {
    FAILED_POINTS.load(Ordering::Relaxed)
}

/// Installs the process-wide engine configuration.
pub fn set_global_config(cfg: EngineConfig) {
    GLOBAL.lock().unwrap().config = cfg;
}

/// The process-wide engine configuration (defaults: auto jobs, no
/// timeout, no progress output).
pub fn global_config() -> EngineConfig {
    GLOBAL.lock().unwrap().config.clone()
}

/// Starts capturing every simulated point into the global recorder.
pub fn enable_recording() {
    let mut g = GLOBAL.lock().unwrap();
    if g.recorder.is_none() {
        g.recorder = Some(Vec::new());
    }
}

/// Appends to the global recorder, if enabled. Called by the runner for
/// every simulated point.
pub fn maybe_record(result: impl FnOnce() -> PointResult) {
    let mut g = GLOBAL.lock().unwrap();
    if let Some(rec) = g.recorder.as_mut() {
        rec.push(result());
    }
}

/// Drains the global recorder, sorted by [`PointResult::sort_key`] so the
/// output is independent of completion order (and therefore of `--jobs`).
/// Returns `None` when recording was never enabled.
pub fn take_recorded() -> Option<Vec<PointResult>> {
    let mut results = GLOBAL.lock().unwrap().recorder.take()?;
    results.sort_by_cached_key(|r| r.sort_key());
    Some(results)
}

/// Starts capturing per-point trace reports (the `repro --trace PATH`
/// path). Only points simulated with an active trace level produce one.
pub fn enable_trace_capture() {
    let mut g = GLOBAL.lock().unwrap();
    if g.traces.is_none() {
        g.traces = Some(Vec::new());
    }
}

/// Appends one labelled trace report to the global capture, if enabled.
/// Called by the runner for every traced point.
pub fn maybe_record_trace(
    label: impl FnOnce() -> String,
    report: impl FnOnce() -> simkit::TraceReport,
) {
    let mut g = GLOBAL.lock().unwrap();
    if let Some(traces) = g.traces.as_mut() {
        traces.push((label(), report()));
    }
}

/// Drains the captured traces, sorted by label so the output is
/// independent of completion order. Returns `None` when trace capture was
/// never enabled.
pub fn take_traces() -> Option<Vec<(String, simkit::TraceReport)>> {
    let mut traces = GLOBAL.lock().unwrap().traces.take()?;
    traces.sort_by(|a, b| a.0.cmp(&b.0));
    Some(traces)
}

type GraphKey = (BenchmarkId, Preprocess, u64, bool);

/// Memoized graph preparation shared by all workers. Building is a pure
/// function of the key, so a racing duplicate build yields an identical
/// graph and determinism is unaffected.
#[derive(Default)]
struct GraphCache {
    map: Mutex<HashMap<GraphKey, Arc<CooGraph>>>,
}

impl GraphCache {
    fn get(&self, key: GraphKey) -> Arc<CooGraph> {
        if let Some(g) = self.map.lock().unwrap().get(&key) {
            return Arc::clone(g);
        }
        // Build outside the lock so other workers keep making progress.
        let g = Arc::new(prepare_graph(key.0, key.1, key.2, key.3));
        let mut map = self.map.lock().unwrap();
        Arc::clone(map.entry(key).or_insert(g))
    }
}

/// Progress bookkeeping shared by the workers.
struct Progress {
    total: usize,
    started_at: Instant,
    completed: usize,
    /// `(index, label, start)` of points currently being simulated.
    in_flight: Vec<(usize, String, Instant)>,
}

impl Progress {
    fn report(&self) {
        let elapsed = self.started_at.elapsed().as_secs_f64();
        let eta = if self.completed > 0 {
            let per_point = elapsed / self.completed as f64;
            per_point * (self.total - self.completed) as f64
        } else {
            f64::NAN
        };
        let slowest = self
            .in_flight
            .iter()
            .max_by_key(|(_, _, start)| start.elapsed())
            .map(|(_, label, start)| format!("{label} ({:.1}s)", start.elapsed().as_secs_f64()))
            .unwrap_or_else(|| "-".to_owned());
        if eta.is_nan() {
            eprintln!(
                "[{}/{}] elapsed {elapsed:.1}s, running: {slowest}",
                self.completed, self.total
            );
        } else {
            eprintln!(
                "[{}/{}] elapsed {elapsed:.1}s, eta {eta:.1}s, running: {slowest}",
                self.completed, self.total
            );
        }
    }
}

/// Runs every point and returns results in submission order.
///
/// Workers claim points through an atomic cursor and write each result
/// into its own slot, so the output order (and content — see the module
/// docs) is independent of scheduling.
pub fn run_points(points: &[PointSpec], cfg: &EngineConfig) -> Vec<PointResult> {
    let jobs = cfg.effective_jobs().min(points.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<PointResult>>> =
        (0..points.len()).map(|_| Mutex::new(None)).collect();
    let cache = GraphCache::default();
    let progress = Mutex::new(Progress {
        total: points.len(),
        started_at: Instant::now(),
        completed: 0,
        in_flight: Vec::new(),
    });

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else { break };
                let label = format!(
                    "{}/{}/{}",
                    point.bench.tag(),
                    point.algo.name(),
                    point.spec.arch.name
                );
                if cfg.progress {
                    let mut p = progress.lock().unwrap();
                    p.in_flight.push((i, label.clone(), Instant::now()));
                }
                let result = run_one(point, &cache, cfg.timeout);
                *slots[i].lock().unwrap() = Some(result);
                if cfg.progress {
                    let mut p = progress.lock().unwrap();
                    p.in_flight.retain(|(idx, _, _)| *idx != i);
                    p.completed += 1;
                    p.report();
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("all points executed"))
        .collect()
}

/// Renders a caught panic payload into a one-line message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

fn run_one(point: &PointSpec, cache: &GraphCache, timeout: Option<Duration>) -> PointResult {
    let t = Instant::now();
    // A panicking point (bad spec, graph-prep failure, simulator bug)
    // becomes a `Failed` row instead of tearing down the whole sweep.
    // The closure only touches per-point state plus the graph cache,
    // whose entries are immutable once inserted, so resuming after an
    // unwind cannot observe broken invariants.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let g = cache.get((
            point.bench,
            point.spec.pre,
            point.spec.shrink,
            point.algo.is_weighted(),
        ));
        let deadline = timeout.map(|t| Instant::now() + t);
        run_graph_outcome(&g, point.bench.tag(), point.algo, &point.spec, deadline)
    }))
    .unwrap_or_else(|payload| {
        // The runner funnel never got to record this point; do it here so
        // the export still carries one row per submitted point.
        note_point_failure();
        let failure = Err(RunFailure::Failed(panic_message(payload.as_ref())));
        maybe_record(|| PointResult::new(point, &failure, t.elapsed().as_secs_f64()));
        failure
    });
    PointResult::new(point, &run, t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchPoint;

    fn tiny_points() -> Vec<PointSpec> {
        let mut points = Vec::new();
        for arch in [ArchPoint::two_level_16_16(), ArchPoint::ALL[2]] {
            for bench in [BenchmarkId::Wt, BenchmarkId::R24] {
                let mut spec = RunSpec::new(arch);
                spec.shrink = 64;
                points.push(PointSpec {
                    bench,
                    algo: Algorithm::Scc,
                    spec,
                });
            }
        }
        points
    }

    #[test]
    fn results_are_independent_of_worker_count() {
        let points = tiny_points();
        let sequential = run_points(
            &points,
            &EngineConfig {
                jobs: 1,
                ..Default::default()
            },
        );
        let parallel = run_points(
            &points,
            &EngineConfig {
                jobs: 4,
                ..Default::default()
            },
        );
        assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            // Everything serialized must match bit for bit; host timing
            // (wall_seconds, sim_seconds) is excluded by design.
            assert_eq!(s.fields(), p.fields());
        }
    }

    #[test]
    fn zero_timeout_yields_timed_out_rows() {
        let points = tiny_points();
        let results = run_points(
            &points,
            &EngineConfig {
                jobs: 2,
                timeout: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        for r in &results {
            assert_eq!(r.outcome, Outcome::TimedOut);
            assert!(r.row.is_none());
            let fields = r.fields();
            let cycles = &fields.iter().find(|(n, _)| *n == "cycles").unwrap().1;
            assert_eq!(*cycles, Value::Null);
        }
        // Identity fields survive so timed-out points stay attributable.
        assert_eq!(results[0].bench, "WT");
    }

    #[test]
    fn export_contains_the_metrics_columns() {
        let mut points = tiny_points();
        points.truncate(1);
        let results = run_points(&points, &EngineConfig::default());
        let json = simkit::record::to_json(&results);
        for key in [
            "moms_hit_rate",
            "peak_mshr_occupancy",
            "peak_pending_misses",
            "dram_row_hit_rate",
            "dram_bw_gbs",
            "pe_raw_stalls",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let csv = simkit::record::to_csv(&results);
        assert!(csv.starts_with("bench,algo,arch,"));
        assert_eq!(csv.lines().count(), 2);
    }
}
