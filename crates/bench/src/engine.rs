//! Parallel experiment-execution engine and the value every experiment
//! returns.
//!
//! Experiments enumerate their (benchmark × algorithm × architecture)
//! matrix as [`PointSpec`]s; [`run_points`] fans them out over a worker
//! pool and returns one [`PointResult`] per point, **in submission order**.
//! Each experiment renders its table from those results and hands back a
//! [`Report`]: its text, its rows, its traces, and its failures. The
//! `repro` binary exports every report the same way.
//!
//! # Determinism
//!
//! Results are bit-identical to a sequential run and independent of the
//! worker count: each point's simulation is single-threaded and seeded
//! only by values inside its own spec (graph seed, preprocessing seed),
//! workers claim points by atomic index and write into per-index slots
//! ([`par_map`]), and results record no host timing. The only shared
//! mutable state is a memoization cache of prepared graphs, whose entries
//! are themselves deterministic functions of the key. The engine keeps no
//! process-global state.
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

use accel::{MetricsSnapshot, RecoveryConfig, RunConfig};
use algos::Algorithm;
use graph::benchmarks::BenchmarkId;
use graph::reorder::Preprocess;
use graph::CooGraph;
use simkit::record::{Record, Value};
use simkit::trace::TraceReport;

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
/// the point timed out or failed. `trace` is deliberately excluded from
/// [`Record::fields`]: it is exported through `--trace`. Nothing here is
/// host timing, so exports are byte-identical across runs and worker
/// counts.
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
    /// The point's trace (empty unless tracing was on and the point
    /// completed).
    pub trace: TraceReport,
}

impl PointResult {
    /// Builds the result for `point` from a finished (or failed) run.
    pub fn new(
        point: &PointSpec,
        run: Result<(Row, MetricsSnapshot, TraceReport), RunFailure>,
    ) -> PointResult {
        let (row, metrics, trace, outcome, error) = match run {
            Ok((row, metrics, trace)) => {
                (Some(row), Some(metrics), trace, Outcome::Completed, None)
            }
            Err(RunFailure::TimedOut) => {
                (None, None, TraceReport::default(), Outcome::TimedOut, None)
            }
            Err(RunFailure::Failed(msg)) => (
                None,
                None,
                TraceReport::default(),
                Outcome::Failed,
                Some(msg),
            ),
        };
        let spec = &point.spec;
        PointResult {
            bench: point.bench.tag().to_owned(),
            algo: point.algo.name().to_owned(),
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
            trace,
        }
    }

    /// A label naming every identity field, so no two distinct points of
    /// one run share it (trace files and failure lines are keyed by it).
    pub fn label(&self) -> String {
        format!(
            "{}-{}-{}-{}ch-{}-{}-shrink{}-{}",
            self.bench,
            self.algo,
            self.arch,
            self.channels,
            self.caches,
            self.pre,
            self.shrink,
            self.execution
        )
    }

    /// One figure-table cell, right-aligned in `width`: `value(row)` when
    /// the point completed, else `timeout` or `failed`. Every figure
    /// table renders its cells through here, so a failed point can never
    /// pass for a timed-out one.
    pub fn cell(&self, width: usize, value: impl FnOnce(&Row) -> String) -> String {
        let text = match (&self.row, self.outcome) {
            (Some(row), _) => value(row),
            (None, Outcome::TimedOut) => "timeout".to_owned(),
            (None, _) => "failed".to_owned(),
        };
        format!("{text:>width$}")
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
    /// (`--sim-threads`); 0 = auto (`min(devices, cores)`).
    /// [`clamp_sim_threads`](Self::clamp_sim_threads) bounds
    /// `jobs × sim_threads` by the available parallelism once, at
    /// start-up. Results are byte-identical for every value.
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

    /// The wall-clock deadline of a point starting now (`None` without a
    /// `timeout`).
    pub fn deadline(&self) -> Option<Instant> {
        self.timeout.map(|t| Instant::now() + t)
    }

    /// Applies the run-level flags to one point's run config: DRAM faults,
    /// the watchdog override and tracing, plus the fabric-only link
    /// faults, retransmission timeout, checkpoint recovery and shard
    /// threads (a single-device run ignores those).
    pub fn apply(&self, rc: &mut RunConfig) {
        rc.fault = self.fault;
        if let Some(wc) = self.watchdog_cycles {
            rc.watchdog_cycles = (wc > 0).then_some(wc);
        }
        rc.trace = self.trace;
        rc.link.fault = self.link_fault;
        if let Some(rto) = self.link_retry {
            rc.link.retry.rto = rto;
            rc.link.retry.rto_cap = rc.link.retry.rto_cap.max(rto);
        }
        if self.checkpoint_interval > 0 {
            rc.recovery = Some(RecoveryConfig {
                checkpoint_interval: self.checkpoint_interval,
                ..RecoveryConfig::default()
            });
        }
        rc.sim_threads = self.sim_threads;
    }

    /// Resolves `sim_threads` so that engine jobs × shard threads never
    /// oversubscribe the host: each of the `jobs` concurrent points gets
    /// at most `cores / jobs` shard threads. `0` (auto) resolves to that
    /// budget, which the fabric further caps at its device count; an
    /// explicit request beyond it is clamped, and the returned warning
    /// says so.
    pub fn clamp_sim_threads(&mut self) -> Option<String> {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let jobs = self.effective_jobs().max(1);
        let budget = (cores / jobs).max(1);
        let requested = self.sim_threads;
        self.sim_threads = if requested == 0 {
            budget
        } else {
            requested.min(budget)
        };
        (requested > budget).then(|| {
            format!(
                "--sim-threads {requested} x --jobs {jobs} oversubscribes {cores} available \
                 cores; clamping to {budget} shard threads per point"
            )
        })
    }
}

/// What one experiment returns: the text it prints, the rows `--out`
/// exports, the labelled traces `--trace` writes, and one line per failed
/// point. The `repro` binary prints, writes and exits the same way for
/// every experiment, so none of them writes an export or sets the exit
/// code.
///
/// Failed points stay in `rows` (as `failed` rows) and also land in
/// `failures`; a sweep that cannot continue at all returns `Err` instead
/// of a report.
#[derive(Debug, Clone)]
pub struct Report<R = PointResult> {
    /// The rendered table or summary.
    pub text: String,
    /// Structured rows for `--out`.
    pub rows: Vec<R>,
    /// `(label, trace)` pairs for `--trace`, sorted by label.
    pub traces: Vec<(String, TraceReport)>,
    /// One line per failed point (panic or watchdog stall). Timed-out
    /// points do not count: an expiring `--timeout-secs` budget is a
    /// requested bound, not a failure.
    pub failures: Vec<String>,
}

impl<R> Report<R> {
    /// A report with text only (experiments that simulate no points).
    pub fn text(text: String) -> Self {
        Report {
            text,
            rows: Vec::new(),
            traces: Vec::new(),
            failures: Vec::new(),
        }
    }
}

impl Report {
    /// Wraps engine results: each traced point's trace moves into
    /// `traces` under [`PointResult::label`], each failed point adds a
    /// failure line, and rows are sorted by [`PointResult::sort_key`] so
    /// the export is independent of the order the experiment ran them in.
    pub fn from_points(text: String, mut rows: Vec<PointResult>) -> Self {
        let mut report = Report::text(text);
        for r in &mut rows {
            if !r.trace.is_empty() {
                report
                    .traces
                    .push((r.label(), std::mem::take(&mut r.trace)));
            }
            if let Some(err) = r.error.as_deref() {
                report.failures.push(format!("{}: {err}", r.label()));
            }
        }
        report.rows = rows;
        report.normalize();
        report
    }

    /// Appends another report (the `all` run), keeping rows and traces in
    /// canonical order.
    pub fn append(&mut self, other: Report) {
        self.text.push_str(&other.text);
        self.rows.extend(other.rows);
        self.traces.extend(other.traces);
        self.failures.extend(other.failures);
        self.normalize();
    }

    fn normalize(&mut self) {
        self.rows.sort_by_cached_key(|r| r.sort_key());
        self.traces.sort_by(|a, b| a.0.cmp(&b.0));
    }
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

/// Runs `f` on every item over `jobs` worker threads and returns the
/// results in item order.
///
/// Workers claim items through an atomic cursor and write each result
/// into its own slot, so the output order (and, for deterministic `f`,
/// the content) is independent of scheduling and of `jobs`.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    jobs: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let jobs = jobs.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(i, item);
                *slots[i]
                    .lock()
                    .expect("slot locks are never held across a panic") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot locks are never held across a panic")
                .expect("every item ran")
        })
        .collect()
}

/// Runs every point and returns results in submission order (see
/// [`par_map`]).
pub fn run_points(points: &[PointSpec], cfg: &EngineConfig) -> Vec<PointResult> {
    let cache = GraphCache::default();
    let progress = Mutex::new(Progress {
        total: points.len(),
        started_at: Instant::now(),
        completed: 0,
        in_flight: Vec::new(),
    });
    par_map(points, cfg.effective_jobs(), |i, point| {
        if cfg.progress {
            let label = format!(
                "{}/{}/{}",
                point.bench.tag(),
                point.algo.name(),
                point.spec.arch.name
            );
            let mut p = progress.lock().unwrap();
            p.in_flight.push((i, label, Instant::now()));
        }
        let result = run_one(point, &cache, cfg);
        if cfg.progress {
            let mut p = progress.lock().unwrap();
            p.in_flight.retain(|(idx, _, _)| *idx != i);
            p.completed += 1;
            p.report();
        }
        result
    })
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

fn run_one(point: &PointSpec, cache: &GraphCache, cfg: &EngineConfig) -> PointResult {
    // A panicking graph preparation becomes a `Failed` row instead of
    // tearing down the whole sweep (the simulation itself is contained
    // by `run_graph_outcome`). The closure only touches per-point state
    // plus the graph cache, whose entries are immutable once inserted, so
    // resuming after an unwind cannot observe broken invariants.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let g = cache.get((
            point.bench,
            point.spec.pre,
            point.spec.shrink,
            point.algo.is_weighted(),
        ));
        run_graph_outcome(&g, point.bench.tag(), point.algo, &point.spec, cfg)
    }))
    .unwrap_or_else(|payload| Err(RunFailure::Failed(panic_message(payload.as_ref()))));
    PointResult::new(point, run)
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
            // Everything serialized must match bit for bit.
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
