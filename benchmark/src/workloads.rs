//! The five workloads. Each operation builds its inputs from the seed,
//! sets up the simulator, runs the timed phase, and checks the result
//! against an independent oracle.
//!
//! The workloads are split along the memory-access class the paper's
//! effect depends on (clustered labels hit in the MOMS caches, scrambled
//! labels keep thousands of misses in flight), plus the three host paths
//! that bypass the single-device hot loop: fabric threading, the serving
//! scheduler, and paper-scale set-up.

use std::collections::BTreeMap;
use std::time::Instant;

use accel::{Fabric, PeCycleBreakdown, RunConfig, RunError, RunResult, System};
use algos::{golden, Algorithm};
use bench::arch::ArchPoint;
use graph::benchmarks::BenchmarkId;
use graph::reorder::{self, Preprocess};
use graph::{CooGraph, GraphSpec};
use serve::{Scheduler, ServeConfig};
use simkit::fuzz::case_seed;
use simkit::Stats;

use crate::alloc;
use crate::calib::Probe;
use crate::replay;
use crate::spans::Spans;

/// Per-layer values of one operation, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Clustered labels: the MOMS cache-hit path.
    ClusteredScc,
    /// Scrambled labels: the MOMS miss path.
    ScrambledScc,
    /// Four devices on host threads: epoch threading and link exchange.
    FabricBfs4,
    /// Hundreds of short preemptible runs under overload.
    ServeOverload,
    /// Set-up at Table-II size plus a partial iteration there.
    PaperscaleSetup,
}

/// Input size: the benchmark's own, or a reduced one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small enough that every workload finishes in well under a second.
    Smoke,
}

/// One completed operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Host seconds of set-up (graph build, reorder, model construction).
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub run_s: f64,
    /// Simulated device-cycles advanced in the timed phase.
    pub sim_cycles: u64,
    /// Simulated counts every repeat of the workload must reproduce.
    pub signature: Vec<(&'static str, u64)>,
    /// Per-layer values (complete only for traced operations).
    pub layers: Layers,
}

/// Which `case_seed` stream drives which generator.
const GRAPH_STREAM: u64 = 0;
const REORDER_STREAM: u64 = 1;
const SERVE_STREAM: u64 = 2;

/// MOMS requests recorded for the replay in traced operations.
const MOMS_TRACE_CAP: usize = 1 << 20;

/// DRAM channels of every single-device design point.
const CHANNELS: usize = 4;

/// Node values per 64 B line, the granularity of cache-line hashing.
const NODES_PER_LINE: u32 = 16;

/// One in this many source intervals is active in the paper-scale
/// iteration. A full iteration at that size takes tens of seconds; this
/// share of the edges takes about half a second.
const PAPERSCALE_SOURCE_STRIDE: usize = 64;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::ClusteredScc,
        Workload::ScrambledScc,
        Workload::FabricBfs4,
        Workload::ServeOverload,
        Workload::PaperscaleSetup,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusteredScc => "clustered-scc",
            Workload::ScrambledScc => "scrambled-scc",
            Workload::FabricBfs4 => "fabric-bfs4",
            Workload::ServeOverload => "serve-overload",
            Workload::PaperscaleSetup => "paperscale-setup",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ClusteredScc => {
                "clustered labels give MOMS cache hits, so the hit path dominates the hot loop"
            }
            Workload::ScrambledScc => {
                "scrambled labels give few hits, so MSHR, subentry and DRAM line traffic dominate"
            }
            Workload::FabricBfs4 => {
                "the only workload on epoch threading, link exchange and barrier waits"
            }
            Workload::ServeOverload => {
                "hundreds of short preemptible runs: System::new and per-run overheads dominate"
            }
            Workload::PaperscaleSetup => {
                "set-up time and host memory at Table-II size, plus a partial iteration there"
            }
        }
    }

    /// How the timed phase slows with the host: when the host-speed
    /// kernel (`calib`) takes `x` times longer, this phase takes about
    /// `x^sensitivity` times longer. Single-threaded phases slow 1.2–1.8×
    /// as much as the kernel in log terms on the reference host; the
    /// values below gave the smallest worst-case run-to-run spread over
    /// three sets of ten runs. The fabric's two threads slow least.
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Workload::FabricBfs4 => 1.0,
            Workload::PaperscaleSetup => 1.6,
            _ => 1.4,
        }
    }

    /// The generated graph of this workload, or `None` for the serving
    /// workload, whose catalog is fixed and whose seed drives only the
    /// request stream.
    pub fn graph_spec(self, size: Size) -> Option<GraphSpec> {
        let smoke = size == Size::Smoke;
        Some(match self {
            Workload::ClusteredScc => BenchmarkId::Uk.spec(if smoke { 64 } else { 8 }),
            Workload::ScrambledScc => BenchmarkId::Wt.spec(if smoke { 64 } else { 8 }),
            Workload::FabricBfs4 => BenchmarkId::Rv.spec(if smoke { 64 } else { 4 }),
            Workload::ServeOverload => return None,
            // WT's generator at its Table-II size.
            Workload::PaperscaleSetup if smoke => {
                GraphSpec::power_law_cluster(20_000, 42_000, 1.7, 0.2, 64, true)
            }
            Workload::PaperscaleSetup => {
                GraphSpec::power_law_cluster(2_390_000, 5_020_000, 1.7, 0.2, 64, true)
            }
        })
    }

    /// The serving configuration for `seed`.
    pub fn serve_config(seed: u64, size: Size) -> ServeConfig {
        let smoke = size == Size::Smoke;
        ServeConfig {
            seed: case_seed(seed, SERVE_STREAM),
            requests: if smoke { 24 } else { 300 },
            slots: 2,
            quantum: 2,
            rate_permille: 2000,
            shrink: if smoke { 64 } else { 4 },
            ..ServeConfig::default()
        }
    }

    /// Runs one operation. Spans go to `spans`; `probe` samples the
    /// host-speed reference right before and right after the timed phase.
    /// A traced operation also records and replays the MOMS request
    /// stream and fills every per-layer value.
    ///
    /// # Errors
    ///
    /// Describes the first failed check: a stalled simulation or a result
    /// that disagrees with its oracle.
    pub fn run(
        self,
        seed: u64,
        size: Size,
        spans: &mut Spans,
        probe: &mut Probe,
    ) -> Result<Op, String> {
        match self {
            Workload::ClusteredScc | Workload::ScrambledScc => self.scc(seed, size, spans, probe),
            Workload::FabricBfs4 => self.fabric(seed, size, spans, probe),
            Workload::ServeOverload => serve_op(seed, size, spans, probe),
            Workload::PaperscaleSetup => self.paperscale(seed, size, spans, probe),
        }
    }

    fn scc(
        self,
        seed: u64,
        size: Size,
        spans: &mut Spans,
        probe: &mut Probe,
    ) -> Result<Op, String> {
        let mut layers = Layers::new();
        let t0 = Instant::now();
        let g = self.prepare_graph(seed, size, spans, &mut layers);
        // Cache arrays shrink with the graph, as in every experiment.
        let cache_shrink = if size == Size::Smoke { 64 } else { 8 };
        let algo = Algorithm::Scc;
        let (mut sys, replay_cfg) = new_system(
            &g,
            algo,
            ArchPoint::two_level_18_16(),
            cache_shrink,
            (2048, 256),
            spans,
            &mut layers,
        );
        let setup_s = t0.elapsed().as_secs_f64();

        probe.before(spans);
        let t = Instant::now();
        let r = if spans.enabled() {
            stepped_run(&mut sys, spans, &mut layers)
        } else {
            sys.run_to_outcome(None)
        }
        .map_err(|e| format!("System run failed: {e}"))?;
        let run_s = t.elapsed().as_secs_f64();
        probe.after(spans);
        drop(sys);

        let (want, golden_s) = spans.time("algos.golden", || golden::run(&algo, &g));
        layers.insert("algos.golden_s", golden_s);
        if r.values != want {
            let node = r.values.iter().zip(&want).position(|(a, b)| a != b);
            return Err(format!(
                "SCC values differ from the golden run (first at node {node:?})"
            ));
        }
        system_layers(&r, &mut layers);
        if spans.enabled() {
            replay_layers(&replay_cfg, &r.moms_trace, spans, &mut layers)?;
        }
        Ok(Op {
            setup_s,
            run_s,
            sim_cycles: r.cycles,
            signature: vec![
                ("cycles", r.cycles),
                ("iterations", r.iterations.into()),
                ("edges", r.edges_processed),
                ("moms_dram_lines", r.stats.get("dram_line_requests")),
                ("cache_hits", r.metrics.moms.banks.cache_hits),
            ],
            layers,
        })
    }

    fn fabric(
        self,
        seed: u64,
        size: Size,
        spans: &mut Spans,
        probe: &mut Probe,
    ) -> Result<Op, String> {
        const DEVICES: usize = 4;
        let mut layers = Layers::new();
        let t0 = Instant::now();
        let g = self.prepare_graph(seed, size, spans, &mut layers);
        let algo = Algorithm::bfs(0);
        let cache_shrink = if size == Size::Smoke { 64 } else { 4 };
        let mut rc = RunConfig::new(
            ArchPoint::two_level_16_16().moms_config(CHANNELS, cache_shrink, true),
            (2048, 256),
        );
        rc.devices = DEVICES;
        rc.sim_threads = 2;
        let (mut fab, new_s) = spans.time("fabric.new", || Fabric::new(&g, algo, &rc));
        let setup_s = t0.elapsed().as_secs_f64();

        probe.before(spans);
        let (r, run_s) = spans.time("fabric.run", || fab.run_to_outcome(None));
        probe.after(spans);
        let r = r.map_err(|e| format!("fabric run failed: {e}"))?;
        drop(fab);
        let (want, golden_s) = spans.time("algos.golden", || golden::run(&algo, &g));
        if r.values != want {
            return Err("fabric BFS values differ from the golden run".to_owned());
        }
        let signature = vec![
            ("cycles", r.cycles),
            ("iterations", r.iterations.into()),
            ("edges", r.edges_processed),
            ("messages", r.link.messages_sent),
            ("updates", r.link.updates),
        ];

        if spans.enabled() {
            // The same run on one host thread gives the threading speed-up
            // and must reproduce every simulated count.
            rc.sim_threads = 1;
            let (mut fab1, _) = spans.time("fabric.new", || Fabric::new(&g, algo, &rc));
            let (r1, run1_s) = spans.time("fabric.run", || fab1.run_to_outcome(None));
            let r1 = r1.map_err(|e| format!("fabric run at 1 thread failed: {e}"))?;
            if (
                r1.cycles,
                r1.edges_processed,
                r1.link.messages_sent,
                &r1.values,
            ) != (r.cycles, r.edges_processed, r.link.messages_sent, &r.values)
            {
                return Err("fabric results differ between 1 and 2 host threads".to_owned());
            }
            layers.insert("fabric.thread_speedup", run1_s / run_s);
        }

        layers.insert("fabric.new_s", new_s);
        layers.insert("fabric.run_s", run_s);
        layers.insert("algos.golden_s", golden_s);
        layers.insert(
            "fabric.link_wait_share",
            ratio(r.pe_cycles.link_wait, r.pe_cycles.total()),
        );
        layers.insert(
            "fabric.exchange_share",
            ratio(r.link.exchange_cycles, r.cycles),
        );
        layers.insert("fabric.messages", r.link.messages_sent as f64);
        layers.insert("fabric.updates", r.link.updates as f64);
        layers.insert("accel.sim_cycles", r.cycles as f64);
        layers.insert("accel.iterations", r.iterations.into());
        layers.insert("accel.edges", r.edges_processed as f64);
        layers.insert("sim_edges_per_cycle", r.edges_per_cycle());
        pe_layers(&r.pe_cycles, &mut layers);
        moms_stat_layers(&r.stats, &mut layers);
        Ok(Op {
            setup_s,
            run_s,
            sim_cycles: r.cycles * DEVICES as u64,
            signature,
            layers,
        })
    }

    fn paperscale(
        self,
        seed: u64,
        size: Size,
        spans: &mut Spans,
        probe: &mut Probe,
    ) -> Result<Op, String> {
        let mut layers = Layers::new();
        let t0 = Instant::now();
        let g = self.prepare_graph(seed, size, spans, &mut layers);
        // A PageRank built with its own iteration count, not a capped
        // `Algorithm::pagerank()`, so any later comparison uses the same
        // iteration count as the golden run.
        let algo = Algorithm::PageRank { iterations: 10 };
        // Ns = 16384 is the smallest power of two whose pointer row fits
        // the PE's 32-line burst at 2.39M nodes.
        let intervals = if size == Size::Smoke {
            (2048, 256)
        } else {
            (16384, 4096)
        };
        let (mut sys, replay_cfg) = new_system(
            &g,
            algo,
            ArchPoint::two_level_18_16(),
            1,
            intervals,
            spans,
            &mut layers,
        );
        // Every source interval's shards sit in the image, but only every
        // PAPERSCALE_SOURCE_STRIDE-th interval is active: iteration 0 then
        // runs every destination job over a fixed share of the edges, a
        // deterministic loop at paper scale short enough to repeat.
        let ns = intervals.0;
        let active: Vec<bool> = (0..sys.num_source_intervals())
            .map(|s| s % PAPERSCALE_SOURCE_STRIDE == 0)
            .collect();
        let (jobs, begin_s) =
            spans.time("accel.begin_iteration", || sys.begin_iteration(0, &active));
        layers.insert("accel.begin_iteration_s", begin_s);
        let setup_s = t0.elapsed().as_secs_f64();
        if jobs == 0 {
            return Err("iteration 0 scheduled no jobs".to_owned());
        }

        let (want, golden_s) = spans.time("algos.golden", || algo.initial_vin(&g));
        layers.insert("algos.golden_s", golden_s);
        if let Some(v) = (0..g.num_nodes()).find(|&v| sys.read_node_in(v) != want[v as usize]) {
            return Err(format!(
                "initial V_in of node {v} differs from the algorithm's"
            ));
        }

        probe.before(spans);
        let t = Instant::now();
        let a0 = alloc::allocations();
        let (stepped, step_s) = spans.time("accel.step_iteration", || sys.step_iteration(0, None));
        let step_allocs = alloc::allocations() - a0;
        let edges = stepped.map_err(|e| format!("paper-scale iteration failed: {e}"))?;
        let run_s = t.elapsed().as_secs_f64();
        probe.after(spans);
        let want_edges = g
            .edges()
            .iter()
            .filter(|&&(src, _)| active[(src / ns) as usize])
            .count() as u64;
        if edges != want_edges {
            return Err(format!(
                "iteration 0 gathered {edges} edges, the active shards hold {want_edges}"
            ));
        }
        let (r, _) = spans.time("accel.finish", || sys.finish(1, edges));
        drop(sys);

        system_layers(&r, &mut layers);
        layers.insert("accel.step_iteration_s", step_s);
        layers.insert("accel.step_allocs", step_allocs as f64);
        layers.insert("accel.step_ns_per_cycle", per_cycle_ns(step_s, r.cycles));
        if spans.enabled() {
            replay_layers(&replay_cfg, &r.moms_trace, spans, &mut layers)?;
        }
        Ok(Op {
            setup_s,
            run_s,
            sim_cycles: r.cycles,
            signature: vec![
                ("nodes", g.num_nodes().into()),
                ("edges", g.num_edges() as u64),
                ("jobs", jobs as u64),
                ("cycles", r.cycles),
                ("edges_gathered", edges),
                ("moms_dram_lines", r.stats.get("dram_line_requests")),
            ],
            layers,
        })
    }

    /// Builds the workload's graph from `seed` and relabels it with DBG
    /// and cache-line hashing, the paper's default preprocessing.
    ///
    /// # Panics
    ///
    /// Panics for the serving workload, which has no graph of its own.
    pub fn prepare_graph(
        self,
        seed: u64,
        size: Size,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> CooGraph {
        let spec = self
            .graph_spec(size)
            .expect("workload has a generated graph");
        let (g, build_s) = spans.time("graph.build", || spec.build(case_seed(seed, GRAPH_STREAM)));
        let ((g, _), reorder_s) = spans.time("graph.reorder", || {
            reorder::apply(
                &g,
                Preprocess::DbgHash,
                NODES_PER_LINE,
                case_seed(seed, REORDER_STREAM),
            )
        });
        layers.insert("graph.build_s", build_s);
        layers.insert("graph.reorder_s", reorder_s);
        g
    }
}

/// What the replay needs from a system's configuration.
struct ReplayConfig {
    moms: moms::MomsSystemConfig,
    dram: dram::DramConfig,
}

fn new_system(
    g: &CooGraph,
    algo: Algorithm,
    arch: ArchPoint,
    cache_shrink: usize,
    intervals: (u32, u32),
    spans: &mut Spans,
    layers: &mut Layers,
) -> (System, ReplayConfig) {
    let mut rc = RunConfig::new(arch.moms_config(CHANNELS, cache_shrink, true), intervals);
    if spans.enabled() {
        rc.moms_trace_cap = MOMS_TRACE_CAP;
    }
    let (cfg, partitioner) = rc.build();
    let replay = ReplayConfig {
        moms: cfg.moms.clone(),
        dram: cfg.dram.clone(),
    };
    let heap0 = alloc::live_bytes();
    let (sys, new_s) = spans.time("accel.system_new", || {
        System::new(g, partitioner, algo, cfg)
    });
    layers.insert("accel.system_new_s", new_s);
    layers.insert(
        "accel.system_new_heap_mib",
        alloc::mib(alloc::live_bytes().saturating_sub(heap0)),
    );
    (sys, replay)
}

/// Template 1 driven call by call through `System`'s public iteration
/// API, as `System::run_to_outcome` drives it, with a span around every
/// call. Traced operations use it; their simulated counts must equal the
/// untraced `run_to_outcome` ones.
fn stepped_run(
    sys: &mut System,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<RunResult, RunError> {
    let max_iter = sys.resolved_max_iterations();
    let mut active = vec![true; sys.num_source_intervals()];
    let (mut iterations, mut edges) = (0u32, 0u64);
    let (mut begin_s, mut step_s, mut step_allocs) = (0.0, 0.0, 0u64);
    while iterations < max_iter {
        let (jobs, s) = spans.time("accel.begin_iteration", || {
            sys.begin_iteration(iterations, &active)
        });
        begin_s += s;
        if jobs == 0 {
            break;
        }
        let a0 = alloc::allocations();
        let (stepped, s) = spans.time("accel.step_iteration", || {
            sys.step_iteration(iterations, None)
        });
        step_allocs += alloc::allocations() - a0;
        step_s += s;
        edges += stepped?;
        iterations += 1;
        if !sys.continues() {
            break;
        }
        active = sys.next_active_srcs();
        if sys.is_synchronous_image() && iterations < max_iter {
            sys.advance_synchronous_frontier();
        }
    }
    let (r, _) = spans.time("accel.finish", || sys.finish(iterations, edges));
    layers.insert("accel.begin_iteration_s", begin_s);
    layers.insert("accel.step_iteration_s", step_s);
    layers.insert("accel.step_allocs", step_allocs as f64);
    layers.insert("accel.step_ns_per_cycle", per_cycle_ns(step_s, r.cycles));
    Ok(r)
}

fn replay_layers(
    cfg: &ReplayConfig,
    trace: &[(u16, u64)],
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let (times, _) = spans.time("moms.replay", || {
        replay::replay(&cfg.moms, &cfg.dram, trace)
    });
    let times = times?;
    layers.insert("moms.tick_ns", times.moms_tick_ns);
    layers.insert("dram.tick_ns", times.dram_tick_ns);
    Ok(())
}

fn system_layers(r: &RunResult, layers: &mut Layers) {
    layers.insert("accel.sim_cycles", r.cycles as f64);
    layers.insert("accel.iterations", r.iterations.into());
    layers.insert("accel.edges", r.edges_processed as f64);
    layers.insert("accel.skip_ratio", ratio(r.cycles, r.host_ticks));
    layers.insert("sim_edges_per_cycle", r.edges_per_cycle());
    let dram = r.metrics.dram_total();
    layers.insert("dram.lines", (dram.read_lines + dram.write_lines) as f64);
    pe_layers(&r.metrics.pe_cycles, layers);
    moms_stat_layers(&r.stats, layers);
}

fn pe_layers(pe: &PeCycleBreakdown, layers: &mut Layers) {
    let total = pe.total();
    layers.insert("pe.idle_share", ratio(pe.idle, total));
    layers.insert("pe.productive_share", ratio(pe.stream_productive, total));
    layers.insert("pe.moms_wait_share", ratio(pe.stream_moms_wait, total));
    layers.insert("pe.dram_wait_share", ratio(pe.stream_dram_wait, total));
    layers.insert("pe.fetch_ptrs_share", ratio(pe.fetch_ptrs, total));
    layers.insert(
        "pe.backpressure_share",
        ratio(pe.stream_backpressure, total),
    );
}

/// MOMS counters from merged run statistics (summed over devices in a
/// fabric run).
fn moms_stat_layers(stats: &Stats, layers: &mut Layers) {
    let hits = stats.get("cache_probe_hits");
    layers.insert(
        "moms.hit_rate",
        ratio(hits, hits + stats.get("cache_probe_misses")),
    );
    layers.insert("moms.dram_lines", stats.get("dram_line_requests") as f64);
    layers.insert(
        "moms.peak_outstanding_misses",
        stats.get("peak_outstanding_misses") as f64,
    );
}

fn serve_op(seed: u64, size: Size, spans: &mut Spans, probe: &mut Probe) -> Result<Op, String> {
    let mut layers = Layers::new();
    let cfg = Workload::serve_config(seed, size);
    let t0 = Instant::now();
    let (sched, calibrate_s) = spans.time("serve.calibrate", || Scheduler::new(&cfg));
    let sched = sched?;
    let (requests, _) = spans.time("serve.generate", || sched.generate());
    let setup_s = t0.elapsed().as_secs_f64();

    probe.before(spans);
    let (rep, run_s) = spans.time("serve.schedule", || sched.run(&requests));
    probe.after(spans);
    let rep = rep?;
    if rep.golden_mismatches > 0 || rep.watchdog_trips > 0 || rep.failed > 0 {
        return Err(format!(
            "serve: {} golden mismatches, {} watchdog trips, {} failed requests",
            rep.golden_mismatches, rep.watchdog_trips, rep.failed
        ));
    }
    if rep.admitted + rep.shed != rep.generated
        || rep.completed != rep.admitted
        || rep.latency.count() != rep.completed
    {
        return Err(format!(
            "serve: requests unaccounted for: generated {}, admitted {}, shed {}, completed {}",
            rep.generated, rep.admitted, rep.shed, rep.completed
        ));
    }
    let p99 = rep.latency.quantile(0.99);
    layers.insert("serve.calibrate_s", calibrate_s);
    layers.insert("serve.schedule_s", run_s);
    layers.insert(
        "serve.host_ns_per_busy_cycle",
        per_cycle_ns(run_s, rep.busy_cycles),
    );
    layers.insert("serve.preemptions", rep.preemptions as f64);
    layers.insert("serve.resumes", rep.resumes as f64);
    layers.insert("serve.co_batched", rep.co_batched as f64);
    layers.insert("serve.shed", rep.shed as f64);
    layers.insert("serve.completed", rep.completed as f64);
    layers.insert("serve_p99_cycles", p99 as f64);
    layers.insert("serve_goodput_per_mcycle", rep.goodput_per_mcycle());
    Ok(Op {
        setup_s,
        run_s,
        sim_cycles: rep.busy_cycles,
        signature: vec![
            ("generated", rep.generated),
            ("admitted", rep.admitted),
            ("shed", rep.shed),
            ("completed", rep.completed),
            ("preemptions", rep.preemptions),
            ("resumes", rep.resumes),
            ("restarts", rep.restarts),
            ("co_batched", rep.co_batched),
            ("deadline_misses", rep.deadline_misses),
            ("makespan", rep.makespan),
            ("busy_cycles", rep.busy_cycles),
            ("p99_cycles", p99),
        ],
        layers,
    })
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn per_cycle_ns(secs: f64, cycles: u64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        secs * 1e9 / cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(w: Workload, seed: u64) -> CooGraph {
        w.prepare_graph(seed, Size::Smoke, &mut Spans::off(), &mut Layers::new())
    }

    fn arrivals(seed: u64) -> Vec<(u64, usize, usize)> {
        let sched = Scheduler::new(&Workload::serve_config(seed, Size::Smoke)).unwrap();
        sched
            .generate()
            .iter()
            .map(|r| (r.arrival, r.job.graph, r.job.query))
            .collect()
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            if w.graph_spec(Size::Smoke).is_none() {
                continue;
            }
            let a = graph(w, 1);
            assert_eq!(a.edges(), graph(w, 1).edges(), "{}", w.name());
            assert_ne!(a.edges(), graph(w, 2).edges(), "{}", w.name());
        }
        assert_eq!(arrivals(1), arrivals(1));
        assert_ne!(arrivals(1), arrivals(2));
    }
}
