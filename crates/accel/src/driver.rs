//! High-level driver: a builder that hides partitioning and configuration
//! defaults for downstream users who just want to run an algorithm on a
//! graph and read results.
//!
//! # Example
//!
//! ```
//! use accel::driver::Driver;
//! use algos::{golden, Algorithm};
//! use graph::GraphSpec;
//!
//! let g = GraphSpec::rmat(8, 4).build(5);
//! let report = Driver::new()
//!     .pes(4)
//!     .channels(2)
//!     .run(&g, Algorithm::bfs(0))?;
//! assert_eq!(report.values, golden::run(&Algorithm::bfs(0), &g));
//! assert!(report.gteps(200.0) > 0.0);
//! # Ok::<(), accel::RunError>(())
//! ```

use algos::Algorithm;
use graph::CooGraph;
use moms::{MomsConfig, MomsSystemConfig, Topology};

use crate::checkpoint::RecoveryConfig;
use crate::config::ExecutionMode;
use crate::fabric::{Fabric, FabricError, FabricRunResult, LinkConfig, LinkTopology};
use crate::run_config::{CacheVariant, RunConfig};
use crate::system::{RunError, RunResult, System};
use simkit::Cycle;

/// The one description of a run before it meets a graph: every knob a
/// caller sets, lowered by [`run_config`](Self::run_config) into the
/// resolved [`RunConfig`] once the graph's size is known.
///
/// Defaults: two-level MOMS, 4 PEs, 2 channels, automatically sized
/// intervals (destination intervals chosen so jobs outnumber PEs ~16×),
/// paper-ratio bank capacities, full caches, one device (no fabric).
/// Set the public fields directly or chain the builder methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Driver {
    /// Processing elements per device.
    pub pes: usize,
    /// DRAM channels per device.
    pub channels: usize,
    /// MOMS organisation.
    pub topology: Topology,
    /// Synchronous/asynchronous control.
    pub execution: ExecutionMode,
    /// Iteration cap (`None`: the algorithm's own).
    pub max_iterations: Option<u32>,
    /// Destination-interval size (`None`: sized from the graph).
    pub nd_override: Option<u32>,
    /// Which cache arrays stay enabled.
    pub caches: CacheVariant,
    /// Fabric devices (1: plain single-`System` run).
    pub devices: usize,
    /// Inter-accelerator link configuration.
    pub link: LinkConfig,
    /// Checkpoint/rollback recovery policy (`None`: off).
    pub recovery: Option<RecoveryConfig>,
    /// Host worker threads for the fabric compute phase. Results are
    /// byte-identical for every value; only host wall-clock time changes.
    pub sim_threads: usize,
}

impl Default for Driver {
    fn default() -> Self {
        Driver::new()
    }
}

impl Driver {
    /// Creates a driver with default settings.
    pub fn new() -> Self {
        Driver {
            pes: 4,
            channels: 2,
            topology: Topology::TwoLevel,
            execution: ExecutionMode::AlgorithmDefault,
            max_iterations: None,
            nd_override: None,
            caches: CacheVariant::Full,
            devices: 1,
            link: LinkConfig::default(),
            recovery: None,
            sim_threads: 0,
        }
    }

    /// Number of processing elements.
    pub fn pes(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one PE");
        self.pes = n;
        self
    }

    /// Number of DRAM channels.
    pub fn channels(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one channel");
        self.channels = n;
        self
    }

    /// MOMS organisation (default: two-level).
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = t;
        self
    }

    /// Synchronous/asynchronous control (default: per algorithm).
    pub fn execution(mut self, e: ExecutionMode) -> Self {
        self.execution = e;
        self
    }

    /// Caps the iteration count.
    pub fn max_iterations(mut self, n: u32) -> Self {
        self.max_iterations = Some(n);
        self
    }

    /// Overrides the automatic destination-interval size.
    ///
    /// # Panics
    ///
    /// Panics if `nd` is zero or exceeds the 15-bit offset limit.
    pub fn destination_interval(mut self, nd: u32) -> Self {
        assert!(nd > 0 && nd <= graph::partition::MAX_ND, "Nd out of range");
        self.nd_override = Some(nd);
        self
    }

    /// Which cache arrays stay enabled (default: all).
    pub fn caches(mut self, c: CacheVariant) -> Self {
        self.caches = c;
        self
    }

    /// Number of fabric devices (default 1: plain single-`System` run).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn devices(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one device");
        self.devices = n;
        self
    }

    /// Link wiring between devices (default: all-to-all).
    pub fn link_topology(mut self, t: LinkTopology) -> Self {
        self.link.topology = t;
        self
    }

    /// Per-link serialization bandwidth in words/cycle.
    ///
    /// # Panics
    ///
    /// Panics if `w` is zero.
    pub fn link_bandwidth(mut self, w: u32) -> Self {
        assert!(w > 0, "link bandwidth must be nonzero");
        self.link.bandwidth_words_per_cycle = w;
        self
    }

    /// Per-hop link flight latency in cycles.
    pub fn link_latency(mut self, c: u64) -> Self {
        self.link.latency = c;
        self
    }

    /// Initial retransmission timeout of the reliable link transport in
    /// cycles (floored internally at a few round-trips of the configured
    /// link to avoid spurious retransmits on slow-but-lossless links).
    ///
    /// # Panics
    ///
    /// Panics if `rto` is zero.
    pub fn link_retry(mut self, rto: Cycle) -> Self {
        assert!(rto > 0, "link rto must be nonzero");
        self.link.retry.set_rto(rto);
        self
    }

    /// Enables checkpoint/rollback recovery with a snapshot every
    /// `barriers` barriers (0 disables recovery again).
    pub fn checkpoint_interval(mut self, barriers: u32) -> Self {
        self.recovery = RecoveryConfig::every(barriers);
        self
    }

    /// Host worker threads for the fabric compute phase (default 0 =
    /// auto: `min(devices, cores)`; 1 forces the sequential path).
    pub fn sim_threads(mut self, n: usize) -> Self {
        self.sim_threads = n;
        self
    }

    /// Destination interval size chosen for `n` nodes: jobs ≈ 16× PEs,
    /// clamped to a sane power-of-two range.
    fn auto_nd(&self, n: u32) -> u32 {
        if let Some(nd) = self.nd_override {
            return nd;
        }
        let target_jobs = (self.pes as u32).max(1) * 16;
        let raw = (n / target_jobs).max(64);
        // Round down to a power of two, cap at the paper's 32,768.
        let mut nd = 64;
        while nd * 2 <= raw && nd * 2 <= 32_768 {
            nd *= 2;
        }
        nd
    }

    /// Lowers this driver's settings for `g` into the shared
    /// [`RunConfig`] path.
    pub fn run_config(&self, g: &CooGraph) -> RunConfig {
        let nd = self.auto_nd(g.num_nodes());
        let ns = (nd * 2).min(graph::partition::MAX_NS);
        let moms = MomsSystemConfig::new(
            self.topology,
            self.pes,
            self.channels,
            4 * self.channels,
            MomsConfig::paper_shared_bank().scaled(1, 16),
            MomsConfig::paper_private_bank(false).scaled(1, 16),
        );
        RunConfig {
            caches: self.caches,
            execution: self.execution,
            max_iterations: self.max_iterations,
            devices: self.devices,
            link: self.link,
            recovery: self.recovery,
            sim_threads: self.sim_threads,
            ..RunConfig::new(moms, (ns, nd))
        }
    }

    /// Runs `algo` on `g` on one device and returns the result.
    ///
    /// # Errors
    ///
    /// [`RunError::Stalled`] when the no-progress watchdog trips.
    ///
    /// # Panics
    ///
    /// Panics if a weighted algorithm is run on an unweighted graph, the
    /// graph's intervals exceed hardware limits, or more than one device
    /// was configured (use [`run_fabric`](Self::run_fabric) for
    /// multi-device runs).
    pub fn run(&self, g: &CooGraph, algo: Algorithm) -> Result<RunResult, RunError> {
        assert_eq!(
            self.devices, 1,
            "Driver::run is the single-device path; use Driver::run_fabric \
             for a {}-device fabric",
            self.devices
        );
        let (cfg, partitioner) = self.run_config(g).build();
        System::new(g, partitioner, algo, cfg).run_to_outcome(None)
    }

    /// Runs `algo` on `g` across the configured fabric (any device count,
    /// including 1) and returns the fabric result.
    ///
    /// # Errors
    ///
    /// [`FabricError`] when a device or the link exchange stalls and
    /// recovery (if configured) cannot carry the run.
    ///
    /// # Panics
    ///
    /// Panics under the same configuration conditions as
    /// [`run`](Self::run).
    pub fn run_fabric(
        &self,
        g: &CooGraph,
        algo: Algorithm,
    ) -> Result<FabricRunResult, FabricError> {
        Fabric::new(g, algo, &self.run_config(g)).run_to_outcome(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algos::golden;
    use graph::GraphSpec;

    #[test]
    fn defaults_run_and_match_golden() {
        let g = GraphSpec::rmat(9, 4).build(91);
        let r = Driver::new().run(&g, Algorithm::Scc).unwrap();
        assert_eq!(r.values, golden::run(&Algorithm::Scc, &g));
    }

    #[test]
    fn auto_nd_keeps_jobs_numerous() {
        let d = Driver::new().pes(4);
        let nd = d.auto_nd(100_000);
        let jobs = 100_000 / nd;
        assert!(jobs >= 32, "only {jobs} jobs for 4 PEs (nd = {nd})");
        assert!(nd.is_power_of_two());
    }

    #[test]
    fn nd_override_is_respected() {
        let g = GraphSpec::rmat(8, 4).build(93);
        let (cfg, p) = Driver::new()
            .destination_interval(128)
            .run_config(&g)
            .build();
        assert_eq!(p.nd(), 128);
        assert_eq!(cfg.pe.bram_nodes, 128);
    }

    #[test]
    fn cacheless_builder_strips_arrays() {
        let g = GraphSpec::rmat(8, 4).build(95);
        let (cfg, _) = Driver::new()
            .caches(CacheVariant::None)
            .run_config(&g)
            .build();
        assert!(cfg.moms.shared.cache.is_none());
        assert!(cfg.moms.private.cache.is_none());
    }

    #[test]
    fn topology_and_execution_flow_through() {
        let g = GraphSpec::rmat(8, 4).build(97);
        let r = Driver::new()
            .topology(Topology::Private)
            .execution(ExecutionMode::ForceSynchronous)
            .run(&g, Algorithm::bfs(0))
            .unwrap();
        assert_eq!(r.values, golden::run(&Algorithm::bfs(0), &g));
    }
}
