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
//! assert!(report.gteps_at(200.0) > 0.0);
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

/// Builder for one-shot accelerator runs with sensible defaults.
///
/// Defaults: two-level MOMS, 4 PEs, 2 channels, automatically sized
/// intervals (destination intervals chosen so jobs outnumber PEs ~16×),
/// paper-ratio bank capacities, one device (no fabric).
#[derive(Debug, Clone)]
pub struct Driver {
    pes: usize,
    channels: usize,
    topology: Topology,
    execution: ExecutionMode,
    max_iterations: Option<u32>,
    nd_override: Option<u32>,
    cacheless: bool,
    devices: usize,
    link: LinkConfig,
    recovery: Option<RecoveryConfig>,
    sim_threads: usize,
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
            cacheless: false,
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

    /// Removes the cache arrays (MSHRs and subentries only).
    pub fn cacheless(mut self) -> Self {
        self.cacheless = true;
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

    /// Replaces the whole inter-accelerator link configuration.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
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
        self.link.retry.rto = rto;
        self.link.retry.rto_cap = self.link.retry.rto_cap.max(rto);
        self
    }

    /// Replaces the whole checkpoint/rollback recovery policy.
    pub fn recovery(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self
    }

    /// Enables checkpoint/rollback recovery with a snapshot every
    /// `barriers` barriers (0 disables recovery again).
    pub fn checkpoint_interval(mut self, barriers: u32) -> Self {
        if barriers == 0 {
            self.recovery = None;
        } else {
            let mut cfg = self.recovery.unwrap_or_default();
            cfg.checkpoint_interval = barriers;
            self.recovery = Some(cfg);
        }
        self
    }

    /// Host worker threads for the fabric compute phase (default 0 =
    /// auto: `min(devices, cores)`; 1 forces the sequential path).
    /// Results are byte-identical for every value — only host wall-clock
    /// time changes.
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
        let mut rc = RunConfig::new(
            MomsSystemConfig {
                topology: self.topology,
                num_pes: self.pes,
                num_channels: self.channels,
                shared_banks: 4 * self.channels,
                shared: MomsConfig::paper_shared_bank().scaled(1, 16),
                private: MomsConfig::paper_private_bank(false).scaled(1, 16),
                pe_slr: moms::system::default_pe_slrs(self.pes),
                channel_slr: moms::system::default_channel_slrs(self.channels),
                crossing_latency: 4,
                base_net_latency: 2,
                resp_link_cycles_per_line: 8,
            },
            (ns, nd),
        );
        if self.cacheless {
            rc.caches = CacheVariant::None;
        }
        rc.execution = self.execution;
        rc.max_iterations = self.max_iterations;
        rc.devices = self.devices;
        rc.link = self.link;
        rc.recovery = self.recovery;
        rc.sim_threads = self.sim_threads;
        rc
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

/// Convenience re-export so `RunResult::gteps` reads naturally from the
/// driver docs.
impl RunResult {
    /// Alias of [`RunResult::gteps`] for driver users.
    pub fn gteps_at(&self, freq_mhz: f64) -> f64 {
        self.gteps(freq_mhz)
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
        let (cfg, _) = Driver::new().cacheless().run_config(&g).build();
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
