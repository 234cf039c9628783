//! The single configuration path for accelerator runs.
//!
//! Every front end — the [`Driver`](crate::Driver) builder, the experiment
//! harness's design points, ad-hoc tests — lowers its knobs into a
//! [`RunConfig`] and calls [`RunConfig::build`]. That one method owns the
//! invariants that used to be duplicated per caller: cache-variant
//! stripping, PE BRAM sized to the destination interval, and validation.

use std::str::FromStr;

use dram::DramConfig;
use graph::Partitioner;
use moms::MomsSystemConfig;
use simkit::{Cycle, FaultConfig, TraceConfig};

use crate::checkpoint::RecoveryConfig;
use crate::config::{ExecutionMode, PeConfig, SystemConfig, DEFAULT_WATCHDOG_CYCLES};
use crate::fabric::LinkConfig;

/// Which cache arrays stay enabled (Fig. 15's four variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CacheVariant {
    /// Private and shared arrays enabled.
    #[default]
    Full,
    /// Shared array only.
    NoPrivate,
    /// Private array only.
    NoShared,
    /// No cache arrays at all (MSHRs and subentries only).
    None,
}

impl CacheVariant {
    /// Stable short name, parsed back by [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            CacheVariant::Full => "full",
            CacheVariant::NoPrivate => "no-private",
            CacheVariant::NoShared => "no-shared",
            CacheVariant::None => "none",
        }
    }

    /// Label in experiment tables and exports.
    pub fn label(self) -> &'static str {
        match self {
            CacheVariant::Full => "priv+shared",
            CacheVariant::NoPrivate => "shared only",
            CacheVariant::NoShared => "priv only",
            CacheVariant::None => "no caches",
        }
    }
}

impl FromStr for CacheVariant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [
            CacheVariant::Full,
            CacheVariant::NoPrivate,
            CacheVariant::NoShared,
            CacheVariant::None,
        ]
        .into_iter()
        .find(|c| c.name() == s)
        .ok_or_else(|| format!("unknown cache variant {s:?}"))
    }
}

/// A fully resolved run configuration: MOMS topology and bank parameters,
/// DRAM timing, interval sizes, and execution control.
///
/// Construct one with [`RunConfig::new`] from whatever source defines the
/// architecture (a `Driver`, an experiment `ArchPoint`, a hand-built
/// [`MomsSystemConfig`]), adjust the public fields, then
/// [`build`](RunConfig::build) the `(SystemConfig, Partitioner)` pair every
/// simulator entry point consumes.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// MOMS topology and bank parameters; its `num_pes`/`num_channels`
    /// define the PE and channel counts of the whole system.
    pub moms: MomsSystemConfig,
    /// DRAM channel timing.
    pub dram: DramConfig,
    /// Interval sizes `(Ns, Nd)`; `Nd` also sizes the PE destination BRAM.
    pub intervals: (u32, u32),
    /// Which cache arrays stay enabled.
    pub caches: CacheVariant,
    /// Synchronous/asynchronous iteration control.
    pub execution: ExecutionMode,
    /// Iteration cap override.
    pub max_iterations: Option<u32>,
    /// Per-PE microarchitecture template; `bram_nodes` is overridden with
    /// `Nd` by [`build`](RunConfig::build).
    pub pe: PeConfig,
    /// MOMS request-trace capacity (0 = no trace).
    pub moms_trace_cap: usize,
    /// Fault-injection profile for DRAM completions (default: none).
    pub fault: FaultConfig,
    /// No-progress watchdog threshold; `None` disables the watchdog.
    pub watchdog_cycles: Option<Cycle>,
    /// Event/counter tracing configuration (default: off).
    pub trace: TraceConfig,
    /// Tick only the components with work and jump over idle stretches
    /// (host-side speed only; results are bit-identical either way). See
    /// [`SystemConfig::idle_skip`].
    pub idle_skip: bool,
    /// Number of fabric devices; `1` means the plain single-`System` path.
    /// Consumed by [`Fabric::new`](crate::fabric::Fabric::new), ignored by
    /// [`build`](RunConfig::build).
    pub devices: usize,
    /// Inter-accelerator link network parameters (only meaningful when
    /// `devices > 1`).
    pub link: LinkConfig,
    /// Checkpoint/rollback recovery policy for fabric runs; `None`
    /// (default) surfaces watchdog trips as [`crate::FabricError`]s.
    pub recovery: Option<RecoveryConfig>,
    /// Host worker threads for the fabric compute phase: `0` (default)
    /// auto-sizes to `min(devices, cores)`, `1` forces the sequential
    /// path. Results are byte-identical for every value — this knob only
    /// changes host wall-clock time. Ignored by
    /// [`build`](RunConfig::build) (single-device runs are always
    /// single-threaded).
    pub sim_threads: usize,
}

impl RunConfig {
    /// A run configuration with default DRAM timing, full caches,
    /// algorithm-default execution, and no iteration cap.
    pub fn new(moms: MomsSystemConfig, intervals: (u32, u32)) -> Self {
        RunConfig {
            moms,
            dram: DramConfig::default(),
            intervals,
            caches: CacheVariant::Full,
            execution: ExecutionMode::AlgorithmDefault,
            max_iterations: None,
            pe: PeConfig::default(),
            moms_trace_cap: 0,
            fault: FaultConfig::none(),
            watchdog_cycles: Some(DEFAULT_WATCHDOG_CYCLES),
            trace: TraceConfig::default(),
            idle_skip: true,
            devices: 1,
            link: LinkConfig::default(),
            recovery: None,
            sim_threads: 0,
        }
    }

    /// Number of PEs.
    pub fn num_pes(&self) -> usize {
        self.moms.num_pes
    }

    /// Number of DRAM channels.
    pub fn num_channels(&self) -> usize {
        self.moms.num_channels
    }

    /// Lowers into the `(SystemConfig, Partitioner)` pair that
    /// [`System::new`](crate::System::new) consumes.
    ///
    /// Applies the [`CacheVariant`], sizes PE BRAM to the destination
    /// interval, and validates the result.
    ///
    /// # Panics
    ///
    /// Panics if any nested configuration is inconsistent or an interval
    /// size is zero.
    pub fn build(&self) -> (SystemConfig, Partitioner) {
        let (ns, nd) = self.intervals;
        assert!(ns > 0 && nd > 0, "interval sizes must be nonzero");
        let mut moms = self.moms.clone();
        match self.caches {
            CacheVariant::Full => {}
            CacheVariant::NoPrivate => moms.private = moms.private.without_cache(),
            CacheVariant::NoShared => moms.shared = moms.shared.without_cache(),
            CacheVariant::None => {
                moms.private = moms.private.without_cache();
                moms.shared = moms.shared.without_cache();
            }
        }
        let cfg = SystemConfig {
            dram: self.dram.clone(),
            moms,
            pe: PeConfig {
                bram_nodes: nd,
                ..self.pe.clone()
            },
            max_iterations: self.max_iterations,
            execution: self.execution,
            moms_trace_cap: self.moms_trace_cap,
            fault: self.fault,
            watchdog_cycles: self.watchdog_cycles,
            trace: self.trace,
            idle_skip: self.idle_skip,
        };
        cfg.validate();
        (cfg, Partitioner::new(ns, nd))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moms::{MomsConfig, Topology};

    fn small_moms() -> MomsSystemConfig {
        MomsSystemConfig::new(
            Topology::TwoLevel,
            2,
            2,
            4,
            MomsConfig::paper_shared_bank().scaled(1, 32),
            MomsConfig::paper_private_bank(true).scaled(1, 32),
        )
    }

    #[test]
    fn build_sizes_pe_bram_to_nd() {
        let rc = RunConfig::new(small_moms(), (512, 256));
        let (cfg, p) = rc.build();
        assert_eq!(cfg.pe.bram_nodes, 256);
        assert_eq!(p.ns(), 512);
        assert_eq!(p.nd(), 256);
    }

    #[test]
    fn cache_variants_strip_the_right_arrays() {
        let mut rc = RunConfig::new(small_moms(), (512, 256));
        rc.caches = CacheVariant::NoPrivate;
        let (cfg, _) = rc.build();
        assert!(cfg.moms.private.cache.is_none());
        assert!(cfg.moms.shared.cache.is_some());

        rc.caches = CacheVariant::NoShared;
        let (cfg, _) = rc.build();
        assert!(cfg.moms.private.cache.is_some());
        assert!(cfg.moms.shared.cache.is_none());

        rc.caches = CacheVariant::None;
        let (cfg, _) = rc.build();
        assert!(cfg.moms.private.cache.is_none());
        assert!(cfg.moms.shared.cache.is_none());
    }

    #[test]
    fn builder_settings_flow_through() {
        let mut rc = RunConfig::new(small_moms(), (512, 256));
        rc.max_iterations = Some(3);
        rc.execution = ExecutionMode::ForceSynchronous;
        rc.moms_trace_cap = 64;
        let (cfg, _) = rc.build();
        assert_eq!(cfg.max_iterations, Some(3));
        assert_eq!(cfg.execution, ExecutionMode::ForceSynchronous);
        assert_eq!(cfg.moms_trace_cap, 64);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_interval_rejected() {
        RunConfig::new(small_moms(), (0, 256)).build();
    }
}
