//! Bridge from the conformance fuzzer's case grammar to the accelerator
//! configuration: one value type holding every architecture and fabric
//! knob a `FuzzCase` samples, lowered to a [`Driver`]/[`RunConfig`].
//!
//! The fuzzer itself (case sampling, oracle stack, shrinking, corpus
//! I/O) lives in the bench crate; this module owns the part that needs
//! accel internals — knob application and the stable short names each
//! knob serializes under in the corpus format.

use graph::CooGraph;
use moms::Topology;

use crate::config::ExecutionMode;
use crate::driver::Driver;
use crate::fabric::LinkTopology;
use crate::run_config::{CacheVariant, RunConfig};
use simkit::Cycle;

/// Every architecture + fabric knob a fuzz case can vary, with defaults
/// matching [`Driver::new`].
///
/// The graph, algorithm, and fault schedule are *not* here — they belong
/// to the fuzzer's case grammar above this crate. A `FuzzTarget` is the
/// part a case lowers onto the accelerator via [`driver`](Self::driver)
/// or [`run_config`](Self::run_config).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzTarget {
    /// Processing elements per device.
    pub pes: usize,
    /// DRAM channels per device.
    pub channels: usize,
    /// MOMS cache topology.
    pub topology: Topology,
    /// Which cache arrays are enabled.
    pub caches: CacheVariant,
    /// Execution mode (algorithm default or forced synchronous).
    pub execution: ExecutionMode,
    /// Destination-interval override (`None` = driver auto-sizing).
    pub nd: Option<u32>,
    /// Device count (1 = single `System`, >1 = fabric).
    pub devices: usize,
    /// Inter-device link topology.
    pub link_topology: LinkTopology,
    /// Link serialization bandwidth in words per cycle.
    pub link_bandwidth: u32,
    /// Per-hop link latency in cycles.
    pub link_latency: Cycle,
    /// Initial retransmission timeout override (`None` = default).
    pub link_rto: Option<Cycle>,
    /// Checkpoint every N barriers (0 = recovery off).
    pub checkpoint_interval: u32,
    /// Host worker threads for the fabric compute phase.
    pub sim_threads: usize,
}

impl Default for FuzzTarget {
    fn default() -> Self {
        let link = crate::fabric::LinkConfig::default();
        FuzzTarget {
            pes: 4,
            channels: 2,
            topology: Topology::TwoLevel,
            caches: CacheVariant::Full,
            execution: ExecutionMode::AlgorithmDefault,
            nd: None,
            devices: 1,
            link_topology: link.topology,
            link_bandwidth: link.bandwidth_words_per_cycle,
            link_latency: link.latency,
            link_rto: None,
            checkpoint_interval: 0,
            sim_threads: 1,
        }
    }
}

impl FuzzTarget {
    /// Lowers every knob onto a [`Driver`].
    pub fn driver(&self) -> Driver {
        let mut d = Driver::new()
            .pes(self.pes)
            .channels(self.channels)
            .topology(self.topology)
            .execution(self.execution)
            .devices(self.devices)
            .link_topology(self.link_topology)
            .link_bandwidth(self.link_bandwidth)
            .link_latency(self.link_latency)
            .checkpoint_interval(self.checkpoint_interval)
            .sim_threads(self.sim_threads);
        if let Some(nd) = self.nd {
            d = d.destination_interval(nd);
        }
        if let Some(rto) = self.link_rto {
            d = d.link_retry(rto);
        }
        d
    }

    /// Lowers onto a [`RunConfig`] for `g`, including the cache-variant
    /// knob the driver builder does not expose directly.
    pub fn run_config(&self, g: &CooGraph) -> RunConfig {
        let mut rc = self.driver().run_config(g);
        rc.caches = self.caches;
        rc
    }
}

/// Stable short name for a MOMS topology in the corpus format.
pub fn topology_tag(t: Topology) -> &'static str {
    t.name() // "shared" | "private" | "two-level": already corpus-safe
}

/// Parses a [`topology_tag`] back.
pub fn parse_topology(s: &str) -> Result<Topology, String> {
    match s {
        "shared" => Ok(Topology::Shared),
        "private" => Ok(Topology::Private),
        "two-level" => Ok(Topology::TwoLevel),
        other => Err(format!("unknown MOMS topology {other:?}")),
    }
}

/// Stable short name for a cache variant in the corpus format (the
/// display names in [`CacheVariant::name`] contain spaces).
pub fn cache_tag(c: CacheVariant) -> &'static str {
    match c {
        CacheVariant::Full => "full",
        CacheVariant::NoPrivate => "no-private",
        CacheVariant::NoShared => "no-shared",
        CacheVariant::None => "none",
    }
}

/// Parses a [`cache_tag`] back.
pub fn parse_cache(s: &str) -> Result<CacheVariant, String> {
    match s {
        "full" => Ok(CacheVariant::Full),
        "no-private" => Ok(CacheVariant::NoPrivate),
        "no-shared" => Ok(CacheVariant::NoShared),
        "none" => Ok(CacheVariant::None),
        other => Err(format!("unknown cache variant {other:?}")),
    }
}

/// Stable short name for an execution mode in the corpus format.
pub fn execution_tag(e: ExecutionMode) -> &'static str {
    e.name() // "default" | "sync": already corpus-safe
}

/// Parses an [`execution_tag`] back.
pub fn parse_execution(s: &str) -> Result<ExecutionMode, String> {
    match s {
        "default" => Ok(ExecutionMode::AlgorithmDefault),
        "sync" => Ok(ExecutionMode::ForceSynchronous),
        other => Err(format!("unknown execution mode {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algos::{golden, Algorithm};
    use graph::GraphSpec;

    #[test]
    fn default_target_matches_default_driver() {
        let g = GraphSpec::rmat(6, 4).build(3);
        let a = FuzzTarget::default().run_config(&g);
        let b = Driver::new().sim_threads(1).run_config(&g);
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.caches, b.caches);
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.link, b.link);
        assert_eq!(a.sim_threads, b.sim_threads);
    }

    #[test]
    fn knobs_flow_through_to_the_run_config() {
        let g = GraphSpec::rmat(6, 4).build(3);
        let t = FuzzTarget {
            pes: 2,
            channels: 1,
            topology: Topology::Shared,
            caches: CacheVariant::NoShared,
            execution: ExecutionMode::ForceSynchronous,
            nd: Some(128),
            devices: 4,
            link_topology: LinkTopology::Ring,
            link_bandwidth: 1,
            link_latency: 96,
            link_rto: Some(777),
            checkpoint_interval: 2,
            sim_threads: 2,
        };
        let rc = t.run_config(&g);
        assert_eq!(rc.moms.num_pes, 2);
        assert_eq!(rc.moms.num_channels, 1);
        assert_eq!(rc.moms.topology, Topology::Shared);
        assert_eq!(rc.caches, CacheVariant::NoShared);
        assert_eq!(rc.execution, ExecutionMode::ForceSynchronous);
        assert_eq!(rc.intervals.1, 128);
        assert_eq!(rc.devices, 4);
        assert_eq!(rc.link.topology, LinkTopology::Ring);
        assert_eq!(rc.link.bandwidth_words_per_cycle, 1);
        assert_eq!(rc.link.latency, 96);
        assert_eq!(rc.link.retry.rto, 777);
        assert_eq!(rc.recovery.unwrap().checkpoint_interval, 2);
        assert_eq!(rc.sim_threads, 2);
    }

    #[test]
    fn a_sampled_target_still_computes_correct_results() {
        let g = GraphSpec::rmat(7, 4).build(11);
        let t = FuzzTarget {
            pes: 2,
            devices: 2,
            link_topology: LinkTopology::Ring,
            ..FuzzTarget::default()
        };
        let algo = Algorithm::bfs(0);
        let r = crate::fabric::Fabric::new(&g, algo, &t.run_config(&g))
            .run_to_outcome(None)
            .unwrap();
        assert_eq!(r.values, golden::run(&algo, &g));
    }

    #[test]
    fn tags_roundtrip() {
        for t in [Topology::Shared, Topology::Private, Topology::TwoLevel] {
            assert_eq!(parse_topology(topology_tag(t)).unwrap(), t);
        }
        for c in [
            CacheVariant::Full,
            CacheVariant::NoPrivate,
            CacheVariant::NoShared,
            CacheVariant::None,
        ] {
            assert_eq!(parse_cache(cache_tag(c)).unwrap(), c);
        }
        for e in [
            ExecutionMode::AlgorithmDefault,
            ExecutionMode::ForceSynchronous,
        ] {
            assert_eq!(parse_execution(execution_tag(e)).unwrap(), e);
        }
        assert!(parse_topology("mesh").is_err());
        assert!(parse_cache("half").is_err());
        assert!(parse_execution("async").is_err());
    }
}
