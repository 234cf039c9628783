//! PE and system configuration.

use std::str::FromStr;

use dram::DramConfig;
use moms::{MomsConfig, MomsSystemConfig, Topology};
use simkit::{Cycle, FaultConfig, TraceConfig};

/// Default no-progress watchdog threshold in cycles: far above any real
/// quiet stretch (DRAM round trips are hundreds of cycles) yet cheap to
/// reach when something genuinely wedges.
pub const DEFAULT_WATCHDOG_CYCLES: Cycle = 2_000_000;

/// Microarchitectural parameters of one processing element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeConfig {
    /// Maximum destination nodes held in on-chip memory (the paper: 32,768
    /// per PE in URAM).
    pub bram_nodes: u32,
    /// Edge queue capacity in 32-bit words (the paper's DMA queue is
    /// 64 × 512 bits = 1,024 words).
    pub edge_queue_words: usize,
    /// Maximum outstanding edge bursts (tagged, may complete out of
    /// order).
    pub edge_tags: usize,
    /// Nodes initialised per cycle once data is available (§IV-C: "we
    /// write four node values per cycle").
    pub init_rate: u32,
    /// Nodes applied/written back per cycle.
    pub writeback_rate: u32,
    /// Free-ID queue / state-memory slots for the weighted-graph MOMS
    /// interface (the paper: 8,192 for SSSP).
    pub id_slots: usize,
    /// Maximum lines per DMA burst (32 beats of 64 B).
    pub max_burst_lines: u32,
}

impl Default for PeConfig {
    fn default() -> Self {
        PeConfig {
            bram_nodes: 32768,
            edge_queue_words: 1024,
            edge_tags: 4,
            init_rate: 4,
            writeback_rate: 4,
            id_slots: 8192,
            max_burst_lines: 32,
        }
    }
}

impl PeConfig {
    /// Validates parameters.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized resources.
    pub fn validate(&self) {
        assert!(self.bram_nodes > 0, "PE needs destination storage");
        assert!(self.edge_queue_words >= 64, "edge queue too small");
        assert!(self.edge_tags > 0, "at least one edge burst tag");
        assert!(self.init_rate > 0 && self.writeback_rate > 0);
        assert!(self.id_slots > 0, "weighted interface needs IDs");
        assert!(
            (1..=32).contains(&self.max_burst_lines),
            "bursts are 1..=32 beats"
        );
    }
}

/// How Template 1 iterations exchange node values (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Follow the algorithm's Table I setting (synchronous PageRank,
    /// asynchronous SCC/SSSP).
    #[default]
    AlgorithmDefault,
    /// Force double-buffered synchronous execution: reads see the previous
    /// iteration's values and `use_local_src` is disabled. For the
    /// monotone algorithms this reaches the same fixpoint in more
    /// iterations — the trade-off ForeGraph/FabGraph are locked into.
    ForceSynchronous,
}

impl ExecutionMode {
    /// Stable short name, parsed back by [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            ExecutionMode::AlgorithmDefault => "default",
            ExecutionMode::ForceSynchronous => "sync",
        }
    }
}

impl FromStr for ExecutionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [
            ExecutionMode::AlgorithmDefault,
            ExecutionMode::ForceSynchronous,
        ]
        .into_iter()
        .find(|e| e.name() == s)
        .ok_or_else(|| format!("unknown execution mode {s:?}"))
    }
}

/// Configuration of the full accelerator.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// DRAM channel timing.
    pub dram: DramConfig,
    /// MOMS topology and bank parameters; its `num_pes`/`num_channels`
    /// define the system's PE and channel counts.
    pub moms: MomsSystemConfig,
    /// Per-PE microarchitecture.
    pub pe: PeConfig,
    /// Overrides the algorithm's iteration bound when set (useful in
    /// tests).
    pub max_iterations: Option<u32>,
    /// Synchronous/asynchronous iteration control.
    pub execution: ExecutionMode,
    /// When nonzero, record up to this many accepted MOMS requests as a
    /// `(pe, line)` trace, returned in [`crate::RunResult::moms_trace`]
    /// for replay via `moms::harness::TraceRun::execute_tagged`.
    pub moms_trace_cap: usize,
    /// Fault-injection profile applied to DRAM completions (default: no
    /// faults, injector fully bypassed).
    pub fault: FaultConfig,
    /// No-progress watchdog threshold; `None` disables the watchdog.
    pub watchdog_cycles: Option<Cycle>,
    /// Observability layer: event/counter tracing (default: off, every
    /// hook is a dead branch).
    pub trace: TraceConfig,
    /// Tick only the PEs and MOMS parts that have work, and jump the clock
    /// over cycles in which nothing does (host-side optimisation only —
    /// simulated cycles, statistics, metrics and traces are bit-identical
    /// either way; `tests/determinism.rs` holds that line). Disable for the
    /// reference path: every PE and MOMS part ticked every cycle.
    pub idle_skip: bool,
}

impl SystemConfig {
    /// A small configuration for unit tests and examples: 2 PEs, 2
    /// channels, a two-level MOMS with scaled-down banks.
    pub fn small() -> Self {
        SystemConfig {
            dram: DramConfig::default(),
            moms: MomsSystemConfig::new(
                Topology::TwoLevel,
                2,
                2,
                4,
                MomsConfig::paper_shared_bank().scaled(1, 32),
                MomsConfig::paper_private_bank(false).scaled(1, 32),
            ),
            pe: PeConfig {
                bram_nodes: 1024,
                ..PeConfig::default()
            },
            max_iterations: None,
            execution: ExecutionMode::AlgorithmDefault,
            moms_trace_cap: 0,
            fault: FaultConfig::none(),
            watchdog_cycles: Some(DEFAULT_WATCHDOG_CYCLES),
            trace: TraceConfig::default(),
            idle_skip: true,
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

    /// Validates all nested configurations.
    ///
    /// # Panics
    ///
    /// Panics when any sub-configuration is inconsistent.
    pub fn validate(&self) {
        self.pe.validate();
        self.moms.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        PeConfig::default().validate();
        SystemConfig::small().validate();
    }

    #[test]
    fn small_config_is_two_by_two() {
        let c = SystemConfig::small();
        assert_eq!(c.num_pes(), 2);
        assert_eq!(c.num_channels(), 2);
    }

    #[test]
    #[should_panic(expected = "bursts")]
    fn oversized_burst_rejected() {
        let c = PeConfig {
            max_burst_lines: 64,
            ..PeConfig::default()
        };
        c.validate();
    }
}
