//! Trace-driven evaluation harness for MOMS configurations.
//!
//! Drives a [`MomsSystem`] with a synthetic or recorded request trace
//! against a [`MemorySystem`], without building the full accelerator —
//! the fastest way to study the memory system in isolation (bank
//! geometry ablations, topology comparisons, Fig. 12-style sweeps).
//!
//! # Example
//!
//! ```
//! use moms::harness::{shard_trace, TraceRun};
//! use moms::{MomsConfig, MomsSystemConfig, Topology};
//!
//! let cfg = MomsSystemConfig::paper_two_level_16_16();
//! let trace = shard_trace(5_000, 128, 1_000, 2, 42);
//! let run = TraceRun::new(cfg).execute(&trace);
//! assert_eq!(run.responses, 5_000);
//! assert!(run.cycles > 0);
//! ```

use dram::{DramConfig, MemorySystem};
use simkit::{SplitMix64, Stats};

use crate::bank::MomsReq;
use crate::system::{MomsSystem, MomsSystemConfig};

/// A request trace: line addresses, distributed round-robin over the PEs.
pub type Trace = Vec<u64>;

/// Generates a shard-shaped trace: accesses stay within a window of
/// `window_lines` cache lines (one source interval) for `window_len`
/// requests, then move to the next window, with a power-law skew of
/// exponent `skew` inside each window — the pattern interval-partitioned
/// edge streaming produces (§III-A).
pub fn shard_trace(
    count: usize,
    window_lines: u64,
    window_len: usize,
    skew: i32,
    seed: u64,
) -> Trace {
    assert!(
        window_lines > 0 && window_len > 0,
        "degenerate trace window"
    );
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|i| {
            let base = (i / window_len) as u64 * window_lines;
            let u = rng.next_f64().powi(skew);
            base + ((u * window_lines as f64) as u64).min(window_lines - 1)
        })
        .collect()
}

/// Generates a uniform random trace over `lines` distinct lines (the
/// no-locality worst case).
pub fn uniform_trace(count: usize, lines: u64, seed: u64) -> Trace {
    assert!(lines > 0, "at least one line");
    let mut rng = SplitMix64::new(seed);
    (0..count).map(|_| rng.next_below(lines)).collect()
}

/// Result of replaying a trace.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// Cycles until the last response returned.
    pub cycles: u64,
    /// Responses received (equals the trace length on success).
    pub responses: usize,
    /// Aggregated MOMS statistics.
    pub stats: Stats,
}

impl TraceResult {
    /// Sustained throughput in requests per cycle.
    pub fn requests_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.responses as f64 / self.cycles as f64
        }
    }

    /// DRAM lines fetched per request — the traffic-amplification metric
    /// of Fig. 1 (below 1.0 means coalescing/caching wins).
    pub fn lines_per_request(&self) -> f64 {
        if self.responses == 0 {
            0.0
        } else {
            self.stats.get("dram_line_requests") as f64 / self.responses as f64
        }
    }
}

/// A configured replay: MOMS system plus DRAM timing.
#[derive(Debug, Clone)]
pub struct TraceRun {
    moms: MomsSystemConfig,
    dram: DramConfig,
    /// Abort threshold in cycles (defaults to 50 M).
    pub max_cycles: u64,
}

impl TraceRun {
    /// Creates a replay with default DRAM timing.
    pub fn new(moms: MomsSystemConfig) -> Self {
        TraceRun {
            moms,
            dram: DramConfig::default(),
            max_cycles: 50_000_000,
        }
    }

    /// Replays a tagged `(pe, line)` trace — e.g. one recorded from a real
    /// accelerator run via [`MomsSystem::enable_trace`] — preserving each
    /// request's original PE.
    ///
    /// PEs whose index exceeds this configuration's `num_pes` are wrapped
    /// (so a 16-PE recording can replay on an 8-PE configuration).
    ///
    /// # Panics
    ///
    /// Panics if the system fails to drain within `max_cycles`.
    pub fn execute_tagged(&self, trace: &[(u16, u64)]) -> TraceResult {
        let pes = self.moms.num_pes;
        let mut sys = MomsSystem::new(self.moms.clone());
        let mut mem = MemorySystem::new(self.dram.clone(), self.moms.num_channels);
        let mut per_pe: Vec<std::collections::VecDeque<u64>> = vec![Default::default(); pes];
        for &(pe, line) in trace {
            per_pe[pe as usize % pes].push_back(line);
        }
        let mut received = 0usize;
        let mut now = 0u64;
        while received < trace.len() {
            for (p, q) in per_pe.iter_mut().enumerate() {
                if let Some(&line) = q.front() {
                    let ok = sys.try_request(
                        p,
                        MomsReq {
                            line,
                            word: (line % 16) as u8,
                            id: (received % 65536) as u32,
                        },
                    );
                    if ok {
                        q.pop_front();
                    }
                }
            }
            sys.tick(now, &mut mem);
            mem.tick(now);
            for ch in 0..mem.num_channels() {
                while let Some(r) = mem.pop_response(now, ch) {
                    sys.dram_response(r.id, r.lines);
                }
            }
            for p in 0..pes {
                while sys.pop_response(p).is_some() {
                    received += 1;
                }
            }
            now += 1;
            assert!(
                now < self.max_cycles,
                "tagged trace did not drain: {received}/{}",
                trace.len()
            );
        }
        TraceResult {
            cycles: now,
            responses: received,
            stats: sys.stats(),
        }
    }

    /// Replays `trace`, one request per PE per cycle (round-robin split),
    /// until every response returns.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to drain within `max_cycles` (a
    /// deadlock in the configuration under test).
    pub fn execute(&self, trace: &Trace) -> TraceResult {
        let pes = self.moms.num_pes;
        let mut sys = MomsSystem::new(self.moms.clone());
        let mut mem = MemorySystem::new(self.dram.clone(), self.moms.num_channels);
        let per_pe: Vec<Vec<u64>> = (0..pes)
            .map(|p| trace.iter().skip(p).step_by(pes).copied().collect())
            .collect();
        let mut next = vec![0usize; pes];
        let mut received = 0usize;
        let mut now = 0u64;
        while received < trace.len() {
            for p in 0..pes {
                if next[p] < per_pe[p].len() {
                    let line = per_pe[p][next[p]];
                    let ok = sys.try_request(
                        p,
                        MomsReq {
                            line,
                            word: (line % 16) as u8,
                            id: (next[p] % 65536) as u32,
                        },
                    );
                    if ok {
                        next[p] += 1;
                    }
                }
            }
            sys.tick(now, &mut mem);
            mem.tick(now);
            for ch in 0..mem.num_channels() {
                while let Some(r) = mem.pop_response(now, ch) {
                    debug_assert!(MomsSystem::owns_dram_id(r.id));
                    sys.dram_response(r.id, r.lines);
                }
            }
            for p in 0..pes {
                while sys.pop_response(p).is_some() {
                    received += 1;
                }
            }
            now += 1;
            assert!(
                now < self.max_cycles,
                "trace did not drain: {received}/{} after {now} cycles",
                trace.len()
            );
        }
        TraceResult {
            cycles: now,
            responses: received,
            stats: sys.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MomsConfig;
    use crate::system::Topology;

    fn small(topology: Topology) -> MomsSystemConfig {
        MomsSystemConfig::new(
            topology,
            2,
            2,
            4,
            MomsConfig::paper_shared_bank()
                .scaled(1, 64)
                .without_cache(),
            MomsConfig::paper_private_bank(false).scaled(1, 64),
        )
    }

    #[test]
    fn every_request_gets_a_response() {
        for topo in [Topology::Shared, Topology::Private, Topology::TwoLevel] {
            let trace = shard_trace(3_000, 64, 500, 2, 9);
            let run = TraceRun::new(small(topo)).execute(&trace);
            assert_eq!(run.responses, 3_000, "{topo:?}");
            assert!(run.requests_per_cycle() > 0.0);
        }
    }

    #[test]
    fn skewed_traces_coalesce_better_than_uniform() {
        let n = 10_000;
        let hot = shard_trace(n, 64, 2_000, 4, 3);
        let cold = uniform_trace(n, 1 << 16, 3);
        let cfg = small(Topology::TwoLevel);
        let r_hot = TraceRun::new(cfg.clone()).execute(&hot);
        let r_cold = TraceRun::new(cfg).execute(&cold);
        assert!(
            r_hot.lines_per_request() < r_cold.lines_per_request() / 2.0,
            "hot {} vs cold {}",
            r_hot.lines_per_request(),
            r_cold.lines_per_request()
        );
    }

    #[test]
    fn traces_are_deterministic() {
        assert_eq!(
            shard_trace(100, 32, 10, 2, 5),
            shard_trace(100, 32, 10, 2, 5)
        );
        assert_ne!(
            shard_trace(100, 32, 10, 2, 5),
            shard_trace(100, 32, 10, 2, 6)
        );
        assert!(uniform_trace(100, 8, 1).iter().all(|&l| l < 8));
    }
}
