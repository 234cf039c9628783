//! The metric registry — the one place every metric is declared — and the
//! order statistics the benchmark reports.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units,
//! directions and bounds; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed in every output.
    pub name: &'static str,
    /// Unit as printed in every output.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// median may worsen before it counts as a regression. `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
    /// Layer the metric measures.
    pub layer: &'static str,
    /// Which end-to-end metric this metric should move, on which
    /// workload.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "end-to-end",
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload from untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    e2e("sim_cycles_per_s", "cycles/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_heap_mib", "MiB", Lower, 0.02),
];

const SCC_RUN: &str = "sim_cycles_per_s on clustered-scc and scrambled-scc";
const SETUP: &str = "setup_s on paperscale-setup";
const MISS_VS_HIT: &str =
    "sim_cycles_per_s on scrambled-scc (miss path) vs clustered-scc (hit path)";
const PE_IDLE: &str = "sim_cycles_per_s on the workload with the largest pe.idle_share";
const FABRIC: &str = "sim_cycles_per_s on fabric-bfs4";
const SERVE: &str = "sim_cycles_per_s on serve-overload";
const MODEL: &str = "none: a simulated result; a host-speed change must leave it unchanged";

/// Per-layer metrics, reported by every workload from its traced run. A
/// layer a workload never calls reports 0.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    layer("graph.build_s", "s", Lower, "graph", SETUP),
    layer("graph.reorder_s", "s", Lower, "graph", SETUP),
    layer("accel.system_new_s", "s", Lower, "accel.system", SETUP),
    layer(
        "accel.system_new_heap_mib",
        "MiB",
        Lower,
        "accel.system",
        "setup_s and peak_heap_mib on paperscale-setup",
    ),
    layer("accel.begin_iteration_s", "s", Lower, "accel.system", SCC_RUN),
    layer("accel.step_iteration_s", "s", Lower, "accel.system", SCC_RUN),
    layer("accel.step_ns_per_cycle", "ns/cycle", Lower, "accel.system", SCC_RUN),
    layer("accel.step_allocs", "count", Lower, "accel.system", SCC_RUN),
    layer("accel.skip_ratio", "ratio", Higher, "accel.system", SCC_RUN),
    layer("accel.sim_cycles", "cycles", Lower, "accel.system", MODEL),
    layer("accel.iterations", "count", Lower, "accel.system", MODEL),
    layer("accel.edges", "count", Lower, "accel.system", MODEL),
    layer("sim_edges_per_cycle", "edges/cycle", Higher, "accel.system", MODEL),
    layer("pe.idle_share", "share", Lower, "accel.pe", PE_IDLE),
    layer("pe.productive_share", "share", Higher, "accel.pe", PE_IDLE),
    layer("pe.moms_wait_share", "share", Lower, "accel.pe", PE_IDLE),
    layer("pe.dram_wait_share", "share", Lower, "accel.pe", PE_IDLE),
    layer("pe.fetch_ptrs_share", "share", Lower, "accel.pe", PE_IDLE),
    layer("pe.backpressure_share", "share", Lower, "accel.pe", PE_IDLE),
    layer("moms.hit_rate", "share", Higher, "moms", MISS_VS_HIT),
    layer("moms.dram_lines", "count", Lower, "moms", MISS_VS_HIT),
    layer("moms.peak_outstanding_misses", "count", Higher, "moms", MISS_VS_HIT),
    layer("moms.tick_ns", "ns", Lower, "moms", MISS_VS_HIT),
    layer("dram.tick_ns", "ns", Lower, "dram", MISS_VS_HIT),
    layer("dram.lines", "count", Lower, "dram", MISS_VS_HIT),
    layer("fabric.new_s", "s", Lower, "accel.fabric", "setup_s on fabric-bfs4"),
    layer("fabric.run_s", "s", Lower, "accel.fabric", FABRIC),
    layer("fabric.thread_speedup", "ratio", Higher, "simkit.epoch", FABRIC),
    layer("fabric.link_wait_share", "share", Lower, "accel.fabric", FABRIC),
    layer("fabric.exchange_share", "share", Lower, "accel.fabric", FABRIC),
    layer("fabric.messages", "count", Lower, "accel.fabric", FABRIC),
    layer("fabric.updates", "count", Lower, "accel.fabric", FABRIC),
    layer("serve.calibrate_s", "s", Lower, "serve", "setup_s on serve-overload"),
    layer("serve.schedule_s", "s", Lower, "serve", SERVE),
    layer("serve.host_ns_per_busy_cycle", "ns/cycle", Lower, "serve", SERVE),
    layer("serve.preemptions", "count", Lower, "serve", SERVE),
    layer("serve.resumes", "count", Lower, "serve", SERVE),
    layer("serve.co_batched", "count", Higher, "serve", SERVE),
    layer("serve.shed", "count", Lower, "serve", SERVE),
    layer("serve.completed", "count", Higher, "serve", SERVE),
    layer("serve_p99_cycles", "cycles", Lower, "serve", MODEL),
    layer("serve_goodput_per_mcycle", "1/Mcycle", Higher, "serve", MODEL),
    layer("algos.golden_s", "s", Lower, "algos", "none: the oracle runs outside the timed phase"),
    layer(
        "bench.tracing_overhead",
        "ratio",
        Lower,
        "bench",
        "none: untraced over traced sim_cycles_per_s",
    ),
    layer(
        "bench.trace_coverage",
        "share",
        Higher,
        "bench",
        "none: share of traced wall time inside layer spans",
    ),
];

/// Median and quartiles of a sample set, with quartiles computed like
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty. One sample gives equal
    /// quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Some(Summary {
                n,
                q1: v[0],
                median,
                q3: v[0],
            });
        }
        let m = n + 1;
        let cut = |i: usize| {
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Summary {
            n,
            q1: cut(1),
            median,
            q3: cut(3),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// `true` when `s` is a legal metric or workload name: a letter or digit
    /// first, then at most 63 more letters, digits, `_`, `.` or `-`.
    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `true` when `s` is a legal unit.
    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_are_legal() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(!m.layer.is_empty());
        }
        for w in Workload::ALL {
            assert!(
                valid_name(w.name()) && seen.insert(w.name()),
                "{}",
                w.name()
            );
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(m.bound.is_none() && !m.moves.is_empty(), "{}", m.name);
        }
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in END_TO_END.iter().filter(|m| m.name != "setup_s") {
            assert!(m.bound <= setup.bound, "{}", m.name);
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn name_rules() {
        assert!(valid_name("accel.step_ns_per_cycle"));
        assert!(valid_name("fabric-bfs4"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("cycles/s"));
        assert!(!valid_unit("cycles per s"));
    }
}
