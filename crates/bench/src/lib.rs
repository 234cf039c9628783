//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section on the scaled benchmark suite.
//!
//! Each experiment module renders a text report shaped like the paper's
//! table/figure (same rows/series); the `repro` binary dispatches to them.
//! See EXPERIMENTS.md at the repository root for the recorded
//! paper-vs-measured comparison.

pub mod arch;
pub mod cli;
pub mod engine;
pub mod experiments;
pub mod explain;
pub mod fuzz;
pub mod microbench;
pub mod perf;
pub mod runner;

pub use arch::ArchPoint;
pub use engine::{EngineConfig, Outcome, PointResult, PointSpec};
pub use perf::PerfPoint;
pub use runner::{
    prepare_graph, run_graph, run_graph_outcome, CacheVariant, Row, RunFailure, RunSpec,
};

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }
}
