//! Social-network influence ranking — the workload the paper's
//! introduction motivates (Twitter-scale PageRank).
//!
//! Builds a scrambled power-law graph shaped like the paper's twitter_rv
//! stand-in, runs PageRank on three MOMS organisations, and shows why the
//! miss-optimized memory system wins: compare the DRAM line fetches and
//! throughput of the two-level MOMS against a traditional nonblocking
//! cache at the same cache capacity.
//!
//! ```text
//! cargo run --release -p bench --example social_influence
//! ```

use algos::Algorithm;
use bench::{run_graph_outcome, ArchPoint, EngineConfig, PointSpec, RunFailure};
use graph::benchmarks::BenchmarkId;
use graph::reorder::{self, Preprocess};

fn main() -> Result<(), RunFailure> {
    // twitter_rv stand-in at 1/16 of the default scale for a fast demo.
    let bench = BenchmarkId::Rv;
    let g = bench.build(16);
    println!(
        "{} stand-in: {} nodes, {} edges (paper original: 61.6M / 1.47B)",
        bench.name(),
        g.num_nodes(),
        g.num_edges()
    );

    // DBG + cache-line hashing preprocessing, as the paper defaults.
    let (g, times) = reorder::apply(&g, Preprocess::DbgHash, 16, 7);
    println!(
        "preprocessing: DBG {:.1} ms, hashing {:.1} ms, relabel {:.1} ms",
        times.dbg_s * 1e3,
        times.hashing_s * 1e3,
        times.relabel_s * 1e3
    );

    let algo = Algorithm::pagerank();
    println!(
        "\n{:<16} {:>10} {:>12} {:>14} {:>10}",
        "architecture", "GTEPS", "cycles", "DRAM lines", "hit rate"
    );
    for arch in [
        ArchPoint::two_level_16_16(), // the paper's headline design
        ArchPoint::ALL[2],            // private-only MOMS
        ArchPoint::ALL[6],            // traditional nonblocking cache
    ] {
        let mut point = PointSpec::new(bench, algo, arch, 4, 16);
        point.run.max_iterations = Some(2); // steady-state throughput
        let (row, _, _) = run_graph_outcome(&g, &point, &EngineConfig::default())?;
        println!(
            "{:<16} {:>10.3} {:>12} {:>14} {:>9.1}%",
            row.arch,
            row.gteps,
            row.cycles,
            row.moms_dram_lines,
            row.hit_rate * 100.0
        );
    }
    println!(
        "\nThe two-level MOMS coalesces repeated reads of hub nodes into few\n\
         DRAM fetches; the traditional cache stalls on its 16-entry MSHR file."
    );
    Ok(())
}
