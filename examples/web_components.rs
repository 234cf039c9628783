//! Web-graph component analysis — SCC-style label propagation on a
//! clustered crawl, plus the effect of node reordering.
//!
//! Web crawls (uk-2005 and friends) keep tightly connected pages close in
//! label space; the paper's cache-line hashing balances work across
//! destination intervals *without* destroying that locality, unlike the
//! per-node modulo hashing of ForeGraph/FabGraph. This example measures
//! label-propagation throughput under each preprocessing variant and
//! reports the component structure it finds.
//!
//! ```text
//! cargo run --release -p bench --example web_components
//! ```

use std::collections::HashMap;

use algos::{golden, Algorithm};
use bench::{run_graph_outcome, ArchPoint, EngineConfig, PointSpec, RunFailure};
use graph::benchmarks::BenchmarkId;
use graph::reorder::{self, Preprocess};

fn main() -> Result<(), RunFailure> {
    // uk-2005 stand-in, shrunk for a fast demo.
    let bench = BenchmarkId::Uk;
    let base = bench.build(16);
    println!(
        "{} stand-in: {} nodes, {} edges, clustered labeling",
        bench.name(),
        base.num_nodes(),
        base.num_edges()
    );

    let algo = Algorithm::Scc;
    println!(
        "\n{:<10} {:>10} {:>12} {:>14}",
        "preproc", "GTEPS", "cycles", "DRAM lines"
    );
    for pre in Preprocess::ALL {
        let (g, _) = reorder::apply(&base, pre, 16, 7);
        let mut point = PointSpec::new(bench, algo, ArchPoint::two_level_16_16(), 4, 16);
        point.pre = pre;
        let (row, _, _) = run_graph_outcome(&g, &point, &EngineConfig::default())?;
        println!(
            "{:<10} {:>10.3} {:>12} {:>14}",
            pre.name(),
            row.gteps,
            row.cycles,
            row.moms_dram_lines
        );
    }

    // Component census from the golden executor (same values the
    // accelerator produces, shown by the integration tests).
    let labels = golden::run(&algo, &base);
    let mut sizes: HashMap<u32, u64> = HashMap::new();
    for &l in &labels {
        *sizes.entry(l).or_insert(0) += 1;
    }
    let mut by_size: Vec<(u32, u64)> = sizes.into_iter().collect();
    by_size.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    println!("\n{} label-components; largest:", by_size.len());
    for (label, count) in by_size.into_iter().take(5) {
        println!("  label {label:>8}: {count} nodes");
    }
    Ok(())
}
