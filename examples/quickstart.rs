//! Quickstart: run PageRank on a synthetic RMAT graph through the
//! simulated accelerator and check the result against the golden
//! reference.
//!
//! ```text
//! cargo run --release -p bench --example quickstart
//! ```

use accel::{RunError, System, SystemConfig};
use algos::{golden, Algorithm};
use graph::{GraphSpec, Partitioner};

fn main() -> Result<(), RunError> {
    // 1. A small power-law graph: 2^12 nodes, average degree 8.
    let g = GraphSpec::rmat(12, 8).build(42);
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // 2. Run 10 PageRank iterations on the simulated accelerator
    //    (two-level MOMS, 2 PEs, 2 DDR channels — the small test config).
    let algo = Algorithm::pagerank();
    let mut sys = System::new(
        &g,
        Partitioner::new(1024, 1024),
        algo,
        SystemConfig::small(),
    );
    let result = sys.run_to_outcome(None)?;

    println!(
        "simulated {} cycles over {} iterations ({:.3} edges/cycle, {:.3} GTEPS at 200 MHz)",
        result.cycles,
        result.iterations,
        result.edges_per_cycle(),
        result.gteps(200.0)
    );
    println!(
        "MOMS cache hit rate: {:.1}%  |  DRAM lines fetched for sources: {}",
        result.cache_hit_rate * 100.0,
        result.stats.get("dram_line_requests")
    );

    // 3. Validate against the golden software executor.
    let want = golden::run(&algo, &g);
    match golden::pagerank_mismatch(&result.values, &want, 1e-3) {
        None => println!("validation: simulated PageRank matches the reference ✓"),
        Some(i) => println!("validation FAILED at node {i}"),
    }

    // 4. Show the top-5 ranked nodes.
    let mut ranked: Vec<(u32, f32)> = result
        .values
        .iter()
        .enumerate()
        .map(|(i, &bits)| (i as u32, f32::from_bits(bits)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top nodes by PageRank:");
    for (node, score) in ranked.into_iter().take(5) {
        println!("  node {node:>6}: {score:.6}");
    }
    Ok(())
}
