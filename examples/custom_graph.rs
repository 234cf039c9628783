//! Bring your own graph: load a SNAP/KONECT-style edge list (or generate
//! a synthetic one), and run any algorithm through the high-level
//! [`accel::Driver`].
//!
//! ```text
//! cargo run --release -p bench --example custom_graph [edge_list.txt]
//! ```
//!
//! The optional argument is a text file with one `src dst [weight]` pair
//! per line (`#`/`%` comments allowed). Without it, a power-law graph is
//! generated.

use accel::{Driver, RunError};
use algos::{golden, Algorithm};
use graph::{CooGraph, GraphSpec};

fn load_graph() -> CooGraph {
    match std::env::args().nth(1) {
        Some(path) => {
            let file =
                std::fs::File::open(&path).unwrap_or_else(|e| panic!("cannot open {path}: {e}"));
            let g = graph::io::read_edge_list(file)
                .unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
            println!("loaded {path}");
            g
        }
        None => {
            println!("no file given; generating a power-law community graph");
            GraphSpec::power_law_cluster(20_000, 200_000, 2.0, 0.6, 256, false).build(7)
        }
    }
}

fn main() -> Result<(), RunError> {
    let g = load_graph();
    println!("graph: {} nodes, {} edges", g.num_nodes(), g.num_edges());

    // Connected-component style labels via min-label propagation on the
    // symmetrised graph.
    let sym = g.symmetrized();
    let driver = Driver::new().pes(8).channels(4);
    let result = driver.run(&sym, Algorithm::Wcc)?;
    assert_eq!(
        result.values,
        golden::run(&Algorithm::Wcc, &sym),
        "simulation must agree with the reference"
    );

    let mut labels = result.values.clone();
    labels.sort_unstable();
    labels.dedup();
    println!(
        "weakly connected components: {} (largest label {})",
        labels.len(),
        labels.last().copied().unwrap_or(0)
    );
    println!(
        "simulated {} cycles over {} iterations; {:.3} GTEPS at 200 MHz",
        result.cycles,
        result.iterations,
        result.gteps_at(200.0)
    );

    // And a PageRank pass on the directed graph.
    let pr = driver.run(&g, Algorithm::pagerank())?;
    let mut top: Vec<(usize, f32)> = pr
        .values
        .iter()
        .enumerate()
        .map(|(i, &b)| (i, f32::from_bits(b)))
        .collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("top-3 PageRank nodes:");
    for (node, score) in top.into_iter().take(3) {
        println!("  node {node:>8}: {score:.6}");
    }
    Ok(())
}
