//! Shortest-path routing — SSSP over a weighted road-style network.
//!
//! Roads are nearly planar: a grid with a sprinkle of highway shortcuts.
//! This exercises the weighted MOMS interface (free-ID queue + state
//! memory, Fig. 10a) and the convergence-driven `active_srcs` machinery
//! (most intervals go inactive after a few iterations). The simulated
//! distances are verified against Dijkstra.
//!
//! ```text
//! cargo run --release -p bench --example road_routing
//! ```

use accel::{RunError, System, SystemConfig};
use algos::{golden, Algorithm};
use graph::{CooGraph, Partitioner};

/// Builds a `side × side` grid with bidirectional streets and a few
/// random highways.
fn road_network(side: u32, seed: u64) -> CooGraph {
    let n = side * side;
    let mut rng = simkit::SplitMix64::new(seed);
    let mut edges = Vec::new();
    let mut weights = Vec::new();
    let mut add = |a: u32, b: u32, w: u32| {
        edges.push((a, b));
        weights.push(w);
        edges.push((b, a));
        weights.push(w);
    };
    for y in 0..side {
        for x in 0..side {
            let i = y * side + x;
            if x + 1 < side {
                add(i, i + 1, 1 + rng.next_below(9) as u32);
            }
            if y + 1 < side {
                add(i, i + side, 1 + rng.next_below(9) as u32);
            }
        }
    }
    // Highways: long-range cheap connections.
    for _ in 0..(n / 64).max(4) {
        let a = rng.next_below(n as u64) as u32;
        let b = rng.next_below(n as u64) as u32;
        if a != b {
            add(a, b, 2);
        }
    }
    CooGraph::from_weighted_edges(n, edges, weights)
}

fn main() -> Result<(), RunError> {
    let side = 64u32;
    let g = road_network(side, 1234);
    println!(
        "road network: {}x{} grid, {} nodes, {} directed edges",
        side,
        side,
        g.num_nodes(),
        g.num_edges()
    );

    let source = 0u32;
    let algo = Algorithm::sssp(source);
    let mut sys = System::new(
        &g,
        Partitioner::new(1024, 1024),
        algo,
        SystemConfig::small(),
    );
    let result = sys.run_to_outcome(None)?;

    println!(
        "converged after {} iterations, {} cycles, {:.3} edges/cycle",
        result.iterations,
        result.cycles,
        result.edges_per_cycle()
    );

    // Validate against Dijkstra.
    let want = golden::dijkstra(&g, source);
    assert_eq!(result.values, want, "accelerated SSSP must match Dijkstra");
    println!("validation: distances match Dijkstra ✓");

    // Show a few routes.
    for target in [side - 1, side * side - 1, side * side / 2] {
        println!(
            "distance from corner to node {target}: {}",
            result.values[target as usize]
        );
    }
    let reachable = result
        .values
        .iter()
        .filter(|&&d| d != algos::spec::UNREACHED)
        .count();
    println!("{reachable}/{} nodes reachable", g.num_nodes());
    Ok(())
}
