//! End-to-end simulator benchmarks: full accelerator runs of the three
//! paper algorithms on a small RMAT graph (simulation speed, and a quick
//! regression check on simulated throughput).

use bench::microbench::Group;

use accel::{System, SystemConfig};
use algos::Algorithm;
use graph::{GraphSpec, Partitioner};

fn main() {
    let g = GraphSpec::rmat(12, 8).build(9);
    let gw = g.clone().with_random_weights(0, 255, 1);
    let mut group = Group::new("end_to_end_rmat12", 10);
    group.throughput_elements(g.num_edges() as u64);

    for (name, algo, graph) in [
        ("pagerank_2iter", Algorithm::PageRank { iterations: 2 }, &g),
        ("scc", Algorithm::Scc, &g),
        ("sssp", Algorithm::sssp(0), &gw),
    ] {
        group.bench(
            name,
            || {
                System::new(
                    graph,
                    Partitioner::new(1024, 1024),
                    algo,
                    SystemConfig::small(),
                )
            },
            |mut sys| {
                let r = sys.run_to_outcome(None).unwrap();
                std::hint::black_box(r.cycles)
            },
        );
    }
}
