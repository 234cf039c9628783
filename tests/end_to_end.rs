//! Cross-crate integration tests: the simulated accelerator must produce
//! the same results as the golden executors on every algorithm, graph
//! family, MOMS topology, and channel count.

use accel::{PeConfig, System, SystemConfig};
use algos::{golden, Algorithm};
use dram::DramConfig;
use graph::reorder::{self, Preprocess};
use graph::{CooGraph, GraphSpec, Partitioner};
use moms::{MomsConfig, MomsSystemConfig, Topology};

fn config(topology: Topology, pes: usize, channels: usize) -> SystemConfig {
    SystemConfig {
        dram: DramConfig::default(),
        moms: MomsSystemConfig {
            topology,
            num_pes: pes,
            num_channels: channels,
            shared_banks: 4 * channels.max(1),
            shared: MomsConfig::paper_shared_bank().scaled(1, 32),
            private: MomsConfig::paper_private_bank(false).scaled(1, 32),
            pe_slr: moms::system::default_pe_slrs(pes),
            channel_slr: moms::system::default_channel_slrs(channels),
            crossing_latency: 4,
            base_net_latency: 2,
            resp_link_cycles_per_line: 8,
        },
        pe: PeConfig {
            bram_nodes: 512,
            ..PeConfig::default()
        },
        max_iterations: None,
        execution: accel::ExecutionMode::AlgorithmDefault,
        moms_trace_cap: 0,
        fault: simkit::FaultConfig::none(),
        trace: simkit::TraceConfig::default(),
        watchdog_cycles: Some(accel::DEFAULT_WATCHDOG_CYCLES),
        idle_skip: true,
    }
}

fn run_sim(g: &CooGraph, algo: Algorithm, cfg: SystemConfig) -> Vec<u32> {
    System::new(g, Partitioner::new(512, 512), algo, cfg)
        .run_to_outcome(None)
        .unwrap()
        .values
}

#[test]
fn every_topology_gives_identical_scc_results() {
    let g = GraphSpec::rmat(9, 8).build(31);
    let want = golden::run(&Algorithm::Scc, &g);
    for topo in [Topology::Shared, Topology::Private, Topology::TwoLevel] {
        let got = run_sim(&g, Algorithm::Scc, config(topo, 3, 2));
        assert_eq!(got, want, "topology {topo:?} diverged");
    }
}

#[test]
fn channel_counts_do_not_change_results() {
    let g = GraphSpec::rmat(9, 6)
        .build(37)
        .with_random_weights(0, 255, 5);
    let want = golden::dijkstra(&g, 0);
    for channels in [1usize, 2, 4] {
        let got = run_sim(
            &g,
            Algorithm::sssp(0),
            config(Topology::TwoLevel, 2, channels),
        );
        assert_eq!(got, want, "{channels} channels diverged");
    }
}

#[test]
fn pagerank_stable_across_topologies() {
    let g = GraphSpec::power_law_cluster(1000, 8000, 2.0, 0.6, 128, false).build(41);
    let algo = Algorithm::pagerank();
    let want = golden::run(&algo, &g);
    for topo in [Topology::Shared, Topology::Private, Topology::TwoLevel] {
        let got = run_sim(&g, algo, config(topo, 3, 2));
        assert_eq!(
            golden::pagerank_mismatch(&got, &want, 1e-3),
            None,
            "topology {topo:?} diverged"
        );
    }
}

#[test]
fn reordering_preserves_results_up_to_relabeling() {
    // BFS distances must be permutation-equivariant under relabeling.
    let g = GraphSpec::rmat(9, 8).build(43);
    let base = golden::run(&Algorithm::bfs(0), &g);
    for pre in [Preprocess::Hash, Preprocess::Dbg, Preprocess::DbgHash] {
        let (rg, _) = reorder::apply(&g, pre, 16, 9);
        // Find where node 0 went: run BFS from its new label.
        // reorder::apply relabels with a permutation; recover it by
        // comparing edges is overkill — rerun golden on the relabeled
        // graph from the relabeled root and compare distance multisets.
        let root = {
            // Node 0's new label: reorder::apply used perm internally; we
            // reconstruct it by running the same passes.
            let mut perm = graph::reorder::identity(g.num_nodes());
            if matches!(pre, Preprocess::Dbg | Preprocess::DbgHash) {
                perm = graph::reorder::compose(&perm, &graph::reorder::dbg_reorder(&g));
            }
            if matches!(pre, Preprocess::Hash | Preprocess::DbgHash) {
                let h = graph::reorder::hash_cache_lines(g.num_nodes(), 16, 9);
                perm = graph::reorder::compose(&perm, &h);
            }
            perm[0]
        };
        let got = run_sim(&rg, Algorithm::bfs(root), config(Topology::TwoLevel, 2, 2));
        let mut a = base.clone();
        let mut b = got.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{pre:?} changed the distance multiset");
    }
}

#[test]
fn single_pe_single_channel_minimal_system_works() {
    let g = GraphSpec::rmat(8, 4).build(47);
    let got = run_sim(&g, Algorithm::Scc, config(Topology::Shared, 1, 1));
    assert_eq!(got, golden::run(&Algorithm::Scc, &g));
}

#[test]
fn dense_interval_graph_exercises_local_reads() {
    // All edges inside one interval: with use_local_src the PE should
    // serve most sources from BRAM.
    let n = 256u32;
    let edges: Vec<(u32, u32)> = (0..2048u32).map(|i| (i % n, (i * 7 + 1) % n)).collect();
    let g = CooGraph::from_edges(n, edges);
    let algo = Algorithm::Scc;
    let mut sys = System::new(
        &g,
        Partitioner::new(512, 512),
        algo,
        config(Topology::TwoLevel, 1, 1),
    );
    let result = sys.run_to_outcome(None).unwrap();
    assert_eq!(result.values, golden::run(&algo, &g));
    assert!(
        result.stats.get("local_reads") > result.stats.get("moms_reads"),
        "local {} vs moms {}",
        result.stats.get("local_reads"),
        result.stats.get("moms_reads")
    );
}

#[test]
fn isolated_nodes_and_empty_shards_are_handled() {
    // Many nodes, few edges: most shards are empty, several intervals
    // have no work at all.
    let g = CooGraph::from_edges(2000, vec![(0, 1999), (1999, 0), (500, 1500)]);
    let got = run_sim(&g, Algorithm::Scc, config(Topology::TwoLevel, 2, 2));
    assert_eq!(got, golden::run(&Algorithm::Scc, &g));
}

#[test]
fn wcc_on_symmetrised_graph() {
    let mut edges = vec![(0u32, 1u32), (1, 2), (4, 5)];
    let rev: Vec<(u32, u32)> = edges.iter().map(|&(a, b)| (b, a)).collect();
    edges.extend(rev);
    let g = CooGraph::from_edges(6, edges);
    let got = run_sim(&g, Algorithm::Wcc, config(Topology::TwoLevel, 2, 1));
    assert_eq!(got, vec![0, 0, 0, 3, 4, 4]);
}

#[test]
fn results_are_invariant_under_dram_jitter() {
    // Chaos test: random service-time jitter perturbs every completion
    // time; monotone algorithms must still produce identical results and
    // PageRank must stay within fp tolerance (its per-destination sum
    // order is preserved by the per-PE gather pipeline, but schedule
    // shifts may alter job interleaving).
    let g = GraphSpec::rmat(9, 8)
        .build(71)
        .with_random_weights(0, 255, 9);
    let want = golden::dijkstra(&g, 0);
    for jitter in [0u64, 13, 97] {
        let mut cfg = config(Topology::TwoLevel, 3, 2);
        cfg.dram = cfg.dram.with_jitter(jitter);
        let got = run_sim(&g, Algorithm::sssp(0), cfg);
        assert_eq!(got, want, "jitter {jitter} changed SSSP results");
    }
}

#[test]
fn results_are_invariant_under_network_latency_changes() {
    // Chaos test: wildly different die-crossing and link costs must not
    // change what the accelerator computes, only when.
    let g = GraphSpec::rmat(9, 8).build(73);
    let want = golden::run(&Algorithm::Scc, &g);
    for (crossing, link) in [(0u64, 1u64), (4, 8), (20, 32)] {
        let mut cfg = config(Topology::TwoLevel, 3, 2);
        cfg.moms.crossing_latency = crossing;
        cfg.moms.resp_link_cycles_per_line = link;
        let got = run_sim(&g, Algorithm::Scc, cfg);
        assert_eq!(got, want, "crossing {crossing}/link {link} diverged");
    }
}

#[test]
fn bfs_matches_on_clustered_web_graph() {
    let g = GraphSpec::power_law_cluster(2048, 16384, 2.1, 0.85, 256, false).build(53);
    let got = run_sim(&g, Algorithm::bfs(3), config(Topology::TwoLevel, 3, 2));
    assert_eq!(got, golden::run(&Algorithm::bfs(3), &g));
}
