//! Randomized property tests on the core data structures and the full
//! simulator: random graphs, random geometry, random configurations.
//!
//! Implemented with the deterministic `simkit::SplitMix64` generator
//! (the container build is fully offline, so there is no proptest).
//! Every case is seeded, so failures reproduce exactly.

use simkit::SplitMix64;

use accel::{PeConfig, System, SystemConfig};
use algos::{golden, Algorithm};
use graph::layout::{EdgePointer, LayoutBuilder, LayoutInit};
use graph::partition::{CompressedEdge, DeviceMap};
use graph::{CooGraph, Partitioner};
use moms::cuckoo::{CuckooMshr, InsertOutcome, MshrEntry};
use moms::{MomsConfig, MomsSystemConfig, Topology};

/// A random small directed graph with `2..max_nodes` nodes and
/// `1..max_edges` edges.
fn random_graph(rng: &mut SplitMix64, max_nodes: u32, max_edges: usize) -> CooGraph {
    let n = 2 + rng.next_below(max_nodes as u64 - 2) as u32;
    let m = 1 + rng.next_below(max_edges as u64 - 1) as usize;
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| {
            (
                rng.next_below(n as u64) as u32,
                rng.next_below(n as u64) as u32,
            )
        })
        .collect();
    CooGraph::from_edges(n, edges)
}

fn small_config() -> SystemConfig {
    SystemConfig {
        moms: MomsSystemConfig::new(
            Topology::TwoLevel,
            2,
            2,
            4,
            MomsConfig::paper_shared_bank()
                .scaled(1, 64)
                .without_cache(),
            MomsConfig::paper_private_bank(false).scaled(1, 64),
        ),
        pe: PeConfig {
            bram_nodes: 256,
            ..PeConfig::default()
        },
        ..SystemConfig::small()
    }
}

const CASES: u64 = 24;

#[test]
fn compressed_edge_round_trips() {
    let mut rng = SplitMix64::new(0x5eed_0001);
    for _ in 0..1000 {
        let src = rng.next_below(65536) as u32;
        let dst = rng.next_below(32768) as u32;
        let e = CompressedEdge::new(src, dst);
        assert_eq!(e.src_offset(), src);
        assert_eq!(e.dst_offset(), dst);
        assert!(!e.is_terminating());
    }
}

#[test]
fn edge_pointer_round_trips() {
    let mut rng = SplitMix64::new(0x5eed_0002);
    for _ in 0..1000 {
        let addr = rng.next_below(1 << 30) / 4 * 4;
        let edges = rng.next_below(1 << 23);
        let active = rng.chance(0.5);
        let p = EdgePointer::new(addr, edges, active);
        assert_eq!(p.byte_addr(), addr);
        assert_eq!(p.edge_count(), edges);
        assert_eq!(p.active(), active);
    }
}

#[test]
fn partition_is_lossless() {
    let mut rng = SplitMix64::new(0x5eed_0003);
    for case in 0..CASES {
        let g = random_graph(&mut rng, 500, 2000);
        let ns = 1 + rng.next_below(599) as u32;
        let nd = 1 + rng.next_below(599) as u32;
        let parts = Partitioner::new(ns, nd).partition(&g);
        assert_eq!(parts.total_edges(), g.num_edges() as u64, "case {case}");
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for d in 0..parts.qd() {
            for s in 0..parts.qs() {
                for (src, dst, _) in parts.iter_shard_edges(s, d) {
                    assert!(src / ns == s as u32, "case {case}");
                    assert!(dst / nd == d as u32, "case {case}");
                    seen.push((src, dst));
                }
            }
        }
        let mut orig = g.edges().to_vec();
        orig.sort_unstable();
        seen.sort_unstable();
        assert_eq!(orig, seen, "case {case} (ns {ns}, nd {nd})");
    }
}

#[test]
fn layout_decodes_to_original_edges() {
    // Random graphs (half weighted), random Ns/Nd, synchronous or not,
    // with or without V_const, laid out for the whole graph or for one
    // fabric device's owned destinations. Every shard must decode, in
    // order, to the partitioner's shard restricted to those destinations,
    // which is also the shard of the device's extracted subgraph.
    let mut rng = SplitMix64::new(0x5eed_0004);
    for case in 0..CASES {
        let mut g = random_graph(&mut rng, 300, 1000);
        if rng.chance(0.5) {
            g = g.with_random_weights(0, 1 << 20, rng.next_u64());
        }
        let n = g.num_nodes();
        let (ns, nd) = (
            1 + rng.next_below(127) as u32,
            1 + rng.next_below(127) as u32,
        );
        let partitioner = Partitioner::new(ns, nd);
        let devices = 1 + rng.next_below(4) as usize;
        let map = DeviceMap::new(partitioner, n, devices);
        let dev = rng.next_below(devices as u64) as usize;
        let owned = map.device_nodes(dev);
        let init = LayoutInit {
            vin: (0..n).map(|_| rng.next_u64() as u32).collect(),
            vconst: rng
                .chance(0.5)
                .then(|| (0..n).map(|_| rng.next_u64() as u32).collect()),
            synchronous: rng.chance(0.5),
        };
        let (gi, img) = LayoutBuilder::build(&g, partitioner, owned.clone(), &init);
        let what = format!("case {case} (ns {ns}, nd {nd}, device {dev} of {devices})");

        assert_eq!(gi.is_synchronous(), init.synchronous, "{what}");
        assert_eq!(gi.has_const(), init.vconst.is_some(), "{what}");
        for v in 0..n {
            let want = init.vin[v as usize];
            assert_eq!(img.read_u32(gi.node_in_addr(v)), want, "{what}: V_in[{v}]");
            assert_eq!(
                img.read_u32(gi.node_out_addr(v)),
                want,
                "{what}: V_out[{v}]"
            );
            if let Some(c) = &init.vconst {
                let got = img.read_u32(gi.node_const_addr(v));
                assert_eq!(got, c[v as usize], "{what}: V_const[{v}]");
            }
        }

        let parts = partitioner.partition(&g);
        let local = partitioner.partition(&map.extract_local(&g, dev));
        assert_eq!((gi.qs(), gi.qd()), (parts.qs(), parts.qd()), "{what}");
        let edge_bytes = if g.is_weighted() { 8 } else { 4 };
        let mut count = 0;
        for d in 0..gi.qd() {
            for s in 0..gi.qs() {
                let got: Vec<_> = gi.shard_edges(&img, d, s).collect();
                let want: Vec<_> = parts
                    .iter_shard_edges(s, d)
                    .filter(|(_, dst, _)| owned.contains(dst))
                    .collect();
                assert_eq!(got, want, "{what}: shard ({s}, {d})");
                assert!(
                    local.iter_shard_edges(s, d).eq(want),
                    "{what}: shard ({s}, {d})"
                );
                let p = gi.edge_ptr(&img, d, s);
                assert!(p.active(), "{what}");
                assert_eq!(p.byte_addr() % 64, 0, "{what}: shard ({s}, {d}) unaligned");
                let end = p.byte_addr() + p.edge_count() * edge_bytes;
                let terminator = CompressedEdge::from_bits(img.read_u32(end));
                assert!(terminator.is_terminating(), "{what}: shard ({s}, {d})");
                count += got.len();
            }
        }
        let owned_edges = g.edges().iter().filter(|(_, d)| owned.contains(d)).count();
        assert_eq!(count, owned_edges, "{what}");
    }
}

#[test]
fn cuckoo_never_loses_entries() {
    let mut rng = SplitMix64::new(0x5eed_0005);
    for case in 0..CASES {
        let count = 1 + rng.next_below(299);
        let lines: std::collections::HashSet<u64> =
            (0..count).map(|_| rng.next_below(100_000)).collect();
        let mut t = CuckooMshr::new(512, 4, 8);
        let mut inserted = Vec::new();
        for &l in &lines {
            match t.insert(MshrEntry {
                line: l,
                head_row: 0,
                tail_row: 0,
                pending: 0,
            }) {
                InsertOutcome::Placed { .. } => inserted.push(l),
                InsertOutcome::Failed => {}
            }
        }
        for &l in &inserted {
            assert!(t.lookup(l).is_some(), "case {case}: lost {l}");
        }
        assert_eq!(t.occupancy(), inserted.len(), "case {case}");
        for &l in &inserted {
            assert!(t.remove(l).is_some(), "case {case}");
        }
        assert_eq!(t.occupancy(), 0, "case {case}");
    }
}

#[test]
fn simulator_matches_golden_bfs_on_random_graphs() {
    let mut rng = SplitMix64::new(0x5eed_0006);
    for case in 0..CASES {
        let g = random_graph(&mut rng, 400, 1500);
        let algo = Algorithm::bfs(0);
        let got = System::new(&g, Partitioner::new(256, 256), algo, small_config())
            .run_to_outcome(None)
            .unwrap()
            .values;
        assert_eq!(got, golden::run(&algo, &g), "case {case}");
    }
}

#[test]
fn simulator_matches_golden_scc_on_random_graphs() {
    let mut rng = SplitMix64::new(0x5eed_0007);
    for case in 0..CASES {
        let g = random_graph(&mut rng, 300, 1200);
        let algo = Algorithm::Scc;
        let got = System::new(&g, Partitioner::new(128, 128), algo, small_config())
            .run_to_outcome(None)
            .unwrap()
            .values;
        assert_eq!(got, golden::run(&algo, &g), "case {case}");
    }
}

#[test]
fn reorder_permutations_are_bijective() {
    let mut rng = SplitMix64::new(0x5eed_0008);
    for case in 0..CASES {
        let g = random_graph(&mut rng, 400, 800);
        let seed = rng.next_below(1000);
        let dbg = graph::reorder::dbg_reorder(&g);
        assert!(graph::reorder::is_permutation(&dbg), "case {case}");
        let hash = graph::reorder::hash_cache_lines(g.num_nodes(), 16, seed);
        assert!(graph::reorder::is_permutation(&hash), "case {case}");
        let both = graph::reorder::compose(&dbg, &hash);
        assert!(graph::reorder::is_permutation(&both), "case {case}");
    }
}

#[test]
fn link_retry_backoff_never_overflows_and_is_monotone() {
    // Exponential backoff over the full space of retry geometries,
    // including adversarial corners (rto and cap at u64::MAX): the
    // schedule must never overflow, never decrease, never exceed the
    // cap, and stay pinned at the cap once it reaches it.
    let mut rng = SplitMix64::new(0x5eed_0009);
    for case in 0..200 {
        let mut retry = accel::LinkRetryConfig::default();
        retry.rto = match rng.next_below(4) {
            0 => 1 + rng.next_below(1 << 12),
            1 => 1 + rng.next_below(1 << 40),
            2 => u64::MAX - rng.next_below(4),
            _ => u64::MAX / 2 + rng.next_below(1 << 20),
        };
        retry.rto_cap = match rng.next_below(3) {
            0 => retry.rto.saturating_add(rng.next_below(1 << 16)),
            1 => u64::MAX,
            _ => 1 + rng.next_below(1 << 30),
        };
        retry.max_attempts = 1 + rng.next_below(64) as u32;
        let schedule = retry.backoff_schedule(retry.rto);
        assert_eq!(
            schedule.len(),
            retry.max_attempts as usize,
            "case {case}: one delay per permitted retransmission"
        );
        let mut capped = false;
        for (i, &rto) in schedule.iter().enumerate() {
            assert!(
                rto <= retry.rto_cap,
                "case {case}, attempt {i}: {rto} exceeds cap {}",
                retry.rto_cap
            );
            if i > 0 {
                assert!(
                    rto >= schedule[i - 1],
                    "case {case}, attempt {i}: backoff decreased ({} -> {rto})",
                    schedule[i - 1]
                );
            }
            if capped {
                assert_eq!(
                    rto, retry.rto_cap,
                    "case {case}, attempt {i}: left the cap after reaching it"
                );
            }
            capped = rto == retry.rto_cap;
        }
        // Deterministic: the same config always yields the same schedule.
        assert_eq!(schedule, retry.backoff_schedule(retry.rto), "case {case}");
        // Each step is exactly the transport's scan arithmetic.
        assert_eq!(schedule[0], retry.next_rto(retry.rto), "case {case}");
    }
}

#[test]
fn graph_generators_honour_their_specs() {
    // Every family, over random geometry: node/edge counts match the
    // spec's promise, endpoints stay in range, and the same seed yields
    // the identical edge list (the property the fuzzer's corpus format
    // depends on to rebuild family cases from one line of text).
    use graph::GraphSpec;
    let mut rng = SplitMix64::new(0x5eed_000a);
    for case in 0..CASES {
        let seed = rng.next_below(1 << 20);
        let scale = 4 + rng.next_below(4) as u32;
        let deg = 1 + rng.next_below(6) as u32;
        let er_n = 2 + rng.next_below(200) as u32;
        let er_m = 1 + rng.next_below(800) as usize;
        let ba_m = 1 + rng.next_below(4) as u32;
        let ba_n = ba_m + 1 + rng.next_below(150) as u32;
        let ws_k = 2 * (1 + rng.next_below(3) as u32);
        let ws_n = ws_k + 1 + rng.next_below(150) as u32;
        let specs: Vec<(&str, GraphSpec, u32, Option<usize>)> = vec![
            (
                "rmat",
                GraphSpec::rmat(scale, deg),
                1 << scale,
                Some((1usize << scale) * deg as usize),
            ),
            ("er", GraphSpec::erdos_renyi(er_n, er_m), er_n, Some(er_m)),
            (
                "ba",
                GraphSpec::barabasi_albert(ba_n, ba_m),
                ba_n,
                Some(((ba_n - ba_m) * ba_m) as usize),
            ),
            (
                "ws",
                GraphSpec::watts_strogatz(ws_n, ws_k, 0.25),
                ws_n,
                Some((ws_n * ws_k) as usize),
            ),
        ];
        for (family, spec, want_nodes, want_edges) in specs {
            let g = spec.build(seed);
            assert_eq!(
                g.num_nodes(),
                want_nodes,
                "case {case} {family}: node count"
            );
            if let Some(m) = want_edges {
                assert_eq!(g.num_edges(), m, "case {case} {family}: edge count");
            }
            for i in 0..g.num_edges() {
                let (s, d, _) = g.edge(i);
                assert!(
                    s < want_nodes && d < want_nodes,
                    "case {case} {family}: edge {i} ({s}->{d}) out of range"
                );
            }
            // Same seed, same graph — bit for bit.
            let again = spec.build(seed);
            assert_eq!(
                again.num_edges(),
                g.num_edges(),
                "case {case} {family}: edge count changed on rebuild"
            );
            for i in 0..g.num_edges() {
                assert_eq!(
                    again.edge(i),
                    g.edge(i),
                    "case {case} {family}: edge {i} changed on rebuild"
                );
            }
            // A different seed should not (for non-degenerate sizes)
            // reproduce the same structure edge-for-edge.
            let other = spec.build(seed ^ 0xdead_beef);
            let differs = g.num_edges() != other.num_edges()
                || (0..g.num_edges()).any(|i| g.edge(i) != other.edge(i));
            if g.num_edges() >= 8 && family != "ws" {
                assert!(differs, "case {case} {family}: seed does not matter");
            }
        }
    }
}
