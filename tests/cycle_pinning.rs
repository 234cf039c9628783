//! Cycle-count pinning: the timing model must be bit-for-bit reproducible.
//!
//! A golden table of `(bench, algo, arch) → (total cycles, value hash)`
//! over the quick-scope matrix is committed as a fixture. Any change to
//! the simulator that shifts even one cycle anywhere — scheduler order,
//! queue semantics, DRAM timing, idle skipping — fails this suite, so
//! host-side performance work cannot silently alter simulated behaviour.
//! The value hash (FNV-1a over the raw result bits) extends the pin to
//! the computed values themselves, which certifies bit-identical results
//! even for PageRank, where golden-executor comparisons are only
//! ulp-close (see `golden_differential.rs`).
//!
//! The table runs the quick-scope benchmarks × architectures × algorithms
//! at `shrink = 64` (the scale the engine's own tests use) so the whole
//! matrix stays affordable in debug builds; the timing model exercised is
//! identical to the full quick sweep's.
//!
//! Re-bless after an *intentional* timing change with:
//!
//! ```text
//! REPRO_BLESS_CYCLES=1 cargo test -p bench --test cycle_pinning
//! ```

use std::fmt::Write as _;

use accel::{Fabric, LinkTopology, System};
use algos::Algorithm;
use bench::experiments::Scope;
use bench::RunSpec;
use graph::benchmarks::BenchmarkId;
use graph::reorder::Preprocess;

const GOLDEN_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden_cycles.txt"
);

/// Shrink factor for the pinning matrix (smaller graphs than the quick
/// sweep's 4, same timing model).
const PIN_SHRINK: u64 = 64;

/// FNV-1a over the raw little-endian value bits.
fn fnv1a(values: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The PE-cycle breakdown attributes every PE-cycle to exactly one
/// class, so its total is cycles × PEs (over all devices of a fabric) —
/// the denominator `repro explain` divides by.
fn assert_pe_cycles_exhaustive(label: &str, attributed: u64, cycles: u64, pes: usize) {
    assert_eq!(
        attributed,
        cycles * pes as u64,
        "{label}: PE-cycle breakdown must cover {cycles} cycles x {pes} PEs exactly"
    );
}

/// Renders the golden table: one `bench,algo,arch,cycles,values_fnv` line
/// per point of the quick-scope matrix, in deterministic enumeration
/// order.
fn render_table() -> String {
    let scope = Scope::quick();
    let mut out = String::from("bench,algo,arch,cycles,values_fnv\n");
    for bench in scope.benches() {
        for (algo, iters) in scope.algos() {
            let g =
                bench::prepare_graph(bench, Preprocess::DbgHash, PIN_SHRINK, algo.is_weighted());
            for arch in scope.archs() {
                let mut spec = RunSpec::new(arch);
                spec.shrink = PIN_SHRINK;
                spec.max_iterations = iters;
                let rc = spec.run_config();
                let (cfg, partitioner) = rc.build();
                let result = System::new(&g, partitioner, algo, cfg)
                    .run_to_outcome(None)
                    .unwrap();
                assert_pe_cycles_exhaustive(
                    &format!("{}/{}/{}", bench.tag(), algo.name(), arch.name),
                    result.metrics.pe_cycles.total(),
                    result.cycles,
                    rc.num_pes(),
                );
                let _ = writeln!(
                    out,
                    "{},{},{},{},{:016x}",
                    bench.tag(),
                    algo.name(),
                    arch.name,
                    result.cycles,
                    fnv1a(&result.values)
                );
            }
        }
    }
    out.push_str(&render_fabric_table());
    out.push_str(&render_degenerate_table());
    out
}

/// The blessed fabric configurations: WT at the pin shrink, BFS and a
/// fixed-iteration PageRank, on 2/4/8 devices over both link topologies.
/// The `arch` column carries `fabric<devices>-<topology>` so the rows
/// share the single-device fixture format. Runs pin `sim_threads = 1`;
/// the threading differential (`fabric_threading.rs`) separately proves
/// every thread count reproduces these exact bytes.
fn fabric_configs() -> Vec<(usize, LinkTopology)> {
    let mut cfgs = Vec::new();
    for devices in [2usize, 4, 8] {
        for topology in [LinkTopology::AllToAll, LinkTopology::Ring] {
            cfgs.push((devices, topology));
        }
    }
    cfgs
}

fn render_fabric_table() -> String {
    let scope = Scope::quick();
    let bench = BenchmarkId::Wt;
    let arch = scope.archs()[0];
    let g = bench::prepare_graph(bench, Preprocess::DbgHash, PIN_SHRINK, false);
    let mut out = String::new();
    for (algo, iters) in [(Algorithm::bfs(0), None), (Algorithm::pagerank(), Some(2))] {
        for (devices, topology) in fabric_configs() {
            let mut spec = RunSpec::new(arch);
            spec.shrink = PIN_SHRINK;
            spec.max_iterations = iters;
            let mut rc = spec.run_config();
            rc.devices = devices;
            rc.link.topology = topology;
            rc.sim_threads = 1;
            let result = Fabric::new(&g, algo, &rc).run_to_outcome(None).unwrap();
            assert_pe_cycles_exhaustive(
                &format!(
                    "{}/{} x{devices} {}",
                    bench.tag(),
                    algo.name(),
                    topology.name()
                ),
                result.pe_cycles.total(),
                result.cycles,
                rc.num_pes() * devices,
            );
            let _ = writeln!(
                out,
                "{},{},fabric{}-{},{},{:016x}",
                bench.tag(),
                algo.name(),
                devices,
                topology.name(),
                result.cycles,
                fnv1a(&result.values)
            );
        }
    }
    out
}

/// The degenerate shapes the conformance fuzzer's case grammar samples,
/// pinned on the default single-device design: the zero-work paths
/// (no nodes, no edges, self-loops only) have their own scheduling and
/// convergence corners, and a cycle drift there would be invisible to
/// every benchmark-sized row above.
fn degenerate_shapes() -> Vec<(&'static str, graph::CooGraph, Algorithm)> {
    use graph::CooGraph;
    vec![
        (
            "degen-empty",
            CooGraph::from_edges(0, Vec::new()),
            Algorithm::bfs(0),
        ),
        (
            "degen-single",
            CooGraph::from_edges(1, Vec::new()),
            Algorithm::pagerank(),
        ),
        (
            "degen-loops8",
            CooGraph::from_edges(8, (0..8).map(|i| (i, i)).collect()),
            Algorithm::Scc,
        ),
        (
            "degen-disc32",
            CooGraph::from_edges(32, Vec::new()),
            Algorithm::Wcc,
        ),
    ]
}

fn render_degenerate_table() -> String {
    let mut out = String::new();
    for (tag, g, algo) in degenerate_shapes() {
        let (cfg, partitioner) = accel::Driver::new().run_config(&g).build();
        let result = System::new(&g, partitioner, algo, cfg)
            .run_to_outcome(None)
            .unwrap();
        let _ = writeln!(
            out,
            "{tag},{},default,{},{:016x}",
            algo.name(),
            result.cycles,
            fnv1a(&result.values)
        );
    }
    out
}

#[test]
fn quick_scope_cycle_counts_are_pinned() {
    let got = render_table();
    if std::env::var_os("REPRO_BLESS_CYCLES").is_some() {
        std::fs::write(GOLDEN_FIXTURE, &got).expect("bless cycle fixture");
        eprintln!("blessed {GOLDEN_FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_FIXTURE)
        .expect("missing fixture; run with REPRO_BLESS_CYCLES=1 to create it");
    if got != want {
        // Diff line by line so a drift names the exact points that moved.
        let mut diffs = String::new();
        for (g, w) in got.lines().zip(want.lines()) {
            if g != w {
                let _ = writeln!(diffs, "  got {g}\n want {w}");
            }
        }
        panic!(
            "simulated cycle counts drifted from tests/fixtures/golden_cycles.txt:\n{diffs}\
             if the timing change is intentional, re-bless with REPRO_BLESS_CYCLES=1"
        );
    }
}

/// The fixture itself must cover the full quick-scope matrix — guards
/// against a blessed run that silently skipped points.
#[test]
fn fixture_covers_the_quick_matrix() {
    if std::env::var_os("REPRO_BLESS_CYCLES").is_some() {
        return; // the pinning test is writing a fresh fixture
    }
    let scope = Scope::quick();
    let single_rows = scope.benches().len() * scope.algos().len() * scope.archs().len();
    // BFS and PageRank across every blessed fabric configuration.
    let fabric_rows = 2 * fabric_configs().len();
    let degenerate_rows = degenerate_shapes().len();
    let fixture = std::fs::read_to_string(GOLDEN_FIXTURE)
        .expect("missing fixture; run with REPRO_BLESS_CYCLES=1 to create it");
    assert_eq!(
        fixture.lines().count(),
        single_rows + fabric_rows + degenerate_rows + 1, // header
        "fixture row count does not match the quick-scope matrix plus fabric \
         and degenerate rows"
    );
    assert!(BenchmarkId::QUICK.iter().all(|b| fixture.contains(b.tag())));
    for algo in ["pagerank", "scc", "sssp"] {
        assert!(fixture.contains(algo), "fixture missing {algo}");
    }
    for (devices, topology) in fabric_configs() {
        let label = format!("fabric{devices}-{}", topology.name());
        assert!(fixture.contains(&label), "fixture missing {label} rows");
    }
    for (tag, _, _) in degenerate_shapes() {
        assert!(fixture.contains(tag), "fixture missing the {tag} row");
    }
}
