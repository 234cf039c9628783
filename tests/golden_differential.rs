//! Cross-architecture golden-equivalence suite: the certification net
//! under the hot-loop rewrite.
//!
//! Every algorithm (BFS/SCC/SSSP/PageRank) on every quick-scope
//! architecture must produce exactly the golden executor's values —
//! bit-for-bit for the monotone algorithms, within a few ulp per node
//! for PageRank (see [`PAGERANK_ULP_BOUND`] for why bit-equality is
//! structurally impossible there).
//!
//! This suite was blessed against the pre-rewrite simulator and runs
//! unchanged afterwards, so a green run certifies the optimisation did
//! not alter simulated behaviour.

use accel::System;
use algos::{golden, Algorithm};
use bench::ArchPoint;
use graph::{CooGraph, GraphSpec};

/// Unweighted graph exercising skewed degrees across several intervals.
fn unweighted_graph() -> CooGraph {
    GraphSpec::rmat(9, 8).build(2021)
}

/// Weighted companion for SSSP.
fn weighted_graph() -> CooGraph {
    GraphSpec::rmat(9, 6)
        .build(2021)
        .with_random_weights(0, 255, 11)
}

/// Builds and runs `algo` on the quick-scope architecture `arch`.
///
/// `shrink = 32` keeps the scaled bank/interval sizes test-friendly while
/// preserving the architecture's shape (topology, PE count, bank count,
/// cache arrays, MSHR organisation).
fn run_values(g: &CooGraph, algo: Algorithm, arch: ArchPoint) -> Vec<u32> {
    let (cfg, partitioner) = arch.run_config(4, 32).build();
    System::new(g, partitioner, algo, cfg)
        .run_to_outcome(None)
        .unwrap()
        .values
}

/// Maximum tolerated ulp distance per node between the accelerator's
/// PageRank and the golden executor's.
///
/// The two cannot be bit-equal by construction: the PE's tagged DMA edge
/// bursts complete out of order (deterministically), so per-destination
/// contributions sum in a different association than golden's sequential
/// edge sweep. The observed worst case over the quick-scope matrix is
/// 3 ulp after 10 iterations; 8 leaves slack without hiding real bugs
/// (8 ulp of an f32 is ≈ 1e-6 relative). Bit-exact reproducibility of
/// the accelerator itself is pinned separately by `cycle_pinning`, whose
/// fixture hashes every value vector.
const PAGERANK_ULP_BOUND: u64 = 8;

/// Asserts two PageRank bit-vectors agree within [`PAGERANK_ULP_BOUND`]
/// per node. PageRank values are positive finite floats, so the ulp
/// distance is the absolute difference of the raw bit patterns.
fn assert_pagerank_ulp(got: &[u32], want: &[u32], arch: &str) {
    assert_eq!(got.len(), want.len(), "{arch}: node count mismatch");
    let mut max = 0u64;
    let mut at = 0usize;
    for (i, (&a, &b)) in got.iter().zip(want).enumerate() {
        let ulp = (i64::from(a) - i64::from(b)).unsigned_abs();
        if ulp > max {
            max = ulp;
            at = i;
        }
    }
    assert!(
        max <= PAGERANK_ULP_BOUND,
        "{arch}: pagerank node {at} off by {max} ulp \
         (got {:e}, want {:e})",
        f32::from_bits(got[at]),
        f32::from_bits(want[at]),
    );
}

#[test]
fn bfs_matches_golden_on_every_quick_arch() {
    let g = unweighted_graph();
    let algo = Algorithm::bfs(0);
    let want = golden::run(&algo, &g);
    for arch in ArchPoint::QUICK {
        let got = run_values(&g, algo, arch);
        assert_eq!(got, want, "{}: BFS diverged from golden", arch.name);
    }
}

#[test]
fn scc_matches_golden_on_every_quick_arch() {
    let g = unweighted_graph();
    let want = golden::run(&Algorithm::Scc, &g);
    for arch in ArchPoint::QUICK {
        let got = run_values(&g, Algorithm::Scc, arch);
        assert_eq!(got, want, "{}: SCC diverged from golden", arch.name);
    }
}

#[test]
fn sssp_matches_golden_on_every_quick_arch() {
    let g = weighted_graph();
    let algo = Algorithm::sssp(0);
    let want = golden::run(&algo, &g);
    for arch in ArchPoint::QUICK {
        let got = run_values(&g, algo, arch);
        assert_eq!(got, want, "{}: SSSP diverged from golden", arch.name);
    }
}

#[test]
fn pagerank_matches_golden_within_ulp_bound_on_every_quick_arch() {
    let g = unweighted_graph();
    let algo = Algorithm::pagerank();
    let want = golden::run(&algo, &g);
    for arch in ArchPoint::QUICK {
        let got = run_values(&g, algo, arch);
        assert_pagerank_ulp(&got, &want, arch.name);
    }
}
