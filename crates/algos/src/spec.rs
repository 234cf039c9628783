//! Algorithm parameterisations of Template 1 (Table I).

use graph::CooGraph;

/// Result of one `gather()` application: the new destination state and
/// whether it changed (drives the `active_srcs` tracking of Template 1,
/// line 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherOutcome {
    /// New BRAM state of the destination node (up to two 32-bit words;
    /// word 1 is unused by single-word algorithms).
    pub state: [u32; 2],
    /// `true` when the destination value changed.
    pub updated: bool,
}

/// A graph algorithm as a Template 1 parameterisation.
///
/// The variants carry only the parameters that Table I lists; everything
/// else (flags, widths, pipeline latency) is derived by the methods below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// PageRank with damping 0.85, ForeGraph-style normalized scores:
    /// `V_DRAM` holds `PR/OD` as `f32` bits, `V_const` holds out-degrees,
    /// BRAM state is `[accumulated sum, OD]`. Synchronous, `always_active`.
    PageRank {
        /// Fixed iteration count (the paper runs 10).
        iterations: u32,
    },
    /// SCC-style min-label propagation: value = node label, `gather` is
    /// `min`, asynchronous with `use_local_src` (Table I).
    Scc,
    /// Single-source shortest paths over weighted edges, `gather` is
    /// `min(u + w, v)`, asynchronous with `use_local_src`.
    Sssp {
        /// Source node.
        source: u32,
    },
    /// Breadth-first search: SSSP over implicit unit weights (extension).
    Bfs {
        /// Root node.
        source: u32,
    },
    /// Weakly connected components: min-label propagation over the
    /// symmetrised graph (caller must add reverse edges; extension).
    Wcc,
}

/// `f32` distance "infinity" used by SSSP/BFS before a node is reached.
pub const UNREACHED: u32 = u32::MAX;

impl Algorithm {
    /// PageRank with the paper's 10 iterations.
    pub fn pagerank() -> Self {
        Algorithm::PageRank { iterations: 10 }
    }

    /// SSSP from `source`.
    pub fn sssp(source: u32) -> Self {
        Algorithm::Sssp { source }
    }

    /// BFS from `source`.
    pub fn bfs(source: u32) -> Self {
        Algorithm::Bfs { source }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::PageRank { .. } => "pagerank",
            Algorithm::Scc => "scc",
            Algorithm::Sssp { .. } => "sssp",
            Algorithm::Bfs { .. } => "bfs",
            Algorithm::Wcc => "wcc",
        }
    }

    /// BRAM state width in 32-bit words (Table I: 64-bit nodes for
    /// PageRank, 32-bit for SCC/SSSP).
    pub fn bram_words(&self) -> usize {
        match self {
            Algorithm::PageRank { .. } => 2,
            _ => 1,
        }
    }

    /// `gather()` pipeline latency in cycles: 4 for the floating-point HLS
    /// PageRank pipeline, 0 (combinational) for the integer algorithms
    /// (§V-A).
    pub fn gather_latency(&self) -> u64 {
        match self {
            Algorithm::PageRank { .. } => 4,
            _ => 0,
        }
    }

    /// Template 1 `use_local_src`: read sources from local BRAM when they
    /// fall in the current destination interval.
    pub fn use_local_src(&self) -> bool {
        !matches!(self, Algorithm::PageRank { .. })
    }

    /// Template 1 `always_active`: PageRank streams every shard every
    /// iteration; the monotone algorithms deactivate converged intervals.
    pub fn always_active(&self) -> bool {
        matches!(self, Algorithm::PageRank { .. })
    }

    /// `true` for synchronous execution (separate `V_DRAM,out`).
    pub fn synchronous(&self) -> bool {
        matches!(self, Algorithm::PageRank { .. })
    }

    /// `true` when edges carry weights.
    pub fn is_weighted(&self) -> bool {
        matches!(self, Algorithm::Sssp { .. })
    }

    /// Iteration bound: fixed for PageRank, `N` (worst-case propagation
    /// depth) for the convergence-driven algorithms.
    pub fn max_iterations(&self, num_nodes: u32) -> u32 {
        match self {
            Algorithm::PageRank { iterations } => *iterations,
            _ => num_nodes.max(1),
        }
    }

    /// Initial `V_DRAM,in` raw values (Table I row 2).
    pub fn initial_vin(&self, g: &CooGraph) -> Vec<u32> {
        let n = g.num_nodes();
        match self {
            Algorithm::PageRank { .. } => {
                // Normalized score PR/OD with PR0 = 0.15/N; dangling nodes
                // (OD = 0) carry 0 since they are never dereferenced.
                let od = g.out_degrees();
                let base = 0.15f32 / n as f32;
                od.iter()
                    .map(|&d| {
                        if d == 0 {
                            0f32.to_bits()
                        } else {
                            (base / d as f32).to_bits()
                        }
                    })
                    .collect()
            }
            Algorithm::Scc | Algorithm::Wcc => (0..n).collect(),
            Algorithm::Sssp { source } | Algorithm::Bfs { source } => (0..n)
                .map(|i| if i == *source { 0 } else { UNREACHED })
                .collect(),
        }
    }

    /// `V_const` raw values (Table I row 1): out-degrees for PageRank,
    /// unused otherwise.
    pub fn vconst(&self, g: &CooGraph) -> Option<Vec<u32>> {
        match self {
            Algorithm::PageRank { .. } => Some(g.out_degrees()),
            _ => None,
        }
    }

    /// Template 1 `init()`: builds the BRAM state from the constant and
    /// DRAM values (Table I row 4).
    pub fn init(&self, vconst: u32, vdram: u32) -> [u32; 2] {
        match self {
            // Accumulator starts at zero; OD kept for apply().
            Algorithm::PageRank { .. } => [0f32.to_bits(), vconst],
            _ => [vdram, 0],
        }
    }

    /// Template 1 `gather()` (Table I row 5): combines a source value `u`,
    /// the destination BRAM state, and the edge weight.
    pub fn gather(&self, u: u32, dst: [u32; 2], w: u32) -> GatherOutcome {
        match self {
            Algorithm::PageRank { .. } => {
                let acc = f32::from_bits(dst[0]) + f32::from_bits(u);
                GatherOutcome {
                    state: [acc.to_bits(), dst[1]],
                    updated: true, // always_active: the flag is unused
                }
            }
            Algorithm::Scc | Algorithm::Wcc => {
                let new = u.min(dst[0]);
                GatherOutcome {
                    state: [new, 0],
                    updated: new != dst[0],
                }
            }
            Algorithm::Sssp { .. } => {
                let cand = u.saturating_add(w);
                let new = cand.min(dst[0]);
                GatherOutcome {
                    state: [new, 0],
                    updated: new != dst[0],
                }
            }
            Algorithm::Bfs { .. } => {
                let cand = u.saturating_add(1);
                let new = cand.min(dst[0]);
                GatherOutcome {
                    state: [new, 0],
                    updated: new != dst[0],
                }
            }
        }
    }

    /// Template 1 `apply()` (Table I row 6): folds the BRAM state into the
    /// `V_DRAM,out` value.
    pub fn apply(&self, num_nodes: u32, v: [u32; 2]) -> u32 {
        match self {
            Algorithm::PageRank { .. } => {
                let sum = f32::from_bits(v[0]);
                let od = v[1];
                let pr = 0.15f32 / num_nodes as f32 + 0.85 * sum;
                if od == 0 {
                    // Dangling node: never dereferenced as a source, so we
                    // are free to store the un-normalized score.
                    pr.to_bits()
                } else {
                    // New normalized score: (0.15/N + 0.85·Σ) / OD.
                    (pr / od as f32).to_bits()
                }
            }
            _ => v[0],
        }
    }

    /// Value used as the source operand when `use_local_src` reads from
    /// BRAM instead of DRAM.
    pub fn local_src_value(&self, v: [u32; 2]) -> u32 {
        v[0]
    }

    /// Host-side finish of one node's final raw value, given the node's
    /// `V_const` entry (0 when the algorithm has none): PageRank
    /// denormalises (`PR = x·OD`), the other algorithms pass the value
    /// through. Run once per node after the last iteration (§III-B).
    pub fn finalize_value(&self, vconst: u32, raw: u32) -> u32 {
        match self {
            // Dangling nodes (OD = 0) already hold PR.
            Algorithm::PageRank { .. } if vconst != 0 => {
                (f32::from_bits(raw) * vconst as f32).to_bits()
            }
            _ => raw,
        }
    }

    /// [`finalize_value`](Self::finalize_value) over every node of `g`.
    pub fn finalize(&self, g: &CooGraph, out: &[u32]) -> Vec<u32> {
        match self.vconst(g) {
            Some(c) => out
                .iter()
                .zip(&c)
                .map(|(&raw, &c)| self.finalize_value(c, raw))
                .collect(),
            None => out.iter().map(|&raw| self.finalize_value(0, raw)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::CooGraph;

    fn diamond() -> CooGraph {
        CooGraph::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn table_i_flags_match_paper() {
        let pr = Algorithm::pagerank();
        assert!(!pr.use_local_src());
        assert!(pr.always_active());
        assert!(pr.synchronous());
        assert_eq!(pr.gather_latency(), 4);
        assert_eq!(pr.bram_words(), 2);

        for a in [Algorithm::Scc, Algorithm::sssp(0)] {
            assert!(a.use_local_src());
            assert!(!a.always_active());
            assert!(!a.synchronous());
            assert_eq!(a.gather_latency(), 0);
            assert_eq!(a.bram_words(), 1);
        }
        assert!(Algorithm::sssp(0).is_weighted());
        assert!(!Algorithm::Scc.is_weighted());
    }

    #[test]
    fn pagerank_initial_values_are_normalized() {
        let g = diamond();
        let vin = Algorithm::pagerank().initial_vin(&g);
        // Node 0 has OD 2: 0.15/4/2.
        assert!((f32::from_bits(vin[0]) - 0.15 / 4.0 / 2.0).abs() < 1e-9);
        // Node 3 has OD 0: stored as 0.
        assert_eq!(f32::from_bits(vin[3]), 0.0);
    }

    #[test]
    fn scc_gather_is_min() {
        let a = Algorithm::Scc;
        let out = a.gather(3, [7, 0], 1);
        assert_eq!(out.state[0], 3);
        assert!(out.updated);
        let out = a.gather(9, [3, 0], 1);
        assert_eq!(out.state[0], 3);
        assert!(!out.updated);
    }

    #[test]
    fn sssp_gather_relaxes_and_saturates() {
        let a = Algorithm::sssp(0);
        let out = a.gather(10, [100, 0], 5);
        assert_eq!(out.state[0], 15);
        assert!(out.updated);
        // Unreached source saturates instead of wrapping.
        let out = a.gather(UNREACHED, [100, 0], 5);
        assert_eq!(out.state[0], 100);
        assert!(!out.updated);
    }

    #[test]
    fn pagerank_apply_folds_damping() {
        let a = Algorithm::pagerank();
        let state = a.init(2, 0); // OD = 2
        let s1 = a.gather(0.1f32.to_bits(), state, 1).state;
        let out = f32::from_bits(a.apply(4, s1));
        let expect = (0.15 / 4.0 + 0.85 * 0.1) / 2.0;
        assert!((out - expect).abs() < 1e-6, "{out} vs {expect}");
    }

    #[test]
    fn sssp_initial_vin_marks_source() {
        let g = diamond();
        let vin = Algorithm::sssp(2).initial_vin(&g);
        assert_eq!(vin[2], 0);
        assert_eq!(vin[0], UNREACHED);
    }

    #[test]
    fn finalize_denormalizes_pagerank() {
        let g = diamond();
        let a = Algorithm::pagerank();
        let normalized = vec![0.5f32.to_bits(); 4];
        let fin = a.finalize(&g, &normalized);
        // Node 0 (OD 2): 0.5 * 2 = 1.0.
        assert_eq!(f32::from_bits(fin[0]), 1.0);
        // Node 3 (OD 0): stored value passes through unchanged.
        assert_eq!(f32::from_bits(fin[3]), 0.5);
    }
}
