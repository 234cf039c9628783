//! Interval-based graph partitioning (Fig. 3) and the 32-bit compressed
//! edge format (§III-C).
//!
//! Nodes are split into `Qs` source intervals of `Ns` nodes and `Qd`
//! destination intervals of `Nd` nodes; edges land in the `Qs × Qd` shard
//! indexed by their endpoints' intervals. Partitioning is a stable O(M)
//! counting sort — no edge sorting is ever required.

use crate::coo::{CooGraph, NodeId};

/// Maximum source-interval size: the compressed format stores a 16-bit
/// source offset.
pub const MAX_NS: u32 = 1 << 16;

/// Maximum destination-interval size: the compressed format stores a 15-bit
/// destination offset.
pub const MAX_ND: u32 = 1 << 15;

/// One compressed edge word: 15-bit destination offset, 16-bit source
/// offset, and the `isTerminatingEdge` flag, in 32 bits — identical to the
/// paper's encoding ("we always use 32 bits per unweighted edge").
///
/// Bit layout: `[31] terminating | [30:16] dst offset | [15:0] src offset`.
///
/// # Example
///
/// ```
/// use graph::partition::CompressedEdge;
/// let e = CompressedEdge::new(1234, 77);
/// assert_eq!(e.src_offset(), 1234);
/// assert_eq!(e.dst_offset(), 77);
/// assert!(!e.is_terminating());
/// assert!(CompressedEdge::TERMINATOR.is_terminating());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompressedEdge(pub u32);

impl CompressedEdge {
    /// The shard-terminating marker appended after the last real edge.
    pub const TERMINATOR: CompressedEdge = CompressedEdge(1 << 31);

    /// Packs offsets into an edge word.
    ///
    /// # Panics
    ///
    /// Panics if `src_offset >= 2^16` or `dst_offset >= 2^15`.
    pub fn new(src_offset: u32, dst_offset: u32) -> Self {
        assert!(src_offset < MAX_NS, "source offset exceeds 16 bits");
        assert!(dst_offset < MAX_ND, "destination offset exceeds 15 bits");
        CompressedEdge((dst_offset << 16) | src_offset)
    }

    /// Source offset within the source interval (16 bits).
    pub fn src_offset(self) -> u32 {
        self.0 & 0xFFFF
    }

    /// Destination offset within the destination interval (15 bits).
    pub fn dst_offset(self) -> u32 {
        (self.0 >> 16) & 0x7FFF
    }

    /// `true` for the shard terminator.
    pub fn is_terminating(self) -> bool {
        self.0 >> 31 == 1
    }

    /// Raw 32-bit word as stored in DRAM.
    pub fn to_bits(self) -> u32 {
        self.0
    }

    /// Reconstructs an edge word from its DRAM representation.
    pub fn from_bits(bits: u32) -> Self {
        CompressedEdge(bits)
    }
}

/// All edges of one `(source interval, destination interval)` shard, in
/// arrival order, with optional parallel weights.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Shard {
    /// Compressed edges (without the terminator; the layout appends it).
    pub edges: Vec<CompressedEdge>,
    /// Per-edge weights when the graph is weighted.
    pub weights: Option<Vec<u32>>,
}

impl Shard {
    /// Number of real edges in the shard.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` when the shard holds no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Configuration of the interval partitioner: `Ns` and `Nd` may differ
/// because source and destination intervals serve different purposes
/// (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    ns: u32,
    nd: u32,
}

impl Partitioner {
    /// Creates a partitioner with source intervals of `ns` nodes and
    /// destination intervals of `nd` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is zero or exceeds 2^16, or `nd` is zero or exceeds
    /// 2^15 (the compressed-format offset widths).
    pub fn new(ns: u32, nd: u32) -> Self {
        assert!(ns > 0 && ns <= MAX_NS, "Ns must be in 1..=65536");
        assert!(nd > 0 && nd <= MAX_ND, "Nd must be in 1..=32768");
        Partitioner { ns, nd }
    }

    /// Source interval size.
    pub fn ns(&self) -> u32 {
        self.ns
    }

    /// Destination interval size.
    pub fn nd(&self) -> u32 {
        self.nd
    }

    /// `(Qs, Qd)`: the numbers of source and destination intervals of a
    /// graph with `num_nodes` nodes (at least one of each).
    pub fn intervals(&self, num_nodes: u32) -> (usize, usize) {
        (
            num_nodes.div_ceil(self.ns).max(1) as usize,
            num_nodes.div_ceil(self.nd).max(1) as usize,
        )
    }

    /// Index of the shard holding edge `s → d` when there are `qs` source
    /// intervals: d-major (`d_interval * qs + s_interval`) to match the
    /// job issue order.
    pub fn shard_index(&self, qs: usize, s: NodeId, d: NodeId) -> usize {
        (d / self.nd) as usize * qs + (s / self.ns) as usize
    }

    /// The compressed word of edge `s → d`: each endpoint's offset within
    /// its interval.
    pub fn compress(&self, s: NodeId, d: NodeId) -> CompressedEdge {
        CompressedEdge::new(s % self.ns, d % self.nd)
    }

    /// Partitions `g` into shards with a stable O(M) counting sort.
    pub fn partition(&self, g: &CooGraph) -> PartitionedGraph {
        let n = g.num_nodes();
        let (qs, qd) = self.intervals(n);
        let mut counts = vec![0usize; qs * qd];
        for &(s, d) in g.edges() {
            counts[self.shard_index(qs, s, d)] += 1;
        }
        let mut shards: Vec<Shard> = counts
            .iter()
            .map(|&c| Shard {
                edges: Vec::with_capacity(c),
                weights: g.is_weighted().then(|| Vec::with_capacity(c)),
            })
            .collect();
        for i in 0..g.num_edges() {
            let (s, d, w) = g.edge(i);
            let shard = &mut shards[self.shard_index(qs, s, d)];
            shard.edges.push(self.compress(s, d));
            if let Some(ws) = &mut shard.weights {
                ws.push(w);
            }
        }

        PartitionedGraph {
            ns: self.ns,
            nd: self.nd,
            qs,
            qd,
            num_nodes: n,
            weighted: g.is_weighted(),
            shards,
        }
    }
}

/// A graph partitioned into `Qs × Qd` shards, ready for layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedGraph {
    ns: u32,
    nd: u32,
    qs: usize,
    qd: usize,
    num_nodes: u32,
    weighted: bool,
    /// Shards in d-major order: index `d * qs + s`.
    shards: Vec<Shard>,
}

impl PartitionedGraph {
    /// Number of source intervals.
    pub fn qs(&self) -> usize {
        self.qs
    }

    /// Number of destination intervals.
    pub fn qd(&self) -> usize {
        self.qd
    }

    /// Source interval size.
    pub fn ns(&self) -> u32 {
        self.ns
    }

    /// Destination interval size.
    pub fn nd(&self) -> u32 {
        self.nd
    }

    /// Total node count.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// `true` when edges carry weights.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// The shard for source interval `s` and destination interval `d`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= qs` or `d >= qd`.
    pub fn shard(&self, s: usize, d: usize) -> &Shard {
        assert!(s < self.qs && d < self.qd, "shard index out of range");
        &self.shards[d * self.qs + s]
    }

    /// Total number of edges across all shards.
    pub fn total_edges(&self) -> u64 {
        self.shards.iter().map(|sh| sh.len() as u64).sum()
    }

    /// Iterates the shard's edges decompressed to `(src, dst, weight)`
    /// global node ids; weight is 1 when unweighted.
    pub fn iter_shard_edges(
        &self,
        s: usize,
        d: usize,
    ) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        let shard = self.shard(s, d);
        let s_base = s as u32 * self.ns;
        let d_base = d as u32 * self.nd;
        shard.edges.iter().enumerate().map(move |(i, e)| {
            let w = shard.weights.as_ref().map_or(1, |ws| ws[i]);
            (s_base + e.src_offset(), d_base + e.dst_offset(), w)
        })
    }

    /// Number of in-edges per destination interval — the per-job work used
    /// to study balance (§IV-E).
    pub fn in_edges_per_interval(&self) -> Vec<u64> {
        (0..self.qd)
            .map(|d| (0..self.qs).map(|s| self.shard(s, d).len() as u64).sum())
            .collect()
    }

    /// First node id of destination interval `d`.
    pub fn d_interval_base(&self, d: usize) -> u32 {
        d as u32 * self.nd
    }

    /// Number of nodes in destination interval `d` (the last interval may
    /// be short).
    pub fn d_interval_len(&self, d: usize) -> u32 {
        let base = self.d_interval_base(d);
        self.nd.min(self.num_nodes - base)
    }

    /// First node id of source interval `s`.
    pub fn s_interval_base(&self, s: usize) -> u32 {
        s as u32 * self.ns
    }
}

/// Assignment of the node-id space to `N` fabric devices.
///
/// Each device owns a contiguous slice of node ids aligned to
/// `lcm(Ns, Nd)`, so the slice is simultaneously a whole number of source
/// intervals and a whole number of destination intervals. A device holds
/// *all* in-edges of its owned destinations: every vertex's reduction runs
/// on exactly one device, in the same shard order as a single-device run,
/// which is what makes multi-device results bit-identical (PageRank's f32
/// accumulation is not associative, so splitting a vertex's in-edges
/// across devices would reassociate the sum).
///
/// Devices beyond the available alignment blocks own an empty slice; the
/// fabric keeps them at the barrier with no local work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceMap {
    ns: u32,
    nd: u32,
    num_nodes: u32,
    /// `bounds[i]..bounds[i + 1]` is the destination-interval range owned
    /// by device `i`; `bounds.len() == num_devices + 1`.
    bounds: Vec<usize>,
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl DeviceMap {
    /// Splits the node-id space of a graph partitioned by `partitioner`
    /// into `num_devices` contiguous aligned slices, balancing the number
    /// of destination intervals per device.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices` is zero.
    pub fn new(partitioner: Partitioner, num_nodes: u32, num_devices: usize) -> Self {
        assert!(num_devices > 0, "a fabric needs at least one device");
        let ns = partitioner.ns();
        let nd = partitioner.nd();
        let qd = num_nodes.div_ceil(nd).max(1) as usize;
        // Alignment granularity in destination intervals: device borders
        // must fall on multiples of lcm(Ns, Nd) node ids.
        let grain = (ns / gcd(ns, nd)) as usize;
        let blocks = qd.div_ceil(grain);
        let per = blocks / num_devices;
        let extra = blocks % num_devices;
        let mut bounds = Vec::with_capacity(num_devices + 1);
        bounds.push(0usize);
        let mut blk = 0usize;
        for i in 0..num_devices {
            blk += per + usize::from(i < extra);
            bounds.push((blk * grain).min(qd));
        }
        DeviceMap {
            ns,
            nd,
            num_nodes,
            bounds,
        }
    }

    /// Number of devices in the fabric.
    pub fn num_devices(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Destination intervals owned by device `dev`.
    pub fn device_d_intervals(&self, dev: usize) -> std::ops::Range<usize> {
        self.bounds[dev]..self.bounds[dev + 1]
    }

    /// Source intervals covering device `dev`'s owned node range. Exact
    /// because device borders are `lcm(Ns, Nd)`-aligned.
    pub fn device_s_intervals(&self, dev: usize) -> std::ops::Range<usize> {
        let nodes = self.device_nodes(dev);
        (nodes.start / self.ns) as usize..(nodes.end.div_ceil(self.ns)) as usize
    }

    /// Node ids owned by device `dev` (empty for surplus devices).
    pub fn device_nodes(&self, dev: usize) -> std::ops::Range<u32> {
        let d = self.device_d_intervals(dev);
        let start = (d.start as u32 * self.nd).min(self.num_nodes);
        let end = (d.end as u32 * self.nd).min(self.num_nodes);
        start..end
    }

    /// The device owning node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the node-id space.
    pub fn owner_of_node(&self, v: NodeId) -> usize {
        assert!(v < self.num_nodes, "node id out of range");
        let di = (v / self.nd) as usize;
        self.owner_of_d_interval(di)
    }

    /// The device owning destination interval `di`.
    ///
    /// # Panics
    ///
    /// Panics if `di` is not a valid destination interval.
    pub fn owner_of_d_interval(&self, di: usize) -> usize {
        assert!(di < *self.bounds.last().unwrap(), "interval out of range");
        // bounds is sorted; find the device whose range contains di.
        match self.bounds.binary_search(&di) {
            // di is the first interval of some boundary; boundaries of
            // empty devices repeat, so take the last match.
            Ok(mut i) => {
                while i + 1 < self.bounds.len() && self.bounds[i + 1] == di {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        }
    }

    /// Extracts device `dev`'s local subgraph: the full node-id space, but
    /// only the edges whose destination the device owns, in the original
    /// edge order (so per-shard edge order — and therefore every f32
    /// reduction order — matches the single-device partition exactly).
    ///
    /// Devices never materialise this copy: `LayoutBuilder` streams the
    /// owned edges straight into each device's image. It stays as the
    /// reference the layout tests compare against.
    pub fn extract_local(&self, g: &CooGraph, dev: usize) -> CooGraph {
        let nodes = self.device_nodes(dev);
        let mut edges = Vec::new();
        let mut weights = g.is_weighted().then(Vec::new);
        for i in 0..g.num_edges() {
            let (s, d, w) = g.edge(i);
            if nodes.contains(&d) {
                edges.push((s, d));
                if let Some(ws) = &mut weights {
                    ws.push(w);
                }
            }
        }
        match weights {
            Some(ws) => CooGraph::from_weighted_edges(g.num_nodes(), edges, ws),
            None => CooGraph::from_edges(g.num_nodes(), edges),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphSpec;

    #[test]
    fn compressed_edge_round_trip() {
        for (s, d) in [(0u32, 0u32), (65535, 32767), (1, 2), (40000, 20000)] {
            let e = CompressedEdge::new(s, d);
            assert_eq!(e.src_offset(), s);
            assert_eq!(e.dst_offset(), d);
            assert!(!e.is_terminating());
            assert_eq!(CompressedEdge::from_bits(e.to_bits()), e);
        }
    }

    #[test]
    #[should_panic(expected = "16 bits")]
    fn src_offset_too_large_panics() {
        let _ = CompressedEdge::new(1 << 16, 0);
    }

    #[test]
    #[should_panic(expected = "15 bits")]
    fn dst_offset_too_large_panics() {
        let _ = CompressedEdge::new(0, 1 << 15);
    }

    #[test]
    fn partition_preserves_all_edges() {
        let g = GraphSpec::rmat(10, 8).build(3);
        let p = Partitioner::new(256, 128).partition(&g);
        assert_eq!(p.total_edges(), g.num_edges() as u64);
        assert_eq!(p.qs(), 4);
        assert_eq!(p.qd(), 8);

        // Every original edge appears exactly once when decompressed.
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for d in 0..p.qd() {
            for s in 0..p.qs() {
                for (src, dst, _) in p.iter_shard_edges(s, d) {
                    assert_eq!(src / 256, s as u32);
                    assert_eq!(dst / 128, d as u32);
                    seen.push((src, dst));
                }
            }
        }
        let mut orig: Vec<(u32, u32)> = g.edges().to_vec();
        orig.sort_unstable();
        seen.sort_unstable();
        assert_eq!(orig, seen);
    }

    #[test]
    fn partition_is_stable_within_shard() {
        // Edges that fall in the same shard keep their input order.
        let g = CooGraph::from_edges(8, vec![(0, 1), (1, 0), (0, 2), (1, 3)]);
        let p = Partitioner::new(8, 8).partition(&g);
        let edges: Vec<_> = p.iter_shard_edges(0, 0).collect();
        assert_eq!(edges, vec![(0, 1, 1), (1, 0, 1), (0, 2, 1), (1, 3, 1)]);
    }

    #[test]
    fn weighted_partition_carries_weights() {
        let g = CooGraph::from_weighted_edges(4, vec![(0, 1), (2, 3)], vec![10, 20]);
        let p = Partitioner::new(2, 2).partition(&g);
        assert!(p.is_weighted());
        let e: Vec<_> = p.iter_shard_edges(0, 0).collect();
        assert_eq!(e, vec![(0, 1, 10)]);
        let e: Vec<_> = p.iter_shard_edges(1, 1).collect();
        assert_eq!(e, vec![(2, 3, 20)]);
    }

    #[test]
    fn interval_lens_handle_ragged_tail() {
        let g = CooGraph::from_edges(10, vec![]);
        let p = Partitioner::new(4, 4).partition(&g);
        assert_eq!(p.qd(), 3);
        assert_eq!(p.d_interval_len(0), 4);
        assert_eq!(p.d_interval_len(2), 2);
    }

    #[test]
    fn in_edge_balance_reporting() {
        let g = CooGraph::from_edges(4, vec![(0, 0), (1, 0), (2, 0), (3, 3)]);
        let p = Partitioner::new(4, 2).partition(&g);
        assert_eq!(p.in_edges_per_interval(), vec![3, 1]);
    }

    #[test]
    fn max_interval_sizes_round_trip() {
        // Intervals at the format limits: offsets occupy the full 16/15
        // bits and still decompress to the right global ids.
        let edges = vec![
            (0, 0),
            (MAX_NS - 1, MAX_ND - 1),      // last offsets of shard (0, 0)
            (MAX_NS - 1, MAX_NS - 1),      // dst interval 1, offset MAX_ND-1
            (MAX_NS - 1, MAX_NS - MAX_ND), // dst interval 1, offset 0
        ];
        let g = CooGraph::from_edges(MAX_NS, edges.clone());
        let p = Partitioner::new(MAX_NS, MAX_ND).partition(&g);
        assert_eq!(p.qs(), 1);
        assert_eq!(p.qd(), 2);
        assert_eq!(p.total_edges(), edges.len() as u64);
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for d in 0..p.qd() {
            seen.extend(p.iter_shard_edges(0, d).map(|(s, dd, _)| (s, dd)));
        }
        seen.sort_unstable();
        let mut want = edges;
        want.sort_unstable();
        assert_eq!(seen, want);
    }

    #[test]
    fn empty_shards_are_represented() {
        // A single self-loop at node 0 leaves every other shard present
        // but empty.
        let g = CooGraph::from_edges(16, vec![(0, 0)]);
        let p = Partitioner::new(4, 4).partition(&g);
        assert_eq!(p.qs(), 4);
        assert_eq!(p.qd(), 4);
        for d in 0..p.qd() {
            for s in 0..p.qs() {
                let sh = p.shard(s, d);
                if (s, d) == (0, 0) {
                    assert_eq!(sh.len(), 1);
                    assert!(!sh.is_empty());
                } else {
                    assert!(sh.is_empty(), "shard ({s},{d}) should be empty");
                    assert_eq!(p.iter_shard_edges(s, d).count(), 0);
                }
            }
        }
    }

    #[test]
    fn terminator_round_trips_through_bits() {
        let t = CompressedEdge::TERMINATOR;
        assert!(t.is_terminating());
        assert_eq!(t.src_offset(), 0);
        assert_eq!(t.dst_offset(), 0);
        let back = CompressedEdge::from_bits(t.to_bits());
        assert_eq!(back, t);
        assert!(back.is_terminating());
        // No real edge word is ever terminating.
        let e = CompressedEdge::new(MAX_NS - 1, MAX_ND - 1);
        assert!(!e.is_terminating());
        assert!(!CompressedEdge::from_bits(e.to_bits()).is_terminating());
    }

    #[test]
    fn device_map_covers_every_edge_exactly_once() {
        let g = GraphSpec::rmat(11, 8).build(7);
        let partitioner = Partitioner::new(256, 128);
        for num_devices in [1usize, 2, 3, 4, 8] {
            let map = DeviceMap::new(partitioner, g.num_nodes(), num_devices);
            assert_eq!(map.num_devices(), num_devices);
            let mut seen: Vec<(u32, u32)> = Vec::new();
            for dev in 0..num_devices {
                let local = map.extract_local(&g, dev);
                assert_eq!(local.num_nodes(), g.num_nodes());
                let p = partitioner.partition(&local);
                for d in 0..p.qd() {
                    for s in 0..p.qs() {
                        for (src, dst, _) in p.iter_shard_edges(s, d) {
                            assert_eq!(map.owner_of_node(dst), dev);
                            seen.push((src, dst));
                        }
                    }
                }
            }
            let mut orig: Vec<(u32, u32)> = g.edges().to_vec();
            orig.sort_unstable();
            seen.sort_unstable();
            assert_eq!(seen, orig, "devices={num_devices}");
        }
    }

    #[test]
    fn device_map_slices_are_aligned_and_contiguous() {
        // Ns = 8, Nd = 4: borders must fall on lcm = 8 node ids, i.e.
        // every device slice is whole source *and* destination intervals.
        let map = DeviceMap::new(Partitioner::new(8, 4), 50, 3);
        let mut expect_start = 0u32;
        for dev in 0..map.num_devices() {
            let nodes = map.device_nodes(dev);
            assert_eq!(nodes.start, expect_start, "slices must be contiguous");
            assert_eq!(nodes.start % 8, 0, "device border must be Ns-aligned");
            expect_start = nodes.end;
            let s = map.device_s_intervals(dev);
            let d = map.device_d_intervals(dev);
            assert_eq!(s.start as u32 * 8, nodes.start);
            assert_eq!(d.start as u32 * 4, nodes.start.min(48));
            for v in nodes.clone() {
                assert_eq!(map.owner_of_node(v), dev);
            }
        }
        assert_eq!(expect_start, 50, "every node must be owned");
    }

    #[test]
    fn device_map_surplus_devices_own_nothing() {
        // 8 nodes in one lcm(4, 4) = 4-id grain → 2 blocks over 4 devices:
        // devices 2 and 3 are surplus.
        let map = DeviceMap::new(Partitioner::new(4, 4), 8, 4);
        assert!(!map.device_nodes(0).is_empty());
        assert!(!map.device_nodes(1).is_empty());
        assert!(map.device_nodes(2).is_empty());
        assert!(map.device_nodes(3).is_empty());
        let g = CooGraph::from_edges(8, vec![(0, 7), (7, 0)]);
        assert_eq!(map.extract_local(&g, 2).num_edges(), 0);
        assert_eq!(map.owner_of_node(0), 0);
        assert_eq!(map.owner_of_node(7), 1);
    }

    #[test]
    fn device_map_with_more_devices_than_vertices() {
        // 3 nodes across 8 devices: one lcm(2, 2) = 2-id grain gives two
        // blocks, so at most two devices own nodes and the rest are
        // surplus. Ownership must still cover every node exactly once.
        let map = DeviceMap::new(Partitioner::new(2, 2), 3, 8);
        assert_eq!(map.num_devices(), 8);
        let mut owned = 0u32;
        for dev in 0..8 {
            let nodes = map.device_nodes(dev);
            owned += nodes.end - nodes.start;
            for v in nodes {
                assert_eq!(map.owner_of_node(v), dev);
            }
        }
        assert_eq!(owned, 3, "every node owned exactly once");
        // Surplus devices extract empty locals without panicking.
        let g = CooGraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let mut edges = 0;
        for dev in 0..8 {
            edges += map.extract_local(&g, dev).num_edges();
        }
        assert_eq!(edges, 3);
    }

    #[test]
    fn device_map_single_vertex_graph() {
        // The degenerate 1-node graph: one destination interval, one
        // block; device 0 owns the node, everyone else is surplus.
        for num_devices in [1usize, 2, 4] {
            let map = DeviceMap::new(Partitioner::new(4, 4), 1, num_devices);
            assert_eq!(map.num_devices(), num_devices);
            assert_eq!(map.device_nodes(0), 0..1);
            assert_eq!(map.owner_of_node(0), 0);
            assert_eq!(map.owner_of_d_interval(0), 0);
            for dev in 1..num_devices {
                assert!(map.device_nodes(dev).is_empty());
                assert!(map.device_d_intervals(dev).is_empty());
            }
            let g = CooGraph::from_edges(1, vec![(0, 0)]);
            assert_eq!(map.extract_local(&g, 0).num_edges(), 1);
        }
    }

    #[test]
    fn device_map_preserves_weights_and_edge_order() {
        let g = CooGraph::from_weighted_edges(
            8,
            vec![(0, 4), (1, 4), (0, 0), (2, 4)],
            vec![10, 20, 30, 40],
        );
        let map = DeviceMap::new(Partitioner::new(4, 4), 8, 2);
        let local = map.extract_local(&g, 1);
        assert!(local.is_weighted());
        assert_eq!(local.num_edges(), 3);
        // Original order among the surviving edges is preserved.
        assert_eq!(local.edge(0), (0, 4, 10));
        assert_eq!(local.edge(1), (1, 4, 20));
        assert_eq!(local.edge(2), (2, 4, 40));
    }
}
