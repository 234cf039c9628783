//! The on-DRAM graph layout of Fig. 4: vertex arrays, shards of compressed
//! edges, and 64-bit edge pointers.

use std::ops::Range;

use dram::MemImage;

use crate::coo::{CooGraph, NodeId};
use crate::partition::{CompressedEdge, Partitioner};

/// Bytes per DRAM line; shards are line-aligned so edge bursts start on a
/// line boundary.
const LINE: u64 = 64;

/// Bits of the edge-pointer word holding the shard address (in 4-byte
/// words).
const PTR_ADDR_BITS: u64 = 40;

/// Bits of the edge-pointer word holding the shard's edge count.
const PTR_COUNT_BITS: u64 = 23;

/// A packed 64-bit edge pointer: shard start address, edge count, and the
/// `active_srcs` flag ("all this fits into 64 bits", §III-C).
///
/// Bit layout: `[63] active | [62:40] edge count | [39:0] word address`.
///
/// # Example
///
/// ```
/// use graph::layout::EdgePointer;
/// let p = EdgePointer::new(0x1000, 57, true);
/// assert_eq!(p.byte_addr(), 0x1000);
/// assert_eq!(p.edge_count(), 57);
/// assert!(p.active());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgePointer(pub u64);

impl EdgePointer {
    /// Packs a pointer.
    ///
    /// # Panics
    ///
    /// Panics if `byte_addr` is not 4-byte aligned, exceeds 2^42 bytes, or
    /// `edges` exceeds 2^23.
    pub fn new(byte_addr: u64, edges: u64, active: bool) -> Self {
        assert_eq!(byte_addr % 4, 0, "shard address must be word aligned");
        let word = byte_addr / 4;
        assert!(word < 1 << PTR_ADDR_BITS, "shard address exceeds 40 bits");
        assert!(edges < 1 << PTR_COUNT_BITS, "edge count exceeds 23 bits");
        EdgePointer((active as u64) << 63 | edges << PTR_ADDR_BITS | word)
    }

    /// Shard start address in bytes.
    pub fn byte_addr(self) -> u64 {
        (self.0 & ((1 << PTR_ADDR_BITS) - 1)) * 4
    }

    /// Number of real edges in the shard (terminator excluded).
    pub fn edge_count(self) -> u64 {
        (self.0 >> PTR_ADDR_BITS) & ((1 << PTR_COUNT_BITS) - 1)
    }

    /// The `active_srcs` flag: when clear, the PE skips the shard entirely
    /// (line 10 of Template 1).
    pub fn active(self) -> bool {
        self.0 >> 63 == 1
    }

    /// Returns this pointer with the active flag replaced.
    pub fn with_active(self, active: bool) -> Self {
        EdgePointer(self.0 & !(1 << 63) | (active as u64) << 63)
    }
}

/// Initial vertex-array contents for the layout.
///
/// Values are raw 32-bit patterns; floating-point algorithms pass
/// `f32::to_bits` values. This keeps the layout independent of any specific
/// algorithm (Table I plugs in here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutInit {
    /// Initial `V_DRAM,in[i]` for every node.
    pub vin: Vec<u32>,
    /// Per-node constant vector `V_const` (e.g. out-degrees for PageRank).
    pub vconst: Option<Vec<u32>>,
    /// `true` allocates a distinct `V_DRAM,out` (synchronous execution);
    /// `false` aliases it onto `V_DRAM,in` (asynchronous execution).
    pub synchronous: bool,
}

/// Addresses and geometry of a graph laid out in a [`MemImage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphImage {
    num_nodes: u32,
    qs: usize,
    qd: usize,
    ns: u32,
    nd: u32,
    weighted: bool,
    synchronous: bool,
    vin_addr: u64,
    vconst_addr: Option<u64>,
    vout_addr: u64,
    ptrs_addr: u64,
    total_bytes: u64,
}

impl GraphImage {
    /// Number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of source intervals.
    pub fn qs(&self) -> usize {
        self.qs
    }

    /// Number of destination intervals.
    pub fn qd(&self) -> usize {
        self.qd
    }

    /// Source interval size in nodes.
    pub fn ns(&self) -> u32 {
        self.ns
    }

    /// Destination interval size in nodes.
    pub fn nd(&self) -> u32 {
        self.nd
    }

    /// `true` when each edge carries a 32-bit weight word.
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// `true` when `V_DRAM,out` is distinct from `V_DRAM,in`.
    pub fn is_synchronous(&self) -> bool {
        self.synchronous
    }

    /// Byte address of `V_DRAM,in[node]`.
    pub fn node_in_addr(&self, node: u32) -> u64 {
        self.vin_addr + node as u64 * 4
    }

    /// Byte address of `V_const[node]`.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no constant vector.
    pub fn node_const_addr(&self, node: u32) -> u64 {
        self.vconst_addr.expect("layout has no V_const") + node as u64 * 4
    }

    /// `true` when the layout carries a `V_const` array.
    pub fn has_const(&self) -> bool {
        self.vconst_addr.is_some()
    }

    /// Byte address of `V_DRAM,out[node]` (same as `node_in_addr` when
    /// asynchronous).
    pub fn node_out_addr(&self, node: u32) -> u64 {
        self.vout_addr + node as u64 * 4
    }

    /// Byte address of the edge pointer for `(d, s)`; pointers for one
    /// destination interval are contiguous so a PE fetches them in one
    /// burst.
    pub fn edge_ptr_addr(&self, d: usize, s: usize) -> u64 {
        self.ptrs_addr + (d * self.qs + s) as u64 * 8
    }

    /// Reads the `(d, s)` edge pointer from the image.
    pub fn edge_ptr(&self, img: &MemImage, d: usize, s: usize) -> EdgePointer {
        EdgePointer(img.read_u64(self.edge_ptr_addr(d, s)))
    }

    /// Rewrites the active flag of the `(d, s)` edge pointer.
    pub fn set_active(&self, img: &mut MemImage, d: usize, s: usize, active: bool) {
        let a = self.edge_ptr_addr(d, s);
        let p = EdgePointer(img.read_u64(a)).with_active(active);
        img.write_u64(a, p.0);
    }

    /// Swaps `V_DRAM,in` and `V_DRAM,out` (synchronous iteration boundary).
    ///
    /// # Panics
    ///
    /// Panics for asynchronous layouts, where the arrays alias.
    pub fn swap_io(&mut self) {
        assert!(self.synchronous, "async layouts alias in/out");
        std::mem::swap(&mut self.vin_addr, &mut self.vout_addr);
    }

    /// Total image footprint in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Reads the final value of every node from `V_DRAM,out` as raw bits.
    pub fn read_out_values(&self, img: &MemImage) -> Vec<u32> {
        (0..self.num_nodes)
            .map(|i| img.read_u32(self.node_out_addr(i)))
            .collect()
    }

    /// Decodes the `(d, s)` shard back to `(src, dst, weight)` global node
    /// ids in stored order; the weight is 1 when unweighted, as in
    /// [`PartitionedGraph::iter_shard_edges`](crate::PartitionedGraph::iter_shard_edges).
    pub fn shard_edges<'a>(
        &'a self,
        img: &'a MemImage,
        d: usize,
        s: usize,
    ) -> impl Iterator<Item = (NodeId, NodeId, u32)> + 'a {
        let p = self.edge_ptr(img, d, s);
        let edge_bytes = if self.weighted { 8 } else { 4 };
        let (s_base, d_base) = (s as u32 * self.ns, d as u32 * self.nd);
        (0..p.edge_count()).map(move |i| {
            let a = p.byte_addr() + i * edge_bytes;
            let e = CompressedEdge::from_bits(img.read_u32(a));
            let w = if self.weighted {
                img.read_u32(a + 4)
            } else {
                1
            };
            (s_base + e.src_offset(), d_base + e.dst_offset(), w)
        })
    }
}

/// Builds the Fig. 4 memory layout straight from a graph.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayoutBuilder;

impl LayoutBuilder {
    /// Lays out vertex arrays, the shards of every edge of `g` whose
    /// destination lies in `owned` (with terminators), and edge pointers;
    /// returns the geometry plus the populated image.
    ///
    /// Construction streams into the image: one pass over the edges
    /// counts each shard, a second writes every compressed edge (and its
    /// weight) into its shard's next slot in the graph's edge order, the
    /// order [`Partitioner::partition`] gives each shard. Beyond the image
    /// it allocates one word per shard. A single device owns
    /// `0..g.num_nodes()`; a fabric device owns its
    /// [`DeviceMap::device_nodes`](crate::partition::DeviceMap::device_nodes)
    /// and still holds every node's values.
    ///
    /// All edge pointers start with `active = true` (every source interval
    /// is active in iteration 0).
    ///
    /// # Panics
    ///
    /// Panics if `init.vin` (or `init.vconst`) length differs from the
    /// graph's node count.
    pub fn build(
        g: &CooGraph,
        partitioner: Partitioner,
        owned: Range<NodeId>,
        init: &LayoutInit,
    ) -> (GraphImage, MemImage) {
        let n = g.num_nodes() as u64;
        assert_eq!(init.vin.len() as u64, n, "one initial value per node");
        if let Some(c) = &init.vconst {
            assert_eq!(c.len() as u64, n, "one constant per node");
        }
        let (qs, qd) = partitioner.intervals(g.num_nodes());

        let align = |a: u64| a.div_ceil(LINE) * LINE;

        let vin_addr = 0u64;
        let mut cursor = align(n * 4);
        let vconst_addr = init.vconst.as_ref().map(|_| {
            let a = cursor;
            cursor = align(cursor + n * 4);
            a
        });
        let vout_addr = if init.synchronous {
            let a = cursor;
            cursor = align(cursor + n * 4);
            a
        } else {
            vin_addr
        };

        // Pass 1: edges per shard, d-major to match job issue order.
        let mut shard_slot = vec![0u64; qs * qd];
        for &(s, d) in g.edges() {
            if owned.contains(&d) {
                shard_slot[partitioner.shard_index(qs, s, d)] += 1;
            }
        }
        // A shard holds its edges plus a terminator, padded to a line.
        let edge_bytes: u64 = if g.is_weighted() { 8 } else { 4 };
        let shard_bytes = |edges: u64| align((edges + 1) * edge_bytes);
        let shards_addr = cursor;
        cursor += shard_slot.iter().map(|&c| shard_bytes(c)).sum::<u64>();
        let ptrs_addr = cursor;
        cursor = align(cursor + shard_slot.len() as u64 * 8);
        let total_bytes = cursor;

        let mut img = MemImage::new(total_bytes as usize);

        // Vertex arrays.
        for (i, &v) in init.vin.iter().enumerate() {
            img.write_u32(vin_addr + i as u64 * 4, v);
        }
        if let (Some(ca), Some(cv)) = (vconst_addr, init.vconst.as_ref()) {
            for (i, &v) in cv.iter().enumerate() {
                img.write_u32(ca + i as u64 * 4, v);
            }
        }
        if init.synchronous {
            // V_DRAM,out starts as a copy so that inactive intervals keep
            // valid values after the swap.
            for (i, &v) in init.vin.iter().enumerate() {
                img.write_u32(vout_addr + i as u64 * 4, v);
            }
        }

        // Edge pointers, all active, and terminators (the dummy weight
        // after a weighted terminator stays zero). Each shard's edge count
        // then becomes its write cursor.
        let mut addr = shards_addr;
        for (idx, slot) in shard_slot.iter_mut().enumerate() {
            let edges = *slot;
            let p = EdgePointer::new(addr, edges, true);
            img.write_u64(ptrs_addr + idx as u64 * 8, p.0);
            img.write_u32(
                addr + edges * edge_bytes,
                CompressedEdge::TERMINATOR.to_bits(),
            );
            *slot = addr;
            addr += shard_bytes(edges);
        }

        // Pass 2: every edge into its shard's next slot, in edge order.
        for i in 0..g.num_edges() {
            let (s, d, w) = g.edge(i);
            if !owned.contains(&d) {
                continue;
            }
            let slot = &mut shard_slot[partitioner.shard_index(qs, s, d)];
            img.write_u32(*slot, partitioner.compress(s, d).to_bits());
            if g.is_weighted() {
                img.write_u32(*slot + 4, w);
            }
            *slot += edge_bytes;
        }

        let gi = GraphImage {
            num_nodes: g.num_nodes(),
            qs,
            qd,
            ns: partitioner.ns(),
            nd: partitioner.nd(),
            weighted: g.is_weighted(),
            synchronous: init.synchronous,
            vin_addr,
            vconst_addr,
            vout_addr,
            ptrs_addr,
            total_bytes,
        };
        (gi, img)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphSpec;
    use crate::partition::PartitionedGraph;

    fn simple_layout(synchronous: bool) -> (GraphImage, MemImage, PartitionedGraph) {
        let g = CooGraph::from_edges(8, vec![(0, 4), (1, 5), (6, 2), (7, 3), (0, 0)]);
        let partitioner = Partitioner::new(4, 4);
        let init = LayoutInit {
            vin: (0..8).map(|i| i * 10).collect(),
            vconst: None,
            synchronous,
        };
        let (gi, img) = LayoutBuilder::build(&g, partitioner, 0..8, &init);
        (gi, img, partitioner.partition(&g))
    }

    #[test]
    fn edge_pointer_round_trip() {
        let p = EdgePointer::new(0x12345678 & !3, 7 << 10, false);
        assert_eq!(p.byte_addr(), 0x12345678 & !3);
        assert_eq!(p.edge_count(), 7 << 10);
        assert!(!p.active());
        assert!(p.with_active(true).active());
        assert_eq!(p.with_active(true).byte_addr(), p.byte_addr());
    }

    #[test]
    #[should_panic(expected = "word aligned")]
    fn pointer_rejects_unaligned_addr() {
        let _ = EdgePointer::new(2, 0, true);
    }

    #[test]
    fn vertex_values_land_at_node_addresses() {
        let (gi, img, _) = simple_layout(false);
        for i in 0..8u32 {
            assert_eq!(img.read_u32(gi.node_in_addr(i)), i * 10);
        }
        // Async: out aliases in.
        assert_eq!(gi.node_out_addr(3), gi.node_in_addr(3));
    }

    #[test]
    fn synchronous_layout_copies_out_array() {
        let (gi, img, _) = simple_layout(true);
        assert_ne!(gi.node_out_addr(0), gi.node_in_addr(0));
        for i in 0..8u32 {
            assert_eq!(img.read_u32(gi.node_out_addr(i)), i * 10);
        }
    }

    #[test]
    fn swap_io_exchanges_arrays() {
        let (mut gi, _, _) = simple_layout(true);
        let in0 = gi.node_in_addr(0);
        let out0 = gi.node_out_addr(0);
        gi.swap_io();
        assert_eq!(gi.node_in_addr(0), out0);
        assert_eq!(gi.node_out_addr(0), in0);
    }

    #[test]
    #[should_panic(expected = "alias")]
    fn swap_io_rejected_for_async() {
        let (mut gi, _, _) = simple_layout(false);
        gi.swap_io();
    }

    #[test]
    fn shards_terminate_and_decode() {
        let (gi, img, parts) = simple_layout(false);
        for d in 0..gi.qd() {
            for s in 0..gi.qs() {
                let p = gi.edge_ptr(&img, d, s);
                assert!(p.active());
                assert_eq!(p.edge_count(), parts.shard(s, d).len() as u64);
                // Walk the words: edge_count real edges then a terminator.
                let mut a = p.byte_addr();
                for _ in 0..p.edge_count() {
                    let e = CompressedEdge::from_bits(img.read_u32(a));
                    assert!(!e.is_terminating());
                    a += 4;
                }
                assert!(CompressedEdge::from_bits(img.read_u32(a)).is_terminating());
                assert!(gi.shard_edges(&img, d, s).eq(parts.iter_shard_edges(s, d)));
            }
        }
    }

    #[test]
    fn weighted_layout_interleaves_weights() {
        let g = CooGraph::from_weighted_edges(4, vec![(0, 1), (1, 2)], vec![111, 222]);
        let init = LayoutInit {
            vin: vec![0; 4],
            vconst: None,
            synchronous: false,
        };
        let (gi, img) = LayoutBuilder::build(&g, Partitioner::new(4, 4), 0..4, &init);
        let p = gi.edge_ptr(&img, 0, 0);
        let a = p.byte_addr();
        assert!(!CompressedEdge::from_bits(img.read_u32(a)).is_terminating());
        assert_eq!(img.read_u32(a + 4), 111);
        assert_eq!(img.read_u32(a + 12), 222);
        assert!(CompressedEdge::from_bits(img.read_u32(a + 16)).is_terminating());
    }

    #[test]
    fn active_flag_round_trip() {
        let (gi, mut img, _) = simple_layout(false);
        gi.set_active(&mut img, 0, 1, false);
        assert!(!gi.edge_ptr(&img, 0, 1).active());
        // Address and count survive the flag rewrite.
        let p = gi.edge_ptr(&img, 0, 1);
        gi.set_active(&mut img, 0, 1, true);
        let q = gi.edge_ptr(&img, 0, 1);
        assert_eq!(p.byte_addr(), q.byte_addr());
        assert_eq!(p.edge_count(), q.edge_count());
        assert!(q.active());
    }

    #[test]
    fn shards_are_line_aligned() {
        let g = GraphSpec::rmat(8, 4).build(2);
        let init = LayoutInit {
            vin: vec![0; 256],
            vconst: None,
            synchronous: true,
        };
        let (gi, img) = LayoutBuilder::build(&g, Partitioner::new(64, 64), 0..256, &init);
        for d in 0..gi.qd() {
            for s in 0..gi.qs() {
                assert_eq!(gi.edge_ptr(&img, d, s).byte_addr() % 64, 0);
            }
        }
    }
}
