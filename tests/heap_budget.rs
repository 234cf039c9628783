//! Host-memory budget of a `System`: it holds its graph image plus fixed
//! MOMS, DRAM and PE state, and nothing else that grows with the edge
//! count. Construction streams the graph into the image, a MOMS costs a
//! handful of allocations per bank, and `finish` allocates little beyond
//! the values it returns.
//!
//! A counting global allocator keeps live bytes, their peak, and the
//! allocation count per thread, so tests running on parallel threads do
//! not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use accel::{System, SystemConfig};
use algos::Algorithm;
use graph::layout::{LayoutBuilder, LayoutInit};
use graph::{CooGraph, GraphSpec, Partitioner};
use moms::MomsSystem;

struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Books `delta` live bytes, and one allocation when `alloc`, to the
/// current thread. `try_with` keeps allocations made during thread
/// teardown from panicking.
fn book(delta: i64, alloc: bool) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
    if alloc {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to the system allocator with the caller's
// arguments unchanged, so its guarantees carry over; the thread-local
// counters only observe sizes and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { Heap.alloc(layout) };
        if !p.is_null() {
            book(layout.size() as i64, true);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { Heap.alloc_zeroed(layout) };
        if !p.is_null() {
            book(layout.size() as i64, true);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { Heap.dealloc(ptr, layout) };
        book(-(layout.size() as i64), false);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { Heap.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            book(new_size as i64 - layout.size() as i64, true);
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What one closure did to this thread's heap: bytes it still held on
/// return, its peak above the starting point, and allocations made.
#[derive(Debug)]
struct Usage {
    retained: i64,
    peak: i64,
    allocs: u64,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    let live0 = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live0));
    let allocs0 = ALLOCS.with(Cell::get);
    let out = f();
    let usage = Usage {
        retained: LIVE.with(Cell::get) - live0,
        peak: PEAK.with(Cell::get) - live0,
        allocs: ALLOCS.with(Cell::get) - allocs0,
    };
    (out, usage)
}

const KIB: i64 = 1 << 10;

fn partitioner() -> Partitioner {
    Partitioner::new(256, 256)
}

/// Bytes of the image `System::new` lays out for `g` under `algo`.
fn image_bytes(g: &CooGraph, algo: Algorithm) -> i64 {
    let init = LayoutInit {
        vin: algo.initial_vin(g),
        vconst: algo.vconst(g),
        synchronous: algo.synchronous(),
    };
    let (gi, _) = LayoutBuilder::build(g, partitioner(), 0..g.num_nodes(), &init);
    gi.total_bytes() as i64
}

#[test]
fn system_new_holds_the_image_and_fixed_state_only() {
    let algo = Algorithm::pagerank();
    let cfg = SystemConfig::small();
    let (moms, moms_usage) = measure(|| MomsSystem::new(cfg.moms.clone()));
    drop(moms);
    let mut fixed = Vec::new();
    for degree in [2, 32] {
        let g = GraphSpec::rmat(13, degree).build(9);
        let image = image_bytes(&g, algo);
        let (sys, usage) = measure(|| System::new(&g, partitioner(), algo, cfg.clone()));
        drop(sys);
        let beyond = usage.retained - image - moms_usage.retained;
        let what = format!("degree {degree}: image {image} B, MOMS {moms_usage:?}, {usage:?}");
        assert!(
            beyond <= 256 * KIB * cfg.num_pes() as i64,
            "{what}: {beyond} B held beyond image and MOMS"
        );
        // Transients: V_in, V_const and out-degrees are O(nodes), the
        // shard counters O(shards); nothing is O(edges).
        let nodes = g.num_nodes() as i64;
        let shards = (g.num_nodes() as i64 / 256).pow(2);
        assert!(
            usage.peak <= usage.retained + 12 * nodes + 8 * shards + 64 * KIB,
            "{what}: transient peak"
        );
        fixed.push(beyond);
    }
    // Sixteen times the edges over the same nodes: nothing outside the
    // image may grow.
    assert!(
        (fixed[1] - fixed[0]).abs() <= KIB,
        "state beyond the image grew with the edge count: {fixed:?}"
    );
}

#[test]
fn moms_system_new_allocates_per_bank_not_per_row() {
    let cfg = SystemConfig::small().moms;
    let banks = (cfg.num_pes + cfg.shared_banks) as u64;
    let (_moms, usage) = measure(|| MomsSystem::new(cfg.clone()));
    assert!(
        usage.allocs <= 32 * banks,
        "{usage:?} for {banks} banks: subentry rows must not allocate one by one"
    );
}

#[test]
fn finish_allocates_only_the_returned_values() {
    let algo = Algorithm::pagerank();
    let g = GraphSpec::rmat(14, 2).build(3);
    let n = g.num_nodes() as i64;
    let mut sys = System::new(&g, partitioner(), algo, SystemConfig::small());
    let (r, usage) = measure(|| sys.finish(0, 0));
    // Nothing ran, so the values are the finalised initial vector.
    assert_eq!(r.values, algo.finalize(&g, &algo.initial_vin(&g)));
    assert!(usage.peak <= 4 * n + 64 * KIB, "{usage:?} for {n} nodes");
}
