//! The footprint of `Engine::graph` on a known fleet, read from the
//! allocator: the snapshot keeps 4 B per edge and at most 32 B per node
//! (ids, row offsets, indegrees and its id index), and building it never
//! holds more than that plus one row of scratch. A per-node buffer shows
//! as thousands of allocations; a second copy of the edges shows as 4 B
//! per edge more at the high-water mark.
//!
//! The counting allocator is process-wide, so this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sandf_core::{NodeId, SfConfig};
use sandf_sim::{topology, Engine, FlatSimulation, ParSimulation, UniformLoss};

/// `System`, counting live bytes, their high-water mark and allocations.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` with the caller's layout;
// the counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Snapshots `engine`'s graph, checking what the snapshot keeps and what
/// building it held at its high-water mark.
fn assert_footprint(engine: &impl Engine, s: usize, label: &str) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let graph = engine.graph();
    let (kept, peak) =
        (LIVE.load(Ordering::Relaxed) - before, PEAK.load(Ordering::Relaxed) - before);
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - allocations;

    let (n, edges) = (graph.node_count(), graph.edge_count());
    assert_eq!(n, engine.len(), "{label}");
    assert_eq!(edges as u64, engine.degree_stats().edges(), "{label}: edges");
    assert!(graph.dangling_edge_count() > 0, "{label}: the fleet has departed ids in views");
    // Exactly 4 B per edge, and the rest at most 32 B per node.
    assert!(kept >= 4 * edges, "{label}: {kept} B kept for {edges} edges");
    assert!(kept - 4 * edges <= 32 * n, "{label}: {} B per node", (kept - 4 * edges) / n);
    // The build held the snapshot plus one row buffer and one degree
    // histogram (both O(s)), in a handful of allocations.
    assert!(peak <= kept + 64 * (s + 1), "{label}: peak {peak} B against {kept} B kept");
    assert!(allocated <= 12, "{label}: {allocated} allocations");
    drop(graph);
}

#[test]
fn a_graph_snapshot_keeps_four_bytes_per_edge_and_at_most_32_per_node() {
    let (n, s) = (6000, 12);
    let config = SfConfig::new(s, 4).unwrap();
    let departed: Vec<NodeId> = (0..n as u64).step_by(37).map(NodeId::new).collect();

    let mut flat =
        FlatSimulation::new(topology::circulant(n, config, 6), UniformLoss::new(0.02).unwrap(), 5);
    flat.run_rounds(10);
    for &id in &departed {
        flat.leave(id);
    }
    assert_footprint(&flat, s, "flat");

    let mut par = ParSimulation::new(
        topology::circulant(n, config, 6),
        UniformLoss::new(0.02).unwrap(),
        5,
        1,
    );
    par.run_rounds(10);
    for &id in &departed {
        par.leave(id);
    }
    assert_footprint(&par, s, "par");
}
