//! Edge-multiset overlap between two membership graphs.
//!
//! The temporal-independence experiment (Property M5, Section 7.5) tracks how
//! quickly the membership graph "forgets" its initial state: starting from a
//! steady-state graph `G(0)`, the overlap between `G(0)` and `G(t)` should
//! decay to the baseline overlap of two *independent* steady-state graphs
//! after each node initiates `O(s log n)` actions.

use std::collections::HashMap;

use sandf_core::NodeId;

use crate::multigraph::{MembershipGraph, DANGLING};

/// Live edge → multiplicity, from one walk over the rows: O(edges).
/// Callers only look edges up and sum integers over it, so its order
/// cannot reach output.
fn edge_multiset(g: &MembershipGraph) -> HashMap<(NodeId, NodeId), usize> {
    let ids = g.ids();
    let mut edges = HashMap::new();
    for (&u, row) in ids.iter().zip(g.rows()) {
        for &t in row.iter().filter(|&&t| t != DANGLING) {
            *edges.entry((u, ids[t as usize])).or_insert(0) += 1;
        }
    }
    edges
}

/// The size of the multiset intersection of the two graphs' edge sets:
/// `Σ_{(u,v)} min(m₁(u,v), m₂(u,v))`.
#[must_use]
pub fn edge_intersection(a: &MembershipGraph, b: &MembershipGraph) -> usize {
    let ea = edge_multiset(a);
    let eb = edge_multiset(b);
    ea.iter().map(|(edge, &ma)| ma.min(eb.get(edge).copied().unwrap_or(0))).sum()
}

/// Jaccard similarity of the two edge multisets: `|∩| / |∪|`, in `[0, 1]`.
/// Two empty graphs have similarity 1.
#[must_use]
pub fn edge_jaccard(a: &MembershipGraph, b: &MembershipGraph) -> f64 {
    let inter = edge_intersection(a, b) as f64;
    // |A ∪ B| = |A| + |B| − |A ∩ B| for multisets under min/max semantics.
    let union = (a.edge_count() - a.dangling_edge_count()) as f64
        + (b.edge_count() - b.dangling_edge_count()) as f64
        - inter;
    if union == 0.0 {
        return 1.0;
    }
    inter / union
}

/// The expected Jaccard similarity of two independent uniformly random edge
/// sets of `edges` directed edges over `n` nodes — the baseline that
/// [`edge_jaccard`] should decay *to* once temporal independence is reached.
///
/// Each of the `n(n−1)` possible directed non-self edges is present in a
/// random graph with probability `p = edges / (n(n−1))`; for small `p` the
/// expected Jaccard is approximately `p / (2 − p)`.
#[must_use]
pub fn baseline_jaccard(n: usize, edges: usize) -> f64 {
    if n < 2 {
        return 1.0;
    }
    let slots = (n * (n - 1)) as f64;
    let p = (edges as f64 / slots).min(1.0);
    p / (2.0 - p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn graph(views: &[(u64, &[u64])]) -> MembershipGraph {
        MembershipGraph::from_views(
            views.iter().map(|&(u, targets)| (id(u), targets.iter().map(|&t| id(t)).collect())),
        )
    }

    #[test]
    fn identical_graphs_overlap_fully() {
        let g = graph(&[(0, &[1, 2]), (1, &[0]), (2, &[])]);
        assert_eq!(edge_intersection(&g, &g), 3);
        assert_eq!(edge_jaccard(&g, &g), 1.0);
    }

    #[test]
    fn disjoint_graphs_do_not_overlap() {
        let a = graph(&[(0, &[1]), (1, &[]), (2, &[])]);
        let b = graph(&[(0, &[2]), (1, &[]), (2, &[])]);
        assert_eq!(edge_intersection(&a, &b), 0);
        assert_eq!(edge_jaccard(&a, &b), 0.0);
    }

    #[test]
    fn multiplicities_use_min() {
        let a = graph(&[(0, &[1, 1, 1]), (1, &[])]);
        let b = graph(&[(0, &[1]), (1, &[])]);
        assert_eq!(edge_intersection(&a, &b), 1);
        // |∪| = 3 + 1 - 1 = 3.
        assert!((edge_jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graphs_are_similar() {
        let a = graph(&[(0, &[]), (1, &[])]);
        assert_eq!(edge_jaccard(&a, &a), 1.0);
    }

    #[test]
    fn baseline_jaccard_is_small_for_sparse_graphs() {
        let b = baseline_jaccard(1000, 30_000);
        assert!(b > 0.0 && b < 0.02, "baseline {b}");
        // Degenerate cases.
        assert_eq!(baseline_jaccard(1, 0), 1.0);
        assert!(baseline_jaccard(2, 10) <= 1.0);
    }

    #[test]
    fn baseline_matches_p_over_two_minus_p() {
        let n = 100;
        let edges = 990; // p = 0.1
        let p = 0.1;
        assert!((baseline_jaccard(n, edges) - p / (2.0 - p)).abs() < 1e-12);
    }
}
