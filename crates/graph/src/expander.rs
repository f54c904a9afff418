//! Expander-quality metrics of the membership graph.
//!
//! The paper's motivation for uniform independent views is that they
//! "result in an expander graph, with good connectivity, robustness, and
//! low diameter" (Section 1, citing Fenner & Frieze). These metrics
//! quantify that claim on snapshots: a converged S&F overlay should show a
//! near-zero clustering coefficient, logarithmic distances, and near-zero
//! degree assortativity — while the poor initial topologies (rings, hub
//! clusters) score very differently.
//!
//! All metrics treat the membership graph as **undirected and simple**
//! (communication flows both ways along an edge: `v ∈ u.lv` lets `u`
//! message `v`, and the reinforcement component immediately creates the
//! reverse edge).

use std::collections::VecDeque;

use crate::multigraph::{MembershipGraph, DANGLING};

/// Builds the undirected simple adjacency (indices into `graph.ids()`).
fn undirected_adjacency(graph: &MembershipGraph) -> Vec<Vec<usize>> {
    let n = graph.node_count();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, row) in graph.rows().enumerate() {
        for v in row.iter().filter(|&&t| t != DANGLING).map(|&t| t as usize) {
            if u != v {
                adj[u].push(v);
                adj[v].push(u);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

/// The average local clustering coefficient: for each node with degree ≥ 2,
/// the fraction of its neighbor pairs that are themselves adjacent,
/// averaged over all such nodes. Random sparse graphs score `O(d/n)`;
/// lattices and cliques score `Θ(1)`.
///
/// Returns `None` when no node has two neighbors.
#[must_use]
pub fn clustering_coefficient(graph: &MembershipGraph) -> Option<f64> {
    let adj = undirected_adjacency(graph);
    let mut total = 0.0;
    let mut counted = 0usize;
    for neighbors in &adj {
        let k = neighbors.len();
        if k < 2 {
            continue;
        }
        let mut closed = 0usize;
        for (a_pos, &a) in neighbors.iter().enumerate() {
            for &b in &neighbors[a_pos + 1..] {
                if adj[a].binary_search(&b).is_ok() {
                    closed += 1;
                }
            }
        }
        total += closed as f64 / (k * (k - 1) / 2) as f64;
        counted += 1;
    }
    (counted > 0).then(|| total / counted as f64)
}

/// Distance statistics from breadth-first searches.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DistanceStats {
    /// Mean shortest-path length over all reachable ordered pairs sampled.
    pub mean: f64,
    /// The largest distance observed (a lower bound on the diameter).
    pub max: usize,
    /// Number of (source, target) pairs that contributed.
    pub pairs: usize,
    /// Number of unreachable pairs encountered.
    pub unreachable: usize,
}

/// BFS distance statistics from the given source indices (use all nodes for
/// exact values, or a sample for large graphs).
///
/// # Panics
///
/// Panics if a source index is out of range.
#[must_use]
pub fn distance_stats(graph: &MembershipGraph, sources: &[usize]) -> DistanceStats {
    let adj = undirected_adjacency(graph);
    let n = adj.len();
    let mut sum = 0usize;
    let mut pairs = 0usize;
    let mut max = 0usize;
    let mut unreachable = 0usize;
    let mut dist = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for &s in sources {
        assert!(s < n, "source index out of range");
        dist.fill(usize::MAX);
        dist[s] = 0;
        queue.clear();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        for (v, &d) in dist.iter().enumerate() {
            if v == s {
                continue;
            }
            if d == usize::MAX {
                unreachable += 1;
            } else {
                sum += d;
                pairs += 1;
                max = max.max(d);
            }
        }
    }
    DistanceStats {
        mean: if pairs == 0 { 0.0 } else { sum as f64 / pairs as f64 },
        max,
        pairs,
        unreachable,
    }
}

/// Degree assortativity: the Pearson correlation of endpoint degrees over
/// the undirected edges. Near 0 for uniform random graphs; strongly
/// negative for hub-and-spoke topologies.
///
/// Returns `None` when the graph has no edges or zero degree variance.
#[must_use]
pub fn degree_assortativity(graph: &MembershipGraph) -> Option<f64> {
    let adj = undirected_adjacency(graph);
    let degrees: Vec<f64> = adj.iter().map(|a| a.len() as f64).collect();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (u, neighbors) in adj.iter().enumerate() {
        for &v in neighbors {
            if u < v {
                // Count each undirected edge once, symmetrized.
                xs.push(degrees[u]);
                ys.push(degrees[v]);
                xs.push(degrees[v]);
                ys.push(degrees[u]);
            }
        }
    }
    if xs.is_empty() {
        return None;
    }
    let m = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / m;
    let mean_y = ys.iter().sum::<f64>() / m;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in xs.iter().zip(&ys) {
        cov += (x - mean_x) * (y - mean_y);
        var_x += (x - mean_x).powi(2);
        var_y += (y - mean_y).powi(2);
    }
    let denom = (var_x * var_y).sqrt();
    (denom > 0.0).then(|| cov / denom)
}

#[cfg(test)]
mod tests {
    use sandf_core::NodeId;

    use super::*;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn ring(n: u64) -> MembershipGraph {
        MembershipGraph::from_views((0..n).map(|i| (id(i), vec![id((i + 1) % n)])))
    }

    fn clique(n: u64) -> MembershipGraph {
        MembershipGraph::from_views((0..n).map(|i| {
            let targets = (0..n).filter(|&j| j != i).map(id).collect();
            (id(i), targets)
        }))
    }

    #[test]
    fn clique_clusters_fully() {
        let g = clique(5);
        assert!((clustering_coefficient(&g).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ring_has_zero_clustering() {
        let g = ring(8);
        assert_eq!(clustering_coefficient(&g), Some(0.0));
    }

    #[test]
    fn clustering_none_without_two_neighbor_nodes() {
        let g = MembershipGraph::from_views([(id(0), vec![id(1)]), (id(1), vec![])]);
        assert_eq!(clustering_coefficient(&g), None);
    }

    #[test]
    fn ring_distances_scale_linearly() {
        let g = ring(16);
        let sources: Vec<usize> = (0..16).collect();
        let stats = distance_stats(&g, &sources);
        assert_eq!(stats.max, 8, "ring diameter is n/2");
        assert_eq!(stats.unreachable, 0);
        assert!((stats.mean - 64.0 / 15.0).abs() < 1e-9, "mean {}", stats.mean);
    }

    #[test]
    fn clique_distances_are_one() {
        let g = clique(6);
        let stats = distance_stats(&g, &[0, 3]);
        assert_eq!(stats.max, 1);
        assert_eq!(stats.mean, 1.0);
        assert_eq!(stats.pairs, 10);
    }

    #[test]
    fn disconnected_pairs_are_reported() {
        let g =
            MembershipGraph::from_views([(id(0), vec![id(1)]), (id(1), vec![]), (id(2), vec![])]);
        let stats = distance_stats(&g, &[0]);
        assert_eq!(stats.unreachable, 1);
        assert_eq!(stats.pairs, 1);
    }

    #[test]
    fn star_is_disassortative() {
        let g = MembershipGraph::from_views(
            (1..8).map(|i| (id(i), vec![id(0)])).chain([(id(0), vec![])]),
        );
        let r = degree_assortativity(&g).unwrap();
        assert!(r < -0.9, "star assortativity {r}");
    }

    #[test]
    fn regular_graph_assortativity_is_degenerate() {
        // All degrees equal → zero variance → None.
        assert_eq!(degree_assortativity(&ring(8)), None);
    }

    #[test]
    fn empty_graph_yields_none() {
        let g = MembershipGraph::from_views([(id(0), vec![]), (id(1), vec![])]);
        assert_eq!(degree_assortativity(&g), None);
        assert_eq!(clustering_coefficient(&g), None);
    }
}
