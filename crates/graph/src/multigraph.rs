//! The membership multigraph (Section 4): vertices are nodes, and there is an
//! edge `(u, v)` with the multiplicity of `v` in `u`'s view.

use std::collections::HashMap;

use sandf_core::{NodeId, SfNode};

/// A snapshot of the global membership graph `G = (V, E)`.
///
/// `V` is the set of *live* nodes whose views were captured; `E` is a
/// multiset with an edge `(u, v)` for every occurrence of `v` in `u.lv`.
/// Edges pointing at ids outside `V` (nodes that left or failed, whose ids
/// still linger in views — Section 6.5) are retained and reported as
/// [`dangling_edge_count`](Self::dangling_edge_count), but do not participate
/// in connectivity or indegree computations.
///
/// # Examples
///
/// ```
/// use sandf_core::NodeId;
/// use sandf_graph::MembershipGraph;
///
/// let a = NodeId::new(0);
/// let b = NodeId::new(1);
/// let graph = MembershipGraph::from_views([(a, vec![b, b]), (b, vec![a])]);
/// assert_eq!(graph.node_count(), 2);
/// assert_eq!(graph.edge_count(), 3);
/// assert_eq!(graph.out_degree(a), Some(2));
/// assert_eq!(graph.in_degree(a), Some(1));
/// assert!(graph.is_weakly_connected());
/// ```
#[derive(Clone, Debug)]
pub struct MembershipGraph {
    ids: Vec<NodeId>,
    /// Id → position in `ids`; only looked up, never iterated, so its order
    /// cannot reach output.
    index: HashMap<NodeId, usize>,
    /// Out-edges per node, as indices into `ids`; `None` marks a dangling
    /// target (an id outside the captured node set).
    out_edges: Vec<Vec<Option<usize>>>,
    in_degrees: Vec<usize>,
    dangling: usize,
}

impl MembershipGraph {
    /// Builds a graph from `(node, out-neighbor multiset)` pairs.
    pub fn from_views<I>(views: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, Vec<NodeId>)>,
    {
        let collected: Vec<(NodeId, Vec<NodeId>)> = views.into_iter().collect();
        let ids: Vec<NodeId> = collected.iter().map(|(id, _)| *id).collect();
        let index: HashMap<NodeId, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        assert_eq!(index.len(), ids.len(), "duplicate node id in graph snapshot");
        let mut in_degrees = vec![0usize; ids.len()];
        let mut dangling = 0usize;
        let out_edges: Vec<Vec<Option<usize>>> = collected
            .iter()
            .map(|(_, targets)| {
                targets
                    .iter()
                    .map(|t| {
                        let resolved = index.get(t).copied();
                        match resolved {
                            Some(k) => in_degrees[k] += 1,
                            None => dangling += 1,
                        }
                        resolved
                    })
                    .collect()
            })
            .collect();
        Self { ids, index, out_edges, in_degrees, dangling }
    }

    /// Builds a graph by snapshotting the views of live protocol nodes.
    pub fn from_nodes<'a, I>(nodes: I) -> Self
    where
        I: IntoIterator<Item = &'a SfNode>,
    {
        Self::from_views(nodes.into_iter().map(|n| (n.id(), n.view().ids().collect())))
    }

    /// Number of live nodes `|V|`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.ids.len()
    }

    /// Total number of edges (with multiplicity), including dangling ones.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.out_edges.iter().map(Vec::len).sum()
    }

    /// Number of edges whose target is not a live node (ids of left/failed
    /// nodes still present in views).
    #[must_use]
    pub fn dangling_edge_count(&self) -> usize {
        self.dangling
    }

    /// The node ids in this snapshot.
    #[must_use]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Outdegree `d(u)`, or `None` if `u` is not in the snapshot.
    #[must_use]
    pub fn out_degree(&self, u: NodeId) -> Option<usize> {
        self.index.get(&u).map(|&i| self.out_edges[i].len())
    }

    /// Indegree `d_in(u)` counting only edges from live nodes, or `None` if
    /// `u` is not in the snapshot.
    #[must_use]
    pub fn in_degree(&self, u: NodeId) -> Option<usize> {
        self.index.get(&u).map(|&i| self.in_degrees[i])
    }

    /// All outdegrees, in `ids()` order.
    #[must_use]
    pub fn out_degrees(&self) -> Vec<usize> {
        self.out_edges.iter().map(Vec::len).collect()
    }

    /// All indegrees, in `ids()` order.
    #[must_use]
    pub fn in_degrees(&self) -> Vec<usize> {
        self.in_degrees.clone()
    }

    /// The `k` highest-indegree nodes (all of them when `k ≥ |V|`), highest
    /// first, ties broken by ascending id so the choice is deterministic —
    /// the overlay's hubs, which a `victims` fault aims at.
    #[must_use]
    pub fn top_in_degree(&self, k: usize) -> Vec<NodeId> {
        let mut ranked: Vec<(usize, NodeId)> =
            self.in_degrees.iter().copied().zip(self.ids.iter().copied()).collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.into_iter().take(k).map(|(_, id)| id).collect()
    }

    /// Sum degree `d_s(u) = d(u) + 2·d_in(u)` (Definition 6.1) for every
    /// node, in `ids()` order.
    #[must_use]
    pub fn sum_degrees(&self) -> Vec<usize> {
        self.out_edges.iter().zip(&self.in_degrees).map(|(out, &din)| out.len() + 2 * din).collect()
    }

    /// The out-neighbors of `u` (live targets only, with multiplicity), or
    /// `None` if `u` is not in the snapshot.
    #[must_use]
    pub fn out_neighbors(&self, u: NodeId) -> Option<Vec<NodeId>> {
        let &i = self.index.get(&u)?;
        Some(self.out_edges[i].iter().flatten().map(|&j| self.ids[j]).collect())
    }

    /// Internal index-based adjacency (live targets), for analytics in this
    /// crate.
    pub(crate) fn out_edge_indices(&self) -> &[Vec<Option<usize>>] {
        &self.out_edges
    }

    /// The multiplicity of the edge `(u, v)`.
    #[must_use]
    pub fn edge_multiplicity(&self, u: NodeId, v: NodeId) -> usize {
        let (Some(&ui), target) = (self.index.get(&u), self.index.get(&v).copied()) else {
            return 0;
        };
        match target {
            Some(vi) => self.out_edges[ui].iter().filter(|&&t| t == Some(vi)).count(),
            None => 0,
        }
    }

    /// Number of self-edges `(u, u)` in the graph.
    #[must_use]
    pub fn self_edge_count(&self) -> usize {
        self.out_edges
            .iter()
            .enumerate()
            .map(|(i, targets)| targets.iter().filter(|&&t| t == Some(i)).count())
            .sum()
    }

    /// Number of *redundant parallel* edges: for every ordered pair `(u, v)`
    /// with multiplicity `m ≥ 2`, the `m − 1` extra copies. The Section 2
    /// labeling counts these as dependent (duplicate ids in a view convey no
    /// new information).
    #[must_use]
    pub fn parallel_edge_count(&self) -> usize {
        let mut extra = 0usize;
        // Its values are only summed as integers, so its order cannot reach output.
        let mut seen: HashMap<usize, usize> = HashMap::new();
        for targets in &self.out_edges {
            seen.clear();
            for t in targets.iter().flatten() {
                *seen.entry(*t).or_insert(0) += 1;
            }
            extra += seen.values().map(|&m| m - 1).sum::<usize>();
        }
        extra
    }

    /// Whether the live subgraph is weakly connected: there is an undirected
    /// path between every pair of live nodes (Section 4). An empty graph is
    /// considered connected; dangling edges are ignored.
    #[must_use]
    pub fn is_weakly_connected(&self) -> bool {
        self.weakly_connected_components() <= 1
    }

    /// Number of weakly connected components of the live subgraph.
    #[must_use]
    pub fn weakly_connected_components(&self) -> usize {
        let n = self.ids.len();
        if n == 0 {
            return 0;
        }
        let mut dsu = DisjointSets::new(n);
        for (u, targets) in self.out_edges.iter().enumerate() {
            for &v in targets.iter().flatten() {
                dsu.union(u, v);
            }
        }
        dsu.count()
    }
}

/// A minimal union-find (disjoint-set) structure with path compression and
/// union by size.
#[derive(Clone, Debug)]
pub struct DisjointSets {
    parent: Vec<usize>,
    size: Vec<usize>,
    components: usize,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { parent: (0..n).collect(), size: vec![1; n], components: n }
    }

    /// Makes this `n` singleton sets again, reusing the buffers.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
        self.size.clear();
        self.size.resize(n, 1);
        self.components = n;
    }

    /// Finds the representative of `x`'s set.
    #[inline]
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`. Returns `true` if they were
    /// distinct.
    #[inline]
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            core::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }

    /// Current number of disjoint sets.
    #[must_use]
    pub fn count(&self) -> usize {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn counts_edges_with_multiplicity() {
        let g = MembershipGraph::from_views([
            (id(0), vec![id(1), id(1), id(2)]),
            (id(1), vec![id(0)]),
            (id(2), vec![]),
        ]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.edge_multiplicity(id(0), id(1)), 2);
        assert_eq!(g.edge_multiplicity(id(0), id(2)), 1);
        assert_eq!(g.edge_multiplicity(id(2), id(0)), 0);
        assert_eq!(g.parallel_edge_count(), 1);
    }

    #[test]
    fn degrees_match_views() {
        let g = MembershipGraph::from_views([
            (id(0), vec![id(1), id(2)]),
            (id(1), vec![id(2)]),
            (id(2), vec![]),
        ]);
        assert_eq!(g.out_degree(id(0)), Some(2));
        assert_eq!(g.in_degree(id(2)), Some(2));
        assert_eq!(g.in_degree(id(0)), Some(0));
        assert_eq!(g.out_degree(id(9)), None);
        assert_eq!(g.sum_degrees(), vec![2, 1 + 2, 4]);
        // Indegrees 0, 1, 2: highest first, and no more than there are.
        assert_eq!(g.top_in_degree(2), vec![id(2), id(1)]);
        assert_eq!(g.top_in_degree(9).len(), 3);
    }

    #[test]
    fn dangling_edges_are_counted_but_ignored_for_degrees() {
        let g = MembershipGraph::from_views([(id(0), vec![id(1), id(99)]), (id(1), vec![])]);
        assert_eq!(g.dangling_edge_count(), 1);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.in_degree(id(1)), Some(1));
    }

    #[test]
    fn self_edges_are_detected() {
        let g = MembershipGraph::from_views([(id(0), vec![id(0), id(1)]), (id(1), vec![])]);
        assert_eq!(g.self_edge_count(), 1);
    }

    #[test]
    fn weak_connectivity_ignores_direction() {
        let g = MembershipGraph::from_views([
            (id(0), vec![id(1)]),
            (id(1), vec![]),
            (id(2), vec![id(1)]),
        ]);
        assert!(g.is_weakly_connected());
        let g =
            MembershipGraph::from_views([(id(0), vec![id(1)]), (id(1), vec![]), (id(2), vec![])]);
        assert_eq!(g.weakly_connected_components(), 2);
        assert!(!g.is_weakly_connected());
    }

    #[test]
    fn dangling_edges_do_not_connect() {
        let g = MembershipGraph::from_views([(id(0), vec![id(99)]), (id(1), vec![id(99)])]);
        assert_eq!(g.weakly_connected_components(), 2);
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = MembershipGraph::from_views(std::iter::empty());
        assert!(g.is_weakly_connected());
        assert_eq!(g.weakly_connected_components(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn rejects_duplicate_ids() {
        let _ = MembershipGraph::from_views([(id(0), vec![]), (id(0), vec![])]);
    }

    #[test]
    fn disjoint_sets_union_find() {
        let mut dsu = DisjointSets::new(4);
        assert_eq!(dsu.count(), 4);
        assert!(dsu.union(0, 1));
        assert!(!dsu.union(1, 0));
        assert!(dsu.union(2, 3));
        assert_eq!(dsu.count(), 2);
        dsu.union(0, 3);
        assert_eq!(dsu.count(), 1);
        assert_eq!(dsu.find(2), dsu.find(1));
        dsu.reset(3);
        assert_eq!(dsu.count(), 3);
        assert!(dsu.union(1, 2));
        assert_eq!(dsu.find(0), 0);
        assert_eq!(dsu.count(), 2);
    }

    #[test]
    fn from_nodes_snapshots_views() {
        use sandf_core::SfConfig;
        let config = SfConfig::lossless(6).unwrap();
        let nodes = vec![
            SfNode::with_view(id(0), config, &[id(1), id(1)]).unwrap(),
            SfNode::with_view(id(1), config, &[id(0), id(0)]).unwrap(),
        ];
        let g = MembershipGraph::from_nodes(&nodes);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.edge_multiplicity(id(0), id(1)), 2);
        assert!(g.is_weakly_connected());
    }
}
