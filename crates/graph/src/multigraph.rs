//! The membership multigraph (Section 4): vertices are nodes, and there is an
//! edge `(u, v)` with the multiplicity of `v` in `u`'s view.

use sandf_core::{NodeId, SfNode};

use crate::index::IdIndex;

/// Marks an edge whose target is not in the snapshot.
pub(crate) const DANGLING: u32 = u32::MAX;

/// A snapshot of the global membership graph `G = (V, E)`.
///
/// `V` is the set of *live* nodes whose views were captured; `E` is a
/// multiset with an edge `(u, v)` for every occurrence of `v` in `u.lv`.
/// Edges pointing at ids outside `V` (nodes that left or failed, whose ids
/// still linger in views — Section 6.5) are retained and reported as
/// [`dangling_edge_count`](Self::dangling_edge_count), but do not participate
/// in connectivity or indegree computations.
///
/// # Layout
///
/// Compressed sparse rows over `u32` positions into `ids()`: node `i`'s
/// edges are `targets[offsets[i]..offsets[i + 1]]`, in view order, each
/// the position of its target or a sentinel for a dangling one. Beside the
/// ids (8 B per node) sit the row offsets and the indegrees (4 B per node
/// each) and an [`IdIndex`] of fewer than four 4-byte slots per node: a
/// snapshot holds 4 B per edge and at most 32 B per node. A snapshot
/// holds fewer than `u32::MAX` nodes and fewer than `2³²` edges.
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
    /// Id → position in `ids`.
    index: IdIndex,
    /// Row `i` is `targets[offsets[i]..offsets[i + 1]]`; `n + 1` entries.
    offsets: Vec<u32>,
    /// Every edge's target as a position in `ids`, [`DANGLING`] for an id
    /// outside the captured node set.
    targets: Vec<u32>,
    in_degrees: Vec<u32>,
    dangling: usize,
}

/// Narrows an edge count or a position to a row word.
fn word(k: usize) -> u32 {
    u32::try_from(k).expect("a graph snapshot holds fewer than 2^32 edges")
}

/// `id`'s position in `ids` as a row word, or [`DANGLING`].
fn resolve(index: &IdIndex, ids: &[NodeId], id: NodeId) -> u32 {
    index.get(ids, id).map_or(DANGLING, word)
}

impl MembershipGraph {
    /// Builds a graph from `(node, out-neighbor multiset)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a node id repeats.
    pub fn from_views<I>(views: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, Vec<NodeId>)>,
    {
        let collected: Vec<(NodeId, Vec<NodeId>)> = views.into_iter().collect();
        let ids: Vec<NodeId> = collected.iter().map(|(id, _)| *id).collect();
        let mut index = IdIndex::new();
        index.rebuild(&ids);
        let mut offsets = Vec::with_capacity(ids.len() + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(collected.iter().map(|(_, row)| row.len()).sum());
        for (_, row) in &collected {
            targets.extend(row.iter().map(|&t| resolve(&index, &ids, t)));
            offsets.push(word(targets.len()));
        }
        Self::with_targets(ids, index, offsets, targets)
    }

    /// Builds a graph from rows already laid out flat: node `ids[i]`'s
    /// out-neighbors are `words[offsets[i]..offsets[i + 1]]`, each the raw
    /// value of a node id below `2³²` (an arena slot word). The words are
    /// resolved to positions in place, so the snapshot keeps the caller's
    /// three buffers and allocates only its indegrees and its index.
    ///
    /// # Panics
    ///
    /// Panics if a node id repeats, or if `offsets` does not hold
    /// `ids.len() + 1` non-decreasing entries from 0 to `words.len()`.
    #[must_use]
    pub fn from_flat_rows(ids: Vec<NodeId>, offsets: Vec<u32>, mut words: Vec<u32>) -> Self {
        assert_eq!(offsets.len(), ids.len() + 1, "one row offset per node, plus the end");
        assert!(
            offsets[0] == 0
                && offsets[ids.len()] as usize == words.len()
                && offsets.windows(2).all(|w| w[0] <= w[1]),
            "row offsets must run from 0 to the word count without decreasing"
        );
        let mut index = IdIndex::new();
        index.rebuild(&ids);
        for t in &mut words {
            *t = resolve(&index, &ids, NodeId::new(u64::from(*t)));
        }
        Self::with_targets(ids, index, offsets, words)
    }

    /// Counts indegrees and dangling edges over resolved rows.
    fn with_targets(
        ids: Vec<NodeId>,
        index: IdIndex,
        offsets: Vec<u32>,
        targets: Vec<u32>,
    ) -> Self {
        let mut in_degrees = vec![0u32; ids.len()];
        let mut dangling = 0usize;
        for &t in &targets {
            match t {
                DANGLING => dangling += 1,
                k => in_degrees[k as usize] += 1,
            }
        }
        Self { ids, index, offsets, targets, in_degrees, dangling }
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
        self.targets.len()
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

    /// The position of `u` in `ids()`.
    fn position(&self, u: NodeId) -> Option<usize> {
        self.index.get(&self.ids, u)
    }

    /// Node `i`'s edges as target positions, [`DANGLING`] for a target
    /// outside the snapshot, in view order.
    fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Every node's [`row`](Self::row), in `ids()` order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets.windows(2).map(|w| &self.targets[w[0] as usize..w[1] as usize])
    }

    /// Outdegree `d(u)`, or `None` if `u` is not in the snapshot.
    #[must_use]
    pub fn out_degree(&self, u: NodeId) -> Option<usize> {
        self.position(u).map(|i| self.row(i).len())
    }

    /// Indegree `d_in(u)` counting only edges from live nodes, or `None` if
    /// `u` is not in the snapshot.
    #[must_use]
    pub fn in_degree(&self, u: NodeId) -> Option<usize> {
        self.position(u).map(|i| self.in_degrees[i] as usize)
    }

    /// All outdegrees, in `ids()` order.
    #[must_use]
    pub fn out_degrees(&self) -> Vec<usize> {
        self.rows().map(<[u32]>::len).collect()
    }

    /// All indegrees, in `ids()` order.
    #[must_use]
    pub fn in_degrees(&self) -> Vec<usize> {
        self.in_degrees.iter().map(|&d| d as usize).collect()
    }

    /// The `k` highest-indegree nodes (all of them when `k ≥ |V|`), highest
    /// first, ties broken by ascending id so the choice is deterministic —
    /// the overlay's hubs, which a `victims` fault aims at.
    #[must_use]
    pub fn top_in_degree(&self, k: usize) -> Vec<NodeId> {
        let mut ranked: Vec<(u32, NodeId)> =
            self.in_degrees.iter().copied().zip(self.ids.iter().copied()).collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.into_iter().take(k).map(|(_, id)| id).collect()
    }

    /// Sum degree `d_s(u) = d(u) + 2·d_in(u)` (Definition 6.1) for every
    /// node, in `ids()` order.
    #[must_use]
    pub fn sum_degrees(&self) -> Vec<usize> {
        self.rows().zip(&self.in_degrees).map(|(row, &din)| row.len() + 2 * din as usize).collect()
    }

    /// The out-neighbors of `u` (live targets only, with multiplicity), or
    /// `None` if `u` is not in the snapshot.
    #[must_use]
    pub fn out_neighbors(&self, u: NodeId) -> Option<Vec<NodeId>> {
        let i = self.position(u)?;
        Some(
            self.row(i).iter().filter(|&&t| t != DANGLING).map(|&t| self.ids[t as usize]).collect(),
        )
    }

    /// The multiplicity of the edge `(u, v)`.
    #[must_use]
    pub fn edge_multiplicity(&self, u: NodeId, v: NodeId) -> usize {
        let (Some(ui), Some(vi)) = (self.position(u), self.position(v)) else {
            return 0;
        };
        let vi = word(vi);
        self.row(ui).iter().filter(|&&t| t == vi).count()
    }

    /// Number of self-edges `(u, u)` in the graph.
    #[must_use]
    pub fn self_edge_count(&self) -> usize {
        self.rows()
            .enumerate()
            .map(|(i, row)| row.iter().filter(|&&t| t as usize == i).count())
            .sum()
    }

    /// Number of *redundant parallel* edges: for every ordered pair `(u, v)`
    /// with multiplicity `m ≥ 2`, the `m − 1` extra copies. The Section 2
    /// labeling counts these as dependent (duplicate ids in a view convey no
    /// new information).
    #[must_use]
    pub fn parallel_edge_count(&self) -> usize {
        let mut extra = 0usize;
        let mut live: Vec<u32> = Vec::new();
        for row in self.rows() {
            live.clear();
            live.extend(row.iter().copied().filter(|&t| t != DANGLING));
            live.sort_unstable();
            // Each copy after the first of a target is one extra edge.
            extra += live.windows(2).filter(|w| w[0] == w[1]).count();
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
        let mut dsu = DisjointSets::new(self.ids.len());
        for (u, row) in self.rows().enumerate() {
            for &v in row.iter().filter(|&&t| t != DANGLING) {
                dsu.union(u, v as usize);
            }
        }
        dsu.count()
    }
}

/// A minimal union-find (disjoint-set) structure with path compression and
/// union by size, over fewer than `u32::MAX` elements: parents and sizes
/// are stored as `u32`, 8 B per element.
#[derive(Clone, Debug)]
pub struct DisjointSets {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `n` is `u32::MAX` or more.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let mut sets = Self { parent: Vec::new(), size: Vec::new(), components: 0 };
        sets.reset(n);
        sets
    }

    /// Makes this `n` singleton sets again, reusing the buffers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is `u32::MAX` or more.
    pub fn reset(&mut self, n: usize) {
        let end = u32::try_from(n)
            .ok()
            .filter(|&end| end < u32::MAX)
            .expect("disjoint sets hold fewer than u32::MAX elements");
        self.parent.clear();
        self.parent.extend(0..end);
        self.size.clear();
        self.size.resize(n, 1);
        self.components = n;
    }

    /// Finds the representative of `x`'s set.
    #[inline]
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = x;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
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
        self.parent[rb] = ra as u32;
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
