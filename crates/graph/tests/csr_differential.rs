//! The compressed-sparse-row `MembershipGraph` against the construction it
//! replaced, kept here as the reference: a `HashMap` id index and one
//! `Vec<Option<usize>>` of resolved targets per node. Every accessor,
//! the component count, the expander metrics and the edge overlap must
//! agree on random view sets with dangling ids, self-edges, repeated
//! entries, ids at and above `2³²`, empty views and the empty graph.

use std::collections::{HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sandf_core::NodeId;
use sandf_graph::{
    clustering_coefficient, degree_assortativity, distance_stats, edge_intersection, edge_jaccard,
    MembershipGraph,
};

/// The replaced snapshot: per-node resolved target lists.
struct Reference {
    ids: Vec<NodeId>,
    index: HashMap<NodeId, usize>,
    out_edges: Vec<Vec<Option<usize>>>,
    in_degrees: Vec<usize>,
    dangling: usize,
}

impl Reference {
    fn new(views: &[(NodeId, Vec<NodeId>)]) -> Self {
        let ids: Vec<NodeId> = views.iter().map(|(id, _)| *id).collect();
        let index: HashMap<NodeId, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut in_degrees = vec![0usize; ids.len()];
        let mut dangling = 0usize;
        let out_edges = views
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

    fn edge_multiplicity(&self, u: NodeId, v: NodeId) -> usize {
        match (self.index.get(&u), self.index.get(&v)) {
            (Some(&ui), Some(&vi)) => self.out_edges[ui].iter().filter(|&&t| t == Some(vi)).count(),
            _ => 0,
        }
    }

    fn parallel_edge_count(&self) -> usize {
        let mut extra = 0;
        for targets in &self.out_edges {
            let mut seen: HashMap<usize, usize> = HashMap::new();
            for &t in targets.iter().flatten() {
                *seen.entry(t).or_insert(0) += 1;
            }
            extra += seen.values().map(|&m| m - 1).sum::<usize>();
        }
        extra
    }

    /// The replaced `undirected_adjacency` of the expander metrics.
    fn undirected(&self) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); self.ids.len()];
        for (u, targets) in self.out_edges.iter().enumerate() {
            for &v in targets.iter().flatten() {
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

    /// Components by breadth-first search over the undirected adjacency.
    fn components(&self) -> usize {
        let adj = self.undirected();
        let mut seen = vec![false; adj.len()];
        let mut count = 0;
        for start in 0..adj.len() {
            if seen[start] {
                continue;
            }
            count += 1;
            seen[start] = true;
            let mut queue = VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        count
    }

    /// The replaced O(n²) edge multiset.
    fn edge_multiset(&self) -> HashMap<(NodeId, NodeId), usize> {
        let mut edges = HashMap::new();
        for &u in &self.ids {
            for &v in &self.ids {
                let m = self.edge_multiplicity(u, v);
                if m > 0 {
                    edges.insert((u, v), m);
                }
            }
        }
        edges
    }

    fn live_edges(&self) -> usize {
        self.out_edges.iter().map(Vec::len).sum::<usize>() - self.dangling
    }
}

fn reference_jaccard(a: &Reference, b: &Reference) -> (usize, f64) {
    let (ea, eb) = (a.edge_multiset(), b.edge_multiset());
    let inter: usize = ea.iter().map(|(e, &m)| m.min(eb.get(e).copied().unwrap_or(0))).sum();
    let union = a.live_edges() as f64 + b.live_edges() as f64 - inter as f64;
    (inter, if union == 0.0 { 1.0 } else { inter as f64 / union })
}

/// A random view set over `universe`: distinct nodes, views with
/// self-entries, repeats, empty rows and ids no node carries.
fn views(rng: &mut StdRng, universe: &[u64], n: usize) -> Vec<(NodeId, Vec<NodeId>)> {
    let mut order: Vec<u64> = universe.to_vec();
    order.shuffle(rng);
    order[..n]
        .iter()
        .map(|&owner| {
            let len = if rng.gen_range(0..6u32) == 0 { 0 } else { rng.gen_range(1..=12usize) };
            let mut row: Vec<NodeId> = Vec::with_capacity(len);
            for _ in 0..len {
                let raw = match rng.gen_range(0..10u32) {
                    0 => owner,
                    1 if !row.is_empty() => row[rng.gen_range(0..row.len())].as_u64(),
                    _ => universe[rng.gen_range(0..universe.len())],
                };
                row.push(NodeId::new(raw));
            }
            (NodeId::new(owner), row)
        })
        .collect()
}

/// A universe of distinct raw ids: small ones, ones around `2³²` and ones
/// just below `u64::MAX`, or small ones only (so the rows fit arena words).
fn universe(rng: &mut StdRng, narrow: bool) -> Vec<u64> {
    let mut raw: Vec<u64> = (0..rng.gen_range(1..90usize))
        .map(|_| {
            let offset = rng.gen_range(0..64u64);
            match if narrow { 0 } else { rng.gen_range(0..4u32) } {
                0 => offset,
                1 => (1 << 32) - 32 + offset,
                2 => u64::from(u32::MAX) - offset,
                _ => u64::MAX - offset,
            }
        })
        .collect();
    raw.sort_unstable();
    raw.dedup();
    raw
}

/// The same rows, flattened as arena words would be.
fn flat(views: &[(NodeId, Vec<NodeId>)]) -> MembershipGraph {
    let mut offsets = vec![0u32];
    let mut words = Vec::new();
    for (_, row) in views {
        words.extend(row.iter().map(|id| u32::try_from(id.as_u64()).unwrap()));
        offsets.push(u32::try_from(words.len()).unwrap());
    }
    MembershipGraph::from_flat_rows(views.iter().map(|(id, _)| *id).collect(), offsets, words)
}

fn assert_agrees(g: &MembershipGraph, r: &Reference, universe: &[u64], case: &str) {
    assert_eq!(g.ids(), r.ids, "{case}: ids");
    assert_eq!(g.node_count(), r.ids.len(), "{case}: node_count");
    assert_eq!(g.edge_count(), r.out_edges.iter().map(Vec::len).sum::<usize>(), "{case}");
    assert_eq!(g.dangling_edge_count(), r.dangling, "{case}: dangling");
    assert_eq!(g.in_degrees(), r.in_degrees, "{case}: in_degrees");
    let out: Vec<usize> = r.out_edges.iter().map(Vec::len).collect();
    assert_eq!(g.out_degrees(), out, "{case}: out_degrees");
    let sum: Vec<usize> = out.iter().zip(&r.in_degrees).map(|(&o, &i)| o + 2 * i).collect();
    assert_eq!(g.sum_degrees(), sum, "{case}: sum_degrees");
    for k in [0, 1, 3, r.ids.len(), r.ids.len() + 5] {
        let mut ranked: Vec<(usize, NodeId)> =
            r.in_degrees.iter().copied().zip(r.ids.iter().copied()).collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let want: Vec<NodeId> = ranked.into_iter().take(k).map(|(_, id)| id).collect();
        assert_eq!(g.top_in_degree(k), want, "{case}: top_in_degree({k})");
    }
    let self_edges: usize = r
        .out_edges
        .iter()
        .enumerate()
        .map(|(i, t)| t.iter().filter(|&&x| x == Some(i)).count())
        .sum();
    assert_eq!(g.self_edge_count(), self_edges, "{case}: self edges");
    assert_eq!(g.parallel_edge_count(), r.parallel_edge_count(), "{case}: parallel edges");
    for &raw in universe.iter().chain(&[7_777, 1 << 33]) {
        let u = NodeId::new(raw);
        let at = r.index.get(&u).copied();
        assert_eq!(g.out_degree(u), at.map(|i| r.out_edges[i].len()), "{case}: out_degree {u}");
        assert_eq!(g.in_degree(u), at.map(|i| r.in_degrees[i]), "{case}: in_degree {u}");
        let neighbors = at.map(|i| r.out_edges[i].iter().flatten().map(|&j| r.ids[j]).collect());
        assert_eq!(g.out_neighbors(u), neighbors, "{case}: out_neighbors {u}");
        for &v in universe.iter().step_by(3) {
            let v = NodeId::new(v);
            assert_eq!(g.edge_multiplicity(u, v), r.edge_multiplicity(u, v), "{case}: ({u}, {v})");
        }
    }
    assert_eq!(g.weakly_connected_components(), r.components(), "{case}: components");
    assert_eq!(g.is_weakly_connected(), r.components() <= 1, "{case}: connected");

    // The expander metrics read the graph only through its undirected
    // simple adjacency: the reference's, written out as a clean graph
    // (symmetric, simple, no dangling edge), must score bit for bit alike.
    let adj = r.undirected();
    let clean = MembershipGraph::from_views(
        r.ids.iter().zip(&adj).map(|(&id, row)| (id, row.iter().map(|&j| r.ids[j]).collect())),
    );
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    assert_eq!(bits(clustering_coefficient(g)), bits(clustering_coefficient(&clean)), "{case}");
    assert_eq!(bits(degree_assortativity(g)), bits(degree_assortativity(&clean)), "{case}");
    let sources: Vec<usize> = (0..r.ids.len()).collect();
    assert_eq!(distance_stats(g, &sources), distance_stats(&clean, &sources), "{case}: distances");
}

#[test]
fn csr_snapshot_matches_the_per_node_reference() {
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let narrow = seed % 3 == 0;
        let universe = universe(&mut rng, narrow);
        let (na, nb) = (rng.gen_range(0..=universe.len()), rng.gen_range(0..=universe.len()));
        let (va, vb) = (views(&mut rng, &universe, na), views(&mut rng, &universe, nb));
        let (a, b) =
            (MembershipGraph::from_views(va.clone()), MembershipGraph::from_views(vb.clone()));
        let (ra, rb) = (Reference::new(&va), Reference::new(&vb));
        let case = format!("seed {seed}");
        assert_agrees(&a, &ra, &universe, &case);
        assert_agrees(&b, &rb, &universe, &case);
        if narrow {
            assert_agrees(&flat(&va), &ra, &universe, &format!("{case}, flat rows"));
        }
        for (x, y, rx, ry) in [(&a, &b, &ra, &rb), (&b, &a, &rb, &ra), (&a, &a, &ra, &ra)] {
            let (inter, jaccard) = reference_jaccard(rx, ry);
            assert_eq!(edge_intersection(x, y), inter, "{case}: edge_intersection");
            assert_eq!(edge_jaccard(x, y).to_bits(), jaccard.to_bits(), "{case}: edge_jaccard");
        }
    }
}

#[test]
fn the_empty_graph_matches_the_reference() {
    let empty = MembershipGraph::from_views(std::iter::empty());
    let reference = Reference::new(&[]);
    assert_agrees(&empty, &reference, &[0, 1 << 40], "empty");
    assert_agrees(&flat(&[]), &reference, &[0, 5], "empty flat rows");
    assert_eq!(edge_jaccard(&empty, &empty), 1.0);
}

#[test]
#[should_panic(expected = "row offsets")]
fn flat_rows_reject_offsets_that_miss_the_word_count() {
    let _ = MembershipGraph::from_flat_rows(vec![NodeId::new(0)], vec![0, 2], vec![0]);
}
