//! Spatial-dependence accounting (Section 2 labeling, Property M4).

use std::collections::HashMap;

use sandf_core::{Entry, NodeId};

/// Breakdown of dependent view entries across a set of nodes.
///
/// An entry is labeled **dependent** when any of the Section 2 rules apply:
///
/// 1. it is a *self-edge* (`u.lv[i] = u`) — always dependent;
/// 2. it carries the duplication tag maintained by the protocol (an id
///    instance created by or received after a duplication, Section 7.4);
/// 3. it is a redundant duplicate: of `m` occurrences of the same id in one
///    view, at least `m − 1` are dependent ("all but one of these edges are
///    considered dependent").
///
/// The expected fraction of *independent* entries is the paper's `α`;
/// Lemma 7.9 bounds it from below by `1 − 2(ℓ + δ)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DependenceReport {
    /// Total nonempty view entries inspected.
    pub total_entries: usize,
    /// Entries labeled dependent by the rules above.
    pub dependent_entries: usize,
    /// Of the dependent entries, how many are self-edges.
    pub self_edges: usize,
    /// Of the dependent entries, how many carry the duplication tag (and are
    /// not self-edges).
    pub tagged: usize,
}

impl DependenceReport {
    /// Measures dependence across rows of `(owner, entries)`: one row per
    /// node, holding its occupied view entries. An `SfNode` is the row
    /// `(node.id(), node.view().entries())`; the arena engines pass their
    /// slot rows without rebuilding nodes.
    pub fn measure<E>(rows: impl IntoIterator<Item = (NodeId, E)>) -> Self
    where
        E: IntoIterator<Item = Entry>,
    {
        let mut report = Self::default();
        // Its values are only summed as integers, so its order cannot reach output.
        let mut groups: HashMap<NodeId, (usize, usize)> = HashMap::new();
        for (owner, entries) in rows {
            groups.clear();
            for entry in entries {
                report.total_entries += 1;
                if entry.id == owner {
                    report.self_edges += 1;
                    continue; // counted below via the self-edge rule
                }
                let group = groups.entry(entry.id).or_insert((0, 0));
                group.0 += 1;
                if entry.dependent {
                    group.1 += 1;
                }
            }
            for &(m, t) in groups.values() {
                // All but one duplicate are dependent; explicit tags can only
                // raise the count.
                let dependent = t.max(m.saturating_sub(1));
                report.dependent_entries += dependent;
                report.tagged += t.min(dependent);
            }
        }
        report.dependent_entries += report.self_edges;
        report
    }

    /// The measured independent fraction `α`. Returns 1.0 for an empty
    /// sample (vacuously independent).
    #[must_use]
    pub fn independent_fraction(&self) -> f64 {
        if self.total_entries == 0 {
            return 1.0;
        }
        1.0 - self.dependent_entries as f64 / self.total_entries as f64
    }
}

#[cfg(test)]
mod tests {
    use sandf_core::{SfConfig, SfNode};

    use super::*;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn measure(nodes: &[SfNode]) -> DependenceReport {
        DependenceReport::measure(nodes.iter().map(|node| (node.id(), node.view().entries())))
    }

    fn node_with(owner: u64, ids: &[u64]) -> SfNode {
        let config = SfConfig::lossless(8).unwrap();
        let ids: Vec<NodeId> = ids.iter().map(|&r| id(r)).collect();
        let mut node = SfNode::new(id(owner), config);
        for target in ids {
            node.view_mut().insert_at_first_empty(target).unwrap();
        }
        node
    }

    #[test]
    fn clean_views_are_fully_independent() {
        let nodes = vec![node_with(0, &[1, 2]), node_with(1, &[0, 2])];
        let report = measure(&nodes);
        assert_eq!(report.total_entries, 4);
        assert_eq!(report.dependent_entries, 0);
        assert_eq!(report.independent_fraction(), 1.0);
    }

    #[test]
    fn self_edges_are_dependent() {
        let nodes = vec![node_with(0, &[0, 1])];
        let report = measure(&nodes);
        assert_eq!(report.self_edges, 1);
        assert_eq!(report.dependent_entries, 1);
        assert!((report.independent_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicates_count_all_but_one() {
        let nodes = vec![node_with(0, &[5, 5, 5, 7])];
        let report = measure(&nodes);
        assert_eq!(report.total_entries, 4);
        assert_eq!(report.dependent_entries, 2);
    }

    #[test]
    fn tags_raise_the_count_beyond_duplicates() {
        let mut node = node_with(0, &[5, 5, 7]);
        // Tag both copies of 5: tags (2) exceed the duplicate rule (1).
        node.view_mut().set_dependent(0, true);
        node.view_mut().set_dependent(1, true);
        let report = measure(std::slice::from_ref(&node));
        assert_eq!(report.dependent_entries, 2);
        assert_eq!(report.tagged, 2);
    }

    #[test]
    fn tags_below_duplicate_rule_do_not_double_count() {
        let mut node = node_with(0, &[5, 5, 5]);
        node.view_mut().set_dependent(0, true);
        // Duplicate rule demands 2 dependents; one of them is the tagged one.
        let report = measure(std::slice::from_ref(&node));
        assert_eq!(report.dependent_entries, 2);
        assert_eq!(report.tagged, 1);
    }

    #[test]
    fn empty_sample_is_vacuously_independent() {
        let report = measure(&[]);
        assert_eq!(report.independent_fraction(), 1.0);
    }
}
