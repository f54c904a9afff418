//! Streaming (incremental) degree statistics.
//!
//! The engines' original `measure` paths rebuilt a [`MembershipGraph`]
//! (`O(n·s)`) whenever a sweep wanted a degree distribution, which at
//! n=10⁷ costs more than the rounds being measured. This module keeps a
//! live outdegree histogram that the engines maintain at store/delete
//! time — every path that moves a node's degree ledger (initiate,
//! receive, join, leave) shifts one histogram bucket — so the common
//! degree readers (live count, edge count, min/max/mean degree) become
//! `O(s)` snapshots with no arena scan.
//!
//! The invariant, pinned by `streaming_stats` property tests on both
//! engines: after any schedule of rounds, joins, leaves, and fault
//! updates, the streaming histogram equals a from-scratch rebuild over
//! the live nodes' degree ledgers.
//!
//! [`MembershipGraph`]: sandf_graph::MembershipGraph

/// A live histogram of node outdegrees: `histogram()[d]` counts the live
/// nodes whose outdegree ledger reads `d`, for `0 ≤ d ≤ s`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegreeStats {
    hist: Vec<u64>,
}

impl DegreeStats {
    /// An empty histogram for view size `s` (buckets `0..=s`).
    #[must_use]
    pub fn new(s: usize) -> Self {
        Self { hist: vec![0; s + 1] }
    }

    /// A from-scratch rebuild over a degree ledger — the `O(n)` reference
    /// the streaming invariant is checked against.
    pub fn rebuild(s: usize, degrees: impl IntoIterator<Item = u32>) -> Self {
        let mut stats = Self::new(s);
        for d in degrees {
            stats.add(d);
        }
        stats
    }

    /// Records a node entering the live set with outdegree `d`.
    pub(crate) fn add(&mut self, d: u32) {
        self.hist[d as usize] += 1;
    }

    /// Records a node leaving the live set with outdegree `d`.
    pub(crate) fn remove(&mut self, d: u32) {
        debug_assert!(self.hist[d as usize] > 0, "degree histogram underflow");
        self.hist[d as usize] -= 1;
    }

    /// Records one node's degree moving from `before` to `after`.
    #[inline]
    pub(crate) fn shift(&mut self, before: u32, after: u32) {
        if before != after {
            self.remove(before);
            self.add(after);
        }
    }

    /// Applies a signed per-bucket delta (the par engine's shards report
    /// their histogram movement this way; addition commutes, so the merge
    /// is shard-order independent).
    ///
    /// # Panics
    ///
    /// Panics (debug) when a bucket would underflow.
    pub(crate) fn apply_deltas(&mut self, deltas: &[i64]) {
        debug_assert_eq!(deltas.len(), self.hist.len());
        for (bucket, delta) in self.hist.iter_mut().zip(deltas) {
            if *delta >= 0 {
                *bucket += delta.unsigned_abs();
            } else {
                debug_assert!(*bucket >= delta.unsigned_abs(), "degree histogram underflow");
                *bucket -= delta.unsigned_abs();
            }
        }
    }

    /// The histogram buckets (`0..=s`).
    #[must_use]
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }

    /// Number of live nodes (the histogram's mass).
    #[must_use]
    pub fn live_nodes(&self) -> u64 {
        self.hist.iter().sum()
    }

    /// Total directed edges — the sum of live outdegrees, equal to the
    /// membership graph's visible edge count.
    #[must_use]
    pub fn edges(&self) -> u64 {
        self.hist.iter().enumerate().map(|(d, &count)| d as u64 * count).sum()
    }

    /// The smallest live outdegree, or `None` with no live nodes.
    #[must_use]
    pub fn min_degree(&self) -> Option<usize> {
        self.hist.iter().position(|&count| count > 0)
    }

    /// The largest live outdegree, or `None` with no live nodes.
    #[must_use]
    pub fn max_degree(&self) -> Option<usize> {
        self.hist.iter().rposition(|&count| count > 0)
    }

    /// Mean live outdegree (0.0 with no live nodes).
    #[must_use]
    pub fn mean_degree(&self) -> f64 {
        let live = self.live_nodes();
        if live == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.edges() as f64 / live as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_matches_incremental_maintenance() {
        let mut streaming = DegreeStats::new(8);
        streaming.add(4);
        streaming.add(6);
        streaming.add(4);
        streaming.shift(4, 2);
        streaming.remove(6);
        let reference = DegreeStats::rebuild(8, [4u32, 2]);
        assert_eq!(streaming, reference);
    }

    #[test]
    fn readers_agree_with_the_histogram() {
        let stats = DegreeStats::rebuild(6, [2u32, 4, 4, 6]);
        assert_eq!(stats.live_nodes(), 4);
        assert_eq!(stats.edges(), 16);
        assert_eq!(stats.min_degree(), Some(2));
        assert_eq!(stats.max_degree(), Some(6));
        assert!((stats.mean_degree() - 4.0).abs() < 1e-12);
        assert_eq!(stats.histogram(), &[0, 0, 1, 0, 2, 0, 1]);
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let stats = DegreeStats::new(4);
        assert_eq!(stats.live_nodes(), 0);
        assert_eq!(stats.min_degree(), None);
        assert_eq!(stats.max_degree(), None);
        assert!(stats.mean_degree().abs() < 1e-12);
    }

    #[test]
    fn signed_deltas_merge_commutatively() {
        let mut a = DegreeStats::rebuild(4, [2u32, 2, 4]);
        let mut b = a.clone();
        let first = [0i64, 0, -1, 1, 0];
        let second = [1i64, 0, -1, 0, 0];
        a.apply_deltas(&first);
        a.apply_deltas(&second);
        b.apply_deltas(&second);
        b.apply_deltas(&first);
        assert_eq!(a, b);
        assert_eq!(a.live_nodes(), 3);
    }
}
