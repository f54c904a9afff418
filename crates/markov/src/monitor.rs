//! The live paper monitor: Observation 5.1 outdegree bounds and the
//! Lemma 6.10 stale-fraction ceiling, evaluated in one walk of an
//! overlay's rows. The daemon's invariant checker and the scenario
//! driver both run it.
//!
//! # Observation 5.1 (exact)
//!
//! Every live node's outdegree must be even and within `[d_L, s]` at every
//! quiescent point. A caller walks the rows at a point where no protocol
//! step is in flight (the daemon's single-threaded event loop, a scenario
//! between rounds), so any violation is a real protocol bug — the check
//! has no tolerance.
//!
//! # Lemma 6.10 (banded)
//!
//! Id instances of a departed node decay per round by at least the
//! survival factor `1 − (1 − ℓ − δ)·d_L/s²`. The lemma's `ℓ` is the
//! *actual* message-loss probability, which varies as faults are injected
//! and healed — a partition raises `ℓ` to near 1 for its window, slowing
//! decay. A ceiling computed from a configured base loss would therefore
//! under-estimate survivors during and after a partition and fire false
//! alarms precisely where faults are injected. Instead the monitor
//! advances each departure cohort's bound incrementally, one window at a
//! time, using the **realized** loss of that window: `(base drops +
//! injected drops + dead letters) / sends`, and the realized duplication
//! fraction `δ` = duplicating sends / sends, both measured from the
//! caller's message counters. `δ` raises the factor, so leaving it out
//! would lower the ceiling below the lemma's bound. The ceiling is the
//! cohorts' total surviving instances (≤ `leaves · s · bound`) over the
//! measured edge count, with a multiplicative headroom
//! ([`STALE_HEADROOM`]) and a small additive slack ([`STALE_SLACK`]) for
//! sampling noise: the one tolerance of the check.
//!
//! # Cost
//!
//! A check walks the live rows once: O(live · s), with no hashing. The
//! caller visits each live row as its owner's id and the ids in its
//! visible slots (the shape of `sandf_sim::Arena::for_each_row` and
//! `Engine::for_each_live_row`), and resolves an id to its row, or to
//! `None` when no live node holds it. The row's entries are counted for
//! Observation 5.1 from its slots, not from a degree ledger, so the oracle
//! reads the views themselves. The Lemma 6.10 ceiling needs only three
//! numbers from the overlay — edges, dangling edges and weakly connected
//! components — so the same walk counts them in place instead of
//! snapshotting a [`MembershipGraph`](sandf_graph::MembershipGraph):
//! every entry is an edge, and one that resolves to no row is dangling.
//! Resolved entries count toward their row's indegree and union their two
//! rows in the workspace's [`DisjointSets`]. The union-find and the
//! indegree counts cover every row the caller has issued, live or
//! departed, at 12 B a row, beside 4 B per live row for the walk order
//! ([`Monitor::in_degrees`] reads the indegrees in it). All three are
//! kept across checks, so a steady-state check allocates nothing. A
//! departed row is never walked and never resolved to, so it stays a
//! singleton: the component count is the number of sets less the
//! departed rows.

use sandf_core::{NodeId, SfConfig};
use sandf_graph::DisjointSets;

use crate::decay::survival_factor;

/// Multiplicative headroom on the Lemma 6.10 ceiling. The lemma bounds
/// expectations; a live run is one sample path.
pub const STALE_HEADROOM: f64 = 1.5;

/// Additive slack on the ceiling, absorbing measurement granularity at
/// small edge counts.
pub const STALE_SLACK: f64 = 0.02;

/// Cap on per-check reported degree offenders (the journal is bounded).
pub const MAX_REPORTED_VIOLATIONS: usize = 16;

/// One departure cohort: `leaves` nodes that left in round `left`, and the
/// current Lemma 6.10 survival bound on their id instances.
#[derive(Clone, Copy, Debug)]
struct Cohort {
    leaves: f64,
    bound: f64,
    left: u64,
}

/// Cumulative message counters at a check point. All fields are totals
/// since the monitor started; it differences them internally.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WireTotals {
    /// Messages handed to the send path (outermost layer).
    pub sent: u64,
    /// Drops by every loss source: base loss + injected faults + dead
    /// letters to departed peers.
    pub dropped: u64,
    /// Duplicating sends among them (messages marked dependent).
    pub duplications: u64,
}

/// The result of one check.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The round the check ran at.
    pub round: u64,
    /// Live node count.
    pub live: usize,
    /// Mean outdegree over live nodes.
    pub mean_out: f64,
    /// Minimum outdegree.
    pub min_out: usize,
    /// Maximum outdegree.
    pub max_out: usize,
    /// Nodes violating Observation 5.1, with their outdegrees (truncated
    /// to the first [`MAX_REPORTED_VIOLATIONS`]).
    pub degree_violations: Vec<(NodeId, usize)>,
    /// Total Observation 5.1 offenders (may exceed the reported list).
    pub degree_violation_count: usize,
    /// Measured stale-edge fraction: dangling edges / total edges.
    pub stale_fraction: f64,
    /// The banded Lemma 6.10 ceiling (headroom and slack applied).
    pub stale_ceiling: f64,
    /// Whether the stale fraction exceeded the ceiling.
    pub stale_violation: bool,
    /// Weakly connected components of the live overlay.
    pub components: usize,
    /// Realized message-loss rate over the window ending at this check.
    pub window_loss: f64,
    /// Realized duplication fraction over the window.
    pub window_delta: f64,
}

/// The monitor's persistent state across checks.
#[derive(Clone, Debug)]
pub struct Monitor {
    config: SfConfig,
    cohorts: Vec<Cohort>,
    last_round: u64,
    last: WireTotals,
    /// Row → set, over every row the caller has issued.
    sets: DisjointSets,
    /// Row → indegree, over the same rows.
    in_degree: Vec<u32>,
    /// The rows of the last walk, in walk order.
    walked: Vec<u32>,
}

impl Monitor {
    /// Creates a monitor for an overlay run under `config`, at round 0
    /// with every counter at 0.
    #[must_use]
    pub fn new(config: SfConfig) -> Self {
        Self {
            config,
            cohorts: Vec::new(),
            last_round: 0,
            last: WireTotals::default(),
            sets: DisjointSets::new(0),
            in_degree: Vec::new(),
            walked: Vec::new(),
        }
    }

    /// Records a departure of `count` nodes in `round`; their survival
    /// bound starts at 1 and decays from `round` on: the next
    /// [`advance`](Self::advance) credits it only the rounds of its window
    /// after `round`.
    pub fn record_leaves(&mut self, round: u64, count: usize) {
        if count > 0 {
            self.cohorts.push(Cohort { leaves: count as f64, bound: 1.0, left: round });
        }
    }

    /// Sum over cohorts of the bounded surviving instance count.
    #[must_use]
    pub fn surviving_instances_bound(&self) -> f64 {
        let s = self.config.view_size() as f64;
        self.cohorts.iter().map(|c| c.leaves * s * c.bound).sum()
    }

    /// The indegrees of the last check's walked rows, in walk order: the
    /// live nodes' indegrees in the overlay, counting resolved entries.
    pub fn in_degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.walked.iter().map(|&k| self.in_degree[k as usize] as usize)
    }

    /// Closes the window ending at `round`, with cumulative counters
    /// `totals`: advances every cohort's Lemma 6.9/6.10 bound across it at
    /// its realized rates, and returns them as `(loss, δ)`.
    pub fn advance(&mut self, round: u64, totals: WireTotals) -> (f64, f64) {
        let d_sent = totals.sent.saturating_sub(self.last.sent);
        // A counter's share of the window's sends, 0 over no sends.
        let rate = |now: u64, then: u64| {
            now.saturating_sub(then).min(d_sent) as f64 / d_sent.max(1) as f64
        };
        let window_loss = rate(totals.dropped, self.last.dropped);
        let window_delta = rate(totals.duplications, self.last.duplications);

        let elapsed = round.saturating_sub(self.last_round);
        if elapsed > 0 {
            let (d_l, s) = (self.config.lower_threshold(), self.config.view_size());
            // `ℓ + δ` capped below 1 so the factor stays a probability.
            let cap = if window_loss + window_delta >= 1.0 { 0.999 } else { 1.0 };
            let l = window_loss.min(cap);
            let factor = survival_factor(l, window_delta.min(1.0 - l), d_l, s).clamp(0.0, 1.0);
            let decay =
                |rounds: u64| factor.powi(i32::try_from(rounds.min(1 << 30)).unwrap_or(i32::MAX));
            for cohort in &mut self.cohorts {
                // A cohort decays from its own leave round, never from before.
                cohort.bound *= decay(round.saturating_sub(self.last_round.max(cohort.left)));
            }
            // Prune cohorts whose bounded contribution is below one-tenth
            // of an edge; they can no longer move the ceiling.
            self.cohorts.retain(|c| c.leaves * s as f64 * c.bound >= 0.1);
        }
        self.last_round = round;
        self.last = totals;
        (window_loss, window_delta)
    }

    /// Runs one check at `round` with cumulative counters `totals`: one
    /// walk of the live rows, then [`advance`](Self::advance) and the
    /// banded Lemma 6.10 ceiling against the walked overlay.
    ///
    /// `walk` visits each live row once, as its owner's id and the ids in
    /// its visible slots, in any order; `resolve` maps an id to its row
    /// below `rows` (the rows issued so far, live and departed), or to
    /// `None` when no live node holds it. Rows must be visited at a
    /// quiescent point.
    ///
    /// # Panics
    ///
    /// Panics if a visited owner does not resolve, or resolves to a row at
    /// or above `rows`.
    pub fn check(
        &mut self,
        round: u64,
        totals: WireTotals,
        rows: usize,
        walk: impl FnOnce(&mut dyn FnMut(u32, &[u32])),
        resolve: impl Fn(u32) -> Option<usize>,
    ) -> CheckOutcome {
        let (d_l, s) = (self.config.lower_threshold(), self.config.view_size());

        // One walk: Observation 5.1 per row, exact, and the overlay counts.
        let (mut degree_violations, mut degree_violation_count) = (Vec::new(), 0);
        let (mut edges, mut dangling, mut min_out, mut max_out) = (0usize, 0usize, usize::MAX, 0);
        let (sets, in_degree, walked) = (&mut self.sets, &mut self.in_degree, &mut self.walked);
        sets.reset(rows);
        in_degree.clear();
        in_degree.resize(rows, 0);
        walked.clear();
        walk(&mut |owner, row| {
            let k = resolve(owner).expect("a walked row's owner is live");
            walked.push(k as u32);
            // Most entries name a row already in `k`'s set: one find
            // decides that, and the root is found again only after a union
            // may have moved it.
            let mut root = sets.find(k);
            for &word in row {
                match resolve(word) {
                    None => dangling += 1,
                    Some(other) => {
                        in_degree[other] += 1;
                        if sets.find(other) != root {
                            sets.union(root, other);
                            root = sets.find(root);
                        }
                    }
                }
            }
            let d = row.len();
            edges += d;
            min_out = min_out.min(d);
            max_out = max_out.max(d);
            if !d.is_multiple_of(2) || d < d_l || d > s {
                degree_violation_count += 1;
                if degree_violations.len() < MAX_REPORTED_VIOLATIONS {
                    degree_violations.push((NodeId::new(owner.into()), d));
                }
            }
        });
        let live = self.walked.len();
        let (window_loss, window_delta) = self.advance(round, totals);

        // Lemma 6.10 ceiling against the measured overlay.
        let surviving = self.surviving_instances_bound();
        let stale_fraction = if edges == 0 { 0.0 } else { dangling as f64 / edges as f64 };
        let raw_ceiling = if edges == 0 { 1.0 } else { (surviving / edges as f64).min(1.0) };
        let stale_ceiling = (raw_ceiling * STALE_HEADROOM + STALE_SLACK).min(1.0);

        CheckOutcome {
            round,
            live,
            mean_out: edges as f64 / live as f64,
            min_out,
            max_out,
            degree_violations,
            degree_violation_count,
            stale_fraction,
            stale_ceiling,
            stale_violation: stale_fraction > stale_ceiling,
            // A departed row is never walked nor resolved to: a singleton.
            components: self.sets.count() - (rows - live),
            window_loss,
            window_delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SfConfig {
        SfConfig::new(12, 4).unwrap()
    }

    /// Checks the rows `(owner, view)` with ids as their own rows, live
    /// when they own a row.
    fn check(monitor: &mut Monitor, rows: &[(u32, Vec<u32>)], issued: usize) -> CheckOutcome {
        let live: Vec<u32> = rows.iter().map(|(owner, _)| *owner).collect();
        monitor.check(
            1,
            WireTotals::default(),
            issued,
            |visit| rows.iter().for_each(|(owner, view)| visit(*owner, view)),
            |word| live.contains(&word).then_some(word as usize),
        )
    }

    #[test]
    fn duplications_slow_the_bound_decay() {
        let (s, d_l) = (config().view_size(), config().lower_threshold());
        let mut dup = Monitor::new(config());
        let mut clean = Monitor::new(config());
        dup.record_leaves(0, 8);
        clean.record_leaves(0, 8);
        let totals = WireTotals { sent: 1000, dropped: 100, duplications: 300 };
        assert_eq!(dup.advance(100, totals), (0.1, 0.3));
        let _ = clean.advance(100, WireTotals { duplications: 0, ..totals });
        // `powi` may fold at compile time, so the reference is held to
        // 1e-12, not to the bit.
        let bound = |delta: f64| 8.0 * s as f64 * survival_factor(0.1, delta, d_l, s).powi(100);
        for (monitor, delta) in [(&dup, 0.3), (&clean, 0.0)] {
            let gap = monitor.surviving_instances_bound() / bound(delta) - 1.0;
            assert!(gap.abs() < 1e-12, "δ = {delta}: {gap}");
        }
        assert!(dup.surviving_instances_bound() > clean.surviving_instances_bound() * 2.0);
    }

    /// A cohort recorded inside a window decays from its own leave round:
    /// the advance closing the window credits it `factor^(round − left)`,
    /// not `factor^(round − last_round)`, and later windows decay it whole.
    #[test]
    fn a_cohort_decays_from_its_own_leave_round() {
        let (s, d_l) = (config().view_size(), config().lower_threshold());
        let mut monitor = Monitor::new(config());
        let _ = monitor.advance(10, WireTotals::default());
        monitor.record_leaves(10, 2);
        monitor.record_leaves(16, 4);
        let totals = WireTotals { sent: 1000, dropped: 100, duplications: 0 };
        assert_eq!(monitor.advance(20, totals), (0.1, 0.0));
        let factor = survival_factor(0.1, 0.0, d_l, s);
        let want = s as f64 * (2.0 * factor.powi(10) + 4.0 * factor.powi(4));
        let gap = monitor.surviving_instances_bound() / want - 1.0;
        assert!(gap.abs() < 1e-12, "mid-window cohort credited from the window's start: {gap}");
        let totals = WireTotals { sent: 2000, dropped: 200, duplications: 0 };
        let _ = monitor.advance(25, totals);
        let want = want * factor.powi(5);
        let gap = monitor.surviving_instances_bound() / want - 1.0;
        assert!(gap.abs() < 1e-12, "a later window decays every cohort whole: {gap}");
    }

    #[test]
    fn indegrees_count_resolved_entries_only() {
        // Row 3 departed: its id dangles in row 0, and it stays a singleton.
        let mut monitor = Monitor::new(config());
        let rows = [(2, vec![2, 1]), (0, vec![1, 2, 3, 3]), (1, vec![0, 0])];
        let outcome = check(&mut monitor, &rows, 4);
        assert_eq!((outcome.live, outcome.components), (3, 1));
        assert_eq!(outcome.stale_fraction, 0.25);
        assert_eq!(outcome.mean_out.to_bits(), (8.0f64 / 3.0).to_bits());
        // Rows 2, 0, 1 in walk order; 6 of 8 entries resolve.
        assert_eq!(monitor.in_degrees().collect::<Vec<_>>(), [2, 2, 2]);
        // Row 2 empties its view; row 1 names itself.
        let rows = [(0, vec![1, 2, 3, 3]), (1, vec![0, 1]), (2, vec![])];
        let _ = check(&mut monitor, &rows, 4);
        assert_eq!(monitor.in_degrees().collect::<Vec<_>>(), [1, 2, 1]);
    }
}
