//! Output verification shared by the workloads, run outside the timed
//! region: the paper's invariants and the engines' own ledgers.

use sandf_core::SfConfig;
use sandf_sim::{DegreeStats, SimStats};

/// The outcome of a run's checks. Every failed check counts as one
/// failed operation and makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub notes: Vec<String>,
    pub failures: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: &str, detail: impl FnOnce() -> String) {
        if ok {
            self.notes.push(format!("ok    {what}"));
        } else {
            self.failures += 1;
            self.notes.push(format!("FAIL  {what}: {}", detail()));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(format!("note  {line}"));
    }
}

/// Ledger identities on settled `SimStats` totals since construction:
/// `actions = expected`, `sent = actions − self_loops` (S&F never
/// replies) and `sent = lost + dead_letters + stored + deleted`.
pub fn ledger(checks: &mut Checks, stats: &SimStats, expected_actions: u64, in_flight: usize) {
    checks.check(
        stats.actions == expected_actions,
        "ledger: actions = live nodes x rounds",
        || format!("{} actions, expected {expected_actions}", stats.actions),
    );
    checks.check(
        stats.sent + stats.self_loops == stats.actions && stats.replies == 0,
        "ledger: sent = actions - self_loops",
        || format!("{stats:?}"),
    );
    checks.check(
        in_flight == 0
            && stats.sent == stats.lost + stats.dead_letters + stats.stored + stats.deleted,
        "ledger: sent = lost + dead_letters + stored + deleted after settle()",
        || format!("{in_flight} in flight, {stats:?}"),
    );
}

/// Without joins or leaves every edge change is a message event: a send
/// removes two ids unless it duplicates, a store adds two, so
/// `Δedges = 2·(duplications − lost − deleted − dead_letters)` exactly.
/// Lemma 6.6's `dup ≈ ℓ + del` is this identity at `Δedges = 0`; the
/// run is far too short to reach that steady state (it takes hundreds
/// of rounds), so the exact form is checked and the gap only reported.
pub fn edge_ledger(checks: &mut Checks, stats: &SimStats, edges_at_build: u64, edges_now: u64) {
    let created = 2 * stats.duplications as i128;
    let destroyed = 2 * (stats.lost + stats.deleted + stats.dead_letters) as i128;
    let delta = edges_now as i128 - edges_at_build as i128;
    checks.check(
        delta == created - destroyed,
        "ledger: edge change = 2 x (dup - lost - deleted - dead_letters)",
        || format!("edges {edges_at_build} -> {edges_now}, {stats:?}"),
    );
    if stats.sent > 0 {
        let per_send = |count: u64| count as f64 / stats.sent as f64;
        let gap = per_send(stats.duplications) - per_send(stats.lost) - per_send(stats.deleted);
        checks.note(format!(
            "Lemma 6.6 gap dup - (loss + del) = {gap:+.4} per send (steady-state tolerance 0.008; \
             this short run is still draining its bootstrap degree)"
        ));
    }
}

/// Observation 5.1: every live outdegree is even and within `[d_L, s]`.
/// Returns the number of offending nodes.
pub fn observation_5_1(checks: &mut Checks, degrees: &DegreeStats, config: SfConfig) -> u64 {
    let offenders: u64 = degrees
        .histogram()
        .iter()
        .enumerate()
        .filter(|(d, _)| d % 2 == 1 || *d < config.lower_threshold() || *d > config.view_size())
        .map(|(_, &count)| count)
        .sum();
    checks.check(offenders == 0, "Obs 5.1: outdegrees even and within [d_L, s]", || {
        format!("{offenders} offending nodes, histogram {:?}", degrees.histogram())
    });
    offenders
}

/// FNV-1a over little-endian words: the behaviour digest of a sim run.
#[must_use]
pub fn fingerprint(stats: &SimStats, degrees: &DegreeStats, extra: &[u64]) -> u64 {
    let words = [
        stats.actions,
        stats.self_loops,
        stats.sent,
        stats.lost,
        stats.dead_letters,
        stats.stored,
        stats.deleted,
        stats.duplications,
        stats.skipped,
        stats.replies,
    ];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words.iter().chain(degrees.histogram()).chain(extra) {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SimStats {
        SimStats {
            actions: 100,
            self_loops: 40,
            sent: 60,
            lost: 2,
            dead_letters: 1,
            stored: 50,
            deleted: 7,
            duplications: 4,
            ..SimStats::default()
        }
    }

    #[test]
    fn ledger_accepts_consistent_totals_and_counts_each_break() {
        let mut ok = Checks::default();
        ledger(&mut ok, &stats(), 100, 0);
        // Δedges = 2·(4 − 2 − 7 − 1) = −12.
        edge_ledger(&mut ok, &stats(), 1000, 988);
        assert_eq!(ok.failures, 0, "{:?}", ok.notes);

        let mut bad = Checks::default();
        ledger(&mut bad, &SimStats { stored: 49, ..stats() }, 101, 0);
        edge_ledger(&mut bad, &stats(), 1000, 990);
        assert_eq!(bad.failures, 3);
    }

    #[test]
    fn observation_5_1_flags_odd_and_out_of_range_degrees() {
        let config = SfConfig::new(16, 6).unwrap();
        let mut checks = Checks::default();
        let good = DegreeStats::rebuild(16, [6, 8, 16, 12]);
        assert_eq!(observation_5_1(&mut checks, &good, config), 0);
        let bad = DegreeStats::rebuild(16, [4, 7, 8]);
        assert_eq!(observation_5_1(&mut checks, &bad, config), 2);
        assert_eq!(checks.failures, 1);
    }

    #[test]
    fn fingerprint_moves_with_any_counter() {
        let degrees = DegreeStats::rebuild(16, [6, 8]);
        let base = fingerprint(&stats(), &degrees, &[]);
        assert_eq!(base, fingerprint(&stats(), &degrees, &[]));
        assert_ne!(base, fingerprint(&SimStats { lost: 3, ..stats() }, &degrees, &[]));
        assert_ne!(base, fingerprint(&stats(), &DegreeStats::rebuild(16, [6, 10]), &[]));
        assert_ne!(base, fingerprint(&stats(), &degrees, &[1]));
    }
}
