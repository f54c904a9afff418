//! Behaviour digests pinned at the seed state, for the two seeds the
//! issue names and the run length `BENCHMARK.json` measures. A "pure
//! speed" change that moves a digest changed what is simulated; the run
//! flags it (it does not fail: a deliberate behaviour change re-pins).
//!
//! The rumour workload's digest covers `BroadcastLayer::fingerprint()`,
//! which includes `to_99` and the message counters, so the exact-count
//! metrics (`rounds_to_99`, `msgs_per_node`) are pinned with it.

use crate::metrics::RUN_SECONDS;

/// `(workload, seed, digest)` at `--seconds` = [`RUN_SECONDS`].
const PINS: &[(&str, u64, u64)] = &[
    ("steady_flat", 42, 0xd407_31c4_c82d_0b0f),
    ("steady_par", 42, 0xd97a_cfca_0c2f_f58c),
    ("churn_flat", 42, 0x54de_9518_8306_a57d),
    ("rumor_push", 42, 0x3f12_937b_5339_9bce),
    ("steady_flat", 2009, 0xbaa2_d4ef_5b88_ed6f),
    ("steady_par", 2009, 0xf3a7_b02f_bf55_bfe2),
    ("churn_flat", 2009, 0x6b2e_aae7_8ea8_2e18),
    ("rumor_push", 2009, 0xbe64_a0c5_d30a_9053),
];

/// How `digest` compares with the pin, as the run prints it.
#[must_use]
pub fn status(workload: &str, seed: u64, seconds: f64, digest: u64) -> String {
    if seconds != RUN_SECONDS as f64 {
        return "(no pin for this run length)".into();
    }
    match PINS.iter().find(|(w, s, _)| *w == workload && *s == seed) {
        None => "(no pin for this seed)".into(),
        Some(&(_, _, pinned)) if pinned == digest => "(matches the pin)".into(),
        Some(&(_, _, pinned)) => {
            format!("DIFFERS from the pinned {pinned:#018x}: the simulated behaviour changed")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_distinguishes_match_mismatch_and_absence() {
        let &(workload, seed, digest) = PINS.first().expect("pins exist");
        let seconds = RUN_SECONDS as f64;
        assert!(status(workload, seed, seconds, digest).contains("matches"));
        assert!(status(workload, seed, seconds, digest ^ 1).contains("DIFFERS"));
        assert!(status(workload, seed + 1_000_003, seconds, digest).contains("no pin"));
        assert!(status(workload, seed, seconds / 2.0, digest).contains("no pin"));
    }

    #[test]
    fn every_sim_workload_is_pinned_for_both_named_seeds() {
        for workload in ["steady_flat", "steady_par", "churn_flat", "rumor_push"] {
            for seed in [42, 2009] {
                assert!(
                    PINS.iter().any(|(w, s, _)| *w == workload && *s == seed),
                    "{workload} seed {seed}"
                );
            }
        }
    }
}
