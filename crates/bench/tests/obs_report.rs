//! Golden tests for the observability report (toy scale).
//!
//! Two pins with different determinism budgets:
//!
//! * the **metric-name list** is pinned for the full report (profiler on)
//!   — names must be stable even though span values are not;
//! * the **rendered values** of the deterministic subset (profiler off)
//!   are pinned run to run (exposition, TSV, journal JSONL), and the
//!   exposition and journal byte for byte against recorded goldens.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p sandf-bench --test obs_report
//! ```

mod support;

use sandf_bench::obsrep::{obs_report, ObsReportConfig};

use support::golden;

fn toy(profile: bool) -> ObsReportConfig {
    ObsReportConfig { profile, ..ObsReportConfig::toy() }
}

#[test]
fn metric_names_are_pinned() {
    let report = obs_report(&toy(true));
    let expected = [
        "sim.profile.deliver_ns",
        "sim.profile.step_ns",
        "sim.step.actions",
        "sim.step.dead_letters",
        "sim.step.deleted",
        "sim.step.duplications",
        "sim.step.in_flight",
        "sim.step.lost",
        "sim.step.self_loops",
        "sim.step.sent",
        "sim.step.skipped",
        "sim.step.stored",
    ];
    assert_eq!(report.metric_names, expected, "metric names drifted — update docs and this pin");
}

#[test]
fn deterministic_subset_is_byte_identical_across_runs() {
    let run = || {
        let report = obs_report(&toy(false));
        (report.prometheus, report.tsv, report.journal_jsonl)
    };
    let (prom_a, tsv_a, journal_a) = run();
    let (prom_b, tsv_b, journal_b) = run();
    assert_eq!(prom_a, prom_b, "exposition must be seed-stable");
    assert_eq!(tsv_a, tsv_b, "TSV dump must be seed-stable");
    assert_eq!(journal_a, journal_b, "journal must be seed-stable");
    assert!(!journal_a.is_empty(), "journal must retain events");
}

/// The deterministic subset's exposition and journal, byte for byte: the
/// `sim.step.*` samples and the two-phase (`in_flight`, then `delivered`)
/// journal of the toy run.
#[test]
fn deterministic_subset_matches_recorded_goldens() {
    let report = obs_report(&toy(false));
    for (name, fresh) in [
        ("obs_report_toy_exposition.txt", &report.prometheus),
        ("obs_report_toy_journal.jsonl", &report.journal_jsonl),
    ] {
        assert_eq!(*fresh, golden(name, fresh), "{name}: obs_report moved");
    }
}

#[test]
fn exposition_covers_every_pillar_and_matches_the_sim_ledger() {
    let report = obs_report(&toy(true));
    for family in ["sandf_sim_step_sent", "sandf_sim_profile_step_ns"] {
        assert!(report.prometheus.contains(family), "exposition missing {family}");
    }
    // The sim.step.* counters are defined to equal the engine's ledger.
    let line = report
        .prometheus
        .lines()
        .find(|l| l.starts_with("sandf_sim_step_sent "))
        .expect("sent sample present");
    assert_eq!(line, format!("sandf_sim_step_sent {}", report.stats.sent));
}
