//! PR 8 golden: the protocol zoo on the unified fast engines.
//!
//! `zoo_engine_table` drives S&F, the three baselines, and the three
//! Section 5 variants through the `Engine`/`ProtocolBehavior` traits on
//! both `FlatSimulation` and `ParSimulation`, at toy scale, and the TSV
//! is pinned byte-for-byte. This freezes the behavior implementations'
//! RNG draw schedules and the trait plumbing end to end: a change to any
//! behavior's arena walk, to the engines' delivery order, or to the sweep
//! executor's seeding shows up here as a readable diff.
//!
//! The par engine is additionally asserted thread-count invariant through
//! the zoo path (threads ∈ {1, 2, 8} inside `zoo_engine_table` would need
//! plumbing; instead the whole table is re-run and must reproduce).
//!
//! To regenerate after an *intentional* RNG/format change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test -p sandf-bench --test zoo_goldens
//! ```

mod support;

use sandf_bench::sweeps::zoo_engine_table;

use support::golden;

#[test]
fn zoo_engine_table_matches_recorded_golden() {
    let actual = zoo_engine_table(32, 12, 0.05, 2, 88);
    assert_eq!(
        actual,
        golden("pr8_zoo_engine.tsv", &actual),
        "zoo TSV drifted from the snapshot; if the change is intentional \
         (behavior RNG schedule, engine delivery order, seeding, or format), \
         regenerate with UPDATE_GOLDENS=1"
    );
    assert_eq!(actual, zoo_engine_table(32, 12, 0.05, 2, 88), "rerun must reproduce");
}

#[test]
fn zoo_table_reproduces_the_section_3_1_taxonomy() {
    // The drainage taxonomy must hold on the fast engines at modest scale:
    // lossy shuffle bleeds ids, S&F and the variants stay at or above
    // their duplication-compensated floor, push variants never shrink.
    let tsv = zoo_engine_table(48, 30, 0.10, 3, 19);
    let total = |protocol: &str, engine: &str| -> f64 {
        let row = tsv
            .lines()
            .find(|l| l.starts_with(&format!("{protocol}\t{engine}\t")))
            .unwrap_or_else(|| panic!("missing row {protocol}/{engine}"));
        row.split('\t').nth(2).expect("total_ids_mean column").parse().expect("numeric mean")
    };
    let initial = 48.0 * 8.0;
    for engine in ["flat", "par"] {
        assert!(
            total("shuffle", engine) < initial * 0.8,
            "shuffle must drain under loss on {engine}"
        );
        for protocol in ["sandf", "replace", "undelete", "batched"] {
            assert!(
                total(protocol, engine) >= initial * 0.8,
                "{protocol} must hold its id population on {engine}"
            );
        }
        assert!(total("push_pull", engine) >= initial, "push-pull never shrinks on {engine}");
    }
}
