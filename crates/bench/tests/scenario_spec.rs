//! PR 6 scenario-spec contract: the declarative grammar round-trips
//! through its canonical printer (`parse ∘ print = id` on ASTs), and
//! malformed specs are rejected with errors that name the offending line
//! and say what was expected there.

use sandf_bench::scenario::{builtin_specs, ChurnSpec, PhaseFault, Scenario};

/// A spec exercising every fault model, churn, and every header directive.
const KITCHEN_SINK: &str = "\
# full-grammar fixture
scenario kitchen_sink
n 48
view 12 4
degree 8
replicates 2
seed 7
burn_in 5

phase 4 uniform 0.05
phase 3 bursty 0.05 0.2 0.01 0.5
phase 6 partition 3 0.9 0.01   # heals when the phase ends
phase 4 perlink 11 0.25 0.005 0.8
phase 5 capacity 3 0.4 3 0.02
churn 2 1
phase 4 victims 4 0.9 0.01
";

#[test]
fn kitchen_sink_parses_and_round_trips() {
    let parsed = Scenario::parse(KITCHEN_SINK).expect("full-grammar spec parses");
    assert_eq!(parsed.name, "kitchen_sink");
    assert_eq!(parsed.phases.len(), 6);
    assert_eq!(parsed.phases[4].churn, Some(ChurnSpec { leaves: 2, joins: 1 }));
    assert_eq!(
        parsed.phases[5].fault,
        PhaseFault::Victims { count: 4, victim_rate: 0.9, base: 0.01, victims: Vec::new() }
    );
    let printed = parsed.to_string();
    let reparsed = Scenario::parse(&printed).expect("canonical printing parses");
    assert_eq!(parsed, reparsed, "parse ∘ print is not the identity");
    // And printing is a fixed point: print ∘ parse ∘ print = print.
    assert_eq!(reparsed.to_string(), printed);
}

#[test]
fn builtins_round_trip() {
    for (name, spec) in builtin_specs() {
        let parsed = Scenario::parse(spec).unwrap_or_else(|e| panic!("{name}: {e}"));
        let reparsed = Scenario::parse(&parsed.to_string()).expect("round-trips");
        assert_eq!(parsed, reparsed, "{name}: round-trip changed the AST");
    }
}

#[test]
fn defaults_are_filled_and_printed() {
    let minimal = "scenario min\nn 24\nview 12 4\nphase 3 uniform 0.1\n";
    let parsed = Scenario::parse(minimal).expect("minimal spec parses");
    assert_eq!(parsed.replicates, 3);
    assert_eq!(parsed.seed, 42);
    assert_eq!(parsed.burn_in, 0);
    assert!(parsed.degree >= 2 && parsed.degree.is_multiple_of(2));
    // The canonical printing makes the defaults explicit, and still
    // round-trips to the same AST.
    let printed = parsed.to_string();
    assert!(printed.contains("replicates 3"));
    assert_eq!(Scenario::parse(&printed).expect("parses"), parsed);
}

/// Asserts that `spec` is rejected, that the error points at `line`, and
/// that the message contains every fragment in `expect` — the fragments
/// are what make the error actionable.
fn rejects(spec: &str, line: usize, expect: &[&str]) {
    let error = Scenario::parse(spec).expect_err("malformed spec must be rejected");
    assert_eq!(error.line, line, "wrong line in: {error}");
    for fragment in expect {
        assert!(
            error.message.contains(fragment),
            "error {:?} does not mention {fragment:?}",
            error.message
        );
    }
}

#[test]
fn rejects_unknown_directive() {
    rejects(
        "scenario x\nn 24\nview 12 4\nfrobnicate 3\nphase 1 uniform 0\n",
        4,
        &["unknown directive", "frobnicate", "phase"],
    );
}

#[test]
fn rejects_unknown_fault_model() {
    rejects(
        "scenario x\nn 24\nview 12 4\nphase 5 gauss 0.3\n",
        4,
        &["unknown fault model", "gauss", "partition"],
    );
}

#[test]
fn rejects_out_of_range_rate() {
    rejects("scenario x\nn 24\nview 12 4\nphase 5 uniform 1.5\n", 4, &["outside [0, 1]"]);
}

#[test]
fn rejects_wrong_arity_with_usage() {
    rejects("scenario x\nn 24\nview 12\nphase 1 uniform 0\n", 3, &["view <s> <d_L>"]);
    rejects(
        "scenario x\nn 24\nview 12 4\nphase 5 partition 2\n",
        4,
        &["partition <regions> <sever> <base>"],
    );
}

#[test]
fn rejects_non_numeric_argument() {
    rejects("scenario x\nn lots\nview 12 4\nphase 1 uniform 0\n", 2, &["integer", "lots"]);
}

#[test]
fn rejects_duplicate_directive() {
    rejects("scenario x\nn 24\nn 32\nview 12 4\nphase 1 uniform 0\n", 3, &["duplicate", "n"]);
}

#[test]
fn rejects_orphan_churn() {
    rejects(
        "scenario x\nn 24\nview 12 4\nchurn 1 1\nphase 1 uniform 0\n",
        4,
        &["must follow a `phase`"],
    );
}

#[test]
fn rejects_illegal_config() {
    // d_L too close to s: SfConfig's own validation, surfaced with the line.
    rejects("scenario x\nn 24\nview 12 11\nphase 1 uniform 0\n", 3, &["not a legal config"]);
}

#[test]
fn rejects_degenerate_models() {
    rejects("scenario x\nn 24\nview 12 4\nphase 5 partition 1 0.5 0\n", 4, &["at least 2 regions"]);
    rejects("scenario x\nn 24\nview 12 4\nphase 5 capacity 1 0.5 1 0\n", 4, &["period"]);
    rejects("scenario x\nn 24\nview 12 4\nphase 5 victims 0 0.5 0\n", 4, &["at least one victim"]);
    rejects("scenario x\nn 24\nview 12 4\nphase 0 uniform 0\n", 4, &["at least 1 round"]);
}

#[test]
fn rejects_missing_header_and_empty_schedule() {
    rejects("n 24\nview 12 4\nphase 1 uniform 0\n", 0, &["scenario <name>"]);
    rejects("scenario x\nview 12 4\nphase 1 uniform 0\n", 0, &["`n <nodes>`"]);
    rejects("scenario x\nn 24\nphase 1 uniform 0\n", 0, &["view <s> <d_L>"]);
    rejects("scenario x\nn 24\nview 12 4\n", 0, &["at least one `phase`"]);
}

#[test]
fn rejects_whole_spec_inconsistencies() {
    rejects("scenario x\nn 8\nview 12 4\nphase 1 victims 9 0.5 0\n", 0, &["victims", "fewer"]);
    rejects("scenario x\nn 6\nview 12 4\nphase 1 uniform 0\nchurn 4 0\n", 0, &["fewer than 4"]);
    rejects("scenario x\nn 24\nview 12 4\ndegree 30\nphase 1 uniform 0\n", 0, &["does not fit"]);
}

#[test]
fn error_display_names_the_line() {
    let error = Scenario::parse("scenario x\nn 24\nview 12 4\nphase 5 gauss 1\n").unwrap_err();
    let shown = error.to_string();
    assert!(shown.contains("line 4"), "display {shown:?} should name the line");
}
