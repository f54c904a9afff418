//! The `repro` front end, driven as a process: the name table, its usage
//! exit, the argument hand-off, and a doc-drift guard holding the table to
//! README.md's two reproduction tables. What each artifact *prints* is
//! pinned at paper scale by the 18 tables of `tests/golden/evaluation/`
//! (held by a `cmp` per name in CI); this suite runs only the three artifacts that finish in
//! about a second in a debug build, and holds those three to their pins.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("repro prints UTF-8")
}

/// The names of a usage listing: first word of every indented line.
fn listed_names(usage: &str) -> Vec<&str> {
    usage
        .lines()
        .filter(|line| line.starts_with("  "))
        .map(|line| line.split_whitespace().next().expect("indented lines carry a name"))
        .collect()
}

#[test]
fn no_argument_and_unknown_name_print_the_20_names_and_exit_2() {
    for args in [&[][..], &["fig6_2"], &["--help"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: usage belongs on stderr");
        let stderr = text(&out.stderr);
        assert!(stderr.contains("usage: repro <name> [args]"), "{args:?}: {stderr}");
        assert_eq!(listed_names(stderr).len(), 20, "{args:?}: {stderr}");
        if let Some(name) = args.first() {
            assert!(stderr.starts_with(&format!("repro: unknown artifact {name:?}")), "{stderr}");
        }
    }
}

#[test]
fn unknown_name_is_reported_before_its_arguments_are_read() {
    let out = repro(&["frobnicate", "--dhat", "20", "--delta", "0.01"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "an unknown name runs nothing");
    let stderr = text(&out.stderr);
    assert!(stderr.starts_with("repro: unknown artifact \"frobnicate\"\n"), "{stderr}");
    assert!(!stderr.contains("--dhat"), "the arguments were read: {stderr}");
}

#[test]
fn names_are_the_rows_of_the_readme_tables() {
    let readme = include_str!("../../../README.md");
    let section = readme
        .split("## Reproducing the paper's evaluation")
        .nth(1)
        .and_then(|rest| rest.split("**Performance**").next())
        .expect("README keeps its reproduction section");
    // Table rows open with the name in backticks; the two daemon binaries
    // listed beside the artifacts belong to `sandf-daemon`.
    let mut documented: Vec<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .filter(|name| !["sandf-daemon", "soak_run"].contains(name))
        .collect();
    documented.sort_unstable();
    let usage = repro(&[]);
    let mut listed = listed_names(text(&usage.stderr));
    listed.sort_unstable();
    assert_eq!(listed, documented, "repro's table and README.md drifted apart");
}

#[test]
fn fast_artifacts_print_notes_then_a_tsv_header() {
    for name in ["expander_check", "join_leave", "thresholds"] {
        let out = repro(&[name]);
        assert!(out.status.success(), "{name}: {}", text(&out.stderr));
        let stdout = text(&out.stdout);
        assert!(stdout.starts_with("# "), "{name} must open with a note line");
        let header = stdout.lines().find(|line| !line.starts_with("# ")).expect("a table");
        let columns: Vec<&str> = header.split('\t').collect();
        assert!(
            columns.len() >= 2 && columns.iter().all(|c| c.parse::<f64>().is_err()),
            "{name}: {header:?} is not a TSV header"
        );
        let path = format!("{}/tests/golden/evaluation/{name}.tsv", env!("CARGO_MANIFEST_DIR"));
        let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(stdout, pinned, "{name} moved off its pinned evaluation table");
    }
}

#[test]
fn pinned_selection_rows_are_what_select_thresholds_returns() {
    let path = format!("{}/tests/golden/evaluation/thresholds.tsv", env!("CARGO_MANIFEST_DIR"));
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    // The first table of the artifact: d_hat, delta, d_L, s, P_dup, P_del, E_out.
    let rows: Vec<Vec<&str>> = pinned
        .lines()
        .skip_while(|line| !line.starts_with("d_hat\tdelta\t"))
        .skip(1)
        .take_while(|line| !line.is_empty())
        .map(|line| line.split('\t').collect())
        .collect();
    assert_eq!(rows.len(), 15, "five targets by three budgets");
    assert!(rows.iter().any(|row| row[..2] == ["20", "0.010000"]), "d_hat=20, delta=1% is pinned");
    for row in rows {
        let d_hat: usize = row[0].parse().expect("d_hat is an integer");
        let delta: f64 = row[1].parse().expect("delta is a number");
        let sel = sandf_markov::select_thresholds(d_hat, delta)
            .unwrap_or_else(|e| panic!("d_hat={d_hat} delta={delta}: {e}"));
        assert_eq!([sel.d_l.to_string(), sel.s.to_string()], [row[2], row[3]], "{row:?}");
        assert!(sel.to_config().is_ok(), "{row:?}: the selection is not a valid config");
    }
}

#[test]
fn scenario_run_rejects_an_unreadable_spec_before_running() {
    let out = repro(&["scenario_run", "/nonexistent.scn"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = text(&out.stderr);
    assert!(stderr.starts_with("scenario_run: /nonexistent.scn: "), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

#[test]
fn obs_report_toy_exposes_the_families_ci_greps_for() {
    let out = repro(&["obs_report", "--toy"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.starts_with("# observability report: n="), "the toy flag reached the artifact");
    for family in ["sandf_sim_step_sent", "sandf_sim_profile_step_ns"] {
        assert!(stdout.contains(&format!("# TYPE {family}")), "missing {family}");
    }
}
