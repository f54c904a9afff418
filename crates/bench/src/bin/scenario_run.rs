//! Adversarial fault scenarios on the replicated-sweep executor.
//!
//! With no arguments, runs the built-in scenario library — one scenario
//! per fault family (partition-then-heal, persistent weak links, targeted
//! hub loss with churn, a slow capacity cohort) — and prints each
//! envelope table: per phase, the measured indegree statistics with 95%
//! CIs next to the §6.2 degree-MC prediction at the phase's effective
//! loss rate and the Lemma 6.10 stale-entry ceiling, plus an `in`/`OUT`
//! verdict on the indegree envelope.
//!
//! Pass file paths to run scenario specs of your own (the grammar is
//! documented in `sandf_bench::scenario` and EXPERIMENTS.md). Output is
//! deterministic: seeds are fixed in the specs and both the sweep
//! executor and the par engine are thread-count-independent. An
//! unreadable path or an invalid spec prints `scenario_run: <path>: …` on
//! stderr and exits 1 before any scenario runs.

use std::process::ExitCode;

use sandf_bench::note;
use sandf_bench::scenario::{builtin_specs, render_scenario, Scenario};

/// Engine threads per replicate; the sweep already fans replicates out
/// across cores, so the inner engine stays narrow.
const ENGINE_THREADS: usize = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scenarios = match load(&args) {
        Ok(scenarios) => scenarios,
        Err(message) => {
            eprintln!("scenario_run: {message}");
            return ExitCode::FAILURE;
        }
    };

    note("adversarial fault scenarios: measured indegree vs the degree-MC prediction at each");
    note("phase's effective loss rate; verdict `OUT` = outside ci95 + 1.0 — structured loss");
    note("is *supposed* to escape the uniform envelope (detection power), uniform phases are not");
    for scenario in &scenarios {
        println!();
        print!("{}", render_scenario(scenario, ENGINE_THREADS));
    }
    ExitCode::SUCCESS
}

/// Reads and parses every spec up front: the built-in library with no
/// arguments, otherwise one spec per path.
fn load(paths: &[String]) -> Result<Vec<Scenario>, String> {
    if paths.is_empty() {
        return builtin_specs().iter().map(|&(name, spec)| parse(name, spec)).collect();
    }
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse(path, &text)
        })
        .collect()
}

fn parse(origin: &str, text: &str) -> Result<Scenario, String> {
    Scenario::parse(text).map_err(|e| match e.line {
        0 => format!("{origin}: {}", e.message),
        line => format!("{origin}: line {line}: {}", e.message),
    })
}
