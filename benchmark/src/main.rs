//! The workspace benchmark: five named workloads, five end-to-end
//! metrics, and a per-layer ledger traced from outside the engines.
//!
//! ```text
//! sandf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sandf-benchmark all [--seed <n>] [--seconds <s>] [--trace]
//! sandf-benchmark aa  [--runs <k>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form is one run in this process; its last line of standard
//! output is the result object. `all` runs every workload in its own
//! child process, one after another, and writes `benchmark/out/result.json`;
//! `aa` repeats the plain set and reports how far equal runs disagree.

mod json;
mod metrics;
mod pins;
mod report;
mod stats;
mod sys;
mod trace;
mod verify;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use json::Json;
use metrics::{MetricSet, RUN_SECONDS};
use trace::Tracer;
use workloads::{Outcome, Scale};

/// Where traces and `result.json` go, relative to the checkout root the
/// benchmark is run from.
pub const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  sandf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  sandf-benchmark all [--seed <n>] [--seconds <s>] [--trace]
  sandf-benchmark aa  [--runs <k>] [--seed <n>] [--seconds <s>]";

/// Parsed command line. One struct for all three forms: the flags mean
/// the same thing in each.
#[derive(Debug, PartialEq)]
pub struct Args {
    pub mode: Mode,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub runs: usize,
}

#[derive(Debug, PartialEq)]
pub enum Mode {
    Workload(String),
    All,
    Aa,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut parsed =
        Args { mode: Mode::All, seed: 42, seconds: RUN_SECONDS as f64, trace: false, runs: 5 };
    let mut k = 0;
    let value = |k: &mut usize, flag: &str| -> Result<String, String> {
        *k += 1;
        args.get(*k).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while k < args.len() {
        match args[k].as_str() {
            "all" if mode.is_none() => mode = Some(Mode::All),
            "aa" if mode.is_none() => mode = Some(Mode::Aa),
            "--workload" if mode.is_none() => {
                mode = Some(Mode::Workload(value(&mut k, "--workload")?))
            }
            "--seed" => {
                let text = value(&mut k, "--seed")?;
                parsed.seed =
                    text.parse().map_err(|_| format!("--seed {text:?} is not a whole number"))?;
            }
            "--seconds" => {
                let text = value(&mut k, "--seconds")?;
                parsed.seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("--seconds {text:?} is not within (0, 60]"))?;
            }
            "--runs" => {
                let text = value(&mut k, "--runs")?;
                parsed.runs = text
                    .parse()
                    .ok()
                    .filter(|r| (2..=50).contains(r))
                    .ok_or_else(|| format!("--runs {text:?} is not within 2..=50"))?;
            }
            "--trace" => {
                // `--trace 0|1` for one run; bare `--trace` for `all`.
                parsed.trace = match args.get(k + 1).map(String::as_str) {
                    Some("0") => {
                        k += 1;
                        false
                    }
                    Some("1") => {
                        k += 1;
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
        k += 1;
    }
    parsed.mode = mode.ok_or("name a workload with --workload, or `all`, or `aa`")?;
    Ok(parsed)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome, metrics: &MetricSet) -> Json {
    Json::object([
        ("correct", Json::from(outcome.correct())),
        ("attempted", Json::from(outcome.attempted.max(1))),
        ("failed", Json::from(outcome.failed_total())),
        ("metrics", metrics.to_json()),
    ])
}

fn run_workload(name: &str, args: &Args) -> ExitCode {
    let mut tracer = Tracer::new(args.trace);
    let workload = tracer.enter("workload");
    let outcome = match workloads::run(name, &Scale::full(), args.seed, args.seconds, &mut tracer) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    tracer.exit(workload);

    println!(
        "workload {name}  seed {}  seconds {}  trace {}  (sockets: loopback only)",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcome.checks.notes {
        println!("  {note}");
    }
    if let Some(digest) = outcome.fingerprint {
        println!(
            "fingerprint {digest:#018x}  {}",
            pins::status(name, args.seed, args.seconds, digest)
        );
    }
    println!("ops_attempted {}  ops_failed {}", outcome.attempted, outcome.failed_total());
    let metrics = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    for (def, value) in metrics.iter() {
        println!("  {:<32} {:>18.6} {}", def.name, value, def.unit);
    }
    if args.trace {
        let path = Path::new(OUT_DIR).join(format!("{name}.trace.json"));
        match report::write_file(&path, &tracer.to_json().encode()) {
            Ok(()) => println!("trace: {} spans -> {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    println!("{}", result_line(&outcome, metrics).encode());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.mode {
        Mode::Workload(name) => run_workload(name, &args),
        Mode::All => report::run_all(&args),
        Mode::Aa => report::run_aa(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let args = parse("--workload churn_flat --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.mode, Mode::Workload("churn_flat".into()));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert!(!parse("--workload x --seed 7 --seconds 2.5 --trace 0").unwrap().trace);
    }

    #[test]
    fn all_and_aa_take_their_flags_in_any_order() {
        let args = parse("all --seed 2009 --trace").unwrap();
        assert_eq!((&args.mode, args.seed, args.trace), (&Mode::All, 2009, true));
        assert_eq!(args.seconds, RUN_SECONDS as f64);
        let args = parse("aa --runs 7").unwrap();
        assert_eq!((&args.mode, args.runs, args.trace), (&Mode::Aa, 7, false));
        assert_eq!(parse("all --trace --seed 3").unwrap().seed, 3);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            "",
            "--seed 1",
            "all aa",
            "all --seed",
            "all --seed x",
            "all --seconds 0",
            "all --seconds 61",
            "aa --runs 1",
            "--workload",
            "all --frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::new();
        outcome.end_to_end.set("setup_s", 0.8127);
        let line = result_line(&outcome, &outcome.end_to_end).encode();
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(
            doc.get("metrics").unwrap().as_object().unwrap().len(),
            metrics::END_TO_END.len()
        );
    }
}
