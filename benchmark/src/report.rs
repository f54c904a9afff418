//! `all` and `aa`: every workload in its own child process, one after
//! another, so `peak_rss_mb` is per workload and nothing competes for
//! the cores; then the tables, `result.json`, and the A/A verdict.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, quartiles_exclusive};
use crate::{Args, OUT_DIR};

/// Above this 1-minute load average `aa` refuses to start: the numbers
/// would measure the neighbours, not the program.
const MAX_LOAD: f64 = 0.5;
/// Metrics that are counts made by the program: equal for a fixed seed.
const EXACT: &[&str] = &["rounds_to_99", "msgs_per_node"];

/// Writes `text` to `path`, creating the directory first.
///
/// # Errors
///
/// Returns the I/O error of the failing step.
pub fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// One child run: its result line, and the digest line if it printed one.
struct ChildRun {
    result: Json,
    fingerprint: Option<String>,
    ok: bool,
}

fn run_child(workload: &str, args: &Args, trace: bool, echo: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!("the {workload} run printed no result line ({e}); exit {:?}", output.status.code())
    })?;
    let fingerprint = stdout
        .lines()
        .find_map(|line| line.strip_prefix("fingerprint "))
        .map(|rest| rest.trim().to_string());
    if echo {
        // Everything but the result line, for the reader.
        let lines: Vec<&str> = stdout.lines().collect();
        for line in &lines[..lines.len().saturating_sub(1)] {
            println!("    {line}");
        }
    }
    let ok = output.status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(ChildRun { result, fingerprint, ok })
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn print_table(title: &str, defs: &[MetricDef], results: &BTreeMap<&str, Json>) {
    println!("\n{title}");
    print!("{:<32} {:>8}", "metric", "unit");
    for (workload, _) in WORKLOADS {
        print!(" {workload:>16}");
    }
    println!();
    for def in defs {
        print!("{:<32} {:>8}", def.name, def.unit);
        for (workload, _) in WORKLOADS {
            match results.get(workload).and_then(|r| metric_value(r, def.name)) {
                Some(v) => print!(" {:>16}", format_value(v)),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e5 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Maps the verdict of `all` / `aa` to the process exit code.
fn exit_code(verdict: Result<bool, String>) -> ExitCode {
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

pub fn run_all(args: &Args) -> ExitCode {
    exit_code(all(args))
}

fn all(args: &Args) -> Result<bool, String> {
    println!(
        "sandf benchmark: seed {}, {} s per timed region, loopback sockets only",
        args.seed, args.seconds
    );
    let mut plain = BTreeMap::new();
    let mut traced = BTreeMap::new();
    let mut entries = Vec::new();
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        println!("\n== {workload} (plain)");
        let run = run_child(workload, args, false, true)?;
        all_ok &= run.ok;
        let mut entry = vec![
            ("workload".to_string(), Json::from(*workload)),
            ("fingerprint".to_string(), run.fingerprint.map_or(Json::Null, Json::from)),
            ("plain".to_string(), run.result.clone()),
        ];
        plain.insert(*workload, run.result);
        if args.trace {
            println!("\n== {workload} (traced)");
            let run = run_child(workload, args, true, true)?;
            all_ok &= run.ok;
            entry.push(("traced".to_string(), run.result.clone()));
            traced.insert(*workload, run.result);
        }
        entries.push(Json::Object(entry));
    }

    print_table("end-to-end metrics (tracing off)", END_TO_END, &plain);
    println!("\nfailure accounting");
    for (workload, _) in WORKLOADS {
        let field = |key| plain[workload].get(key).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "  {workload:<12} ops_attempted {:>12}  ops_failed {}",
            field("attempted"),
            field("failed")
        );
    }
    if args.trace {
        print_table(
            "per-layer metrics (traced run; 0 = layer not exercised by the workload)",
            PER_LAYER,
            &traced,
        );
    }

    let doc = Json::object([
        ("environment", crate::sys::environment()),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("correct", Json::from(all_ok)),
        ("workloads", Json::Array(entries)),
    ]);
    let path = Path::new(OUT_DIR).join("result.json");
    write_file(&path, &doc.encode())
        .map_err(|e| format!("could not write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    if !all_ok {
        eprintln!("verification failed on at least one workload");
    }
    Ok(all_ok)
}

/// The A/A verdict on one metric × workload.
#[derive(Debug, PartialEq)]
pub struct Agreement {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Inter-quartile distance as a share of the median.
    pub spread: f64,
    /// Largest disagreement between any two sets, as a share of the
    /// smaller value.
    pub worst_pair: f64,
}

/// Compares the values one metric took over the sets.
#[must_use]
pub fn agreement(values: &[f64]) -> Option<Agreement> {
    let (q1, median, q3) = quartiles_exclusive(values)?;
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let worst_pair = if min > 0.0 { (max - min) / min } else { 0.0 };
    Some(Agreement { median, q1, q3, spread: iqr_share(values), worst_pair })
}

/// The bound an observed spread supports: twice the spread, never below
/// the floor the metric was declared with, never above the contract's cap.
#[must_use]
pub fn suggested_bound(floor: f64, worst_spread: f64) -> f64 {
    (2.0 * worst_spread).max(floor).min(0.25)
}

pub fn run_aa(args: &Args) -> ExitCode {
    match crate::sys::load_average() {
        Some(load) if load > MAX_LOAD => {
            eprintln!(
                "1-minute load average is {load:.2} (> {MAX_LOAD}): the box is busy, an A/A run now \
                 would measure the neighbours; try again when it is idle"
            );
            ExitCode::from(2)
        }
        _ => exit_code(aa(args)),
    }
}

fn aa(args: &Args) -> Result<bool, String> {
    println!(
        "A/A: {} plain sets, seed {}, {} s per timed region",
        args.runs, args.seed, args.seconds
    );
    // values[(workload, metric)] = one value per set
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut all_ok = true;
    for set in 0..args.runs {
        for (workload, _) in WORKLOADS {
            let run = run_child(workload, args, false, false)?;
            println!(
                "set {} of {}: {workload:<12} {}",
                set + 1,
                args.runs,
                if run.ok { "ok" } else { "VERIFICATION FAILED" }
            );
            all_ok &= run.ok;
            for def in END_TO_END {
                if let Some(v) = metric_value(&run.result, def.name) {
                    values.entry((workload, def.name)).or_default().push(v);
                }
            }
        }
    }

    println!(
        "\n{:<14} {:<16} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "iqr", "pair", "bound"
    );
    let mut worst_spread: BTreeMap<&str, f64> = BTreeMap::new();
    let mut agree = true;
    for (workload, _) in WORKLOADS {
        for def in END_TO_END {
            let Some(a) = values.get(&(*workload, def.name)).and_then(|v| agreement(v)) else {
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let exact = EXACT.contains(&def.name);
            let ok = if exact { a.worst_pair == 0.0 } else { a.worst_pair <= bound };
            agree &= ok;
            let worst = worst_spread.entry(def.name).or_insert(0.0);
            *worst = worst.max(a.spread);
            println!(
                "{:<14} {:<16} {:>14} {:>14} {:>14} {:>7.2}% {:>7.2}% {:>5.0}%{}",
                workload,
                def.name,
                format_value(a.q1),
                format_value(a.median),
                format_value(a.q3),
                a.spread * 100.0,
                a.worst_pair * 100.0,
                bound * 100.0,
                if ok {
                    ""
                } else if exact {
                    "  <- NOT IDENTICAL"
                } else {
                    "  <- BEYOND THE BOUND"
                }
            );
        }
    }
    println!("\nbounds to copy into BENCHMARK.json (max of the declared floor and twice the widest spread):");
    for def in END_TO_END {
        let floor = def.bound.expect("end-to-end metrics carry a bound");
        let spread = worst_spread.get(def.name).copied().unwrap_or(0.0);
        println!(
            "  {:<16} {:.2}   (widest inter-quartile spread {:.2}%)",
            def.name,
            suggested_bound(floor, spread),
            spread * 100.0
        );
    }
    if !all_ok {
        eprintln!("verification failed in at least one run");
    }
    if !agree {
        eprintln!("two sets of the same commit disagree beyond a bound");
    }
    Ok(all_ok && agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_reports_spread_and_worst_pair() {
        let a = agreement(&[100.0, 102.0, 101.0, 99.0, 104.0]).unwrap();
        assert_eq!(a.median, 101.0);
        assert!((a.worst_pair - 5.0 / 99.0).abs() < 1e-12);
        assert!((a.spread - (103.0 - 99.5) / 101.0).abs() < 1e-12);
        let exact = agreement(&[27.0, 27.0, 27.0]).unwrap();
        assert_eq!((exact.spread, exact.worst_pair), (0.0, 0.0));
        assert_eq!(agreement(&[1.0]), None);
    }

    #[test]
    fn suggested_bound_is_floored_and_capped() {
        assert_eq!(suggested_bound(0.05, 0.01), 0.05);
        assert_eq!(suggested_bound(0.05, 0.04), 0.08);
        assert_eq!(suggested_bound(0.05, 0.5), 0.25);
    }

    #[test]
    fn values_format_by_magnitude() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(1_653_211.4), "1653211");
        assert_eq!(format_value(306.25), "306.2");
        assert_eq!(format_value(1.203_44), "1.2034");
    }
}
