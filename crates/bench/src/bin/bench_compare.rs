//! Perf-trend gate: compares fresh `perf_smoke` reports against the
//! committed `BENCH_PR*.json` trajectory and fails on regressions.
//!
//! ```text
//! bench_compare --baseline-dir DIR [--tolerance F] CURRENT.json...
//! ```
//!
//! Every `BENCH_*.json` in `--baseline-dir` is loaded as a baseline
//! (bare `sandf-perf-smoke/v1` reports and `sandf-perf-trend/v1` bundles
//! both work; other schemas are skipped). Each CURRENT report is matched
//! against the **best** same-config baseline; the markdown delta table
//! goes to stdout (CI appends it to `$GITHUB_STEP_SUMMARY`), and the
//! exit code is nonzero when any cell fell more than `--tolerance`
//! (default 0.30) below its baseline. Cells with no baseline yet are
//! reported but never fail.

use std::process::ExitCode;

use sandf_bench::compare::{
    any_regressed, compare, markdown_table, parse_reports, PerfPoint, DEFAULT_TOLERANCE,
};
use sandf_bench::parse_flag;

fn load(path: &str) -> Result<Vec<PerfPoint>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_name()
        .map_or_else(|| path.to_string(), |n| n.to_string_lossy().into_owned());
    parse_reports(&text, &name).map_err(|e| format!("parsing {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gate(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench_compare: {message}");
            ExitCode::FAILURE
        }
    }
}

fn gate(args: &[String]) -> Result<ExitCode, String> {
    let baseline_dir: String = parse_flag(args, "--baseline-dir")?.unwrap_or_else(|| ".".into());
    let tolerance: f64 = parse_flag(args, "--tolerance")?.unwrap_or(DEFAULT_TOLERANCE);
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("--tolerance must be in [0, 1), got {tolerance}"));
    }

    // Everything after the flags is a current report path.
    let mut current_paths = Vec::new();
    let mut skip = false;
    for (i, arg) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if arg == "--baseline-dir" || arg == "--tolerance" {
            skip = true;
            continue;
        }
        if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        }
        let _ = i;
        current_paths.push(arg.clone());
    }
    if current_paths.is_empty() {
        return Err("no current reports given (pass perf_smoke JSON paths)".to_string());
    }

    let mut baselines = Vec::new();
    let mut entries: Vec<_> = std::fs::read_dir(&baseline_dir)
        .map_err(|e| format!("reading {baseline_dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        })
        .collect();
    entries.sort();
    for path in &entries {
        baselines.extend(load(&path.to_string_lossy())?);
    }
    eprintln!(
        "bench_compare: {} baseline point(s) from {} file(s) in {baseline_dir}",
        baselines.len(),
        entries.len()
    );

    let mut current = Vec::new();
    for path in &current_paths {
        let points = load(path)?;
        if points.is_empty() {
            return Err(format!("{path} holds no sandf-perf-smoke/v1 report"));
        }
        current.extend(points);
    }

    let rows = compare(&current, &baselines, tolerance);
    print!("{}", markdown_table(&rows, tolerance));
    if any_regressed(&rows) {
        eprintln!("bench_compare: throughput regression beyond {:.0} %", tolerance * 100.0);
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
