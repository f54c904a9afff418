//! Old-harness vs unified-engine comparison: shuffle on the retired
//! `BaselineHarness` step loop vs `FlatSimulation` through the
//! `Engine`/`ProtocolBehavior` traits, same `n`, same loss rate.
//!
//! ```text
//! engine_speedup [--nodes N] [--harness-rounds R] [--engine-rounds R]
//!                [--loss F] [--seed S] [--out PATH] [--min-speedup F]
//! ```
//!
//! Defaults: `--nodes 100000 --harness-rounds 2 --engine-rounds 50
//! --loss 0.05 --seed 42`. The round counts differ deliberately: the
//! harness pays an `O(n)` receiver scan per delivery hop, so at
//! `n = 10⁵` a couple of its rounds already dominate the wall-clock,
//! while steps/sec stays comparable across round counts. The JSON report
//! goes to stdout and, with `--out`, to a file (the PR commits it as
//! `BENCH_PR<k>.json`); with `--min-speedup` the binary exits nonzero
//! when the engine fails to clear the floor, which is how CI pins the
//! ≥10× claim.

use std::process::ExitCode;

use sandf_bench::parse_flag;
use sandf_bench::perf::shuffle_speedup;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match compare(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("engine_speedup: {message}");
            ExitCode::FAILURE
        }
    }
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let nodes = parse_flag(args, "--nodes")?.unwrap_or(100_000);
    let harness_rounds = parse_flag(args, "--harness-rounds")?.unwrap_or(2);
    let engine_rounds = parse_flag(args, "--engine-rounds")?.unwrap_or(50);
    let loss = parse_flag(args, "--loss")?.unwrap_or(0.05);
    let seed = parse_flag(args, "--seed")?.unwrap_or(42);
    let out: Option<String> = parse_flag(args, "--out")?;
    let floor: Option<f64> = parse_flag(args, "--min-speedup")?;
    if nodes < 2 {
        return Err("--nodes must be at least 2".to_string());
    }

    let report = shuffle_speedup(nodes, harness_rounds, engine_rounds, loss, seed);
    let json = report.to_json();
    print!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(floor) = floor {
        if report.speedup < floor {
            eprintln!(
                "engine_speedup: {:.1}x is below the pinned floor {floor:.1}x",
                report.speedup
            );
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("engine_speedup: {:.1}x clears the floor {floor:.1}x", report.speedup);
    }
    Ok(ExitCode::SUCCESS)
}
