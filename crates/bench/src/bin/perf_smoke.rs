//! Large-`n` performance smoke: drives the struct-of-arrays fast path at
//! scale and emits the machine-readable perf-trajectory JSON.
//!
//! ```text
//! perf_smoke [--nodes N] [--rounds R] [--loss F] [--seed S]
//!            [--engine flat|classic|par] [--protocol sandf|shuffle]
//!            [--threads T] [--out PATH] [--min-steps-per-sec F]
//!            [--metrics PATH]
//! ```
//!
//! Defaults: `--nodes 1000000 --rounds 50 --loss 0.01 --seed 42
//! --engine flat --protocol sandf --threads 1` (`--threads` only affects
//! `--engine par`; `--protocol shuffle` needs an arena engine — the
//! classic engine is S&F-only).
//! The JSON report is printed to stdout and, with
//! `--out`, also written to a file (CI uploads it as an artifact and the
//! PR commits it as `BENCH_PR<k>.json`). With `--min-steps-per-sec` the
//! binary exits nonzero when throughput falls below the floor, which is
//! how CI gates perf regressions; see EXPERIMENTS.md § Performance
//! methodology for how the floor is pinned.

use std::process::ExitCode;

use sandf_bench::parse_flag;
use sandf_bench::perf::{run, PerfEngine, PerfProtocol, PerfSmokeConfig};
use sandf_obs::MetricsRegistry;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match smoke(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf_smoke: {message}");
            ExitCode::FAILURE
        }
    }
}

fn smoke(args: &[String]) -> Result<ExitCode, String> {
    let nodes = parse_flag(args, "--nodes")?.unwrap_or(1_000_000);
    let rounds = parse_flag(args, "--rounds")?.unwrap_or(50);
    let mut config = PerfSmokeConfig::at_scale(nodes, rounds);
    if let Some(loss) = parse_flag(args, "--loss")? {
        config.loss = loss;
    }
    if let Some(seed) = parse_flag(args, "--seed")? {
        config.seed = seed;
    }
    if let Some(engine) = parse_flag::<String>(args, "--engine")? {
        config.engine = match engine.as_str() {
            "flat" => PerfEngine::Flat,
            "classic" => PerfEngine::Classic,
            "par" => PerfEngine::Par,
            other => return Err(format!("unknown engine {other:?} (flat|classic|par)")),
        };
    }
    if let Some(protocol) = parse_flag::<String>(args, "--protocol")? {
        config.protocol = match protocol.as_str() {
            "sandf" => PerfProtocol::Sf,
            "shuffle" => PerfProtocol::Shuffle,
            other => return Err(format!("unknown protocol {other:?} (sandf|shuffle)")),
        };
    }
    if config.engine == PerfEngine::Classic && config.protocol != PerfProtocol::Sf {
        return Err("the classic engine runs only S&F; use --engine flat or par".to_string());
    }
    if let Some(threads) = parse_flag::<usize>(args, "--threads")? {
        if threads == 0 {
            return Err("--threads must be positive".to_string());
        }
        config.threads = threads;
    }
    let out: Option<String> = parse_flag(args, "--out")?;
    let floor: Option<f64> = parse_flag(args, "--min-steps-per-sec")?;
    let metrics: Option<String> = parse_flag(args, "--metrics")?;

    let registry = MetricsRegistry::new();
    let report = run(config, &registry);
    let json = report.to_json();
    print!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = metrics {
        // Full registry exposition — phase-span histograms plus, for the
        // par engine, the `sim.par.shard_imbalance` gauge.
        std::fs::write(&path, registry.render_prometheus())
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(floor) = floor {
        if report.steps_per_sec < floor {
            eprintln!(
                "perf_smoke: throughput {:.0} steps/sec is below the pinned floor {floor:.0}",
                report.steps_per_sec
            );
            return Ok(ExitCode::FAILURE);
        }
        eprintln!(
            "perf_smoke: throughput {:.0} steps/sec clears the floor {floor:.0}",
            report.steps_per_sec
        );
    }
    Ok(ExitCode::SUCCESS)
}
