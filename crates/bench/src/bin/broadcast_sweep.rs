//! Dissemination workload driver: times a headline rumor broadcast over
//! live S&F views at scale, sweeps the protocol × rumor-channel grid, and
//! verifies the parallel engine's byte-identity for the broadcast layer.
//!
//! ```text
//! broadcast_sweep [--nodes N] [--burn-in B] [--rounds R] [--loss F]
//!                 [--seed S] [--fanout K] [--max-age A] [--pull]
//!                 [--table-nodes N] [--replicates K] [--par-check N]
//!                 [--out PATH] [--tsv PATH] [--max-rounds-to-99 R]
//! ```
//!
//! Defaults: `--nodes 1000000 --burn-in 30 --rounds 60 --loss 0.01
//! --seed 42 --fanout 1 --max-age 255 --table-nodes 2000 --replicates 3
//! --par-check 20000`. Pass `--table-nodes 0` / `--par-check 0` to skip
//! those sections.
//!
//! The JSON bundle goes to stdout and, with `--out`, to a file (the PR
//! commits it as `BENCH_PR10.json`). Its `"reports"` array carries one
//! `sandf-perf-smoke/v1` point (`engine: flat, protocol: broadcast`), so
//! `bench_compare` folds the combined membership + rumor loop into the
//! existing perf-trend gate. With `--max-rounds-to-99` the binary exits
//! nonzero when the headline spread misses the floor — the CI
//! broadcast-smoke gate. A par fingerprint mismatch always exits nonzero.

use std::process::ExitCode;
use std::time::Instant;

use sandf_bench::perf::peak_rss_bytes;
use sandf_bench::{parse_flag, sweeps};
use sandf_core::{NodeId, SfConfig};
use sandf_sim::{
    doerr_spread_prediction, topology, BroadcastConfig, BroadcastLayer, Engine, FlatSimulation,
    ParSimulation, RumorChannel, SpreadReport, UniformLoss,
};

struct SweepArgs {
    nodes: usize,
    burn_in: usize,
    rounds: usize,
    loss: f64,
    seed: u64,
    config: BroadcastConfig,
    table_nodes: usize,
    replicates: usize,
    par_nodes: usize,
}

/// One timed headline broadcast: burn the membership in, seed the rumor
/// at the smallest live id, interleave membership and rumor rounds.
fn headline(a: &SweepArgs) -> (SpreadReport, f64, f64) {
    let sf = SfConfig::new(16, 6).expect("legal config");
    let d0 = if a.nodes > 8 { 8 } else { 2 };
    let t0 = Instant::now();
    let mut sim = FlatSimulation::new(
        topology::random_iter(a.nodes, sf, d0, a.seed),
        UniformLoss::new(0.01).expect("legal loss"),
        a.seed,
    );
    sim.run_rounds(a.burn_in);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut layer =
        BroadcastLayer::with_channel(a.seed, a.config, RumorChannel::Uniform { rate: a.loss });
    let origin = Engine::live_ids(&sim).into_iter().min().expect("live node");
    layer.seed_rumor_at(origin);
    let t1 = Instant::now();
    layer.run(&mut sim, a.rounds);
    let run_ms = t1.elapsed().as_secs_f64() * 1e3;
    (layer.report(), build_ms, run_ms)
}

/// Runs the same broadcast on the parallel engine at every thread count
/// and returns the per-count state fingerprints (they must all match).
fn par_fingerprints(a: &SweepArgs) -> Vec<(usize, u64)> {
    let sf = SfConfig::new(16, 6).expect("legal config");
    let d0 = if a.par_nodes > 8 { 8 } else { 2 };
    [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let mut sim = ParSimulation::new(
                topology::random_iter(a.par_nodes, sf, d0, a.seed),
                UniformLoss::new(0.01).expect("legal loss"),
                a.seed,
                threads,
            );
            sim.run_rounds(10);
            let mut layer = BroadcastLayer::with_channel(
                a.seed,
                a.config,
                RumorChannel::Uniform { rate: a.loss },
            );
            layer.seed_rumor_at(NodeId::new(0));
            layer.run(&mut sim, 30);
            (threads, layer.fingerprint())
        })
        .collect()
}

fn opt_round(value: Option<u64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}

#[allow(clippy::too_many_arguments, clippy::cast_precision_loss)]
fn bundle_json(
    a: &SweepArgs,
    report: &SpreadReport,
    build_ms: f64,
    run_ms: f64,
    par: &[(usize, u64)],
) -> String {
    let s = report.stats;
    let steps = (a.nodes as u64) * report.rounds;
    let steps_per_sec = if run_ms > 0.0 { steps as f64 / (run_ms / 1e3) } else { 0.0 };
    let rss = peak_rss_bytes().map_or_else(|| "null".to_string(), |b| b.to_string());
    let identical = par.windows(2).all(|w| w[0].1 == w[1].1);
    let threads: Vec<String> = par.iter().map(|(t, _)| t.to_string()).collect();
    let prints: Vec<String> = par.iter().map(|(_, f)| format!("\"{f:016x}\"")).collect();
    let par_json = if par.is_empty() {
        "null".to_string()
    } else {
        format!(
            concat!(
                "{{ \"nodes\": {nodes}, \"burn_in\": 10, \"rounds\": 30, ",
                "\"threads\": [{threads}], \"fingerprints\": [{prints}], ",
                "\"identical\": {identical} }}"
            ),
            nodes = a.par_nodes,
            threads = threads.join(", "),
            prints = prints.join(", "),
            identical = identical,
        )
    };
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"sandf-broadcast/v1\",\n",
            "  \"headline\": {{\n",
            "    \"nodes\": {nodes},\n",
            "    \"burn_in\": {burn_in},\n",
            "    \"rounds\": {rounds},\n",
            "    \"fanout\": {fanout},\n",
            "    \"max_age\": {max_age},\n",
            "    \"pull\": {pull},\n",
            "    \"rumor_loss\": {loss},\n",
            "    \"seed\": {seed},\n",
            "    \"coverage\": {coverage:.6},\n",
            "    \"to_half\": {to_half},\n",
            "    \"to_99\": {to_99},\n",
            "    \"to_full\": {to_full},\n",
            "    \"messages_per_node\": {mpn:.3},\n",
            "    \"predicted_rounds\": {predicted:.2},\n",
            "    \"phases_ms\": {{ \"build\": {build:.3}, \"run\": {run:.3} }},\n",
            "    \"stats\": {{ \"sent\": {sent}, \"lost\": {lost}, ",
            "\"dead_letters\": {dead_letters}, \"delivered\": {delivered}, ",
            "\"duplicates\": {duplicates}, \"pull_requests\": {pull_requests}, ",
            "\"pull_replies\": {pull_replies}, \"pull_hits\": {pull_hits} }}\n",
            "  }},\n",
            "  \"par_identity\": {par_identity},\n",
            "  \"reports\": [\n",
            "    {{\n",
            "      \"schema\": \"sandf-perf-smoke/v1\",\n",
            "      \"nodes\": {nodes},\n",
            "      \"rounds\": {rounds},\n",
            "      \"config\": {{ \"s\": 16, \"d_l\": 6 }},\n",
            "      \"loss\": {loss},\n",
            "      \"seed\": {seed},\n",
            "      \"engine\": \"flat\",\n",
            "      \"protocol\": \"broadcast\",\n",
            "      \"threads\": 1,\n",
            "      \"phases_ms\": {{ \"build\": {build:.3}, \"run\": {run:.3}, ",
            "\"measure\": 0.0 }},\n",
            "      \"steps\": {steps},\n",
            "      \"steps_per_sec\": {sps:.1},\n",
            "      \"peak_rss_bytes\": {rss}\n",
            "    }}\n",
            "  ]\n",
            "}}\n",
        ),
        nodes = a.nodes,
        burn_in = a.burn_in,
        rounds = report.rounds,
        fanout = a.config.fanout,
        max_age = a.config.max_age,
        pull = a.config.pull,
        loss = a.loss,
        seed = a.seed,
        coverage = report.coverage,
        to_half = opt_round(report.to_half),
        to_99 = opt_round(report.to_99),
        to_full = opt_round(report.to_full),
        mpn = report.messages_per_node,
        predicted = doerr_spread_prediction(a.nodes),
        build = build_ms,
        run = run_ms,
        sent = s.sent,
        lost = s.lost,
        dead_letters = s.dead_letters,
        delivered = s.delivered,
        duplicates = s.duplicates,
        pull_requests = s.pull_requests,
        pull_replies = s.pull_replies,
        pull_hits = s.pull_hits,
        par_identity = par_json,
        steps = steps,
        sps = steps_per_sec,
        rss = rss,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match sweep(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("broadcast_sweep: {message}");
            ExitCode::FAILURE
        }
    }
}

fn sweep(args: &[String]) -> Result<ExitCode, String> {
    let fanout: usize = parse_flag(args, "--fanout")?.unwrap_or(1);
    let max_age: u8 = parse_flag(args, "--max-age")?.unwrap_or(u8::MAX);
    if fanout == 0 {
        return Err("--fanout must be positive".to_string());
    }
    let config = if args.iter().any(|a| a == "--pull") {
        BroadcastConfig::push_pull(fanout, max_age)
    } else {
        BroadcastConfig::push(fanout, max_age)
    };
    let loss: f64 = parse_flag(args, "--loss")?.unwrap_or(0.01);
    if !(0.0..=1.0).contains(&loss) {
        return Err(format!("--loss {loss} not in [0,1]"));
    }
    let a = SweepArgs {
        nodes: parse_flag(args, "--nodes")?.unwrap_or(1_000_000),
        burn_in: parse_flag(args, "--burn-in")?.unwrap_or(30),
        rounds: parse_flag(args, "--rounds")?.unwrap_or(60),
        loss,
        seed: parse_flag(args, "--seed")?.unwrap_or(42),
        config,
        table_nodes: parse_flag(args, "--table-nodes")?.unwrap_or(2_000),
        replicates: parse_flag(args, "--replicates")?.unwrap_or(3),
        par_nodes: parse_flag(args, "--par-check")?.unwrap_or(20_000),
    };
    if a.nodes < 2 {
        return Err("--nodes must be at least 2".to_string());
    }
    let out: Option<String> = parse_flag(args, "--out")?;
    let tsv: Option<String> = parse_flag(args, "--tsv")?;
    let floor: Option<u64> = parse_flag(args, "--max-rounds-to-99")?;

    if a.table_nodes > 0 {
        eprintln!(
            "broadcast_sweep: sweeping the protocol × channel grid at n = {}…",
            a.table_nodes
        );
        let table = sweeps::broadcast_table(a.table_nodes, 20, a.rounds, a.replicates, a.seed);
        if let Some(path) = &tsv {
            std::fs::write(path, &table).map_err(|e| format!("writing {path}: {e}"))?;
        } else {
            eprint!("{table}");
        }
    }

    eprintln!(
        "broadcast_sweep: headline run at n = {} ({} burn-in + {} broadcast rounds)…",
        a.nodes, a.burn_in, a.rounds
    );
    let (report, build_ms, run_ms) = headline(&a);
    let par = if a.par_nodes > 0 {
        eprintln!("broadcast_sweep: par byte-identity at n = {} × threads 1/2/8…", a.par_nodes);
        par_fingerprints(&a)
    } else {
        Vec::new()
    };

    let json = bundle_json(&a, &report, build_ms, run_ms, &par);
    print!("{json}");
    if let Some(path) = out {
        std::fs::write(&path, &json).map_err(|e| format!("writing {path}: {e}"))?;
    }

    if !par.windows(2).all(|w| w[0].1 == w[1].1) {
        eprintln!("broadcast_sweep: par broadcast fingerprints diverge across thread counts");
        return Ok(ExitCode::FAILURE);
    }
    if let Some(floor) = floor {
        match report.to_99 {
            Some(rounds) if rounds <= floor => {
                eprintln!(
                    "broadcast_sweep: spread to 99 % in {rounds} rounds clears the floor {floor}"
                );
            }
            Some(rounds) => {
                eprintln!(
                    "broadcast_sweep: spread to 99 % took {rounds} rounds, beyond the floor {floor}"
                );
                return Ok(ExitCode::FAILURE);
            }
            None => {
                eprintln!(
                    "broadcast_sweep: never reached 99 % coverage (got {:.4})",
                    report.coverage
                );
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}
