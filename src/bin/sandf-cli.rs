//! `sandf-cli` — run S&F simulations and analyses from the command line.
//!
//! ```text
//! sandf-cli simulate   [--n 500] [--s 40] [--dl 18] [--loss 0.01]
//!                      [--rounds 300] [--seed 42]
//! sandf-cli analyze    [--s 40] [--dl 18] [--loss 0.01]
//! sandf-cli thresholds [--dhat 30] [--delta 0.01]
//! ```
//!
//! All output is plain text; every run is deterministic for a given seed.

use std::collections::HashMap;
use std::process::ExitCode;

use sandf::sim::experiment::{initial_degree, steady_state_degrees, ExperimentParams};
use sandf::sim::topology;
use sandf::{
    select_thresholds, DegreeMc, DegreeMcParams, DegreeStats, FlatSimulation, SfConfig, UniformLoss,
};

/// Parsed `--key value` flags.
#[derive(Debug, Default)]
struct Flags(HashMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = HashMap::new();
        let mut iter = args.iter();
        while let Some(key) = iter.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected a --flag, found '{key}'"));
            };
            let value = iter.next().ok_or_else(|| format!("flag --{name} is missing a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Self(map))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("invalid value '{raw}' for --{name}")),
        }
    }
}

fn usage() -> &'static str {
    "usage: sandf-cli <simulate|analyze|thresholds> [--flag value ...]\n\
     \n\
     simulate   --n 500 --s 40 --dl 18 --loss 0.01 --rounds 300 --seed 42\n\
     analyze    --s 40 --dl 18 --loss 0.01\n\
     thresholds --dhat 30 --delta 0.01"
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let n: usize = flags.get("n", 500)?;
    let s: usize = flags.get("s", 40)?;
    let d_l: usize = flags.get("dl", 18)?;
    let loss: f64 = flags.get("loss", 0.01)?;
    let rounds: usize = flags.get("rounds", 300)?;
    let seed: u64 = flags.get("seed", 42)?;

    let config = SfConfig::new(s, d_l).map_err(|e| e.to_string())?;
    let nodes = topology::circulant(n, config, initial_degree(config, n));
    let loss_model = UniformLoss::new(loss).map_err(|e| e.to_string())?;
    let mut sim = FlatSimulation::new(nodes, loss_model, seed);
    sim.run_rounds(rounds);

    let graph = sim.graph();
    let out = DegreeStats::from_samples(&graph.out_degrees());
    let inn = DegreeStats::from_samples(&graph.in_degrees());
    let dep = sim.dependence();
    let stats = sim.stats();
    println!("n={n} s={s} d_L={d_l} loss={loss} rounds={rounds} seed={seed}");
    println!("connected: {}", graph.is_weakly_connected());
    println!("outdegree: {:.2} ± {:.2} [{}..{}]", out.mean, out.std_dev(), out.min, out.max);
    println!("indegree:  {:.2} ± {:.2} [{}..{}]", inn.mean, inn.std_dev(), inn.min, inn.max);
    println!("independent entries: {:.1}%", dep.independent_fraction() * 100.0);
    println!(
        "events: {} actions, dup rate {:.4}, del rate {:.4}, loss rate {:.4}",
        stats.actions,
        stats.duplication_rate().unwrap_or(0.0),
        stats.deletion_rate().unwrap_or(0.0),
        stats.loss_rate().unwrap_or(0.0)
    );
    Ok(())
}

fn cmd_analyze(flags: &Flags) -> Result<(), String> {
    let s: usize = flags.get("s", 40)?;
    let d_l: usize = flags.get("dl", 18)?;
    let loss: f64 = flags.get("loss", 0.01)?;
    let config = SfConfig::new(s, d_l).map_err(|e| e.to_string())?;
    let mc = DegreeMc::solve(DegreeMcParams::new(config, loss)).map_err(|e| e.to_string())?;
    println!("degree Markov chain, s={s} d_L={d_l} loss={loss}");
    println!(
        "states: {}, fixed-point iterations: {}",
        mc.states().len(),
        mc.fixed_point_iterations()
    );
    println!("E[out] = {:.3} ± {:.3}", mc.mean_out(), mc.std_out());
    println!("E[in]  = {:.3} ± {:.3}", mc.mean_in(), mc.std_in());
    println!("dup probability: {:.5}", mc.duplication_probability());
    println!("del probability: {:.5}", mc.deletion_probability());
    if let Some(corr) = mc.degree_correlation() {
        println!("corr(out, in) = {corr:.3}");
    }
    Ok(())
}

fn cmd_thresholds(flags: &Flags) -> Result<(), String> {
    let d_hat: usize = flags.get("dhat", 30)?;
    let delta: f64 = flags.get("delta", 0.01)?;
    let sel = select_thresholds(d_hat, delta).map_err(|e| e.to_string())?;
    println!("target E[d]={d_hat}, delta={delta}");
    println!("d_L = {}, s = {}", sel.d_l, sel.s);
    println!(
        "P(dup) = {:.5}, P(del) = {:.5}",
        sel.duplication_probability, sel.deletion_probability
    );
    println!("expected outdegree of the law: {:.3}", sel.expected_out_degree);
    Ok(())
}

/// Overlay-validation after simulate: also report the MC prediction so the
/// user sees the analysis next to the run.
fn dispatch(command: &str, flags: &Flags) -> Result<(), String> {
    match command {
        "simulate" => cmd_simulate(flags),
        "analyze" => cmd_analyze(flags),
        "thresholds" => cmd_thresholds(flags),
        "compare" => {
            // Undocumented helper: run both and print the mean gap.
            cmd_analyze(flags)?;
            let s: usize = flags.get("s", 40)?;
            let d_l: usize = flags.get("dl", 18)?;
            let loss: f64 = flags.get("loss", 0.01)?;
            let config = SfConfig::new(s, d_l).map_err(|e| e.to_string())?;
            let sim = steady_state_degrees(
                &ExperimentParams { n: 800, config, loss, burn_in: 300, seed: 42 },
                20,
                5,
            );
            println!("simulated E[out] = {:.3} (n=800)", sim.out_degrees.mean());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let flags = match Flags::parse(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match dispatch(command, &flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> Flags {
        let args: Vec<String> =
            pairs.iter().flat_map(|(k, v)| [format!("--{k}"), (*v).to_string()]).collect();
        Flags::parse(&args).unwrap()
    }

    #[test]
    fn parses_flags_and_defaults() {
        let f = flags(&[("n", "100"), ("loss", "0.05")]);
        assert_eq!(f.get::<usize>("n", 1).unwrap(), 100);
        assert_eq!(f.get::<f64>("loss", 0.0).unwrap(), 0.05);
        assert_eq!(f.get::<u64>("seed", 7).unwrap(), 7);
    }

    #[test]
    fn rejects_malformed_flags() {
        assert!(Flags::parse(&["n".to_string()]).is_err());
        assert!(Flags::parse(&["--n".to_string()]).is_err());
        let f = flags(&[("n", "abc")]);
        assert!(f.get::<usize>("n", 1).is_err());
    }

    #[test]
    fn thresholds_command_runs() {
        let f = flags(&[("dhat", "20"), ("delta", "0.01")]);
        assert!(cmd_thresholds(&f).is_ok());
    }

    #[test]
    fn unknown_command_is_reported() {
        let f = Flags::default();
        assert!(dispatch("frobnicate", &f).is_err());
    }
}
