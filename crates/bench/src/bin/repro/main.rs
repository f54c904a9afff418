//! `repro <name> [args]` — the one front end of the evaluation.
//!
//! Every figure and table of Gurevich & Keidar's evaluation, and every
//! extension experiment of DESIGN.md B2–B8, is one row of [`ARTIFACTS`]:
//! `repro fig6_1`, `repro scenario_run a.scn`, `repro obs_report --toy`.
//! Each prints self-describing TSV on stdout (`#`-prefixed commentary,
//! fixed seeds, byte-identical run after run). No argument or an unknown
//! name prints the name list on stderr and exits 2; `repro` has no flag of
//! its own — whatever follows the name belongs to the artifact, and only
//! `scenario_run` (spec paths) and `obs_report` (`--toy`, `--journal`)
//! read it.

use std::process::ExitCode;

mod extensions;
mod paper;

use extensions::*;
use paper::*;

/// Name, the artifact it regenerates, and its printer (handed the
/// arguments after the name).
type Artifact = (&'static str, &'static str, fn(&[String]) -> ExitCode);

/// README.md § "Reproducing the paper's evaluation" lists the same 20
/// names (`tests/repro_front_end.rs` holds the two lists together).
const ARTIFACTS: [Artifact; 20] = [
    ("fig6_1", "Fig. 6.1: degree laws, Eq. 6.1 vs degree MC vs binomial", fig6_1),
    ("fig6_3", "Fig. 6.3: degree distributions under loss, MC and simulated", fig6_3),
    ("indegree_stats", "Sec. 6.4: indegree mean and std table", indegree_stats),
    ("thresholds", "Sec. 6.3: (d_L, s) selection; Sec. 7.4 connectivity", thresholds),
    ("fig6_4", "Fig. 6.4: departed-id survival bound and simulated decay", fig6_4),
    ("join_leave", "Sec. 6.5: Lemma 6.10 decay, Corollary 6.14 integration", join_leave),
    ("independence", "Sec. 7.4: dependent fraction vs 2(l+delta); Lemmas 6.6/6.7", independence),
    ("temporal", "Sec. 7.5: overlap decay and the Lemma 7.15 bound", temporal),
    ("uniformity", "Lemma 7.6: chi-square uniformity of id representation", uniformity),
    ("exact_uniform", "Lemma 7.5: exact tiny-system enumeration", exact_uniform),
    ("baseline_compare", "Sec. 3.1: S&F vs shuffle, push-pull, push-only", baseline_compare),
    ("variants_ablation", "B2: the Sec. 5 optimizations, quantified", variants_ablation),
    ("churn_sweep", "B3: how much ongoing churn is sustainable", churn_sweep),
    ("loss_ablation", "B4: uniform vs bursty vs targeted loss", loss_ablation),
    ("expander_check", "clustering, distances, assortativity vs n", expander_check),
    ("mixing_gap", "exact spectral gap vs the Lemma 7.14 conductance floor", mixing_gap),
    ("delay_ablation", "B7: delay-insensitivity of the steady state", delay_ablation),
    ("obs_report", "the sandf-obs surface of one run [--toy] [--journal]", obs_report),
    ("scenario_run", "fault-scenario envelopes: built-ins or [SPEC.scn ...]", scenario_run),
    ("broadcast_sweep", "B8: rumor spread time, protocol x rumor channel", broadcast_sweep),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else { return usage() };
    match ARTIFACTS.iter().find(|(known, ..)| known == name) {
        Some((_, _, run)) => run(rest),
        None => {
            eprintln!("repro: unknown artifact {name:?}");
            usage()
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: repro <name> [args]\n\nartifacts (TSV on stdout):");
    for (name, artifact, _) in ARTIFACTS {
        eprintln!("  {name:<19}{artifact}");
    }
    ExitCode::from(2)
}
