//! The paper's own evaluation: Figures 6.1/6.3/6.4, the §6.3/§6.4 tables,
//! the §6.5/§7.4/§7.5 dynamics, Lemmas 7.5/7.6 and the §3.1 contrast —
//! README.md's first reproduction table, in its order.

use std::process::ExitCode;

use sandf_bench::sweeps::SampleScale;
use sandf_bench::{fmt, header, note, sweeps};
use sandf_core::SfConfig;
use sandf_graph::{baseline_jaccard, DependenceReport};
use sandf_markov::binomial::binomial_with_mean;
use sandf_markov::conductance::{actions_per_node_bound, expected_conductance_bound};
use sandf_markov::decay::{
    join_integration_bound, leave_survival_bound, rounds_until_survival_below,
};
use sandf_markov::{
    alpha_lower_bound, dependent_fraction_bound, min_dl_for_connectivity, select_thresholds,
    AnalyticalDegrees, DegreeMc, DegreeMcParams, DependenceChain, ExactGlobalMc,
};
use sandf_sim::experiment::{
    join_integration, leave_decay, steady_state_degrees, steady_state_event_rates,
    temporal_overlap, ExperimentParams,
};
use sandf_sim::{topology, Engine, FlatSimulation, UniformLoss};

/// Replicates per cell of every replicated sweep below.
const REPLICATES: usize = 4;
/// The loss rates `ℓ` of Figures 6.3 and 6.4.
const LOSSES: [f64; 4] = [0.0, 0.01, 0.05, 0.1];
/// The duplication/deletion tolerance `δ` of the paper's running example.
const DELTA: f64 = 0.01;

fn moments(pmf: &[f64]) -> (f64, f64) {
    let mean: f64 = pmf.iter().enumerate().map(|(k, &p)| k as f64 * p).sum();
    let var: f64 = pmf.iter().enumerate().map(|(k, &p)| (k as f64 - mean).powi(2) * p).sum();
    (mean, var)
}

/// Figure 6.1 — S&F node degree distributions (analytical approximation and
/// exact, from the degree MC) against binomial distributions with the same
/// expectation. Parameters: `s = 90`, `d_L = 0`, `ℓ = 0`, `d_s(u) = 90`.
pub fn fig6_1(_: &[String]) -> ExitCode {
    note("Figure 6.1: degree distributions, s=90, d_L=0, l=0, d_s(u)=90");
    let d_m = 90usize;
    let analytical = AnalyticalDegrees::new(d_m).expect("d_m is even");

    let config = SfConfig::lossless(90).expect("legal config");
    let params = DegreeMcParams::new(config, 0.0).with_initial_state(30, 30);
    note("solving the degree MC (Section 6.2) ...");
    let mc = DegreeMc::solve(params).expect("degree MC converges");
    note(&format!(
        "degree MC: {} states, {} fixed-point iterations",
        mc.states().len(),
        mc.fixed_point_iterations()
    ));

    let binom_out = binomial_with_mean(d_m as u64, analytical.mean_out());
    let binom_in = binomial_with_mean(d_m as u64, analytical.mean_in());

    let mc_out = mc.out_pmf();
    let mc_in = mc.in_pmf();
    let an_out = analytical.out_pmf();
    let an_in = analytical.in_pmf();

    println!();
    note("panel (a): node indegree");
    header(&["indegree", "binomial", "sandf_analytical", "sandf_markov"]);
    for k in 0..=45usize {
        println!(
            "{k}\t{}\t{}\t{}",
            fmt(binom_in.get(k).copied().unwrap_or(0.0)),
            fmt(an_in.get(k).copied().unwrap_or(0.0)),
            fmt(mc_in.get(k).copied().unwrap_or(0.0)),
        );
    }

    println!();
    note("panel (b): node outdegree");
    header(&["outdegree", "binomial", "sandf_analytical", "sandf_markov"]);
    for d in 0..=90usize {
        println!(
            "{d}\t{}\t{}\t{}",
            fmt(binom_out.get(d).copied().unwrap_or(0.0)),
            fmt(an_out.get(d).copied().unwrap_or(0.0)),
            fmt(mc_out.get(d).copied().unwrap_or(0.0)),
        );
    }

    println!();
    note("summary (paper: means d_m/3 = 30; S&F variance below binomial)");
    header(&["curve", "mean", "variance"]);
    let (bm, bv) = moments(&binom_out);
    println!("binomial_out\t{}\t{}", fmt(bm), fmt(bv));
    println!("analytical_out\t{}\t{}", fmt(analytical.mean_out()), fmt(analytical.var_out()));
    let (mm, mv) = moments(&mc_out);
    println!("markov_out\t{}\t{}", fmt(mm), fmt(mv));
    let (bmi, bvi) = moments(&binom_in);
    println!("binomial_in\t{}\t{}", fmt(bmi), fmt(bvi));
    println!("analytical_in\t{}\t{}", fmt(analytical.mean_in()), fmt(analytical.var_in()));
    let (mmi, mvi) = moments(&mc_in);
    println!("markov_in\t{}\t{}", fmt(mmi), fmt(mvi));
    note(&format!(
        "indegree variance: S&F analytical {:.2} / markov {:.2} vs binomial {:.2} -> {}",
        analytical.var_in(),
        mvi,
        bvi,
        if analytical.var_in() < bvi && mvi < bvi {
            "S&F tighter, as in the paper"
        } else {
            "MISMATCH"
        }
    ));
    ExitCode::SUCCESS
}

/// Figure 6.3 — S&F node degree distributions from the degree MC for loss
/// rates `ℓ ∈ {0, 0.01, 0.05, 0.1}` (`d_L = 18`, `s = 40`), with a
/// simulator overlay (`n = 1000`) cross-validating the chain.
pub fn fig6_3(_: &[String]) -> ExitCode {
    note("Figure 6.3: degree distributions under loss, d_L=18, s=40");
    let config = SfConfig::new(40, 18).expect("paper parameters");

    let mut chains = Vec::new();
    for &loss in &LOSSES {
        note(&format!("solving degree MC for l={loss} ..."));
        let mc = DegreeMc::solve(DegreeMcParams::new(config, loss)).expect("chain converges");
        chains.push(mc);
    }

    note("simulating n=1000 for the empirical overlay ...");
    let mut sims = Vec::new();
    for (k, &loss) in LOSSES.iter().enumerate() {
        let params =
            ExperimentParams { n: 1000, config, loss, burn_in: 400, seed: 1000 + k as u64 };
        sims.push(steady_state_degrees(&params, 30, 5));
    }

    println!();
    note("panel (a): node indegree pmf per loss rate (mc_* = degree MC, sim_* = simulator)");
    header(&[
        "indegree", "mc_l0", "mc_l01", "mc_l05", "mc_l10", "sim_l0", "sim_l01", "sim_l05",
        "sim_l10",
    ]);
    let mc_in: Vec<Vec<f64>> = chains.iter().map(DegreeMc::in_pmf).collect();
    let sim_in: Vec<Vec<f64>> = sims.iter().map(|d| d.in_degrees.pmf()).collect();
    for k in 0..=45usize {
        let mut row = vec![k.to_string()];
        for pmf in mc_in.iter().chain(sim_in.iter()) {
            row.push(fmt(pmf.get(k).copied().unwrap_or(0.0)));
        }
        println!("{}", row.join("\t"));
    }

    println!();
    note("panel (b): node outdegree pmf per loss rate");
    header(&[
        "outdegree",
        "mc_l0",
        "mc_l01",
        "mc_l05",
        "mc_l10",
        "sim_l0",
        "sim_l01",
        "sim_l05",
        "sim_l10",
    ]);
    let mc_out: Vec<Vec<f64>> = chains.iter().map(DegreeMc::out_pmf).collect();
    let sim_out: Vec<Vec<f64>> = sims.iter().map(|d| d.out_degrees.pmf()).collect();
    for d in 0..=40usize {
        let mut row = vec![d.to_string()];
        for pmf in mc_out.iter().chain(sim_out.iter()) {
            row.push(fmt(pmf.get(d).copied().unwrap_or(0.0)));
        }
        println!("{}", row.join("\t"));
    }

    println!();
    note("summary: expected outdegree decreases with loss but stays >> d_L=18 (Lemma 6.4)");
    header(&["loss", "mc_mean_out", "mc_mean_in", "sim_mean_out", "mc_dup", "mc_del"]);
    for (k, &loss) in LOSSES.iter().enumerate() {
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}",
            fmt(loss),
            fmt(chains[k].mean_out()),
            fmt(chains[k].mean_in()),
            fmt(sims[k].out_degrees.mean()),
            fmt(chains[k].duplication_probability()),
            fmt(chains[k].deletion_probability()),
        );
    }
    ExitCode::SUCCESS
}

/// §6.4 in-text table — "The average indegrees and their standard
/// deviations are 28 ± 3.4, 27 ± 3.6, 24 ± 4.1, 23 ± 4.3 for
/// ℓ = 0, 0.01, 0.05, 0.1" (`d_L = 18`, `s = 40`).
///
/// Runs on the replicated-sweep executor: every loss rate is simulated
/// `REPLICATES` times with independent deterministic seeds, so the
/// `sim_in_*` columns come with 95% confidence intervals.
pub fn indegree_stats(_: &[String]) -> ExitCode {
    note(&format!("Section 6.4 indegree table, d_L=18, s=40, {REPLICATES} replicates"));
    let scale = SampleScale { n: 1000, burn_in: 400, samples: 30, sample_every: 5 };
    print!("{}", sweeps::indegree_table(scale, REPLICATES, 77));
    note("expected shape: means decrease with loss; stds grow slightly");
    ExitCode::SUCCESS
}

/// §6.3 — threshold selection sweep (`d̂ × δ → (d_L, s)`), the paper's
/// running example, the §7.4 connectivity condition, and a replicated
/// simulation validation of the selected thresholds (on the sweep
/// executor, with 95% CIs on the realized rates).
pub fn thresholds(_: &[String]) -> ExitCode {
    note("Section 6.3: threshold selection from the Eq. (6.1) law (d_m = 3 d_hat)");
    header(&["d_hat", "delta", "d_L", "s", "P_dup", "P_del", "E_out"]);
    for d_hat in [10usize, 20, 30, 40, 50] {
        for delta in [0.05, 0.01, 0.001] {
            let sel = select_thresholds(d_hat, delta).expect("valid inputs");
            println!(
                "{d_hat}\t{}\t{}\t{}\t{}\t{}\t{}",
                fmt(delta),
                sel.d_l,
                sel.s,
                fmt(sel.duplication_probability),
                fmt(sel.deletion_probability),
                fmt(sel.expected_out_degree),
            );
        }
    }

    println!();
    note("paper's running example: d_hat=30, delta=0.01 -> paper reports (18, 40)");
    let sel = select_thresholds(30, 0.01).expect("paper example");
    note(&format!(
        "faithful Eq. (6.1) rule gives (d_L, s) = ({}, {}); d_L matches, s differs",
        sel.d_l, sel.s
    ));
    let law = AnalyticalDegrees::new(90).expect("even");
    note(&format!(
        "tail under Eq. (6.1): P(d >= 40) = {} > delta; P(d >= 42) = {} <= delta",
        fmt(law.cdf_out_at_least(40)),
        fmt(law.cdf_out_at_least(42)),
    ));
    note("the paper's s = 40 is consistent with its (narrower) degree-MC law; see EXPERIMENTS.md");

    println!();
    note(&format!(
        "selected thresholds validated by simulation: n=400, l=1%, {REPLICATES} replicates"
    ));
    print!("{}", sweeps::threshold_validation_table(400, 300, 300, REPLICATES, 63));
    note("expected shape: realized dup/del rates below the analytic delta bounds (plus the");
    note("loss-compensation term of Lemma 6.6); mean_out tracks d_hat");

    println!();
    note("Section 7.4 connectivity condition: min d_L with P(Bin(d_L, alpha) < 3) <= eps");
    header(&["loss", "delta", "alpha", "eps", "min_d_L"]);
    for (loss, delta, eps) in
        [(0.01, 0.01, 1e-30), (0.01, 0.01, 1e-10), (0.05, 0.01, 1e-30), (0.1, 0.01, 1e-30)]
    {
        let alpha = alpha_lower_bound(loss, delta);
        let d_l = min_dl_for_connectivity(alpha, eps, 200)
            .map_or_else(|| "-".to_string(), |d| d.to_string());
        println!("{}\t{}\t{}\t{:e}\t{}", fmt(loss), fmt(delta), fmt(alpha), eps, d_l);
    }
    note("paper's example: l = delta = 1%, eps = 1e-30 -> d_L = 26");
    ExitCode::SUCCESS
}

/// Figure 6.4 — the upper bound on the probability that an id instance of a
/// left/failed node remains in the system, as a function of rounds since
/// the departure (`δ = 0.01`, `d_L = 18`, `s = 40`), plus a simulated
/// overlay (`n = 500`).
pub fn fig6_4(_: &[String]) -> ExitCode {
    const D_L: usize = 18;
    const S: usize = 40;
    const ROUNDS: usize = 500;

    note("Figure 6.4: survival of a departed node's id instances, d_L=18, s=40, delta=0.01");
    let bounds: Vec<Vec<f64>> =
        LOSSES.iter().map(|&l| leave_survival_bound(l, DELTA, D_L, S, ROUNDS)).collect();

    note("simulating n=500 leavers for the empirical overlay ...");
    let config = SfConfig::new(S, D_L).expect("paper parameters");
    let sims: Vec<Vec<f64>> = LOSSES
        .iter()
        .enumerate()
        .map(|(k, &loss)| {
            leave_decay(
                &ExperimentParams { n: 500, config, loss, burn_in: 300, seed: 42 + k as u64 },
                ROUNDS,
            )
        })
        .collect();

    header(&[
        "round",
        "bound_l0",
        "bound_l01",
        "bound_l05",
        "bound_l10",
        "sim_l0",
        "sim_l01",
        "sim_l05",
        "sim_l10",
    ]);
    for i in (0..ROUNDS).step_by(10) {
        let mut row = vec![(i + 1).to_string()];
        for b in &bounds {
            row.push(fmt(b[i]));
        }
        for s in &sims {
            row.push(fmt(s[i]));
        }
        println!("{}", row.join("\t"));
    }

    println!();
    note("anchor: rounds until the bound first drops below 50% (paper: ~70 rounds, nearly loss-insensitive)");
    header(&["loss", "rounds_to_half_bound", "rounds_to_half_simulated"]);
    for (k, &loss) in LOSSES.iter().enumerate() {
        let analytic = rounds_until_survival_below(loss, DELTA, D_L, S, 0.5)
            .map_or_else(|| "-".to_string(), |r| r.to_string());
        let simulated = sims[k]
            .iter()
            .position(|&f| f < 0.5)
            .map_or_else(|| ">500".to_string(), |i| (i + 1).to_string());
        println!("{}\t{analytic}\t{simulated}", fmt(loss));
    }
    note("the simulated decay should be at or faster than the bound (it is an upper bound)");
    ExitCode::SUCCESS
}

/// §6.5 — join/leave dynamics: Lemma 6.10's decay (simulated vs. bound)
/// and Corollary 6.14's join integration (after `2s` rounds a joiner has
/// created at least `D_in/4` id instances, for `s/d_L = 2`).
pub fn join_leave(_: &[String]) -> ExitCode {
    note("Section 6.5: join and leave dynamics");

    // Corollary 6.14 wants s/d_L = 2: use s = 40, d_L = 20.
    let config = SfConfig::new(40, 20).expect("s/d_L = 2");
    let loss = 0.01;
    let params = ExperimentParams { n: 500, config, loss, burn_in: 300, seed: 9 };

    note("join integration: joiner bootstrapped with d_L=20 ids, tracked for 2s = 80 rounds");
    let result = join_integration(&params, 80);
    let bound = join_integration_bound(loss, 0.01, 20, 40, result.d_in_at_join);
    note(&format!(
        "steady-state D_in = {:.2}; Cor 6.14 expects >= D_in/4 = {:.2} instances within ~{:.0} rounds",
        result.d_in_at_join, bound.expected_instances, bound.rounds
    ));
    header(&["round", "joiner_id_instances"]);
    for (i, &count) in result.instances_per_round.iter().enumerate() {
        if (i + 1) % 5 == 0 {
            println!("{}\t{count}", i + 1);
        }
    }
    let at_horizon = *result.instances_per_round.last().expect("tracked rounds");
    note(&format!(
        "at round 80: {at_horizon} instances vs Cor 6.14 floor {:.1} -> {}",
        bound.expected_instances,
        if at_horizon as f64 >= bound.expected_instances { "bound met" } else { "BOUND MISSED" }
    ));

    println!();
    note("leave decay (d_L=18, s=40): simulated survival fraction vs Lemma 6.10 bound");
    let config = SfConfig::new(40, 18).expect("paper parameters");
    header(&["round", "simulated_l01", "bound_l01"]);
    let sim =
        leave_decay(&ExperimentParams { n: 500, config, loss: 0.01, burn_in: 300, seed: 10 }, 300);
    let bound = leave_survival_bound(0.01, 0.01, 18, 40, 300);
    for i in (0..300).step_by(15) {
        println!("{}\t{}\t{}", i + 1, fmt(sim[i]), fmt(bound[i]));
    }
    let violations = sim.iter().zip(&bound).filter(|(s, b)| **s > **b * 1.25 + 0.05).count();
    note(&format!(
        "rounds where the simulation exceeds 1.25x the bound: {violations} / 300 (expect ~0; the bound is an upper bound in expectation)"
    ));
    ExitCode::SUCCESS
}

fn measured_dependence(loss: f64, seed: u64) -> (f64, DependenceReport) {
    let config = SfConfig::new(40, 18).expect("paper parameters");
    let nodes = topology::circulant(600, config, 30);
    let mut sim = FlatSimulation::new(nodes, UniformLoss::new(loss).expect("valid rate"), seed);
    sim.run_rounds(500);
    // Average the dependent fraction over several spaced snapshots.
    let mut total = 0.0;
    let mut last = sim.dependence();
    for _ in 0..10 {
        sim.run_rounds(20);
        last = sim.dependence();
        total += 1.0 - last.independent_fraction();
    }
    (total / 10.0, last)
}

/// §7.4 — spatial independence: the measured fraction of dependent view
/// entries versus the Lemma 7.9 bounds, across loss rates; plus the
/// Lemma 6.6/6.7 loss-compensation identities.
pub fn independence(_: &[String]) -> ExitCode {
    const DENSE_LOSSES: [f64; 6] = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1];

    note("Section 7.4: dependent-entry fraction vs loss (d_L=18, s=40, n=600)");
    header(&[
        "loss",
        "measured_dependent",
        "bound_2(l+delta)",
        "closed_form_bound",
        "dependence_mc",
        "self_edges",
        "tagged",
    ]);
    for (k, &loss) in DENSE_LOSSES.iter().enumerate() {
        let (measured, report) = measured_dependence(loss, 300 + k as u64);
        let chain = DependenceChain::new(loss, DELTA).expect("valid rates");
        println!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            fmt(loss),
            fmt(measured),
            fmt(2.0 * (loss + DELTA)),
            fmt(dependent_fraction_bound(loss, DELTA)),
            fmt(chain.stationary_dependent_fraction()),
            report.self_edges,
            report.tagged,
        );
    }
    note("expected shape: measured <= 2(l+delta), growing roughly linearly at slope ~2");

    println!();
    note("Lemmas 6.6/6.7: dup = l + del in steady state, and l <= dup <= l + delta");
    header(&["loss", "dup", "del", "l_plus_del", "dup_minus_(l+del)"]);
    let config = SfConfig::new(40, 18).expect("paper parameters");
    for (k, &loss) in DENSE_LOSSES.iter().enumerate() {
        let rates = steady_state_event_rates(
            &ExperimentParams { n: 600, config, loss, burn_in: 400, seed: 500 + k as u64 },
            400,
        );
        println!(
            "{}\t{}\t{}\t{}\t{}",
            fmt(loss),
            fmt(rates.duplication),
            fmt(rates.deletion),
            fmt(rates.loss + rates.deletion),
            fmt(rates.duplication - rates.loss - rates.deletion),
        );
    }
    ExitCode::SUCCESS
}

/// §7.5 — temporal independence: how fast the membership graph forgets a
/// steady-state snapshot, versus system size; plus the analytic `τ_ε`
/// bound of Lemma 7.15.
pub fn temporal(_: &[String]) -> ExitCode {
    const SIZES: [usize; 4] = [64, 128, 256, 512];

    note("Section 7.5: edge-overlap decay with the initial steady-state graph");
    let config = SfConfig::new(16, 6).expect("small views for visible decay");
    let s = config.view_size();

    let mut curves = Vec::new();
    for (k, &n) in SIZES.iter().enumerate() {
        let params = ExperimentParams { n, config, loss: 0.01, burn_in: 200, seed: 70 + k as u64 };
        curves.push(temporal_overlap(&params, 30, 2));
    }

    header(&["actions_per_node", "jac_n64", "jac_n128", "jac_n256", "jac_n512"]);
    for i in 0..curves[0].len() {
        let mut row = vec![fmt(curves[0][i].actions_per_node)];
        for curve in &curves {
            row.push(fmt(curve[i].jaccard));
        }
        println!("{}", row.join("\t"));
    }

    println!();
    note("independent-graph baselines (what the curves should decay to)");
    header(&[
        "n",
        "baseline_jaccard",
        "half_life_rounds (first point below (1+baseline)/2 of start)",
    ]);
    for (k, &n) in SIZES.iter().enumerate() {
        let edges = (n as f64 * 11.0) as usize; // ~mean outdegree for this config
        let base = baseline_jaccard(n, edges);
        let half = curves[k]
            .iter()
            .position(|p| p.jaccard < 0.5 + base / 2.0)
            .map_or_else(|| ">60".to_string(), |i| fmt(curves[k][i].actions_per_node));
        println!("{n}\t{}\t{half}", fmt(base));
    }
    note("expected shape: half-life grows ~ s log n (slowly with n), not with n itself");

    println!();
    note("Lemma 7.15 analytic bounds (deliberately conservative, as the paper notes vs mixing-time work)");
    header(&["n", "s", "d_E", "alpha", "phi_bound", "tau_eps_actions_per_node"]);
    for &n in &SIZES {
        let d_e = 11.0;
        let alpha = 0.96;
        let phi = expected_conductance_bound(d_e, alpha, s);
        let per_node = actions_per_node_bound(n, s, d_e, alpha, 0.01);
        println!("{n}\t{s}\t{}\t{}\t{}\t{}", fmt(d_e), fmt(alpha), fmt(phi), fmt(per_node));
    }
    ExitCode::SUCCESS
}

/// Lemma 7.6 / Property M3 — uniformity: over a long steady-state run,
/// every id should be equally represented in other nodes' views.
///
/// Replicated on the sweep executor: the χ² statistics are means over
/// independent runs with 95% CIs, which separates residual sample
/// correlation (stable across replicates) from run-to-run noise.
pub fn uniformity(_: &[String]) -> ExitCode {
    note(&format!(
        "Lemma 7.6: uniform representation of ids in views (n=256, d_L=18, s=40, \
         {REPLICATES} replicates)"
    ));
    let scale = SampleScale { n: 256, burn_in: 300, samples: 120, sample_every: 40 };
    print!("{}", sweeps::uniformity_table(scale, REPLICATES, 60));
    note(
        "expected shape: chi2/dof of order 1-10 (residual sample correlation), max/min close to 1",
    );
    note("contrast: a biased protocol (e.g. permanent star hub) scores chi2/dof in the hundreds");
    ExitCode::SUCCESS
}

fn enumerate_row(name: &str, initial: Vec<Vec<u8>>, s: usize, d_l: usize, loss: f64) {
    let mc = ExactGlobalMc::build(initial, s, d_l, loss, 5_000_000).expect("enumerable");
    let tv = mc.uniformity_tv().expect("stationary converges");
    let cond = mc
        .conditional_simple_uniformity_tv()
        .expect("stationary converges")
        .map_or_else(|| "-".to_string(), fmt);
    println!(
        "{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{cond}",
        s,
        fmt(loss),
        mc.state_count(),
        mc.simple_state_count(),
        mc.scc_count(),
        fmt(tv),
    );
}

/// Lemma 7.5 — exact enumeration of the global Markov chain for tiny
/// systems: irreducibility (Lemma A.2), the uniform stationary law on the
/// simple-state stratum, and the finite-`n` deviation on the full space.
pub fn exact_uniform(_: &[String]) -> ExitCode {
    note("Lemma 7.5 / A.2: exact global-MC enumeration for tiny systems");
    note("tv_uniform = TV(stationary, uniform over ALL states);");
    note("tv_simple = TV(stationary conditioned on simple states, uniform) — the finite-n form of Lemma 7.5");
    header(&["system", "s", "loss", "states", "simple_states", "sccs", "tv_uniform", "tv_simple"]);
    // n = 3, d_s(u) = 6 each.
    enumerate_row("triangle_n3", vec![vec![1, 2], vec![0, 2], vec![0, 1]], 6, 0, 0.0);
    // n = 4, d_s(u) = 6 each — 885 states, 9 of them simple.
    enumerate_row("square_n4", vec![vec![1, 2], vec![2, 3], vec![3, 0], vec![0, 1]], 6, 0, 0.0);
    // Lossy variant (Lemma 7.1 strong connectivity), smaller views.
    enumerate_row("triangle_n3_lossy", vec![vec![1, 2], vec![0, 2], vec![0, 1]], 4, 2, 0.1);

    println!();
    note("expected: sccs = 1 everywhere; tv_simple ~ 0 for lossless runs;");
    note("tv_uniform substantially > 0 at tiny n (multiplicity corrections to Lemma 7.3 —");
    note("the paper's uniformity emerges as n >> s, where simple states dominate)");
    ExitCode::SUCCESS
}

/// §3.1 — the protocol-taxonomy contrast: S&F vs. shuffle (deletes sent
/// ids) vs. push-pull and push-only (keep sent ids), all under identical
/// uniform loss. The paper's claim: shuffles drain ids under loss, while
/// S&F compensates with duplications and keeps dependence at `O(ℓ + δ)`.
///
/// Runs on the replicated-sweep executor: each protocol × loss cell is
/// replicated with independent deterministic seeds, and the `ids_q1..q4`
/// columns track the id population at the quarter marks of the run with
/// 95% CIs.
pub fn baseline_compare(_: &[String]) -> ExitCode {
    note(&format!(
        "Section 3.1 baseline contrast, n=256, 400 rounds, id population at quarter marks, \
         {REPLICATES} replicates"
    ));
    print!("{}", sweeps::baseline_table(256, 400, REPLICATES, 1));
    println!();
    note("expected shape: shuffle's id population collapses under loss (empty views appear);");
    note("sandf holds its population via duplications; push_pull/push_only saturate at capacity");
    println!();
    note(&format!(
        "same taxonomy on the unified engines: the whole zoo (S&F, baselines, Section 5 \
         variants) through the Engine/ProtocolBehavior traits on flat and par, n=256, \
         200 rounds, loss 0.05, {REPLICATES} replicates"
    ));
    print!("{}", sweeps::zoo_engine_table(256, 200, 0.05, REPLICATES, 1));
    ExitCode::SUCCESS
}
