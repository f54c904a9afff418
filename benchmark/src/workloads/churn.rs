//! `churn_flat`: the flat arena's control plane (`leave`, `join_via`)
//! and its O(n·s) measurement reads beside the steps, with a mass leave
//! and a flash-crowd rejoin in the middle.
//!
//! The churn script itself is generic over [`Engine`], so the traced
//! `steady_par` run can replay a short one on the par engine.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandf_core::NodeId;
use sandf_sim::{topology, Engine, FlatSimulation, UniformLoss};

use super::steady::{drain_circulant, record_flat_rounds, setup_engine, FLAT};
use super::{
    derive_seed, protocol, record_run_end, rounds_for, Outcome, Scale, BOOTSTRAP_DEGREE, LOSS,
};
use crate::trace::Tracer;
use crate::verify::{fingerprint, ledger, observation_5_1};

/// Iterations per second of `--seconds` at n=3×10⁵: ≈0.2 s each (1500
/// leaves at ≈55 µs, a round, the reads) plus ≈4 s for the mass leave.
const ITERATIONS_PER_SECOND: f64 = 2.8;
const BURN_IN: usize = 3;
/// Leavers whose surviving id instances are followed (Lemma 6.10).
const TRACKED: usize = 16;
/// Rounds between `count_id_instances` sweeps over the tracked leavers.
const TRACK_EVERY: usize = 5;

/// What one iteration does besides `round()`.
#[derive(Clone, Copy, Debug)]
pub struct ChurnPlan {
    /// Leaves, then joins, before every round (0.5 % of the bootstrap n).
    pub per_round: usize,
    pub rounds: usize,
    /// The iteration that also loses a quarter of the live nodes at once
    /// and takes the same number back as a flash crowd.
    pub mass_round: Option<usize>,
}

/// Span names of the engine the script is driving.
#[derive(Clone, Copy, Debug)]
pub struct LayerSpans {
    pub leave: &'static str,
    pub mass_leave: &'static str,
    pub join: &'static str,
    pub round: &'static str,
}

const FLAT_SPANS: LayerSpans = LayerSpans {
    leave: "flat.leave",
    mass_leave: "flat.mass_leave",
    join: "flat.join_via",
    round: "flat.round",
};

/// The benchmark's side of a churn run: its own live list and generator
/// (victims and sponsors are inputs; the engine never picks them), and
/// the tallies the metrics are made from.
#[derive(Debug)]
pub struct ChurnScript {
    live: Vec<NodeId>,
    rng: StdRng,
    picked: Vec<NodeId>,
    joined: Vec<NodeId>,
    pub leaves: u64,
    pub joins: u64,
    pub failed_ops: u64,
    pub leave_seconds: f64,
    pub join_seconds: f64,
    pub mass_leave_seconds: f64,
    pub mass_leaves: u64,
    /// Live nodes summed over the rounds run: the actions a correct
    /// engine must report.
    pub expected_actions: u64,
    /// `(actions, wall)` of every `round()` call.
    pub rounds: Vec<(u64, f64)>,
    /// The first leavers, for the Lemma 6.10 follow-up.
    pub first_leavers: Vec<NodeId>,
}

impl ChurnScript {
    pub fn new<E: Engine>(sim: &E, seed: u64) -> Self {
        Self {
            live: sim.live_ids(),
            rng: StdRng::seed_from_u64(seed),
            picked: Vec::new(),
            joined: Vec::new(),
            leaves: 0,
            joins: 0,
            failed_ops: 0,
            leave_seconds: 0.0,
            join_seconds: 0.0,
            mass_leave_seconds: 0.0,
            mass_leaves: 0,
            expected_actions: 0,
            rounds: Vec::new(),
            first_leavers: Vec::new(),
        }
    }

    /// Removes `count` uniformly chosen live nodes; returns the wall of
    /// the `leave` calls alone (victim selection is the benchmark's own
    /// work and stays outside the span).
    fn leave_batch<E: Engine>(
        &mut self,
        sim: &mut E,
        count: usize,
        span: &'static str,
        tr: &mut Tracer,
    ) -> f64 {
        // Never drain the system below what a joiner needs to bootstrap.
        let count = count.min(self.live.len().saturating_sub(BOOTSTRAP_DEGREE));
        self.picked.clear();
        for _ in 0..count {
            let k = self.rng.gen_range(0..self.live.len());
            self.picked.push(self.live.swap_remove(k));
        }
        if self.first_leavers.is_empty() {
            self.first_leavers.extend(self.picked.iter().take(TRACKED));
        }
        let picked = &self.picked;
        let start = Instant::now();
        let refused =
            tr.time(span, count as u64, || picked.iter().filter(|&&id| !sim.leave(id)).count());
        let seconds = start.elapsed().as_secs_f64();
        self.failed_ops += refused as u64;
        seconds
    }

    /// Joins `count` nodes, each through a uniformly chosen live sponsor.
    fn join_batch<E: Engine>(
        &mut self,
        sim: &mut E,
        count: usize,
        span: &'static str,
        tr: &mut Tracer,
    ) {
        self.picked.clear();
        for _ in 0..count {
            self.picked.push(self.live[self.rng.gen_range(0..self.live.len())]);
        }
        self.joined.clear();
        let (sponsors, joined) = (&self.picked, &mut self.joined);
        let start = Instant::now();
        tr.time(span, count as u64, || {
            joined.extend(sponsors.iter().filter_map(|&sponsor| sim.join_via(sponsor).ok()));
        });
        self.join_seconds += start.elapsed().as_secs_f64();
        self.joins += count as u64;
        self.failed_ops += (count - self.joined.len()) as u64;
        self.live.append(&mut self.joined);
    }

    /// One iteration: leaves, joins, the mass event when it is due, then
    /// one membership round.
    pub fn iteration<E: Engine>(
        &mut self,
        sim: &mut E,
        plan: &ChurnPlan,
        round: usize,
        spans: &LayerSpans,
        tr: &mut Tracer,
    ) {
        self.leave_seconds += self.leave_batch(sim, plan.per_round, spans.leave, tr);
        self.leaves += plan.per_round as u64;
        self.join_batch(sim, plan.per_round, spans.join, tr);
        if plan.mass_round == Some(round) {
            let count = self.live.len() / 4;
            self.mass_leave_seconds += self.leave_batch(sim, count, spans.mass_leave, tr);
            self.mass_leaves += count as u64;
            self.join_batch(sim, count, spans.join, tr);
        }
        let live = self.live.len() as u64;
        self.expected_actions += live;
        let start = Instant::now();
        tr.time(spans.round, live, || sim.round());
        self.rounds.push((live, start.elapsed().as_secs_f64()));
    }

    /// Whether the benchmark's live list and the engine's agree.
    pub fn agrees_with<E: Engine>(&self, sim: &E) -> bool {
        let mut mine = self.live.clone();
        let mut theirs = sim.live_ids();
        mine.sort_unstable();
        theirs.sort_unstable();
        mine == theirs
    }
}

/// Lemma 6.9's per-round survival factor of one id instance of a
/// departed node, `1 − (1 − ℓ − δ)·d_L / s²`, with `δ` the realized
/// duplication rate.
fn survival_factor(loss: f64, delta: f64) -> f64 {
    let config = protocol();
    let s = config.view_size() as f64;
    1.0 - (1.0 - loss - delta) * config.lower_threshold() as f64 / (s * s)
}

pub fn run(scale: &Scale, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let config = protocol();
    let n = scale.churn_n;
    let rounds = rounds_for(seconds, ITERATIONS_PER_SECOND, 6);
    let plan = ChurnPlan { per_round: (n / 200).max(1), rounds, mass_round: Some(rounds / 2) };
    let mut out = Outcome::new();

    let (mut sim, _) = setup_engine(&mut out, tr, scale.setup_reps, BURN_IN, &FLAT, || {
        FlatSimulation::new(
            topology::circulant_iter(n, config, BOOTSTRAP_DEGREE),
            UniformLoss::new(LOSS).expect("valid loss rate"),
            derive_seed(seed, 1),
        )
    });

    let mut script = ChurnScript::new(&sim, derive_seed(seed, 2));
    let before = *sim.stats();
    let mut degree_offenders = 0u64;
    let (mut degree_reads, mut degree_read_s) = (0u64, 0.0);
    let (mut sweeps, mut sweep_s) = (0u64, 0.0);
    // (round, surviving instances of the tracked leavers)
    let mut survival: Vec<(usize, u64)> = Vec::new();

    let timed = tr.enter("timed");
    let region = Instant::now();
    for round in 0..rounds {
        script.iteration(&mut sim, &plan, round, &FLAT_SPANS, tr);

        let read = Instant::now();
        degree_offenders += tr.time("flat.degree_stats", 1, || {
            let degrees = sim.degree_stats();
            black_box(degrees.mean_degree());
            u64::from(
                degrees.min_degree().is_some_and(|d| d < config.lower_threshold())
                    || degrees.max_degree().is_some_and(|d| d > config.view_size()),
            )
        });
        degree_read_s += read.elapsed().as_secs_f64();
        degree_reads += 1;

        if round % TRACK_EVERY == 0 {
            let sweep = Instant::now();
            let leavers = &script.first_leavers;
            let instances = tr.time("flat.count_id_instances", leavers.len() as u64, || {
                leavers.iter().map(|&id| sim.count_id_instances(id) as u64).sum()
            });
            sweep_s += sweep.elapsed().as_secs_f64();
            sweeps += leavers.len() as u64;
            survival.push((round, instances));
        }
    }
    let wall = region.elapsed().as_secs_f64();
    tr.exit(timed);

    let actions = sim.stats().actions - before.actions;
    let control_ops = script.leaves + script.mass_leaves + script.joins;
    out.attempted = actions + control_ops + sweeps + degree_reads;
    out.failed += script.failed_ops;
    out.end_to_end.set("steps_per_sec", actions as f64 / wall);
    let useful = (sim.stats().sent - before.sent) as f64 / actions as f64;
    record_flat_rounds(&mut out, &script.rounds, useful);
    out.per_layer.set("flat.leave_us", script.leave_seconds * 1e6 / script.leaves as f64);
    out.per_layer.set("flat.leave_s", script.leave_seconds + script.mass_leave_seconds);
    out.per_layer.set("flat.join_us", script.join_seconds * 1e6 / script.joins as f64);
    out.per_layer.set("flat.join_s", script.join_seconds);
    out.per_layer.set("flat.mass_leave_s", script.mass_leave_seconds);
    out.per_layer.set("flat.count_instances_ms", sweep_s * 1e3 / sweeps as f64);
    out.per_layer.set("flat.degree_stats_us", degree_read_s * 1e6 / degree_reads as f64);
    out.per_layer.set("flat.live_after", sim.len() as f64);
    // Dense arena storage never shrinks: one slot block per node ever seen.
    out.per_layer.set("flat.dense_after", (n as u64 + script.joins - script.failed_ops) as f64);

    let verify = tr.enter("verify");
    let start = Instant::now();
    sim.settle();
    let stats = *sim.stats();
    ledger(
        &mut out.checks,
        &stats,
        (n * BURN_IN) as u64 + script.expected_actions,
        sim.in_flight(),
    );
    out.failed += observation_5_1(&mut out.checks, sim.degree_stats(), config);
    out.checks.check(degree_offenders == 0, "Obs 5.1 held at every round's degree read", || {
        format!("{degree_offenders} rounds saw a degree outside [d_L, s]")
    });
    out.checks.check(script.agrees_with(&sim), "live set equals the benchmark's own list", || {
        format!("engine reports {} live nodes", sim.len())
    });

    // A flash crowd that bootstraps from views a quarter of whose ids
    // just died strands the joiners that drew d_L dead ids: nobody knows
    // them yet and they duplicate into the void forever (about 0.25 % of
    // the joins at the seed state). That is the protocol, not an engine
    // fault, so the check is the giant component: stranded singletons may
    // number at most 1 % of the joins.
    let components = sim.graph().weakly_connected_components();
    let stranded_allowance = (script.joins / 100).max(10) as usize;
    out.checks.check(
        components >= 1 && components - 1 <= stranded_allowance,
        "weak connectivity: one giant component, stranded joiners <= 1% of joins",
        || format!("{components} components over {} live nodes", sim.len()),
    );
    out.checks.note(format!(
        "{components} weakly connected components at the end ({} joins)",
        script.joins
    ));

    // Lemma 6.10: the tracked leavers' instances decay at least as fast
    // as the bound (in expectation; a quarter of slack plus a handful of
    // instances absorbs the sampling noise of 16 leavers and the copies
    // flash-crowd joiners take from their sponsors).
    let delta = stats.duplications as f64 / stats.sent.max(1) as f64;
    let factor = survival_factor(LOSS, delta);
    if let Some(&(first_round, baseline)) = survival.first() {
        let bound = |round: usize| baseline as f64 * factor.powi((round - first_round) as i32);
        let over: Vec<_> = survival
            .iter()
            .filter(|&&(round, instances)| instances as f64 > bound(round) * 1.25 + 8.0)
            .collect();
        out.checks.check(
            over.is_empty(),
            "Lemma 6.10: tracked leavers' instances under the survival bound",
            || format!("(round, instances) over the bound from {baseline}: {over:?}"),
        );
        out.checks.note(format!("tracked-leaver instances (round, count): {survival:?}"));
    }
    out.fingerprint = Some(fingerprint(&stats, sim.degree_stats(), &[sim.len() as u64]));
    let verify_s = start.elapsed().as_secs_f64();
    tr.exit(verify);
    record_run_end(&mut out, tr, timed, verify_s);

    if tr.enabled() {
        let calibrate = tr.enter("calibrate");
        drop(sim);
        out.per_layer.set("topology.circulant_s", drain_circulant(tr, n));
        tr.exit(calibrate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_factor_matches_lemma_6_9() {
        // s = 16, d_L = 6: 1 − (1 − 0.01 − 0.02)·6/256.
        let expected = 1.0 - 0.97 * 6.0 / 256.0;
        assert!((survival_factor(0.01, 0.02) - expected).abs() < 1e-15);
    }

    #[test]
    fn script_keeps_its_live_list_in_step_with_the_engine() {
        let sim_seed = 5;
        let mut sim = FlatSimulation::new(
            topology::circulant(500, protocol(), BOOTSTRAP_DEGREE),
            UniformLoss::new(LOSS).unwrap(),
            sim_seed,
        );
        let mut script = ChurnScript::new(&sim, 9);
        let plan = ChurnPlan { per_round: 5, rounds: 6, mass_round: Some(3) };
        let spans = FLAT_SPANS;
        let mut tr = Tracer::new(true);
        for round in 0..plan.rounds {
            script.iteration(&mut sim, &plan, round, &spans, &mut tr);
        }
        assert!(script.agrees_with(&sim));
        assert_eq!(script.failed_ops, 0);
        assert_eq!(script.leaves, 30);
        assert_eq!(script.mass_leaves, 125);
        assert_eq!(script.joins, 30 + 125);
        assert_eq!(sim.len(), 500);
        assert_eq!(script.first_leavers.len(), 5);
        assert_eq!(sim.stats().actions, script.expected_actions);
        let calls =
            |name| -> u64 { tr.spans().iter().filter(|s| s.name == name).map(|s| s.calls).sum() };
        assert_eq!(calls("flat.leave"), 30);
        assert_eq!(calls("flat.mass_leave"), 125);
        assert_eq!(calls("flat.join_via"), 155);
    }
}
