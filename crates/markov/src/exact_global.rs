//! Exact enumeration of the *global* Markov chain over membership graphs
//! (Section 7.1) for tiny systems.
//!
//! For systems small enough to enumerate, we build the full MC graph `G`
//! whose vertices are global states (all nodes' views, as multisets) and
//! whose edge weights are the exact S&F transformation probabilities. This
//! lets us verify the paper's structural results *exactly* rather than
//! statistically:
//!
//! * Lemma A.2 / 7.1 — the reachable chain is strongly connected;
//! * Lemma 7.5 — with no loss and `d_L = 0`, the stationary distribution is
//!   **uniform** over all reachable states;
//! * Lemma 7.6 — by symmetry of that uniform law, every `v ≠ u` is equally
//!   likely to appear in `u`'s view.
//!
//! Views are represented as sorted multisets of node indices — the protocol
//! selects slots uniformly at random, so slot order never matters and the
//! multiset quotient is a lossless lumping of the slot-level chain. The
//! workspace's `tests/exact_step_law.rs` derives the same chain twice more,
//! by enumerating every draw of `sandf-sim`'s `SfBehavior` and of
//! `sandf-core`'s `SfNode` over slot windows, and requires both to equal
//! [`ExactGlobalMc::build`] entry for entry (within 10⁻¹²).
//!
//! ## A finite-`n` refinement of Lemma 7.5
//!
//! Exact enumeration reveals that Lemma 7.5's uniformity claim needs a
//! qualifier at small `n`: over *all* reachable membership graphs the
//! stationary distribution is **not** uniform (TV ≈ 0.30 from uniform for
//! `n = 3, 4`), because the reversibility argument of Lemma 7.3 counts
//! transformations without id multiplicities — a transformation that created
//! a duplicate id is undone by *more* slot pairs than produced it, breaking
//! detailed balance on states with duplicate ids or self-edges. Restricted
//! to **simple** states (no duplicate ids in any view, no self-edges) the
//! stationary distribution *is* exactly uniform
//! ([`conditional_simple_uniformity_tv`](ExactGlobalMc::conditional_simple_uniformity_tv)
//! measures 0 to solver precision). In the paper's asymptotic regime
//! (`n ≫ s`) duplicate ids and self-edges vanish, so the published statement
//! is recovered; node symmetry (Lemma 7.6's uniform marginals) holds exactly
//! at *every* `n`, as the tests verify.

use std::collections::{BTreeMap, HashMap};

use sandf_graph::DisjointSets;

use crate::chain::{ChainError, SparseChain};

/// A global state: for each node, the sorted multiset of ids in its view.
pub type GlobalState = Vec<Vec<u8>>;

/// The exactly enumerated global chain.
#[derive(Clone, Debug)]
pub struct ExactGlobalMc {
    states: Vec<GlobalState>,
    chain: SparseChain,
    s: usize,
    d_l: usize,
    loss: f64,
}

/// Error from building or solving the exact chain.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ExactMcError {
    /// The state space exceeded the safety budget.
    TooManyStates {
        /// The budget that was exceeded.
        budget: usize,
    },
    /// The stationary computation failed.
    Chain(ChainError),
}

impl core::fmt::Display for ExactMcError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Self::TooManyStates { budget } => {
                write!(f, "state space exceeded the budget of {budget} states")
            }
            Self::Chain(e) => write!(f, "exact global chain: {e}"),
        }
    }
}

impl std::error::Error for ExactMcError {}

impl From<ChainError> for ExactMcError {
    fn from(e: ChainError) -> Self {
        Self::Chain(e)
    }
}

fn remove_instance(view: &mut Vec<u8>, id: u8) {
    let pos = view.iter().position(|&x| x == id).expect("instance must exist");
    view.remove(pos);
}

fn insert_instance(view: &mut Vec<u8>, id: u8) {
    let pos = view.partition_point(|&x| x <= id);
    view.insert(pos, id);
}

impl ExactGlobalMc {
    /// Enumerates all states reachable from `initial` by S&F transformations
    /// with the given parameters, and the exact transition probabilities.
    ///
    /// Each transformation: a uniformly random node `u` (probability `1/n`)
    /// selects an ordered pair of distinct slots (probability `1/(s(s−1))`
    /// per pair); occupied pairs `(v, w)` trigger the Figure 5.1 semantics,
    /// including duplication (`d(u) ≤ d_L`), loss (probability `ℓ`), and
    /// deletion at a full receiver.
    ///
    /// # Errors
    ///
    /// Returns [`ExactMcError::TooManyStates`] if the reachable space
    /// exceeds `budget`.
    ///
    /// # Panics
    ///
    /// Panics if any initial view exceeds `s` entries or `ℓ ∉ [0, 1]`.
    pub fn build(
        initial: GlobalState,
        s: usize,
        d_l: usize,
        loss: f64,
        budget: usize,
    ) -> Result<Self, ExactMcError> {
        assert!((0.0..=1.0).contains(&loss), "loss must be a probability");
        assert!(initial.iter().all(|v| v.len() <= s), "view exceeds capacity");
        let mut canonical = initial;
        for view in &mut canonical {
            view.sort_unstable();
        }

        // Only looked up, never iterated: `states` carries the order.
        let mut index: HashMap<GlobalState, usize> = HashMap::new();
        let mut states: Vec<GlobalState> = Vec::new();
        index.insert(canonical.clone(), 0);
        states.push(canonical);
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();

        // Breadth-first enumeration: states are processed in discovery
        // order, so `rows` stays aligned with `states`.
        while rows.len() < states.len() {
            let current = rows.len();
            let successors = Self::successors(&states[current], s, d_l, loss);
            let mut row: Vec<(usize, f64)> = Vec::with_capacity(successors.len());
            for (next_state, prob) in successors {
                let next_index = match index.get(&next_state) {
                    Some(&j) => j,
                    None => {
                        let j = states.len();
                        if j >= budget {
                            return Err(ExactMcError::TooManyStates { budget });
                        }
                        index.insert(next_state.clone(), j);
                        states.push(next_state);
                        j
                    }
                };
                row.push((next_index, prob));
            }
            rows.push(row);
        }

        let chain = SparseChain::new(rows);
        Ok(Self { states, chain, s, d_l, loss })
    }

    /// Whether the membership graph of `state` is weakly connected
    /// (self-edges connect nothing).
    fn weakly_connected(state: &GlobalState) -> bool {
        let mut sets = DisjointSets::new(state.len());
        for (u, view) in state.iter().enumerate() {
            for &v in view {
                sets.union(u, v as usize);
            }
        }
        sets.count() <= 1
    }

    /// Exact successor distribution of one global state.
    ///
    /// Transitions into *partitioned* membership graphs are folded into the
    /// self-loop, exactly as the paper's Section 7.1 prescribes ("since
    /// partitioned states are excluded from G, we replace the edges leading
    /// to them ... by self-loops").
    fn successors(state: &GlobalState, s: usize, d_l: usize, loss: f64) -> Vec<(GlobalState, f64)> {
        let n = state.len();
        let pair_norm = (s * (s - 1)) as f64;
        // Ordered, so states are discovered — and the chain's floating-point
        // sums taken — in the same order on every run.
        let mut acc: BTreeMap<GlobalState, f64> = BTreeMap::new();
        let mut self_loop = 0.0f64;

        for u in 0..n {
            let view = &state[u];
            let d = view.len();
            let node_prob = 1.0 / n as f64;
            // Self-loop share from empty-slot selections.
            self_loop += node_prob * (1.0 - (d * d.saturating_sub(1)) as f64 / pair_norm);
            // Distinct id values in u's view.
            let mut uniq: Vec<u8> = view.clone();
            uniq.dedup();
            let mult = |id: u8| view.iter().filter(|&&x| x == id).count();
            for &v in &uniq {
                for &w in &uniq {
                    let pairs = if v == w {
                        (mult(v) * (mult(v) - 1)) as f64
                    } else {
                        (mult(v) * mult(w)) as f64
                    };
                    if pairs == 0.0 {
                        continue;
                    }
                    let base = node_prob * pairs / pair_norm;
                    let duplicated = d <= d_l;

                    // Sender side.
                    let mut after_send = state.clone();
                    if !duplicated {
                        remove_instance(&mut after_send[u], v);
                        remove_instance(&mut after_send[u], w);
                    }

                    // Lost: the send is the whole story.
                    if loss > 0.0 {
                        if Self::weakly_connected(&after_send) {
                            *acc.entry(after_send.clone()).or_insert(0.0) += base * loss;
                        } else {
                            self_loop += base * loss;
                        }
                    }
                    // Delivered to v (which may be u itself).
                    if loss < 1.0 {
                        let mut delivered = after_send;
                        let receiver = v as usize;
                        if delivered[receiver].len() < s {
                            debug_assert!(
                                delivered[receiver].len() + 2 <= s,
                                "even-degree invariant violated"
                            );
                            insert_instance(&mut delivered[receiver], u as u8);
                            insert_instance(&mut delivered[receiver], w);
                        }
                        if Self::weakly_connected(&delivered) {
                            *acc.entry(delivered).or_insert(0.0) += base * (1.0 - loss);
                        } else {
                            self_loop += base * (1.0 - loss);
                        }
                    }
                }
            }
        }

        let mut out: Vec<(GlobalState, f64)> = acc.into_iter().collect();
        // Merge the accumulated self-loop probability with any transitions
        // that happen to land back on the same state.
        if self_loop > 0.0 {
            out.push((state.clone(), self_loop));
        }
        out
    }

    /// Number of enumerated states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The enumerated states.
    #[must_use]
    pub fn states(&self) -> &[GlobalState] {
        &self.states
    }

    /// The transition structure.
    #[must_use]
    pub fn chain(&self) -> &SparseChain {
        &self.chain
    }

    /// Number of strongly connected components (1 = irreducible).
    #[must_use]
    pub fn scc_count(&self) -> usize {
        self.chain.strongly_connected_components()
    }

    /// The stationary distribution over the enumerated states.
    ///
    /// # Errors
    ///
    /// Propagates power-iteration failure.
    pub fn stationary(&self) -> Result<Vec<f64>, ExactMcError> {
        Ok(self.chain.stationary(1e-13, 2_000_000)?)
    }

    /// Total-variation distance between the stationary distribution and the
    /// uniform distribution over the enumerated states. Lemma 7.5 predicts 0
    /// for `ℓ = 0`, `d_L = 0`, `0 < d_s(u) ≤ s`; exact enumeration shows the
    /// prediction only holds on the simple-state stratum at small `n` (see
    /// the module docs), so expect a substantially positive value here for
    /// tiny systems.
    ///
    /// # Errors
    ///
    /// Propagates power-iteration failure.
    pub fn uniformity_tv(&self) -> Result<f64, ExactMcError> {
        let pi = self.stationary()?;
        let uniform = vec![1.0 / self.states.len() as f64; self.states.len()];
        Ok(sandf_graph::total_variation(&pi, &uniform))
    }

    /// Whether a state is *simple*: no view contains a duplicate id or its
    /// owner's own id.
    #[must_use]
    pub fn is_simple(state: &GlobalState) -> bool {
        state.iter().enumerate().all(|(u, view)| {
            let mut dedup = view.clone();
            dedup.dedup();
            dedup.len() == view.len() && !view.contains(&(u as u8))
        })
    }

    /// Number of simple states in the enumerated space.
    #[must_use]
    pub fn simple_state_count(&self) -> usize {
        self.states.iter().filter(|s| Self::is_simple(s)).count()
    }

    /// Total-variation distance between the stationary distribution
    /// *conditioned on simple states* and the uniform distribution over
    /// those states — the finite-`n` form of Lemma 7.5 that exact
    /// enumeration confirms (see module docs). Returns `None` when no
    /// simple state is reachable.
    ///
    /// # Errors
    ///
    /// Propagates power-iteration failure.
    pub fn conditional_simple_uniformity_tv(&self) -> Result<Option<f64>, ExactMcError> {
        let pi = self.stationary()?;
        let probs: Vec<f64> = self
            .states
            .iter()
            .zip(&pi)
            .filter(|(s, _)| Self::is_simple(s))
            .map(|(_, &p)| p)
            .collect();
        if probs.is_empty() {
            return Ok(None);
        }
        let total: f64 = probs.iter().sum();
        if total == 0.0 {
            return Ok(None);
        }
        let conditional: Vec<f64> = probs.iter().map(|&p| p / total).collect();
        let uniform = vec![1.0 / conditional.len() as f64; conditional.len()];
        Ok(Some(sandf_graph::total_variation(&conditional, &uniform)))
    }

    /// The configured view size.
    #[must_use]
    pub fn view_size(&self) -> usize {
        self.s
    }

    /// The configured lower threshold.
    #[must_use]
    pub fn lower_threshold(&self) -> usize {
        self.d_l
    }

    /// The configured loss rate.
    #[must_use]
    pub fn loss(&self) -> f64 {
        self.loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three nodes in a directed triangle with outdegree 2 each:
    /// `d_s(u) = 2 + 2·2 = 6 ≤ s = 6` for every node.
    fn triangle() -> GlobalState {
        vec![vec![1, 2], vec![0, 2], vec![0, 1]]
    }

    #[test]
    fn enumerates_a_nontrivial_space() {
        let mc = ExactGlobalMc::build(triangle(), 6, 0, 0.0, 100_000).unwrap();
        assert!(mc.state_count() > 10, "only {} states", mc.state_count());
        mc.chain().check_stochastic(1e-9).unwrap();
    }

    #[test]
    fn lossless_chain_is_strongly_connected() {
        // Lemma A.2.
        let mc = ExactGlobalMc::build(triangle(), 6, 0, 0.0, 100_000).unwrap();
        assert_eq!(mc.scc_count(), 1);
    }

    #[test]
    fn lossless_stationary_deviates_from_uniform_at_tiny_n() {
        // The finite-n refinement of Lemma 7.5 (see module docs): over all
        // 41 reachable multigraphs the stationary law is NOT uniform — the
        // reversibility argument breaks on states with duplicate ids, which
        // dominate when n is tiny. (Cross-validated against a slot-level
        // protocol simulation: TV(exact, simulated) ≈ 0.003.)
        let mc = ExactGlobalMc::build(triangle(), 6, 0, 0.0, 100_000).unwrap();
        let tv = mc.uniformity_tv().unwrap();
        assert!(tv > 0.2, "expected a substantial deviation, TV = {tv}");
    }

    /// Four nodes, `d_s(u) = 6` each — 885 reachable states, 9 simple ones.
    fn square() -> GlobalState {
        vec![vec![1, 2], vec![2, 3], vec![3, 0], vec![0, 1]]
    }

    #[test]
    fn lemma_7_5_holds_exactly_on_simple_states() {
        let mc = ExactGlobalMc::build(square(), 6, 0, 0.0, 3_000_000).unwrap();
        assert_eq!(mc.scc_count(), 1);
        assert!(mc.simple_state_count() >= 9);
        let conditional = mc.conditional_simple_uniformity_tv().unwrap().unwrap();
        assert!(conditional < 1e-6, "conditional TV {conditional}");
        let unconditional = mc.uniformity_tv().unwrap();
        assert!(unconditional > 0.2, "unconditional TV {unconditional}");
    }

    #[test]
    fn simple_state_detection() {
        assert!(ExactGlobalMc::is_simple(&vec![vec![1, 2], vec![0, 2], vec![0, 1]]));
        // Duplicate id.
        assert!(!ExactGlobalMc::is_simple(&vec![vec![1, 1], vec![0], vec![]]));
        // Self-edge.
        assert!(!ExactGlobalMc::is_simple(&vec![vec![0], vec![], vec![]]));
    }

    #[test]
    fn sum_degrees_are_invariant_across_reachable_states() {
        // Lemma 6.2 at the global level.
        let mc = ExactGlobalMc::build(triangle(), 6, 0, 0.0, 100_000).unwrap();
        for state in mc.states() {
            let out: Vec<usize> = state.iter().map(Vec::len).collect();
            let mut sum = vec![0usize; state.len()];
            for (u, view) in state.iter().enumerate() {
                sum[u] += out[u];
                for &t in view {
                    sum[t as usize] += 2;
                }
            }
            assert!(sum.iter().all(|&ds| ds == 6), "sum degrees {sum:?}");
        }
    }

    #[test]
    fn lossy_chain_has_more_reachable_states() {
        // With ℓ > 0 edges can vanish, opening lower-degree states. A small
        // view size (s = 4) keeps the lossy space enumerable in a test.
        let lossless = ExactGlobalMc::build(triangle(), 4, 0, 0.0, 50_000).unwrap();
        let lossy = ExactGlobalMc::build(triangle(), 4, 2, 0.1, 50_000).unwrap();
        assert!(lossy.state_count() > lossless.state_count());
        lossy.chain().check_stochastic(1e-9).unwrap();
    }

    #[test]
    fn lossy_chain_is_strongly_connected() {
        // Lemma 7.1: with 0 < ℓ < 1, the global MC graph stays strongly
        // connected (duplications rebuild what loss destroys).
        let lossy = ExactGlobalMc::build(triangle(), 4, 2, 0.1, 50_000).unwrap();
        assert_eq!(lossy.scc_count(), 1);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn node_symmetry_of_stationary_marginals() {
        // Lemma 7.6's substance, exactly: P(v ∈ u.lv) equal across v ≠ u.
        let mc = ExactGlobalMc::build(triangle(), 6, 0, 0.0, 100_000).unwrap();
        let pi = mc.stationary().unwrap();
        let n = 3usize;
        let mut occupancy = vec![vec![0.0f64; n]; n];
        for (state, &p) in mc.states().iter().zip(&pi) {
            for (u, view) in state.iter().enumerate() {
                for v in 0..n as u8 {
                    if v as usize != u && view.contains(&v) {
                        occupancy[u][v as usize] += p;
                    }
                }
            }
        }
        let reference = occupancy[0][1];
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    assert!(
                        (occupancy[u][v] - reference).abs() < 1e-8,
                        "occupancy[{u}][{v}] = {} vs {reference}",
                        occupancy[u][v]
                    );
                }
            }
        }
    }

    #[test]
    fn budget_is_enforced() {
        let err = ExactGlobalMc::build(triangle(), 6, 0, 0.0, 5).unwrap_err();
        assert!(matches!(err, ExactMcError::TooManyStates { budget: 5 }));
    }
}
