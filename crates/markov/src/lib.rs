//! # sandf-markov — the paper's analysis, executable
//!
//! Markov-chain numerics reproducing the analytical evaluation of Gurevich &
//! Keidar's S&F membership protocol:
//!
//! * [`SparseChain`] — sparse stationary-distribution machinery (the paper's
//!   "multiply the transition matrix until it converges", Section 6.2);
//! * [`DegreeMc`] — the two-dimensional degree Markov chain of Section 6.2
//!   (Figure 6.2), solved by a self-consistent fixed point; regenerates the
//!   curves of Figures 6.1 and 6.3 and the §6.4 indegree table;
//! * [`AnalyticalDegrees`] — the combinatorial degree law of Eq. (6.1);
//! * [`binomial`] — mean-matched binomial references and extreme-tail
//!   machinery;
//! * [`select_thresholds`] — the Section 6.3 rule for choosing `d_L` and `s`
//!   (reproduces "for `d̂ = 30`, `δ = 0.01`: `d_L = 18`, `s = 40`");
//! * [`DependenceChain`], [`alpha_lower_bound`] — the Section 7.4 spatial
//!   independence analysis (`α ≥ 1 − 2(ℓ+δ)`, Lemma 7.9) and the
//!   connectivity condition (`d_L ≥ 26` for `ℓ = δ = 1 %`, `ε = 10⁻³⁰`);
//! * [`decay`] — the Section 6.5 join/leave bounds (Figure 6.4,
//!   Corollary 6.14);
//! * [`monitor`] — the live paper checks over one walk of an overlay's
//!   rows: Observation 5.1 exactly and the Lemma 6.10 stale ceiling,
//!   banded, per departure cohort at realized loss and duplication;
//! * [`conductance`] — the Section 7.5 expected-conductance and `τ_ε`
//!   bounds (Lemmas 7.14/7.15);
//! * [`ExactGlobalMc`] — exact enumeration of the global chain for tiny
//!   systems, verifying Lemmas A.2, 7.5, and 7.6 exactly.
//!
//! ## Example
//!
//! ```
//! use sandf_markov::{select_thresholds, DegreeMc, DegreeMcParams};
//!
//! // Pick parameters for an expected outdegree of 30 (Section 6.3). The
//! // paper reports (18, 40); the faithful Eq. (6.1) computation gives
//! // (18, 42) — see `select_thresholds` for the tail numbers.
//! let sel = select_thresholds(30, 0.01)?;
//! assert_eq!((sel.d_l, sel.s), (18, 42));
//!
//! // …and solve the degree chain under 1 % loss.
//! let params = DegreeMcParams::new(sel.to_config()?, 0.01);
//! let mc = DegreeMc::solve(params)?;
//! assert!(mc.mean_out() > sel.d_l as f64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analytical;
pub mod binomial;
mod chain;
pub mod conductance;
pub mod decay;
mod degree_mc;
mod dependence;
mod exact_global;
pub mod monitor;
mod thresholds;

pub use analytical::{AnalyticalDegrees, OddSumDegreeError};
pub use chain::{ChainError, SparseChain};
pub use degree_mc::{DegreeMc, DegreeMcError, DegreeMcParams};
pub use dependence::{
    alpha_lower_bound, dependent_fraction_bound, min_dl_for_connectivity, DependenceChain,
    RateError,
};
pub use exact_global::{ExactGlobalMc, ExactMcError, GlobalState};
pub use thresholds::{select_thresholds, ThresholdError, ThresholdSelection};
