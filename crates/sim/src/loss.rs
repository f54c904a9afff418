//! Message-loss models (Section 4.1).
//!
//! The paper analyzes *uniform i.i.d. loss*: every message is lost with the
//! same probability `ℓ`, independently of all other messages, and the sender
//! cannot detect the loss. [`UniformLoss`] implements exactly that model.
//! Because nonuniform loss "occurs in practice" (the paper cites Tölgyesi &
//! Jelasity) but is out of the paper's analytical scope, we also provide a
//! [`GilbertElliott`] bursty-loss model as an ablation: experiments can check
//! how far the i.i.d. assumption carries.

use rand::Rng;

/// The paper's loss surface: the fate of the next message, drawn i.i.d.
/// from the supplied RNG. Its one implementation is [`UniformLoss`]; every
/// engine draws through [`FaultModel`](crate::FaultModel), which
/// `UniformLoss` implements directly, and this trait stays for callers
/// that draw the bare i.i.d. loss (the workspace benchmark's
/// `loss.uniform_draw_ns` kernel).
pub trait LossModel {
    /// Returns `true` if the next message is lost.
    fn is_lost(&mut self, rng: &mut impl Rng) -> bool;
}

/// The one coin of the fault models, behind every loss draw and chain
/// step: `true` with probability `p`, drawing nothing at `p = 0`.
#[inline]
pub(crate) fn bernoulli(p: f64, rng: &mut impl Rng) -> bool {
    p > 0.0 && rng.gen_bool(p)
}

/// Uniform i.i.d. loss with probability `ℓ` (the paper's model).
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sandf_sim::{LossModel, UniformLoss};
///
/// let mut model = UniformLoss::new(1.0)?;
/// assert!(model.is_lost(&mut StdRng::seed_from_u64(1)));
/// assert!(UniformLoss::new(1.5).is_err());
/// # Ok::<(), sandf_sim::LossRateError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct UniformLoss {
    pub(crate) rate: f64,
}

/// Error returned for loss rates outside `[0, 1]`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LossRateError {
    /// The offending rate.
    pub rate: f64,
}

impl core::fmt::Display for LossRateError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "loss rate {} is outside [0, 1]", self.rate)
    }
}

impl std::error::Error for LossRateError {}

impl UniformLoss {
    /// Creates a uniform loss model with rate `ℓ`.
    ///
    /// # Errors
    ///
    /// Returns [`LossRateError`] unless `0 ≤ ℓ ≤ 1` and `ℓ` is finite.
    pub fn new(rate: f64) -> Result<Self, LossRateError> {
        if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
            return Err(LossRateError { rate });
        }
        Ok(Self { rate })
    }

    /// A lossless channel (`ℓ = 0`).
    #[must_use]
    pub fn none() -> Self {
        Self { rate: 0.0 }
    }
}

impl LossModel for UniformLoss {
    fn is_lost(&mut self, rng: &mut impl Rng) -> bool {
        bernoulli(self.rate, rng)
    }
}

/// Two-state Gilbert–Elliott bursty loss: the channel alternates between a
/// *good* and a *bad* state with given transition probabilities, and loses
/// messages at a state-dependent rate. Used as an ablation of the paper's
/// i.i.d. assumption — its long-run average rate is comparable to a
/// [`UniformLoss`] of the same magnitude, but losses arrive in bursts.
///
/// The value is the chain's parameters only, read-only like every fault
/// model: the chain's state, one bit (`true` = bad), is kept by whoever
/// holds the channel and stepped through [`advance`](Self::advance).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GilbertElliott {
    pub(crate) to_bad: f64,
    pub(crate) to_good: f64,
    pub(crate) loss_good: f64,
    pub(crate) loss_bad: f64,
}

impl GilbertElliott {
    /// Creates a Gilbert–Elliott channel.
    ///
    /// # Errors
    ///
    /// Returns [`LossRateError`] if any probability lies outside `[0, 1]`.
    pub fn new(
        to_bad: f64,
        to_good: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Result<Self, LossRateError> {
        for rate in [to_bad, to_good, loss_good, loss_bad] {
            UniformLoss::new(rate)?;
        }
        Ok(Self::unchecked(to_bad, to_good, loss_good, loss_bad))
    }

    /// A channel over unvalidated probabilities;
    /// [`PhaseFault::check`](crate::PhaseFault::check) validates it.
    pub(crate) fn unchecked(to_bad: f64, to_good: f64, loss_good: f64, loss_bad: f64) -> Self {
        Self { to_bad, to_good, loss_good, loss_bad }
    }

    /// The one transition: steps the chain state `bad` once, leaving the
    /// good state with probability `to_bad` and the bad one with
    /// `to_good`. A zero flip probability draws nothing.
    pub fn advance(&self, bad: &mut bool, rng: &mut impl Rng) {
        let flip = if *bad { self.to_good } else { self.to_bad };
        *bad ^= bernoulli(flip, rng);
    }

    /// The loss rate in the bad (`true`) or the good state.
    pub(crate) fn loss_in(&self, bad: bool) -> f64 {
        if bad {
            self.loss_bad
        } else {
            self.loss_good
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::{FaultCtx, FaultModel, PhaseFault};
    use sandf_core::NodeId;

    /// One send on a Gilbert–Elliott channel whose state is `bad`.
    fn ge_drops(model: &GilbertElliott, bad: &mut bool, rng: &mut StdRng) -> bool {
        let ctx = FaultCtx { from: NodeId::new(0), to: NodeId::new(1), round: 0 };
        model.drops(bad, ctx, rng)
    }

    #[test]
    fn uniform_rejects_out_of_range() {
        assert!(UniformLoss::new(-0.1).is_err());
        assert!(UniformLoss::new(1.1).is_err());
        assert!(UniformLoss::new(f64::NAN).is_err());
        assert!(UniformLoss::new(0.0).is_ok());
        assert!(UniformLoss::new(1.0).is_ok());
    }

    #[test]
    fn uniform_zero_never_loses() {
        let mut model = UniformLoss::none();
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..1000).all(|_| !model.is_lost(&mut rng)));
    }

    #[test]
    fn uniform_one_always_loses() {
        let mut model = UniformLoss::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..1000).all(|_| model.is_lost(&mut rng)));
    }

    #[test]
    fn uniform_empirical_rate_matches() {
        let mut model = UniformLoss::new(0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let losses = (0..200_000).filter(|_| model.is_lost(&mut rng)).count();
        let rate = losses as f64 / 200_000.0;
        assert!((rate - 0.05).abs() < 0.005, "empirical {rate}");
    }

    #[test]
    fn gilbert_elliott_average_rate() {
        let model = PhaseFault::Bursty(GilbertElliott::new(0.1, 0.3, 0.0, 0.2).unwrap());
        // p_bad = 0.1 / 0.4 = 0.25; rate = 0.25 · 0.2 = 0.05.
        assert!((model.effective_rate(1) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn gilbert_elliott_empirical_rate_matches_average() {
        let model = GilbertElliott::new(0.05, 0.2, 0.001, 0.25).unwrap();
        let expected = PhaseFault::Bursty(model).effective_rate(1);
        let (mut rng, mut bad) = (StdRng::seed_from_u64(7), false);
        let losses = (0..400_000).filter(|_| ge_drops(&model, &mut bad, &mut rng)).count();
        let rate = losses as f64 / 400_000.0;
        assert!((rate - expected).abs() < 0.01, "empirical {rate} vs {expected}");
    }

    #[test]
    fn gilbert_elliott_bursts() {
        // With sticky states, losses should cluster: the variance of the gap
        // between losses exceeds the geometric model's.
        let model = GilbertElliott::new(0.01, 0.05, 0.0, 0.5).unwrap();
        let (mut rng, mut bad) = (StdRng::seed_from_u64(21), false);
        let mut consecutive = 0u32;
        let mut max_run = 0u32;
        for _ in 0..100_000 {
            if ge_drops(&model, &mut bad, &mut rng) {
                consecutive += 1;
                max_run = max_run.max(consecutive);
            } else {
                consecutive = 0;
            }
        }
        assert!(max_run >= 3, "expected bursty losses, max run {max_run}");
    }

    #[test]
    fn gilbert_elliott_rejects_bad_probabilities() {
        assert!(GilbertElliott::new(1.5, 0.0, 0.0, 0.0).is_err());
        assert!(GilbertElliott::new(0.0, 0.0, 0.0, f64::INFINITY).is_err());
    }
}
