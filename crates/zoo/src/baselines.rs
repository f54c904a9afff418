//! The protocols S&F is contrasted with.
//!
//! Section 3.1 of the paper taxonomizes gossip membership protocols along
//! two axes: push vs. pull, and whether sent ids are kept or deleted. This
//! module implements one representative of each corner the paper discusses
//! as a [`sandf_sim::ProtocolBehavior`], so all of them run beside S&F on
//! the unified `Engine` trait — `FlatSimulation` and `ParSimulation` —
//! under identical conditions:
//!
//! * [`PushOnlyBehavior`] — reinforcement-only push that keeps sent ids
//!   (Lpbcast-flavored): loss-immune but spatially dependent;
//! * [`ShuffleBehavior`] — Cyclon/flipper-style shuffles that delete sent
//!   ids: dependence-free but **drains ids under loss**, the paper's
//!   central criticism;
//! * [`PushPullBehavior`] — Allavena-style push-pull keeping sent ids:
//!   loss-immune, dependence-heavy.
//!
//! The `baseline_compare` bench binary reproduces the qualitative contrast:
//! under 5–10 % loss the shuffle population collapses while S&F holds its
//! edge count with only `O(ℓ)` extra dependence.
//!
//! ## Example
//!
//! ```
//! use sandf_zoo::baselines::ShuffleBehavior;
//! use sandf_core::{NodeId, SfConfig};
//! use sandf_sim::{Engine, FlatSimulation, UniformLoss};
//!
//! let views = (0..16u64)
//!     .map(|i| (NodeId::new(i), vec![NodeId::new((i + 1) % 16), NodeId::new((i + 2) % 16)]))
//!     .collect();
//! let loss = UniformLoss::new(0.05)?;
//! let mut sim =
//!     FlatSimulation::from_views(ShuffleBehavior::new(2), SfConfig::new(8, 2)?, views, loss, 42);
//! sim.run_rounds(20);
//! assert!(sim.graph().edge_count() <= 32, "shuffles never create ids");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use crate::behaviors::{
    PushOnlyBehavior, PushPullBehavior, ShuffleBehavior, KIND_PULL_REPLY, KIND_PUSH,
    KIND_SHUFFLE_REPLY, KIND_SHUFFLE_REQUEST,
};
