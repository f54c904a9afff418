//! # sandf-variants — the paper's deferred optimizations, implemented
//!
//! Section 5 of Gurevich & Keidar sketches three optimizations and sets
//! them aside because they "would make the protocol harder to analyze …
//! leave optimizations to future work". This crate is that future work,
//! as [`ProtocolBehavior`](sandf_sim::ProtocolBehavior)s for the arena
//! engines:
//!
//! 1. [`UndeleteBehavior`] — sent ids are *tombstoned*, not cleared, and
//!    compensation *undeletes* stale entries instead of duplicating live
//!    ones;
//! 2. [`ReplaceBehavior`] — a full receiver overwrites random entries
//!    instead of deleting arrivals;
//! 3. [`BatchedBehavior`] — `b` payload ids per message (odd `b`,
//!    preserving the Observation 5.1 parity invariant).
//!
//! The analyzed baseline is [`SfBehavior`](sandf_sim::SfBehavior) itself,
//! so the `variants_ablation` bench compares degree balance, dependence,
//! and loss-resilience across all four on one engine — quantifying
//! exactly the trade-offs the paper chose not to analyze.
//!
//! ## Example
//!
//! ```
//! use sandf_core::{NodeId, SfConfig};
//! use sandf_sim::{FlatSimulation, UniformLoss};
//! use sandf_variants::UndeleteBehavior;
//!
//! let config = SfConfig::new(16, 6)?;
//! let views = (0..32u64)
//!     .map(|i| (NodeId::new(i), (1..=8).map(|d| NodeId::new((i + d) % 32)).collect()))
//!     .collect();
//! let loss = UniformLoss::new(0.05)?;
//! let mut sim = FlatSimulation::from_views(UndeleteBehavior, config, views, loss, 7);
//! sim.run_rounds(100);
//! assert!(sim.graph().is_weakly_connected());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behaviors;

pub use behaviors::{BatchedBehavior, ReplaceBehavior, UndeleteBehavior};
