//! # sandf-zoo — every protocol that is not S&F itself
//!
//! One crate, two public modules, all of it
//! [`ProtocolBehavior`](sandf_sim::ProtocolBehavior)s for the arena
//! engines (`FlatSimulation`, `ParSimulation`):
//!
//! * [`baselines`] — the protocols the paper contrasts S&F with
//!   (Section 3.1): push-only, shuffle, push-pull;
//! * [`variants`] — the three optimizations Section 5 sketches and sets
//!   aside: undeletion, replace-when-full, batched sends.
//!
//! The analyzed protocol is [`SfBehavior`](sandf_sim::SfBehavior) in
//! `sandf-sim`; `sandf-bench`'s `with_behavior!` table is the one place
//! that maps a protocol keyword to a value of this zoo. Each behavior's
//! exact one-step law is enumerated from its own `initiate`/`receive`
//! code by `tests/exact_step_law.rs`, which holds the engines to it; the
//! `SlotView` step tables beside each module pin the semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod variants;

mod behaviors;
