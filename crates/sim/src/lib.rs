//! # sandf-sim — deterministic simulation of S&F under message loss
//!
//! The paper models the network as asynchronous with *uniform i.i.d.
//! message loss* (Section 4.1) and analyzes executions in which "a central
//! entity repeatedly selects a random node \[and\] invokes its
//! `S&F-InitiateAction()` method" (Section 5). This crate is that model,
//! executable: a seeded discrete-event [`FlatSimulation`] over a
//! struct-of-arrays slot arena, with pluggable [`FaultModel`]s, churn
//! (join/leave), initial [`topology`] builders, measurement
//! [`observer`]s, and ready-made [`experiment`] runners for every empirical
//! result in the paper's evaluation. [`ParSimulation`] shards the same
//! arena across threads (round-based, statistically equivalent). The two
//! are one engine shell, [`ArenaSim`], under two schedules, and both run
//! any [`ProtocolBehavior`]; the exact one-step law enumerated from the
//! behavior code (`tests/exact_step_law.rs` at the workspace root) is the
//! oracle the flat engine and [`SfBehavior`] are held to.
//!
//! Everything is reproducible: the same seed yields the same execution.
//!
//! ## Example
//!
//! ```
//! use sandf_core::SfConfig;
//! use sandf_sim::{topology, Engine, FlatSimulation, UniformLoss};
//!
//! let config = SfConfig::new(16, 6)?;
//! let nodes = topology::random(128, config, 8, &mut rand::thread_rng());
//! let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.05)?, 7);
//! sim.run_rounds(100);
//!
//! // Under 5% loss the duplication floor keeps everyone connected.
//! assert!(sim.graph().is_weakly_connected());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod broadcast;
mod degree;
mod engine;
pub mod experiment;
pub mod fault;
mod flat;
mod loss;
pub mod observer;
mod par;
pub mod scan;
mod shell;
pub mod stream;
pub mod telemetry;
pub mod topology;
mod traits;

pub use arena::Arena;
pub use broadcast::{
    doerr_spread_prediction, BroadcastConfig, BroadcastLayer, BroadcastStats, RumorChannel,
    SpreadReport, TraceEdge,
};
pub use degree::DegreeStats;
pub use engine::{DelayModel, SimStats, StepEvent, StepPhase, StepReport};
pub use fault::{FaultCtx, FaultModel, PhaseFault, ScheduledFault};
pub use flat::FlatSimulation;
pub use loss::{GilbertElliott, LossModel, LossRateError, UniformLoss};
pub use par::ParSimulation;
pub use shell::{action_hop, count_receipt, ArenaSim};
pub use telemetry::SimRecorder;
pub use traits::{
    graph_of_rows, slot_word, Engine, IdBatch, ProtocolBehavior, Receipt, SfBehavior, SlotView,
    ARENA_ID_LIMIT, EMPTY_SLOT, FLAG_DEPENDENT, FLAG_TOMBSTONE,
};
