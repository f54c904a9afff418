//! # sandf — Send & Forget gossip-based membership under message loss
//!
//! A full Rust implementation and reproduction of Maxim Gurevich and Idit
//! Keidar, *Correctness of Gossip-Based Membership Under Message Loss*
//! (PODC 2009; SIAM J. Comput. 39(8), 2010).
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] — the S&F protocol state machine ([`SfNode`], [`SfConfig`],
//!   [`LocalView`]);
//! * [`graph`] — membership-multigraph analytics (degrees, connectivity,
//!   dependence labeling, overlap);
//! * [`sim`] — the deterministic lossy-network simulator with churn and
//!   ready-made experiment runners;
//! * [`markov`] — the paper's analysis as executable numerics (degree MC,
//!   Eq. 6.1, threshold selection, dependence MC, decay and conductance
//!   bounds, exact tiny-system enumeration);
//! * [`baselines`] — push-only, shuffle, and push-pull comparison
//!   protocols as [`ProtocolBehavior`]s for the arena engines (plus the
//!   per-node shuffle/push-pull reference the conformance tests use);
//! * [`variants`] — the Section 5 optimizations the paper deferred
//!   (undeletion, replace-when-full, batched sends), likewise as
//!   behaviors — both modules of the one protocol-zoo crate;
//! * [`net`] — the `Transport` trait, UDP endpoints on a socket one node
//!   owns or many share, and the wire codec
//!   (an 8-byte destination id in front of the 17-byte message);
//! * [`daemon`] — S&F on a wire: a long-running membership service
//!   multiplexing many nodes over one real UDP socket on one event loop,
//!   with a wire-level fault injector, live invariant checking, an HTTP
//!   endpoint, and a soak harness;
//! * [`obs`] — the observability subsystem (metrics registry, structured
//!   event journal, hot-path profiling spans); see the observability
//!   section of `EXPERIMENTS.md`.
//!
//! ## Quick start
//!
//! ```
//! use sandf::{Engine, FlatSimulation, SfConfig, UniformLoss};
//! use sandf::sim::topology;
//!
//! // Parameters from the paper's running example (Section 6.3).
//! let config = SfConfig::new(40, 18)?;
//! let nodes = topology::circulant(200, config, 30);
//! let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.01)?, 42);
//! sim.run_rounds(100);
//!
//! assert!(sim.graph().is_weakly_connected());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See the `examples/` directory for runnable scenarios and `crates/bench`
//! for `repro`, the binary regenerating every figure and table of the
//! paper's evaluation by name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sandf_core as core;
pub use sandf_daemon as daemon;
pub use sandf_graph as graph;
pub use sandf_markov as markov;
pub use sandf_net as net;
pub use sandf_obs as obs;
pub use sandf_sim as sim;

pub use sandf_core::{
    ConfigError, Entry, InitiateOutcome, JoinError, LocalView, Message, NodeId, NodeStats,
    ReceiveOutcome, SfConfig, SfNode,
};
pub use sandf_graph::{DegreeStats, DependenceReport, Histogram, MembershipGraph};
pub use sandf_markov::{select_thresholds, AnalyticalDegrees, DegreeMc, DegreeMcParams};
pub use sandf_sim::{
    doerr_spread_prediction, BroadcastConfig, BroadcastLayer, BroadcastStats, Engine, FaultCtx,
    FaultModel, FlatSimulation, GilbertElliott, IdBatch, LossModel, ParSimulation, PhaseFault,
    ProtocolBehavior, Receipt, ScheduledFault, SfBehavior, SimStats, SlotView, SpreadReport,
    TraceEdge, UniformLoss,
};
pub use sandf_zoo::{baselines, variants};
