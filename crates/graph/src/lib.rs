//! # sandf-graph — membership-graph analytics
//!
//! The views of all nodes induce a directed *membership multigraph*
//! (Section 4 of Gurevich & Keidar): an edge `(u, v)` for every occurrence
//! of `v` in `u`'s local view. This crate snapshots protocol state into a
//! [`MembershipGraph`] and computes the quantities the paper's evaluation is
//! stated in terms of:
//!
//! * in/out/sum degrees and their distributions ([`DegreeStats`],
//!   [`Histogram`]) — Properties M1/M2, Figures 6.1 and 6.3;
//! * weak connectivity and component counts — the standing assumption of
//!   Sections 4–7;
//! * the Section 2 dependence labeling ([`DependenceReport`]) — Property M4,
//!   Lemma 7.9;
//! * edge-multiset overlap between snapshots ([`edge_jaccard`]) — Property
//!   M5, Section 7.5;
//! * distribution distances ([`total_variation`], [`chi_square_uniform`]) —
//!   Property M3, Lemmas 7.5/7.6.
//!
//! A snapshot is stored as compressed sparse rows over `u32` positions (4 B
//! per edge); its ids resolve through an [`IdIndex`].
//!
//! ## Example
//!
//! ```
//! use sandf_core::NodeId;
//! use sandf_graph::{DegreeStats, MembershipGraph};
//!
//! let views = (0u64..8).map(|u| {
//!     let targets = vec![NodeId::new((u + 1) % 8), NodeId::new((u + 2) % 8)];
//!     (NodeId::new(u), targets)
//! });
//! let graph = MembershipGraph::from_views(views);
//! assert!(graph.is_weakly_connected());
//! let stats = DegreeStats::from_samples(&graph.in_degrees());
//! assert_eq!(stats.mean, 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dependency;
mod expander;
mod index;
mod multigraph;
mod overlap;
mod stats;

pub use dependency::DependenceReport;
pub use expander::{clustering_coefficient, degree_assortativity, distance_stats, DistanceStats};
pub use index::IdIndex;
pub use multigraph::{DisjointSets, MembershipGraph};
pub use overlap::{baseline_jaccard, edge_intersection, edge_jaccard};
pub use stats::{chi_square_uniform, total_variation, DegreeStats, Histogram, Summary};
