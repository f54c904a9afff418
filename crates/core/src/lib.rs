//! # sandf-core — the Send & Forget membership protocol
//!
//! Core implementation of the **S&F** (*send & forget*) gossip-based
//! membership protocol from Gurevich & Keidar, *Correctness of Gossip-Based
//! Membership Under Message Loss* (PODC 2009; SICOMP 39(8), 2010).
//!
//! Each node maintains a [`LocalView`] of `s` slots holding node ids. An
//! *action* consists of at most two single-node *steps*:
//!
//! 1. [`SfNode::initiate`] — the initiator picks two distinct slots
//!    uniformly at random; if both hold ids `v` and `w`, it sends `[u, w]`
//!    to `v` and clears both slots (or *duplicates* them when its outdegree
//!    is at the lower threshold `d_L`, compensating for message loss).
//! 2. [`SfNode::receive`] — the target stores both received ids into empty
//!    slots (or *deletes* them when its view is full).
//!
//! Because each step runs at a single node, the protocol needs no
//! bookkeeping, tolerates message loss, and its actions trivially never
//! overlap — the properties that make it analyzable (Sections 4–5 of the
//! paper).
//!
//! This crate is deliberately transport-free: `initiate` *returns* the
//! message, and the embedding (the `sandf-sim` simulator or the
//! `sandf-daemon` UDP service loop) decides its fate. All randomness flows
//! through a caller-supplied [`rand::Rng`], so runs are reproducible.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//! use sandf_core::{InitiateOutcome, NodeId, SfConfig, SfNode};
//!
//! // Paper parameters for an expected outdegree of 30 (Section 6.3).
//! let config = SfConfig::new(40, 18)?;
//! let bootstrap: Vec<NodeId> = (1..=18).map(NodeId::new).collect();
//! let mut node = SfNode::with_view(NodeId::new(0), config, &bootstrap)?;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! match node.initiate(&mut rng) {
//!     InitiateOutcome::Sent { to, message, .. } => {
//!         // Hand `message` to your transport, addressed to `to`.
//!         assert_eq!(message.sender, NodeId::new(0));
//!         assert_ne!(to, message.sender);
//!     }
//!     InitiateOutcome::SelfLoop => { /* nothing to send this round */ }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod event;
mod id;
mod message;
mod metrics;
mod protocol;
mod view;

pub use config::SfConfig;
pub use error::{ConfigError, JoinError};
pub use event::{InitiateOutcome, ReceiveOutcome};
pub use id::NodeId;
pub use message::Message;
pub use metrics::NodeStats;
pub use protocol::SfNode;
pub use view::{Entry, LocalView};
