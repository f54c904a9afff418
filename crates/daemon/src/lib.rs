//! `sandf-daemon`: a long-running S&F membership service over real UDP.
//!
//! One process multiplexes thousands of S&F nodes over one loopback UDP
//! socket — every message a frame that names its destination node, a
//! drain chunk's frames packed into one or two datagrams. The fleet is the
//! simulators' own storage and step: one `sandf_sim::Arena` of rows,
//! stepped by `sandf_sim::SfBehavior`, so the process on the wire runs the
//! code the simulated process runs. One single-threaded event loop drives
//! it (a timer wheel for action ticks, one send path for the whole fleet,
//! plus a bounded-cadence non-blocking drain of the socket into per-node
//! inboxes — no async runtime, no lock on the wire) and accounts for
//! every frame across the kernel ([`WireLedger`]). Around that loop the
//! crate layers:
//!
//! - **one fault process** ([`fault`]): a `sandf_sim::ScheduledFault`
//!   drawn once per send, whose standing phase is the base Section 4.1
//!   loss and which `POST /ctl/fault` reconfigures at runtime with any
//!   model of the simulation fault zoo (uniform, Gilbert–Elliott bursts,
//!   regional partitions, per-link, capacity, victim sets) in the same
//!   one-line grammar as a scenario spec's `phase` lines
//!   ([`sandf_sim::fault`]) — the injected model replaces the base loss
//!   for its window;
//! - a **live invariant checker** ([`invariants`]) asserting Observation
//!   5.1 outdegree bounds exactly and the Lemma 6.10 stale-fraction
//!   ceiling in banded form, against realized (measured) loss so fault
//!   windows slow the expected decay instead of firing false alarms;
//! - an **HTTP observability endpoint** ([`http`]) serving Prometheus
//!   metrics, health, a JSON membership snapshot, the violation journal,
//!   and the control routes;
//! - a **soak harness** ([`soak`]) driving flash-crowd joins, churn, mass
//!   leaves, and partition + heal over HTTP, reporting per-phase confidence
//!   bands and gating on post-heal violations.
//!
//! ```no_run
//! use sandf_daemon::DaemonConfig;
//!
//! let daemon = DaemonConfig { initial_nodes: 128, ..DaemonConfig::default() }
//!     .spawn()
//!     .expect("boot");
//! println!("metrics at http://{}/metrics", daemon.http_addr().unwrap());
//! daemon.join_nodes(64).unwrap();
//! // Sever the two id-parity regions for the next 50 rounds, then heal.
//! daemon.fault("phase 50 partition 2 1.0 0").unwrap();
//! let final_states = daemon.shutdown();
//! assert_eq!(final_states.len(), 192);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod http;
pub mod invariants;
pub mod service;
pub mod soak;
pub mod wheel;

pub use http::{http_get, http_post, http_request};
pub use invariants::{CheckOutcome, InvariantChecker, WireTotals};
pub use service::{Control, DaemonConfig, DaemonHandle, MembershipSnapshot, WireLedger};
pub use soak::{run_soak, PhaseRow, SoakConfig, SoakReport};
pub use wheel::{TimerWheel, WheelItem};
