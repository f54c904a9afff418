//! # sandf-net — transports for running S&F on real channels
//!
//! The paper's network model (Section 4.1) is best-effort datagrams with
//! uniform i.i.d. loss and no delivery feedback. This crate provides that
//! model as a [`Transport`] trait with one wire implementation,
//! [`UdpTransport`] — actual UDP sockets over loopback or a LAN (real
//! reordering, and whatever loss the network has): one node id's endpoint
//! on a [`SharedSocket`], which is either its own or one it shares with
//! every other node of the process. Loopback in practice loses nothing;
//! the Section 4.1 loss process is the sender's to draw
//! (`sandf_sim::UniformLoss`, as `sandf-daemon` does before every send).
//!
//! The wire [`codec`] is total — a message travels as a 25-byte frame, the
//! 8-byte destination id and the 17-byte message, and a datagram is 1 to
//! [`codec::MAX_FRAMES`] such frames back to back: S&F has exactly one
//! message type and needs no connection state, which is the "practical, no
//! bookkeeping" half of the paper's thesis. `sandf-daemon` multiplexes
//! thousands of nodes over one [`SharedSocket`] on one service loop,
//! packing its frames into a [`codec::Datagram`] sent with
//! [`SharedSocket::send_datagram`], and demultiplexing what
//! [`SharedSocket::drain`] hands over on the destination id. A
//! [`UdpTransport`] sends one frame to a datagram
//! ([`SharedSocket::send_frame`]).
//!
//! ## Example
//!
//! ```
//! use sandf_core::{Message, NodeId};
//! use sandf_net::{AddressBook, Transport, UdpTransport};
//!
//! let book = AddressBook::new();
//! let mut alice = UdpTransport::bind_loopback(NodeId::new(0), &book)?;
//! let mut bob = UdpTransport::bind_loopback(NodeId::new(1), &book)?;
//!
//! let hello = Message::new(NodeId::new(0), NodeId::new(9), false);
//! alice.send(NodeId::new(1), hello)?;
//! let received = loop {
//!     if let Some(message) = bob.try_recv()? {
//!         break message;
//!     }
//!     std::thread::yield_now();
//! };
//! assert_eq!(received, hello);
//! # Ok::<(), sandf_net::TransportError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod transport;
mod udp;

pub use transport::{Transport, TransportError};
pub use udp::{AddressBook, SharedSocket, UdpTransport};
