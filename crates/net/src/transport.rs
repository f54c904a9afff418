//! The transport abstraction the daemon drives the protocol over.

use sandf_core::{Message, NodeId};

/// Transport failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TransportError {
    /// The destination is not known to this transport.
    UnknownPeer {
        /// The unresolvable destination.
        to: NodeId,
    },
    /// The transport endpoint is closed.
    Closed,
    /// An I/O error (UDP transports).
    Io {
        /// The underlying error rendered as text (keeps the error `Clone`).
        message: String,
    },
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownPeer { to } => write!(f, "unknown peer {to}"),
            Self::Closed => write!(f, "transport closed"),
            Self::Io { message } => write!(f, "transport i/o: {message}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A best-effort, unordered, lossy datagram transport — the network model
/// of Section 4.1. An implementation may drop messages arbitrarily; it must
/// never duplicate or corrupt them.
///
/// S&F needs nothing more: every protocol step is atomic at a single node,
/// so the service loop just pumps `try_recv` and fires `send` on a timer.
pub trait Transport {
    /// This endpoint's node id.
    fn local_id(&self) -> NodeId;

    /// Sends `message` toward `to`. A `Ok(())` means the message was handed
    /// to the network, not that it will arrive ("send & forget").
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] when the peer is unknown or the endpoint
    /// is closed; loss is *not* an error.
    fn send(&mut self, to: NodeId, message: Message) -> Result<(), TransportError>;

    /// Receives a pending message, if any, without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Closed`] when the endpoint is shut down.
    fn try_recv(&mut self) -> Result<Option<Message>, TransportError>;

    /// Drains up to `max` pending messages into `out` without blocking,
    /// returning how many were appended. Event loops that poll many
    /// endpoints per wakeup (the daemon multiplexes thousands) should use
    /// this instead of repeated [`try_recv`](Self::try_recv) calls so one
    /// readiness sweep empties a backlogged endpoint in one pass.
    ///
    /// The default implementation loops `try_recv`; implementations with a
    /// cheaper bulk path may override it.
    ///
    /// # Errors
    ///
    /// Returns the first [`TransportError`] the underlying receive path
    /// reports; messages drained before the error stay in `out`.
    fn recv_batch(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, TransportError> {
        let mut drained = 0;
        while drained < max {
            match self.try_recv()? {
                Some(message) => {
                    out.push(message);
                    drained += 1;
                }
                None => break,
            }
        }
        Ok(drained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        assert!(TransportError::UnknownPeer { to: NodeId::new(3) }.to_string().contains("n3"));
        assert!(!TransportError::Closed.to_string().is_empty());
        assert!(TransportError::Io { message: "boom".into() }.to_string().contains("boom"));
    }
}
