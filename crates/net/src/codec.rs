//! Wire codec for S&F messages.
//!
//! A message `[u, w]` is a 17-byte *body*: the sender id, the payload id
//! (both big-endian `u64`), and one flags byte carrying the
//! dependence-label bit. S&F's entire protocol state fits in this single
//! datagram type — no sessions, no retransmission, no bookkeeping
//! (Section 5: "after it sends a message, it forgets about it").
//!
//! On the wire the body travels inside a 25-byte *frame*: the destination
//! id (big-endian `u64`) followed by the body. The destination lets one
//! socket carry the traffic of many nodes — the receiver of a datagram
//! demultiplexes on it — and costs a node with a socket of its own eight
//! bytes it checks and discards.

use sandf_core::{Message, NodeId};

/// Encoded message (body) length in bytes.
pub const WIRE_LEN: usize = 17;

/// Length of a frame — an 8-byte destination id followed by a body — in
/// bytes: what a UDP datagram carries.
pub const FRAME_LEN: usize = 8 + WIRE_LEN;

const FLAG_DEPENDENT: u8 = 0b0000_0001;

/// Error from decoding a datagram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The datagram is not exactly [`WIRE_LEN`] (a body) or [`FRAME_LEN`] (a
    /// frame) bytes, whichever the decoder expected.
    BadLength {
        /// Received length.
        len: usize,
    },
    /// The flags byte has bits outside the defined set.
    BadFlags {
        /// Received flags byte.
        flags: u8,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Self::BadLength { len } => write!(
                f,
                "datagram length {len}, expected {WIRE_LEN} (body) or {FRAME_LEN} (frame)"
            ),
            Self::BadFlags { flags } => write!(f, "unknown flag bits in {flags:#010b}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes a message into its 17-byte wire form.
#[must_use]
pub fn encode(message: Message) -> [u8; WIRE_LEN] {
    let mut buf = [0u8; WIRE_LEN];
    buf[..8].copy_from_slice(&message.sender.as_u64().to_be_bytes());
    buf[8..16].copy_from_slice(&message.payload.as_u64().to_be_bytes());
    buf[16] = if message.dependent { FLAG_DEPENDENT } else { 0 };
    buf
}

/// Decodes a datagram produced by [`encode`].
///
/// # Errors
///
/// Returns [`WireError`] for a wrong length or undefined flag bits.
pub fn decode(datagram: &[u8]) -> Result<Message, WireError> {
    if datagram.len() != WIRE_LEN {
        return Err(WireError::BadLength { len: datagram.len() });
    }
    let word = |at: usize| {
        u64::from_be_bytes(datagram[at..at + 8].try_into().expect("length checked above"))
    };
    let sender = NodeId::new(word(0));
    let payload = NodeId::new(word(8));
    let flags = datagram[16];
    if flags & !FLAG_DEPENDENT != 0 {
        return Err(WireError::BadFlags { flags });
    }
    Ok(Message::new(sender, payload, flags & FLAG_DEPENDENT != 0))
}

/// Encodes `message` for the node `to` into its 25-byte frame.
#[must_use]
pub fn encode_frame(to: NodeId, message: Message) -> [u8; FRAME_LEN] {
    let mut buf = [0u8; FRAME_LEN];
    buf[..8].copy_from_slice(&to.as_u64().to_be_bytes());
    buf[8..].copy_from_slice(&encode(message));
    buf
}

/// Decodes a datagram produced by [`encode_frame`] into the destination
/// and the message.
///
/// # Errors
///
/// Returns [`WireError`] for a wrong length (a bare 17-byte body
/// included) or undefined flag bits.
pub fn decode_frame(datagram: &[u8]) -> Result<(NodeId, Message), WireError> {
    let Some((to, body)) = datagram.split_first_chunk::<8>() else {
        return Err(WireError::BadLength { len: datagram.len() });
    };
    match decode(body) {
        Ok(message) => Ok((NodeId::new(u64::from_be_bytes(*to)), message)),
        Err(WireError::BadLength { .. }) => Err(WireError::BadLength { len: datagram.len() }),
        Err(flags) => Err(flags),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for dependent in [false, true] {
            let msg = Message::new(NodeId::new(7), NodeId::new(u64::MAX), dependent);
            let bytes = encode(msg);
            assert_eq!(bytes.len(), WIRE_LEN);
            assert_eq!(decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn rejects_wrong_length() {
        assert_eq!(decode(&[0u8; 16]), Err(WireError::BadLength { len: 16 }));
        assert_eq!(decode(&[0u8; 18]), Err(WireError::BadLength { len: 18 }));
        assert_eq!(decode(&[]), Err(WireError::BadLength { len: 0 }));
    }

    #[test]
    fn rejects_unknown_flags() {
        let mut bytes = encode(Message::new(NodeId::new(1), NodeId::new(2), false));
        bytes[16] = 0b1000_0000;
        assert_eq!(decode(&bytes), Err(WireError::BadFlags { flags: 0b1000_0000 }));
    }

    #[test]
    fn frame_is_destination_then_body() {
        let msg = Message::new(NodeId::new(7), NodeId::new(9), true);
        let frame = encode_frame(NodeId::new(258), msg);
        assert_eq!(frame[..8], [0, 0, 0, 0, 0, 0, 1, 2]);
        assert_eq!(frame[8..], encode(msg));
        assert_eq!(decode_frame(&frame), Ok((NodeId::new(258), msg)));
        // Lengths are reported for the datagram, not for the body inside.
        assert_eq!(decode_frame(&frame[..3]), Err(WireError::BadLength { len: 3 }));
        assert_eq!(decode_frame(&encode(msg)), Err(WireError::BadLength { len: WIRE_LEN }));
    }

    #[test]
    fn encoding_is_big_endian() {
        let bytes = encode(Message::new(NodeId::new(1), NodeId::new(256), true));
        assert_eq!(bytes[7], 1);
        assert_eq!(bytes[14], 1);
        assert_eq!(bytes[16], 1);
    }
}
