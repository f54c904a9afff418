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
//! socket carry the traffic of many nodes — the receiver demultiplexes on
//! it — and costs a node with a socket of its own eight bytes it checks and
//! discards.
//!
//! A UDP datagram carries 1 to [`MAX_FRAMES`] frames back to back, packed
//! by a [`Datagram`] and taken apart by [`decode_datagram`]; a lone frame
//! is the one-frame case. Frames are still lost one message at a time —
//! the loss draws happen before a frame is packed — so packing only
//! changes how many datagrams the kernel handles, not the Section 4.1
//! channel.

use sandf_core::{Message, NodeId};

/// Encoded message (body) length in bytes.
pub const WIRE_LEN: usize = 17;

/// Length of a frame — an 8-byte destination id followed by a body — in
/// bytes.
pub const FRAME_LEN: usize = 8 + WIRE_LEN;

/// Most frames in one datagram: ⌊(1500 − 28) / 25⌋ = 58, so a full
/// datagram, with its 20-byte IPv4 and 8-byte UDP headers, fits a
/// 1500-byte Ethernet MTU off loopback and is never fragmented.
pub const MAX_FRAMES: usize = (1500 - 28) / FRAME_LEN;

/// Length of a datagram of [`MAX_FRAMES`] frames, the longest one.
pub const MAX_DATAGRAM_LEN: usize = MAX_FRAMES * FRAME_LEN;

const FLAG_DEPENDENT: u8 = 0b0000_0001;

/// Error from decoding a datagram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The datagram is not exactly [`WIRE_LEN`] (a body) or [`FRAME_LEN`] (a
    /// frame) bytes, or not 1 to [`MAX_FRAMES`] whole frames (a
    /// datagram), whichever the decoder expected.
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
                "datagram length {len}, expected {WIRE_LEN} (body) or 1 to {MAX_FRAMES} \
                 frames of {FRAME_LEN}"
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

/// Frames packed back to back into one datagram, at most [`MAX_FRAMES`]
/// of them: what [`decode_datagram`] takes apart. The buffer is inline, so
/// filling and clearing one never allocates.
#[derive(Debug)]
pub struct Datagram {
    bytes: [u8; MAX_DATAGRAM_LEN],
    len: usize,
}

impl Default for Datagram {
    fn default() -> Self {
        Self { bytes: [0; MAX_DATAGRAM_LEN], len: 0 }
    }
}

impl Datagram {
    /// Appends the frame of `message` for `to` and returns whether the
    /// datagram is now full.
    ///
    /// # Panics
    ///
    /// If it was full already.
    pub fn push(&mut self, to: NodeId, message: Message) -> bool {
        let end = self.len + FRAME_LEN;
        self.bytes[self.len..end].copy_from_slice(&encode_frame(to, message));
        self.len = end;
        end == MAX_DATAGRAM_LEN
    }

    /// The frames pushed since the last [`clear`](Self::clear), as they go
    /// on the wire.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// Whether no frame has been pushed since the last
    /// [`clear`](Self::clear).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the datagram for the next batch of frames.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

/// Checks a datagram of 1 to [`MAX_FRAMES`] frames and returns its frames
/// in order, each decoded by [`decode_frame`]. A datagram is accepted or
/// rejected whole: one bad frame rejects all of them.
///
/// # Errors
///
/// Returns [`WireError::BadLength`] for a datagram that is empty, not a
/// whole number of frames or longer than [`MAX_FRAMES`] of them, and the
/// first bad frame's [`WireError::BadFlags`].
pub fn decode_datagram(
    datagram: &[u8],
) -> Result<impl Iterator<Item = (NodeId, Message)> + '_, WireError> {
    let len = datagram.len();
    if len == 0 || !len.is_multiple_of(FRAME_LEN) || len > MAX_DATAGRAM_LEN {
        return Err(WireError::BadLength { len });
    }
    let frames = datagram.chunks_exact(FRAME_LEN);
    for frame in frames.clone() {
        decode_frame(frame)?;
    }
    Ok(frames.map(|frame| decode_frame(frame).expect("every frame was checked above")))
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
