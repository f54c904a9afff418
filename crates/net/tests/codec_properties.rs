//! Property tests of the wire codec: total decode, exact roundtrip, for
//! the 17-byte body, for the 25-byte frame (destination id + body) and for
//! the datagram of 1 to 58 frames.

use proptest::prelude::*;
use sandf_core::{Message, NodeId};
use sandf_net::codec::{
    decode, decode_datagram, decode_frame, encode, encode_frame, Datagram, WireError, FRAME_LEN,
    MAX_DATAGRAM_LEN, MAX_FRAMES, WIRE_LEN,
};

/// Packs `frames` into one datagram.
fn pack(frames: &[(NodeId, Message)]) -> Datagram {
    let mut datagram = Datagram::default();
    for (k, &(to, message)) in frames.iter().enumerate() {
        assert_eq!(datagram.push(to, message), k + 1 == MAX_FRAMES, "full only at the last");
    }
    datagram
}

/// `(to, message)` pairs from raw words.
fn frames_of(words: &[(u64, u64, u64, bool)]) -> Vec<(NodeId, Message)> {
    words
        .iter()
        .map(|&(to, sender, payload, dependent)| {
            (NodeId::new(to), Message::new(NodeId::new(sender), NodeId::new(payload), dependent))
        })
        .collect()
}

fn decoded(datagram: &[u8]) -> Result<Vec<(NodeId, Message)>, WireError> {
    decode_datagram(datagram).map(Iterator::collect)
}

proptest! {
    /// Every message roundtrips bit-exactly.
    #[test]
    fn roundtrip(sender in any::<u64>(), payload in any::<u64>(), dependent in any::<bool>()) {
        let msg = Message::new(NodeId::new(sender), NodeId::new(payload), dependent);
        let bytes = encode(msg);
        prop_assert_eq!(bytes.len(), WIRE_LEN);
        prop_assert_eq!(decode(&bytes).unwrap(), msg);
    }

    /// Decoding arbitrary bytes never panics, and succeeds only for
    /// well-formed datagrams.
    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        match decode(&bytes) {
            Ok(msg) => {
                prop_assert_eq!(bytes.len(), WIRE_LEN);
                // A successful decode must re-encode to the same bytes.
                let reencoded = encode(msg);
                prop_assert_eq!(reencoded.as_ref(), &bytes[..]);
            }
            Err(_) => {
                // Errors are expected for wrong lengths or bad flags.
            }
        }
    }

    /// Any 17-byte datagram with a clean flags byte decodes.
    #[test]
    fn clean_flag_datagrams_decode(head in proptest::collection::vec(any::<u8>(), 16), flag in 0u8..=1) {
        let mut bytes = head;
        bytes.push(flag);
        let msg = decode(&bytes).unwrap();
        prop_assert_eq!(msg.dependent, flag == 1);
    }

    /// Truncating a valid frame at any point yields `BadLength`, never a
    /// panic or a bogus message.
    #[test]
    fn truncated_frames_are_rejected(
        sender in any::<u64>(),
        payload in any::<u64>(),
        dependent in any::<bool>(),
        cut in 0usize..WIRE_LEN,
    ) {
        let bytes = encode(Message::new(NodeId::new(sender), NodeId::new(payload), dependent));
        prop_assert!(decode(&bytes[..cut]).is_err(), "len {} must be rejected", cut);
    }

    /// Extending a valid frame with trailing garbage yields `BadLength`.
    #[test]
    fn oversized_frames_are_rejected(
        sender in any::<u64>(),
        payload in any::<u64>(),
        dependent in any::<bool>(),
        tail in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let mut bytes = encode(Message::new(NodeId::new(sender), NodeId::new(payload), dependent)).to_vec();
        bytes.extend_from_slice(&tail);
        prop_assert!(decode(&bytes).is_err(), "len {} must be rejected", bytes.len());
    }

    /// Fuzz-ish mutation sweep: take a valid frame and flip one byte to an
    /// arbitrary value. The result must either decode (re-encoding to the
    /// mutated bytes exactly) or be rejected — no panics, no silent
    /// canonicalisation.
    #[test]
    fn mutated_valid_frames_never_panic(
        sender in any::<u64>(),
        payload in any::<u64>(),
        dependent in any::<bool>(),
        pos in 0usize..WIRE_LEN,
        value in any::<u8>(),
    ) {
        let mut bytes =
            encode(Message::new(NodeId::new(sender), NodeId::new(payload), dependent)).to_vec();
        bytes[pos] = value;
        match decode(&bytes) {
            Ok(msg) => {
                // Id-field mutations always stay decodable; a flags-byte
                // mutation decodes only if it landed on a clean flag value.
                let reencoded = encode(msg);
                prop_assert_eq!(reencoded.as_ref(), &bytes[..]);
                if pos == WIRE_LEN - 1 {
                    prop_assert!(value <= 1, "dirty flags {:#04x} must not decode", value);
                }
            }
            Err(_) => {
                // Only the flags byte can make a 17-byte frame invalid.
                prop_assert_eq!(pos, WIRE_LEN - 1);
                prop_assert!(value > 1);
            }
        }
    }

    /// Single-bit flips across a corpus of valid frames: decode stays total
    /// and the bit either survives a roundtrip or is rejected outright.
    #[test]
    fn bitflipped_frames_roundtrip_or_reject(
        sender in any::<u64>(),
        payload in any::<u64>(),
        dependent in any::<bool>(),
        bit in 0usize..(WIRE_LEN * 8),
    ) {
        let mut bytes =
            encode(Message::new(NodeId::new(sender), NodeId::new(payload), dependent)).to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        if let Ok(msg) = decode(&bytes) {
            let reencoded = encode(msg);
            prop_assert_eq!(reencoded.as_ref(), &bytes[..]);
        }
    }

    /// Every `(to, message)` roundtrips through a frame bit-exactly, and the
    /// frame is the destination followed by the body.
    #[test]
    fn addressed_frame_roundtrips(
        to in any::<u64>(),
        sender in any::<u64>(),
        payload in any::<u64>(),
        dependent in any::<bool>(),
    ) {
        let msg = Message::new(NodeId::new(sender), NodeId::new(payload), dependent);
        let frame = encode_frame(NodeId::new(to), msg);
        prop_assert_eq!(frame.len(), FRAME_LEN);
        prop_assert_eq!(&frame[..8], &to.to_be_bytes()[..]);
        prop_assert_eq!(&frame[8..], &encode(msg)[..]);
        prop_assert_eq!(decode_frame(&frame), Ok((NodeId::new(to), msg)));
    }

    /// Cut short or extended by any amount, a frame is rejected by length.
    #[test]
    fn resized_addressed_frames_are_rejected(
        to in any::<u64>(),
        sender in any::<u64>(),
        cut in 0usize..FRAME_LEN,
        tail in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let msg = Message::new(NodeId::new(sender), NodeId::new(to ^ sender), true);
        let mut bytes = encode_frame(NodeId::new(to), msg).to_vec();
        prop_assert_eq!(decode_frame(&bytes[..cut]), Err(WireError::BadLength { len: cut }));
        bytes.extend_from_slice(&tail);
        prop_assert_eq!(decode_frame(&bytes), Err(WireError::BadLength { len: bytes.len() }));
    }

    /// A datagram of any 1 to 58 frames is their frames back to back, and
    /// decodes to them in order.
    #[test]
    fn packed_datagrams_roundtrip_in_order(
        words in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
            1..=MAX_FRAMES,
        ),
    ) {
        let frames = frames_of(&words);
        let datagram = pack(&frames);
        let wire: Vec<u8> = frames.iter().flat_map(|&(to, m)| encode_frame(to, m)).collect();
        prop_assert_eq!(datagram.as_bytes(), &wire[..]);
        prop_assert_eq!(decoded(datagram.as_bytes()), Ok(frames));
    }

    /// Any length that is not a whole number of frames is rejected whole.
    #[test]
    fn ragged_datagrams_are_rejected(
        words in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
            1..=MAX_FRAMES,
        ),
        cut in 1usize..FRAME_LEN,
        tail in proptest::collection::vec(any::<u8>(), 1..FRAME_LEN),
    ) {
        let bytes = pack(&frames_of(&words)).as_bytes().to_vec();
        let short = &bytes[..bytes.len() - cut];
        prop_assert_eq!(decoded(short), Err(WireError::BadLength { len: short.len() }));
        let mut long = bytes;
        long.extend_from_slice(&tail);
        prop_assert_eq!(decoded(&long), Err(WireError::BadLength { len: long.len() }));
    }

    /// An undefined flag bit in any one frame rejects the whole datagram.
    #[test]
    fn one_bad_frame_rejects_the_datagram(
        words in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()),
            1..=MAX_FRAMES,
        ),
        pick in any::<usize>(),
        bit in 1u32..8,
    ) {
        let mut bytes = pack(&frames_of(&words)).as_bytes().to_vec();
        let at = (pick % words.len() + 1) * FRAME_LEN - 1;
        bytes[at] ^= 1 << bit;
        prop_assert_eq!(decoded(&bytes), Err(WireError::BadFlags { flags: bytes[at] }));
    }
}

/// A one-frame datagram is exactly the frame a lone sender writes, so a
/// sender that never packs stays compatible.
#[test]
fn a_one_frame_datagram_is_the_frame() {
    let (to, msg) = (NodeId::new(258), Message::new(NodeId::new(7), NodeId::new(9), true));
    let mut datagram = Datagram::default();
    assert!(datagram.is_empty());
    assert!(!datagram.push(to, msg));
    assert_eq!(datagram.as_bytes(), encode_frame(to, msg));
    datagram.clear();
    assert!(datagram.is_empty() && datagram.as_bytes().is_empty());
}

/// The empty datagram and one of 59 frames carry nothing; 58 is the most a
/// datagram holds, and its 1450 bytes fit a 1500-byte MTU with headers.
#[test]
fn datagram_length_bounds() {
    assert_eq!((MAX_FRAMES, MAX_DATAGRAM_LEN), (58, 1450));
    assert_eq!(decoded(&[]), Err(WireError::BadLength { len: 0 }));
    let frame = encode_frame(NodeId::new(1), Message::new(NodeId::new(2), NodeId::new(3), false));
    let full = frame.repeat(MAX_FRAMES);
    assert_eq!(decoded(&full).map(|frames| frames.len()), Ok(MAX_FRAMES));
    let over = frame.repeat(MAX_FRAMES + 1);
    assert_eq!(decoded(&over), Err(WireError::BadLength { len: over.len() }));
}

#[test]
#[should_panic]
fn a_full_datagram_takes_no_more_frames() {
    let msg = Message::new(NodeId::new(2), NodeId::new(3), false);
    let mut datagram = Datagram::default();
    for _ in 0..MAX_FRAMES {
        datagram.push(NodeId::new(1), msg);
    }
    datagram.push(NodeId::new(1), msg);
}

/// The ids at the edge of the space travel like any other.
#[test]
fn addressed_frame_carries_extreme_ids() {
    for to in [0, 1, u64::MAX - 1, u64::MAX] {
        for dependent in [false, true] {
            let msg = Message::new(NodeId::new(u64::MAX), NodeId::new(to), dependent);
            let frame = encode_frame(NodeId::new(to), msg);
            assert_eq!(decode_frame(&frame), Ok((NodeId::new(to), msg)));
        }
    }
}

/// Each of the seven undefined flag bits, flipped alone, rejects the frame
/// for both values of the defined one; flipping the defined bit flips the
/// label and nothing else.
#[test]
fn addressed_frame_flag_bit_flips() {
    for dependent in [false, true] {
        let msg = Message::new(NodeId::new(3), NodeId::new(4), dependent);
        let frame = encode_frame(NodeId::new(5), msg);
        for bit in 1..8 {
            let mut bytes = frame;
            bytes[FRAME_LEN - 1] ^= 1 << bit;
            let flags = bytes[FRAME_LEN - 1];
            assert_eq!(decode_frame(&bytes), Err(WireError::BadFlags { flags }), "bit {bit}");
        }
        let mut bytes = frame;
        bytes[FRAME_LEN - 1] ^= 1;
        let flipped = Message::new(NodeId::new(3), NodeId::new(4), !dependent);
        assert_eq!(decode_frame(&bytes), Ok((NodeId::new(5), flipped)));
    }
}

/// A bare body is not a frame, and a frame is not a body: an old sender
/// and a new receiver (or the reverse) drop each other's datagrams instead
/// of misreading them.
#[test]
fn a_body_is_not_a_frame() {
    let msg = Message::new(NodeId::new(1), NodeId::new(2), false);
    assert_eq!(decode_frame(&encode(msg)), Err(WireError::BadLength { len: WIRE_LEN }));
    let frame = encode_frame(NodeId::new(9), msg);
    assert_eq!(decode(&frame), Err(WireError::BadLength { len: FRAME_LEN }));
}

/// A deterministic mutation loop over every byte position and a spread of
/// overwrite values — denser than the sampled property above, and pins the
/// exact accept/reject boundary of the flags byte.
#[test]
fn exhaustive_single_byte_mutation_sweep() {
    let base =
        encode(Message::new(NodeId::new(0x0123_4567_89ab_cdef), NodeId::new(42), true)).to_vec();
    for pos in 0..WIRE_LEN {
        for value in [0u8, 1, 2, 3, 0x7f, 0x80, 0xfe, 0xff] {
            let mut bytes = base.clone();
            bytes[pos] = value;
            match decode(&bytes) {
                Ok(msg) => assert_eq!(
                    encode(msg).as_ref(),
                    &bytes[..],
                    "decode/encode must be exact at pos {pos} value {value:#04x}"
                ),
                Err(_) => assert!(
                    pos == WIRE_LEN - 1 && value > 1,
                    "only dirty flags may reject (pos {pos}, value {value:#04x})"
                ),
            }
        }
    }
}
