//! Property tests of the wire codec: total decode, exact roundtrip, for
//! the 17-byte body and for the 25-byte frame (destination id + body) a
//! datagram carries.

use proptest::prelude::*;
use sandf_core::{Message, NodeId};
use sandf_net::codec::{
    decode, decode_frame, encode, encode_frame, WireError, FRAME_LEN, WIRE_LEN,
};

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
