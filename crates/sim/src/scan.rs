//! Chunked (u64-word SWAR) scans over the `u32` slot arenas.
//!
//! The arenas store slot ids as `u32` words ([`EMPTY_SLOT`] = `u32::MAX`
//! marks an empty slot), so two slots pack into one `u64`. These helpers
//! process the arena two lanes at a time with branch-free lane tests:
//! a slot window of `s = 16` is eight u64 words — one cache line — and
//! the empty-slot and id-multiplicity passes touch each word once.
//!
//! The lane-zero test is the exact form: for each 32-bit lane `x`,
//! `(x & 0x7fffffff) + 0x7fffffff` sets bit 31 iff the low 31 bits are
//! non-zero, and OR-ing `x` back in folds in bit 31 itself, so the lane's
//! high bit ends up set iff `x != 0` — with no cross-lane carry (the
//! masked add of two 31-bit values cannot overflow a lane). Unlike the
//! classic `(v - 0x…01) & !v & 0x…80` trick, this has no false positives
//! from borrow propagation, which matters because these scans *count*
//! lanes rather than just testing for existence.
//!
//! Everything here is safe code (`sandf-sim` forbids `unsafe`): words are
//! assembled from adjacent `u32` pairs arithmetically, which the compiler
//! lowers to single wide loads.
//!
//! [`nth_match`] is no longer the engines' placement: the receive path
//! selects empty slots from one bitmask per delivery
//! ([`SlotView::insert_into_random_empty`]). It stays only because the
//! pinned `scan.nth_match` kernel of the workspace benchmark calls it, and
//! goes once that kernel times the mask select (ROADMAP item 1(c)).
//!
//! [`EMPTY_SLOT`]: crate::traits::EMPTY_SLOT
//! [`SlotView::insert_into_random_empty`]: crate::SlotView::insert_into_random_empty

/// Low 31 bits of each lane.
const LANE_LOW31: u64 = 0x7fff_ffff_7fff_ffff;
/// Bit 31 of each lane.
const LANE_HIGH: u64 = 0x8000_0000_8000_0000;

/// Packs two adjacent slots into one word (`lo` in bits 0..32).
#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | (u64::from(hi) << 32)
}

/// Per-lane zero markers: bit 31 of each lane is set iff that lane is
/// zero. Exact — no borrow/carry crosses lanes.
#[inline]
fn zero_lane_markers(word: u64) -> u64 {
    let nonzero = ((word & LANE_LOW31) + LANE_LOW31) | word;
    !nonzero & LANE_HIGH
}

/// Counts slots equal to `needle`, two lanes per step.
#[must_use]
pub fn count_matches(slots: &[u32], needle: u32) -> usize {
    count_masked_matches(slots, needle, u32::MAX)
}

/// Counts slots whose bits under `mask` equal `needle`, two lanes per
/// step: the arena's instance count, which masks a stored word's flag
/// bits off before it compares.
#[inline]
pub(crate) fn count_masked_matches(slots: &[u32], needle: u32, mask: u32) -> usize {
    let (broadcast, lanes) = (pack(needle, needle), pack(mask, mask));
    let mut chunks = slots.chunks_exact(2);
    let mut count = 0usize;
    for pair in &mut chunks {
        let masked = pack(pair[0], pair[1]) & lanes;
        count += zero_lane_markers(masked ^ broadcast).count_ones() as usize;
    }
    count + chunks.remainder().iter().filter(|&&slot| slot & mask == needle).count()
}

/// Offset of the `nth` (0-based) slot equal to `needle`, scanning in slot
/// order — the semantics the nth-empty-slot placement draw pins. Words
/// with no matching lane are skipped by popcount.
///
/// No engine calls it: the placement selects from an empty-slot bitmask
/// (see the module docs). Kept for the benchmark's `scan.nth_match`
/// kernel; CI's "One placement draw" lint keeps other callers out.
#[must_use]
pub fn nth_match(slots: &[u32], needle: u32, mut nth: usize) -> Option<usize> {
    let broadcast = pack(needle, needle);
    let mut chunks = slots.chunks_exact(2);
    let mut base = 0usize;
    for pair in &mut chunks {
        let markers = zero_lane_markers(pack(pair[0], pair[1]) ^ broadcast);
        let here = markers.count_ones() as usize;
        if nth < here {
            // Lane 0 (bits 0..32) is the earlier slot.
            let lane0_matches = markers & (1 << 31) != 0;
            return Some(base + usize::from(!(lane0_matches && nth == 0)));
        }
        nth -= here;
        base += 2;
    }
    for (off, &slot) in chunks.remainder().iter().enumerate() {
        if slot == needle {
            if nth == 0 {
                return Some(base + off);
            }
            nth -= 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    fn scalar_count(slots: &[u32], needle: u32) -> usize {
        slots.iter().filter(|&&slot| slot == needle).count()
    }

    fn scalar_nth(slots: &[u32], needle: u32, mut nth: usize) -> Option<usize> {
        for (off, &slot) in slots.iter().enumerate() {
            if slot == needle {
                if nth == 0 {
                    return Some(off);
                }
                nth -= 1;
            }
        }
        None
    }

    #[test]
    fn zero_lane_markers_are_exact_at_the_borrow_hazard() {
        // lo == 0 with hi == 1 is the classic trick's false positive.
        assert_eq!(zero_lane_markers(pack(0, 1)), 1 << 31);
        assert_eq!(zero_lane_markers(pack(1, 0)), 1 << 63);
        assert_eq!(zero_lane_markers(pack(0, 0)), LANE_HIGH);
        assert_eq!(zero_lane_markers(pack(u32::MAX, 0x8000_0000)), 0);
    }

    #[test]
    fn swar_scans_match_scalar_references() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in 0..=33 {
            for _ in 0..64 {
                let slots: Vec<u32> = (0..len)
                    .map(|_| {
                        [0, 1, 3, u32::MAX, 0x8000_0000, 0x4000_0003][rng.gen_range(0..6usize)]
                    })
                    .collect();
                for needle in [0, 1, 3, u32::MAX, 0x8000_0000, 17] {
                    assert_eq!(count_matches(&slots, needle), scalar_count(&slots, needle));
                    // The arena's masked count, flag bits off.
                    let masked: Vec<u32> = slots.iter().map(|&slot| slot & 0x3fff_ffff).collect();
                    assert_eq!(
                        count_masked_matches(&slots, needle & 0x3fff_ffff, 0x3fff_ffff),
                        scalar_count(&masked, needle & 0x3fff_ffff),
                        "len={len} needle={needle} slots={slots:?}"
                    );
                    for nth in 0..=slots.len() {
                        assert_eq!(
                            nth_match(&slots, needle, nth),
                            scalar_nth(&slots, needle, nth),
                            "len={len} needle={needle} nth={nth} slots={slots:?}"
                        );
                    }
                }
            }
        }
    }
}
