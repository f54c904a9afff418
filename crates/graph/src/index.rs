//! The membership-graph snapshot's id → position table: open addressing
//! over `u32` positions into an id slice the caller owns. The engines and
//! the daemon's live checker resolve ids through their arena's own index
//! instead (`sandf_sim::Arena::dense_of`).

use sandf_core::NodeId;

/// Marks an empty slot.
const VACANT: u32 = u32::MAX;

/// An open-addressing index from node ids to their positions in an id
/// slice that the caller keeps.
///
/// A slot stores only a `u32` position; the key is read back from the
/// slice, so the table costs 4 B per slot and holds no copy of the ids.
/// The slot count is the power of two at or above twice the id count
/// (load at most one half, fewer than four slots per id), probed linearly
/// from a Fibonacci hash of the raw id. A lookup must pass the slice the
/// last [`rebuild`](Self::rebuild) indexed.
///
/// [`MembershipGraph`](crate::MembershipGraph) resolves its edges through
/// one.
///
/// # Examples
///
/// ```
/// use sandf_core::NodeId;
/// use sandf_graph::IdIndex;
///
/// let ids = [NodeId::new(7), NodeId::new(1 << 40), NodeId::new(3)];
/// let mut index = IdIndex::new();
/// index.rebuild(&ids);
/// assert_eq!(index.get(&ids, NodeId::new(1 << 40)), Some(1));
/// assert_eq!(index.get(&ids, NodeId::new(4)), None);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IdIndex {
    slots: Vec<u32>,
}

impl IdIndex {
    /// An empty index; [`rebuild`](Self::rebuild) fills it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes `ids`: `ids[k]` resolves to `k`. The slot buffer is
    /// reused when the slot count is unchanged, so re-indexing a slice of
    /// a steady length allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if an id repeats, or if `ids` holds `u32::MAX` ids or more.
    pub fn rebuild(&mut self, ids: &[NodeId]) {
        assert!(ids.len() < VACANT as usize, "an id index holds fewer than u32::MAX ids");
        let slots = (2 * ids.len()).next_power_of_two().max(2);
        if self.slots.len() == slots {
            self.slots.fill(VACANT);
        } else {
            self.slots = vec![VACANT; slots];
        }
        for (k, &id) in ids.iter().enumerate() {
            let slot = self.probe(ids, id);
            assert_eq!(self.slots[slot], VACANT, "duplicate node id {id} in a snapshot");
            self.slots[slot] = k as u32;
        }
    }

    /// The position of `id` in `ids`, or `None` if it is not there.
    #[inline]
    #[must_use]
    pub fn get(&self, ids: &[NodeId], id: NodeId) -> Option<usize> {
        match self.slots[self.probe(ids, id)] {
            VACANT => None,
            k => Some(k as usize),
        }
    }

    /// Number of slots (a power of two; 0 before the first rebuild).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The slot holding `id`, or the vacant slot that ends its probe run.
    #[inline]
    fn probe(&self, ids: &[NodeId], id: NodeId) -> usize {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the product's top log2(len) bits mix every id
        // bit.
        let shift = 64 - self.slots.len().trailing_zeros();
        let mut slot = (id.as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize;
        loop {
            let k = self.slots[slot];
            if k == VACANT || ids[k as usize] == id {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_every_id_and_nothing_else() {
        let ids: Vec<NodeId> =
            (0..1000u64).map(|k| NodeId::new(k.wrapping_mul(0x1_0000_0001) ^ (k << 50))).collect();
        let mut index = IdIndex::new();
        index.rebuild(&ids);
        assert_eq!(index.slot_count(), 2048);
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(index.get(&ids, id), Some(k));
        }
        assert_eq!(index.get(&ids, NodeId::new(u64::MAX)), None);
        // A shorter slice of the same slot count: the old seats are gone.
        index.rebuild(&ids[..600]);
        assert_eq!(index.slot_count(), 2048);
        assert_eq!(index.get(&ids[..600], ids[700]), None);
        assert_eq!(index.get(&ids[..600], ids[599]), Some(599));
        index.rebuild(&[]);
        assert_eq!(index.get(&[], NodeId::new(0)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate node id")]
    fn rejects_a_repeated_id() {
        IdIndex::new().rebuild(&[NodeId::new(4), NodeId::new(9), NodeId::new(4)]);
    }
}
