//! The paper's deferred optimizations, implemented.
//!
//! Section 5 of Gurevich & Keidar sketches three optimizations and sets
//! them aside because they "would make the protocol harder to analyze …
//! leave optimizations to future work". This module is that future work,
//! as [`ProtocolBehavior`]s for the arena engines
//! ([`FlatSimulation`](sandf_sim::FlatSimulation),
//! [`ParSimulation`](sandf_sim::ParSimulation)):
//!
//! 1. [`UndeleteBehavior`] — sent ids are *tombstoned*, not cleared, and
//!    compensation *undeletes* stale entries instead of duplicating live
//!    ones;
//! 2. [`ReplaceBehavior`] — a full receiver overwrites random entries
//!    instead of deleting arrivals;
//! 3. [`BatchedBehavior`] — `b` payload ids per message (odd `b`,
//!    preserving the Observation 5.1 parity invariant).
//!
//! The analyzed baseline is [`SfBehavior`] itself, so the
//! `variants_ablation` bench compares degree balance, dependence, and
//! loss-resilience across all four on one engine — quantifying exactly the
//! trade-offs the paper chose not to analyze.
//!
//! Each is vanilla S&F over a [`SlotView`] window with one rule changed:
//! the same slot draws, with empty slots marked by the arena's
//! [`EMPTY_SLOT`](sandf_sim::EMPTY_SLOT) sentinel and tombstones by the
//! [`FLAG_TOMBSTONE`] bit, read and written through the view's accessors.
//! The vanilla protocol needs no re-expression — it *is* [`SfBehavior`].
//!
//! Wire format: [`IdBatch`] with per-payload dependence bits; the
//! sender's own dependence rides in the `kind` field
//! ([`KIND_DEPENDENT_SEND`]), which also lets the engines count
//! compensated sends as duplications via
//! [`ProtocolBehavior::duplicated`].
//!
//! ## Example
//!
//! ```
//! use sandf_core::{NodeId, SfConfig};
//! use sandf_sim::{Engine, FlatSimulation, UniformLoss};
//! use sandf_zoo::variants::UndeleteBehavior;
//!
//! let config = SfConfig::new(16, 6)?;
//! let views = (0..32u64)
//!     .map(|i| (NodeId::new(i), (1..=8).map(|d| NodeId::new((i + d) % 32)).collect()))
//!     .collect();
//! let loss = UniformLoss::new(0.05)?;
//! let mut sim = FlatSimulation::from_views(UndeleteBehavior, config, views, loss, 7);
//! sim.run_rounds(100);
//! assert!(sim.graph().is_weakly_connected());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use rand::seq::index::sample;
use rand::Rng;
use sandf_core::{NodeId, SfConfig};
use sandf_sim::{
    IdBatch, ProtocolBehavior, Receipt, SfBehavior, SlotView, FLAG_DEPENDENT, FLAG_TOMBSTONE,
};

/// [`IdBatch::kind`] for a send whose transmitted instances were cleansed
/// (no compensation happened).
pub const KIND_CLEAN_SEND: u8 = 0;
/// [`IdBatch::kind`] for a compensated send: the sender id (and every
/// payload, via the dep bits) is labeled dependent — Figure 7.1's tag
/// algebra, surfaced to the engine as [`ProtocolBehavior::duplicated`].
pub const KIND_DEPENDENT_SEND: u8 = 1;

fn kind_of(compensated: bool) -> u8 {
    if compensated {
        KIND_DEPENDENT_SEND
    } else {
        KIND_CLEAN_SEND
    }
}

fn dep_flag(dependent: bool) -> u8 {
    if dependent {
        FLAG_DEPENDENT
    } else {
        0
    }
}

/// Draws the vanilla S&F slot pair: `i` uniform over `0..s`, `j` uniform
/// over the remaining `s − 1` slots, as [`SfBehavior::initiate`] does.
fn draw_pair(s: usize, rng: &mut impl Rng) -> (usize, usize) {
    let i = rng.gen_range(0..s);
    let mut j = rng.gen_range(0..s - 1);
    if j >= i {
        j += 1;
    }
    (i, j)
}

/// Variant 2 (replace-when-full) over the arena: vanilla S&F sends (its
/// initiate is [`SfBehavior`]'s), but a
/// full receiver *overwrites* a uniformly random victim instead of
/// deleting the arrivals — no message is ever wasted, at the price of
/// displacing healthy entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplaceBehavior;

impl ReplaceBehavior {
    /// Stores one entry: a random empty slot when one exists, else a
    /// uniformly random victim over *all* slots is overwritten. Returns
    /// whether the store was fresh (no displacement).
    fn put(view: &mut SlotView<'_>, id: NodeId, dependent: bool, rng: &mut impl Rng) -> bool {
        if (*view.degree as usize) < view.len() {
            view.insert_into_random_empty(id, dep_flag(dependent), rng);
            true
        } else {
            let victim = rng.gen_range(0..view.len());
            view.set(victim, id, dep_flag(dependent));
            false
        }
    }
}

impl ProtocolBehavior for ReplaceBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn duplicated(msg: &IdBatch) -> bool {
        msg.kind == KIND_DEPENDENT_SEND
    }

    /// Vanilla S&F's send ([`SfBehavior::initiate`]: the same draws, the
    /// same clearing), carried in an [`IdBatch`].
    fn initiate<R: Rng>(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        rng: &mut R,
    ) -> Option<(NodeId, IdBatch)> {
        let (target, message) = SfBehavior.initiate(config, view, rng)?;
        let mut msg = IdBatch::new(message.sender, kind_of(message.dependent));
        msg.push(message.payload, message.dependent);
        Some((target, msg))
    }

    fn receive<R: Rng>(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut R,
    ) -> Receipt<IdBatch> {
        let mut all_fresh = Self::put(&mut view, msg.sender, msg.kind == KIND_DEPENDENT_SEND, rng);
        for (id, dependent) in msg.entries() {
            all_fresh &= Self::put(&mut view, id, dependent, rng);
        }
        if all_fresh {
            Receipt::stored()
        } else {
            // Displacement: something was overwritten. Counted as a
            // deletion (an instance died).
            Receipt::deleted()
        }
    }

    fn validate_bootstrap(
        &self,
        config: SfConfig,
        supplied: usize,
    ) -> Result<(), sandf_core::JoinError> {
        config.check_bootstrap(supplied)
    }
}

/// Variant 1 (undeletion) over the arena: sent entries become
/// [`FLAG_TOMBSTONE`]d slots instead of clearing; at `d_L` the protocol
/// undeletes two uniformly random tombstones (excluding, with fallback
/// to, the just-sent pair) instead of duplicating; receives prefer empty
/// slots, reclaim tombstones, and only then delete.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UndeleteBehavior;

impl UndeleteBehavior {
    fn is_tombstone(view: &SlotView<'_>, off: usize) -> bool {
        view.id_at(off).is_some() && view.flags_at(off) & FLAG_TOMBSTONE != 0
    }

    /// Restores one tombstone chosen uniformly at random, excluding the
    /// just-sent pair (falling back to it when the reservoir is otherwise
    /// empty — plain duplication).
    fn undelete_one(view: &mut SlotView<'_>, exclude: (usize, usize), rng: &mut impl Rng) -> bool {
        let candidates: Vec<usize> = (0..view.len())
            .filter(|&k| Self::is_tombstone(view, k) && k != exclude.0 && k != exclude.1)
            .collect();
        let pick = if candidates.is_empty() {
            let fallback: Vec<usize> = [exclude.0, exclude.1]
                .into_iter()
                .filter(|&k| Self::is_tombstone(view, k))
                .collect();
            if fallback.is_empty() {
                return false;
            }
            fallback[rng.gen_range(0..fallback.len())]
        } else {
            candidates[rng.gen_range(0..candidates.len())]
        };
        // An undeleted instance is a stale copy of an id that was sent
        // away: label it dependent (Section 2 accounting).
        let id = view.id_at(pick).expect("a tombstone keeps its id");
        view.set(pick, id, FLAG_DEPENDENT);
        *view.degree += 1;
        true
    }

    /// Stores one entry: a random empty slot first, a reclaimed tombstone
    /// second, deletion (false) when fully live.
    fn store(view: &mut SlotView<'_>, id: NodeId, dependent: bool, rng: &mut impl Rng) -> bool {
        let empties: Vec<usize> = (0..view.len()).filter(|&k| view.id_at(k).is_none()).collect();
        let target = if empties.is_empty() {
            let tombs: Vec<usize> =
                (0..view.len()).filter(|&k| Self::is_tombstone(view, k)).collect();
            if tombs.is_empty() {
                return false; // fully live: delete, as vanilla S&F would
            }
            tombs[rng.gen_range(0..tombs.len())]
        } else {
            empties[rng.gen_range(0..empties.len())]
        };
        view.set(target, id, dep_flag(dependent));
        *view.degree += 1;
        true
    }
}

impl ProtocolBehavior for UndeleteBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn duplicated(msg: &IdBatch) -> bool {
        msg.kind == KIND_DEPENDENT_SEND
    }

    fn initiate<R: Rng>(
        &self,
        config: SfConfig,
        mut view: SlotView<'_>,
        rng: &mut R,
    ) -> Option<(NodeId, IdBatch)> {
        let (i, j) = draw_pair(view.len(), rng);
        if !view.is_live(i) || !view.is_live(j) {
            return None;
        }
        let (target, payload) = (view.id_at(i)?, view.id_at(j)?);
        let compensate = (*view.degree as usize) <= config.lower_threshold();
        // Tombstone instead of clearing: the entries stay as a reservoir.
        view.set(i, target, view.flags_at(i) | FLAG_TOMBSTONE);
        view.set(j, payload, view.flags_at(j) | FLAG_TOMBSTONE);
        *view.degree -= 2;
        if compensate {
            let first = Self::undelete_one(&mut view, (i, j), rng);
            let second = Self::undelete_one(&mut view, (i, j), rng);
            debug_assert!(first && second, "the just-sent entries guarantee fallbacks");
        }
        let mut msg = IdBatch::new(view.id, kind_of(compensate));
        msg.push(payload, compensate);
        Some((target, msg))
    }

    fn receive<R: Rng>(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut R,
    ) -> Receipt<IdBatch> {
        let mut any_stored =
            Self::store(&mut view, msg.sender, msg.kind == KIND_DEPENDENT_SEND, rng);
        for (id, dependent) in msg.entries() {
            any_stored |= Self::store(&mut view, id, dependent, rng);
        }
        if any_stored {
            Receipt::stored()
        } else {
            Receipt::deleted()
        }
    }

    fn validate_bootstrap(
        &self,
        config: SfConfig,
        supplied: usize,
    ) -> Result<(), sandf_core::JoinError> {
        config.check_bootstrap(supplied)
    }
}

/// Variant 3 (batched sends) over the arena: each action samples `b + 1`
/// distinct slots (one target, `b` payloads), clears them all on a clean
/// send, and compensates (keeps them, labeled dependent) when clearing
/// would cross `d_L`. A receiver needs `1 + b` free slots or deletes the
/// whole batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchedBehavior {
    /// Ids cleared per send alongside the target (odd, `< s − d_L`, and
    /// ≤ [`IdBatch::CAPACITY`]).
    pub batch: usize,
}

impl BatchedBehavior {
    /// Creates the behavior with the given batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is even or exceeds [`IdBatch::CAPACITY`]. The
    /// band constraint (`batch < s − d_L`) is checked per-view at
    /// initiate time via `debug_assert`.
    #[must_use]
    pub fn new(batch: usize) -> Self {
        assert!(batch % 2 == 1, "batch size must be odd to preserve parity");
        assert!(batch <= IdBatch::CAPACITY, "batch exceeds IdBatch capacity {}", IdBatch::CAPACITY);
        Self { batch }
    }
}

impl ProtocolBehavior for BatchedBehavior {
    type Msg = IdBatch;

    fn sender(msg: &IdBatch) -> NodeId {
        msg.sender
    }

    fn duplicated(msg: &IdBatch) -> bool {
        msg.kind == KIND_DEPENDENT_SEND
    }

    fn initiate<R: Rng>(
        &self,
        config: SfConfig,
        mut view: SlotView<'_>,
        rng: &mut R,
    ) -> Option<(NodeId, IdBatch)> {
        debug_assert!(
            self.batch < config.view_size() - config.lower_threshold(),
            "batch too large for the degree band"
        );
        let picks = sample(rng, view.len(), self.batch + 1).into_vec();
        // The target and the payload ids, read before any clearing.
        let ids = picks.iter().map(|&k| view.id_at(k)).collect::<Option<Vec<NodeId>>>()?;
        // Clearing 1 + b entries must not cross d_L.
        let duplicated = (*view.degree as usize) < config.lower_threshold() + self.batch + 1;
        let mut msg = IdBatch::new(view.id, kind_of(duplicated));
        for &payload in &ids[1..] {
            msg.push(payload, duplicated);
        }
        if !duplicated {
            for &k in &picks {
                view.clear(k);
            }
            *view.degree -= (self.batch + 1) as u32;
        }
        Some((ids[0], msg))
    }

    fn receive<R: Rng>(
        &self,
        _config: SfConfig,
        mut view: SlotView<'_>,
        msg: IdBatch,
        rng: &mut R,
    ) -> Receipt<IdBatch> {
        let arriving = 1 + msg.len as usize;
        if view.len() - (*view.degree as usize) < arriving {
            return Receipt::deleted();
        }
        let empties: Vec<usize> = (0..view.len()).filter(|&k| view.id_at(k).is_none()).collect();
        let chosen = sample(rng, empties.len(), arriving).into_vec();
        let mut entries = Vec::with_capacity(arriving);
        entries.push((msg.sender, msg.kind == KIND_DEPENDENT_SEND));
        entries.extend(msg.entries());
        for (&slot_pick, (id, dependent)) in chosen.iter().zip(entries) {
            view.set(empties[slot_pick], id, dep_flag(dependent));
        }
        *view.degree += arriving as u32;
        Receipt::stored()
    }

    fn validate_bootstrap(
        &self,
        config: SfConfig,
        supplied: usize,
    ) -> Result<(), sandf_core::JoinError> {
        config.check_bootstrap(supplied)
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sandf_sim::EMPTY_SLOT;

    use super::*;

    type Slot = (u32, u8);

    const E: Slot = (EMPTY_SLOT, 0);
    const DEP: u8 = FLAG_DEPENDENT;

    const fn live(id: u32) -> Slot {
        (id, 0)
    }

    const fn tomb(id: u32) -> Slot {
        (id, FLAG_TOMBSTONE)
    }

    /// `d_L = 2`; the windows below are narrower than `s`, which the
    /// behaviors never read (they size themselves from the window).
    fn config() -> SfConfig {
        SfConfig::new(8, 2).unwrap()
    }

    /// One node's arena window, owned so a case can lend out [`SlotView`]s;
    /// its slots are written and read through the view's accessors.
    struct Window {
        ids: Vec<u32>,
        degree: u32,
    }

    impl Window {
        fn new(slots: &[Slot]) -> Self {
            let mut window = Self { ids: vec![EMPTY_SLOT; slots.len()], degree: 0 };
            let mut view = window.view();
            for (off, &(id, flags)) in slots.iter().enumerate().filter(|(_, slot)| slot.0 != E.0) {
                view.set(off, NodeId::new(id.into()), flags);
            }
            window.degree = window.visible().len() as u32;
            window
        }

        fn view(&mut self) -> SlotView<'_> {
            SlotView { id: NodeId::new(0), ids: &mut self.ids, degree: &mut self.degree }
        }

        fn slots(&mut self) -> Vec<Slot> {
            let view = self.view();
            let slot = |k| view.id_at(k).map_or(E, |id| (id.as_u64() as u32, view.flags_at(k)));
            (0..view.len()).map(slot).collect()
        }

        /// The live entries, flags included.
        fn visible(&mut self) -> Vec<Slot> {
            let slots = self.slots().into_iter();
            slots.filter(|&(id, f)| id != EMPTY_SLOT && f & FLAG_TOMBSTONE == 0).collect()
        }

        fn tombstones(&mut self) -> usize {
            let slots = self.slots().into_iter();
            slots.filter(|&(id, f)| id != EMPTY_SLOT && f & FLAG_TOMBSTONE != 0).count()
        }

        /// Checks the ledger against the slots, then the case's expectation.
        fn expect(&mut self, name: &str, degree: u32, tombstones: usize, holds: &[Slot]) {
            let visible = self.visible();
            assert_eq!(self.degree as usize, visible.len(), "{name}: degree ledger drifted");
            assert_eq!(self.degree, degree, "{name}: live outdegree");
            assert_eq!(self.tombstones(), tombstones, "{name}: tombstones");
            for entry in holds {
                assert!(visible.contains(entry), "{name}: {entry:?} missing from {visible:?}");
            }
        }
    }

    /// One successful send (slot picks that hit an unusable slot are
    /// self-loops; the case retries past them) from the `before` window.
    struct Send<'a> {
        name: &'static str,
        initiate: fn(SlotView<'_>, &mut StdRng) -> Option<(NodeId, IdBatch)>,
        before: &'a [Slot],
        kind: u8,
        payloads: u8,
        degree: u32,
        tombstones: usize,
        holds: &'a [Slot],
    }

    #[test]
    fn initiate_cases() {
        let undelete: fn(SlotView<'_>, &mut StdRng) -> Option<(NodeId, IdBatch)> =
            |view, rng| UndeleteBehavior.initiate(config(), view, rng);
        let replace: fn(SlotView<'_>, &mut StdRng) -> Option<(NodeId, IdBatch)> =
            |view, rng| ReplaceBehavior.initiate(config(), view, rng);
        let batched: fn(SlotView<'_>, &mut StdRng) -> Option<(NodeId, IdBatch)> =
            |view, rng| BatchedBehavior::new(3).initiate(config(), view, rng);
        let cases = [
            Send {
                name: "undelete tombstones the sent pair instead of clearing it",
                initiate: undelete,
                before: &[live(1), live(2), live(3), live(4)],
                kind: KIND_CLEAN_SEND,
                payloads: 1,
                degree: 2,
                tombstones: 2,
                holds: &[],
            },
            Send {
                name: "undelete compensates from the reservoir, tagged dependent",
                initiate: undelete,
                before: &[live(1), live(2), tomb(3), tomb(4)],
                kind: KIND_DEPENDENT_SEND,
                payloads: 1,
                degree: 2,
                tombstones: 2,
                holds: &[(3, DEP), (4, DEP)],
            },
            Send {
                name: "undelete drains the reservoir before touching the just-sent pair",
                initiate: undelete,
                before: &[live(1), live(2), tomb(3), E],
                kind: KIND_DEPENDENT_SEND,
                payloads: 1,
                degree: 2,
                tombstones: 1,
                holds: &[(3, DEP)],
            },
            Send {
                name: "undelete falls back to the just-sent pair (plain duplication)",
                initiate: undelete,
                before: &[live(1), live(2), E, E],
                kind: KIND_DEPENDENT_SEND,
                payloads: 1,
                degree: 2,
                tombstones: 0,
                holds: &[(1, DEP), (2, DEP)],
            },
            Send {
                name: "replace clears the sent pair above d_L, like vanilla",
                initiate: replace,
                before: &[live(1), live(2), live(3), live(4)],
                kind: KIND_CLEAN_SEND,
                payloads: 1,
                degree: 2,
                tombstones: 0,
                holds: &[],
            },
            Send {
                name: "replace duplicates at d_L, like vanilla",
                initiate: replace,
                before: &[live(1), live(2), E, E],
                kind: KIND_DEPENDENT_SEND,
                payloads: 1,
                degree: 2,
                tombstones: 0,
                holds: &[live(1), live(2)],
            },
            Send {
                name: "batched clears the target and b payloads",
                initiate: batched,
                before: &[live(1), live(2), live(3), live(4), live(5), live(6), live(7), live(8)],
                kind: KIND_CLEAN_SEND,
                payloads: 3,
                degree: 4,
                tombstones: 0,
                holds: &[],
            },
            Send {
                name: "batched duplicates when clearing b + 1 would cross d_L",
                initiate: batched,
                before: &[live(1), live(2), live(3), live(4)],
                kind: KIND_DEPENDENT_SEND,
                payloads: 3,
                degree: 4,
                tombstones: 0,
                holds: &[live(1), live(2), live(3), live(4)],
            },
        ];
        for case in cases {
            let mut window = Window::new(case.before);
            let mut rng = StdRng::seed_from_u64(1);
            let (_, msg) = loop {
                if let Some(sent) = (case.initiate)(window.view(), &mut rng) {
                    break sent;
                }
            };
            let compensated = case.kind == KIND_DEPENDENT_SEND;
            assert_eq!(msg.kind, case.kind, "{}: message kind", case.name);
            assert_eq!(msg.len, case.payloads, "{}: payload ids", case.name);
            assert!(
                msg.entries().all(|(_, dependent)| dependent == compensated),
                "{}: payload tags follow the send kind",
                case.name
            );
            window.expect(case.name, case.degree, case.tombstones, case.holds);
        }
    }

    /// One delivery of sender 50 plus `payloads` ids 51, 52, … (a clean
    /// send) into the `before` window.
    struct Delivery<'a> {
        name: &'static str,
        receive: fn(SlotView<'_>, IdBatch, &mut StdRng) -> Receipt<IdBatch>,
        before: &'a [Slot],
        payloads: u64,
        deleted: bool,
        degree: u32,
        tombstones: usize,
        holds: &'a [Slot],
    }

    #[test]
    fn receive_cases() {
        let undelete: fn(SlotView<'_>, IdBatch, &mut StdRng) -> Receipt<IdBatch> =
            |view, msg, rng| UndeleteBehavior.receive(config(), view, msg, rng);
        let replace: fn(SlotView<'_>, IdBatch, &mut StdRng) -> Receipt<IdBatch> =
            |view, msg, rng| ReplaceBehavior.receive(config(), view, msg, rng);
        let batched: fn(SlotView<'_>, IdBatch, &mut StdRng) -> Receipt<IdBatch> =
            |view, msg, rng| BatchedBehavior::new(3).receive(config(), view, msg, rng);
        let cases = [
            Delivery {
                name: "replace overwrites when full instead of deleting the arrivals",
                receive: replace,
                before: &[live(1), live(2), live(3), live(4), live(5), live(6)],
                payloads: 1,
                deleted: true,
                degree: 6,
                tombstones: 0,
                // The second arrival may evict the first (victims are
                // uniform over all slots); the last one always survives.
                holds: &[live(51)],
            },
            Delivery {
                name: "replace fills empty slots first",
                receive: replace,
                before: &[live(1), live(2), E, E],
                payloads: 1,
                deleted: false,
                degree: 4,
                tombstones: 0,
                holds: &[live(1), live(2), live(50), live(51)],
            },
            Delivery {
                name: "undelete prefers empty slots to tombstones",
                receive: undelete,
                before: &[live(1), E, E, tomb(4)],
                payloads: 1,
                deleted: false,
                degree: 3,
                tombstones: 1,
                holds: &[live(50), live(51)],
            },
            Delivery {
                name: "undelete reclaims tombstones before deleting",
                receive: undelete,
                before: &[live(1), live(2), tomb(3), tomb(4)],
                payloads: 1,
                deleted: false,
                degree: 4,
                tombstones: 0,
                holds: &[live(50), live(51)],
            },
            Delivery {
                name: "undelete deletes once fully live",
                receive: undelete,
                before: &[live(1), live(2), live(3), live(4)],
                payloads: 1,
                deleted: true,
                degree: 4,
                tombstones: 0,
                holds: &[live(1), live(2), live(3), live(4)],
            },
            Delivery {
                name: "batched receive is all-or-nothing: 2 free slots, 4 arrivals",
                receive: batched,
                before: &[live(1), live(2), live(3), live(4), live(5), live(6), E, E],
                payloads: 3,
                deleted: true,
                degree: 6,
                tombstones: 0,
                holds: &[live(1), live(2), live(3), live(4), live(5), live(6)],
            },
            Delivery {
                name: "batched stores the sender and every payload when they fit",
                receive: batched,
                before: &[live(1), live(2), live(3), live(4), E, E, E, E],
                payloads: 3,
                deleted: false,
                degree: 8,
                tombstones: 0,
                holds: &[live(50), live(51), live(52), live(53)],
            },
        ];
        for case in cases {
            let mut window = Window::new(case.before);
            let mut msg = IdBatch::new(NodeId::new(50), KIND_CLEAN_SEND);
            for k in 0..case.payloads {
                msg.push(NodeId::new(51 + k), false);
            }
            let receipt = (case.receive)(window.view(), msg, &mut StdRng::seed_from_u64(1));
            assert_eq!(receipt.deleted, case.deleted, "{}: receipt", case.name);
            window.expect(case.name, case.degree, case.tombstones, case.holds);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn batched_rejects_an_even_batch() {
        let _ = BatchedBehavior::new(2);
    }
}
