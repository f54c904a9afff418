//! The slot arena shared by [`FlatSimulation`](crate::FlatSimulation),
//! [`ParSimulation`](crate::ParSimulation) and the daemon's fleet
//! (`sandf-daemon`): storage, control plane, and readers of the §5
//! membership graph under Observation 5.1's degree ledger.
//!
//! One heap-allocated [`SfNode`] per participant behind a `HashMap` is the
//! obvious shape for a membership simulation, and it collapses under cache
//! pressure at `n ≥ 10⁵`: every step chases a hash bucket, a node box, and
//! a slot vector. The arena is the same state laid out flat, and this
//! module is the only place that knows the layout:
//!
//! * **slot words** — all views live in one contiguous `Vec<u32>` of
//!   `n · s` slots; the node at dense index `k` owns
//!   `slot_ids[k·s .. (k+1)·s]`, with `u32::MAX` as the empty-slot sentinel
//!   and a parallel `Vec<u8>` for the per-slot flag bits (dependence,
//!   tombstones). Ids are stored as `u32` words — half the footprint of the
//!   public `u64` id space, so an `s = 16` window is exactly one cache
//!   line;
//! * **widening boundary** — every id that enters the arena (a node's own
//!   id, a view entry, a bootstrap id) is checked against
//!   [`ARENA_ID_LIMIT`] once, here: constructors panic, joins return
//!   [`JoinError::IdSpaceExhausted`]. Queries for ids beyond the limit
//!   answer "absent" rather than aliasing onto a stored word;
//! * **one row walk** — `Arena::row` is the only function that applies
//!   visibility (a slot is visible when it is occupied and the behavior's
//!   [`slot_visible`](ProtocolBehavior::slot_visible) shows its flags). It
//!   yields one node's visible slots as `(offset, word, flags)` in slot
//!   order, and every reader here walks those rows: views, the join
//!   sponsor pool, the instance count, dependence, and the engines' row
//!   reader. Words stay words; only the readers that build `sandf-core`
//!   values ([`LocalView`], [`Entry`]) widen them to [`NodeId`]s;
//! * **flat ledgers** — outdegrees are a dense array indexed by the
//!   node's dense index, not a field of a boxed node, and a streaming
//!   [`DegreeStats`] histogram moves with every ledger write, so degree
//!   readers never scan the arena. There is no per-node counter column:
//!   the shell counts every event once, system-wide, in
//!   [`SimStats`](crate::SimStats), so an action or a delivery writes only
//!   the node's slot words, flags and degree. Per node the arena holds
//!   `5·s + 12` bytes: `s` slot words and `s` flag bytes, and one degree,
//!   id and index word;
//! * **id tables** — `dense_id` maps a dense index to its node id, stored
//!   as the same `u32` word as a slot and widened on read by
//!   [`Arena::id_at`] (it grows on join and never shrinks or compacts, so
//!   dense indices are stable) and `index` maps a raw id back to its dense
//!   index. Ids are used as table indices (a flat `Vec`, not a hash map),
//!   so memory is proportional to the *largest raw id*, not the live
//!   count. The in-repo topology builders assign contiguous ids from zero
//!   and joins extend them by one, which is the intended regime — and in
//!   it the two tables are identities. One bit, `id_is_dense`, records
//!   that every admitted node's dense index equals its raw id: it holds
//!   for every builder in the repo and through joins (a joiner takes
//!   `next_id`, which is then the dense length), and a build whose ids do
//!   not run 0, 1, 2, … in order (the sparse-id suite) clears it for good.
//!   While
//!   it holds, [`Arena::dense_of`] answers the id itself and reads
//!   `index` for liveness only, as a branch, so a delivery's receiver row
//!   loads issue beside that read instead of waiting on it.
//!
//! What the arena deliberately does **not** own is the live *order*: it
//! belongs to the schedule [`ArenaSim`](crate::ArenaSim) runs (flat:
//! insertion order with `swap_remove`; par: ascending dense order) or to
//! the daemon (ascending dense order, its wheel keyed by dense index), so
//! every reader that walks the live set takes that order as an iterator of
//! dense indices. Because dense indices are stable and joins only append,
//! a schedule can key its own per-node tables by them: flat's `live_pos`
//! (dense index → position in its live list, what makes its `leave` O(1);
//! built at the first `leave`, before which the live order is the dense
//! order) is one, and par's per-sender fault channels another; each lives
//! with its schedule, not here. The daemon keys its per-row columns (its
//! nodes' random streams, inboxes and counters) the same way.
//!
//! The type is public for the daemon, with only the methods it calls; its
//! fields stay private to this crate, and every other reader goes through
//! an engine.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use sandf_core::{Entry, JoinError, LocalView, NodeId, SfConfig, SfNode};
use sandf_graph::DependenceReport;

use crate::degree::DegreeStats;
use crate::traits::{widen, ProtocolBehavior, Receipt, SlotView, ARENA_ID_LIMIT, FLAG_DEPENDENT};

/// Empty-slot sentinel in the arena. Real node ids must stay below it.
pub(crate) const EMPTY: u32 = crate::traits::EMPTY_SLOT;

/// "Not live" sentinel in the id → dense-index table.
const DEAD: u32 = u32::MAX;

/// Narrows an id to its arena word, or reports it as outside the `u32`
/// id space (the sentinel included).
fn checked_word(id: NodeId) -> Result<u32, JoinError> {
    match u32::try_from(id.as_u64()) {
        Ok(word) if word != EMPTY => Ok(word),
        _ => Err(JoinError::IdSpaceExhausted { next: id.as_u64(), limit: ARENA_ID_LIMIT }),
    }
}

/// A visible slot as a view entry.
fn entry(word: u32, flags: u8) -> Entry {
    Entry { id: widen(word), dependent: flags & FLAG_DEPENDENT != 0 }
}

/// The struct-of-arrays storage of a fleet of nodes: both arena engines
/// run on it, and so does the daemon.
///
/// Node `k` (its *dense index*) owns one row of `s` slot words and flag
/// bytes, an outdegree and an id word; rows are appended on join and kept
/// on leave, so dense indices are stable and a caller may key its own
/// per-node columns by them. Ids stay below [`ARENA_ID_LIMIT`]. A
/// [`ProtocolBehavior`] steps a row ([`initiate`](Self::initiate),
/// [`receive`](Self::receive)) and decides which slots the readers see.
#[derive(Clone)]
pub struct Arena {
    pub(crate) config: SfConfig,
    /// View size, cached out of `config` for the hot loops.
    pub(crate) s: usize,
    /// Slot words: node `k` owns `slot_ids[k·s .. (k+1)·s]`.
    pub(crate) slot_ids: Vec<u32>,
    /// Per-slot flag bits, parallel to `slot_ids` (meaningless on `EMPTY`).
    pub(crate) slot_flags: Vec<u8>,
    /// Outdegree ledger, indexed by dense node index.
    pub(crate) degree: Vec<u32>,
    /// Streaming live-outdegree histogram, maintained at store/delete
    /// time alongside `degree`.
    pub(crate) degree_hist: DegreeStats,
    /// Dense index → node id as an arena word (grows on join, never
    /// shrinks); read through [`id_at`](Self::id_at).
    pub(crate) dense_id: Vec<u32>,
    /// Raw id → dense index (`DEAD` for departed or never-assigned ids).
    pub(crate) index: Vec<u32>,
    /// Whether every admitted node's dense index equals its raw id (see
    /// the module docs); cleared for good by the first node that breaks it.
    pub(crate) id_is_dense: bool,
    /// The id the next joiner receives.
    pub(crate) next_id: u64,
}

/// One contiguous run of nodes, split off the arena's per-node arrays for
/// a par shard worker; node `lo + r` of the arena is local row `r`.
pub(crate) struct Shard<'a> {
    /// Dense index of the shard's first node.
    pub(crate) lo: usize,
    /// The shard's node ids as arena words, by local row (departed nodes
    /// included); [`id`](Self::id) widens one.
    pub(crate) ids: &'a [u32],
    /// The shard's outdegree ledger, by local row.
    pub(crate) degree: &'a mut [u32],
    s: usize,
    /// The whole id → dense table (shared, read-only), for liveness.
    index: &'a [u32],
    slots: &'a mut [u32],
    flags: &'a mut [u8],
}

impl Shard<'_> {
    /// Local row `r`'s node id.
    #[inline]
    pub(crate) fn id(&self, r: usize) -> NodeId {
        widen(self.ids[r])
    }

    /// Whether local row `r`'s node is still live.
    #[inline]
    pub(crate) fn is_live(&self, r: usize) -> bool {
        self.index[self.ids[r] as usize] as usize == self.lo + r
    }

    /// Local row `r`'s mutable slot window.
    #[inline]
    pub(crate) fn window(&mut self, r: usize) -> SlotView<'_> {
        let base = r * self.s;
        SlotView {
            id: self.id(r),
            ids: &mut self.slots[base..base + self.s],
            flags: &mut self.flags[base..base + self.s],
            degree: &mut self.degree[r],
        }
    }
}

impl Arena {
    fn with_capacity(config: SfConfig, nodes: usize) -> Self {
        let s = config.view_size();
        Self {
            config,
            s,
            slot_ids: Vec::with_capacity(nodes.saturating_mul(s)),
            slot_flags: Vec::with_capacity(nodes.saturating_mul(s)),
            degree: Vec::with_capacity(nodes),
            degree_hist: DegreeStats::new(s),
            dense_id: Vec::with_capacity(nodes),
            index: Vec::with_capacity(nodes),
            id_is_dense: true,
            next_id: 0,
        }
    }

    /// Builds the arena from S&F nodes in one streaming pass, so at large
    /// `n` (e.g. `topology::circulant_iter` at 10⁷ nodes) construction
    /// never materializes the boxed node set — the peak footprint is the
    /// arena itself, not `n` heap nodes. Slot positions and dependence
    /// tags carry over exactly; the nodes' own counters are dropped (the
    /// engine counts from zero, system-wide, in its `SimStats`).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, contains duplicate ids, mixes
    /// configurations, or holds a node or entry id at or above
    /// [`ARENA_ID_LIMIT`].
    pub fn from_nodes(nodes: impl IntoIterator<Item = SfNode>) -> Self {
        let mut nodes = nodes.into_iter().peekable();
        let config = nodes.peek().expect("simulation needs at least one node").config();
        let mut arena = Self::with_capacity(config, nodes.size_hint().0);
        for node in nodes {
            assert!(node.config() == config, "all nodes must share one configuration");
            let slots = node.view().slots().map(|slot| {
                slot.map(|entry| (entry.id, if entry.dependent { FLAG_DEPENDENT } else { 0 }))
            });
            arena.push_node(node.id(), slots);
        }
        arena
    }

    /// Builds the arena from initial views given as id lists (filled in
    /// slot order, untagged), in one streaming pass.
    ///
    /// # Panics
    ///
    /// Panics if `views` is empty, contains duplicate ids, holds a node or
    /// entry id at or above [`ARENA_ID_LIMIT`], or a view wider than `s`.
    pub(crate) fn from_views(
        config: SfConfig,
        views: impl IntoIterator<Item = (NodeId, Vec<NodeId>)>,
    ) -> Self {
        let views = views.into_iter();
        let mut arena = Self::with_capacity(config, views.size_hint().0);
        for (id, view) in views {
            arena.push_node(id, view.into_iter().map(|entry| Some((entry, 0))));
        }
        assert!(!arena.dense_id.is_empty(), "simulation needs at least one node");
        arena
    }

    /// Appends one live node — the single writer behind both builders and
    /// [`join_with`](Self::join_with). `slots` yields the node's window in
    /// slot order (`None` = empty; a short iterator leaves the tail empty).
    /// Returns the node's dense index.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate id, a node or entry id at or above
    /// [`ARENA_ID_LIMIT`], or more than `s` slots.
    fn push_node(
        &mut self,
        id: NodeId,
        slots: impl Iterator<Item = Option<(NodeId, u8)>>,
    ) -> usize {
        let word = |id: NodeId| {
            checked_word(id).unwrap_or_else(|_| {
                panic!(
                    "node id {} exceeds the u32 arena id space (ids must stay below u32::MAX)",
                    id.as_u64()
                )
            })
        };
        let own = word(id);
        let raw = own as usize;
        if raw >= self.index.len() {
            self.index.resize(raw + 1, DEAD);
        }
        assert!(self.index[raw] == DEAD, "duplicate node ids");
        let k = self.dense_id.len();
        let dense = u32::try_from(k).expect("node count exceeds the dense index space");
        assert!(dense != DEAD, "dense index space exhausted");
        let base = self.slot_ids.len();
        self.slot_ids.resize(base + self.s, EMPTY);
        self.slot_flags.resize(base + self.s, 0);
        let mut deg = 0u32;
        for (off, slot) in slots.enumerate() {
            assert!(off < self.s, "initial view exceeds the view size");
            if let Some((entry, flags)) = slot {
                self.slot_ids[base + off] = word(entry);
                self.slot_flags[base + off] = flags;
                deg += 1;
            }
        }
        self.degree.push(deg);
        self.degree_hist.add(deg);
        self.dense_id.push(own);
        self.index[raw] = dense;
        self.id_is_dense &= raw == k;
        self.next_id = self.next_id.max(id.as_u64() + 1);
        k
    }

    /// The dense index of a live node, or `None` when departed (or never
    /// admitted — which includes every id beyond the widening boundary).
    #[inline]
    pub fn dense_of(&self, id: NodeId) -> Option<usize> {
        let raw = id.index();
        if self.id_is_dense {
            // The answer is `raw` itself; `index` only decides liveness,
            // so the caller's row loads need not wait on it.
            return match self.index.get(raw) {
                Some(&k) if k != DEAD => Some(raw),
                _ => None,
            };
        }
        match self.index.get(raw) {
            Some(&k) if k != DEAD => Some(k as usize),
            _ => None,
        }
    }

    /// Node `k`'s id (live or departed), widened from its stored word.
    #[inline]
    pub fn id_at(&self, k: usize) -> NodeId {
        widen(self.dense_id[k])
    }

    /// Whether node `k` is still live (it has not left).
    #[inline]
    pub fn is_live(&self, k: usize) -> bool {
        self.index[self.dense_id[k] as usize] as usize == k
    }

    /// Dense indices of the live nodes, ascending.
    pub fn live_dense(&self) -> impl Iterator<Item = usize> + Clone + '_ {
        (0..self.dense_id.len()).filter(|&k| self.is_live(k))
    }

    /// Node `k`'s mutable slot window, for a behavior callback.
    #[inline]
    pub(crate) fn window(&mut self, k: usize) -> SlotView<'_> {
        let base = k * self.s;
        SlotView {
            id: self.id_at(k),
            ids: &mut self.slot_ids[base..base + self.s],
            flags: &mut self.slot_flags[base..base + self.s],
            degree: &mut self.degree[k],
        }
    }

    /// Splits the per-node arrays into contiguous [`Shard`]s of `shard_len`
    /// nodes (the last may be shorter), in dense order.
    pub(crate) fn shards_mut(&mut self, shard_len: usize) -> impl Iterator<Item = Shard<'_>> {
        let s = self.s;
        let index = self.index.as_slice();
        self.dense_id
            .chunks(shard_len)
            .zip(self.slot_ids.chunks_mut(shard_len * s))
            .zip(self.slot_flags.chunks_mut(shard_len * s))
            .zip(self.degree.chunks_mut(shard_len))
            .enumerate()
            .map(move |(j, (((ids, slots), flags), degree))| Shard {
                lo: j * shard_len,
                ids,
                degree,
                s,
                index,
                slots,
                flags,
            })
    }

    /// Runs `behavior`'s initiate action at node `k`, keeping the degree
    /// histogram in step with the ledger.
    #[inline]
    pub fn initiate<B: ProtocolBehavior>(
        &mut self,
        behavior: &B,
        k: usize,
        rng: &mut StdRng,
    ) -> Option<(NodeId, B::Msg)> {
        let before = self.degree[k];
        let out = behavior.initiate(self.config, self.window(k), rng);
        self.degree_hist.shift(before, self.degree[k]);
        out
    }

    /// Delivers `message` at node `k` through `behavior`, keeping the
    /// degree histogram in step with the ledger.
    #[inline]
    pub fn receive<B: ProtocolBehavior>(
        &mut self,
        behavior: &B,
        k: usize,
        message: B::Msg,
        rng: &mut StdRng,
    ) -> Receipt<B::Msg> {
        let before = self.degree[k];
        let receipt = behavior.receive(self.config, self.window(k), message, rng);
        self.degree_hist.shift(before, self.degree[k]);
        receipt
    }

    /// A live node's outdegree, or `None` when departed.
    pub(crate) fn out_degree_of(&self, id: NodeId) -> Option<usize> {
        self.dense_of(id).map(|k| self.degree[k] as usize)
    }

    /// Node `k`'s row: its visible slots as `(offset, word, flags)`, in
    /// slot order. The arena's one row walk, and the only place
    /// visibility is applied — a slot is visible when it is occupied and
    /// `B::slot_visible` shows its flags. Every reader below walks it.
    #[inline]
    fn row<B: ProtocolBehavior>(&self, k: usize) -> impl Iterator<Item = (usize, u32, u8)> + '_ {
        let window = k * self.s..(k + 1) * self.s;
        self.slot_ids[window.clone()]
            .iter()
            .zip(&self.slot_flags[window])
            .enumerate()
            .filter(|&(_, (&word, &flags))| word != EMPTY && B::slot_visible(flags))
            .map(|(off, (&word, &flags))| (off, word, flags))
    }

    /// The ids in node `k`'s visible slots, in slot order.
    pub fn row_ids<B: ProtocolBehavior>(&self, k: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.row::<B>(k).map(|(_, word, _)| widen(word))
    }

    /// Reconstitutes node `k`'s [`LocalView`] from its row: slot
    /// positions, ids and dependence tags preserved, hidden slots empty.
    pub(crate) fn view_at<B: ProtocolBehavior>(&self, k: usize) -> LocalView {
        let mut slots = vec![None; self.s];
        for (off, word, flags) in self.row::<B>(k) {
            slots[off] = Some(entry(word, flags));
        }
        LocalView::from_slots(slots)
    }

    /// Adds a node bootstrapped with `join_seed_size` ids drawn (by a
    /// shuffle on `rng`) from `sponsor`'s row; returns its dense index.
    ///
    /// # Errors
    ///
    /// [`JoinError::TooFewIds`] if the sponsor's view holds fewer visible
    /// ids than the behavior's seed size, or whatever
    /// [`join_with`](Self::join_with) rejects.
    ///
    /// # Panics
    ///
    /// Panics if `sponsor` is not live.
    pub(crate) fn join_via<B: ProtocolBehavior>(
        &mut self,
        behavior: &B,
        sponsor: NodeId,
        rng: &mut StdRng,
    ) -> Result<usize, JoinError> {
        let want = behavior.join_seed_size(self.config);
        let k = self.dense_of(sponsor).expect("sponsor must be live");
        let mut pool: Vec<u32> = self.row::<B>(k).map(|(_, word, _)| word).collect();
        if pool.len() < want {
            return Err(JoinError::TooFewIds { supplied: pool.len(), d_l: want });
        }
        pool.shuffle(rng);
        pool.truncate(want);
        self.join_with(behavior, pool.into_iter().map(widen))
    }

    /// Adds a node bootstrapped with the given ids (tagged dependent,
    /// filled in slot order — exactly like [`SfNode::with_view`] under
    /// [`SfBehavior`](crate::SfBehavior)); returns its dense index. A
    /// rejected join leaves the arena untouched.
    ///
    /// # Errors
    ///
    /// The behavior's bootstrap validation errors, or
    /// [`JoinError::IdSpaceExhausted`] when either the id allocator or a
    /// bootstrap id sits at or above [`ARENA_ID_LIMIT`].
    pub fn join_with<B: ProtocolBehavior>(
        &mut self,
        behavior: &B,
        bootstrap: impl ExactSizeIterator<Item = NodeId> + Clone,
    ) -> Result<usize, JoinError> {
        behavior.validate_bootstrap(self.config, bootstrap.len())?;
        let id = NodeId::new(self.next_id);
        checked_word(id)?;
        for entry in bootstrap.clone() {
            checked_word(entry)?;
        }
        let slots = bootstrap.map(|entry| Some((entry, FLAG_DEPENDENT)));
        Ok(self.push_node(id, slots))
    }

    /// Removes a node (leave/crash). Returns the departed node rebuilt
    /// from the arena — its view is exact, its counters zeroed.
    /// The dense slot stays allocated.
    pub fn leave<B: ProtocolBehavior>(&mut self, id: NodeId) -> Option<SfNode> {
        let k = self.dense_of(id)?;
        let node = SfNode::from_view(id, self.config, self.view_at::<B>(k));
        self.index[id.index()] = DEAD;
        self.degree_hist.remove(self.degree[k]);
        Some(node)
    }

    /// Total multiplicity of `id` across the rows of the nodes in `live`.
    /// Ids at or above [`ARENA_ID_LIMIT`] cannot be stored, so they count
    /// zero (the widening boundary never aliases them onto arena words).
    ///
    /// Windows are scanned two slots per u64 word; only the rare windows
    /// with a raw match are walked as rows.
    pub(crate) fn count_id_instances<B: ProtocolBehavior>(
        &self,
        live: impl Iterator<Item = usize>,
        id: NodeId,
    ) -> usize {
        let Ok(needle) = checked_word(id) else {
            return 0;
        };
        live.filter(|&k| {
            crate::scan::count_matches(&self.slot_ids[k * self.s..(k + 1) * self.s], needle) != 0
        })
        .map(|k| self.row::<B>(k).filter(|&(_, word, _)| word == needle).count())
        .sum()
    }

    /// Visits each node in `live` with its id word and the words of its
    /// row, compacted into one buffer reused across nodes (a full pass
    /// does no per-node allocation): the arena engines'
    /// [`Engine::for_each_live_row`](crate::Engine::for_each_live_row).
    pub fn for_each_row<B: ProtocolBehavior>(
        &self,
        live: impl Iterator<Item = usize>,
        visit: &mut dyn FnMut(u32, &[u32]),
    ) {
        let mut words = Vec::with_capacity(self.s);
        for k in live {
            words.clear();
            words.extend(self.row::<B>(k).map(|(_, word, _)| word));
            visit(self.dense_id[k], &words);
        }
    }

    /// Measures spatial dependence (Property M4) over the rows of the
    /// nodes in `live`.
    pub(crate) fn dependence<B: ProtocolBehavior>(
        &self,
        live: impl Iterator<Item = usize>,
    ) -> DependenceReport {
        DependenceReport::measure(
            live.map(|k| {
                (self.id_at(k), self.row::<B>(k).map(|(_, word, flags)| entry(word, flags)))
            }),
        )
    }

    /// Reconstitutes the nodes in `live` as [`SfNode`]s. Views carry over
    /// exactly; the rebuilt nodes' counters start at zero.
    pub fn to_nodes<B: ProtocolBehavior>(&self, live: impl Iterator<Item = usize>) -> Vec<SfNode> {
        live.map(|k| SfNode::from_view(self.id_at(k), self.config, self.view_at::<B>(k))).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::loss::UniformLoss;
    use crate::traits::SfBehavior;
    use crate::{slot_word, topology, Engine, FlatSimulation, ParSimulation};

    use super::*;

    fn config() -> SfConfig {
        SfConfig::new(12, 4).unwrap()
    }

    fn nodes() -> Vec<SfNode> {
        topology::circulant(24, config(), 4)
    }

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId::new).collect()
    }

    #[test]
    fn join_with_validates_like_the_protocol() {
        let mut arena = Arena::from_nodes(nodes());
        // Same checks, same order, same payloads as `SfNode::with_view`.
        let join = |arena: &mut Arena, bootstrap: Vec<NodeId>| {
            arena.join_with(&SfBehavior, bootstrap.into_iter())
        };
        assert_eq!(join(&mut arena, ids(0..2)), Err(JoinError::TooFewIds { supplied: 2, d_l: 4 }));
        assert_eq!(join(&mut arena, ids(0..5)), Err(JoinError::OddIdCount { supplied: 5 }));
        assert_eq!(
            join(&mut arena, ids(0..14)),
            Err(JoinError::TooManyIds { supplied: 14, s: 12 })
        );
        let k = join(&mut arena, ids(0..4)).unwrap();
        let id = arena.id_at(k);
        assert_eq!(id, NodeId::new(24), "joiners extend the id space by one");
        assert_eq!(arena.out_degree_of(id), Some(4));
        assert_eq!(arena.live_dense().count(), 25);
        assert_eq!(arena.degree_hist.live_nodes(), 25);
        let view = arena.view_at::<SfBehavior>(k);
        assert!(view.entries().all(|entry| entry.dependent), "bootstrap ids are tagged dependent");
    }

    #[test]
    fn join_is_rejected_once_the_u32_id_space_is_exhausted() {
        let mut arena = Arena::from_nodes(nodes());
        // Reaching the limit organically needs ~4.3 billion joins (and a
        // 17 GB id → dense table); the guard only reads the counter, so
        // pin it at the boundary directly.
        arena.next_id = ARENA_ID_LIMIT;
        assert_eq!(
            arena.join_with(&SfBehavior, ids(0..4).into_iter()),
            Err(JoinError::IdSpaceExhausted { next: ARENA_ID_LIMIT, limit: ARENA_ID_LIMIT })
        );
        assert_eq!(arena.dense_id.len(), 24, "a rejected join must not touch the arena");
        assert_eq!(arena.degree_hist.live_nodes(), 24);
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 arena id space")]
    fn construction_rejects_ids_at_the_slot_sentinel() {
        // `u32::MAX` is the empty-slot sentinel; a node with that id
        // would be indistinguishable from an empty slot.
        let node = SfNode::new(NodeId::new(u64::from(u32::MAX)), config());
        let _ = Arena::from_nodes(vec![node]);
    }

    #[test]
    fn queries_beyond_the_widening_boundary_never_alias() {
        let arena = Arena::from_nodes(nodes());
        let count = |id| arena.count_id_instances::<SfBehavior>(arena.live_dense(), id);
        // Congruent to a live id modulo 2^32 — a truncating comparison
        // would alias it onto node 3.
        let wide = NodeId::new((1u64 << 32) + 3);
        assert_eq!(count(wide), 0);
        assert_eq!(arena.out_degree_of(wide), None);
        assert_eq!(count(NodeId::new(3)), 4, "node 3 is referenced in the ring");
        assert_eq!(arena.out_degree_of(NodeId::new(3)), Some(4));
    }

    #[test]
    fn entry_ids_beyond_the_arena_word_are_rejected_by_every_writer() {
        fn panic_message(build: impl FnOnce() -> Arena + std::panic::UnwindSafe) -> String {
            let payload = std::panic::catch_unwind(build).err().expect("construction succeeded");
            payload.downcast_ref::<String>().cloned().unwrap_or_default()
        }
        // An id congruent to live node 3 modulo 2^32 (a truncating store
        // aliases it onto node 3), and the empty-slot sentinel itself (a
        // truncating store raises the degree over a view with no entry).
        for raw in [(1u64 << 32) + 3, u64::from(u32::MAX)] {
            let bad = [NodeId::new(raw); 4];
            let node = SfNode::with_view(NodeId::new(0), config(), &bad).unwrap();
            let message = panic_message(move || Arena::from_nodes(vec![node]));
            assert!(
                message.contains("exceeds the u32 arena id space"),
                "from_nodes({raw}): {message}"
            );
            let views = vec![(NodeId::new(0), bad.to_vec())];
            let message = panic_message(move || Arena::from_views(config(), views));
            assert!(
                message.contains("exceeds the u32 arena id space"),
                "from_views({raw}): {message}"
            );

            let mut arena = Arena::from_nodes(nodes());
            let before = arena.clone();
            assert_eq!(
                arena.join_with(&SfBehavior, bad.into_iter()),
                Err(JoinError::IdSpaceExhausted { next: raw, limit: ARENA_ID_LIMIT }),
                "join_with({raw})"
            );
            assert_eq!(arena.slot_ids, before.slot_ids);
            assert_eq!(arena.degree, before.degree);
            assert_eq!(arena.degree_hist, before.degree_hist);
            assert_eq!(arena.dense_id, before.dense_id);
            assert_eq!(arena.index, before.index);
            assert_eq!(arena.next_id, before.next_id);
        }
    }

    #[test]
    fn from_views_fills_slots_in_order_and_rejects_wide_views() {
        let views = vec![(NodeId::new(5), ids(0..3)), (NodeId::new(2), Vec::new())];
        let arena = Arena::from_views(config(), views);
        assert_eq!(arena.dense_id, [5, 2]);
        assert_eq!(arena.next_id, 6);
        assert_eq!(arena.out_degree_of(NodeId::new(5)), Some(3));
        assert_eq!(arena.view_at::<SfBehavior>(0).ids().collect::<Vec<_>>(), ids(0..3));
        assert_eq!(arena.degree_hist.edges(), 3);
        let wide = vec![(NodeId::new(0), ids(1..14))];
        assert!(std::panic::catch_unwind(move || Arena::from_views(config(), wide)).is_err());
    }

    /// The arena's per-node footprint, column by column: `s` slot words,
    /// `s` flag bytes, and one degree, id and index word — `5·s + 12`
    /// bytes. The destructuring names every field, so a new one (a new
    /// per-node column above all) fails to compile here until it is
    /// accounted for.
    #[test]
    fn per_node_footprint_is_five_s_plus_twelve_bytes() {
        let arena = Arena::from_nodes(topology::circulant(1_000, config(), 4));
        let Arena {
            config: _,
            s,
            slot_ids,
            slot_flags,
            degree,
            degree_hist: _,
            dense_id,
            index,
            id_is_dense: _,
            next_id: _,
        } = &arena;
        let columns = [
            ("slot_ids", std::mem::size_of_val(slot_ids.as_slice())),
            ("slot_flags", std::mem::size_of_val(slot_flags.as_slice())),
            ("degree", std::mem::size_of_val(degree.as_slice())),
            ("dense_id", std::mem::size_of_val(dense_id.as_slice())),
            ("index", std::mem::size_of_val(index.as_slice())),
        ];
        let bytes: usize = columns.iter().map(|&(_, bytes)| bytes).sum();
        assert_eq!(bytes, 1_000 * (5 * s + 12), "per-node columns: {columns:?}");
        assert_eq!(5 * s + 12, 72, "s = 12");
    }

    /// The one deliberate difference between the two schedulers' use of
    /// the arena: the live *order*. Flat's is insertion order with
    /// `swap_remove` on leave (the reference list below) because the
    /// initiator draw indexes into it; par's is ascending dense order
    /// because its shards walk the arena. Unifying them would silently
    /// break either the byte-identity or the thread-invariance goldens.
    #[test]
    fn live_order_is_the_schedulers_not_the_arenas() {
        let mut flat = FlatSimulation::new(nodes(), UniformLoss::none(), 7);
        let mut par = ParSimulation::new(nodes(), UniformLoss::none(), 7, 2);
        let mut model = flat.live_ids();
        // Every reader that walks flat's live order, before and after the
        // first leave materializes it, against the reference list and a
        // from-scratch walk of the views in that order.
        let assert_reads_in_order = |flat: &FlatSimulation<UniformLoss>, model: &[NodeId]| {
            assert_eq!(flat.live_ids(), model, "flat keeps insertion order, swap_remove");
            let mut rows = Vec::new();
            flat.for_each_live_row(&mut |id, words| rows.push((id, words.to_vec())));
            let expected: Vec<(u32, Vec<u32>)> = model
                .iter()
                .map(|&id| {
                    let view = flat.node_view(id).expect("live");
                    (slot_word(id), view.ids().map(slot_word).collect())
                })
                .collect();
            assert_eq!(rows, expected, "for_each_live_row order");
            assert_eq!(flat.graph().ids(), model, "graph node order");
            for id in ids(0..28) {
                let scan: usize = model
                    .iter()
                    .map(|&owner| flat.node_view(owner).unwrap().multiplicity(id))
                    .sum();
                assert_eq!(flat.count_id_instances(id), scan, "{id}");
            }
        };
        assert_reads_in_order(&flat, &model);
        flat.round_permuted();
        assert_reads_in_order(&flat, &model);
        // join, leave 3, join, leave 10, leave the first joiner, join,
        // leave 0, join.
        let script: [Option<u64>; 8] =
            [None, Some(3), None, Some(10), Some(24), None, Some(0), None];
        for op in script {
            match op {
                Some(victim) => {
                    let victim = NodeId::new(victim);
                    let pos = model.iter().position(|&id| id == victim).unwrap();
                    model.swap_remove(pos);
                    assert!(flat.leave(victim).is_some());
                    assert!(par.leave(victim).is_some());
                }
                None => {
                    let sponsor = NodeId::new(1);
                    let joined = flat.join_via(sponsor).unwrap();
                    assert_eq!(par.join_via(sponsor), Ok(joined));
                    model.push(joined);
                }
            }
            assert_reads_in_order(&flat, &model);
        }
        flat.round_permuted();
        assert_reads_in_order(&flat, &model);
        let mut ascending = flat.live_ids();
        ascending.sort_unstable();
        assert_eq!(par.live_ids(), ascending, "par walks the arena in dense order");
        assert_ne!(flat.live_ids(), ascending, "the script must separate the two orders");
        assert_eq!((flat.len(), par.len()), (24, 24));
    }

    /// `dense_of` against a reference scan over `dense_id` for live,
    /// departed, never-assigned and beyond-the-limit ids, on both sides of
    /// the `id_is_dense` bit.
    #[test]
    fn dense_of_agrees_with_a_scan_on_both_sides_of_the_identity_bit() {
        fn check(arena: &Arena, departed: &[u64], id_is_dense: bool) {
            assert_eq!(arena.id_is_dense, id_is_dense, "the bit");
            let beyond = [u64::from(u32::MAX), ARENA_ID_LIMIT, (1 << 32) + 3, u64::MAX];
            for raw in (0..arena.next_id + 3).chain(beyond) {
                let scan = arena.dense_id.iter().position(|&word| u64::from(word) == raw);
                let expected = scan.filter(|_| !departed.contains(&raw));
                assert_eq!(arena.dense_of(NodeId::new(raw)), expected, "dense_of({raw})");
            }
        }
        let join = |arena: &mut Arena| arena.join_with(&SfBehavior, ids(0..4).into_iter()).unwrap();
        let leave = |arena: &mut Arena, raw| arena.leave::<SfBehavior>(NodeId::new(raw)).unwrap();

        let mut arena = Arena::from_nodes(nodes());
        check(&arena, &[], true);
        join(&mut arena);
        join(&mut arena);
        check(&arena, &[], true);
        leave(&mut arena, 3);
        leave(&mut arena, 25);
        check(&arena, &[3, 25], true);
        join(&mut arena);
        check(&arena, &[3, 25], true);

        let views = [5, 2, 0, 1, 3].map(|raw| (NodeId::new(raw), ids(0..2)));
        let mut arena = Arena::from_views(config(), views);
        check(&arena, &[], false);
        leave(&mut arena, 2);
        check(&arena, &[2], false);
        join(&mut arena);
        check(&arena, &[2], false);
    }
}
