//! The exact one-step law of every behavior, enumerated from the
//! behavior's own code, and the engine held to it.
//!
//! **Enumeration.** A node's step is its behavior's `initiate` or
//! `receive` run over a [`SlotView`] window, drawing from a scripted
//! [`RngCore`]. `vendor/rand`'s `gen_range` is Lemire's multiply-shift,
//! monotone in the drawn word, so one word per *cell* of the order-`s`
//! Farey partition of `[0, 2⁶⁴)` (the fractions `a/b`, `b ≤ s`) yields
//! the same outcome for every span `≤ s`, and the cell's width is that
//! outcome's exact weight: a depth-first walk over the cells of every draw
//! a step makes enumerates all of its outcomes with their probabilities.
//! Every draw of every behavior below is over a span `≤ s`
//! (`the_cells_weigh_every_outcome_exactly` checks the partition).
//!
//! **The channel is the oracle's own.** The initiator (uniform over the
//! nodes), the loss branch (probability `ℓ` per hop), dead letters and
//! reply routing (two hops per action at most: the request and its reply,
//! which must carry no reply of its own) are enumerated here, not drawn;
//! only the behaviors' draws go through the script. States are lumped to
//! each node's sorted multiset of `(id, tombstone)` entries, as
//! `ExactGlobalMc` lumps S&F's: every behavior picks slots, entries and
//! victims uniformly, so its law depends on a view's contents, never on
//! slot positions.
//!
//! **Three checks.** (1) The chains enumerated from [`SfBehavior`] and from
//! `core::SfNode` equal `ExactGlobalMc::build` entry for entry — two
//! independent derivations of one matrix. (2) For each of the seven
//! behaviors, seeded [`FlatSimulation`] runs at `n = 3` take only edges of
//! the behavior's law, with per-row frequencies passing a pooled χ² at
//! `p = 10⁻⁶`. (3) The zoo's semantics themselves stay pinned by the
//! `SlotView` step tables beside each behavior.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use rand::{Rng, RngCore};
use sandf::baselines::{PushOnlyBehavior, PushPullBehavior, ShuffleBehavior};
use sandf::core::{Entry, InitiateOutcome};
use sandf::markov::ExactGlobalMc;
use sandf::sim::{EMPTY_SLOT, FLAG_TOMBSTONE};
use sandf::variants::{BatchedBehavior, ReplaceBehavior, UndeleteBehavior};
use sandf::{
    Engine, FlatSimulation, LocalView, MembershipGraph, Message, NodeId, ProtocolBehavior, Receipt,
    SfBehavior, SfConfig, SfNode, SlotView, UniformLoss,
};

/// One node's view, lumped: its non-empty slots as sorted
/// `(id word, tombstoned)` pairs.
type View = Vec<(u32, bool)>;

/// A global state: node `u`'s lumped view at index `u`.
type State = Vec<View>;

/// A chain row: successor states with their probabilities.
type Row = Vec<(State, f64)>;

/// What a node's step leaves: its view, and the message it sends, if any,
/// as `(receiver, message)`; with the step's probability.
type Steps<M> = Vec<((View, Option<(u64, M)>), f64)>;

/// Node-local enumerations, by node and view, then by what the node does:
/// initiate (`None`) or receive a message.
type Memo<M> = HashMap<(usize, View), Vec<(Option<M>, Steps<M>)>>;

/// The order-`order` Farey cells of `[0, 2⁶⁴)`: each cell's midpoint word
/// and exact width. Neighbours `a/b < c/d` have width `1/(bd)`.
fn farey_cells(order: u64) -> Vec<(u64, f64)> {
    let (mut a, mut b, mut c, mut d) = (0u64, 1u64, 1u64, order);
    let mut cells = Vec::new();
    loop {
        let mid = (u128::from(a * d + c * b) << 63) / u128::from(b * d);
        cells.push((u64::try_from(mid).expect("below 2^64"), 1.0 / (b * d) as f64));
        if (c, d) == (1, 1) {
            return cells;
        }
        let k = (order + b) / d;
        (a, b, c, d) = (c, d, k * c - a, k * d - b);
    }
}

/// A scripted word source: the script, then the first cell's word.
struct Script<'a> {
    words: &'a [u64],
    drawn: usize,
    filler: u64,
}

impl RngCore for Script<'_> {
    fn next_u64(&mut self) -> u64 {
        self.drawn += 1;
        self.words.get(self.drawn - 1).copied().unwrap_or(self.filler)
    }
}

/// Adds `weight` to `outcome`'s entry.
fn add<T: PartialEq>(out: &mut Vec<(T, f64)>, outcome: T, weight: f64) {
    match out.iter_mut().find(|(seen, _)| *seen == outcome) {
        Some(entry) => entry.1 += weight,
        None => out.push((outcome, weight)),
    }
}

/// Every outcome of `step` over every scripted draw sequence, with its
/// exact probability: a script that runs out is extended by each cell.
fn enumerate<T: PartialEq>(
    cells: &[(u64, f64)],
    mut step: impl FnMut(&mut Script<'_>) -> T,
) -> Vec<(T, f64)> {
    let (mut out, mut pending) = (Vec::new(), vec![(Vec::new(), 1.0)]);
    while let Some((words, weight)) = pending.pop() {
        let mut rng = Script { words: &words, drawn: 0, filler: cells[0].0 };
        let outcome = step(&mut rng);
        if rng.drawn <= words.len() {
            add(&mut out, outcome, weight);
            continue;
        }
        for &(word, width) in cells {
            pending.push(([words.as_slice(), &[word]].concat(), weight * width));
        }
    }
    out
}

fn lump(entries: impl Iterator<Item = (u32, bool)>) -> View {
    let mut view: View = entries.collect();
    view.sort_unstable();
    view
}

/// A window's non-empty slots, read through the view's accessors.
fn lump_window(ids: &mut [u32]) -> View {
    let view = SlotView { id: NodeId::new(0), ids, degree: &mut 0 };
    let entry =
        |k| view.id_at(k).map(|id| (id.as_u64() as u32, view.flags_at(k) & FLAG_TOMBSTONE != 0));
    lump((0..view.len()).filter_map(entry))
}

/// Bare id words (a start view, or a row the engine hands out), lumped.
fn lump_words(words: &[u32]) -> View {
    lump(words.iter().map(|&word| (word, false)))
}

fn state(views: &[&[u32]]) -> State {
    views.iter().copied().map(lump_words).collect()
}

fn ids(view: &[u32]) -> Vec<NodeId> {
    view.iter().map(|&id| NodeId::new(id.into())).collect()
}

/// `core::SfNode` as a behavior: the window is rebuilt as a node, the
/// node steps, and its view is written back.
#[derive(Clone)]
struct Node;

impl Node {
    fn step<T>(config: SfConfig, mut view: SlotView<'_>, act: impl FnOnce(&mut SfNode) -> T) -> T {
        let slots = (0..view.len()).map(|k| view.id_at(k).map(Entry::independent)).collect();
        let mut node = SfNode::from_view(view.id, config, LocalView::from_slots(slots));
        let out = act(&mut node);
        for (off, slot) in node.view().slots().enumerate() {
            match slot {
                Some(entry) => view.set(off, entry.id, 0),
                None => view.clear(off),
            }
        }
        *view.degree = node.out_degree() as u32;
        out
    }
}

impl ProtocolBehavior for Node {
    type Msg = Message;
    fn sender(msg: &Message) -> NodeId {
        msg.sender
    }
    fn initiate<R: Rng>(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        rng: &mut R,
    ) -> Option<(NodeId, Message)> {
        Node::step(config, view, |node| match node.initiate(rng) {
            InitiateOutcome::Sent { to, message, .. } => Some((to, message)),
            InitiateOutcome::SelfLoop => None,
        })
    }
    fn receive<R: Rng>(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        msg: Message,
        rng: &mut R,
    ) -> Receipt<Message> {
        Node::step(config, view, |node| Receipt {
            deleted: node.receive(msg, rng).is_deleted(),
            reply: None,
        })
    }
}

/// The global one-step law of a behavior on `s`-slot windows under the
/// oracle's channel, with the node-local enumerations memoized. The
/// behaviors size themselves from the window and read only `d_L` from the
/// config, so `s` may be narrower than `config`'s.
struct Law<B: ProtocolBehavior> {
    behavior: B,
    config: SfConfig,
    s: usize,
    loss: f64,
    cells: Vec<(u64, f64)>,
    memo: Memo<B::Msg>,
}

impl<B: ProtocolBehavior> Law<B> {
    fn new(behavior: B, config: SfConfig, s: usize, loss: f64) -> Self {
        Self { behavior, config, s, loss, cells: farey_cells(s as u64), memo: HashMap::new() }
    }

    /// Runs `act` on node `u`'s window rebuilt from `view`.
    fn window<T>(&self, u: usize, view: &View, act: impl FnOnce(SlotView<'_>) -> T) -> (View, T) {
        let mut ids = vec![EMPTY_SLOT; self.s];
        let mut degree = view.iter().filter(|e| !e.1).count() as u32;
        let mut window = SlotView { id: NodeId::new(u as u64), ids: &mut ids, degree: &mut degree };
        for (off, &(word, tombstoned)) in view.iter().enumerate() {
            window.set(off, NodeId::new(word.into()), u8::from(tombstoned) * FLAG_TOMBSTONE);
        }
        let out = act(window);
        (lump_window(&mut ids), out)
    }

    /// Node `u`'s steps from `view`: its initiation (`msg` = `None`) or
    /// its receipt of `msg`, enumerated once.
    fn steps(&mut self, u: usize, view: &View, msg: Option<B::Msg>) -> Steps<B::Msg> {
        let known = self.memo.get(&(u, view.clone())).into_iter().flatten();
        if let Some((_, steps)) = known.into_iter().find(|(m, _)| *m == msg) {
            return steps.clone();
        }
        let steps = enumerate(&self.cells, |rng| {
            let (view, sent) = self.window(u, view, |w| match msg {
                None => self.behavior.initiate(self.config, w, rng),
                Some(msg) => self.behavior.receive(self.config, w, msg, rng).reply,
            });
            (view, sent.map(|(to, msg)| (to.as_u64(), msg)))
        });
        self.memo.entry((u, view.clone())).or_default().push((msg, steps.clone()));
        steps
    }

    fn row(&mut self, x: &State) -> Row {
        let mut out = Vec::new();
        for u in 0..x.len() {
            for ((view, sent), p) in self.steps(u, &x[u], None) {
                let mut y = x.clone();
                y[u] = view;
                self.route(y, sent, 2, p / x.len() as f64, &mut out);
            }
        }
        out
    }

    /// Routes a message, with `hops` sends left in the action (2: the
    /// request, then its reply): lost with probability `ℓ`, a dead letter
    /// to anything but a node, otherwise received — and the reply routed
    /// the same way. A reply that carries a reply fails the enumeration.
    fn route(&mut self, x: State, sent: Option<(u64, B::Msg)>, hops: usize, w: f64, out: &mut Row) {
        let Some((to, msg)) = sent else { return add(out, x, w) };
        assert!(hops > 0, "a reply carried a reply");
        if self.loss > 0.0 {
            add(out, x.clone(), w * self.loss);
        }
        let w = w * (1.0 - self.loss);
        let Some(to) = usize::try_from(to).ok().filter(|&to| to < x.len()) else {
            return add(out, x, w);
        };
        for ((view, reply), p) in self.steps(to, &x[to], Some(msg)) {
            let mut y = x.clone();
            y[to] = view;
            self.route(y, reply, hops - 1, w * p, out);
        }
    }
}

#[test]
fn the_cells_weigh_every_outcome_exactly() {
    let cells = farey_cells(6);
    assert_eq!(cells.len(), 12, "|F_6| − 1");
    for span in 1..=6u64 {
        let law = enumerate(&cells, |rng| rng.gen_range(0..span));
        assert_eq!(law.len() as u64, span);
        for (outcome, p) in law {
            assert!((p - 1.0 / span as f64).abs() < 1e-15, "span {span}: {outcome} has {p}");
        }
    }
}

// ---------------------------------------------------------------------
// (1) Two derivations of one matrix.
// ---------------------------------------------------------------------

fn connected(x: &State) -> bool {
    let words = |v: &View| v.iter().map(|e| NodeId::new(e.0.into())).collect();
    let views = x.iter().enumerate().map(|(u, v)| (NodeId::new(u as u64), words(v)));
    MembershipGraph::from_views(views).is_weakly_connected()
}

/// The chain reachable from `start`, with moves into partitioned states
/// folded into the self-loop (§7.1, as `ExactGlobalMc` does), held to
/// `ExactGlobalMc::build` entry for entry.
fn assert_matches_exact_global_mc<B: ProtocolBehavior>(label: &str, mut law: Law<B>, start: State) {
    let (mut states, mut rows) = (vec![start.clone()], Vec::new());
    let mut index = HashMap::from([(start.clone(), 0)]);
    while rows.len() < states.len() {
        let x = states[rows.len()].clone();
        let mut row = BTreeMap::new();
        for (y, p) in law.row(&x) {
            let y = if connected(&y) { y } else { x.clone() };
            let j = *index.entry(y.clone()).or_insert_with(|| (states.push(y), states.len() - 1).1);
            *row.entry(j).or_insert(0.0) += p;
        }
        rows.push(row);
    }
    let d_l = law.config.lower_threshold();
    let global = |x: &State| x.iter().map(|v| v.iter().map(|e| e.0 as u8).collect()).collect();
    let mc = ExactGlobalMc::build(global(&start), law.s, d_l, law.loss, 1 << 16).expect("built");
    assert_eq!(mc.state_count(), states.len(), "{label}: state count");
    let ours: HashMap<Vec<Vec<u8>>, usize> =
        states.iter().enumerate().map(|(i, x)| (global(x), i)).collect();
    for (i, x) in mc.states().iter().enumerate() {
        let mut expected = BTreeMap::new();
        for &(k, p) in mc.chain().row(i) {
            *expected.entry(ours[&mc.states()[k]]).or_insert(0.0) += p;
        }
        let row = &rows[ours[x]];
        assert!(row.keys().eq(expected.keys()), "{label}: edges of {x:?}");
        for (j, p) in row {
            assert!((p - expected[j]).abs() < 1e-12, "{label}: {x:?} -> {:?}: {p}", states[*j]);
        }
    }
}

/// The triangle at `ExactGlobalMc`'s own two parameter sets, and, since
/// `SfConfig` admits no `d_L > 0` below `s = 8` (and three nodes at
/// `s = 8` reach 5·10⁵ states), a node pair in the duplication regime.
/// `SfBehavior` also runs the `s = 4` window under an `s = 8` config;
/// `SfNode` sizes itself from its config, so it skips that set.
#[test]
fn sf_behavior_and_sf_node_both_derive_the_exact_global_chain() {
    let triangle: &[&[u32]] = &[&[1, 2], &[0, 2], &[0, 1]];
    let pair: &[&[u32]] = &[&[1, 1], &[0, 0]];
    for (start, s, d_l, loss) in [(triangle, 6, 0, 0.0), (triangle, 4, 2, 0.1), (pair, 8, 2, 0.1)] {
        let config = SfConfig::new(s.max(6 + d_l), d_l).expect("legal config");
        let label = format!("n={} s={s} d_L={d_l} ℓ={loss}", start.len());
        let law = Law::new(SfBehavior, config, s, loss);
        assert_matches_exact_global_mc(&format!("SfBehavior {label}"), law, state(start));
        if config.view_size() == s {
            let law = Law::new(Node, config, s, loss);
            assert_matches_exact_global_mc(&format!("SfNode {label}"), law, state(start));
        }
    }
}

// ---------------------------------------------------------------------
// (2) The engine against the law.
// ---------------------------------------------------------------------

/// A behavior whose every call checks the window the engine hands it
/// against the state the previous calls left, then records the state it
/// leaves: the engine's arena, seen through the only code that writes it.
#[derive(Clone)]
struct Watched<B> {
    behavior: B,
    state: Arc<Mutex<State>>,
}

impl<B: ProtocolBehavior> Watched<B> {
    fn watch<T>(&self, view: SlotView<'_>, act: impl FnOnce(SlotView<'_>) -> T) -> T {
        let SlotView { id, ids, degree } = view;
        let node = id.as_u64() as usize;
        assert_eq!(lump_window(ids), self.state.lock().unwrap()[node], "{id}'s window moved");
        let out = act(SlotView { id, ids: &mut *ids, degree: &mut *degree });
        let after = lump_window(ids);
        assert_eq!(*degree as usize, after.iter().filter(|e| !e.1).count(), "{id}'s degree");
        self.state.lock().unwrap()[node] = after;
        out
    }
}

impl<B: ProtocolBehavior> ProtocolBehavior for Watched<B> {
    type Msg = B::Msg;
    fn sender(msg: &B::Msg) -> NodeId {
        B::sender(msg)
    }
    fn initiate<R: Rng>(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        rng: &mut R,
    ) -> Option<(NodeId, B::Msg)> {
        self.watch(view, |w| self.behavior.initiate(config, w, rng))
    }
    fn receive<R: Rng>(
        &self,
        config: SfConfig,
        view: SlotView<'_>,
        msg: B::Msg,
        rng: &mut R,
    ) -> Receipt<B::Msg> {
        self.watch(view, |w| self.behavior.receive(config, w, msg, rng))
    }
    fn slot_visible(flags: u8) -> bool {
        B::slot_visible(flags)
    }
}

/// Wilson–Hilferty: the χ² quantile with `df` degrees of freedom whose
/// upper tail is 10⁻⁶ (z = 4.753).
fn chi_square_bound(df: usize) -> f64 {
    let k = df as f64;
    k * (1.0 - 2.0 / (9.0 * k) + 4.753 * (2.0 / (9.0 * k)).sqrt()).powi(3)
}

/// Pearson's χ² of one row's counts against its law, cells expected
/// below 5 pooled into one bin (which joins the smallest other bin if
/// still below 5): `(statistic, degrees of freedom)`.
fn row_chi_square(law: &Row, counts: &[u64]) -> (f64, usize) {
    let total: u64 = counts.iter().sum();
    let (mut bins, mut pooled) = (Vec::new(), (0.0, 0.0));
    for ((_, p), &seen) in law.iter().zip(counts) {
        let bin = (p * total as f64, seen as f64);
        if bin.0 >= 5.0 {
            bins.push(bin);
        } else {
            pooled = (pooled.0 + bin.0, pooled.1 + bin.1);
        }
    }
    if pooled.0 >= 5.0 {
        bins.push(pooled);
    } else if let Some(smallest) = bins.iter_mut().min_by(|a, b| a.0.total_cmp(&b.0)) {
        *smallest = (smallest.0 + pooled.0, smallest.1 + pooled.1);
    }
    let statistic = bins.iter().map(|(e, o)| (o - e).powi(2) / e).sum();
    (statistic, bins.len().saturating_sub(1))
}

/// `runs` seeded flat runs of `steps` steps from `start` at `ℓ = 0.1`:
/// every step must be an edge of the behavior's law, every engine row
/// reader must show the watched state, and the pooled χ² of the per-row
/// transition counts must stay below its 10⁻⁶ quantile.
fn assert_engine_follows_the_law<B: ProtocolBehavior>(
    label: &str,
    behavior: B,
    config: SfConfig,
    start: &[&[u32]],
    (runs, steps): (u64, usize),
) {
    let loss = UniformLoss::new(0.1).expect("legal rate");
    let mut law = Law::new(behavior.clone(), config, config.view_size(), 0.1);
    let mut rows: HashMap<State, (Row, Vec<u64>)> = HashMap::new();
    for seed in 0..runs {
        let watched =
            Watched { behavior: behavior.clone(), state: Arc::new(Mutex::new(state(start))) };
        let views =
            start.iter().enumerate().map(|(u, v)| (NodeId::new(u as u64), ids(v))).collect();
        let mut sim = FlatSimulation::from_views(watched.clone(), config, views, loss, seed);
        let (mut x, mut entered) = (state(start), true);
        for _ in 0..steps {
            sim.step();
            let y = watched.state.lock().unwrap().clone();
            sim.for_each_live_row(|_| true, &mut |owner, words| {
                let visible: View = y[owner as usize].iter().filter(|e| !e.1).copied().collect();
                assert_eq!(lump_words(words), visible, "{label}: row of {owner}");
            });
            let (row, counts) = rows.entry(x.clone()).or_insert_with(|| (law.row(&x), Vec::new()));
            counts.resize(row.len(), 0);
            let edge = row.iter().position(|(z, _)| *z == y);
            let edge = edge.unwrap_or_else(|| panic!("{label}: {x:?} -> {y:?} is no edge"));
            // Only a sojourn's first step is counted: the steps after it
            // are as many as its self-loops, so counting them would tie
            // a row's sample size to the outcomes it samples.
            if entered {
                counts[edge] += 1;
            }
            (entered, x) = (y != x, y);
        }
    }
    let scores = rows.values().map(|(row, counts)| row_chi_square(row, counts));
    let (statistic, df) = scores.fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    assert!(df > 0 && statistic < chi_square_bound(df), "{label}: χ² {statistic:.1} on {df} df");
}

/// Three nodes at `s = 6`, `d_L = 0`, `ℓ = 0.1`. The S&F family starts
/// from doubled triangle views, so receivers fill and the variants'
/// full-view rules fire; its lossy chains drain, so they run as many
/// short seeded runs. The baselines start from the triangle: push-only and
/// push-pull settle into a recurrent class of full views and run long;
/// shuffle drains like the S&F family, and runs more of them: its lost
/// replies are the channel's reply-hop loss made visible. Shuffle swaps
/// one id per exchange, because each further id is one more draw per
/// receive, and a draw costs the enumeration a factor of 12 at `s = 6`.
#[test]
fn every_behavior_runs_its_exact_law_on_the_flat_engine() {
    let triangle: &[&[u32]] = &[&[1, 2], &[0, 2], &[0, 1]];
    let doubled: &[&[u32]] = &[&[1, 2, 1, 2], &[0, 2, 0, 2], &[0, 1, 0, 1]];
    let config = SfConfig::new(6, 0).expect("legal config");
    let (short, long, shuffle) = ((400, 100), (4, 10_000), (1000, 100));
    assert_engine_follows_the_law("S&F", SfBehavior, config, doubled, short);
    assert_engine_follows_the_law("replace", ReplaceBehavior, config, doubled, short);
    assert_engine_follows_the_law("undelete", UndeleteBehavior, config, doubled, short);
    assert_engine_follows_the_law("batched", BatchedBehavior::new(1), config, doubled, short);
    assert_engine_follows_the_law("push-only", PushOnlyBehavior, config, triangle, long);
    assert_engine_follows_the_law("push-pull", PushPullBehavior::new(2), config, triangle, long);
    assert_engine_follows_the_law("shuffle", ShuffleBehavior::new(1), config, triangle, shuffle);
}
