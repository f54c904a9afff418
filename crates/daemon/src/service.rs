//! The daemon's event loop: thousands of S&F nodes multiplexed on one
//! thread over one real UDP socket.
//!
//! # Design
//!
//! The fleet is one [`Arena`], the simulators' struct-of-arrays storage,
//! stepped by [`SfBehavior`], the simulators' S&F step: node ids are
//! issued densely from 0 and never reused, so a node's id is its dense
//! index, its row, and its timer's key. Beside the arena the loop keeps
//! one column of its own, indexed the same way: each node's two random
//! streams, its inbox and its [`NodeStats`], counted from each step's
//! outcome as [`SfNode`] counts its own. A node that leaves keeps its row
//! (its inbox is freed), so its id is never reissued.
//!
//! The daemon binds a single non-blocking loopback socket
//! ([`SharedSocket`]); every message on it travels as a 25-byte frame, the
//! destination node's id followed by the 17-byte message, and every
//! datagram packs 1 to [`MAX_FRAMES`] frames. The loop sends for every node
//! through one function, `ServiceState::send`: the message meets the
//! daemon's one fault schedule ([`fault`](crate::fault)) in one draw from
//! the sender's loss stream — the standing `uniform base_loss` phase, the
//! Section 4.1 channel, or a runtime-injected model in its place — then
//! the arena says whether the destination is live, and only a message for
//! a live node is packed into the loop's one outbox [`Datagram`]. The loss
//! draw stays per message, so packing changes the number of datagrams the
//! kernel handles, not the channel. The loop, not the node, receives:
//! before every [`DRAIN_CHUNK`] node ticks it flushes the outbox onto the
//! wire (a full one goes early) and then drains the socket into the live
//! rows' inboxes, so a frame reaches the same drain, in the same order, as
//! if it had gone out alone at its send. A node whose action timer fires
//! takes its inbox and then initiates, so its receive step and initiate
//! step happen back-to-back at a quiescent point. A message or frame for
//! an id with no live node is a dead letter.
//!
//! Each node draws from two streams of its own — protocol steps and loss —
//! and the loop from one control stream (join sponsors and delays, leave
//! victims). Each is seeded by [`stream_seed`] under its own tag of the
//! [`sandf_sim::stream`] table: `n` and `l` at `(id, 0)`, `k` at `(0, 0)`.
//! No two coincide, id 0 included.
//!
//! The wire is accounted across the kernel: `daemon.net.received` counts
//! frames put into a live inbox, `daemon.net.datagrams` the datagrams
//! handed to the kernel, and once the loop has stopped and drained the
//! socket a last time,
//! `delivered = received + dead_letters + daemon.fault.dropped` holds
//! exactly — a datagram the kernel dropped would show as a deficit on the
//! right ([`WireLedger`]). A drop under the standing phase counts
//! `daemon.net.dropped` and is never delivered; a drop in an injected
//! window counts as delivered, then as `daemon.fault.dropped`, so the last
//! term is zero unless a fault was injected.
//!
//! Timers live on a single-rotation [`TimerWheel`] whose rotation period is
//! one protocol round: `W` ticks per rotation, boot node `k` parked at tick
//! `k mod W` (a joiner at a random tick), refired one rotation after its
//! own tick while its row is live; a departed node's timer is dropped the
//! next time it fires. The loop fires the ticks an iteration covers one at
//! a time, so a node keeps its tick however many ticks the iteration
//! advances, and one tick's work stays small. The wheel is driven from wall
//! clock but never advanced more than one rotation per loop iteration, so a
//! stalled process slows rounds down rather than skipping actions — the
//! round counter stays consistent with "every node acted once per round",
//! which the Lemma 6.10 decay accounting relies on.
//!
//! Control (join / leave / fault) arrives on an mpsc channel, serviced
//! between ticks; each command carries a reply sender so the HTTP layer can
//! report *applied* rather than *enqueued*.
//!
//! [`MAX_FRAMES`]: sandf_net::codec::MAX_FRAMES

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sandf_core::{Message, NodeId, NodeStats, SfConfig, SfNode};
use sandf_net::codec::Datagram;
use sandf_net::SharedSocket;
use sandf_obs::{CounterHandle, EventJournal, GaugeHandle, JournalEvent, MetricsRegistry};
use sandf_sim::stream::{self, stream_seed};
use sandf_sim::{
    graph_of_rows, topology, Arena, FaultCtx, FaultModel, PhaseFault, ScheduledFault, SfBehavior,
    UniformLoss, ARENA_ID_LIMIT,
};

use crate::fault::{compile_fault_line, injected};
use crate::http::{escape_json, serve, HttpContext};
use crate::invariants::{CheckOutcome, InvariantChecker, WireTotals};
use crate::wheel::{TimerWheel, WheelItem};

/// Ticks per wheel rotation (= per protocol round). Nodes are spread
/// across the rotation so one tick's work stays small: a fired node is
/// re-parked one rotation after its own tick, however many ticks the loop
/// iteration that fired it advances.
pub const WHEEL_SLOTS: usize = 64;

/// Node ticks between two drains of the socket. A node tick sends at most
/// one frame and the outbox is flushed before every drain, so at most this
/// many of the daemon's own frames ever wait in the kernel, whatever the
/// send rate — packed into at most two datagrams, since [`MAX_FRAMES`]
/// (58) < 64 ≤ 2 × 58. The receive buffer charges a datagram its `sk_buff`
/// plus data area, 2 304 B for a full one on loopback, and Linux's default
/// buffer is 212 992 B: two of them hold ≈ 2 % of it and leave the rest to
/// senders outside the process. Draining once per loop iteration instead
/// would leave a whole rotation's frames in the kernel, a backlog that
/// grows with the fleet until the kernel drops silently.
///
/// [`MAX_FRAMES`]: sandf_net::codec::MAX_FRAMES
pub const DRAIN_CHUNK: usize = 64;

/// Max frames taken off the socket in one drain: the fleet's own frames
/// number at most [`DRAIN_CHUNK`], so this only bounds the time a flood
/// from outside the process can hold the loop.
const RECV_BATCH_MAX: usize = 4096;

/// How long shutdown waits for frames the ledger says are still in the
/// kernel (a loopback send usually lands before it returns; one that
/// errored never does).
const SHUTDOWN_DRAIN: Duration = Duration::from_millis(20);

/// Events the daemon's bounded journal holds before it evicts the oldest.
const JOURNAL_CAPACITY: usize = 1024;

/// Configuration for a daemon process.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Nodes bootstrapped at start (circulant topology).
    pub initial_nodes: usize,
    /// View size `s` (even, ≥ 6).
    pub view_size: usize,
    /// Duplication threshold `d_L` (even, ≤ s − 6).
    pub lower_threshold: usize,
    /// Bootstrap outdegree `d0` for the circulant (even, ≤ s).
    pub initial_degree: usize,
    /// Wall-clock duration of one protocol round.
    pub tick: Duration,
    /// Base message-loss probability: the standing phase of the daemon's
    /// one fault schedule, drawn i.i.d. per send whenever no injected fault
    /// governs (an injected `/ctl/fault` line replaces it for its window).
    pub base_loss: f64,
    /// Master seed; every RNG of the daemon derives from it through
    /// [`sandf_sim::stream`].
    pub seed: u64,
    /// Rounds between invariant checks.
    pub check_every: u64,
    /// HTTP port (`Some(0)` = ephemeral, `None` = no endpoint).
    pub http_port: Option<u16>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            initial_nodes: 64,
            view_size: 12,
            lower_threshold: 4,
            initial_degree: 6,
            tick: Duration::from_millis(20),
            base_loss: 0.05,
            seed: 42,
            check_every: 5,
            http_port: Some(0),
        }
    }
}

impl DaemonConfig {
    /// Boots the service: binds the socket, bootstraps the fleet, starts
    /// the event-loop thread (and the HTTP thread when a port is configured).
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] on invalid protocol parameters, a socket bind
    /// failure, or HTTP listener failures.
    pub fn spawn(self) -> io::Result<DaemonHandle> {
        spawn_daemon(self)
    }
}

/// A control command for the event loop. Replies report the command as
/// *applied* (or rejected), not merely enqueued.
pub enum Control {
    /// Join `count` fresh nodes via the Section 5 joining rule; replies
    /// with the live node count afterwards.
    Join {
        /// Nodes to add.
        count: usize,
        /// Receives the post-join live count.
        reply: Sender<Result<usize, String>>,
    },
    /// Remove `count` random live nodes (crash-stop; no goodbye message);
    /// replies with the live node count afterwards.
    Leave {
        /// Nodes to remove.
        count: usize,
        /// Receives the post-leave live count.
        reply: Sender<Result<usize, String>>,
    },
    /// Parse and install a fault line; replies with the installed model's
    /// tag.
    Fault {
        /// `none`, or one `phase <rounds> <model> <args...>` line of the
        /// [fault grammar](sandf_sim::fault).
        line: String,
        /// Receives the installed fault kind.
        reply: Sender<Result<String, String>>,
    },
    /// Stop the event loop.
    Shutdown,
}

/// A point-in-time public view of the daemon, refreshed at every invariant
/// check and after every control command.
#[derive(Clone, Debug, Default)]
pub struct MembershipSnapshot {
    /// Completed protocol rounds.
    pub round: u64,
    /// Live nodes.
    pub live: usize,
    /// Cumulative departed nodes.
    pub departed: u64,
    /// Mean outdegree at the last check.
    pub mean_out: f64,
    /// Minimum outdegree at the last check.
    pub min_out: usize,
    /// Maximum outdegree at the last check.
    pub max_out: usize,
    /// Stale-edge fraction at the last check.
    pub stale_fraction: f64,
    /// Lemma 6.10 ceiling at the last check.
    pub stale_ceiling: f64,
    /// Weakly connected components at the last check.
    pub components: usize,
    /// Invariant checks run so far.
    pub checks: u64,
    /// Cumulative Observation 5.1 offenders across checks.
    pub degree_violations: u64,
    /// Cumulative Lemma 6.10 ceiling breaches across checks.
    pub stale_violations: u64,
    /// Realized loss rate over the last check window.
    pub window_loss: f64,
    /// The installed fault model's tag.
    pub fault: String,
}

impl MembershipSnapshot {
    /// Renders the snapshot as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"round\":{},\"live\":{},\"departed\":{},",
                "\"mean_out\":{:.4},\"min_out\":{},\"max_out\":{},",
                "\"stale_fraction\":{:.6},\"stale_ceiling\":{:.6},",
                "\"components\":{},\"checks\":{},",
                "\"degree_violations\":{},\"stale_violations\":{},",
                "\"window_loss\":{:.6},\"fault\":\"{}\"}}"
            ),
            self.round,
            self.live,
            self.departed,
            self.mean_out,
            self.min_out,
            self.max_out,
            self.stale_fraction,
            self.stale_ceiling,
            self.components,
            self.checks,
            self.degree_violations,
            self.stale_violations,
            self.window_loss,
            escape_json(&self.fault),
        )
    }
}

/// The daemon's wire accounting across the kernel, read from its registry.
///
/// Every message not lost under the standing base-loss phase is dropped by
/// an injected fault, found to be a dead letter (at the send, when the peer
/// is not live, or coming off the wire, when the peer left meanwhile),
/// or put into a live node's inbox. After
/// [`DaemonHandle::shutdown`] nothing is [in flight](Self::in_flight): a
/// remainder is datagrams the kernel dropped or sends that failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireLedger {
    /// `daemon.net.delivered`: messages not lost under the standing
    /// base-loss phase (`daemon.net.sent − daemon.net.dropped`).
    pub delivered: u64,
    /// `daemon.fault.dropped`: of those, dropped in an injected window.
    pub fault_dropped: u64,
    /// `daemon.net.dead_letters`: frames for a peer that had left.
    pub dead_letters: u64,
    /// `daemon.net.received`: frames put into a live node's inbox.
    pub received: u64,
}

impl WireLedger {
    /// Reads the four counters (zero for a registry that lacks one).
    #[must_use]
    pub fn read(registry: &MetricsRegistry) -> Self {
        let counter = |name| registry.counter_value(name).unwrap_or(0);
        Self {
            delivered: counter("daemon.net.delivered"),
            fault_dropped: counter("daemon.fault.dropped"),
            dead_letters: counter("daemon.net.dead_letters"),
            received: counter("daemon.net.received"),
        }
    }

    /// Frames handed to the wire that have not been seen coming off it.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.delivered.saturating_sub(self.received + self.dead_letters + self.fault_dropped)
    }
}

impl std::fmt::Display for WireLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "delivered {} = received {} + dead_letters {} + fault_dropped {} + in flight {}",
            self.delivered,
            self.received,
            self.dead_letters,
            self.fault_dropped,
            self.in_flight()
        )
    }
}

/// The loop's column beside the arena: one row per issued id, indexed by
/// dense index (= id).
struct Row {
    rng: StdRng,
    /// Offered to the fault schedule with each of this node's sends.
    loss_rng: StdRng,
    /// Messages drained off the socket for this node since its last tick.
    inbox: Vec<Message>,
    /// The node's event counters, counted from each step's outcome.
    stats: NodeStats,
}

impl Row {
    /// A fresh row for node `id`, its two streams seeded under their tags.
    fn new(seed: u64, id: NodeId) -> Self {
        let seeded = |tag| StdRng::seed_from_u64(stream_seed(seed, tag, id.as_u64(), 0));
        Self {
            rng: seeded(stream::DAEMON_NODE),
            loss_rng: seeded(stream::DAEMON_LOSS),
            inbox: Vec::new(),
            stats: NodeStats::default(),
        }
    }
}

/// A handle to a running daemon. Dropping it shuts the daemon down.
pub struct DaemonHandle {
    ctl: Sender<Control>,
    snapshot: Arc<Mutex<MembershipSnapshot>>,
    registry: MetricsRegistry,
    journal: EventJournal,
    http_addr: Option<SocketAddr>,
    udp_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    loop_thread: Option<JoinHandle<Vec<SfNode>>>,
    http_thread: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The HTTP endpoint's bound address, when one was configured.
    #[must_use]
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The address of the one UDP socket every node of the daemon sends and
    /// receives through.
    #[must_use]
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// The latest published [`MembershipSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> MembershipSnapshot {
        self.snapshot.lock().clone()
    }

    /// The daemon's metrics registry (shared with the event loop).
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The daemon's event journal (violations land here).
    #[must_use]
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// Joins `count` fresh nodes; returns the live count afterwards.
    ///
    /// # Errors
    ///
    /// Returns the loop's rejection message, or a transport message when
    /// the loop is gone.
    pub fn join_nodes(&self, count: usize) -> Result<usize, String> {
        self.roundtrip(|reply| Control::Join { count, reply })
    }

    /// Removes `count` random live nodes; returns the live count afterwards.
    ///
    /// # Errors
    ///
    /// See [`join_nodes`](Self::join_nodes).
    pub fn leave_nodes(&self, count: usize) -> Result<usize, String> {
        self.roundtrip(|reply| Control::Leave { count, reply })
    }

    /// Installs the fault `phase <rounds> <model> <args...>` (the
    /// [fault grammar](sandf_sim::fault)) in place of the base loss, from
    /// now through round `now + rounds` (a `partition` cut from the next
    /// round on) — it lapses by itself — or clears it (`none`); returns the
    /// installed tag.
    ///
    /// # Errors
    ///
    /// Returns the grammar's rejection message.
    pub fn fault(&self, line: &str) -> Result<String, String> {
        self.roundtrip(|reply| Control::Fault { line: line.to_string(), reply })
    }

    fn roundtrip<T>(
        &self,
        build: impl FnOnce(Sender<Result<T, String>>) -> Control,
    ) -> Result<T, String> {
        let (tx, rx) = channel();
        self.ctl.send(build(tx)).map_err(|_| "daemon loop is gone".to_string())?;
        rx.recv_timeout(Duration::from_secs(30))
            .map_err(|_| "daemon loop did not reply".to_string())?
    }

    /// Stops the event loop and the HTTP thread, waiting for both, and
    /// returns the live nodes' final protocol states.
    pub fn shutdown(mut self) -> Vec<SfNode> {
        self.stop()
    }

    /// The final states come back empty when the loop already stopped (or
    /// panicked — `Drop` runs this too and must not propagate that).
    fn stop(&mut self) -> Vec<SfNode> {
        let _ = self.ctl.send(Control::Shutdown);
        let nodes = self.loop_thread.take().and_then(|handle| handle.join().ok());
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.http_thread.take() {
            let _ = handle.join();
        }
        nodes.unwrap_or_default()
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Everything the event loop owns.
struct ServiceState {
    config: DaemonConfig,
    sf: SfConfig,
    /// The fleet's views: row `k` is node `k`'s, live or departed.
    arena: Arena,
    /// The loop's per-row column, indexed like `arena`.
    rows: Vec<Row>,
    wheel: TimerWheel,
    /// The items one wheel tick fired, kept so `tick_due` reuses one buffer.
    due: Vec<WheelItem>,
    socket: SharedSocket,
    /// Frames sent since the last flush, packed for one datagram.
    outbox: Datagram,
    /// The one fault process: its last phase is the standing `uniform
    /// base_loss`, every earlier one injected by `/ctl/fault`.
    fault: ScheduledFault,
    checker: InvariantChecker,
    registry: MetricsRegistry,
    journal: EventJournal,
    snapshot: Arc<Mutex<MembershipSnapshot>>,
    rng: StdRng,
    departed: u64,
    /// Duplicating sends (messages marked dependent), counted in `send`.
    duplications: u64,
    nodes_gauge: GaugeHandle,
    round_gauge: GaugeHandle,
    stale_gauge: GaugeHandle,
    checks_counter: CounterHandle,
    degree_viol_counter: CounterHandle,
    stale_viol_counter: CounterHandle,
    sent: CounterHandle,
    base_dropped: CounterHandle,
    delivered: CounterHandle,
    fault_dropped: CounterHandle,
    /// Messages for an id with no live node: the peer left before the send
    /// (counted there, never sent) or while the frame was in flight.
    dead_letters: CounterHandle,
    recv_errors: CounterHandle,
    received: CounterHandle,
    datagrams: CounterHandle,
}

fn invalid<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
}

/// Validates `config`, binds the socket and bootstraps the fleet.
fn boot(config: DaemonConfig) -> io::Result<ServiceState> {
    let sf = SfConfig::new(config.view_size, config.lower_threshold).map_err(invalid)?;
    if config.initial_nodes == 0 {
        return Err(invalid("initial_nodes must be positive"));
    }
    if !config.initial_degree.is_multiple_of(2)
        || config.initial_degree > sf.view_size()
        || config.initial_degree >= config.initial_nodes
    {
        return Err(invalid("initial_degree must be even, ≤ s, and < initial_nodes"));
    }
    let base_loss = UniformLoss::new(config.base_loss).map_err(invalid)?;
    if config.tick.is_zero() || config.check_every == 0 {
        return Err(invalid("tick and check_every must be positive"));
    }

    let registry = MetricsRegistry::new();
    let arena =
        Arena::from_nodes(topology::circulant(config.initial_nodes, sf, config.initial_degree));
    let mut state = ServiceState {
        sf,
        rows: (0..config.initial_nodes).map(|k| Row::new(config.seed, arena.id_at(k))).collect(),
        arena,
        wheel: TimerWheel::new(WHEEL_SLOTS),
        due: Vec::new(),
        socket: SharedSocket::bind_loopback().map_err(|e| io::Error::other(e.to_string()))?,
        outbox: Datagram::default(),
        fault: ScheduledFault::constant(PhaseFault::Uniform(base_loss)),
        checker: InvariantChecker::new(sf),
        journal: EventJournal::new(JOURNAL_CAPACITY),
        snapshot: Arc::new(Mutex::new(MembershipSnapshot {
            live: config.initial_nodes,
            fault: "none".into(),
            ..MembershipSnapshot::default()
        })),
        rng: StdRng::seed_from_u64(stream_seed(config.seed, stream::DAEMON_CONTROL, 0, 0)),
        departed: 0,
        duplications: 0,
        nodes_gauge: registry.gauge("daemon.nodes"),
        round_gauge: registry.gauge("daemon.round"),
        stale_gauge: registry.gauge("daemon.stale_fraction"),
        checks_counter: registry.counter("daemon.checks"),
        degree_viol_counter: registry.counter("daemon.violations.degree"),
        stale_viol_counter: registry.counter("daemon.violations.stale"),
        sent: registry.counter("daemon.net.sent"),
        base_dropped: registry.counter("daemon.net.dropped"),
        delivered: registry.counter("daemon.net.delivered"),
        fault_dropped: registry.counter("daemon.fault.dropped"),
        dead_letters: registry.counter("daemon.net.dead_letters"),
        recv_errors: registry.counter("daemon.net.recv_errors"),
        received: registry.counter("daemon.net.received"),
        datagrams: registry.counter("daemon.net.datagrams"),
        registry,
        config,
    };

    for key in 0..state.config.initial_nodes {
        state.wheel.schedule((key % WHEEL_SLOTS) as u64, WheelItem { key, generation: 0 });
    }
    state.nodes_gauge.set(state.config.initial_nodes as f64);
    Ok(state)
}

fn spawn_daemon(config: DaemonConfig) -> io::Result<DaemonHandle> {
    let state = boot(config)?;
    let (registry, journal) = (state.registry.clone(), state.journal.clone());
    let snapshot = Arc::clone(&state.snapshot);
    let udp_addr = state.socket.local_addr();

    let (ctl_tx, ctl_rx) = channel();
    let shutdown = Arc::new(AtomicBool::new(false));

    let mut http_addr = None;
    let mut http_thread = None;
    if let Some(port) = state.config.http_port {
        let ctx = HttpContext {
            registry: registry.clone(),
            journal: journal.clone(),
            snapshot: Arc::clone(&snapshot),
            ctl: ctl_tx.clone(),
            shutdown: Arc::clone(&shutdown),
        };
        let (addr, thread) = serve(port, ctx)?;
        http_addr = Some(addr);
        http_thread = Some(thread);
    }

    let loop_thread = std::thread::Builder::new()
        .name("sandf-daemon-loop".into())
        .spawn(move || run_loop(state, &ctl_rx))?;

    Ok(DaemonHandle {
        ctl: ctl_tx,
        snapshot,
        registry,
        journal,
        http_addr,
        udp_addr,
        shutdown,
        loop_thread: Some(loop_thread),
        http_thread,
    })
}

fn run_loop(mut state: ServiceState, ctl: &Receiver<Control>) -> Vec<SfNode> {
    let start = Instant::now();
    let granularity = (state.config.tick.as_nanos() as u64 / WHEEL_SLOTS as u64).max(1);
    let mut next_check = state.config.check_every;

    'outer: loop {
        // Service control commands, waiting until the next wheel tick.
        loop {
            let now = start.elapsed().as_nanos() as u64;
            let tick_at = state.wheel.current_tick().saturating_mul(granularity);
            if now >= tick_at {
                break;
            }
            match ctl.recv_timeout(Duration::from_nanos(tick_at - now)) {
                Ok(Control::Shutdown) => break 'outer,
                Ok(command) => state.handle_control(command),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break 'outer,
            }
        }
        while let Ok(command) = ctl.try_recv() {
            match command {
                Control::Shutdown => break 'outer,
                other => state.handle_control(other),
            }
        }

        // Advance at most one rotation per iteration: a stalled loop slows
        // rounds down instead of skipping node actions (see module docs).
        let now_tick = start.elapsed().as_nanos() as u64 / granularity;
        state.tick_due(now_tick.min(state.wheel.current_tick() + WHEEL_SLOTS as u64 - 1));
        let round = state.wheel.rounds();
        state.round_gauge.set(round as f64);

        if round >= next_check {
            state.run_check(round);
            next_check = round + state.config.check_every;
        }
    }
    // Take what the last ticks sent off the wire, so the ledger closes.
    let deadline = Instant::now() + SHUTDOWN_DRAIN;
    loop {
        state.drain_socket();
        if WireLedger::read(&state.registry).in_flight() == 0 || Instant::now() >= deadline {
            break;
        }
        std::thread::yield_now();
    }
    // Final check so short-lived daemons still publish one verdict.
    let round = state.wheel.rounds();
    state.run_check(round.max(1));
    state.nodes()
}

impl ServiceState {
    /// The live nodes' final states, in id order: each row's exact view
    /// and counters.
    fn nodes(&self) -> Vec<SfNode> {
        let live = self.arena.live_dense();
        let nodes = self.arena.to_nodes::<SfBehavior>(live.clone()).into_iter();
        nodes.zip(live).map(|(node, k)| node.with_stats(self.rows[k].stats)).collect()
    }

    /// Live nodes: every issued id but those that left.
    fn live(&self) -> usize {
        self.rows.len() - self.departed as usize
    }

    /// Flushes the outbox, then moves every frame waiting on the socket
    /// into its destination's inbox. A frame for an id with no live node is
    /// a dead letter, and so is one whose message names an id the arena
    /// cannot store (at or above [`ARENA_ID_LIMIT`]; only a forged frame
    /// can), which a row would alias onto a `u32` word.
    fn drain_socket(&mut self) {
        self.flush();
        let (arena, rows) = (&self.arena, &mut self.rows);
        let (mut received, mut dead_letters) = (0, 0);
        let drained = self.socket.drain(RECV_BATCH_MAX, |to, message| {
            let ids = [message.sender, message.payload];
            let storable = ids.iter().all(|id| id.as_u64() < ARENA_ID_LIMIT);
            match arena.dense_of(to).filter(|_| storable) {
                Some(k) => {
                    rows[k].inbox.push(message);
                    received += 1;
                }
                None => dead_letters += 1,
            }
        });
        if drained.is_err() {
            self.recv_errors.inc();
        }
        self.received.add(received);
        self.dead_letters.add(dead_letters);
    }

    /// The one send path of the fleet: what node `from` initiated in
    /// `round` meets the fault schedule, then the dead-letter test, and
    /// goes into the outbox if it passed both.
    fn send(&mut self, from: usize, round: u64, to: NodeId, message: Message) {
        self.sent.inc();
        self.duplications += u64::from(message.dependent);
        let ctx = FaultCtx { from: self.arena.id_at(from), to, round };
        if self.fault.drops(ctx, &mut self.rows[from].loss_rng) {
            // Base loss never reaches the wire ledger; an injected window's
            // drop is delivered, then dropped by the fault.
            if injected(&self.fault, round).is_some() {
                self.delivered.inc();
                self.fault_dropped.inc();
            } else {
                self.base_dropped.inc();
            }
            return;
        }
        self.delivered.inc();
        if self.arena.dense_of(to).is_none() {
            // The peer left; counted so the checker's realized loss
            // includes churn-induced loss.
            self.dead_letters.inc();
            return;
        }
        if self.outbox.push(to, message) {
            self.flush();
        }
    }

    /// Hands the outbox's frames to the kernel as one datagram, if it holds
    /// any.
    fn flush(&mut self) {
        if self.outbox.is_empty() {
            return;
        }
        // Loss (base or injected) is the protocol's whole subject; a socket
        // error is treated as the loss of every frame in the datagram.
        let _ = self.socket.send_datagram(self.socket.local_addr(), &self.outbox);
        self.datagrams.inc();
        self.outbox.clear();
    }

    /// Fires the wheel one tick at a time through tick `last`, as one
    /// round: the round the wheel has completed after `last`. Ticks the
    /// due nodes still live and re-parks each one rotation after its own
    /// tick, draining the socket before every [`DRAIN_CHUNK`] items fired;
    /// a departed node's timer is dropped.
    fn tick_due(&mut self, last: u64) {
        let round = (last + 1) / WHEEL_SLOTS as u64;
        let (mut due, mut fired) = (std::mem::take(&mut self.due), 0);
        while self.wheel.current_tick() <= last {
            due.clear();
            self.wheel.advance_to(self.wheel.current_tick(), &mut due);
            for item in &due {
                if fired % DRAIN_CHUNK == 0 {
                    self.drain_socket();
                }
                fired += 1;
                if self.arena.is_live(item.key) {
                    self.tick_node(item.key, round);
                    self.wheel.schedule(WHEEL_SLOTS as u64 - 1, *item);
                }
            }
        }
        self.due = due;
    }

    /// Node `k` receives its inbox, then initiates unless the fault
    /// schedule holds it back this round.
    fn tick_node(&mut self, k: usize, round: u64) {
        let row = &mut self.rows[k];
        for message in row.inbox.drain(..) {
            let deleted = self.arena.receive(&SfBehavior, k, message, &mut row.rng).deleted;
            row.stats.deletions += u64::from(deleted);
            row.stats.stored += u64::from(!deleted);
        }
        if !self.fault.node_acts(self.arena.id_at(k), round) {
            return;
        }
        row.stats.initiated += 1;
        let Some((to, message)) = self.arena.initiate(&SfBehavior, k, &mut row.rng) else {
            row.stats.self_loops += 1;
            return;
        };
        row.stats.sent += 1;
        row.stats.duplications += u64::from(message.dependent);
        self.send(k, round, to, message);
    }

    fn handle_control(&mut self, command: Control) {
        // The snapshot is refreshed before the reply is sent, so a caller
        // that got a reply observes its own command's effect.
        match command {
            Control::Join { count, reply } => {
                let result = self.handle_join(count);
                self.publish_light_snapshot();
                let _ = reply.send(result);
            }
            Control::Leave { count, reply } => {
                let result = self.handle_leave(count);
                self.publish_light_snapshot();
                let _ = reply.send(result);
            }
            Control::Fault { line, reply } => {
                let result = self.handle_fault(&line);
                self.publish_light_snapshot();
                let _ = reply.send(result);
            }
            Control::Shutdown => unreachable!("handled by the loop"),
        }
    }

    /// The Section 5 joining rule: ask a random live sponsor for ids, take
    /// `d_L` of them at random. Sponsors with sparse views are topped up
    /// from other live nodes' own ids (also legitimate member ids).
    fn handle_join(&mut self, count: usize) -> Result<usize, String> {
        if count == 0 {
            return Err("join count must be positive".into());
        }
        // A leave never takes the last node, so there is always a sponsor.
        let mut live: Vec<usize> = self.arena.live_dense().collect();
        let d_l = self.sf.lower_threshold();
        for _ in 0..count {
            let sponsor = live[self.rng.gen_range(0..live.len())];
            let mut pool: Vec<NodeId> = self.arena.row_ids::<SfBehavior>(sponsor).collect();
            pool.push(self.arena.id_at(sponsor));
            pool.sort_unstable();
            pool.dedup();
            pool.shuffle(&mut self.rng);
            let mut ids: Vec<NodeId> = pool
                .into_iter()
                .filter(|&id| self.arena.dense_of(id).is_some())
                .take(d_l)
                .collect();
            if ids.len() < d_l {
                // Top up with other live nodes' own ids.
                let mut extra = live.clone();
                extra.shuffle(&mut self.rng);
                let more: Vec<NodeId> = extra
                    .into_iter()
                    .map(|k| self.arena.id_at(k))
                    .filter(|id| !ids.contains(id))
                    .take(d_l - ids.len())
                    .collect();
                ids.extend(more);
            }
            if ids.len() < d_l {
                return Err(format!(
                    "cannot gather {d_l} sponsor ids from {} live nodes",
                    live.len()
                ));
            }
            let key =
                self.arena.join_with(&SfBehavior, ids.into_iter()).map_err(|e| e.to_string())?;
            assert_eq!(key, self.rows.len(), "a joiner's row follows the last one");
            self.rows.push(Row::new(self.config.seed, self.arena.id_at(key)));
            live.push(key);
            let delay = self.rng.gen_range(0..WHEEL_SLOTS as u64);
            self.wheel.schedule(delay, WheelItem { key, generation: 0 });
        }
        Ok(live.len())
    }

    fn handle_leave(&mut self, count: usize) -> Result<usize, String> {
        let mut live: Vec<usize> = self.arena.live_dense().collect();
        if count == 0 {
            return Err("leave count must be positive".into());
        }
        if count >= live.len() {
            return Err(format!("refusing to remove all {} live nodes", live.len()));
        }
        live.shuffle(&mut self.rng);
        for &k in live.iter().take(count) {
            self.arena.leave::<SfBehavior>(self.arena.id_at(k));
            // The node's mail goes with it, allocation and all; later
            // frames for its id are dead letters, and its timer is dropped
            // the next time it fires.
            self.rows[k].inbox = Vec::new();
        }
        self.checker.record_leaves(count);
        self.departed += count as u64;
        Ok(live.len() - count)
    }

    fn handle_fault(&mut self, line: &str) -> Result<String, String> {
        let now = self.wheel.rounds();
        let mut fault = compile_fault_line(line, now, self.config.seed, &self.fault)?;
        if let PhaseFault::Victims { count, .. } = fault.phases()[0].1 {
            let (arena, live) = (&self.arena, self.live());
            let graph = graph_of_rows(live, live * self.sf.view_size(), |visit| {
                arena.for_each_row::<SfBehavior>(arena.live_dense(), visit);
            });
            fault.phase_mut(0).aim(&graph.top_in_degree(count));
        }
        self.fault = fault;
        Ok(self.fault_kind(now).into())
    }

    /// The tag of the injected model governing `round` (`"none"` under the
    /// standing phase).
    fn fault_kind(&self, round: u64) -> &'static str {
        injected(&self.fault, round).map_or("none", PhaseFault::kind)
    }

    fn wire_totals(&self) -> WireTotals {
        WireTotals {
            sent: self.sent.get(),
            dropped: self.base_dropped.get() + self.fault_dropped.get() + self.dead_letters.get(),
            duplications: self.duplications,
        }
    }

    fn run_check(&mut self, round: u64) {
        let totals = self.wire_totals();
        let arena = &self.arena;
        let rows = arena.live_dense().map(|k| (arena.id_at(k), arena.row_ids::<SfBehavior>(k)));
        let outcome = self.checker.check_rows(round, rows, totals);
        self.checks_counter.inc();
        self.degree_viol_counter.add(outcome.degree_violation_count as u64);
        if outcome.stale_violation {
            self.stale_viol_counter.inc();
        }
        self.stale_gauge.set(outcome.stale_fraction);
        let (lo, hi) = (self.sf.lower_threshold() as u32, self.sf.view_size() as u32);
        for &(node, degree) in &outcome.degree_violations {
            self.journal.record(
                round,
                JournalEvent::DegreeViolation { node, degree: degree as u32, lo, hi },
            );
        }
        if outcome.stale_violation {
            self.journal.record(
                round,
                JournalEvent::StaleViolation {
                    stale_ppm: (outcome.stale_fraction * 1e6) as u64,
                    ceiling_ppm: (outcome.stale_ceiling * 1e6) as u64,
                },
            );
        }
        self.publish_snapshot(&outcome);
    }

    fn publish_snapshot(&self, outcome: &CheckOutcome) {
        *self.snapshot.lock() = MembershipSnapshot {
            round: outcome.round,
            live: outcome.live,
            departed: self.departed,
            mean_out: outcome.mean_out,
            min_out: outcome.min_out,
            max_out: outcome.max_out,
            stale_fraction: outcome.stale_fraction,
            stale_ceiling: outcome.stale_ceiling,
            components: outcome.components,
            checks: self.checks_counter.get(),
            degree_violations: self.degree_viol_counter.get(),
            stale_violations: self.stale_viol_counter.get(),
            window_loss: outcome.window_loss,
            fault: self.fault_kind(self.wheel.rounds()).into(),
        };
    }

    /// Refresh the cheap fields and the live-node gauge after a control
    /// command, keeping the last check's measured stats.
    fn publish_light_snapshot(&self) {
        let mut snap = self.snapshot.lock();
        snap.round = self.wheel.rounds();
        snap.live = self.live();
        self.nodes_gauge.set(snap.live as f64);
        snap.departed = self.departed;
        snap.fault = self.fault_kind(snap.round).into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> DaemonConfig {
        DaemonConfig {
            initial_nodes: 16,
            tick: Duration::from_millis(4),
            base_loss: 0.02,
            check_every: 3,
            http_port: None,
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn daemon_boots_runs_rounds_and_shuts_down() {
        let daemon = tiny_config().spawn().unwrap();
        std::thread::sleep(Duration::from_millis(120));
        let snap = daemon.snapshot();
        assert_eq!(snap.live, 16);
        assert!(snap.round >= 2, "round {} after 120ms of 4ms ticks", snap.round);
        assert!(snap.checks >= 1);
        assert_eq!(snap.degree_violations, 0, "healthy boot must not violate Obs 5.1");
        daemon.shutdown();
    }

    #[test]
    fn no_two_random_streams_coincide() {
        let state = boot(tiny_config()).unwrap();
        let mut streams = vec![&state.rng];
        for row in &state.rows {
            streams.extend([&row.rng, &row.loss_rng]);
        }
        assert_eq!(streams.len(), 1 + 2 * 16);
        for (i, a) in streams.iter().enumerate() {
            for b in &streams[i + 1..] {
                assert_ne!(a, b, "two of the daemon's streams share a seed");
            }
        }
    }

    #[test]
    fn every_slot_sends_through_the_one_socket() {
        let mut state = boot(tiny_config()).unwrap();
        state.handle_join(4).unwrap();
        state.handle_leave(3).unwrap();
        state.handle_join(2).unwrap();
        let mut live = 0;
        for key in state.arena.live_dense() {
            live += 1;
            assert_eq!(state.arena.dense_of(state.arena.id_at(key)), Some(key));
        }
        assert_eq!(live, 19);
        // The three that left are unmapped; their rows stay.
        let unmapped = (0..state.rows.len() as u64)
            .filter(|&id| state.arena.dense_of(NodeId::new(id)).is_none())
            .count();
        assert_eq!(unmapped, 3);
        assert_eq!(state.rows.len(), 16 + 4 + 2, "one row per id ever issued");
    }

    #[test]
    fn a_reused_slot_does_not_inherit_mail() {
        let mut state = boot(tiny_config()).unwrap();
        // Every node initiates once; nothing is drained before the leave.
        for key in 0..16 {
            state.tick_node(key, 1);
        }
        std::thread::sleep(Duration::from_millis(5));
        state.drain_socket();
        let mailed: Vec<usize> = (0..16).filter(|&k| !state.rows[k].inbox.is_empty()).collect();
        assert!(!mailed.is_empty(), "16 initiations must have reached someone");
        state.handle_leave(10).unwrap();
        state.handle_join(10).unwrap();
        for k in state.arena.live_dense() {
            let id = state.arena.id_at(k);
            if id.as_u64() >= 16 {
                assert!(state.rows[k].inbox.is_empty(), "joiner {id} inherited mail");
            }
        }
    }

    /// A lossless fleet of 16 (ids = rows 0..16) and a message to send
    /// across it.
    fn lossless_fleet() -> (ServiceState, Message) {
        let state = boot(DaemonConfig { base_loss: 0.0, ..tiny_config() }).unwrap();
        (state, Message::new(NodeId::new(0), NodeId::new(9), false))
    }

    fn counter(state: &ServiceState, name: &str) -> u64 {
        state.registry.counter_value(name).unwrap()
    }

    #[test]
    fn a_partition_drops_cross_region_sends_until_it_lapses() {
        let (mut state, message) = lossless_fleet();
        assert_eq!(state.handle_fault("phase 100 partition 2 1.0 0"), Ok("partition".into()));
        assert_eq!(state.fault_kind(5), "partition");
        // 0 and 1 are in different regions (id mod 2): everything drops.
        for _ in 0..20 {
            state.send(0, 5, NodeId::new(1), message);
        }
        assert_eq!(counter(&state, "daemon.net.delivered"), 20);
        assert_eq!(counter(&state, "daemon.fault.dropped"), 20);
        std::thread::sleep(Duration::from_millis(10));
        state.drain_socket();
        assert!(state.rows.iter().all(|row| row.inbox.is_empty()));

        // After the window the wire heals, with no second command.
        assert_eq!(state.fault_kind(200), "none");
        state.send(0, 200, NodeId::new(1), message);
        for _ in 0..200 {
            state.drain_socket();
            if !state.rows[1].inbox.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(state.rows[1].inbox, [message]);
        assert_eq!(counter(&state, "daemon.fault.dropped"), 20);
        assert_eq!(WireLedger::read(&state.registry).in_flight(), 0);
    }

    #[test]
    fn a_chunks_sends_wait_in_the_outbox_and_arrive_in_order_at_the_next_drain() {
        let (mut state, _) = lossless_fleet();
        let sent: Vec<Message> = (1..=3)
            .map(|from| Message::new(NodeId::new(from), NodeId::new(from + 10), from == 2))
            .collect();
        for (from, &message) in (1..=3).zip(&sent) {
            state.send(from, 1, NodeId::new(0), message);
        }
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(state.socket.drain(usize::MAX, |_, _| ()).unwrap(), 0, "nothing on the wire");

        // Loopback is asynchronous: the drain that flushes may read too soon.
        for _ in 0..200 {
            state.drain_socket();
            if !state.rows[0].inbox.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(state.rows[0].inbox, sent);
        assert_eq!(counter(&state, "daemon.net.datagrams"), 1, "one datagram for the three");
        assert_eq!(WireLedger::read(&state.registry).in_flight(), 0);
    }

    #[test]
    fn the_outbox_goes_out_at_every_drain_chunk() {
        let mut state = boot(DaemonConfig { initial_nodes: 640, ..tiny_config() }).unwrap();
        rotate(&mut state);
        // Ten chunks of 64 ticks, each sending far fewer than a datagram
        // holds: the nine drains after the first flush a datagram each,
        // and only the last chunk's frames are still in the outbox.
        assert_eq!(counter(&state, "daemon.net.datagrams"), 9);
        let sent =
            counter(&state, "daemon.net.delivered") - counter(&state, "daemon.net.dead_letters");
        let last_chunk = state.outbox.as_bytes().len() / sandf_net::codec::FRAME_LEN;
        assert!(0 < last_chunk && last_chunk < sent as usize / 5, "{last_chunk} of {sent}");
    }

    /// Makes one node of `state`'s boot fleet leave; returns a sender still
    /// seated and the departed id.
    fn a_sender_and_a_departed_id(state: &mut ServiceState) -> (usize, NodeId) {
        state.handle_leave(1).unwrap();
        let gone = (0..16).find(|&key| !state.arena.is_live(key)).unwrap();
        let from = (0..16).find(|&key| key != gone).unwrap();
        (from, NodeId::new(gone as u64))
    }

    #[test]
    fn a_send_to_a_departed_id_is_one_dead_letter_and_no_frame() {
        let (mut state, message) = lossless_fleet();
        let (from, gone) = a_sender_and_a_departed_id(&mut state);
        state.send(from, 1, gone, message);
        assert_eq!(counter(&state, "daemon.net.dead_letters"), 1);
        // Nothing went on the wire: a frame would come off it as a second
        // dead letter.
        std::thread::sleep(Duration::from_millis(10));
        state.drain_socket();
        assert_eq!(counter(&state, "daemon.net.received"), 0);
        assert_eq!(counter(&state, "daemon.net.dead_letters"), 1);
        assert_eq!(WireLedger::read(&state.registry).in_flight(), 0);
    }

    #[test]
    fn a_frame_naming_an_id_beyond_the_arena_is_a_dead_letter() {
        let (mut state, message) = lossless_fleet();
        let raw = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let wide = NodeId::new(1 << 40);
        for forged in [Message { payload: wide, ..message }, Message { sender: wide, ..message }] {
            let frame = sandf_net::codec::encode_frame(NodeId::new(3), forged);
            raw.send_to(&frame, state.socket.local_addr()).unwrap();
        }
        for _ in 0..200 {
            state.drain_socket();
            if counter(&state, "daemon.net.dead_letters") == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // The arena stores ids as `u32` words: a stored wide id would alias
        // a live one.
        assert_eq!(counter(&state, "daemon.net.dead_letters"), 2);
        assert_eq!(counter(&state, "daemon.net.received"), 0);
        assert!(state.rows[3].inbox.is_empty());
    }

    #[test]
    fn a_frame_in_flight_to_a_node_that_leaves_is_a_dead_letter() {
        let (mut state, message) = lossless_fleet();
        for to in 0..16 {
            state.send(0, 1, NodeId::new(to), message);
        }
        // The sixteen frames wait in the outbox while half the fleet leaves.
        state.handle_leave(8).unwrap();
        settle(&mut state);
        assert_eq!(counter(&state, "daemon.net.dead_letters"), 8);
        assert_eq!(counter(&state, "daemon.net.received"), 8);
        for (key, row) in state.rows.iter().enumerate() {
            let mail = usize::from(state.arena.is_live(key));
            assert_eq!(row.inbox.len(), mail, "node {key}");
        }
    }

    #[test]
    fn an_injected_line_replaces_the_base_loss_it_does_not_stack_on_it() {
        let mut state = boot(DaemonConfig { base_loss: 0.05, ..tiny_config() }).unwrap();
        let (from, gone) = a_sender_and_a_departed_id(&mut state);
        assert_eq!(state.handle_fault("phase 1000 uniform 0.25"), Ok("uniform".into()));
        let message = Message::new(NodeId::new(from as u64), NodeId::new(9), false);
        // Sends to a departed id never reach the wire: each one is lost or
        // a dead letter.
        let sends = 40_000;
        for _ in 0..sends {
            state.send(from, 1, gone, message);
        }
        let lost = counter(&state, "daemon.net.dropped") + counter(&state, "daemon.fault.dropped");
        let rate = lost as f64 / sends as f64;
        // 5σ of a binomial rate 0.25 over 40 000 sends; stacked on the base
        // loss the line would lose 1 − 0.95 · 0.75 = 0.2875.
        assert!((rate - 0.25).abs() < 0.011, "measured loss {rate}, want 0.25");
        assert_eq!(counter(&state, "daemon.net.dropped"), 0, "no base draw in the window");
        assert_eq!(counter(&state, "daemon.net.delivered"), sends);
        assert_eq!(counter(&state, "daemon.net.dead_letters"), sends - lost);
    }

    #[test]
    fn with_no_fault_injected_every_drop_is_the_base_draw_on_the_loss_stream() {
        let mut state = boot(DaemonConfig { base_loss: 0.3, ..tiny_config() }).unwrap();
        let (from, gone) = a_sender_and_a_departed_id(&mut state);
        let id = NodeId::new(from as u64);
        // The Section 4.1 model on a fresh copy of the sender's `l` stream,
        // lifted into the fault surface the way every engine draws it.
        let mut model = UniformLoss::new(0.3).unwrap();
        let seed = stream_seed(state.config.seed, stream::DAEMON_LOSS, id.as_u64(), 0);
        let mut rng = StdRng::seed_from_u64(seed);
        for k in 0..2_000 {
            let (round, before) = (1 + k / 16, counter(&state, "daemon.net.dropped"));
            state.send(from, round, gone, Message::new(id, NodeId::new(9), false));
            let want = model.drops(FaultCtx { from: id, to: gone, round }, &mut rng);
            assert_eq!(counter(&state, "daemon.net.dropped") > before, want, "send {k}");
        }
        assert!(counter(&state, "daemon.net.dropped") > 500, "a 30 % channel must drop");
    }

    #[test]
    fn the_checker_is_handed_each_duplication_once() {
        let mut state = boot(tiny_config()).unwrap();
        for _ in 1..=100 {
            rotate(&mut state);
        }
        // With no leaves, the fleet's own counters hold every send.
        let fleet = |count: fn(&sandf_core::NodeStats) -> u64| -> u64 {
            state.nodes().iter().map(|node| count(node.stats())).sum()
        };
        let totals = state.wire_totals();
        assert!(totals.duplications > 0, "loss compensation never kicked in");
        assert_eq!(totals.duplications, fleet(|stats| stats.duplications));
        assert_eq!(totals.sent, fleet(|stats| stats.sent));
    }

    #[test]
    fn joiners_are_seeded_with_live_ids_only() {
        let mut state = boot(tiny_config()).unwrap();
        // Half the fleet leaves, so every sponsor's view names departed ids.
        state.handle_leave(8).unwrap();
        state.handle_join(8).unwrap();
        for node in state.nodes().iter().filter(|node| node.id().as_u64() >= 16) {
            assert_eq!(node.view().ids().count(), state.sf.lower_threshold());
            for id in node.view().ids() {
                assert!(state.arena.dense_of(id).is_some(), "{} got departed {id}", node.id());
            }
        }
    }

    #[test]
    fn join_and_leave_change_the_live_count() {
        let daemon = tiny_config().spawn().unwrap();
        assert_eq!(daemon.join_nodes(8), Ok(24));
        assert_eq!(daemon.leave_nodes(10), Ok(14));
        let snap = daemon.snapshot();
        assert_eq!(snap.live, 14);
        assert_eq!(snap.departed, 10);
        assert!(daemon.leave_nodes(14).is_err(), "removing the whole fleet is refused");
        daemon.shutdown();
    }

    #[test]
    fn fault_commands_install_and_clear() {
        let daemon = tiny_config().spawn().unwrap();
        assert_eq!(daemon.fault("phase 1000 uniform 0.5"), Ok("uniform".into()));
        assert_eq!(daemon.snapshot().fault, "uniform");
        assert!(daemon.fault("phase 1000 uniform 2.0").is_err());
        assert_eq!(daemon.fault("phase 10 victims 4 0.9 0"), Ok("victims".into()));
        assert_eq!(daemon.fault("none"), Ok("none".into()));
        assert_eq!(daemon.snapshot().fault, "none");
        assert_eq!(daemon.shutdown().len(), 16, "shutdown hands back the live nodes");
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let snap = MembershipSnapshot { fault: "uni\"form".into(), ..Default::default() };
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"fault\":\"uni\\\"form\""));
        assert!(json.contains("\"live\":0"));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = DaemonConfig { view_size: 7, ..tiny_config() };
        assert!(bad.spawn().is_err());
        let bad = DaemonConfig { initial_degree: 3, ..tiny_config() };
        assert!(bad.spawn().is_err());
        let bad = DaemonConfig { base_loss: 1.5, ..tiny_config() };
        assert!(bad.spawn().is_err());
        let bad = DaemonConfig { initial_nodes: 0, ..tiny_config() };
        assert!(bad.spawn().is_err());
    }

    /// Flushes the outbox and drains the socket until the ledger says
    /// nothing is in flight.
    fn settle(state: &mut ServiceState) {
        for _ in 0..1_000 {
            state.drain_socket();
            if WireLedger::read(&state.registry).in_flight() == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("frames stuck in the kernel");
    }

    /// Fires one whole rotation of the wheel as one round.
    fn rotate(state: &mut ServiceState) {
        state.tick_due(state.wheel.current_tick() + WHEEL_SLOTS as u64 - 1);
    }

    /// The first daemon golden: a run with no clock and no loop thread,
    /// one rotation a round over the real socket, through joins, a leave,
    /// a join after it and injected `victims` and `partition` lines. It
    /// hashes every frame sent, in order, then each final row as `(id,
    /// slots, NodeStats)` by id, then the wire counters. At most 57 nodes
    /// are live, so a rotation is one drain chunk and its frames all wait
    /// in the outbox until the next settle (a 58th frame flushes early).
    ///
    /// The pin was first taken on the seat table the arena replaced, where
    /// a joiner reused a departed node's seat and later leave and join
    /// picks walked seat order rather than id order; so the script issues
    /// no control command after the join that follows its leave. It was
    /// re-taken when fired nodes stopped being re-parked on the rotation's
    /// last tick: a joiner now fires at its own tick among the fleet, not
    /// before or after all of it.
    #[test]
    fn a_clockless_run_replays_its_transcript_digest() {
        let mut state = boot(DaemonConfig { initial_nodes: 40, ..tiny_config() }).unwrap();
        let mut transcript: Vec<u8> = Vec::new();
        for round in 1..=30u64 {
            settle(&mut state);
            match round {
                4 => assert_eq!(state.handle_join(8), Ok(48)),
                8 => {
                    assert_eq!(state.handle_fault("phase 6 victims 4 0.9 0"), Ok("victims".into()))
                }
                13 => {
                    let line = "phase 6 partition 2 1.0 0";
                    assert_eq!(state.handle_fault(line), Ok("partition".into()));
                }
                18 => assert_eq!(state.handle_leave(6), Ok(42)),
                21 => assert_eq!(state.handle_join(5), Ok(47)),
                _ => {}
            }
            rotate(&mut state);
            transcript.extend_from_slice(state.outbox.as_bytes());
        }
        settle(&mut state);
        assert_eq!(transcript.len(), 272 * sandf_net::codec::FRAME_LEN, "frames sent");
        for node in state.nodes() {
            transcript.extend(node.id().as_u64().to_le_bytes());
            for slot in node.view().slots() {
                match slot {
                    Some(entry) => {
                        transcript.extend(entry.id.as_u64().to_le_bytes());
                        transcript.push(u8::from(entry.dependent));
                    }
                    None => transcript.push(0xff),
                }
            }
            let stats = node.stats();
            for count in [
                stats.initiated,
                stats.self_loops,
                stats.sent,
                stats.duplications,
                stats.stored,
                stats.deletions,
            ] {
                transcript.extend(count.to_le_bytes());
            }
        }
        for name in ["sent", "dropped", "delivered", "dead_letters", "received", "datagrams"] {
            transcript.extend(counter(&state, &format!("daemon.net.{name}")).to_le_bytes());
        }
        transcript.extend(counter(&state, "daemon.net.recv_errors").to_le_bytes());
        transcript.extend(counter(&state, "daemon.fault.dropped").to_le_bytes());
        let digest = sandf_sim::stream::fnv1a64(transcript.iter().copied());
        assert_eq!(digest, 0xbc6f_b9e0_5179_24f8, "transcript digest {digest:#018x}");
    }

    /// A rotation fired in one call re-parks each node one rotation after
    /// its own tick, so the boot fleet stays spread two a tick; parked
    /// after the cursor the whole call left, all 128 would share the last.
    #[test]
    fn a_whole_rotation_at_once_keeps_the_fleet_spread_across_the_wheel() {
        let mut state = boot(DaemonConfig { initial_nodes: 128, ..tiny_config() }).unwrap();
        for _ in 0..3 {
            settle(&mut state);
            rotate(&mut state);
            let (mut wheel, mut due) = (state.wheel.clone(), Vec::new());
            for tick in 0..WHEEL_SLOTS {
                due.clear();
                wheel.advance_to(wheel.current_tick(), &mut due);
                assert_eq!(due.len(), 2, "tick {tick} of the next rotation");
            }
        }
    }

    #[test]
    fn a_departed_nodes_timer_never_fires_and_a_joiner_acts_once_a_rotation() {
        let mut state = boot(tiny_config()).unwrap();
        rotate(&mut state);
        let (k, rotations) = (5, 6);
        state.handle_leave(k).unwrap();
        state.handle_join(k).unwrap();
        // The departed nodes' timers are still parked on the wheel.
        assert_eq!(state.wheel.scheduled(), 16 + k);
        let before: Vec<u64> = state.rows.iter().map(|row| row.stats.initiated).collect();
        for _ in 0..rotations {
            settle(&mut state);
            rotate(&mut state);
        }
        assert_eq!(state.rows.len(), 16 + k);
        for (key, row) in state.rows.iter().enumerate() {
            let want = if state.arena.is_live(key) { rotations } else { 0 };
            assert_eq!(row.stats.initiated - before[key], want, "node {key}");
        }
    }

    /// Every issued id keeps one row, live or departed: the arena's
    /// `5·s + 12` bytes (pinned in `sandf-sim` by
    /// `per_node_footprint_is_five_s_plus_twelve_bytes`) and the loop's
    /// column — two 32 B streams, an inbox header and six counters — for
    /// `5·s + 148` bytes, 208 B at `s = 12`. A departed row holds no inbox
    /// allocation. The destructuring names every field, so a new column
    /// fails to compile here until it is accounted for.
    #[test]
    fn per_row_footprint_is_five_s_plus_148_bytes() {
        let (mut state, message) = lossless_fleet();
        for to in 0..16 {
            state.send(0, 1, NodeId::new(to), message);
        }
        settle(&mut state);
        assert!(state.rows.iter().all(|row| row.inbox.len() == 1), "every node has mail");
        state.handle_leave(8).unwrap();
        for key in (0..16).filter(|&key| !state.arena.is_live(key)) {
            assert_eq!(state.rows[key].inbox.capacity(), 0, "node {key} kept its inbox");
        }
        let Row { rng, loss_rng, inbox, stats } = &state.rows[0];
        let columns = [
            ("rng", std::mem::size_of_val(rng)),
            ("loss_rng", std::mem::size_of_val(loss_rng)),
            ("inbox", std::mem::size_of_val(inbox)),
            ("stats", std::mem::size_of_val(stats)),
        ];
        let column: usize = columns.iter().map(|&(_, bytes)| bytes).sum();
        assert_eq!(column, std::mem::size_of::<Row>(), "no padding: {columns:?}");
        let s = state.sf.view_size();
        assert_eq!(5 * s + 12 + column, 5 * s + 148, "per-row columns: {columns:?}");
        assert_eq!(5 * s + 148, 208, "s = 12");
    }
}
