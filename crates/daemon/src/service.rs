//! The daemon's event loop: thousands of S&F nodes multiplexed on one
//! thread over one real UDP socket.
//!
//! # Design
//!
//! The daemon binds a single non-blocking loopback socket
//! ([`SharedSocket`]); every message on it travels as a 25-byte frame, the
//! destination node's id followed by the 17-byte message, and every
//! datagram packs 1 to [`MAX_FRAMES`] frames. The loop sends for every node
//! through one function, `ServiceState::send`: the message meets the
//! daemon's one fault schedule ([`fault`](crate::fault)) in one draw from
//! the sender's loss stream — the standing `uniform base_loss` phase, the
//! Section 4.1 channel, or a runtime-injected model in its place — then
//! the destination is looked up in a dense id → slot table, and only a
//! message for a live node is packed into the loop's one outbox
//! [`Datagram`]. The loss draw stays per message, so packing changes the
//! number of datagrams the kernel handles, not the channel. The loop,
//! not the node, receives: before every [`DRAIN_CHUNK`] node ticks it
//! flushes the outbox onto the wire (a full one goes early) and then
//! drains the socket into per-node inboxes through the same table, so a
//! frame reaches the same drain, in the same order, as if it had gone out
//! alone at its send. A node whose action timer fires takes its inbox and
//! then initiates, so its receive step and initiate step happen
//! back-to-back at a quiescent point. A message or frame for an id with no
//! live node is a dead letter.
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
//! one protocol round: `W` ticks per rotation, node slot `k` parked at tick
//! `k mod W`, refired one rotation later. The wheel is driven from wall
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
use sandf_core::{InitiateOutcome, Message, NodeId, SfConfig, SfNode};
use sandf_graph::MembershipGraph;
use sandf_net::codec::Datagram;
use sandf_net::SharedSocket;
use sandf_obs::{CounterHandle, EventJournal, GaugeHandle, JournalEvent, MetricsRegistry};
use sandf_sim::stream::{self, stream_seed};
use sandf_sim::{topology, FaultCtx, FaultModel, PhaseFault, ScheduledFault, UniformLoss};

use crate::fault::{compile_fault_line, injected};
use crate::http::{escape_json, serve, HttpContext};
use crate::invariants::{CheckOutcome, InvariantChecker, WireTotals};
use crate::wheel::{TimerWheel, WheelItem};

/// Ticks per wheel rotation (= per protocol round). Nodes are spread
/// across the rotation so one tick's work stays small.
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

/// `slot_of` entry of an id with no live slot; no slot index reaches it.
const NO_SLOT: u32 = u32::MAX;

/// The slot seating `id`: `None` for an id that left, or one the daemon
/// never issued (a forged frame can put such an id into a view).
fn slot_key(slot_of: &[u32], id: NodeId) -> Option<usize> {
    let key = *slot_of.get(usize::try_from(id.as_u64()).ok()?)?;
    (key != NO_SLOT).then_some(key as usize)
}

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
    /// Bounded event-journal capacity.
    pub journal_capacity: usize,
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
            journal_capacity: 1024,
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
/// has no live slot, or coming off the wire, when the peer left meanwhile),
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

struct NodeSlot {
    node: SfNode,
    rng: StdRng,
    /// Offered to the fault schedule with each of this node's sends.
    loss_rng: StdRng,
    /// Messages drained off the socket for this node since its last tick.
    inbox: Vec<Message>,
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
    slots: Vec<Option<NodeSlot>>,
    generations: Vec<u64>,
    free: Vec<usize>,
    /// Node id → index into `slots`, [`NO_SLOT`] for ids that left. Ids are
    /// issued densely from 0: the table's length is the next one.
    slot_of: Vec<u32>,
    wheel: TimerWheel,
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
    let mut state = ServiceState {
        sf,
        slots: Vec::with_capacity(config.initial_nodes),
        generations: Vec::with_capacity(config.initial_nodes),
        free: Vec::new(),
        slot_of: Vec::with_capacity(config.initial_nodes),
        wheel: TimerWheel::new(WHEEL_SLOTS),
        socket: SharedSocket::bind_loopback().map_err(|e| io::Error::other(e.to_string()))?,
        outbox: Datagram::default(),
        fault: ScheduledFault::constant(PhaseFault::Uniform(base_loss)),
        checker: InvariantChecker::new(sf),
        journal: EventJournal::new(config.journal_capacity.max(64)),
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

    for node in topology::circulant(state.config.initial_nodes, sf, state.config.initial_degree) {
        let key = state.place(node);
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
    let mut due: Vec<WheelItem> = Vec::new();
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
        let target = now_tick.min(state.wheel.current_tick() + WHEEL_SLOTS as u64);
        due.clear();
        state.wheel.advance_to(target, &mut due);
        let round = state.wheel.rounds();
        state.tick_due(&due, round);
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
    state.slots.into_iter().flatten().map(|slot| slot.node).collect()
}

impl ServiceState {
    /// Seats `node`, with its two random streams, in a free slot,
    /// reachable under its id; returns the slot's key.
    fn place(&mut self, node: SfNode) -> usize {
        let id = node.id();
        let seeded =
            |tag| StdRng::seed_from_u64(stream_seed(self.config.seed, tag, id.as_u64(), 0));
        let slot = Some(NodeSlot {
            node,
            rng: seeded(stream::DAEMON_NODE),
            loss_rng: seeded(stream::DAEMON_LOSS),
            inbox: Vec::new(),
        });
        let key = match self.free.pop() {
            Some(key) => {
                self.slots[key] = slot;
                key
            }
            None => {
                self.slots.push(slot);
                self.generations.push(0);
                self.slots.len() - 1
            }
        };
        assert_eq!(id.as_u64(), self.slot_of.len() as u64, "ids are issued densely from 0");
        self.slot_of.push(u32::try_from(key).expect("fewer than 2^32 slots"));
        key
    }

    /// Flushes the outbox, then moves every frame waiting on the socket
    /// into its destination's inbox; a frame for an id with no live slot is
    /// a dead letter.
    fn drain_socket(&mut self) {
        self.flush();
        let (slots, slot_of) = (&mut self.slots, &self.slot_of);
        let (mut received, mut dead_letters) = (0, 0);
        let drained = self.socket.drain(RECV_BATCH_MAX, |to, message| {
            match slot_key(slot_of, to).and_then(|key| slots[key].as_mut()) {
                Some(slot) => {
                    slot.inbox.push(message);
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

    /// The one send path of the fleet: what `from_key`'s node initiated in
    /// `round` meets the fault schedule, then the dead-letter test, and
    /// goes into the outbox if it passed both.
    fn send(&mut self, from_key: usize, round: u64, to: NodeId, message: Message) {
        let slot = self.slots[from_key].as_mut().expect("a live sender");
        self.sent.inc();
        self.duplications += u64::from(message.dependent);
        let ctx = FaultCtx { from: slot.node.id(), to, round };
        if self.fault.drops(ctx, &mut slot.loss_rng) {
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
        if slot_key(&self.slot_of, to).is_none() {
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

    /// Ticks the `due` nodes still seated and re-parks them one rotation
    /// on, draining the socket before every [`DRAIN_CHUNK`] of them.
    fn tick_due(&mut self, due: &[WheelItem], round: u64) {
        for chunk in due.chunks(DRAIN_CHUNK) {
            self.drain_socket();
            for item in chunk {
                if self.generations[item.key] == item.generation {
                    self.tick_node(item.key, round);
                    self.wheel.schedule(WHEEL_SLOTS as u64 - 1, *item);
                }
            }
        }
    }

    fn live_keys(&self) -> Vec<usize> {
        (0..self.slots.len()).filter(|&k| self.slots[k].is_some()).collect()
    }

    fn live_nodes(&self) -> impl Iterator<Item = &SfNode> + Clone {
        self.slots.iter().filter_map(|slot| slot.as_ref().map(|s| &s.node))
    }

    fn tick_node(&mut self, key: usize, round: u64) {
        let Some(slot) = self.slots[key].as_mut() else {
            return;
        };
        for message in slot.inbox.drain(..) {
            let _ = slot.node.receive(message, &mut slot.rng);
        }
        if self.fault.node_acts(slot.node.id(), round) {
            if let InitiateOutcome::Sent { to, message, .. } = slot.node.initiate(&mut slot.rng) {
                self.send(key, round, to, message);
            }
        }
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
        let mut live = self.live_keys();
        if live.is_empty() {
            return Err("no live sponsor to join through".into());
        }
        for _ in 0..count {
            let id = NodeId::new(self.slot_of.len() as u64);
            let d_l = self.sf.lower_threshold();
            let sponsor_key = live[self.rng.gen_range(0..live.len())];
            let mut ids: Vec<NodeId> = Vec::with_capacity(d_l);
            let sponsor = &self.slots[sponsor_key].as_ref().expect("live key").node;
            let mut pool: Vec<NodeId> = sponsor.view().ids().collect();
            pool.push(sponsor.id());
            pool.sort_unstable();
            pool.dedup();
            pool.shuffle(&mut self.rng);
            for candidate in pool {
                if ids.len() == d_l {
                    break;
                }
                if candidate != id && slot_key(&self.slot_of, candidate).is_some() {
                    ids.push(candidate);
                }
            }
            if ids.len() < d_l {
                // Top up with other live nodes' own ids.
                let mut extra = live.clone();
                extra.shuffle(&mut self.rng);
                for key in extra {
                    if ids.len() == d_l {
                        break;
                    }
                    let nid = self.slots[key].as_ref().expect("live key").node.id();
                    if nid != id && !ids.contains(&nid) {
                        ids.push(nid);
                    }
                }
            }
            if ids.len() < d_l {
                return Err(format!(
                    "cannot gather {d_l} sponsor ids from {} live nodes",
                    live.len()
                ));
            }
            let node = SfNode::with_view(id, self.sf, &ids).map_err(|e| e.to_string())?;
            let key = self.place(node);
            live.push(key);
            let generation = self.generations[key];
            let delay = self.rng.gen_range(0..WHEEL_SLOTS as u64);
            self.wheel.schedule(delay, WheelItem { key, generation });
        }
        self.nodes_gauge.set(live.len() as f64);
        Ok(live.len())
    }

    fn handle_leave(&mut self, count: usize) -> Result<usize, String> {
        let mut live = self.live_keys();
        if count == 0 {
            return Err("leave count must be positive".into());
        }
        if count >= live.len() {
            return Err(format!("refusing to remove all {} live nodes", live.len()));
        }
        live.shuffle(&mut self.rng);
        for &key in live.iter().take(count) {
            // The slot's inbox goes with it: whoever reuses the key starts
            // with no mail, and later frames for the id are dead letters.
            let slot = self.slots[key].take().expect("live key");
            self.slot_of[slot.node.id().as_u64() as usize] = NO_SLOT;
            // Invalidate the parked wheel item; the slot index is reusable.
            self.generations[key] += 1;
            self.free.push(key);
        }
        self.checker.record_leaves(count);
        self.departed += count as u64;
        let remaining = live.len() - count;
        self.nodes_gauge.set(remaining as f64);
        Ok(remaining)
    }

    fn handle_fault(&mut self, line: &str) -> Result<String, String> {
        let now = self.wheel.rounds();
        let mut fault = compile_fault_line(line, now, self.config.seed, &self.fault)?;
        if let PhaseFault::Victims { count, .. } = fault.phases()[0].1 {
            let graph = MembershipGraph::from_nodes(self.live_nodes());
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
        let outcome = {
            let nodes = self.slots.iter().filter_map(|slot| slot.as_ref().map(|s| &s.node));
            self.checker.check(round, nodes, totals)
        };
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

    /// Refresh the cheap fields after a control command, keeping the last
    /// check's measured stats.
    fn publish_light_snapshot(&self) {
        let mut snap = self.snapshot.lock();
        snap.round = self.wheel.rounds();
        // Every slot is seated or on the free list.
        snap.live = self.slots.len() - self.free.len();
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
        for slot in state.slots.iter().flatten() {
            streams.extend([&slot.rng, &slot.loss_rng]);
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
        for (key, slot) in state.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            live += 1;
            assert_eq!(slot_key(&state.slot_of, slot.node.id()), Some(key));
        }
        assert_eq!(live, 19);
        // The three that left are unmapped, whoever took their slots.
        assert_eq!(state.slot_of.iter().filter(|&&key| key == NO_SLOT).count(), 3);
        assert_eq!(state.slot_of.len(), 16 + 4 + 2, "one entry per id ever issued");
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
        let mailed: Vec<usize> =
            (0..16).filter(|&k| !state.slots[k].as_ref().unwrap().inbox.is_empty()).collect();
        assert!(!mailed.is_empty(), "16 initiations must have reached someone");
        state.handle_leave(10).unwrap();
        state.handle_join(10).unwrap();
        for slot in state.slots.iter().flatten() {
            if slot.node.id().as_u64() >= 16 {
                assert!(slot.inbox.is_empty(), "joiner {} inherited mail", slot.node.id());
            }
        }
    }

    /// A lossless fleet of 16 (ids = slot keys 0..16) and a message to send
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
        assert!(state.slots.iter().flatten().all(|slot| slot.inbox.is_empty()));

        // After the window the wire heals, with no second command.
        assert_eq!(state.fault_kind(200), "none");
        state.send(0, 200, NodeId::new(1), message);
        for _ in 0..200 {
            state.drain_socket();
            if !state.slots[1].as_ref().unwrap().inbox.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(state.slots[1].as_ref().unwrap().inbox, [message]);
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
            if !state.slots[0].as_ref().unwrap().inbox.is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(state.slots[0].as_ref().unwrap().inbox, sent);
        assert_eq!(counter(&state, "daemon.net.datagrams"), 1, "one datagram for the three");
        assert_eq!(WireLedger::read(&state.registry).in_flight(), 0);
    }

    #[test]
    fn the_outbox_goes_out_at_every_drain_chunk() {
        let mut state = boot(DaemonConfig { initial_nodes: 640, ..tiny_config() }).unwrap();
        let due: Vec<WheelItem> = (0..640).map(|key| WheelItem { key, generation: 0 }).collect();
        state.tick_due(&due, 1);
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
        let gone = state.slot_of.iter().position(|&key| key == NO_SLOT).unwrap();
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
        let due: Vec<WheelItem> = (0..16).map(|key| WheelItem { key, generation: 0 }).collect();
        for round in 1..=100 {
            state.tick_due(&due, round);
        }
        // With no leaves, the fleet's own counters hold every send.
        let fleet = |count: fn(&sandf_core::NodeStats) -> u64| -> u64 {
            state.live_nodes().map(|node| count(node.stats())).sum()
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
        for slot in state.slots.iter().flatten().filter(|slot| slot.node.id().as_u64() >= 16) {
            assert_eq!(slot.node.view().ids().count(), state.sf.lower_threshold());
            for id in slot.node.view().ids() {
                assert!(
                    slot_key(&state.slot_of, id).is_some(),
                    "{} got departed {id}",
                    slot.node.id()
                );
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
}
