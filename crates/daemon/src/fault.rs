//! The daemon's wire-level fault injector: the PR6 fault zoo applied at
//! the socket boundary, reconfigurable at runtime.
//!
//! The injector sits between each node's [`LossyTransport`] base-loss layer
//! and its handle on the daemon's UDP socket: every outgoing datagram is offered to the currently
//! installed [`ScheduledFault`], and the schedule is shared by all nodes in
//! the process so one `POST /ctl/fault` retargets the whole fleet. Capacity
//! models additionally gate node *ticks* via
//! [`FaultInjector::node_acts`] — the daemon skips the initiate step of a
//! slow node's round, exactly like the simulation engines do.
//!
//! A fault arrives as one line of the workspace's fault grammar
//! ([`sandf_sim::fault`]), `phase <rounds> <model> <args...>`, and is
//! compiled the way a scenario phase is: the model over the next `rounds`
//! rounds, then a lossless open-ended tail. The schedule's own round
//! dispatch makes the fault lapse, so the injector keeps no timer.
//!
//! [`LossyTransport`]: sandf_net::LossyTransport

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sandf_core::{Message, NodeId};
use sandf_net::{AddressBook, Transport, TransportError};
use sandf_obs::{CounterHandle, MetricsRegistry};
use sandf_sim::{FaultCtx, FaultModel, FaultSpec, PhaseFault, ScheduledFault, UniformLoss};

/// Compiles a `/ctl/fault` body received in round `now`: `none` (clear), or
/// one `phase <rounds> <model> <args...>` line of the shared
/// [fault grammar](sandf_sim::fault) — the model over rounds
/// `[now + 1, now + 1 + rounds)`, then healed. `salt` seeds the hash-derived
/// link maps and cohorts. A `victims` schedule comes back unaimed.
///
/// # Errors
///
/// Returns the grammar's rejection message (served as HTTP 400).
pub(crate) fn compile_fault_line(
    line: &str,
    now: u64,
    salt: u64,
) -> Result<Option<(FaultSpec, ScheduledFault)>, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.split_first() {
        Some((&"none", [])) => Ok(None),
        Some((&"phase", args)) => {
            let (rounds, spec) = FaultSpec::parse_phase(args)?;
            let start = now + 1;
            // Strictly below the healed tail's open end, however long the
            // requested phase.
            let end = start.saturating_add(rounds as u64).min(u64::MAX - 1);
            let schedule = ScheduledFault::new(vec![
                (end, spec.build(start, rounds as u64, salt)),
                (u64::MAX, PhaseFault::Uniform(UniformLoss::none())),
            ]);
            Ok(Some((spec, schedule)))
        }
        _ => Err(format!("expected `none` or `phase <rounds> <fault> <args...>`, got {line:?}")),
    }
}

#[derive(Debug)]
struct InjectorState {
    fault: Option<ScheduledFault>,
    kind: &'static str,
}

/// The shared, runtime-reconfigurable fault state: one per daemon,
/// referenced by every node's [`FaultedTransport`].
///
/// Shared-model semantics: stateful models (Gilbert–Elliott's channel
/// state) evolve across *all* senders' messages rather than per channel —
/// the burst correlation becomes process-global, which is the interesting
/// adversarial regime for a single-process fleet anyway.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    state: Arc<Mutex<InjectorState>>,
    round: Arc<AtomicU64>,
    dropped: CounterHandle,
    dead_letters: CounterHandle,
}

impl FaultInjector {
    /// Creates an injector with no fault installed, registering
    /// `daemon.fault.dropped` and `daemon.net.dead_letters` counters.
    #[must_use]
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            state: Arc::new(Mutex::new(InjectorState { fault: None, kind: "none" })),
            round: Arc::new(AtomicU64::new(0)),
            dropped: registry.counter("daemon.fault.dropped"),
            dead_letters: registry.counter("daemon.net.dead_letters"),
        }
    }

    /// Installs (or clears) the fault: `fault`'s first phase is the model
    /// tagged `kind`, every later phase the healed tail.
    pub fn install(&self, fault: Option<ScheduledFault>, kind: &'static str) {
        let mut state = self.state.lock();
        state.fault = fault;
        state.kind = kind;
    }

    /// The tag of the model in force this round (`"none"` when clear or
    /// lapsed).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        let state = self.state.lock();
        match &state.fault {
            Some(fault) if fault.phase_index(self.round()) == 0 => state.kind,
            _ => "none",
        }
    }

    /// Publishes the daemon's current round, used as the [`FaultCtx`]
    /// round for window-based models.
    pub fn set_round(&self, round: u64) {
        self.round.store(round, Ordering::Relaxed);
    }

    /// The round last published via [`set_round`](Self::set_round).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// Whether `node` initiates this round (capacity models gate ticks).
    #[must_use]
    pub fn node_acts(&self, node: NodeId, round: u64) -> bool {
        match &self.state.lock().fault {
            Some(fault) => fault.node_acts(node, round),
            None => true,
        }
    }

    /// Messages dropped by the injected model so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Messages addressed to departed peers so far: sends the
    /// [`AddressBook`] could not resolve, and frames that came off the wire
    /// for an id with no live node.
    #[must_use]
    pub fn dead_letters(&self) -> u64 {
        self.dead_letters.get()
    }

    /// Counts `count` frames that came off the wire for an id with no live
    /// node (their peer left while they were in flight).
    pub(crate) fn record_dead_letters(&self, count: u64) {
        self.dead_letters.add(count);
    }

    fn drops(&self, from: NodeId, to: NodeId, rng: &mut StdRng) -> bool {
        let mut state = self.state.lock();
        let Some(fault) = state.fault.as_mut() else {
            return false;
        };
        let ctx = FaultCtx { from, to, round: self.round.load(Ordering::Relaxed) };
        fault.drops(ctx, rng)
    }
}

/// A transport decorator applying the daemon's shared [`FaultInjector`] to
/// every outgoing datagram, and counting dead letters (sends to peers no
/// longer in the [`AddressBook`]) so the live invariant checker can fold
/// them into the realized loss rate.
#[derive(Debug)]
pub struct FaultedTransport<T> {
    inner: T,
    injector: FaultInjector,
    book: AddressBook,
    rng: StdRng,
}

impl<T: Transport> FaultedTransport<T> {
    /// Wraps `inner`; `seed` decorrelates this sender's fault draws.
    #[must_use]
    pub fn new(inner: T, injector: FaultInjector, book: AddressBook, seed: u64) -> Self {
        Self { inner, injector, book, rng: StdRng::seed_from_u64(seed) }
    }

    /// The wrapped transport.
    #[must_use]
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for FaultedTransport<T> {
    fn local_id(&self) -> NodeId {
        self.inner.local_id()
    }

    fn send(&mut self, to: NodeId, message: Message) -> Result<(), TransportError> {
        if self.injector.drops(self.local_id(), to, &mut self.rng) {
            self.injector.dropped.inc();
            return Ok(());
        }
        if self.book.resolve(to).is_none() {
            // The peer left; the datagram goes nowhere. Counted so the
            // checker's realized loss includes churn-induced loss.
            self.injector.dead_letters.inc();
        }
        self.inner.send(to, message)
    }

    fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
        self.inner.try_recv()
    }

    fn recv_batch(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, TransportError> {
        self.inner.recv_batch(out, max)
    }
}

#[cfg(test)]
mod tests {
    use sandf_net::UdpTransport;

    use super::*;

    fn compile(line: &str, now: u64) -> ScheduledFault {
        compile_fault_line(line, now, 0).expect("legal line").expect("a fault").1
    }

    #[test]
    fn every_model_compiles_to_a_phase_with_a_healed_tail() {
        for line in [
            "phase 5 uniform 0.25",
            "phase 5 bursty 0.1 0.5 0.01 0.8",
            "phase 5 partition 3 0.9 0.05",
            "phase 5 perlink 7 0.2 0.01 0.9",
            "phase 5 capacity 7 0.3 4 0",
            "phase 5 victims 4 0.9 0.1",
        ] {
            let (spec, schedule) = compile_fault_line(line, 10, 0).unwrap().unwrap();
            assert_eq!(format!("phase 5 {spec}"), line);
            assert_eq!(schedule.phases()[0].0, 16, "line {line:?}");
            assert_eq!(schedule.rate_at(16), 0.0, "line {line:?} must heal");
        }
        assert_eq!(compile_fault_line("none", 0, 0), Ok(None));
        // An absurd duration still yields a well-formed schedule.
        let forever = compile(&format!("phase {} uniform 0.5", usize::MAX), 3);
        assert_eq!(forever.phase_index(u64::MAX - 2), 0);
    }

    #[test]
    fn lines_outside_the_grammar_are_rejected() {
        for (line, fragment) in [
            ("", "expected `none` or `phase"),
            ("none 3", "expected `none` or `phase"),
            ("uniform 0.5", "expected `none` or `phase"),
            ("phase 5 wibble 0.5", "unknown fault model"),
            ("phase 0 uniform 0.5", "at least 1 round"),
            ("phase 5 partition 2 50 1.0", "outside [0, 1]"),
        ] {
            let err = compile_fault_line(line, 0, 0).unwrap_err();
            assert!(err.contains(fragment), "line {line:?}: error {err:?} lacks {fragment:?}");
        }
    }

    #[test]
    fn partition_command_starts_at_the_next_round() {
        let schedule = compile("phase 50 partition 2 1.0 0", 41);
        let PhaseFault::Partition(p) = &schedule.phases()[0].1 else {
            panic!("expected a partition");
        };
        assert!(!p.active_in(41));
        assert!(p.active_in(42));
        assert!(p.active_in(91));
        assert!(!p.active_in(92));
        assert_eq!(schedule.phase_index(91), 0);
        assert_eq!(schedule.phase_index(92), 1);
    }

    #[test]
    fn injector_drops_cross_region_messages_during_partition() {
        let registry = MetricsRegistry::new();
        let injector = FaultInjector::new(&registry);
        let book = AddressBook::new();
        let mut a = FaultedTransport::new(
            UdpTransport::bind_loopback(NodeId::new(0), &book).unwrap(),
            injector.clone(),
            book.clone(),
            7,
        );
        let mut b = UdpTransport::bind_loopback(NodeId::new(1), &book).unwrap();

        injector.install(Some(compile("phase 100 partition 2 1.0 0", 0)), "partition");
        injector.set_round(5);
        assert_eq!(injector.kind(), "partition");

        // 0 and 1 are in different regions (id mod 2): everything drops.
        for k in 0..20 {
            a.send(NodeId::new(1), Message::new(NodeId::new(0), NodeId::new(k), false)).unwrap();
        }
        assert_eq!(injector.dropped(), 20);
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(b.try_recv().unwrap(), None);

        // After the window the wire heals, with no second command.
        injector.set_round(200);
        assert_eq!(injector.kind(), "none");
        let msg = Message::new(NodeId::new(0), NodeId::new(9), false);
        a.send(NodeId::new(1), msg).unwrap();
        let mut got = None;
        for _ in 0..200 {
            if let Some(m) = b.try_recv().unwrap() {
                got = Some(m);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(got, Some(msg));
        assert_eq!(injector.dropped(), 20);
    }

    #[test]
    fn dead_letters_count_unresolvable_peers() {
        let registry = MetricsRegistry::new();
        let injector = FaultInjector::new(&registry);
        let book = AddressBook::new();
        let mut a = FaultedTransport::new(
            UdpTransport::bind_loopback(NodeId::new(0), &book).unwrap(),
            injector.clone(),
            book.clone(),
            8,
        );
        a.send(NodeId::new(99), Message::new(NodeId::new(0), NodeId::new(1), false)).unwrap();
        assert_eq!(injector.dead_letters(), 1);
        assert_eq!(registry.counter_value("daemon.net.dead_letters"), Some(1));
    }
}
