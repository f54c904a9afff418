//! The daemon's wire-level fault injector: the PR6 fault zoo applied at
//! the socket boundary, reconfigurable at runtime.
//!
//! The injector sits in the loop's one send path, between the base-loss
//! draw and the daemon's UDP socket: every outgoing datagram that survived
//! base loss is offered to the currently installed [`ScheduledFault`]. The
//! event loop owns the one injector, so one `POST /ctl/fault` retargets the
//! whole fleet. Capacity models additionally gate node *ticks* via
//! [`FaultInjector::node_acts`] — the daemon skips the initiate step of a
//! slow node's round, exactly like the simulation engines do.
//!
//! A fault arrives as one line of the workspace's fault grammar
//! ([`sandf_sim::fault`]), `phase <rounds> <model> <args...>`, and is
//! compiled the way a scenario phase is: the model over the next `rounds`
//! rounds, then a lossless open-ended tail. The schedule's own round
//! dispatch makes the fault lapse, so the injector keeps no timer.

use rand::rngs::StdRng;
use sandf_core::NodeId;
use sandf_obs::{CounterHandle, MetricsRegistry};
use sandf_sim::{FaultCtx, FaultModel, PhaseFault, ScheduledFault, UniformLoss};

/// Compiles a `/ctl/fault` body received in round `now`: `none` (clear), or
/// one `phase <rounds> <model> <args...>` line of the shared
/// [fault grammar](sandf_sim::fault) — the model over rounds
/// `[now + 1, now + 1 + rounds)`, then healed. `salt` seeds the hash-derived
/// link maps and cohorts. A `victims` schedule comes back unaimed; its
/// first phase is the requested model.
///
/// # Errors
///
/// Returns the grammar's rejection message (served as HTTP 400).
pub(crate) fn compile_fault_line(
    line: &str,
    now: u64,
    salt: u64,
) -> Result<Option<ScheduledFault>, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.split_first() {
        Some((&"none", [])) => Ok(None),
        Some((&"phase", args)) => {
            let (rounds, fault) = PhaseFault::parse_phase(args)?;
            let start = now + 1;
            // Strictly below the healed tail's open end, however long the
            // requested phase.
            let end = start.saturating_add(rounds as u64).min(u64::MAX - 1);
            Ok(Some(ScheduledFault::new(vec![
                (end, fault.placed(start, salt)),
                (u64::MAX, PhaseFault::Uniform(UniformLoss::none())),
            ])))
        }
        _ => Err(format!("expected `none` or `phase <rounds> <fault> <args...>`, got {line:?}")),
    }
}

/// The runtime-reconfigurable fault state, one per daemon, owned by its
/// event loop.
///
/// Shared-model semantics: stateful models (Gilbert–Elliott's channel
/// state) evolve across *all* senders' messages rather than per channel —
/// the burst correlation becomes process-global, which is the interesting
/// adversarial regime for a single-process fleet anyway.
#[derive(Debug)]
pub struct FaultInjector {
    fault: Option<ScheduledFault>,
    dropped: CounterHandle,
}

impl FaultInjector {
    /// Creates an injector with no fault installed, registering the
    /// `daemon.fault.dropped` counter.
    #[must_use]
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self { fault: None, dropped: registry.counter("daemon.fault.dropped") }
    }

    /// Installs (or clears) the fault: `fault`'s first phase is the
    /// injected model, every later phase the healed tail.
    pub fn install(&mut self, fault: Option<ScheduledFault>) {
        self.fault = fault;
    }

    /// The tag of the model in force in `round` (`"none"` when clear or
    /// lapsed).
    #[must_use]
    pub fn kind(&self, round: u64) -> &'static str {
        match &self.fault {
            Some(fault) if fault.phase_index(round) == 0 => fault.phases()[0].1.kind(),
            _ => "none",
        }
    }

    /// Whether `node` initiates this round (capacity models gate ticks).
    #[must_use]
    pub fn node_acts(&self, node: NodeId, round: u64) -> bool {
        match &self.fault {
            Some(fault) => fault.node_acts(node, round),
            None => true,
        }
    }

    /// Messages dropped by the injected model so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Offers one outgoing message to the installed fault, drawing from the
    /// sender's fault stream; a drop is counted in `daemon.fault.dropped`.
    pub(crate) fn drops(&mut self, ctx: FaultCtx, rng: &mut StdRng) -> bool {
        let dropped = self.fault.as_mut().is_some_and(|fault| fault.drops(ctx, rng));
        if dropped {
            self.dropped.inc();
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(line: &str, now: u64) -> ScheduledFault {
        compile_fault_line(line, now, 0).expect("legal line").expect("a fault")
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
            let schedule = compile(line, 10);
            assert_eq!(format!("phase 5 {}", schedule.phases()[0].1), line);
            assert_eq!(schedule.phases()[0].0, 16, "line {line:?}");
            let healed = &schedule.phases()[schedule.phase_index(16)].1;
            assert_eq!(healed.effective_rate(1), 0.0, "line {line:?} must heal");
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
        let mut schedule = compile("phase 50 partition 2 1.0 0", 41);
        // A cross-region message is severed in rounds [42, 92) only.
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(0);
        let mut severed = |round| {
            let ctx = FaultCtx { from: NodeId::new(0), to: NodeId::new(1), round };
            schedule.drops(ctx, &mut rng)
        };
        assert!(!severed(41));
        assert!(severed(42));
        assert!(severed(91));
        assert!(!severed(92));
        assert_eq!(schedule.phase_index(91), 0);
        assert_eq!(schedule.phase_index(92), 1);
    }
}
