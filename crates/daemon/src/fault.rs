//! The daemon's fault: one [`ScheduledFault`] per daemon, owned by its
//! event loop and reconfigurable at runtime.
//!
//! Every node tick reaches the schedule through the simulators' one
//! action hop ([`sandf_sim::action_hop`]), exactly as the simulation
//! engines' steps do: capacity models gate the tick through
//! [`node_acts`](sandf_sim::FaultModel::node_acts), skipping the initiate
//! step of a slow node's round, and every send makes one
//! [`drops`](sandf_sim::FaultModel::drops) call, drawing from the sender's
//! one stream. The schedule's last phase is the standing one,
//! `uniform base_loss` (the Section 4.1 channel of
//! [`DaemonConfig::base_loss`](crate::DaemonConfig::base_loss)); every
//! earlier phase was injected. The loop owns the one schedule, so one
//! `POST /ctl/fault` retargets the whole fleet.
//!
//! A fault arrives as one line of the workspace's fault grammar
//! ([`sandf_sim::fault`]), `phase <rounds> <model> <args...>`, and is
//! compiled the way a scenario phase is: the model for the phase, then the
//! standing phase again, open-ended. The injected model *replaces* the
//! base loss for its window instead of stacking on it, so a line loses
//! what it loses in a scenario. The schedule's own round dispatch makes
//! the fault lapse, so the daemon keeps no timer.
//!
//! Shared-channel semantics: the loop keeps one fault channel beside the
//! schedule, so a stateful model (`bursty`'s Gilbert–Elliott chain state)
//! evolves across *all* senders' messages, as on the flat engine, rather
//! than per sender as on par — the burst correlation becomes
//! process-global, which is the interesting adversarial regime for a
//! single-process fleet anyway. Installing a line resets the channel, so
//! every line starts its chain in the good state.

use sandf_sim::{PhaseFault, ScheduledFault};

/// Compiles a `/ctl/fault` body received in round `now` over the
/// `installed` schedule, keeping its standing (last) phase: `none` leaves
/// the standing phase alone, and one `phase <rounds> <model> <args...>`
/// line of the shared [fault grammar](sandf_sim::fault) puts the model in
/// front of it, governing every send from the install instant through
/// round `now + rounds`. A `partition` cut is placed at `now + 1`, so it
/// severs from the next round on; the rest of round `now` sees its `base`
/// rate. `salt` seeds the hash-derived link maps and cohorts. A `victims`
/// model comes back unaimed.
///
/// # Errors
///
/// Returns the grammar's rejection message (served as HTTP 400).
pub(crate) fn compile_fault_line(
    line: &str,
    now: u64,
    salt: u64,
    installed: &ScheduledFault,
) -> Result<ScheduledFault, String> {
    let (_, standing) = installed.phases().last().expect("a schedule has a phase");
    let standing = (u64::MAX, standing.clone());
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.split_first() {
        Some((&"none", [])) => Ok(ScheduledFault::new(vec![standing])),
        Some((&"phase", args)) => {
            let (rounds, fault) = PhaseFault::parse_phase(args)?;
            let start = now + 1;
            // Strictly below the standing phase's open end, however long
            // the requested phase.
            let end = start.saturating_add(rounds as u64).min(u64::MAX - 1);
            Ok(ScheduledFault::new(vec![(end, fault.placed(start, salt)), standing]))
        }
        _ => Err(format!("expected `none` or `phase <rounds> <fault> <args...>`, got {line:?}")),
    }
}

/// The injected model governing `round`: `None` under the standing phase
/// (nothing injected, or the injected phase lapsed).
pub(crate) fn injected(fault: &ScheduledFault, round: u64) -> Option<&PhaseFault> {
    let index = fault.phase_index(round);
    (index + 1 < fault.phases().len()).then(|| &fault.phases()[index].1)
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use sandf_core::NodeId;
    use sandf_sim::{FaultCtx, FaultModel, UniformLoss};

    use super::*;

    /// Compiles `line` in round `now` on a daemon booted with base loss
    /// `base`.
    fn compile(line: &str, now: u64, base: f64) -> Result<ScheduledFault, String> {
        let boot = ScheduledFault::constant(PhaseFault::Uniform(UniformLoss::new(base).unwrap()));
        compile_fault_line(line, now, 0, &boot)
    }

    #[test]
    fn every_model_compiles_to_a_phase_with_a_healed_tail() {
        let standing = compile("none", 0, 0.05).unwrap();
        assert_eq!(injected(&standing, 0), None);
        for line in [
            "phase 5 uniform 0.25",
            "phase 5 bursty 0.1 0.5 0.01 0.8",
            "phase 5 partition 3 0.9 0.05",
            "phase 5 perlink 7 0.2 0.01 0.9",
            "phase 5 capacity 7 0.3 4 0",
            "phase 5 victims 4 0.9 0.1",
        ] {
            let schedule = compile(line, 10, 0.05).unwrap();
            assert_eq!(format!("phase 5 {}", schedule.phases()[0].1), line);
            assert_eq!(schedule.phases()[0].0, 16, "line {line:?}");
            assert_eq!(injected(&schedule, 15), Some(&schedule.phases()[0].1));
            // Healed is the standing phase again, and `none` keeps it alone.
            assert_eq!(injected(&schedule, 16), None, "line {line:?} must lapse");
            assert_eq!(schedule.phases()[1].1, standing.phases()[0].1, "line {line:?}");
            assert_eq!(compile_fault_line("none", 12, 0, &schedule), Ok(standing.clone()));
        }
        // An absurd duration still yields a well-formed schedule.
        let forever = compile(&format!("phase {} uniform 0.5", usize::MAX), 3, 0.05).unwrap();
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
            let err = compile(line, 0, 0.05).unwrap_err();
            assert!(err.contains(fragment), "line {line:?}: error {err:?} lacks {fragment:?}");
        }
    }

    #[test]
    fn partition_command_starts_at_the_next_round() {
        let schedule = compile("phase 50 partition 2 1.0 0", 41, 0.0).unwrap();
        // A cross-region message is severed in rounds [42, 92) only.
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(0);
        let mut channel = Default::default();
        let mut severed = |round| {
            let ctx = FaultCtx { from: NodeId::new(0), to: NodeId::new(1), round };
            schedule.drops(&mut channel, ctx, &mut rng)
        };
        assert!(!severed(41));
        assert!(severed(42));
        assert!(severed(91));
        assert!(!severed(92));
        assert_eq!(schedule.phase_index(91), 0);
        assert_eq!(schedule.phase_index(92), 1);
    }
}
