//! Bridges the engine's step-event stream into `sandf-obs`.
//!
//! [`SimRecorder`] is a [`StepSubscriber`] that mirrors every
//! [`StepReport`] into `sim.step.*` counters and (optionally) a structured
//! [`EventJournal`]. Its counters are defined to track [`SimStats`](crate::SimStats) exactly
//! — see the `recorder_matches_sim_stats` test — so an external scraper
//! reading the metrics registry sees the same ledger the simulation keeps
//! internally.
//!
//! Counter names:
//!
//! | metric                  | meaning                                      |
//! |-------------------------|----------------------------------------------|
//! | `sim.step.actions`      | initiate steps executed                      |
//! | `sim.step.self_loops`   | actions that were self-loop transformations  |
//! | `sim.step.sent`         | messages produced                            |
//! | `sim.step.lost`         | messages dropped by the loss model           |
//! | `sim.step.dead_letters` | messages addressed to departed nodes         |
//! | `sim.step.stored`       | messages delivered and stored                |
//! | `sim.step.deleted`      | messages delivered but deleted (full view)   |
//! | `sim.step.duplications` | sends that duplicated (`d(u) = d_L`)         |
//! | `sim.step.in_flight`    | messages queued for delayed delivery         |
//! | `sim.step.skipped`      | steps skipped by a closed capacity gate      |

use sandf_obs::{CounterHandle, EventJournal, JournalEvent, MetricsRegistry};

use crate::engine::{StepEvent, StepPhase, StepReport, StepSubscriber};

/// A step subscriber recording `sim.step.*` counters and, optionally, a
/// structured event journal.
#[derive(Clone, Debug)]
pub struct SimRecorder {
    journal: Option<EventJournal>,
    actions: CounterHandle,
    self_loops: CounterHandle,
    sent: CounterHandle,
    lost: CounterHandle,
    dead_letters: CounterHandle,
    stored: CounterHandle,
    deleted: CounterHandle,
    duplications: CounterHandle,
    in_flight: CounterHandle,
    skipped: CounterHandle,
}

impl SimRecorder {
    /// Creates a recorder registering its counters in `registry`, with no
    /// journal.
    #[must_use]
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            journal: None,
            actions: registry.counter("sim.step.actions"),
            self_loops: registry.counter("sim.step.self_loops"),
            sent: registry.counter("sim.step.sent"),
            lost: registry.counter("sim.step.lost"),
            dead_letters: registry.counter("sim.step.dead_letters"),
            stored: registry.counter("sim.step.stored"),
            deleted: registry.counter("sim.step.deleted"),
            duplications: registry.counter("sim.step.duplications"),
            in_flight: registry.counter("sim.step.in_flight"),
            skipped: registry.counter("sim.step.skipped"),
        }
    }

    /// Creates a recorder that additionally mirrors every report into
    /// `journal`, stamped with the simulation's global step counter as the
    /// logical time.
    #[must_use]
    pub fn with_journal(registry: &MetricsRegistry, journal: EventJournal) -> Self {
        let mut recorder = Self::new(registry);
        recorder.journal = Some(journal);
        recorder
    }

    /// The attached journal, if any.
    #[must_use]
    pub fn journal(&self) -> Option<&EventJournal> {
        self.journal.as_ref()
    }

    fn to_journal_event(report: &StepReport) -> JournalEvent {
        let initiator = report.initiator;
        match report.event {
            StepEvent::SelfLoop => JournalEvent::SelfLoop { initiator },
            StepEvent::Skipped => JournalEvent::Skipped { initiator },
            StepEvent::Lost { to, message, duplicated } => {
                JournalEvent::Lost { initiator, to, payload: message.payload, duplicated }
            }
            StepEvent::DeadLetter { to, message, duplicated } => {
                JournalEvent::DeadLetter { initiator, to, payload: message.payload, duplicated }
            }
            StepEvent::Delivered { to, message, duplicated, deleted } => JournalEvent::Delivered {
                initiator,
                to,
                payload: message.payload,
                duplicated,
                deleted,
            },
            StepEvent::InFlight { to, message, duplicated, deliver_at } => JournalEvent::InFlight {
                initiator,
                to,
                payload: message.payload,
                duplicated,
                deliver_at,
            },
        }
    }
}

impl StepSubscriber for SimRecorder {
    fn on_step(&mut self, report: &StepReport) {
        match report.phase {
            StepPhase::Action if matches!(report.event, StepEvent::Skipped) => {
                // A closed capacity gate: no action ran, so only the
                // skipped counter moves (mirroring SimStats).
                self.skipped.inc();
            }
            StepPhase::Action => {
                self.actions.inc();
                match report.event {
                    StepEvent::SelfLoop => self.self_loops.inc(),
                    StepEvent::Skipped => unreachable!("handled by the guard arm above"),
                    StepEvent::Lost { duplicated, .. } => {
                        self.sent.inc();
                        self.lost.inc();
                        if duplicated {
                            self.duplications.inc();
                        }
                    }
                    StepEvent::DeadLetter { duplicated, .. } => {
                        self.sent.inc();
                        self.dead_letters.inc();
                        if duplicated {
                            self.duplications.inc();
                        }
                    }
                    StepEvent::Delivered { duplicated, deleted, .. } => {
                        self.sent.inc();
                        if duplicated {
                            self.duplications.inc();
                        }
                        if deleted {
                            self.deleted.inc();
                        } else {
                            self.stored.inc();
                        }
                    }
                    StepEvent::InFlight { duplicated, .. } => {
                        self.sent.inc();
                        self.in_flight.inc();
                        if duplicated {
                            self.duplications.inc();
                        }
                    }
                }
            }
            // Delivery-phase reports complete an earlier InFlight send: only
            // the receive-side counters move (the send was already counted).
            StepPhase::Delivery => match report.event {
                StepEvent::Delivered { deleted, .. } => {
                    if deleted {
                        self.deleted.inc();
                    } else {
                        self.stored.inc();
                    }
                }
                StepEvent::DeadLetter { .. } => self.dead_letters.inc(),
                _ => {}
            },
        }
        if let Some(journal) = &self.journal {
            journal.record(report.step, Self::to_journal_event(report));
        }
    }
}

#[cfg(test)]
mod tests {
    use sandf_obs::MetricsRegistry;

    use crate::engine::DelayModel;
    use crate::flat::FlatSimulation;
    use crate::loss::UniformLoss;
    use crate::topology;
    use crate::traits::Engine;

    use super::*;

    fn config() -> sandf_core::SfConfig {
        sandf_core::SfConfig::new(12, 4).unwrap()
    }

    fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
        registry.counter_value(name).unwrap()
    }

    #[test]
    fn recorder_matches_sim_stats() {
        let registry = MetricsRegistry::new();
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.1).unwrap(), 41);
        sim.subscribe(Box::new(SimRecorder::new(&registry)));
        for _ in 0..800 {
            sim.step();
        }
        let s = sim.stats();
        assert_eq!(counter(&registry, "sim.step.actions"), s.actions);
        assert_eq!(counter(&registry, "sim.step.self_loops"), s.self_loops);
        assert_eq!(counter(&registry, "sim.step.sent"), s.sent);
        assert_eq!(counter(&registry, "sim.step.lost"), s.lost);
        assert_eq!(counter(&registry, "sim.step.dead_letters"), s.dead_letters);
        assert_eq!(counter(&registry, "sim.step.stored"), s.stored);
        assert_eq!(counter(&registry, "sim.step.deleted"), s.deleted);
        assert_eq!(counter(&registry, "sim.step.duplications"), s.duplications);
    }

    #[test]
    fn recorder_matches_sim_stats_under_delay() {
        // Delivery-phase reports must not double-count sends, and delayed
        // deliveries must land in stored/deleted once they complete.
        let registry = MetricsRegistry::new();
        let nodes = topology::circulant(24, config(), 4);
        let mut sim = FlatSimulation::with_delay(
            nodes,
            UniformLoss::new(0.05).unwrap(),
            DelayModel::UniformSteps { max: 40 },
            43,
        );
        sim.subscribe(Box::new(SimRecorder::new(&registry)));
        for _ in 0..1_000 {
            sim.step();
        }
        sim.settle();
        let s = sim.stats();
        assert_eq!(counter(&registry, "sim.step.actions"), s.actions);
        assert_eq!(counter(&registry, "sim.step.sent"), s.sent);
        assert_eq!(counter(&registry, "sim.step.stored"), s.stored);
        assert_eq!(counter(&registry, "sim.step.deleted"), s.deleted);
        assert_eq!(counter(&registry, "sim.step.dead_letters"), s.dead_letters);
        assert_eq!(
            counter(&registry, "sim.step.sent"),
            counter(&registry, "sim.step.lost")
                + counter(&registry, "sim.step.dead_letters")
                + counter(&registry, "sim.step.stored")
                + counter(&registry, "sim.step.deleted"),
            "ledger must balance after settle"
        );
    }

    #[test]
    fn journal_is_seed_stable() {
        let run = || {
            let registry = MetricsRegistry::new();
            let journal = sandf_obs::EventJournal::new(4_096);
            let nodes = topology::circulant(24, config(), 4);
            let mut sim = FlatSimulation::new(nodes, UniformLoss::new(0.1).unwrap(), 47);
            sim.subscribe(Box::new(SimRecorder::with_journal(&registry, journal.clone())));
            for _ in 0..300 {
                sim.step();
            }
            journal.to_jsonl()
        };
        assert_eq!(run(), run(), "same seed must produce a byte-identical journal");
    }
}
