//! The structured event journal: a bounded ring buffer of protocol events
//! with JSONL export.
//!
//! Every recorder writes the same vocabulary of events — the simulator's
//! step stream (self-loops, skips, losses, deliveries, in-flight sends)
//! and the live invariant checker's violations — so one run's journal can
//! be read end to end, or replayed to debug a divergence.
//!
//! Journal contents are deterministic for a fixed seed in single-threaded
//! simulation runs: entries carry logical times (simulation steps, or the
//! checker's round), never wall-clock.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use sandf_core::NodeId;

/// One structured protocol event, the union of what the instrumented
/// layers emit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JournalEvent {
    /// A simulation step picked an empty slot; nothing was sent.
    SelfLoop {
        /// The initiating node.
        initiator: NodeId,
    },
    /// A simulation step was skipped by a closed capacity gate (the
    /// node's fault model declined the action for this round).
    Skipped {
        /// The node whose step was skipped.
        initiator: NodeId,
    },
    /// A simulated message was dropped by the loss model.
    Lost {
        /// The initiating node.
        initiator: NodeId,
        /// The intended receiver.
        to: NodeId,
        /// The forwarded id.
        payload: NodeId,
        /// Whether the send duplicated.
        duplicated: bool,
    },
    /// A simulated message was addressed to a departed node.
    DeadLetter {
        /// The initiating node.
        initiator: NodeId,
        /// The departed receiver.
        to: NodeId,
        /// The forwarded id.
        payload: NodeId,
        /// Whether the send duplicated.
        duplicated: bool,
    },
    /// A simulated message was delivered.
    Delivered {
        /// The initiating node.
        initiator: NodeId,
        /// The receiver.
        to: NodeId,
        /// The forwarded id.
        payload: NodeId,
        /// Whether the send duplicated.
        duplicated: bool,
        /// Whether the receiver deleted the ids (full view).
        deleted: bool,
    },
    /// A simulated message was queued for later delivery.
    InFlight {
        /// The initiating node.
        initiator: NodeId,
        /// The receiver.
        to: NodeId,
        /// The forwarded id.
        payload: NodeId,
        /// Whether the send duplicated.
        duplicated: bool,
        /// The global step at which delivery is scheduled.
        deliver_at: u64,
    },
    /// A live invariant check found a node outside the Observation 5.1
    /// outdegree bounds (even, within `[d_L, s]`).
    DegreeViolation {
        /// The offending node.
        node: NodeId,
        /// Its observed outdegree.
        degree: u32,
        /// The lower bound `d_L`.
        lo: u32,
        /// The upper bound `s` (view size).
        hi: u32,
    },
    /// A live invariant check found the measured stale-edge fraction above
    /// the Lemma 6.10 decay ceiling.
    StaleViolation {
        /// Measured stale fraction, in parts per million.
        stale_ppm: u64,
        /// The ceiling it exceeded, in parts per million.
        ceiling_ppm: u64,
    },
}

impl JournalEvent {
    /// The event's kind tag, as written to the JSONL `kind` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::SelfLoop { .. } => "self_loop",
            Self::Skipped { .. } => "skipped",
            Self::Lost { .. } => "lost",
            Self::DeadLetter { .. } => "dead_letter",
            Self::Delivered { .. } => "delivered",
            Self::InFlight { .. } => "in_flight",
            Self::DegreeViolation { .. } => "degree_violation",
            Self::StaleViolation { .. } => "stale_violation",
        }
    }
}

/// One journal record: a sequence number, the recorder's logical time, and
/// the event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JournalEntry {
    /// Global record index (monotone across the whole journal, including
    /// entries the ring has since evicted).
    pub seq: u64,
    /// The recorder's logical time (simulation step, daemon round) —
    /// never wall-clock, so journals are seed-stable.
    pub time: u64,
    /// The event.
    pub event: JournalEvent,
}

impl JournalEntry {
    /// Renders the entry as one JSON object (one JSONL line, no trailing
    /// newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"t\":{},\"kind\":\"{}\"",
            self.seq,
            self.time,
            self.event.kind()
        );
        match self.event {
            JournalEvent::SelfLoop { initiator } | JournalEvent::Skipped { initiator } => {
                let _ = write!(out, ",\"initiator\":{}", initiator.as_u64());
            }
            JournalEvent::Lost { initiator, to, payload, duplicated }
            | JournalEvent::DeadLetter { initiator, to, payload, duplicated } => {
                let _ = write!(
                    out,
                    ",\"initiator\":{},\"to\":{},\"id\":{},\"dup\":{duplicated}",
                    initiator.as_u64(),
                    to.as_u64(),
                    payload.as_u64()
                );
            }
            JournalEvent::Delivered { initiator, to, payload, duplicated, deleted } => {
                let _ = write!(
                    out,
                    ",\"initiator\":{},\"to\":{},\"id\":{},\"dup\":{duplicated},\"del\":{deleted}",
                    initiator.as_u64(),
                    to.as_u64(),
                    payload.as_u64()
                );
            }
            JournalEvent::InFlight { initiator, to, payload, duplicated, deliver_at } => {
                let _ = write!(
                    out,
                    ",\"initiator\":{},\"to\":{},\"id\":{},\"dup\":{duplicated},\"deliver_at\":{deliver_at}",
                    initiator.as_u64(),
                    to.as_u64(),
                    payload.as_u64()
                );
            }
            JournalEvent::DegreeViolation { node, degree, lo, hi } => {
                let _ = write!(
                    out,
                    ",\"node\":{},\"degree\":{degree},\"lo\":{lo},\"hi\":{hi}",
                    node.as_u64()
                );
            }
            JournalEvent::StaleViolation { stale_ppm, ceiling_ppm } => {
                let _ = write!(out, ",\"stale_ppm\":{stale_ppm},\"ceiling_ppm\":{ceiling_ppm}");
            }
        }
        out.push('}');
        out
    }
}

#[derive(Debug)]
struct JournalInner {
    capacity: usize,
    next_seq: u64,
    evicted: u64,
    buf: VecDeque<JournalEntry>,
}

/// A bounded ring-buffer journal. Clone-cheap: clones share the buffer,
/// so one journal can collect from several layers (behind a mutex — in
/// single-threaded simulation runs contention is zero and ordering is
/// deterministic).
#[derive(Clone, Debug)]
pub struct EventJournal {
    inner: Arc<Mutex<JournalInner>>,
}

impl EventJournal {
    /// Creates a journal keeping the most recent `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        Self {
            inner: Arc::new(Mutex::new(JournalInner {
                capacity,
                next_seq: 0,
                evicted: 0,
                buf: VecDeque::with_capacity(capacity),
            })),
        }
    }

    /// Appends an event at the given logical time, evicting the oldest
    /// entry if the ring is full.
    pub fn record(&self, time: u64, event: JournalEvent) {
        let mut inner = self.inner.lock();
        if inner.buf.len() == inner.capacity {
            inner.buf.pop_front();
            inner.evicted += 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.buf.push_back(JournalEntry { seq, time, event });
    }

    /// Entries currently retained (oldest first).
    #[must_use]
    pub fn entries(&self) -> Vec<JournalEntry> {
        self.inner.lock().buf.iter().copied().collect()
    }

    /// Number of entries currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Whether nothing is retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.lock().buf.is_empty()
    }

    /// Total events ever recorded (retained + evicted).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Events evicted by the ring bound.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.inner.lock().evicted
    }

    /// Discards all retained entries (sequence numbers keep counting).
    pub fn clear(&self) {
        self.inner.lock().buf.clear();
    }

    /// The retained entries as JSONL (one JSON object per line, oldest
    /// first, trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::with_capacity(inner.buf.len() * 96);
        for entry in &inner.buf {
            out.push_str(&entry.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn records_in_order_with_sequence_numbers() {
        let journal = EventJournal::new(8);
        journal.record(1, JournalEvent::SelfLoop { initiator: id(3) });
        journal.record(2, JournalEvent::Skipped { initiator: id(0) });
        let entries = journal.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].seq, 0);
        assert_eq!(entries[1].seq, 1);
        assert_eq!(entries[1].time, 2);
        assert_eq!(journal.total_recorded(), 2);
        assert_eq!(journal.evicted(), 0);
    }

    #[test]
    fn ring_evicts_oldest_beyond_capacity() {
        let journal = EventJournal::new(3);
        for t in 0..5 {
            journal.record(t, JournalEvent::SelfLoop { initiator: id(t) });
        }
        let entries = journal.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].seq, 2, "oldest retained entry is the third recorded");
        assert_eq!(journal.evicted(), 2);
        assert_eq!(journal.total_recorded(), 5);
    }

    #[test]
    fn jsonl_lines_are_valid_objects_per_event_kind() {
        let journal = EventJournal::new(16);
        journal.record(0, JournalEvent::SelfLoop { initiator: id(1) });
        journal.record(
            1,
            JournalEvent::Lost { initiator: id(1), to: id(2), payload: id(3), duplicated: true },
        );
        journal.record(
            2,
            JournalEvent::Delivered {
                initiator: id(1),
                to: id(2),
                payload: id(3),
                duplicated: false,
                deleted: true,
            },
        );
        journal.record(
            3,
            JournalEvent::InFlight {
                initiator: id(1),
                to: id(2),
                payload: id(3),
                duplicated: false,
                deliver_at: 9,
            },
        );
        journal.record(4, JournalEvent::Skipped { initiator: id(4) });
        journal.record(
            5,
            JournalEvent::DeadLetter {
                initiator: id(4),
                to: id(5),
                payload: id(6),
                duplicated: false,
            },
        );
        journal.record(6, JournalEvent::DegreeViolation { node: id(7), degree: 9, lo: 2, hi: 8 });
        journal.record(7, JournalEvent::StaleViolation { stale_ppm: 120_000, ceiling_ppm: 80_000 });
        let jsonl = journal.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 8);
        assert_eq!(lines[0], "{\"seq\":0,\"t\":0,\"kind\":\"self_loop\",\"initiator\":1}");
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"t\":1,\"kind\":\"lost\",\"initiator\":1,\"to\":2,\"id\":3,\"dup\":true}"
        );
        assert!(lines[2].contains("\"kind\":\"delivered\"") && lines[2].contains("\"del\":true"));
        assert!(lines[3].contains("\"deliver_at\":9"));
        assert!(lines[4].contains("\"kind\":\"skipped\""));
        assert!(lines[5].ends_with(
            "\"kind\":\"dead_letter\",\"initiator\":4,\"to\":5,\"id\":6,\"dup\":false}"
        ));
        assert_eq!(
            lines[6],
            "{\"seq\":6,\"t\":6,\"kind\":\"degree_violation\",\"node\":7,\"degree\":9,\"lo\":2,\"hi\":8}"
        );
        assert_eq!(
            lines[7],
            "{\"seq\":7,\"t\":7,\"kind\":\"stale_violation\",\"stale_ppm\":120000,\"ceiling_ppm\":80000}"
        );
        // Every line is a braced object with balanced quotes.
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('"').count() % 2, 0);
        }
    }

    #[test]
    fn clear_keeps_counting_sequence_numbers() {
        let journal = EventJournal::new(4);
        journal.record(0, JournalEvent::SelfLoop { initiator: id(0) });
        journal.clear();
        assert!(journal.is_empty());
        journal.record(1, JournalEvent::SelfLoop { initiator: id(1) });
        assert_eq!(journal.entries()[0].seq, 1);
    }

    #[test]
    fn clones_share_the_buffer() {
        let journal = EventJournal::new(4);
        let tap = journal.clone();
        tap.record(0, JournalEvent::SelfLoop { initiator: id(7) });
        assert_eq!(journal.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = EventJournal::new(0);
    }
}
