//! A single-rotation timer wheel for per-node action ticks.
//!
//! The daemon multiplexes thousands of nodes in one thread; each node must
//! initiate once per protocol round (Section 6.5 defines a round as every
//! node acting once). A heap of `Instant`s would cost `O(log n)` per tick
//! and allocate per reschedule; this wheel is `O(1)` amortized: one
//! rotation equals one round, node `k` lives in slot `k mod W`, and firing
//! a tick pops one slot.
//!
//! Churn cannot resurrect a timer: an item's key is a node's dense index
//! in the daemon's arena, which is never reissued, and the daemon drops an
//! item that fires for a row that has left. The wheel is driven by an
//! external tick counter (`advance_to`), which keeps it pure and
//! deterministic for tests — no clocks inside.

/// One scheduled item: an opaque key (the daemon's dense node index) plus
/// a generation tag the daemon no longer reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WheelItem {
    /// The scheduler's key for this timer (a dense node index).
    pub key: usize,
    /// Unread: keys are never reused, so nothing needs a generation. The
    /// field stays only because the workspace benchmark builds
    /// `WheelItem { key, generation: 0 }`; it goes when that benchmark is
    /// next revised (ROADMAP item 1(c)).
    pub generation: u64,
}

/// A fixed-size timer wheel whose rotation period is one protocol round.
#[derive(Clone, Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<WheelItem>>,
    /// The next tick to fire (ticks already fired are `< current_tick`).
    current_tick: u64,
}

impl TimerWheel {
    /// Creates a wheel with `slot_count` ticks per rotation.
    ///
    /// # Panics
    ///
    /// Panics if `slot_count < 2`.
    #[must_use]
    pub fn new(slot_count: usize) -> Self {
        assert!(slot_count >= 2, "a wheel needs at least 2 slots");
        Self { slots: vec![Vec::new(); slot_count], current_tick: 0 }
    }

    /// Ticks per rotation.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The next tick that will fire.
    #[must_use]
    pub fn current_tick(&self) -> u64 {
        self.current_tick
    }

    /// Completed rotations — the daemon's protocol-round counter.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.current_tick / self.slots.len() as u64
    }

    /// Schedules `item` to fire `delay` ticks from now (`0` = at the next
    /// [`advance_to`](Self::advance_to) that covers the current tick).
    ///
    /// # Panics
    ///
    /// Panics if `delay` is not below the slot count — a single-rotation
    /// wheel cannot represent a longer horizon.
    pub fn schedule(&mut self, delay: u64, item: WheelItem) {
        assert!(
            delay < self.slots.len() as u64,
            "delay {delay} does not fit a {}-slot rotation",
            self.slots.len()
        );
        let slot = ((self.current_tick + delay) % self.slots.len() as u64) as usize;
        self.slots[slot].push(item);
    }

    /// Fires every tick up to and including `tick`, appending due items to
    /// `due` in fire order. Ticks earlier than the cursor are a no-op, so
    /// callers can pass a wall-clock-derived tick index unconditionally.
    pub fn advance_to(&mut self, tick: u64, due: &mut Vec<WheelItem>) {
        while self.current_tick <= tick {
            let slot = (self.current_tick % self.slots.len() as u64) as usize;
            due.append(&mut self.slots[slot]);
            self.current_tick += 1;
        }
    }

    /// Total items currently scheduled (for diagnostics).
    #[must_use]
    pub fn scheduled(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(key: usize) -> WheelItem {
        WheelItem { key, generation: 0 }
    }

    #[test]
    fn fires_in_tick_order() {
        let mut wheel = TimerWheel::new(8);
        wheel.schedule(3, item(3));
        wheel.schedule(1, item(1));
        wheel.schedule(5, item(5));
        let mut due = Vec::new();
        wheel.advance_to(7, &mut due);
        assert_eq!(due.iter().map(|i| i.key).collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(wheel.current_tick(), 8);
        assert_eq!(wheel.scheduled(), 0);
    }

    #[test]
    fn rescheduling_after_fire_lands_one_rotation_later() {
        let mut wheel = TimerWheel::new(4);
        wheel.schedule(0, item(9));
        let mut due = Vec::new();
        wheel.advance_to(0, &mut due);
        assert_eq!(due.len(), 1);
        // The cursor moved past the fired slot; a (W-1)-delay reschedule
        // fires exactly one rotation after the original tick.
        wheel.schedule(3, due[0]);
        due.clear();
        wheel.advance_to(2, &mut due);
        assert!(due.is_empty(), "must not fire early");
        wheel.advance_to(4, &mut due);
        assert_eq!(due.len(), 1);
    }

    #[test]
    fn advance_is_idempotent_for_past_ticks() {
        let mut wheel = TimerWheel::new(4);
        wheel.schedule(0, item(1));
        let mut due = Vec::new();
        wheel.advance_to(1, &mut due);
        let fired = due.len();
        wheel.advance_to(1, &mut due);
        wheel.advance_to(0, &mut due);
        assert_eq!(due.len(), fired);
    }

    #[test]
    fn rounds_count_rotations() {
        let mut wheel = TimerWheel::new(4);
        let mut due = Vec::new();
        assert_eq!(wheel.rounds(), 0);
        wheel.advance_to(3, &mut due);
        assert_eq!(wheel.rounds(), 1);
        wheel.advance_to(11, &mut due);
        assert_eq!(wheel.rounds(), 3);
    }

    #[test]
    fn many_items_share_a_slot() {
        let mut wheel = TimerWheel::new(2);
        for k in 0..10 {
            wheel.schedule(k % 2, item(k as usize));
        }
        let mut due = Vec::new();
        wheel.advance_to(1, &mut due);
        assert_eq!(due.len(), 10);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overlong_delay_is_rejected() {
        let mut wheel = TimerWheel::new(4);
        wheel.schedule(4, item(0));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_wheel_is_rejected() {
        let _ = TimerWheel::new(1);
    }
}
