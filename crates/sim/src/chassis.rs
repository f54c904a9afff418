//! What every engine carries besides its scheduler: the step-event
//! observers, the hot-path span histograms and the delivery-ring
//! allocation.

use std::fmt;

use sandf_obs::{duration_buckets, HistogramHandle, MetricsRegistry};

use crate::engine::{DelayModel, StepReport, StepSubscriber};

/// An engine's registered step-event observers. Boxed observers are not
/// clonable, so a clone starts with none — which is what lets the engines
/// derive `Clone`.
pub(crate) struct Subscribers<M>(Vec<Box<dyn StepSubscriber<M>>>);

impl<M> Default for Subscribers<M> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<M> Clone for Subscribers<M> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<M> fmt::Debug for Subscribers<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.len().fmt(f)
    }
}

impl<M> Subscribers<M> {
    pub(crate) fn push(&mut self, subscriber: Box<dyn StepSubscriber<M>>) {
        self.0.push(subscriber);
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Reports `report` to every subscriber, in registration order. Each
    /// engine calls this from its own `#[cold]` out-of-line `notify(&mut
    /// self)`: a call that borrows the whole engine keeps the stepping code
    /// around it as the optimizer laid it out before the list was shared
    /// (borrowing the field alone cost `steady_par` ≈ 10 % of its set-up).
    #[inline]
    pub(crate) fn notify(&mut self, report: &StepReport<M>) {
        for subscriber in &mut self.0 {
            subscriber.on_step(report);
        }
    }
}

/// Span histograms for the serial engines' hot paths (one pair of metric
/// names, so profiled runs are comparable across engines). Clones share
/// the histograms.
#[derive(Clone, Debug)]
pub(crate) struct StepProfile {
    pub(crate) step: HistogramHandle,
    pub(crate) deliver: HistogramHandle,
}

impl StepProfile {
    /// Registers `sim.profile.step_ns` and `sim.profile.deliver_ns` in
    /// `registry`. With a disabled registry the spans never read the clock.
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        Self {
            step: registry.histogram("sim.profile.step_ns", duration_buckets()),
            deliver: registry.histogram("sim.profile.deliver_ns", duration_buckets()),
        }
    }
}

/// The preallocated delivery ring of a delayed arena engine: `max + 1`
/// buckets, so bucket `t % len` holds what is due at time `t`. `None`
/// under [`DelayModel::Immediate`], which keeps the engine's own default.
///
/// # Panics
///
/// Panics when the delay bound is zero.
pub(crate) fn ring_for<T>(delay: DelayModel) -> Option<Vec<Vec<T>>> {
    let DelayModel::UniformSteps { max } = delay else { return None };
    assert!(max > 0, "delay bound must be positive");
    let buckets = usize::try_from(max + 1).expect("delay bound exceeds address space");
    Some((0..buckets).map(|_| Vec::new()).collect())
}
