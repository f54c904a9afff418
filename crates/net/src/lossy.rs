//! A loss-injecting transport decorator.
//!
//! Wraps any [`Transport`] and drops each outgoing message independently
//! with probability `ℓ` — the Section 4.1 loss model layered onto an
//! otherwise reliable channel (e.g. UDP over loopback, which in practice
//! loses nothing). Drops happen on the *send* side, which is
//! indistinguishable from network loss to a protocol that gets no delivery
//! feedback.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandf_core::{Message, NodeId};
use sandf_obs::{CounterHandle, MetricsRegistry};

use crate::transport::{Transport, TransportError};

/// The `<prefix>.sent` / `.dropped` / `.delivered` counter triple a
/// [`LossyTransport`] built [`with_metrics`](LossyTransport::with_metrics)
/// records into.
#[derive(Clone, Debug)]
struct TransportMetrics {
    sent: CounterHandle,
    dropped: CounterHandle,
    delivered: CounterHandle,
}

/// A transport that loses a fraction of outgoing messages.
#[derive(Debug)]
pub struct LossyTransport<T> {
    inner: T,
    rate: f64,
    rng: StdRng,
    dropped: u64,
    sent: u64,
    metrics: Option<TransportMetrics>,
}

impl<T: Transport> LossyTransport<T> {
    /// Wraps `inner`, dropping each message with probability `rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate ≤ 1`.
    #[must_use]
    pub fn new(inner: T, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be a probability");
        Self { inner, rate, rng: StdRng::seed_from_u64(seed), dropped: 0, sent: 0, metrics: None }
    }

    /// Wraps `inner` like [`new`](Self::new), additionally recording
    /// `<prefix>.sent` / `<prefix>.dropped` / `<prefix>.delivered` counters
    /// in `registry` (`delivered` counts messages that passed the injector).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ rate ≤ 1`.
    #[must_use]
    pub fn with_metrics(
        inner: T,
        rate: f64,
        seed: u64,
        registry: &MetricsRegistry,
        prefix: &str,
    ) -> Self {
        let mut lossy = Self::new(inner, rate, seed);
        lossy.metrics = Some(TransportMetrics {
            sent: registry.counter(&format!("{prefix}.sent")),
            dropped: registry.counter(&format!("{prefix}.dropped")),
            delivered: registry.counter(&format!("{prefix}.delivered")),
        });
        lossy
    }

    /// The wrapped transport.
    #[must_use]
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Messages handed to `send` so far.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages dropped by the injector so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<T: Transport> Transport for LossyTransport<T> {
    fn local_id(&self) -> NodeId {
        self.inner.local_id()
    }

    fn send(&mut self, to: NodeId, message: Message) -> Result<(), TransportError> {
        self.sent += 1;
        if let Some(m) = &self.metrics {
            m.sent.inc();
        }
        if self.rate > 0.0 && self.rng.gen_bool(self.rate) {
            self.dropped += 1;
            if let Some(m) = &self.metrics {
                m.dropped.inc();
            }
            return Ok(());
        }
        if let Some(m) = &self.metrics {
            m.delivered.inc();
        }
        self.inner.send(to, message)
    }

    fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
        self.inner.try_recv()
    }

    fn recv_batch(&mut self, out: &mut Vec<Message>, max: usize) -> Result<usize, TransportError> {
        // Loss applies to sends only; delegate so the inner transport's
        // batched drain (e.g. UDP's) stays reachable through the stack.
        self.inner.recv_batch(out, max)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    use super::*;

    /// A reliable single-queue transport: whatever passes the loss layer
    /// can be read straight back, which is all these tests count.
    #[derive(Clone, Default)]
    struct Loopback(Rc<RefCell<VecDeque<Message>>>);

    impl Transport for Loopback {
        fn local_id(&self) -> NodeId {
            NodeId::new(1)
        }

        fn send(&mut self, _to: NodeId, message: Message) -> Result<(), TransportError> {
            self.0.borrow_mut().push_back(message);
            Ok(())
        }

        fn try_recv(&mut self) -> Result<Option<Message>, TransportError> {
            Ok(self.0.borrow_mut().pop_front())
        }
    }

    fn msg(k: u64) -> Message {
        Message::new(NodeId::new(0), NodeId::new(k), false)
    }

    #[test]
    fn zero_rate_passes_everything_through() {
        let mut rx = Loopback::default();
        let mut tx = LossyTransport::new(rx.clone(), 0.0, 2);
        for k in 0..50 {
            tx.send(NodeId::new(1), msg(k)).unwrap();
        }
        let mut received = 0;
        while rx.try_recv().unwrap().is_some() {
            received += 1;
        }
        assert_eq!(received, 50);
        assert_eq!(tx.dropped(), 0);
    }

    #[test]
    fn unit_rate_drops_everything() {
        let mut rx = Loopback::default();
        let mut tx = LossyTransport::new(rx.clone(), 1.0, 4);
        for k in 0..50 {
            tx.send(NodeId::new(1), msg(k)).unwrap();
        }
        assert_eq!(rx.try_recv().unwrap(), None);
        assert_eq!(tx.dropped(), 50);
        assert_eq!(tx.sent(), 50);
    }

    #[test]
    fn empirical_rate_matches() {
        let mut tx = LossyTransport::new(Loopback::default(), 0.3, 6);
        for k in 0..20_000 {
            tx.send(NodeId::new(1), msg(k)).unwrap();
        }
        let rate = tx.dropped() as f64 / tx.sent() as f64;
        assert!((rate - 0.3).abs() < 0.02, "empirical {rate}");
    }

    #[test]
    fn metrics_mirror_internal_counters() {
        let registry = MetricsRegistry::new();
        let mut tx =
            LossyTransport::with_metrics(Loopback::default(), 0.3, 10, &registry, "net.lossy");
        for k in 0..2_000 {
            tx.send(NodeId::new(1), msg(k)).unwrap();
        }
        assert_eq!(registry.counter_value("net.lossy.sent"), Some(tx.sent()));
        assert_eq!(registry.counter_value("net.lossy.dropped"), Some(tx.dropped()));
        assert_eq!(registry.counter_value("net.lossy.delivered"), Some(tx.sent() - tx.dropped()));
    }

    #[test]
    fn receive_path_is_untouched() {
        let mut a = Loopback::default();
        let mut b = LossyTransport::new(a.clone(), 1.0, 8);
        a.send(NodeId::new(1), msg(9)).unwrap();
        assert_eq!(b.try_recv().unwrap(), Some(msg(9)));
        assert_eq!(b.local_id(), NodeId::new(1));
    }
}
