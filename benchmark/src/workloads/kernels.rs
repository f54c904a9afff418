//! Calibration kernels: the cost of one call into a layer's public
//! function, timed in a tight loop. They run in the traced run of the
//! workload whose end-to-end figure they explain, one span per batch of
//! [`BATCH`] calls so the clock reads stay under 2 % of the work.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sandf_core::{InitiateOutcome, Message, NodeId};
use sandf_daemon::{InvariantChecker, TimerWheel, WheelItem, WireTotals};
use sandf_net::codec::{decode, encode};
use sandf_net::{AddressBook, Transport, UdpTransport};
use sandf_obs::MetricsRegistry;
use sandf_sim::{scan, topology, LossModel, UniformLoss};

use super::{protocol, Outcome, Scale, BOOTSTRAP_DEGREE, LOSS};
use crate::trace::Tracer;

/// Calls per span.
pub const BATCH: u64 = 4096;

/// One span around `calls` calls; returns its wall in nanoseconds.
fn batch_ns(tr: &mut Tracer, name: &'static str, calls: u64, batch: impl FnOnce()) -> f64 {
    let start = Instant::now();
    tr.time(name, calls, batch);
    start.elapsed().as_nanos() as f64
}

/// Runs `batch(len)` until `calls` calls are done, one span per batch;
/// returns mean nanoseconds per call.
fn kernel(tr: &mut Tracer, name: &'static str, calls: u64, mut batch: impl FnMut(u64)) -> f64 {
    let mut done = 0;
    let mut busy_ns = 0.0;
    while done < calls {
        let len = BATCH.min(calls - done);
        busy_ns += batch_ns(tr, name, len, || batch(len));
        done += len;
    }
    busy_ns / calls as f64
}

/// `scan.*`, `loss.uniform_draw_ns`, `rand.gen_range_ns`: what one flat
/// step is made of (slot scan, fault draw, uniform draws).
pub fn flat_step_parts(out: &mut Outcome, tr: &mut Tracer, scale: &Scale, seed: u64) {
    let s = protocol().view_size();
    let mut rng = StdRng::seed_from_u64(seed);
    // 4096 windows of s slots, three quarters full like a bootstrapped view.
    let windows = BATCH as usize;
    let arena: Vec<u32> = (0..windows * s)
        .map(|k| if k % s < BOOTSTRAP_DEGREE { rng.gen_range(0..1024u32) } else { u32::MAX })
        .collect();

    let ns = kernel(tr, "scan.count_matches", scale.kernel_calls, |len| {
        let mut acc = 0usize;
        for w in 0..len as usize {
            acc += scan::count_matches(black_box(&arena[w * s..(w + 1) * s]), u32::MAX);
        }
        black_box(acc);
    });
    out.per_layer.set("scan.count_matches_ns", ns);

    let ns = kernel(tr, "scan.nth_match", scale.kernel_calls, |len| {
        let mut acc = 0usize;
        for w in 0..len as usize {
            acc += scan::nth_match(black_box(&arena[w * s..(w + 1) * s]), u32::MAX, w & 3)
                .unwrap_or(0);
        }
        black_box(acc);
    });
    out.per_layer.set("scan.nth_match_ns", ns);

    let mut loss = UniformLoss::new(LOSS).expect("valid rate");
    let ns = kernel(tr, "loss.uniform_draw", scale.kernel_calls, |len| {
        let mut lost = 0u64;
        for _ in 0..len {
            lost += u64::from(black_box(&mut loss).is_lost(&mut rng));
        }
        black_box(lost);
    });
    out.per_layer.set("loss.uniform_draw_ns", ns);

    let bound = scale.steady_n as u64;
    let ns = kernel(tr, "rand.gen_range", scale.kernel_calls, |len| {
        let mut acc = 0u64;
        for _ in 0..len {
            acc ^= rng.gen_range(0..black_box(bound));
        }
        black_box(acc);
    });
    out.per_layer.set("rand.gen_range_ns", ns);
}

/// `rand.stream_build_ns`: seeding one `StdRng` stream and taking its
/// first draw — what par and the rumour layer do per node per round.
pub fn stream_build(out: &mut Outcome, tr: &mut Tracer, scale: &Scale) {
    let mut next = 0u64;
    let ns = kernel(tr, "rand.stream_build", scale.kernel_calls, |len| {
        let mut acc = 0u64;
        for _ in 0..len {
            next = next.wrapping_add(0x9e37_79b9_7f4a_7c15);
            acc ^= StdRng::seed_from_u64(black_box(next)).gen_range(0..16u64);
        }
        black_box(acc);
    });
    out.per_layer.set("rand.stream_build_ns", ns);
}

/// Everything one daemon round is made of, below the service loop:
/// protocol steps, codec, loopback sockets, counters, the timer wheel and
/// the invariant checker.
pub fn daemon_round_parts(out: &mut Outcome, tr: &mut Tracer, scale: &Scale, seed: u64) {
    let config = protocol();
    let mut rng = StdRng::seed_from_u64(seed);

    // Each node initiates, then receives its own message back, so views
    // stay at their bootstrap degree however long the loop runs.
    let mut nodes = topology::circulant(BATCH as usize, config, BOOTSTRAP_DEGREE);
    let filler = Message::new(NodeId::new(0), NodeId::new(1), false);
    let mut outbox = vec![filler; nodes.len()];
    let pairs = scale.kernel_calls / 2;
    let (mut initiate_ns, mut receive_ns, mut done) = (0.0, 0.0, 0);
    while done < pairs {
        let len = BATCH.min(pairs - done) as usize;
        initiate_ns += batch_ns(tr, "core.initiate", len as u64, || {
            for (node, slot) in nodes[..len].iter_mut().zip(&mut outbox) {
                *slot = match node.initiate(&mut rng) {
                    InitiateOutcome::Sent { message, .. } => message,
                    _ => filler,
                };
            }
        });
        receive_ns += batch_ns(tr, "core.receive", len as u64, || {
            for (node, message) in nodes[..len].iter_mut().zip(&outbox) {
                black_box(node.receive(*message, &mut rng));
            }
        });
        done += len as u64;
    }
    out.per_layer.set("core.initiate_ns", initiate_ns / pairs as f64);
    out.per_layer.set("core.receive_ns", receive_ns / pairs as f64);

    let message = Message::new(NodeId::new(7), NodeId::new(11), true);
    let ns = kernel(tr, "codec.encode", scale.kernel_calls, |len| {
        for _ in 0..len {
            black_box(encode(black_box(message)));
        }
    });
    out.per_layer.set("codec.encode_ns", ns);
    let wire = encode(message);
    let ns = kernel(tr, "codec.decode", scale.kernel_calls, |len| {
        for _ in 0..len {
            black_box(decode(black_box(&wire))).expect("a well-formed datagram");
        }
    });
    out.per_layer.set("codec.decode_ns", ns);

    // One loopback socket pair; bursts small enough for the receive buffer.
    let book = AddressBook::new();
    let mut a = UdpTransport::bind_loopback(NodeId::new(0), &book).expect("bind loopback");
    let mut b = UdpTransport::bind_loopback(NodeId::new(1), &book).expect("bind loopback");
    const BURST: u64 = 64;
    let datagrams = (scale.kernel_calls / 100).max(BURST);
    let mut inbox = Vec::with_capacity(BURST as usize);
    let (mut send_ns, mut recv_ns, mut sent, mut received) = (0.0, 0.0, 0u64, 0u64);
    while sent < datagrams {
        send_ns += batch_ns(tr, "udp.send", BURST, || {
            for _ in 0..BURST {
                a.send(NodeId::new(1), message).expect("loopback send");
            }
        });
        sent += BURST;
        inbox.clear();
        recv_ns += batch_ns(tr, "udp.recv_batch", BURST, || {
            b.recv_batch(&mut inbox, BURST as usize).expect("loopback receive");
        });
        received += inbox.len() as u64;
    }
    out.per_layer.set("udp.send_us", send_ns / sent as f64 / 1e3);
    out.per_layer.set("udp.recv_us", recv_ns / received.max(1) as f64 / 1e3);
    out.checks.check(received == sent, "udp kernel: every loopback datagram arrived", || {
        format!("{received} of {sent}")
    });

    let counter = MetricsRegistry::new().counter("bench.kernel");
    let ns = kernel(tr, "obs.counter_inc", scale.kernel_calls, |len| {
        for _ in 0..len {
            black_box(&counter).inc();
        }
    });
    out.per_layer.set("obs.counter_inc_ns", ns);

    // The daemon's rotation: every node fires once and is rescheduled.
    const SLOTS: u64 = 64;
    let mut wheel = TimerWheel::new(SLOTS as usize);
    for key in 0..scale.daemon_n {
        wheel.schedule(key as u64 % SLOTS, WheelItem { key, generation: 0 });
    }
    let mut due = Vec::with_capacity(scale.daemon_n);
    let rotations = (scale.kernel_calls / scale.daemon_n as u64).max(1);
    let ns = kernel(tr, "daemon.wheel_rotation", rotations, |len| {
        for _ in 0..len {
            due.clear();
            wheel.advance_to(wheel.current_tick() + SLOTS, &mut due);
            for item in &due {
                wheel.schedule(SLOTS - 1, *item);
            }
        }
    });
    out.per_layer.set("daemon.wheel_ns_per_item", ns / scale.daemon_n as f64);

    let fleet = topology::circulant(scale.daemon_n, config, BOOTSTRAP_DEGREE);
    let mut checker = InvariantChecker::new(config);
    let checks = (scale.kernel_calls / 50_000).max(3);
    let mut round = 0;
    let ns = kernel(tr, "daemon.check", checks, |len| {
        for _ in 0..len {
            round += 5;
            black_box(checker.check(round, fleet.iter(), WireTotals::default()));
        }
    });
    out.per_layer.set("daemon.check_ms", ns / 1e6);
}
