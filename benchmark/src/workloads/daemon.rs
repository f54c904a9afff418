//! `daemon_udp`: a 1000-node `sandf-daemon` on real loopback UDP sockets
//! — the only workload that crosses `core::SfNode`, the `net` codec and
//! transports, the timer wheel, the fault injector and the live
//! invariant checker. Loopback only: no real link is crossed.
//!
//! Load is the daemon's loop thread plus this (main) thread polling the
//! `daemon.round` gauge. The saturated phase is a closed loop: the tick
//! is far shorter than a rotation takes, so rotations run back to back.
//! The paced phase of the traced run is an open loop at ≈65 % of that
//! capacity, timed against the schedule `t₀ + r·tick`.

use std::time::{Duration, Instant};

use sandf_daemon::{http_get, DaemonConfig, DaemonHandle};
use sandf_obs::{GaugeHandle, MetricsRegistry};

use super::{
    derive_seed, kernels, protocol, record_run_end, record_setup, undisturbed_rate, Outcome, Scale,
    BOOTSTRAP_DEGREE, LOSS,
};
use crate::stats::{median, quantile, supported_percentile};
use crate::trace::Tracer;

/// Tick of the saturated phase: rotations never wait for the clock.
const SATURATED_TICK: Duration = Duration::from_micros(64);
/// Tick of the paced phase: 333.3 rounds/s offered.
const PACED_TICK: Duration = Duration::from_millis(3);
/// Window of the paced phase as a share of `--seconds`.
const PACED_SHARE: f64 = 0.4;
/// Slices the saturated window is cut into for `steps_per_sec`.
const SLICES: usize = 10;
const POLL: Duration = Duration::from_micros(200);
/// Gives up on a daemon that stops making rounds.
const STALL: Duration = Duration::from_secs(30);
const CTL_BATCH: usize = 50;
const CTL_REPS: usize = 5;
const HTTP_GETS: usize = 50;

fn config(scale: &Scale, seed: u64, tick: Duration, http_port: Option<u16>) -> DaemonConfig {
    let sf = protocol();
    DaemonConfig {
        initial_nodes: scale.daemon_n,
        view_size: sf.view_size(),
        lower_threshold: sf.lower_threshold(),
        initial_degree: BOOTSTRAP_DEGREE,
        tick,
        base_loss: LOSS,
        seed,
        check_every: 5,
        http_port,
        ..DaemonConfig::default()
    }
}

/// Boots a daemon and waits until it has completed `warmup` rounds.
/// Returns the handle, the boot wall and the whole set-up wall.
fn boot(
    tr: &mut Tracer,
    config: DaemonConfig,
    warmup: u64,
) -> Result<(DaemonHandle, f64, f64), String> {
    let start = Instant::now();
    let daemon = tr
        .time("daemon.spawn", 1, || config.spawn())
        .map_err(|e| format!("daemon failed to boot: {e}"))?;
    let boot_s = start.elapsed().as_secs_f64();
    let round = daemon.registry().gauge("daemon.round");
    tr.time("daemon.warmup", warmup, || {
        while (round.get() as u64) < warmup && start.elapsed() < STALL {
            std::thread::sleep(POLL);
        }
    });
    if (round.get() as u64) < warmup {
        return Err(format!("daemon stalled at round {} during warm-up", round.get()));
    }
    Ok((daemon, boot_s, start.elapsed().as_secs_f64()))
}

/// What polling the round gauge over one window saw.
struct Watch {
    /// `(seconds since the window opened, round)` at every observed change.
    boundaries: Vec<(f64, u64)>,
    /// How much longer than [`POLL`] each sleep of the poller took.
    oversleep_s: Vec<f64>,
}

impl Watch {
    fn over(round: &GaugeHandle, seconds: f64) -> Self {
        let mut boundaries = Vec::new();
        let mut oversleep_s = Vec::new();
        let mut last = round.get() as u64;
        let start = Instant::now();
        loop {
            let before = Instant::now();
            std::thread::sleep(POLL);
            oversleep_s.push((before.elapsed().saturating_sub(POLL)).as_secs_f64());
            let now = start.elapsed().as_secs_f64();
            let current = round.get() as u64;
            if current > last {
                boundaries.push((now, current));
                last = current;
            }
            if now >= seconds {
                return Self { boundaries, oversleep_s };
            }
        }
    }

    /// Rounds completed and the wall between the first and the last
    /// observed boundary.
    fn span(&self) -> Option<(u64, f64)> {
        let (first, last) = (self.boundaries.first()?, self.boundaries.last()?);
        (last.1 > first.1).then(|| (last.1 - first.1, last.0 - first.0))
    }

    /// Rounds per second within each `slice_s`-long slice of the window,
    /// between the first and the last boundary seen inside the slice.
    fn slice_rates(&self, slice_s: f64) -> Vec<f64> {
        let mut rates = Vec::new();
        let mut rest = &self.boundaries[..];
        let mut end = slice_s;
        while !rest.is_empty() {
            let inside = rest.partition_point(|&(t, _)| t < end);
            if let (Some(first), Some(last)) = (rest[..inside].first(), rest[..inside].last()) {
                if last.1 > first.1 {
                    rates.push((last.1 - first.1) as f64 / (last.0 - first.0));
                }
            }
            rest = &rest[inside..];
            end += slice_s;
        }
        rates
    }

    /// One wall per completed round; a poll that saw several rounds pass
    /// shares its interval among them.
    fn round_walls(&self) -> Vec<f64> {
        let mut walls = Vec::new();
        for pair in self.boundaries.windows(2) {
            let rounds = pair[1].1 - pair[0].1;
            let each = (pair[1].0 - pair[0].0) / rounds as f64;
            walls.extend(std::iter::repeat_n(each, rounds as usize));
        }
        walls
    }

    /// How late each boundary was against `t₀ + r·tick`, with `t₀` the
    /// earliest schedule consistent with what was seen (so the best
    /// boundary is on time).
    fn lateness(&self, tick: Duration) -> Vec<f64> {
        let tick = tick.as_secs_f64();
        let offsets: Vec<f64> = self.boundaries.iter().map(|&(t, r)| t - r as f64 * tick).collect();
        let t0 = offsets.iter().copied().fold(f64::INFINITY, f64::min);
        offsets.into_iter().map(|o| o - t0).collect()
    }
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry.counter_value(name).unwrap_or(0)
}

pub fn run(scale: &Scale, seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Outcome, String> {
    let n = scale.daemon_n as u64;
    let mut out = Outcome::new();

    // Set-up, repeated with a fresh daemon each time: socket binds, boot,
    // and a warm-up measured in rounds, not seconds, so `setup_s` moves
    // with the daemon's speed.
    let setup = tr.enter("setup");
    let mut setups = Vec::with_capacity(scale.setup_reps);
    let mut running = None;
    for rep in 0..scale.setup_reps {
        if let Some(previous) = running.take() {
            DaemonHandle::shutdown(previous);
        }
        tr.set_run(rep as u32);
        let cfg = config(scale, derive_seed(seed, 1), SATURATED_TICK, None);
        let (daemon, boot_s, setup_s) = boot(tr, cfg, scale.daemon_warmup_rounds)?;
        out.per_layer.set("daemon.boot_us_per_node", boot_s * 1e6 / n as f64);
        setups.push(setup_s);
        running = Some(daemon);
    }
    tr.set_run(0);
    tr.exit(setup);
    let daemon = running.expect("at least one set-up");
    record_setup(&mut out, &setups);

    // Saturated phase.
    let registry = daemon.registry().clone();
    let round = registry.gauge("daemon.round");
    let wire_before =
        ["daemon.net.sent", "daemon.net.delivered"].map(|name| counter(&registry, name));
    let cpu_before = crate::sys::cpu_ticks();
    let timed = tr.enter("timed");
    let window = Instant::now();
    let watch = tr.time("daemon.window", 1, || Watch::over(&round, seconds));
    let window_s = window.elapsed().as_secs_f64();
    tr.exit(timed);
    let cpu_after = crate::sys::cpu_ticks();
    let wire_after =
        ["daemon.net.sent", "daemon.net.delivered"].map(|name| counter(&registry, name));

    let verify = tr.enter("verify");
    let start = Instant::now();
    let walls = watch.round_walls();
    match watch.span() {
        Some((rounds, wall)) => {
            out.attempted = rounds * n;
            // Rounds × live nodes per second, slice by slice; the whole
            // window's rate when it is too short to slice.
            let mut rates = watch.slice_rates(seconds / SLICES as f64);
            if rates.is_empty() {
                rates.push(rounds as f64 / wall);
            }
            out.end_to_end.set("steps_per_sec", undisturbed_rate(&rates) * n as f64);
            let tail = supported_percentile(walls.len(), 0.99);
            out.per_layer.set("daemon.round_ms_p50", median(&walls) * 1e3);
            out.per_layer.set("daemon.round_ms_p99", quantile(&walls, tail).unwrap_or(0.0) * 1e3);
            out.checks.note(format!(
                "{rounds} rounds in {wall:.3} s ({:.0} node ticks/s over the whole window); \
                 daemon.round_ms_p99 is p{:.1} of {} per-round walls",
                (rounds * n) as f64 / wall,
                tail * 100.0,
                walls.len()
            ));
            out.per_layer
                .set("daemon.sent_per_sec", (wire_after[0] - wire_before[0]) as f64 / window_s);
            out.per_layer.set(
                "daemon.delivered_per_sec",
                (wire_after[1] - wire_before[1]) as f64 / window_s,
            );
        }
        None => {
            out.attempted = 1;
            out.checks.check(false, "daemon completed rounds in the window", || {
                format!("{} boundaries seen", watch.boundaries.len())
            });
        }
    }
    if let (Some((u0, s0)), Some((u1, s1))) = (cpu_before, cpu_after) {
        let busy = (u1 - u0) + (s1 - s0);
        if busy > 0 {
            out.per_layer.set("daemon.sys_cpu_share", (s1 - s0) as f64 / busy as f64);
        }
    }

    // Stop the loop before reading its ledger: a live loop is always
    // between two counter updates. Every datagram handed to the send path
    // is either dropped by the injected loss or passed on; nothing may go
    // missing in between.
    let snapshot = daemon.snapshot();
    daemon.shutdown();
    let sent = counter(&registry, "daemon.net.sent");
    let dropped = counter(&registry, "daemon.net.dropped");
    let delivered = counter(&registry, "daemon.net.delivered");
    let dead_letters = counter(&registry, "daemon.net.dead_letters");
    let recv_errors = counter(&registry, "daemon.net.recv_errors");
    let violations = counter(&registry, "daemon.violations.degree")
        + counter(&registry, "daemon.violations.stale");
    let unaccounted = sent.abs_diff(dropped + delivered);
    out.failed += unaccounted + recv_errors + violations;
    out.checks.check(unaccounted == 0, "wire ledger: sent = dropped + delivered", || {
        format!("sent {sent}, dropped {dropped}, delivered {delivered}")
    });
    out.checks.check(recv_errors == 0, "no socket receive errors", || format!("{recv_errors}"));
    out.checks.check(violations == 0, "live checker: no Obs 5.1 or Lemma 6.10 violation", || {
        format!("{violations} violations; snapshot {snapshot:?}")
    });
    out.checks.check(
        snapshot.live as u64 == n && snapshot.components <= 1 && snapshot.checks > 0,
        "snapshot: every node live, one component, checker ran",
        || format!("{snapshot:?}"),
    );
    out.per_layer.set("daemon.delivered_share", delivered as f64 / sent.max(1) as f64);
    out.per_layer.set("daemon.dropped", dropped as f64);
    out.per_layer.set("daemon.dead_letters", dead_letters as f64);
    out.per_layer.set("daemon.recv_errors", recv_errors as f64);
    out.per_layer.set("daemon.violations", violations as f64);
    let verify_s = start.elapsed().as_secs_f64();
    tr.exit(verify);
    record_run_end(&mut out, tr, timed, verify_s);

    if tr.enabled() {
        let calibrate = tr.enter("calibrate");
        paced_phase(&mut out, tr, scale, seed, seconds)?;
        kernels::daemon_round_parts(&mut out, tr, scale, derive_seed(seed, 3));
        tr.exit(calibrate);
    }
    Ok(out)
}

/// Open loop: a fresh daemon paced at [`PACED_TICK`], its round
/// boundaries timed against the schedule, then the control plane.
fn paced_phase(
    out: &mut Outcome,
    tr: &mut Tracer,
    scale: &Scale,
    seed: u64,
    seconds: f64,
) -> Result<(), String> {
    let cfg = config(scale, derive_seed(seed, 2), PACED_TICK, Some(0));
    let (daemon, _, _) = boot(tr, cfg, scale.daemon_warmup_rounds.min(20))?;
    let round = daemon.registry().gauge("daemon.round");
    let watch = tr.time("daemon.paced_window", 1, || Watch::over(&round, seconds * PACED_SHARE));
    if let Some((rounds, wall)) = watch.span() {
        out.per_layer.set("daemon.paced_rounds_per_sec", rounds as f64 / wall);
    }
    let late = watch.lateness(PACED_TICK);
    let tail = supported_percentile(late.len(), 0.99);
    out.per_layer.set("daemon.late_p50_ms", median(&late) * 1e3);
    out.per_layer.set("daemon.late_p99_ms", quantile(&late, tail).unwrap_or(0.0) * 1e3);
    let poll_tail = supported_percentile(watch.oversleep_s.len(), 0.99);
    out.per_layer
        .set("daemon.poller_late_us", quantile(&watch.oversleep_s, poll_tail).unwrap_or(0.0) * 1e6);
    out.checks.note(format!(
        "paced phase: offered {:.1} rounds/s; lateness tail is p{:.1} of {} boundaries, poller \
         lateness p{:.1} of {} sleeps",
        1.0 / PACED_TICK.as_secs_f64(),
        tail * 100.0,
        late.len(),
        poll_tail * 100.0,
        watch.oversleep_s.len()
    ));

    // Control-plane round trips, timed one call at a time.
    let (mut joins, mut leaves) = (Vec::new(), Vec::new());
    for _ in 0..CTL_REPS {
        for (walls, span, join) in
            [(&mut joins, "daemon.ctl_join", true), (&mut leaves, "daemon.ctl_leave", false)]
        {
            let start = Instant::now();
            let reply = tr.time(span, 1, || {
                if join {
                    daemon.join_nodes(CTL_BATCH)
                } else {
                    daemon.leave_nodes(CTL_BATCH)
                }
            });
            walls.push(start.elapsed().as_secs_f64());
            out.failed += u64::from(reply.is_err());
            out.checks.check(reply.is_ok(), "control command applied", || format!("{reply:?}"));
        }
    }
    out.per_layer.set("daemon.ctl_join_ms", median(&joins) * 1e3);
    out.per_layer.set("daemon.ctl_leave_ms", median(&leaves) * 1e3);

    let addr = daemon.http_addr().ok_or("the paced daemon has no HTTP endpoint")?;
    let mut gets = Vec::with_capacity(HTTP_GETS);
    for _ in 0..HTTP_GETS {
        let start = Instant::now();
        let reply = tr.time("daemon.http_metrics", 1, || http_get(addr, "/metrics"));
        gets.push(start.elapsed().as_secs_f64());
        let ok = matches!(&reply, Ok((200, body)) if body.contains("daemon_round"));
        out.failed += u64::from(!ok);
        out.checks.check(ok, "GET /metrics answers with the round gauge", || format!("{reply:?}"));
    }
    out.per_layer.set("daemon.http_metrics_ms", median(&gets) * 1e3);
    daemon.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watch(boundaries: &[(f64, u64)]) -> Watch {
        Watch { boundaries: boundaries.to_vec(), oversleep_s: Vec::new() }
    }

    #[test]
    fn round_walls_share_a_poll_interval_among_the_rounds_it_saw() {
        let w = watch(&[(0.010, 5), (0.012, 6), (0.018, 9)]);
        let (rounds, wall) = w.span().unwrap();
        assert_eq!(rounds, 4);
        assert!((wall - 0.008).abs() < 1e-12);
        let walls = w.round_walls();
        assert_eq!(walls.len(), 4);
        assert!((walls[0] - 0.002).abs() < 1e-12);
        assert!(walls[1..].iter().all(|&x| (x - 0.002).abs() < 1e-12));
        assert_eq!(watch(&[(0.1, 3)]).span(), None);
        assert_eq!(watch(&[]).span(), None);
    }

    #[test]
    fn slice_rates_use_the_boundaries_inside_each_slice() {
        // Two rounds in 4 ms within the first 10 ms, nothing usable in the
        // second slice (one boundary), three rounds in 3 ms in the third.
        let w = watch(&[(0.002, 1), (0.004, 2), (0.006, 3), (0.015, 7), (0.021, 9), (0.024, 12)]);
        let rates = w.slice_rates(0.010);
        assert_eq!(rates.len(), 2);
        assert!((rates[0] - 500.0).abs() < 1e-9);
        assert!((rates[1] - 1000.0).abs() < 1e-9);
        assert!(watch(&[]).slice_rates(0.01).is_empty());
    }

    #[test]
    fn lateness_is_measured_against_the_best_consistent_schedule() {
        // tick = 3 ms; the second boundary is 1 ms late, the third 4 ms.
        let w = watch(&[(0.100, 10), (0.104, 11), (0.110, 12)]);
        let late = w.lateness(Duration::from_millis(3));
        assert!(late[0].abs() < 1e-12);
        assert!((late[1] - 0.001).abs() < 1e-12);
        assert!((late[2] - 0.004).abs() < 1e-12);
    }
}
