//! End-to-end test: boot a real daemon on loopback UDP, drive it through
//! joins, leaves, and a partition + heal entirely over its HTTP endpoint,
//! and assert the paper's invariants held.

use std::time::{Duration, Instant};

use sandf_core::{Message, NodeId, SfNode};
use sandf_daemon::soak::{run_soak, SoakConfig};
use sandf_daemon::{http_get, http_post, DaemonConfig, DaemonHandle, WireLedger};
use sandf_net::codec::{encode, encode_frame};
use sandf_obs::MetricsRegistry;

fn fast_config(nodes: usize, seed: u64) -> DaemonConfig {
    DaemonConfig {
        initial_nodes: nodes,
        tick: Duration::from_millis(5),
        base_loss: 0.02,
        seed,
        check_every: 4,
        http_port: Some(0),
        ..DaemonConfig::default()
    }
}

fn wait_rounds(addr: std::net::SocketAddr, rounds: u64) {
    let (_, body) = http_get(addr, "/membership").unwrap();
    let start = extract(&body, "round");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let (_, body) = http_get(addr, "/membership").unwrap();
        if extract(&body, "round") >= start + rounds {
            return;
        }
        assert!(Instant::now() < deadline, "no round progress within 60s");
    }
}

fn extract(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at =
        body.find(&needle).unwrap_or_else(|| panic!("{key:?} missing in {body}")) + needle.len();
    let rest = &body[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse::<f64>().expect("numeric field") as u64
}

/// Lets the daemon complete `rounds` more rounds, by its own round gauge.
fn run_rounds(daemon: &DaemonHandle, rounds: u64) {
    let round = daemon.registry().gauge("daemon.round");
    let target = round.get() + rounds as f64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while round.get() < target {
        assert!(Instant::now() < deadline, "daemon stalled at round {}", round.get());
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Asserts that nothing went missing between send and receive in a daemon
/// that has been shut down.
fn closed_ledger(registry: &MetricsRegistry) -> WireLedger {
    let ledger = WireLedger::read(registry);
    assert_eq!(
        ledger.delivered,
        ledger.received + ledger.dead_letters + ledger.fault_dropped,
        "frames went missing between send and receive: {ledger}"
    );
    assert_eq!(registry.counter_value("daemon.net.recv_errors"), Some(0));
    ledger
}

#[test]
fn saturated_fleet_loses_nothing_in_the_kernel() {
    // A tick far shorter than a rotation takes: rotations run back to back,
    // 800 node ticks to an iteration and ≈ 340 frames sent in each — more
    // than the socket's receive buffer holds, were they left there.
    let daemon = DaemonConfig {
        tick: Duration::from_micros(64),
        base_loss: 0.01,
        http_port: None,
        ..fast_config(800, 5)
    }
    .spawn()
    .unwrap();
    let registry = daemon.registry().clone();
    run_rounds(&daemon, 200);
    let nodes = daemon.shutdown();
    assert_eq!(nodes.len(), 800);

    let WireLedger { delivered, received, dead_letters, fault_dropped } = closed_ledger(&registry);
    assert_eq!((dead_letters, fault_dropped), (0, 0), "nobody left, nothing was injected");
    let taken_in: u64 = nodes.iter().map(|n| n.stats().stored + n.stats().deletions).sum();
    // A node receives each frame at the drain that takes it off the socket.
    assert_eq!(taken_in, received, "every frame received is a receive step");
    assert!(received > 800 * 200 / 4, "the fleet barely ran: {received} frames");
    let counter = |name: &str| registry.counter_value(name).expect(name);
    assert_eq!(counter("daemon.violations.degree") + counter("daemon.violations.stale"), 0);
    // A chunk's frames travel packed, not one to a datagram.
    let datagrams = counter("daemon.net.datagrams");
    assert!(delivered >= 8 * datagrams, "{delivered} frames in {datagrams} datagrams");
}

#[test]
fn ledger_closes_across_interleaved_leaves_and_joins() {
    let daemon =
        DaemonConfig { tick: Duration::from_millis(1), ..fast_config(96, 6) }.spawn().unwrap();
    let addr = daemon.http_addr().unwrap();
    let registry = daemon.registry().clone();
    for _ in 0..12 {
        let (status, body) = http_post(addr, "/ctl/leave?n=8", "").unwrap();
        assert_eq!(status, 200, "leave failed: {body}");
        run_rounds(&daemon, 2);
        let (status, body) = http_post(addr, "/ctl/join?n=8", "").unwrap();
        assert_eq!(status, 200, "join failed: {body}");
        run_rounds(&daemon, 2);
    }
    assert_eq!(daemon.shutdown().len(), 96);
    let ledger = closed_ledger(&registry);
    assert!(ledger.received > 0);
    assert!(ledger.dead_letters > 0, "views still named the 96 nodes that left");
}

#[test]
fn garbage_on_the_socket_reaches_no_node() {
    // With every send of the fleet's own dropped by the loss layer, nothing
    // legitimate is ever on the wire: whatever a node takes in came from
    // outside.
    let daemon =
        DaemonConfig { base_loss: 1.0, http_port: None, ..fast_config(16, 7) }.spawn().unwrap();
    let registry = daemon.registry().clone();
    let counter = |name: &str| registry.counter_value(name).expect(name);
    let raw = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    let message = Message::new(NodeId::new(1), NodeId::new(2), true);
    let frame = encode_frame(NodeId::new(3), message);
    let mut long = frame.to_vec();
    long.push(0);
    let mut bad_flags = frame;
    bad_flags[24] = 0b0000_0010;
    let stranger = encode_frame(NodeId::new(1 << 40), message);
    // Packed datagrams are taken or dropped whole: a good frame before a
    // bad one, and one frame more than a datagram may hold.
    let bad_second = [frame, bad_flags].concat();
    let too_many = frame.repeat(59);
    let garbage: [&[u8]; 8] =
        [&[], &[1, 2, 3], &encode(message), &long, &bad_flags, &stranger, &bad_second, &too_many];
    for datagram in garbage {
        raw.send_to(datagram, daemon.udp_addr()).unwrap();
    }
    run_rounds(&daemon, 4);
    assert_eq!(counter("daemon.net.received"), 0, "garbage was handed to a node");
    assert_eq!(counter("daemon.net.dead_letters"), 1, "the frame for an id that never existed");

    // The same path does deliver a well-formed frame for a live id, and
    // both frames of a well-formed pair.
    raw.send_to(&frame, daemon.udp_addr()).unwrap();
    let pair = [encode_frame(NodeId::new(4), message), encode_frame(NodeId::new(5), message)];
    raw.send_to(&pair.concat(), daemon.udp_addr()).unwrap();
    run_rounds(&daemon, 4);
    let nodes = daemon.shutdown();
    assert_eq!(counter("daemon.net.received"), 3);
    assert_eq!(counter("daemon.net.recv_errors"), 0);
    let took_in = |node: &SfNode| node.stats().stored + node.stats().deletions;
    for node in &nodes {
        let reached = [3, 4, 5].contains(&node.id().as_u64());
        assert_eq!(took_in(node), u64::from(reached), "node {}", node.id());
    }
}

#[test]
fn http_surface_serves_all_routes() {
    let daemon = fast_config(32, 1).spawn().unwrap();
    let addr = daemon.http_addr().unwrap();

    let (status, body) = http_get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "healthz body: {body}");

    let (status, body) = http_get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("sandf_daemon_net_sent"), "metrics body lacks wire counters");
    assert!(body.contains("sandf_daemon_nodes"), "metrics body lacks the nodes gauge");

    let (status, body) = http_get(addr, "/membership").unwrap();
    assert_eq!(status, 200);
    assert_eq!(extract(&body, "live"), 32);

    let (status, _) = http_get(addr, "/journal").unwrap();
    assert_eq!(status, 200);

    let (status, _) = http_get(addr, "/nope").unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_post(addr, "/ctl/join?n=bogus", "").unwrap();
    assert_eq!(status, 400);
    // The fault grammar's own rejection text, as a scenario spec would
    // print it after its `line N:` prefix.
    let (status, body) = http_post(addr, "/ctl/fault", "phase 5 uniform 7").unwrap();
    assert_eq!(status, 400);
    assert_eq!(body, "{\"error\":\"`uniform` rate 7 is outside [0, 1]\"}");
    let (status, body) = http_post(addr, "/ctl/fault", "phase 30 victims 8 0.9 0").unwrap();
    assert_eq!((status, body.as_str()), (200, "{\"fault\":\"victims\"}"));
    let (status, body) = http_post(addr, "/ctl/fault", "none").unwrap();
    assert_eq!((status, body.as_str()), (200, "{\"fault\":\"none\"}"));

    daemon.shutdown();
}

#[test]
fn metric_catalog_is_pinned() {
    let daemon = DaemonConfig { http_port: None, ..fast_config(8, 4) }.spawn().unwrap();
    let expected = [
        "daemon.checks",
        "daemon.fault.dropped",
        "daemon.net.datagrams",
        "daemon.net.dead_letters",
        "daemon.net.delivered",
        "daemon.net.dropped",
        "daemon.net.received",
        "daemon.net.recv_errors",
        "daemon.net.sent",
        "daemon.nodes",
        "daemon.round",
        "daemon.stale_fraction",
        "daemon.violations.degree",
        "daemon.violations.stale",
    ];
    assert_eq!(
        daemon.registry().metric_names(),
        expected,
        "daemon metric names drifted — update EXPERIMENTS.md, benchmark/ and this pin"
    );
    daemon.shutdown();
}

#[test]
fn join_leave_partition_heal_over_http() {
    let daemon = fast_config(32, 2).spawn().unwrap();
    let addr = daemon.http_addr().unwrap();

    // Flash-crowd join, then a partial leave, all over HTTP.
    let (status, body) = http_post(addr, "/ctl/join?n=16", "").unwrap();
    assert_eq!(status, 200, "join failed: {body}");
    assert_eq!(extract(&body, "nodes"), 48);

    let (status, body) = http_post(addr, "/ctl/leave?n=12", "").unwrap();
    assert_eq!(status, 200, "leave failed: {body}");
    assert_eq!(extract(&body, "nodes"), 36);

    // Sever the regions completely for 20 rounds; the phase then lapses
    // and the wire heals without a second command.
    let (status, body) = http_post(addr, "/ctl/fault", "phase 20 partition 2 1.0 0").unwrap();
    assert_eq!(status, 200, "fault failed: {body}");
    let (_, snap) = http_get(addr, "/membership").unwrap();
    assert!(snap.contains("\"fault\":\"partition\""), "snapshot: {snap}");

    wait_rounds(addr, 24);
    let (_, snap) = http_get(addr, "/membership").unwrap();
    assert!(snap.contains("\"fault\":\"none\""), "the partition must lapse: {snap}");

    // Let the fleet re-converge, then check the verdict.
    wait_rounds(addr, 16);
    let (_, body) = http_get(addr, "/membership").unwrap();
    assert_eq!(extract(&body, "live"), 36);
    assert_eq!(
        extract(&body, "degree_violations"),
        0,
        "Observation 5.1 must hold through churn and partition: {body}"
    );
    assert_eq!(extract(&body, "departed"), 12);
    assert!(extract(&body, "checks") >= 2);

    daemon.shutdown();
}

#[test]
fn soak_harness_passes_against_a_small_fleet() {
    let daemon = fast_config(40, 3).spawn().unwrap();
    let addr = daemon.http_addr().unwrap();
    let soak = SoakConfig {
        flash_join: 16,
        churn_iters: 2,
        churn_batch: 4,
        mass_leave_fraction: 0.2,
        partition_rounds: 16,
        settle_rounds: 10,
        poll: Duration::from_millis(20),
        ..SoakConfig::default()
    };
    let report = run_soak(addr, &soak).expect("soak must complete");
    assert!(report.rows.iter().any(|r| r.name == "post_heal"), "gated phase must run");
    assert_eq!(
        report.post_heal_violations(),
        0,
        "post-heal violations; report:\n{}",
        report.to_tsv()
    );
    let tsv = report.to_tsv();
    for phase in ["warmup", "flash_join", "churn", "mass_leave", "partition", "heal"] {
        assert!(tsv.contains(phase), "missing phase {phase} in:\n{tsv}");
    }
    daemon.shutdown();
}
