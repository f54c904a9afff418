//! End-to-end: the daemon — every node on the one loopback UDP socket,
//! multiplexed on one service loop — must exhibit the same steady-state
//! behavior the simulator and the analysis predict.

use std::time::{Duration, Instant};

use sandf::daemon::{DaemonConfig, DaemonHandle};
use sandf::{DegreeStats, MembershipGraph, NodeId, SfNode};

fn launch(base_loss: f64, seed: u64) -> DaemonHandle {
    DaemonConfig {
        initial_nodes: 24,
        view_size: 12,
        lower_threshold: 4,
        initial_degree: 6,
        tick: Duration::from_millis(1),
        base_loss,
        seed,
        http_port: None,
        ..DaemonConfig::default()
    }
    .spawn()
    .expect("loopback sockets bind")
}

/// Lets the fleet run `rounds` more protocol rounds (every live node
/// initiates once per round), however long the wall clock takes.
fn run_rounds(daemon: &DaemonHandle, rounds: u64) {
    let round = daemon.registry().gauge("daemon.round");
    let target = round.get() + rounds as f64;
    let deadline = Instant::now() + Duration::from_secs(120);
    while round.get() < target {
        assert!(Instant::now() < deadline, "daemon stalled at round {}", round.get());
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn sum(nodes: &[SfNode], field: fn(&sandf::NodeStats) -> u64) -> u64 {
    nodes.iter().map(|n| field(n.stats())).sum()
}

#[test]
fn cluster_converges_and_respects_invariants() {
    let daemon = launch(0.02, 1);
    run_rounds(&daemon, 600);
    let nodes = daemon.shutdown();
    assert_eq!(nodes.len(), 24);
    let graph = MembershipGraph::from_nodes(&nodes);
    assert!(graph.is_weakly_connected());
    for node in &nodes {
        assert_eq!(node.out_degree() % 2, 0, "Observation 5.1 violated");
        assert!(node.out_degree() >= 4 && node.out_degree() <= 12);
    }
    let actions = sum(&nodes, |s| s.initiated);
    assert!(actions > 24 * 100, "fleet barely ran: {actions}");
}

#[test]
fn duplication_rate_tracks_loss_in_real_time() {
    // Lemma 6.7 on a real wire: dup ∈ [ℓ, ℓ + δ] up to scheduling noise.
    let daemon = launch(0.1, 2);
    run_rounds(&daemon, 1500);
    let nodes = daemon.shutdown();
    let dup_rate = sum(&nodes, |s| s.duplications) as f64 / sum(&nodes, |s| s.sent) as f64;
    assert!((0.05..=0.25).contains(&dup_rate), "duplication rate {dup_rate} far from ℓ=0.1");
}

#[test]
fn lossless_cluster_rarely_duplicates() {
    let daemon = launch(0.0, 3);
    run_rounds(&daemon, 800);
    let nodes = daemon.shutdown();
    let dup_rate = sum(&nodes, |s| s.duplications) as f64 / sum(&nodes, |s| s.sent).max(1) as f64;
    // δ for this small configuration is larger than the paper's 1%, but
    // duplications must still be the exception.
    assert!(dup_rate < 0.2, "duplication rate without loss: {dup_rate}");
}

#[test]
fn observed_cluster_counters_aggregate_the_per_node_stats() {
    // The daemon's wire counters must be exact accounting, not sampling:
    // after shutdown the fleet-wide `daemon.net.sent` equals the sends
    // summed over every node's own NodeStats, and every send was either
    // dropped by the base-loss layer or handed on toward the socket.
    let daemon = launch(0.05, 5);
    let registry = daemon.registry().clone();
    run_rounds(&daemon, 600);
    let nodes = daemon.shutdown();

    let counter = |name: &str| registry.counter_value(name).expect("registered");
    assert_eq!(counter("daemon.net.sent"), sum(&nodes, |s| s.sent), "the wire sees every send");
    assert_eq!(
        counter("daemon.net.sent"),
        counter("daemon.net.dropped") + counter("daemon.net.delivered"),
        "the loss layer's ledger must balance"
    );
    // And every frame a live node received is one of its receive steps.
    assert_eq!(
        counter("daemon.net.received"),
        sum(&nodes, |s| s.stored + s.deletions),
        "the drain receives every frame it takes in"
    );
}

#[test]
fn load_stays_balanced_under_loss() {
    let daemon = launch(0.05, 4);
    run_rounds(&daemon, 1200);
    let graph = MembershipGraph::from_nodes(&daemon.shutdown());
    let stats = DegreeStats::from_samples(&graph.in_degrees());
    assert!(stats.std_dev() < stats.mean, "indegree imbalance on the wire: {stats:?}");
}

#[test]
fn fleet_survives_heavy_loss() {
    let daemon = launch(0.2, 7);
    let registry = daemon.registry().clone();
    run_rounds(&daemon, 300);
    let nodes = daemon.shutdown();
    let counter = |name: &str| registry.counter_value(name).expect("registered");
    let rate = counter("daemon.net.dropped") as f64 / counter("daemon.net.sent") as f64;
    assert!((rate - 0.2).abs() < 0.07, "realized loss {rate}");
    // The duplication floor must have kept every node in the band.
    for node in &nodes {
        assert!(node.out_degree() >= 4, "node fell below d_L");
    }
    assert!(sum(&nodes, |s| s.duplications) > 0, "loss compensation never kicked in");
}

#[test]
fn joiner_gets_represented_after_churn() {
    let daemon = launch(0.02, 8);
    run_rounds(&daemon, 200);
    // A crash first, so the joiner bootstraps from views that still name
    // a departed node (and cannot itself be the random leaver).
    assert_eq!(daemon.leave_nodes(1), Ok(23));
    assert_eq!(daemon.join_nodes(1), Ok(24));
    // Ids are handed out in join order after the bootstrap fleet's 0..24.
    let joiner = NodeId::new(24);
    run_rounds(&daemon, 300);
    let nodes = daemon.shutdown();
    assert_eq!(nodes.len(), 24);
    assert!(
        nodes.iter().any(|n| n.id() != joiner && n.view().contains(joiner)),
        "joiner never got represented"
    );
}

#[test]
fn dropping_the_handle_stops_the_daemon() {
    let daemon = launch(0.0, 9);
    let round = daemon.registry().gauge("daemon.round");
    run_rounds(&daemon, 10);
    drop(daemon);
    // Drop joined the loop thread: reaching here is half the assertion,
    // a frozen round counter the other half.
    let stopped_at = round.get();
    std::thread::sleep(Duration::from_millis(20));
    assert_eq!(round.get(), stopped_at);
}
