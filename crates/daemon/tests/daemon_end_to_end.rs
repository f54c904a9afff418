//! End-to-end test: boot a real daemon on loopback UDP, drive it through
//! joins, leaves, and a partition + heal entirely over its HTTP endpoint,
//! and assert the paper's invariants held.

use std::time::{Duration, Instant};

use sandf_daemon::soak::{run_soak, SoakConfig};
use sandf_daemon::{http_get, http_post, DaemonConfig};

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
        "daemon.net.dead_letters",
        "daemon.net.delivered",
        "daemon.net.dropped",
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
