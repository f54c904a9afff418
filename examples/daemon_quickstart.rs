//! S&F for real: boot a live membership daemon over a real UDP socket,
//! inject a partition, let it heal, and read the verdict from the HTTP
//! endpoint and from the nodes' final states.
//!
//! The simulator executes the paper's *model*; this example executes the
//! paper's *claim* — that S&F needs no bookkeeping and survives loss on a
//! real wire (Section 1, contribution (1)).
//!
//! Run with: `cargo run --example daemon_quickstart`

use std::time::Duration;

use sandf::daemon::{http_get, DaemonConfig};
use sandf::MembershipGraph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 128 nodes sharing the daemon's one loopback UDP socket, 2% wire loss.
    let daemon = DaemonConfig {
        initial_nodes: 128,
        tick: Duration::from_millis(10),
        base_loss: 0.02,
        ..DaemonConfig::default()
    }
    .spawn()?;
    let addr = daemon.http_addr().expect("HTTP endpoint is on by default");
    println!("daemon up: http://{addr}/membership");

    daemon.join_nodes(32).map_err(std::io::Error::other)?;
    // The same line a scenario spec would carry; it lapses after 30 rounds.
    daemon.fault("phase 30 partition 2 1.0 0").map_err(std::io::Error::other)?;
    println!("160 nodes, regions severed for 30 rounds — soaking ...");
    std::thread::sleep(Duration::from_secs(2));

    let snap = daemon.snapshot();
    println!(
        "round {}: live {}, mean outdegree {:.2}, stale {:.4} ≤ ceiling {:.4}, {} violations",
        snap.round,
        snap.live,
        snap.mean_out,
        snap.stale_fraction,
        snap.stale_ceiling,
        snap.degree_violations + snap.stale_violations,
    );
    let (status, metrics) = http_get(addr, "/metrics")?;
    println!("GET /metrics → {status} ({} bytes of Prometheus exposition)", metrics.len());

    let nodes = daemon.shutdown();
    let duplications: u64 = nodes.iter().map(|n| n.stats().duplications).sum();
    println!(
        "shutdown: {} nodes, {duplications} duplications compensated the loss, connected: {}",
        nodes.len(),
        MembershipGraph::from_nodes(&nodes).is_weakly_connected(),
    );
    Ok(())
}
