//! One fault grammar, two front ends: every fault line a scenario spec
//! rejects, a live daemon's `/ctl/fault` rejects with the same words (the
//! spec only prefixes the line number), and the built-in specs' phase
//! lines install on the daemon verbatim.

use std::time::Duration;

use sandf_bench::scenario::{builtin_specs, Scenario};
use sandf_daemon::DaemonConfig;

/// The fault rejections of `tests/scenario_spec.rs`, plus a dead bursty
/// channel and the two malformed `phase` heads.
const REJECTED: &[&str] = &[
    "phase 5 gauss 0.3",
    "phase 5 uniform 1.5",
    "phase 5 partition 2",
    "phase 5 partition 1 0.5 0",
    "phase 5 capacity 1 0.5 1 0",
    "phase 5 victims 0 0.5 0",
    "phase 5 bursty 0 0 0.1 0.9",
    "phase 0 uniform 0",
    "phase 5",
];

#[test]
fn daemon_and_scenario_spec_share_one_fault_grammar() {
    let daemon = DaemonConfig {
        initial_nodes: 16,
        tick: Duration::from_millis(5),
        http_port: None,
        ..DaemonConfig::default()
    }
    .spawn()
    .expect("loopback sockets bind");
    let spec = |line: &str| Scenario::parse(&format!("scenario x\nn 24\nview 12 4\n{line}\n"));

    for line in REJECTED {
        let from_spec = spec(line).expect_err(line);
        assert_eq!(from_spec.line, 4, "{line:?}");
        assert_eq!(daemon.fault(line), Err(from_spec.message), "{line:?}");
    }
    for (name, text) in builtin_specs() {
        for phase in Scenario::parse(text).expect(name).phases {
            let line = format!("phase {} {}", phase.rounds, phase.fault);
            assert_eq!(daemon.fault(&line).as_deref(), Ok(phase.fault.kind()), "{name}: {line:?}");
        }
    }
    daemon.shutdown();
}
