//! The `sandf-daemon` binary: boots a fleet and serves the HTTP endpoint.
//!
//! ```text
//! sandf-daemon [--nodes N] [--port P] [--tick-ms MS] [--loss L]
//!              [--seed S] [--check-every R] [--secs T]
//! ```
//!
//! `--secs 0` (the default) runs until killed. Status lines are printed at
//! every invariant-check cadence. A run that `--secs` ends exits 1 if an
//! invariant was violated or the wire ledger does not close (frames went
//! missing between send and receive).

use std::time::Duration;

use sandf_daemon::{DaemonConfig, WireLedger};

struct Args {
    config: DaemonConfig,
    secs: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut config = DaemonConfig::default();
    let mut secs = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{what} needs a value"));
        match flag.as_str() {
            "--nodes" => config.initial_nodes = parse(&value("--nodes")?)?,
            "--port" => config.http_port = Some(parse(&value("--port")?)?),
            "--tick-ms" => config.tick = Duration::from_millis(parse(&value("--tick-ms")?)?),
            "--loss" => config.base_loss = parse(&value("--loss")?)?,
            "--seed" => config.seed = parse(&value("--seed")?)?,
            "--check-every" => config.check_every = parse(&value("--check-every")?)?,
            "--secs" => secs = parse(&value("--secs")?)?,
            "--help" | "-h" => {
                println!(
                    "usage: sandf-daemon [--nodes N] [--port P] [--tick-ms MS] [--loss L] \
                     [--seed S] [--check-every R] [--secs T]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(Args { config, secs })
}

fn parse<T: std::str::FromStr>(word: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    word.parse().map_err(|e| format!("bad value {word:?}: {e}"))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("sandf-daemon: {message}");
            std::process::exit(2);
        }
    };
    let tick = args.config.tick;
    let check_every = args.config.check_every;
    let daemon = match args.config.spawn() {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("sandf-daemon: failed to boot: {e}");
            std::process::exit(1);
        }
    };
    match daemon.http_addr() {
        Some(addr) => eprintln!(
            "sandf-daemon: serving http://{addr} (metrics, healthz, membership, journal, ctl)"
        ),
        None => eprintln!("sandf-daemon: running without an HTTP endpoint"),
    }

    let status_every = tick * u32::try_from(check_every).unwrap_or(u32::MAX).max(1);
    let started = std::time::Instant::now();
    let mut last_round = u64::MAX;
    loop {
        std::thread::sleep(status_every.max(Duration::from_millis(200)));
        let snap = daemon.snapshot();
        if snap.round != last_round {
            last_round = snap.round;
            eprintln!(
                "round {:>6}  live {:>5}  out {:>5.2}  stale {:.4} (ceil {:.4})  \
                 comps {}  loss {:.3}  fault {}  viol {}/{}",
                snap.round,
                snap.live,
                snap.mean_out,
                snap.stale_fraction,
                snap.stale_ceiling,
                snap.components,
                snap.window_loss,
                snap.fault,
                snap.degree_violations,
                snap.stale_violations,
            );
        }
        if args.secs > 0 && started.elapsed() >= Duration::from_secs(args.secs) {
            break;
        }
    }
    let snap = daemon.snapshot();
    let registry = daemon.registry().clone();
    daemon.shutdown();
    eprintln!(
        "sandf-daemon: stopped after {} rounds; {} checks, {} degree violations, {} stale violations",
        snap.round, snap.checks, snap.degree_violations, snap.stale_violations
    );
    let ledger = WireLedger::read(&registry);
    eprintln!("sandf-daemon: wire ledger: {ledger}");
    if snap.degree_violations + snap.stale_violations + ledger.in_flight() > 0 {
        std::process::exit(1);
    }
}
