//! The `soak_run` binary: soaks a live daemon and gates on post-heal
//! invariant violations.
//!
//! ```text
//! soak_run [--connect HOST:PORT | --nodes N] [--tick-ms MS] [--loss L]
//!          [--seed S] [--flash K] [--churn I] [--churn-batch B]
//!          [--partition-rounds R] [--settle-rounds R] [--out PREFIX]
//! ```
//!
//! Without `--connect` an embedded daemon is spawned on an ephemeral
//! loopback port and soaked in-process. The TSV report goes to stdout; with
//! `--out PREFIX`, `PREFIX.tsv` and `PREFIX.json` are written too. Exit
//! status is 0 only if the post-heal phase has zero Observation 5.1 and
//! Lemma 6.10 violations, `/healthz` answers 200, `/metrics` exposes the
//! daemon's wire counters and — for an embedded daemon, whose loop can be
//! stopped first — the wire ledger closes: `delivered = received +
//! dead_letters + fault_dropped`, no frame lost in the kernel.

use std::net::SocketAddr;
use std::time::Duration;

use sandf_daemon::{http_get, run_soak, DaemonConfig, SoakConfig, WireLedger};

struct Args {
    connect: Option<SocketAddr>,
    daemon: DaemonConfig,
    soak: SoakConfig,
    out: Option<String>,
}

fn parse<T: std::str::FromStr>(word: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    word.parse().map_err(|e| format!("bad value {word:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        connect: None,
        daemon: DaemonConfig::default(),
        soak: SoakConfig::default(),
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{what} needs a value"));
        match flag.as_str() {
            "--connect" => parsed.connect = Some(parse(&value("--connect")?)?),
            "--nodes" => parsed.daemon.initial_nodes = parse(&value("--nodes")?)?,
            "--tick-ms" => {
                parsed.daemon.tick = Duration::from_millis(parse(&value("--tick-ms")?)?);
            }
            "--loss" => parsed.daemon.base_loss = parse(&value("--loss")?)?,
            "--seed" => parsed.daemon.seed = parse(&value("--seed")?)?,
            "--flash" => parsed.soak.flash_join = parse(&value("--flash")?)?,
            "--churn" => parsed.soak.churn_iters = parse(&value("--churn")?)?,
            "--churn-batch" => parsed.soak.churn_batch = parse(&value("--churn-batch")?)?,
            "--partition-rounds" => {
                parsed.soak.partition_rounds = parse(&value("--partition-rounds")?)?;
            }
            "--settle-rounds" => parsed.soak.settle_rounds = parse(&value("--settle-rounds")?)?,
            "--out" => parsed.out = Some(value("--out")?),
            "--help" | "-h" => {
                println!(
                    "usage: soak_run [--connect HOST:PORT | --nodes N] [--tick-ms MS] \
                     [--loss L] [--seed S] [--flash K] [--churn I] [--churn-batch B] \
                     [--partition-rounds R] [--settle-rounds R] [--out PREFIX]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("soak_run: {message}");
            std::process::exit(2);
        }
    };

    // Spawn an embedded daemon unless pointed at a live one.
    let mut embedded = None;
    let addr = match args.connect {
        Some(addr) => addr,
        None => {
            let daemon = match args.daemon.spawn() {
                Ok(daemon) => daemon,
                Err(e) => {
                    eprintln!("soak_run: failed to boot embedded daemon: {e}");
                    std::process::exit(1);
                }
            };
            let addr = daemon.http_addr().expect("embedded daemon always serves HTTP");
            eprintln!("soak_run: embedded daemon at http://{addr}");
            embedded = Some(daemon);
            addr
        }
    };

    let report = match run_soak(addr, &args.soak) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("soak_run: soak failed: {message}");
            std::process::exit(1);
        }
    };

    print!("{}", report.to_tsv());
    if let Some(prefix) = &args.out {
        for (ext, body) in [("tsv", report.to_tsv()), ("json", report.to_json())] {
            let path = format!("{prefix}.{ext}");
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("soak_run: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    // The gate: healthy endpoint, wire counters exposed, zero post-heal
    // invariant violations.
    let healthz = http_get(addr, "/healthz").map(|(s, _)| s).unwrap_or(0);
    let metrics_ok = http_get(addr, "/metrics")
        .map(|(s, body)| {
            s == 200
                && body.contains("sandf_daemon_net_sent")
                && body.contains("sandf_daemon_net_received")
        })
        .unwrap_or(false);
    let violations = report.post_heal_violations();
    // A live loop is always between two counter updates; a stopped one has
    // taken its last sends off the wire.
    let ledger = embedded.map(|daemon| {
        let registry = daemon.registry().clone();
        daemon.shutdown();
        WireLedger::read(&registry)
    });

    if healthz != 200 {
        eprintln!("soak_run: FAIL — /healthz returned {healthz}");
        std::process::exit(1);
    }
    if !metrics_ok {
        eprintln!("soak_run: FAIL — /metrics lacks sandf_daemon_net_sent or _received");
        std::process::exit(1);
    }
    if let Some(ledger) = ledger {
        eprintln!("soak_run: wire ledger: {ledger}");
        if ledger.in_flight() > 0 {
            eprintln!("soak_run: FAIL — frames went missing between send and receive");
            std::process::exit(1);
        }
    }
    if violations > 0 {
        eprintln!("soak_run: FAIL — {violations} post-heal invariant violations");
        std::process::exit(1);
    }
    eprintln!("soak_run: PASS — zero post-heal invariant violations");
}
