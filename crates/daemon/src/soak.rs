//! The soak harness: drives a live daemon through flash-crowd joins,
//! sustained churn, a mass leave, and a regional partition + heal, sampling
//! membership health throughout and gating on post-heal invariant
//! violations.
//!
//! The harness talks to the daemon exclusively over its HTTP endpoint, so
//! the same code soaks an embedded daemon (spawned in-process) or a remote
//! one (`soak_run --connect host:port`). Phase rows aggregate the sampled
//! stale fraction and mean outdegree with 95% confidence bands in the
//! replicated sweeps' [`Summary`] style, and the report renders as TSV (one row
//! per phase) or JSON.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use sandf_graph::Summary;

use crate::http::{http_get, http_post};

/// Soak-scenario parameters, all denominated in protocol rounds so the
/// scenario scales with the daemon's tick length.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Nodes joined in one burst during the flash-crowd phase.
    pub flash_join: usize,
    /// Join+leave batches applied during the churn phase.
    pub churn_iters: usize,
    /// Nodes per churn batch (joined, then an equal count leaves).
    pub churn_batch: usize,
    /// Fraction of the live fleet removed in the mass-leave phase.
    pub mass_leave_fraction: f64,
    /// Regional-partition window length, in rounds.
    pub partition_rounds: u64,
    /// Cross-region severance probability during the partition. The
    /// phase line's in-region rate is 0, and an injected phase replaces the
    /// daemon's base loss, so the channel inside each region is lossless
    /// for the window.
    pub partition_sever: f64,
    /// Rounds each measurement phase observes before moving on.
    pub settle_rounds: u64,
    /// Sampling interval while a phase runs.
    pub poll: Duration,
    /// Abort if a phase sees no round progress for this long.
    pub stall_timeout: Duration,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            flash_join: 32,
            churn_iters: 4,
            churn_batch: 8,
            mass_leave_fraction: 0.25,
            partition_rounds: 30,
            partition_sever: 1.0,
            settle_rounds: 20,
            poll: Duration::from_millis(50),
            stall_timeout: Duration::from_secs(60),
        }
    }
}

/// One membership sample, extracted from a `/membership` JSON body.
#[derive(Clone, Copy, Debug)]
struct Sample {
    round: u64,
    live: u64,
    stale_fraction: f64,
    mean_out: f64,
    degree_violations: u64,
    stale_violations: u64,
    window_loss: f64,
}

/// Aggregates for one soak phase.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Phase name (`warmup`, `flash_join`, …).
    pub name: &'static str,
    /// Round at phase start.
    pub round_start: u64,
    /// Round at phase end.
    pub round_end: u64,
    /// Live nodes at phase end.
    pub live_end: u64,
    /// Sampled stale-edge fraction over the phase.
    pub stale: Summary,
    /// Sampled mean outdegree over the phase.
    pub mean_out: Summary,
    /// Sampled realized window loss over the phase.
    pub window_loss: Summary,
    /// New Observation 5.1 offenders during the phase.
    pub degree_violations: u64,
    /// New Lemma 6.10 ceiling breaches during the phase.
    pub stale_violations: u64,
}

/// The full soak outcome.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Per-phase aggregates, in execution order.
    pub rows: Vec<PhaseRow>,
}

impl SoakReport {
    /// Invariant violations observed in the `post_heal` phase — the soak
    /// gate: the paper's invariants must hold again once faults clear.
    #[must_use]
    pub fn post_heal_violations(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.name == "post_heal")
            .map(|r| r.degree_violations + r.stale_violations)
            .sum()
    }

    /// Renders one TSV row per phase (tab-separated, header first).
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "phase\trounds\tlive\tstale_mean\tstale_ci95\tmean_out\tmean_out_ci95\t\
             loss_mean\tdegree_viol\tstale_viol\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{}\t{}..{}\t{}\t{:.6}\t{:.6}\t{:.3}\t{:.3}\t{:.4}\t{}\t{}\n",
                row.name,
                row.round_start,
                row.round_end,
                row.live_end,
                row.stale.mean,
                row.stale.ci95,
                row.mean_out.mean,
                row.mean_out.ci95,
                row.window_loss.mean,
                row.degree_violations,
                row.stale_violations,
            ));
        }
        out
    }

    /// Renders the report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                format!(
                    concat!(
                        "{{\"phase\":\"{}\",\"round_start\":{},\"round_end\":{},",
                        "\"live\":{},\"stale_mean\":{:.6},\"stale_ci95\":{:.6},",
                        "\"mean_out\":{:.3},\"mean_out_ci95\":{:.3},",
                        "\"loss_mean\":{:.4},\"degree_violations\":{},",
                        "\"stale_violations\":{}}}"
                    ),
                    row.name,
                    row.round_start,
                    row.round_end,
                    row.live_end,
                    row.stale.mean,
                    row.stale.ci95,
                    row.mean_out.mean,
                    row.mean_out.ci95,
                    row.window_loss.mean,
                    row.degree_violations,
                    row.stale_violations,
                )
            })
            .collect();
        format!(
            "{{\"phases\":[{}],\"post_heal_violations\":{}}}",
            rows.join(","),
            self.post_heal_violations()
        )
    }
}

/// Extracts a numeric field from a flat JSON object body. Good enough for
/// the daemon's own hand-rolled JSON; not a general parser.
pub(crate) fn json_number(body: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = &body[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn fetch_sample(addr: SocketAddr) -> Result<Sample, String> {
    let (status, body) = http_get(addr, "/membership").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/membership returned {status}"));
    }
    let field = |key: &str| {
        json_number(&body, key).ok_or_else(|| format!("/membership body lacks {key:?}: {body}"))
    };
    Ok(Sample {
        round: field("round")? as u64,
        live: field("live")? as u64,
        stale_fraction: field("stale_fraction")?,
        mean_out: field("mean_out")?,
        degree_violations: field("degree_violations")? as u64,
        stale_violations: field("stale_violations")? as u64,
        window_loss: field("window_loss")?,
    })
}

fn post_ok(addr: SocketAddr, path: &str, body: &str) -> Result<String, String> {
    let (status, reply) = http_post(addr, path, body).map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("POST {path} returned {status}: {reply}"));
    }
    Ok(reply)
}

/// Observes the daemon for `rounds` rounds, sampling every `poll`.
fn sample_phase(
    addr: SocketAddr,
    name: &'static str,
    rounds: u64,
    config: &SoakConfig,
) -> Result<PhaseRow, String> {
    let first = fetch_sample(addr)?;
    let target = first.round + rounds;
    let mut samples = vec![first];
    let mut last_progress = (Instant::now(), first.round);
    loop {
        let latest = *samples.last().expect("seeded with one sample");
        if latest.round >= target {
            break;
        }
        if latest.round > last_progress.1 {
            last_progress = (Instant::now(), latest.round);
        } else if last_progress.0.elapsed() > config.stall_timeout {
            return Err(format!(
                "phase {name}: no round progress past {} for {:?}",
                latest.round, config.stall_timeout
            ));
        }
        std::thread::sleep(config.poll);
        samples.push(fetch_sample(addr)?);
    }
    let last = *samples.last().expect("non-empty");
    let collect =
        |f: fn(&Sample) -> f64| Summary::from_samples(&samples.iter().map(f).collect::<Vec<f64>>());
    Ok(PhaseRow {
        name,
        round_start: first.round,
        round_end: last.round,
        live_end: last.live,
        stale: collect(|s| s.stale_fraction),
        mean_out: collect(|s| s.mean_out),
        window_loss: collect(|s| s.window_loss),
        degree_violations: last.degree_violations.saturating_sub(first.degree_violations),
        stale_violations: last.stale_violations.saturating_sub(first.stale_violations),
    })
}

/// Runs the full soak scenario against the daemon at `addr`:
/// warmup → flash-crowd join → sustained churn → mass leave → regional
/// partition → heal → post-heal measurement (the gate).
///
/// # Errors
///
/// Returns a message on HTTP failures, rejected control commands, or a
/// stalled daemon.
pub fn run_soak(addr: SocketAddr, config: &SoakConfig) -> Result<SoakReport, String> {
    let (status, _) = http_get(addr, "/healthz").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/healthz returned {status}"));
    }
    let mut rows = Vec::new();

    rows.push(sample_phase(addr, "warmup", config.settle_rounds, config)?);

    if config.flash_join > 0 {
        post_ok(addr, &format!("/ctl/join?n={}", config.flash_join), "")?;
        rows.push(sample_phase(addr, "flash_join", config.settle_rounds, config)?);
    }

    if config.churn_iters > 0 && config.churn_batch > 0 {
        for _ in 0..config.churn_iters {
            post_ok(addr, &format!("/ctl/join?n={}", config.churn_batch), "")?;
            post_ok(addr, &format!("/ctl/leave?n={}", config.churn_batch), "")?;
        }
        rows.push(sample_phase(addr, "churn", config.settle_rounds, config)?);
    }

    let live = fetch_sample(addr)?.live;
    let mass = ((live as f64 * config.mass_leave_fraction) as u64).min(live.saturating_sub(4));
    if mass > 0 {
        post_ok(addr, &format!("/ctl/leave?n={mass}"), "")?;
        rows.push(sample_phase(addr, "mass_leave", config.settle_rounds, config)?);
    }

    post_ok(
        addr,
        "/ctl/fault",
        &format!("phase {} partition 2 {} 0", config.partition_rounds, config.partition_sever),
    )?;
    rows.push(sample_phase(addr, "partition", config.partition_rounds, config)?);

    // The partition phase has lapsed by now; the fleet re-converges before
    // the gated phase is measured.
    rows.push(sample_phase(addr, "heal", config.settle_rounds, config)?);
    rows.push(sample_phase(addr, "post_heal", config.settle_rounds, config)?);

    Ok(SoakReport { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_extracts_flat_fields() {
        let body = "{\"round\":42,\"stale_fraction\":0.125,\"fault\":\"none\",\"live\":9}";
        assert_eq!(json_number(body, "round"), Some(42.0));
        assert_eq!(json_number(body, "stale_fraction"), Some(0.125));
        assert_eq!(json_number(body, "live"), Some(9.0));
        assert_eq!(json_number(body, "missing"), None);
        assert_eq!(json_number(body, "fault"), None, "strings are not numbers");
    }

    #[test]
    fn report_renders_tsv_and_json() {
        let summary = Summary::from_samples(&[0.1, 0.2]);
        let row = PhaseRow {
            name: "post_heal",
            round_start: 10,
            round_end: 30,
            live_end: 64,
            stale: summary,
            mean_out: summary,
            window_loss: summary,
            degree_violations: 0,
            stale_violations: 0,
        };
        let report = SoakReport { rows: vec![row] };
        assert_eq!(report.post_heal_violations(), 0);
        let tsv = report.to_tsv();
        assert!(tsv.starts_with("phase\t"));
        assert!(tsv.contains("post_heal\t10..30\t64\t"));
        let json = report.to_json();
        assert!(json.contains("\"post_heal_violations\":0"));
        assert_eq!(json_number(&json, "post_heal_violations"), Some(0.0));
    }

    #[test]
    fn violations_in_other_phases_do_not_gate() {
        let summary = Summary::from_samples(&[0.0]);
        let mk = |name: &'static str, sv: u64| PhaseRow {
            name,
            round_start: 0,
            round_end: 1,
            live_end: 1,
            stale: summary,
            mean_out: summary,
            window_loss: summary,
            degree_violations: 0,
            stale_violations: sv,
        };
        let report = SoakReport { rows: vec![mk("partition", 3), mk("post_heal", 0)] };
        assert_eq!(report.post_heal_violations(), 0);
        let report = SoakReport { rows: vec![mk("post_heal", 2)] };
        assert_eq!(report.post_heal_violations(), 2);
    }
}
