//! The metric and workload tables — the same names, units and directions
//! as `BENCHMARK.json` (a unit test holds the two together).

use std::collections::BTreeMap;

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read only by the unit test that holds `BENCHMARK.json` to this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// per-layer metrics carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: None }
}

/// Run length the sizing constants were chosen for (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: &[(&str, &str)] = &[
    ("steady_flat", "FlatSimulation n=2e6, rounds only: the serial central-entity hot path does all the work; plain single-threaded baseline of steady_par"),
    ("steady_par", "ParSimulation, same n and topology, 1 worker thread: phase-split sharded scheduler, per-node stream construction and merge sort; no serial ring"),
    ("churn_flat", "FlatSimulation n=3e5 with 0.5%/round leave+join, a 25% mass leave and flash-crowd rejoin: control-plane writes and O(n*s) reads beside steps"),
    ("rumor_push", "FlatSimulation n=5e5 on a random overlay plus fanout-1 push rumor over a 1% lossy channel: the only workload running sim::broadcast and its outcome metrics"),
    ("daemon_udp", "1000-node daemon saturated on loopback UDP sockets: core::SfNode, net codec/transports, timer wheel, fault injector, live invariant checker"),
];

/// A metric a workload does not exercise still has to be printed on every
/// run; it prints this value, which no comparison should read.
pub const NOT_EXERCISED: f64 = 1.0;

pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("steps_per_sec", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.20),
    e2e("rounds_to_99", "rounds", Better::Lower, 0.10),
    e2e("msgs_per_node", "messages", Better::Lower, 0.10),
];

pub const PER_LAYER: &[MetricDef] = &[
    // sim::topology
    lower("topology.circulant_s", "s"),
    lower("topology.random_s", "s"),
    // sim::flat, data plane
    lower("flat.build_s", "s"),
    lower("flat.round_ns_per_step", "ns"),
    higher("flat.round_rate_p50", "1/s"),
    higher("flat.round_rate_p10", "1/s"),
    lower("flat.step_span_s", "s"),
    lower("flat.deliver_span_s", "s"),
    higher("flat.useful_share", "share"),
    // sim::flat, control plane and measurement reads
    lower("flat.leave_us", "us"),
    lower("flat.leave_s", "s"),
    lower("flat.join_us", "us"),
    lower("flat.join_s", "s"),
    lower("flat.count_instances_ms", "ms"),
    lower("flat.degree_stats_us", "us"),
    lower("flat.mass_leave_s", "s"),
    lower("flat.live_after", "count"),
    lower("flat.dense_after", "count"),
    // roofline
    lower("flat.bytes_per_step_computed", "B"),
    higher("mem.read_gbps", "GB/s"),
    lower("flat.bw_share_computed", "share"),
    // sim::par
    lower("par.build_s", "s"),
    lower("par.round_ns_per_step_1t", "ns"),
    lower("par.action_span_s", "s"),
    lower("par.merge_span_s", "s"),
    lower("par.deliver_span_s", "s"),
    lower("par.shard_imbalance", "ratio"),
    higher("par.steps_per_sec_2t", "1/s"),
    higher("par.speedup_2t", "ratio"),
    higher("par.efficiency_2t", "share"),
    higher("par.thread_invariant", "bool"),
    lower("par.leave_us", "us"),
    lower("par.join_us", "us"),
    // calibration kernels
    lower("scan.count_matches_ns", "ns"),
    lower("scan.nth_match_ns", "ns"),
    lower("loss.uniform_draw_ns", "ns"),
    lower("rand.stream_build_ns", "ns"),
    lower("rand.gen_range_ns", "ns"),
    lower("core.initiate_ns", "ns"),
    lower("core.receive_ns", "ns"),
    lower("codec.encode_ns", "ns"),
    lower("codec.decode_ns", "ns"),
    lower("udp.send_us", "us"),
    lower("udp.recv_us", "us"),
    lower("obs.counter_inc_ns", "ns"),
    lower("daemon.wheel_ns_per_item", "ns"),
    lower("daemon.check_ms", "ms"),
    // sim::broadcast
    lower("broadcast.step_s", "s"),
    lower("broadcast.step_ns_per_node", "ns"),
    higher("broadcast.membership_share", "share"),
    lower("broadcast.sent", "count"),
    lower("broadcast.lost", "count"),
    lower("broadcast.duplicates", "count"),
    lower("broadcast.duplicate_share", "share"),
    lower("broadcast.to_half", "rounds"),
    // daemon, saturated phase
    lower("daemon.boot_us_per_node", "us"),
    higher("daemon.sent_per_sec", "1/s"),
    higher("daemon.delivered_per_sec", "1/s"),
    higher("daemon.delivered_share", "share"),
    lower("daemon.dropped", "count"),
    lower("daemon.dead_letters", "count"),
    lower("daemon.recv_errors", "count"),
    lower("daemon.violations", "count"),
    lower("daemon.round_ms_p50", "ms"),
    lower("daemon.round_ms_p99", "ms"),
    lower("daemon.sys_cpu_share", "share"),
    // daemon, paced phase and control plane
    higher("daemon.paced_rounds_per_sec", "1/s"),
    lower("daemon.late_p50_ms", "ms"),
    lower("daemon.late_p99_ms", "ms"),
    lower("daemon.poller_late_us", "us"),
    lower("daemon.ctl_join_ms", "ms"),
    lower("daemon.ctl_leave_ms", "ms"),
    lower("daemon.http_metrics_ms", "ms"),
    // the benchmark itself
    lower("bench.driver_self_share", "share"),
    lower("bench.trace_overhead_share", "share"),
    lower("bench.closure_error", "share"),
    lower("bench.verify_s", "s"),
];

/// The metrics of one run, keyed by declared name.
#[derive(Clone, Debug)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// Every end-to-end metric, preset to [`NOT_EXERCISED`].
    #[must_use]
    pub fn end_to_end() -> Self {
        Self::filled(END_TO_END, NOT_EXERCISED)
    }

    /// Every per-layer metric, preset to 0: a layer the workload never
    /// calls did no work and took no time.
    #[must_use]
    pub fn per_layer() -> Self {
        Self::filled(PER_LAYER, 0.0)
    }

    fn filled(defs: &'static [MetricDef], value: f64) -> Self {
        Self { defs, values: defs.iter().map(|d| (d.name, value)).collect() }
    }

    /// Records a measured value.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not declare, or a non-finite value
    /// — both are bugs in a workload driver, caught by the smoke tests.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("metric {name} is not declared"),
        }
    }

    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// `(definition, value)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().map(|d| (d, self.values[d.name]))
    }

    /// `{"name": {"value": v, "unit": u}, ...}` as the result line carries it.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object(self.iter().map(|(d, v)| {
            (d.name, Json::object([("value", Json::from(v)), ("unit", Json::from(d.unit))]))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "workload name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
            assert!(seen.insert(*name), "duplicate name {name}");
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "metric name {}", def.name);
            assert!(valid_unit(def.unit), "unit of {}", def.name);
            assert!(seen.insert(def.name), "duplicate name {}", def.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for def in END_TO_END {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", def.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(doc.get("run_seconds").and_then(Json::as_u64), Some(RUN_SECONDS));

        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);

        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound, "{}", def.name);
                let expected_keys = if def.bound.is_some() { 4 } else { 3 };
                assert_eq!(entry.as_object().unwrap().len(), expected_keys, "{}", def.name);
            }
        }
    }

    #[test]
    fn metric_set_rejects_undeclared_and_non_finite_values() {
        let mut set = MetricSet::per_layer();
        set.set("flat.build_s", 0.5);
        assert_eq!(set.get("flat.build_s"), 0.5);
        assert_eq!(set.get("par.build_s"), 0.0);
        assert!(std::panic::catch_unwind(move || set.set("flat.typo", 1.0)).is_err());
        let mut set = MetricSet::end_to_end();
        assert_eq!(set.get("rounds_to_99"), NOT_EXERCISED);
        assert!(std::panic::catch_unwind(move || set.set("setup_s", f64::NAN)).is_err());
    }
}
