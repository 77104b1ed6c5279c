//! Metric names and the two output formats: one `name value unit` line
//! per metric for people, and the single JSON result line the driver
//! reads last.

use crate::stats::Summary;

/// Name and unit of one metric.
pub struct MetricDef {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The metrics `BENCHMARK.json` bounds: every workload reports each of
/// them, untraced, and none can be zero.
pub const END_TO_END: &[MetricDef] = &[m("setup_s", "s"), m("wall_s", "s"), m("peak_rss_mb", "MB")];

/// End-to-end numbers that exist on some workloads only. The contract
/// for `BENCHMARK.json` wants every bounded metric on every workload,
/// so these are printed by every run, compared by `run.sh --compare`,
/// and reported to the driver among the per-layer metrics under the
/// name in the second column.
pub const WORKLOAD_SPECIFIC: &[(&str, &str, &str)] = &[
    ("sim_makespan_s", "core.sim_makespan_s", "sim_s"),
    ("paper_total_err_pct", "core.paper_total_err_pct", "%"),
    ("journaled_run_s", "durable.journaled_run_s", "s"),
    ("recover_s", "durable.recover_s", "s"),
    ("wal_mb", "durable.wal_mb", "MB"),
    ("fetch_small_req_s", "rtnet.fetch_small_req_s", "1/s"),
    ("fetch_large_mb_s", "rtnet.fetch_large_mb_s", "MB/s"),
];

/// Every per-layer metric of the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    m("desim.events", "count"),
    m("desim.queue_depth_peak", "count"),
    m("desim.queue_ns_per_op", "ns"),
    m("desim.host_us_per_event", "us"),
    m("netsim.flows_started", "count"),
    m("netsim.realloc_waves", "count"),
    m("netsim.peak_concurrent_flows", "count"),
    m("netsim.exact_us_per_event", "us"),
    m("netsim.agg_us_per_event", "us"),
    m("netsim.realloc_wave_us", "us"),
    m("vcore.rpcs", "count"),
    m("vcore.empty_replies", "count"),
    m("vcore.grants", "count"),
    m("vcore.reports", "count"),
    m("vcore.useful_rpc_ratio", "ratio"),
    m("vcore.sched_ns_per_grant_rpc", "ns"),
    m("vcore.sched_ns_per_empty_rpc", "ns"),
    m("vcore.feeder_refill_us", "us"),
    m("vcore.transition_ns_per_wu", "ns"),
    m("vcore.validate_ns_per_check", "ns"),
    m("vcore.assimilate_ns_per_wu", "ns"),
    m("vcore.db_insert_ns_per_wu", "ns"),
    m("vcore.build_us_per_host", "us"),
    m("vcore.all_terminal_check_ns", "ns"),
    m("trust.observe_ns", "ns"),
    m("trust.decide_ns", "ns"),
    m("shuffle.bytes_p2p", "bytes"),
    m("shuffle.bytes_server_fallback", "bytes"),
    m("shuffle.p2p_byte_ratio", "ratio"),
    m("shuffle.plan_ns_per_fetch.baseline", "ns"),
    m("shuffle.plan_ns_per_fetch.swarm", "ns"),
    m("shuffle.plan_ns_per_fetch.coded", "ns"),
    m("core.submit_job_us", "us"),
    m("core.sim_makespan_s", "sim_s"),
    m("core.paper_total_err_pct", "%"),
    m("durable.records", "count"),
    m("durable.replayed_records", "count"),
    m("durable.append_ns_per_record", "ns"),
    m("durable.commit_ns_per_txn", "ns"),
    m("durable.snapshot_us", "us"),
    m("durable.recover_mb_s", "MB/s"),
    m("durable.compact_mb_s", "MB/s"),
    m("durable.journal_overhead_pct", "%"),
    m("durable.journaled_run_s", "s"),
    m("durable.recover_s", "s"),
    m("durable.wal_mb", "MB"),
    m("mapreduce.calibrate_mb_s", "MB/s"),
    m("obs.snapshot_us", "us"),
    m("obs.counter_inc_ns", "ns"),
    m("obs.journal_events", "count"),
    m("rtnet.encode_ns_per_frame", "ns"),
    m("rtnet.decode_ns_per_frame", "ns"),
    m("rtnet.store_get_ns", "ns"),
    m("rtnet.connect_fetch_us", "us"),
    m("rtnet.fetch_small_p50_us", "us"),
    m("rtnet.fetch_small_p99_us", "us"),
    m("rtnet.fetch_large_p50_us", "us"),
    m("rtnet.fetch_small_req_s", "1/s"),
    m("rtnet.fetch_large_mb_s", "MB/s"),
    m("rtnet.busy_rejections", "count"),
    m("rtnet.backpressure_stalls", "count"),
    m("rtnet.serve_us", "us"),
    m("bench.layers_cover_pct", "%"),
    m("bench.trace_overhead_pct", "%"),
];

/// JSON number: finite values keep every digit, anything else is 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// `{"value": v, "unit": "u"}` entries keyed by metric name.
pub fn metrics_object(values: &[(&str, f64, &str)]) -> String {
    let rows: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics}}}"
    )
}

/// `{"median":..,"q1":..,"q3":..,"n":..,"unit":".."}` for the suite report.
pub fn summary_json(s: &Summary, unit: &str) -> String {
    format!(
        "{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{unit}\"}}",
        num(s.median),
        num(s.q1),
        num(s.q3),
        s.n
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(PER_LAYER.len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        for (_, layer_name, _) in WORKLOAD_SPECIFIC {
            assert!(PER_LAYER.iter().any(|d| d.name == *layer_name));
        }
    }

    #[test]
    fn non_finite_numbers_never_reach_the_json() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.5), "1.5");
        let line = result_line(true, 3, 0, &metrics_object(&[("a", 2.0, "s")]));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"a\": {\"value\": 2, \"unit\": \"s\"}"));
    }
}
