//! Full-string golden test of the exposition renderer.
//!
//! `render_prometheus` is a pure function of a [`Snapshot`] (plain
//! data), and the snapshot's key order
//! is deterministic — so the entire scrape body can be pinned byte for
//! byte. Anything that would silently change what operators' scrapers
//! ingest (name sanitization, label escaping, `# TYPE` deduplication,
//! quantile-series layout, non-finite spellings) fails this diff.

use vmr_obs::{render_prometheus, HistogramSummary, MetricValue, Snapshot};

fn golden_snapshot() -> Snapshot {
    Snapshot {
        entries: vec![
            // Same family under two label sets: one # TYPE header only.
            (
                "rtnet.http_requests{path=/metrics}".into(),
                MetricValue::Counter(7),
            ),
            (
                "rtnet.http_requests{path=with\"quote\\slash}".into(),
                MetricValue::Counter(1),
            ),
            (
                "rtnet.poll.serve_us".into(),
                MetricValue::Histogram(HistogramSummary {
                    count: 10,
                    mean: 150.0,
                    p50: 120.0,
                    p95: 300.0,
                    p99: 410.5,
                    max: 512.0,
                }),
            ),
            ("rtnet.served".into(), MetricValue::Counter(10)),
            (
                "vcore.queue_depth".into(),
                MetricValue::TimeGauge {
                    current: 3.0,
                    mean: 2.5,
                    max: 9.0,
                },
            ),
            ("vcore.share".into(), MetricValue::Gauge(f64::INFINITY)),
            ("7bad.name".into(), MetricValue::Gauge(1.0)),
        ],
    }
}

#[test]
fn prometheus_scrape_is_byte_stable() {
    let expected = "\
# TYPE rtnet_http_requests counter
rtnet_http_requests{path=\"/metrics\"} 7
rtnet_http_requests{path=\"with\\\"quote\\\\slash\"} 1
# TYPE rtnet_poll_serve_us summary
rtnet_poll_serve_us{quantile=\"0.5\"} 120
rtnet_poll_serve_us{quantile=\"0.95\"} 300
rtnet_poll_serve_us{quantile=\"0.99\"} 410.5
rtnet_poll_serve_us_count 10
rtnet_poll_serve_us_sum 1500
rtnet_poll_serve_us_max 512
# TYPE rtnet_served counter
rtnet_served 10
# TYPE vcore_queue_depth gauge
vcore_queue_depth 3
vcore_queue_depth_mean 2.5
vcore_queue_depth_max 9
# TYPE vcore_share gauge
vcore_share +Inf
# TYPE _7bad_name gauge
_7bad_name 1
";
    let got = render_prometheus(&golden_snapshot());
    assert_eq!(got, expected, "exposition output drifted:\n{got}");
}

#[test]
fn two_scrapes_of_one_snapshot_are_identical() {
    let snap = golden_snapshot();
    assert_eq!(render_prometheus(&snap), render_prometheus(&snap));
}
