//! Text exposition of a metrics [`Snapshot`] — the live operations
//! surface behind `GET /metrics` and `GET /dash`.
//!
//! Two renderers, both pure functions of a [`Snapshot`]:
//!
//! * [`render_prometheus`] — the plaintext exposition format scrapers
//!   understand (`# TYPE` headers, `name{label="value"} value` samples,
//!   quantile series for histograms). Output ordering is the snapshot's
//!   key ordering, which the registry sorts — so two scrapes of the
//!   same state are byte-identical and the golden test can diff them.
//! * [`render_dashboard`] — a human-oriented text panel grouping
//!   counters, gauges and histogram summaries under a title.

use crate::types::{MetricValue, Snapshot};
use std::fmt::Write as _;

/// Splits a full registry key `name{k=v,k2=v2}` into the bare name and
/// its label pairs.
fn split_key(key: &str) -> (&str, Vec<(&str, &str)>) {
    let Some(brace) = key.find('{') else {
        return (key, Vec::new());
    };
    let name = &key[..brace];
    let inner = key[brace + 1..]
        .strip_suffix('}')
        .unwrap_or(&key[brace + 1..]);
    let labels = inner
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('=') {
            Some((k, v)) => (k, v),
            None => (p, ""),
        })
        .collect();
    (name, labels)
}

/// Maps a registry name onto the exposition character set
/// (`[a-zA-Z0-9_:]`): dots and other separators become underscores, a
/// leading digit is prefixed.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Number formatting for sample values: integers stay short, non-finite
/// values use the exposition spellings (`NaN`, `+Inf`, `-Inf`).
fn fmt_num(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x.is_infinite() {
        if x > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Renders one label set, with optional extra pairs appended (used for
/// histogram `quantile` series).
fn label_block(labels: &[(&str, &str)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().chain(extra.iter()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", sanitize_name(k), escape_label(v));
    }
    out.push('}');
    out
}

/// Renders a snapshot in the plaintext exposition format (version
/// 0.0.4). Ordering follows the snapshot's (sorted) key order; a
/// `# TYPE` header is emitted once per distinct sample family.
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(64 * snap.entries.len() + 16);
    let mut last_typed: Option<String> = None;
    for (key, value) in &snap.entries {
        let (raw_name, labels) = split_key(key);
        let name = sanitize_name(raw_name);
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) | MetricValue::TimeGauge { .. } => "gauge",
            MetricValue::Histogram(_) => "summary",
        };
        if last_typed.as_deref() != Some(name.as_str()) {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_typed = Some(name.clone());
        }
        let lb = label_block(&labels, &[]);
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{name}{lb} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{name}{lb} {}", fmt_num(*v));
            }
            MetricValue::TimeGauge { current, mean, max } => {
                let _ = writeln!(out, "{name}{lb} {}", fmt_num(*current));
                let _ = writeln!(out, "{name}_mean{lb} {}", fmt_num(*mean));
                let _ = writeln!(out, "{name}_max{lb} {}", fmt_num(*max));
            }
            MetricValue::Histogram(h) => {
                for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                    let qlb = label_block(&labels, &[("quantile", q)]);
                    let _ = writeln!(out, "{name}{qlb} {}", fmt_num(v));
                }
                let _ = writeln!(out, "{name}_count{lb} {}", h.count);
                let _ = writeln!(out, "{name}_sum{lb} {}", fmt_num(h.mean * h.count as f64));
                let _ = writeln!(out, "{name}_max{lb} {}", fmt_num(h.max));
            }
        }
    }
    out
}

/// Renders a human-oriented text panel: counters, gauges and histogram
/// summaries grouped under `title`. Stateless: each call renders the
/// snapshot it is given.
pub fn render_dashboard(snap: &Snapshot, title: &str) -> String {
    let width = snap
        .entries
        .iter()
        .map(|(k, _)| k.len())
        .max()
        .unwrap_or(0)
        .max(8);

    let mut counters = String::new();
    let mut gauges = String::new();
    let mut histos = String::new();
    for (key, value) in &snap.entries {
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(counters, "  {key:<width$} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(gauges, "  {key:<width$} {}", fmt_num(*v));
            }
            MetricValue::TimeGauge { current, mean, max } => {
                let _ = writeln!(
                    gauges,
                    "  {key:<width$} {} (mean {}, max {})",
                    fmt_num(*current),
                    fmt_num(*mean),
                    fmt_num(*max)
                );
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(histos, "  {key:<width$} {}", h.brief());
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    for (header, body) in [
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histos),
    ] {
        if !body.is_empty() {
            let _ = writeln!(out, "{header}:");
            out.push_str(&body);
        }
    }
    if out.lines().count() == 1 {
        let _ = writeln!(out, "(no metrics registered)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::HistogramSummary;

    fn sample() -> Snapshot {
        Snapshot {
            entries: vec![
                ("rtnet.served".into(), MetricValue::Counter(3)),
                (
                    "rtnet.serve_us".into(),
                    MetricValue::Histogram(HistogramSummary {
                        count: 4,
                        mean: 2.0,
                        p50: 2.0,
                        p95: 4.0,
                        p99: 4.0,
                        max: 4.5,
                    }),
                ),
                ("vcore.load".into(), MetricValue::Gauge(0.5)),
            ],
        }
    }

    #[test]
    fn prometheus_names_are_sanitized_and_typed() {
        let text = render_prometheus(&sample());
        assert!(text.contains("# TYPE rtnet_served counter"));
        assert!(text.contains("rtnet_served 3"));
        assert!(text.contains("rtnet_serve_us{quantile=\"0.99\"} 4"));
        assert!(text.contains("rtnet_serve_us_count 4"));
        assert!(text.contains("vcore_load 0.5"));
    }

    #[test]
    fn labels_are_escaped() {
        let snap = Snapshot {
            entries: vec![("c{path=a\"b\\c}".into(), MetricValue::Counter(1))],
        };
        let text = render_prometheus(&snap);
        assert!(text.contains("c{path=\"a\\\"b\\\\c\"} 1"), "got: {text}");
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let text = render_dashboard(&Snapshot::default(), "empty");
        assert!(text.contains("(no metrics registered)"));
        // A non-empty snapshot renders its title and one line per
        // metric, grouped by kind.
        let text = render_dashboard(&sample(), "t");
        assert!(text.starts_with("== t =="), "got: {text}");
        assert!(!text.contains("(no metrics registered)"));
        let line = |key: &str| text.lines().find(|l| l.trim_start().starts_with(key));
        assert_eq!(line("counters:"), Some("counters:"));
        assert!(line("rtnet.served").is_some_and(|l| l.ends_with(" 3")));
        assert!(line("vcore.load").is_some_and(|l| l.ends_with(" 0.5")));
        assert!(line("rtnet.serve_us")
            .is_some_and(|l| l.ends_with(" n=4 mean=2 p50=2 p95=4 p99=4 max=4.5")));
    }
}
