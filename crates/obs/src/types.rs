//! Plain-data types of the recorder: metric snapshots and the journal's
//! typed event vocabulary.
//!
//! A journal event holds ids and enums only, never text, so recording
//! one never allocates. Names (`node-03`, `exec`, `r12`, `map-start`)
//! are made at read time, by [`Event::to_json`] and by the `Display`
//! impls below.

use std::fmt::{self, Write as _};

/// Quantile summary of one histogram — the single snapshot shape every
/// consumer (bench binaries, EXPERIMENTS.md tables, JSON export) uses.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean of the samples.
    pub mean: f64,
    /// Median (upper bucket edge for bucketed histograms).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest recorded sample.
    pub max: f64,
}

impl HistogramSummary {
    /// JSON object form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
            self.count,
            fmt_f64(self.mean),
            fmt_f64(self.p50),
            fmt_f64(self.p95),
            fmt_f64(self.p99),
            fmt_f64(self.max)
        )
    }
}

/// Whose timeline lane a span or point sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Actor {
    /// The project server (`server`).
    Server,
    /// A volunteer host by id (`node-03`).
    Node(u32),
}

impl fmt::Display for Actor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Actor::Server => f.write_str("server"),
            Actor::Node(id) => write!(f, "node-{id:02}"),
        }
    }
}

/// The class of a span or point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// Span: a task's inputs arriving.
    Download,
    /// Span: a task executing.
    Exec,
    /// Span: a task's output going to the server.
    Upload,
    /// Point: a host going unavailable.
    Suspend,
    /// Point: a host coming back.
    Resume,
    /// Point: the server learning of a finished result.
    Report,
    /// Point: a host leaving the project for good.
    Dropout,
    /// Point: a work unit reaching its quorum.
    Validated,
    /// Point: a work unit failing for good.
    WuFailed,
    /// Point: a job phase boundary.
    Phase,
}

impl Mark {
    /// The class's name, e.g. `exec` or `wu-failed`.
    pub fn as_str(self) -> &'static str {
        match self {
            Mark::Download => "download",
            Mark::Exec => "exec",
            Mark::Upload => "upload",
            Mark::Suspend => "suspend",
            Mark::Resume => "resume",
            Mark::Report => "report",
            Mark::Dropout => "dropout",
            Mark::Validated => "validated",
            Mark::WuFailed => "wu-failed",
            Mark::Phase => "phase",
        }
    }
}

impl fmt::Display for Mark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A MapReduce job's phase boundary, the payload of a [`Mark::Phase`]
/// point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseMark {
    /// The job's map work units were submitted.
    MapStart,
    /// Every map work unit validated.
    MapsValidated,
    /// The reduce work units were submitted.
    ReduceStart,
    /// Every reduce work unit validated.
    JobDone,
    /// A work unit of the job failed for good.
    JobFailed,
}

impl PhaseMark {
    /// The phase's name, e.g. `reduce-start`.
    pub fn as_str(self) -> &'static str {
        match self {
            PhaseMark::MapStart => "map-start",
            PhaseMark::MapsValidated => "maps-validated",
            PhaseMark::ReduceStart => "reduce-start",
            PhaseMark::JobDone => "job-done",
            PhaseMark::JobFailed => "job-failed",
        }
    }
}

/// What a span or point is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detail {
    /// Nothing (renders empty).
    None,
    /// A result by id (`r12`).
    Result(u32),
    /// A work unit by id (`wu5`).
    Wu(u32),
    /// A job phase (`map-start`).
    Phase(PhaseMark),
}

impl fmt::Display for Detail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Detail::None => Ok(()),
            Detail::Result(id) => write!(f, "r{id}"),
            Detail::Wu(id) => write!(f, "wu{id}"),
            Detail::Phase(p) => f.write_str(p.as_str()),
        }
    }
}

/// The terminal state a work unit moved to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WuEnd {
    /// Validated: a quorum agreed.
    Validated,
    /// Failed: too many errors or no agreement.
    Failed,
}

impl WuEnd {
    /// The state's name, `validated` or `failed`.
    pub fn as_str(self) -> &'static str {
        match self {
            WuEnd::Validated => "validated",
            WuEnd::Failed => "failed",
        }
    }
}

/// What a journal entry records. Spans and points feed
/// `desim::Timeline`; the rest are typed middleware events. Only the
/// two rare file-name events own heap data.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A closed interval on some actor's lane (download/exec/upload…).
    Span {
        /// Lane owner.
        actor: Actor,
        /// Span class.
        mark: Mark,
        /// What the span is about, e.g. the result id.
        detail: Detail,
        /// Interval end, microseconds (start is the event's `t_us`).
        end_us: u64,
    },
    /// An instantaneous mark on some actor's lane.
    Point {
        /// Lane owner.
        actor: Actor,
        /// Point class.
        mark: Mark,
        /// What the point is about.
        detail: Detail,
    },
    /// The scheduler answered one client RPC.
    RpcServed {
        /// Client host id.
        client: u32,
        /// Results granted in the reply.
        granted: u32,
        /// True when the client asked for work and got none.
        empty: bool,
    },
    /// A work unit reached a terminal state.
    WuTransition {
        /// Work-unit id.
        wu: u32,
        /// Target state.
        to: WuEnd,
    },
    /// A network flow was admitted.
    FlowStart {
        /// Flow id.
        id: u64,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A network flow drained its last byte.
    FlowComplete {
        /// Flow id.
        id: u64,
        /// Payload size in bytes.
        bytes: u64,
        /// Transfer duration in microseconds.
        dur_us: u64,
    },
    /// A client armed exponential backoff after an empty reply.
    BackoffArmed {
        /// Client host id.
        client: u32,
        /// Delay until the next RPC, microseconds.
        delay_us: u64,
    },
    /// A peer held the file but its serving window had expired.
    ServingExpiry {
        /// Serving client host id.
        client: u32,
        /// File name that was no longer served.
        file: Box<str>,
    },
    /// A peer fetch gave up and fell back to the project server.
    PeerFallback {
        /// Fetching client host id.
        client: u32,
        /// File being fetched.
        file: Box<str>,
    },
    /// The durability layer wrote a full-state snapshot to the WAL.
    SnapshotTaken {
        /// Change records in the log when the snapshot was cut.
        records: u64,
        /// Encoded snapshot size, bytes.
        bytes: u64,
    },
    /// A server resumed from a WAL image (snapshot + replay tail).
    Recovered {
        /// Change records replayed on top of the snapshot.
        replayed: u64,
        /// Whether a committed snapshot seeded the recovery.
        from_snapshot: bool,
    },
}

/// One journal entry: a timestamp plus a typed payload.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Simulation (or wall) time of the event, microseconds.
    pub t_us: u64,
    /// Typed payload.
    pub kind: EventKind,
}

impl Event {
    /// One JSON object (a single JSON-lines record).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"t_us\":{}", self.t_us);
        match &self.kind {
            EventKind::Span {
                actor,
                mark,
                detail,
                end_us,
            } => {
                let _ = write!(
                    s,
                    ",\"type\":\"span\",\"actor\":\"{actor}\",\"kind\":\"{mark}\",\"detail\":\"{detail}\",\"end_us\":{end_us}"
                );
            }
            EventKind::Point {
                actor,
                mark,
                detail,
            } => {
                let _ = write!(
                    s,
                    ",\"type\":\"point\",\"actor\":\"{actor}\",\"kind\":\"{mark}\",\"detail\":\"{detail}\""
                );
            }
            EventKind::RpcServed {
                client,
                granted,
                empty,
            } => {
                let _ = write!(
                    s,
                    ",\"type\":\"rpc_served\",\"client\":{client},\"granted\":{granted},\"empty\":{empty}"
                );
            }
            EventKind::WuTransition { wu, to } => {
                let _ = write!(
                    s,
                    ",\"type\":\"wu_transition\",\"wu\":\"wu{wu}\",\"to\":\"{}\"",
                    to.as_str()
                );
            }
            EventKind::FlowStart { id, bytes } => {
                let _ = write!(s, ",\"type\":\"flow_start\",\"id\":{id},\"bytes\":{bytes}");
            }
            EventKind::FlowComplete { id, bytes, dur_us } => {
                let _ = write!(
                    s,
                    ",\"type\":\"flow_complete\",\"id\":{id},\"bytes\":{bytes},\"dur_us\":{dur_us}"
                );
            }
            EventKind::BackoffArmed { client, delay_us } => {
                let _ = write!(
                    s,
                    ",\"type\":\"backoff_armed\",\"client\":{client},\"delay_us\":{delay_us}"
                );
            }
            EventKind::ServingExpiry { client, file } => {
                let _ = write!(
                    s,
                    ",\"type\":\"serving_expiry\",\"client\":{client},\"file\":\"{}\"",
                    json_escape(file)
                );
            }
            EventKind::PeerFallback { client, file } => {
                let _ = write!(
                    s,
                    ",\"type\":\"peer_fallback\",\"client\":{client},\"file\":\"{}\"",
                    json_escape(file)
                );
            }
            EventKind::SnapshotTaken { records, bytes } => {
                let _ = write!(
                    s,
                    ",\"type\":\"snapshot_taken\",\"records\":{records},\"bytes\":{bytes}"
                );
            }
            EventKind::Recovered {
                replayed,
                from_snapshot,
            } => {
                let _ = write!(
                    s,
                    ",\"type\":\"recovered\",\"replayed\":{replayed},\"from_snapshot\":{from_snapshot}"
                );
            }
        }
        s.push('}');
        s
    }
}

/// One metric's value at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Last set value.
    Gauge(f64),
    /// Time-weighted gauge: last value, time-weighted mean, peak.
    TimeGauge {
        /// Last value set.
        current: f64,
        /// Time-weighted mean over the observed interval.
        mean: f64,
        /// Largest value ever set.
        max: f64,
    },
    /// Histogram quantile summary.
    Histogram(HistogramSummary),
}

impl MetricValue {
    fn to_json(&self) -> String {
        match self {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => fmt_f64(*v),
            MetricValue::TimeGauge { current, mean, max } => format!(
                "{{\"current\":{},\"mean\":{},\"max\":{}}}",
                fmt_f64(*current),
                fmt_f64(*mean),
                fmt_f64(*max)
            ),
            MetricValue::Histogram(h) => h.to_json(),
        }
    }
}

/// A point-in-time dump of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(full metric key, value)` pairs in key order.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Look up one metric by its full key.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Counter value by key; 0 when absent or not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram quantile summary by key; an empty summary when absent
    /// or not a histogram. This is the one quantile API consumers use —
    /// the bench binaries read p50/p95/p99 from here instead of
    /// carrying their own percentile plumbing.
    pub fn histogram(&self, name: &str) -> HistogramSummary {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => *h,
            _ => HistogramSummary::default(),
        }
    }

    /// The snapshot as one JSON object keyed by metric name.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(32 + 48 * self.entries.len());
        s.push('{');
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{}", json_escape(k), v.to_json());
        }
        s.push('}');
        s
    }
}

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON-safe float formatting: finite values round-trip, non-finite
/// become null (JSON has no NaN/Inf).
pub(crate) fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        // Keep integers short ("5" not "5.0") for stable, readable dumps.
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_shapes() {
        let e = Event {
            t_us: 5,
            kind: EventKind::PeerFallback {
                client: 0,
                file: "a\"b".into(),
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"t_us\":5,\"type\":\"peer_fallback\",\"client\":0,\"file\":\"a\\\"b\"}"
        );
        let f = Event {
            t_us: 9,
            kind: EventKind::FlowComplete {
                id: 3,
                bytes: 10,
                dur_us: 4,
            },
        };
        assert!(f.to_json().contains("\"type\":\"flow_complete\""));
    }

    /// One event of every kind, rendered to its exact JSON line.
    #[test]
    fn every_event_kind_renders_its_json_line() {
        let cases: Vec<(EventKind, &str)> = vec![
            (
                EventKind::Span {
                    actor: Actor::Node(3),
                    mark: Mark::Exec,
                    detail: Detail::Result(12),
                    end_us: 9,
                },
                r#""type":"span","actor":"node-03","kind":"exec","detail":"r12","end_us":9"#,
            ),
            (
                EventKind::Point {
                    actor: Actor::Server,
                    mark: Mark::Phase,
                    detail: Detail::Phase(PhaseMark::ReduceStart),
                },
                r#""type":"point","actor":"server","kind":"phase","detail":"reduce-start""#,
            ),
            (
                EventKind::Point {
                    actor: Actor::Node(120),
                    mark: Mark::Dropout,
                    detail: Detail::None,
                },
                r#""type":"point","actor":"node-120","kind":"dropout","detail":"""#,
            ),
            (
                EventKind::RpcServed {
                    client: 4,
                    granted: 2,
                    empty: false,
                },
                r#""type":"rpc_served","client":4,"granted":2,"empty":false"#,
            ),
            (
                EventKind::WuTransition {
                    wu: 5,
                    to: WuEnd::Validated,
                },
                r#""type":"wu_transition","wu":"wu5","to":"validated""#,
            ),
            (
                EventKind::WuTransition {
                    wu: 6,
                    to: WuEnd::Failed,
                },
                r#""type":"wu_transition","wu":"wu6","to":"failed""#,
            ),
            (
                EventKind::FlowStart { id: 3, bytes: 10 },
                r#""type":"flow_start","id":3,"bytes":10"#,
            ),
            (
                EventKind::FlowComplete {
                    id: 3,
                    bytes: 10,
                    dur_us: 4,
                },
                r#""type":"flow_complete","id":3,"bytes":10,"dur_us":4"#,
            ),
            (
                EventKind::BackoffArmed {
                    client: 2,
                    delay_us: 600,
                },
                r#""type":"backoff_armed","client":2,"delay_us":600"#,
            ),
            (
                EventKind::ServingExpiry {
                    client: 1,
                    file: "part\"0".into(),
                },
                r#""type":"serving_expiry","client":1,"file":"part\"0""#,
            ),
            (
                EventKind::PeerFallback {
                    client: 7,
                    file: "map3.r1".into(),
                },
                r#""type":"peer_fallback","client":7,"file":"map3.r1""#,
            ),
            (
                EventKind::SnapshotTaken {
                    records: 40,
                    bytes: 512,
                },
                r#""type":"snapshot_taken","records":40,"bytes":512"#,
            ),
            (
                EventKind::Recovered {
                    replayed: 11,
                    from_snapshot: true,
                },
                r#""type":"recovered","replayed":11,"from_snapshot":true"#,
            ),
        ];
        for (kind, body) in cases {
            let ev = Event { t_us: 17, kind };
            assert_eq!(ev.to_json(), format!("{{\"t_us\":17,{body}}}"));
        }
    }

    /// Every span/point class and phase renders the name the old
    /// string journal used, and an event stays small and inline.
    #[test]
    fn vocabulary_names_and_event_size() {
        let marks = [
            (Mark::Download, "download"),
            (Mark::Exec, "exec"),
            (Mark::Upload, "upload"),
            (Mark::Suspend, "suspend"),
            (Mark::Resume, "resume"),
            (Mark::Report, "report"),
            (Mark::Dropout, "dropout"),
            (Mark::Validated, "validated"),
            (Mark::WuFailed, "wu-failed"),
            (Mark::Phase, "phase"),
        ];
        for (m, name) in marks {
            assert_eq!(m.to_string(), name);
        }
        let phases = [
            (PhaseMark::MapStart, "map-start"),
            (PhaseMark::MapsValidated, "maps-validated"),
            (PhaseMark::ReduceStart, "reduce-start"),
            (PhaseMark::JobDone, "job-done"),
            (PhaseMark::JobFailed, "job-failed"),
        ];
        for (p, name) in phases {
            assert_eq!(Detail::Phase(p).to_string(), name);
        }
        assert_eq!(Actor::Node(0).to_string(), "node-00");
        assert_eq!(Actor::Server.to_string(), "server");
        assert_eq!(Detail::Wu(5).to_string(), "wu5");
        assert_eq!(Detail::None.to_string(), "");
        assert!(std::mem::size_of::<Event>() <= 40);
    }

    #[test]
    fn float_formatting_is_json_safe() {
        assert_eq!(fmt_f64(5.0), "5");
        assert_eq!(fmt_f64(2.5), "2.5");
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn snapshot_json_and_lookup() {
        let snap = Snapshot {
            entries: vec![
                ("a".into(), MetricValue::Counter(3)),
                ("b".into(), MetricValue::Gauge(1.5)),
            ],
        };
        assert_eq!(snap.counter("a"), 3);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.to_json(), "{\"a\":3,\"b\":1.5}");
    }
}
