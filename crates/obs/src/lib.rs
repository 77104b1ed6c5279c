//! # vmr-obs — unified observability for the BOINC-MR reproduction
//!
//! Every crate in the workspace measures itself through this one layer
//! instead of ad-hoc crate-local counters:
//!
//! * **Metrics registry** ([`Registry`]) — counters, gauges,
//!   time-weighted gauges and log₂ histograms keyed by static names
//!   plus low-cardinality labels. Handles ([`Counter`], [`Gauge`],
//!   [`TimeGauge`], [`Histo`]) are resolved once and cached by the
//!   caller, so a hot-path increment is a single relaxed atomic bump.
//! * **Structured event journal** ([`Journal`]) — sim-time-stamped
//!   typed events ([`EventKind`]: RPC served, WU transition, flow
//!   start/complete, backoff armed, serving-window expiry, peer-fetch
//!   fallback, plus spans/points on an [`Actor`]'s lane) in a bounded
//!   ring buffer with JSON-lines export. Events carry ids and enums
//!   ([`Actor`], [`Mark`], [`Detail`], [`WuEnd`]), so recording one
//!   never allocates; names are rendered only when the journal is read.
//! * **Profiling scopes** ([`Scope`]) — wall-clock RAII timers around
//!   real hot paths (allocator waves, transitioner sweeps, rtnet
//!   serving threads) feeding histograms in the same registry under
//!   `prof.*_us` names. Off by default; enabled at runtime with
//!   [`Obs::set_profiling`].
//! * **Text exposition** ([`render_prometheus`], [`render_dashboard`],
//!   [`Dashboard`]) — pure functions of a [`Snapshot`], rendering the
//!   plaintext scrape format and a periodic operator dashboard; the
//!   rtnet poll server mounts both on its operations endpoint.
//!
//! The recorder is always compiled in. What a run pays for is chosen
//! at runtime by two switches, [`Journal::set_enabled`] and
//! [`Obs::set_profiling`]; neither may change what a simulation
//! computes (pinned by `crates/core/tests/obs_switches.rs`).
//!
//! Metric naming scheme: `"<crate>.<subject>[_<unit>]{label=value}"`,
//! e.g. `netsim.flows_started`, `vcore.report_delay_s`,
//! `prof.netsim.realloc_wave_us`. See DESIGN.md §3.8.
//!
//! ```
//! use vmr_obs::{Actor, Detail, Mark};
//! let obs = vmr_obs::Obs::new();
//! let flows = obs.counter("netsim.flows_started");
//! flows.inc();
//! obs.journal.point(Actor::Node(0), Mark::Report, Detail::Result(7), 1_500_000);
//! assert_eq!(obs.snapshot().counter("netsim.flows_started"), flows.get());
//! ```

#![warn(missing_docs)]

mod expose;
mod journal;
mod metrics;
mod prof;
mod types;
pub use expose::{render_dashboard, render_prometheus, Dashboard};
pub use journal::Journal;
pub use metrics::{Counter, Gauge, Histo, Registry, TimeGauge};
pub use prof::{Prof, Scope, ScopeGuard};
pub use types::{
    Actor, Detail, Event, EventKind, HistogramSummary, Mark, MetricValue, PhaseMark, Snapshot,
    WuEnd,
};

/// The observability bundle one component hands around: a metrics
/// registry, an event journal and a profiling switch. Cloning is cheap
/// (shared `Arc`s) and every clone records into the same sinks.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Metric registry (counters / gauges / histograms).
    pub metrics: Registry,
    /// Structured event journal (bounded ring).
    pub journal: Journal,
    /// Profiling-scope switch shared by all [`Scope`]s.
    pub prof: Prof,
}

impl Obs {
    /// A live bundle: journal enabled, profiling off.
    pub fn new() -> Self {
        Obs::default()
    }

    /// A sink nobody reads: journal disabled, profiling off. Used as
    /// the default attachment so uninstrumented constructions pay only
    /// an atomic-load per would-be journal event.
    pub fn detached() -> Self {
        let o = Obs::default();
        o.journal.set_enabled(false);
        o
    }

    /// Resolve (or create) a counter handle.
    pub fn counter(&self, name: &str) -> Counter {
        self.metrics.counter(name)
    }

    /// Resolve a counter with low-cardinality labels; the full key is
    /// `name{k=v,...}`.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.metrics.counter_labeled(name, labels)
    }

    /// Resolve (or create) a gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.metrics.gauge(name)
    }

    /// Resolve (or create) a time-weighted gauge handle.
    pub fn time_gauge(&self, name: &str) -> TimeGauge {
        self.metrics.time_gauge(name)
    }

    /// Resolve (or create) a histogram handle.
    pub fn histogram(&self, name: &str) -> Histo {
        self.metrics.histogram(name)
    }

    /// A wall-clock profiling scope recording elapsed microseconds
    /// into the registry histogram `prof.<name>_us`. Inert until
    /// [`Obs::set_profiling`]`(true)`.
    pub fn scope(&self, name: &str) -> Scope {
        self.prof.scope(&self.metrics, name)
    }

    /// Turn wall-clock profiling scopes on or off at runtime.
    pub fn set_profiling(&self, on: bool) {
        self.prof.set_enabled(on);
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name.
    pub fn snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// The metrics snapshot rendered as one JSON object.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_round_trip() {
        let obs = Obs::new();
        let c = obs.counter("t.count");
        c.inc();
        c.add(4);
        obs.gauge("t.gauge").set(2.5);
        let h = obs.histogram("t.hist_us");
        for v in [1.0, 10.0, 100.0, 1000.0] {
            h.record(v);
        }
        obs.journal
            .point(Actor::Node(0), Mark::Report, Detail::Result(1), 7);
        obs.journal
            .span(Actor::Node(0), Mark::Exec, Detail::Result(1), 7, 9);
        let snap = obs.snapshot();
        let json = snap.to_json();
        assert_eq!(snap.counter("t.count"), 5);
        assert!(json.contains("\"t.gauge\""));
        assert_eq!(obs.journal.len(), 2);
        assert!(obs.journal.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn detached_journal_records_nothing() {
        let obs = Obs::detached();
        obs.journal
            .point(Actor::Server, Mark::Phase, Detail::None, 1);
        obs.journal
            .record_with(2, || EventKind::FlowStart { id: 1, bytes: 8 });
        assert_eq!(obs.journal.len(), 0);
        assert!(!obs.journal.is_enabled());
    }

    #[test]
    fn labeled_counters_are_distinct() {
        let obs = Obs::new();
        obs.counter_labeled("c", &[("dir", "up")]).inc();
        obs.counter_labeled("c", &[("dir", "down")]).add(2);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("c{dir=up}"), 1);
        assert_eq!(snap.counter("c{dir=down}"), 2);
    }

    #[test]
    fn scope_records_when_enabled_only() {
        let obs = Obs::new();
        let scope = obs.scope("unit.test");
        drop(scope.enter());
        assert_eq!(obs.histogram("prof.unit.test_us").count(), 0);
        obs.set_profiling(true);
        drop(scope.enter());
        assert_eq!(obs.histogram("prof.unit.test_us").count(), 1);
    }

    #[test]
    fn journal_ring_is_bounded() {
        let obs = Obs::new();
        let j = Journal::with_capacity(4);
        for i in 0..10u64 {
            j.point(Actor::Server, Mark::Phase, Detail::None, i);
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 6);
        let evs = j.events();
        assert_eq!(evs.first().unwrap().t_us, 6);
        drop(obs);
    }
}
