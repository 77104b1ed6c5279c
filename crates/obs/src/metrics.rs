//! The metrics registry and its pre-resolved handles (record build).
//!
//! All handles are `Arc`-backed and lock-free on the record path
//! (relaxed atomics; time-weighted gauges take a short mutex), so they
//! are safe to share with rtnet's real serving threads.

use crate::types::{HistogramSummary, MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter handle. Cloning shares the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle (f64 stored as bits).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct TgState {
    start_us: u64,
    last_us: u64,
    last_v: f64,
    area: f64,
    max: f64,
    seen: bool,
}

/// A time-weighted gauge: callers time-stamp each `set`, the snapshot
/// reports last value, time-weighted mean and peak. Shareable and
/// registry-hosted.
#[derive(Clone, Debug)]
pub struct TimeGauge(Arc<Mutex<TgState>>);

impl Default for TimeGauge {
    fn default() -> Self {
        TimeGauge(Arc::new(Mutex::new(TgState {
            start_us: 0,
            last_us: 0,
            last_v: 0.0,
            area: 0.0,
            max: 0.0,
            seen: false,
        })))
    }
}

impl TimeGauge {
    /// Record the value `v` holding from time `t_us` onward.
    /// Out-of-order timestamps are clamped to the last seen time.
    pub fn set(&self, t_us: u64, v: f64) {
        let mut s = self.0.lock().unwrap();
        if !s.seen {
            s.seen = true;
            s.start_us = t_us;
            s.last_us = t_us;
            s.last_v = v;
            s.max = v;
            return;
        }
        let t = t_us.max(s.last_us);
        s.area += s.last_v * (t - s.last_us) as f64;
        s.last_us = t;
        s.last_v = v;
        if v > s.max {
            s.max = v;
        }
    }

    /// Last value set.
    pub fn current(&self) -> f64 {
        self.0.lock().unwrap().last_v
    }

    fn value(&self) -> MetricValue {
        let s = self.0.lock().unwrap();
        let span = (s.last_us - s.start_us) as f64;
        let mean = if !s.seen {
            0.0
        } else if span > 0.0 {
            s.area / span
        } else {
            s.last_v
        };
        MetricValue::TimeGauge {
            current: s.last_v,
            mean,
            max: s.max,
        }
    }
}

const HISTO_BUCKETS: usize = 64;

#[derive(Debug)]
pub(crate) struct HistoCore {
    /// Log₂ buckets: bucket 0 holds v < 1, bucket i holds
    /// 2^(i-1) ≤ v < 2^i (last bucket open-ended).
    buckets: [AtomicU64; HISTO_BUCKETS],
    /// Sum of samples, f64 bits, CAS-accumulated.
    sum: AtomicU64,
    /// Max sample, f64 bits, CAS-raised.
    max: AtomicU64,
}

impl Default for HistoCore {
    fn default() -> Self {
        HistoCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0f64.to_bits()),
            max: AtomicU64::new(0f64.to_bits()),
        }
    }
}

fn cas_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

/// A histogram handle with power-of-two buckets. Quantiles come back
/// as the matching bucket's upper edge (factor-of-two resolution),
/// which is plenty for latency/size distributions and keeps recording
/// a two-atomic-op affair.
#[derive(Clone, Debug, Default)]
pub struct Histo(Arc<HistoCore>);

impl Histo {
    /// Record one sample (negative samples clamp to 0).
    pub fn record(&self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        let idx = if v < 1.0 {
            0
        } else {
            ((v as u64).ilog2() as usize + 1).min(HISTO_BUCKETS - 1)
        };
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        cas_f64(&self.0.sum, |s| s + v);
        cas_f64(&self.0.max, |m| if v > m { v } else { m });
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Quantile summary (p50/p95/p99 at log₂ resolution; max exact).
    pub fn summary(&self) -> HistogramSummary {
        let counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return HistogramSummary::default();
        }
        let sum = f64::from_bits(self.0.sum.load(Ordering::Relaxed));
        let max = f64::from_bits(self.0.max.load(Ordering::Relaxed));
        let q = |q: f64| -> f64 {
            let rank = ((q * total as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // Upper edge of bucket i; the last bucket is
                    // open-ended so report the true max there.
                    return if i == 0 {
                        1.0
                    } else if i == HISTO_BUCKETS - 1 {
                        max
                    } else {
                        (1u64 << i) as f64
                    };
                }
            }
            max
        };
        HistogramSummary {
            count: total,
            mean: sum / total as f64,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            max,
        }
    }
}

#[derive(Debug)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    TimeGauge(TimeGauge),
    Histo(Histo),
}

/// The metric registry: a name → slot map handing out shared handles.
/// Cloning shares the registry. Lookups lock a mutex — resolve handles
/// once, outside hot loops.
#[derive(Clone, Debug, Default)]
pub struct Registry(Arc<Mutex<BTreeMap<String, Slot>>>);

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn full_key(name: &str, labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return name.to_string();
        }
        let mut k = String::with_capacity(name.len() + 16 * labels.len());
        k.push_str(name);
        k.push('{');
        for (i, (lk, lv)) in labels.iter().enumerate() {
            if i > 0 {
                k.push(',');
            }
            k.push_str(lk);
            k.push('=');
            k.push_str(lv);
        }
        k.push('}');
        k
    }

    /// Resolve (or create) a counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_labeled(name, &[])
    }

    /// Resolve (or create) a labeled counter.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = Self::full_key(name, labels);
        let mut map = self.0.lock().unwrap();
        match map
            .entry(key)
            .or_insert_with(|| Slot::Counter(Counter::default()))
        {
            Slot::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Resolve (or create) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.0.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Gauge::default()))
        {
            Slot::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Resolve (or create) a time-weighted gauge.
    pub fn time_gauge(&self, name: &str) -> TimeGauge {
        let mut map = self.0.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Slot::TimeGauge(TimeGauge::default()))
        {
            Slot::TimeGauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Resolve (or create) a histogram.
    pub fn histogram(&self, name: &str) -> Histo {
        let mut map = self.0.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histo(Histo::default()))
        {
            Slot::Histo(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Snapshot every metric, sorted by full key.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.0.lock().unwrap();
        Snapshot {
            entries: map
                .iter()
                .map(|(k, slot)| {
                    let v = match slot {
                        Slot::Counter(c) => MetricValue::Counter(c.get()),
                        Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                        Slot::TimeGauge(g) => g.value(),
                        Slot::Histo(h) => MetricValue::Histogram(h.summary()),
                    };
                    (k.clone(), v)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn histogram_quantiles_log2() {
        let h = Histo::default();
        for v in [0.5, 1.0, 3.0, 3.0, 100.0] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.max, 100.0);
        // rank(0.5) = 3 → third sample lands in bucket for [2,4).
        assert_eq!(s.p50, 4.0);
        assert_eq!(s.p99, 128.0);
        assert!((s.mean - 21.5).abs() < 1e-9);
    }

    #[test]
    fn time_gauge_weighted_mean() {
        let g = TimeGauge::default();
        g.set(0, 2.0);
        g.set(10, 4.0); // 2.0 held for 10us
        g.set(20, 0.0); // 4.0 held for 10us
        match g.value() {
            MetricValue::TimeGauge { current, mean, max } => {
                assert_eq!(current, 0.0);
                assert_eq!(max, 4.0);
                assert!((mean - 3.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let r = Registry::new();
        let c = r.counter("c");
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }
}
