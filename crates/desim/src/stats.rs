//! Run statistics: a streaming scalar tally (O(1) memory per sample).
//! Histograms and time-weighted gauges live in `vmr-obs`.

use crate::time::SimDuration;

/// Streaming tally of scalar samples: count / mean / min / max / variance
/// (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Records a duration sample in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Merges another tally into this one (parallel-merge form of
    /// Welford/Chan).
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_basics() {
        let mut t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.min(), None);
        for x in [1.0, 2.0, 3.0, 4.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 4);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.min(), Some(1.0));
        assert_eq!(t.max(), Some(4.0));
        assert!((t.variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.sum(), 10.0);
    }

    #[test]
    fn tally_merge_equals_combined() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Tally::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Tally::new();
        let mut b = Tally::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 3 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = Tally::new();
        let mut b = Tally::new();
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 5.0);
        let empty = Tally::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }
}
