//! Client-side exponential backoff.
//!
//! BOINC clients avoid hammering the project server: every scheduler RPC
//! that yields no work doubles a per-project backoff delay, up to a cap.
//! The paper observes the consequence (§IV.B): a node that finishes its
//! task just after entering a long backoff cannot even *report* the
//! finished result until the backoff expires — stalling the whole
//! MapReduce phase transition. The cap in the paper's runs is 600 s.

use vmr_desim::{RngStream, SimDuration};

/// Exponential backoff state for one client.
#[derive(Clone, Debug)]
pub struct Backoff {
    /// Delay after the first empty reply.
    pub min: SimDuration,
    /// Cap on the delay (the paper's 600 s).
    pub max: SimDuration,
    /// Consecutive empty replies so far.
    failures: u32,
    /// Randomize the delay to `uniform[jitter_floor, 1] * delay`, as the
    /// real client does to de-synchronize volunteers.
    pub jitter_floor: f64,
}

impl Backoff {
    /// BOINC-flavoured defaults with the paper's 600 s cap.
    pub fn boinc_default() -> Self {
        Backoff {
            min: SimDuration::from_secs(60),
            max: SimDuration::from_secs(600),
            failures: 0,
            jitter_floor: 0.5,
        }
    }

    /// Custom bounds (used by the backoff-cap ablation sweep).
    pub fn with_bounds(min: SimDuration, max: SimDuration) -> Self {
        Backoff {
            min,
            max,
            failures: 0,
            jitter_floor: 0.5,
        }
    }

    /// Number of consecutive empty replies.
    pub fn failures(&self) -> u32 {
        self.failures
    }

    /// True when the client is in its initial (no-failure) state.
    pub fn is_reset(&self) -> bool {
        self.failures == 0
    }

    /// Records a reply that carried work: backoff fully resets.
    pub fn on_work_received(&mut self) {
        self.failures = 0;
    }

    /// Records an empty reply and returns the delay to wait before the
    /// next scheduler RPC.
    pub fn on_empty_reply(&mut self, rng: &mut RngStream) -> SimDuration {
        self.failures = self.failures.saturating_add(1);
        self.current_delay(rng)
    }

    /// The delay implied by the current failure count, with jitter.
    pub fn current_delay(&self, rng: &mut RngStream) -> SimDuration {
        self.delay_after(self.failures, rng)
    }

    /// The jittered delay after `failures` consecutive empty replies
    /// under these bounds, whatever this value's own count — for
    /// callers that keep the count themselves and one `Backoff` as the
    /// project's bounds.
    pub fn delay_after(&self, failures: u32, rng: &mut RngStream) -> SimDuration {
        let exp = failures.saturating_sub(1).min(32);
        let base = self.min.saturating_mul(1u64 << exp).min(self.max);
        let jitter = rng.uniform_f64(self.jitter_floor, 1.0);
        SimDuration::from_secs_f64(base.as_secs_f64() * jitter).max(SimDuration::from_secs(1))
    }

    /// Deterministic (jitter-free) delay bound for the current failure
    /// count — the value tests assert against.
    pub fn nominal_delay(&self) -> SimDuration {
        let exp = self.failures.saturating_sub(1).min(32);
        self.min.saturating_mul(1u64 << exp).min(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_desim::RngStream;

    #[test]
    fn doubles_until_cap() {
        let mut b = Backoff::boinc_default();
        let mut rng = RngStream::new(1);
        let mut last_nominal = SimDuration::ZERO;
        for i in 1..=6 {
            b.on_empty_reply(&mut rng);
            let nominal = b.nominal_delay();
            assert!(nominal >= last_nominal, "delay should not shrink");
            last_nominal = nominal;
            if i <= 4 {
                assert_eq!(nominal, SimDuration::from_secs(60 * (1 << (i - 1))));
            }
        }
        assert_eq!(b.nominal_delay(), SimDuration::from_secs(600), "capped");
    }

    #[test]
    fn work_resets() {
        let mut b = Backoff::boinc_default();
        let mut rng = RngStream::new(1);
        b.on_empty_reply(&mut rng);
        b.on_empty_reply(&mut rng);
        assert_eq!(b.failures(), 2);
        b.on_work_received();
        assert!(b.is_reset());
        assert_eq!(b.nominal_delay(), SimDuration::from_secs(60));
    }

    #[test]
    fn jitter_within_bounds() {
        let mut b = Backoff::boinc_default();
        let mut rng = RngStream::new(42);
        for _ in 0..200 {
            let d = b.on_empty_reply(&mut rng);
            let nominal = b.nominal_delay().as_secs_f64();
            let got = d.as_secs_f64();
            assert!(
                got <= nominal + 1e-6,
                "jitter above nominal: {got} > {nominal}"
            );
            assert!(got >= 0.5 * nominal - 1e-6, "jitter below floor: {got}");
        }
    }

    #[test]
    fn delay_never_below_one_second() {
        let mut b = Backoff::with_bounds(SimDuration::from_micros(10), SimDuration::from_secs(1));
        let mut rng = RngStream::new(1);
        assert!(b.on_empty_reply(&mut rng) >= SimDuration::from_secs(1));
    }

    #[test]
    fn huge_failure_count_saturates() {
        let mut b = Backoff::boinc_default();
        let mut rng = RngStream::new(1);
        for _ in 0..100 {
            b.on_empty_reply(&mut rng);
        }
        assert_eq!(b.nominal_delay(), SimDuration::from_secs(600));
    }
}
