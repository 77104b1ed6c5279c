//! Client-side exponential backoff.
//!
//! BOINC clients avoid hammering the project server: every scheduler RPC
//! that yields no work doubles a per-project backoff delay, up to a cap.
//! The paper observes the consequence (§IV.B): a node that finishes its
//! task just after entering a long backoff cannot even *report* the
//! finished result until the backoff expires — stalling the whole
//! MapReduce phase transition. The cap in the paper's runs is 600 s.
//!
//! A [`Backoff`] is the project's bounds only. Each client keeps its own
//! count of consecutive empty replies (the engine's `ClientHot`, which
//! resets it on work) and asks [`Backoff::delay_after`] for the delay.

use vmr_desim::{RngStream, SimDuration};

/// The project's exponential backoff bounds.
#[derive(Clone, Debug)]
pub struct Backoff {
    /// Delay after the first empty reply.
    pub min: SimDuration,
    /// Cap on the delay (the paper's 600 s).
    pub max: SimDuration,
    /// Randomize the delay to `uniform[jitter_floor, 1] * delay`, as the
    /// real client does to de-synchronize volunteers.
    pub jitter_floor: f64,
}

impl Backoff {
    /// Bounds `min` and `max`, with the real client's jitter floor of ½.
    pub fn with_bounds(min: SimDuration, max: SimDuration) -> Self {
        Backoff {
            min,
            max,
            jitter_floor: 0.5,
        }
    }

    /// The jittered delay after `failures` consecutive empty replies:
    /// `min · 2^(failures − 1)`, capped at `max`, times one jitter draw
    /// from `rng`, and never below one second.
    pub fn delay_after(&self, failures: u32, rng: &mut RngStream) -> SimDuration {
        let exp = failures.saturating_sub(1).min(32);
        let base = self.min.saturating_mul(1u64 << exp).min(self.max);
        let jitter = rng.uniform_f64(self.jitter_floor, 1.0);
        SimDuration::from_secs_f64(base.as_secs_f64() * jitter).max(SimDuration::from_secs(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_desim::RngStream;

    /// The paper's bounds: 60 s doubling to a 600 s cap.
    fn paper() -> Backoff {
        Backoff::with_bounds(SimDuration::from_secs(60), SimDuration::from_secs(600))
    }

    /// Two draws of one jitter value: equal seeds give equal draws.
    fn twin_delays(b: &Backoff, f: u32, g: u32, seed: u64) -> (SimDuration, SimDuration) {
        let (mut r1, mut r2) = (RngStream::new(seed), RngStream::new(seed));
        (b.delay_after(f, &mut r1), b.delay_after(g, &mut r2))
    }

    #[test]
    fn doubles_until_cap() {
        let b = paper();
        for seed in 0..50 {
            // 60, 120, 240, 480: each step doubles the same jitter draw
            // (to the µs the duration is rounded to).
            for f in 1..=3 {
                let (d, next) = twin_delays(&b, f, f + 1, seed);
                let twice = d.as_micros() * 2;
                assert!(
                    next.as_micros().abs_diff(twice) <= 1,
                    "{f}: {d:?} → {next:?}"
                );
            }
            // 480 → 960 is capped at 600, and the cap holds from then on.
            let (d4, d5) = twin_delays(&b, 4, 5, seed);
            assert!(d5.as_micros() < d4.as_micros() * 2);
            let (d5, d6) = twin_delays(&b, 5, 6, seed);
            assert_eq!(d5, d6, "capped");
        }
    }

    #[test]
    fn work_resets() {
        // The count a client keeps restarts at one after work: the
        // delay is the first one again, whatever came before.
        let b = paper();
        for seed in 0..50 {
            let (first, after_reset) = twin_delays(&b, 1, 1, seed);
            assert_eq!(first, after_reset);
            assert!(after_reset <= SimDuration::from_secs(60));
            assert!(after_reset >= SimDuration::from_secs(30));
        }
    }

    #[test]
    fn jitter_within_bounds() {
        let b = paper();
        let mut rng = RngStream::new(42);
        for failures in 1..=200u32 {
            let d = b.delay_after(failures, &mut rng).as_secs_f64();
            let nominal = (60.0 * 2f64.powi(failures as i32 - 1)).min(600.0);
            assert!(d <= nominal + 1e-6, "jitter above nominal: {d} > {nominal}");
            assert!(d >= 0.5 * nominal - 1e-6, "jitter below floor: {d}");
        }
    }

    #[test]
    fn delay_never_below_one_second() {
        let b = Backoff::with_bounds(SimDuration::from_micros(10), SimDuration::from_secs(1));
        let mut rng = RngStream::new(1);
        for failures in [0, 1, 2, 40] {
            assert!(b.delay_after(failures, &mut rng) >= SimDuration::from_secs(1));
        }
    }

    #[test]
    fn huge_failure_count_saturates() {
        let b = paper();
        for seed in 0..50 {
            let (d, huge) = twin_delays(&b, 5, u32::MAX, seed);
            assert_eq!(d, huge);
            assert!(huge <= SimDuration::from_secs(600));
        }
    }
}
