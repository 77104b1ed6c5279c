//! Deadline-bounded condition polling.
//!
//! Real-socket tests must not assert timing with bare
//! `std::thread::sleep`: a loaded CI machine can stall any thread for
//! tens of milliseconds, turning "sleep 30 ms then assert the 10 ms
//! window expired" into a coin flip the other way around (the assert
//! *before* the sleep is the flaky one — the window may expire between
//! `put` and `get`). Poll the condition with a generous deadline
//! instead: the test passes as soon as the condition holds and only
//! fails after the full timeout.

use std::time::{Duration, Instant};

/// Polls `pred` every millisecond until it returns true or `timeout`
/// elapses. Returns whether the predicate ever held. The predicate is
/// always tried at least once, even with a zero timeout.
pub(crate) fn wait_until(mut pred: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if pred() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn immediate_truth_returns_fast() {
        let t0 = Instant::now();
        assert!(wait_until(|| true, Duration::from_secs(30)));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn eventual_truth_is_caught() {
        let calls = AtomicU32::new(0);
        assert!(wait_until(
            || calls.fetch_add(1, Ordering::Relaxed) >= 3,
            Duration::from_secs(10)
        ));
    }

    #[test]
    fn timeout_returns_false() {
        assert!(!wait_until(|| false, Duration::from_millis(5)));
    }

    #[test]
    fn zero_timeout_still_tries_once() {
        assert!(wait_until(|| true, Duration::ZERO));
        assert!(!wait_until(|| false, Duration::ZERO));
    }
}
