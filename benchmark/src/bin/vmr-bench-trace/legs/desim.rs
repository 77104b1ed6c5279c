//! Event-kernel leg: `EventQueue` schedule / pop / cancel at the depth
//! the workload's queue reached.

use super::Ctx;
use vmr_desim::{EventQueue, SimDuration, SimTime};

const OPS: usize = 200_000;

/// Deterministic delays, 1 µs to ~17 min, like backoff re-arms.
fn next_delay(x: &mut u64) -> SimDuration {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    SimDuration::from_micros(1 + (*x >> 34))
}

pub fn legs(cx: &mut Ctx<'_>) {
    let events = cx.count("desim.events");
    if events == 0.0 {
        return;
    }
    let depth = cx
        .count("desim.queue_depth_peak")
        .max(cx.count("shape.hosts"))
        .max(16.0) as usize;
    // Steady state at that depth: every delivered event is one pop and
    // (for a re-arming client or daemon) one schedule; one in eight
    // re-arms replaces a pending wake, which is a cancel.
    let secs = cx.time(
        "desim.queue",
        3,
        || {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut x = depth as u64;
            for i in 0..depth {
                q.schedule(SimTime::ZERO + next_delay(&mut x), i as u64);
            }
            (q, x)
        },
        |(mut q, mut x)| {
            for i in 0..OPS {
                let (at, _, payload) = q.pop().expect("queue stays at depth");
                let id = q.schedule(at + next_delay(&mut x), payload);
                if i % 8 == 0 {
                    q.cancel(id);
                    q.schedule(at + next_delay(&mut x), payload);
                }
            }
            std::hint::black_box(q.len());
        },
    );
    let ops = (OPS * 2 + OPS / 8 * 2) as f64;
    let ns_per_op = secs * 1e9 / ops;
    cx.out(
        "desim.queue_ns_per_op",
        ns_per_op,
        ns_per_op * 2.0 * events / 1e9,
    );
}
