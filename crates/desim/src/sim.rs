//! The simulation driver.
//!
//! `Simulation<E>` owns the virtual clock and the pending-event queue for
//! one model run. The *model* (the "world": hosts, links, daemons…) lives
//! outside this type, in the downstream crates; the canonical loop is:
//!
//! ```
//! use vmr_desim::{SimDuration, SimTime, Simulation};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut sim = Simulation::new(1);
//! sim.schedule_in(SimDuration::from_secs(1), Ev::Tick(0));
//! let mut fired = 0;
//! while let Some(ev) = sim.next_event_before(SimTime::MAX) {
//!     match ev.payload {
//!         Ev::Tick(n) if n < 9 => {
//!             sim.schedule_in(SimDuration::from_secs(1), Ev::Tick(n + 1));
//!         }
//!         Ev::Tick(_) => {}
//!     }
//!     fired += 1;
//! }
//! assert_eq!(fired, 10);
//! assert_eq!(sim.now().as_secs_f64(), 10.0);
//! ```
//!
//! This externally-driven loop (rather than callbacks registered inside
//! the kernel) sidesteps shared-mutability knots: the world handles an
//! event with full `&mut` access to both itself and the simulation.

use crate::queue::{EventId, EventQueue};
use crate::rng::RngStream;
use crate::time::{SimDuration, SimTime};

/// A delivered event: when it fired, its id, and the model payload.
#[derive(Debug)]
pub struct Fired<E> {
    /// The instant the event fired; equal to `sim.now()` at delivery.
    pub at: SimTime,
    /// The id the event was scheduled under.
    pub id: EventId,
    /// Model-defined payload.
    pub payload: E,
}

/// Pre-resolved obs handles the kernel bumps while delivering events.
struct SimObs {
    events: vmr_obs::Counter,
    queue_depth: vmr_obs::Gauge,
    next_event_scope: vmr_obs::Scope,
}

/// A single deterministic simulation run.
pub struct Simulation<E> {
    now: SimTime,
    queue: EventQueue<E>,
    rng: RngStream,
    delivered: u64,
    obs: Option<SimObs>,
}

impl<E> Simulation<E> {
    /// Creates a simulation at time zero with a seeded master RNG stream.
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: RngStream::new(seed),
            delivered: 0,
            obs: None,
        }
    }

    /// Attaches an observability bundle: the kernel then maintains the
    /// `desim.events_delivered` counter and `desim.queue_depth` gauge,
    /// and times the queue's share of each delivery under the
    /// `desim.next_event` profiling scope.
    pub fn attach_obs(&mut self, obs: &vmr_obs::Obs) {
        self.obs = Some(SimObs {
            events: obs.counter("desim.events_delivered"),
            queue_depth: obs.gauge("desim.queue_depth"),
            next_event_scope: obs.scope("desim.next_event"),
        });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Derives an independent, reproducible RNG stream for a component
    /// from the seeded master stream, so that adding a random draw in one
    /// component cannot perturb another.
    pub fn fork_rng(&mut self, label: &str) -> RngStream {
        self.rng.fork(label)
    }

    /// Schedules `payload` at the absolute instant `at`.
    ///
    /// Scheduling in the past is a model bug; it panics in debug builds
    /// and clamps to `now` in release builds.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.queue.schedule(at.max(self.now), payload)
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.queue.schedule(self.now + delay, payload)
    }

    /// Cancels a pending event; no-op (returning `false`) if it already
    /// fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// True if `id` is still scheduled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.queue.is_pending(id)
    }

    /// Advances the clock to the next event no later than `limit` and
    /// returns it, or `None` when the queue is exhausted or its head lies
    /// beyond `limit` (that event stays queued). One settling of the
    /// queue head per delivered event.
    pub fn next_event_before(&mut self, limit: SimTime) -> Option<Fired<E>> {
        let popped = {
            let _t = self.obs.as_ref().map(|o| o.next_event_scope.enter());
            self.queue.pop_due(limit)
        };
        let (at, id, payload) = popped?;
        debug_assert!(at >= self.now, "event queue went backwards");
        self.now = at;
        self.delivered += 1;
        if let Some(o) = &self.obs {
            o.events.inc();
            o.queue_depth.set(self.queue.len() as f64);
        }
        Some(Fired { at, id, payload })
    }

    /// Moves the clock forward to `t`; a no-op when `t` is not later
    /// than now. For a model that retires some of its own events in
    /// bulk instead of scheduling each one: it accounts for them itself
    /// and then brings the clock to the last of them, which must not be
    /// later than any event still pending.
    pub fn advance_clock(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut sim: Simulation<u32> = Simulation::new(7);
        sim.schedule_at(SimTime::from_secs(5), 1);
        sim.schedule_at(SimTime::from_secs(2), 2);
        sim.schedule_in(SimDuration::from_secs(9), 3);
        let mut last = SimTime::ZERO;
        let mut seen = vec![];
        while let Some(ev) = sim.next_event_before(SimTime::MAX) {
            assert!(ev.at >= last);
            last = ev.at;
            seen.push(ev.payload);
        }
        assert_eq!(seen, vec![2, 1, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(9));
    }

    #[test]
    fn cancel_through_sim() {
        let mut sim: Simulation<&str> = Simulation::new(7);
        let id = sim.schedule_at(SimTime::from_secs(1), "x");
        assert!(sim.is_pending(id));
        assert!(sim.cancel(id));
        assert!(sim.next_event_before(SimTime::MAX).is_none());
    }

    #[test]
    fn identical_seeds_identical_draws() {
        let mut a: Simulation<()> = Simulation::new(99);
        let mut b: Simulation<()> = Simulation::new(99);
        let (mut ra, mut rb) = (a.fork_rng("draws"), b.fork_rng("draws"));
        let xa: Vec<u64> = (0..32).map(|_| ra.next_u64()).collect();
        let xb: Vec<u64> = (0..32).map(|_| rb.next_u64()).collect();
        assert_eq!(xa, xb);
    }
}
