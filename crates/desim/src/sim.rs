//! The simulation driver.
//!
//! `Simulation<E>` owns the virtual clock and the pending-event queue for
//! one model run. The *model* (the "world": hosts, links, daemons…) lives
//! outside this type, in the downstream crates; the canonical loop is:
//!
//! ```
//! use vmr_desim::{Simulation, SimDuration};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut sim = Simulation::new(1);
//! sim.schedule_in(SimDuration::from_secs(1), Ev::Tick(0));
//! let mut fired = 0;
//! while let Some(ev) = sim.next_event() {
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
    horizon: SimTime,
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
            horizon: SimTime::MAX,
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

    /// Sets a hard stop time: events scheduled later than this are kept
    /// but never delivered by `next_event`.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }

    /// The master RNG stream (deterministic per seed). Prefer
    /// [`Simulation::fork_rng`] for per-component streams so that adding a
    /// random draw in one component cannot perturb another.
    pub fn rng(&mut self) -> &mut RngStream {
        &mut self.rng
    }

    /// Derives an independent, reproducible RNG stream for a component.
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

    /// Advances the clock to the next event and returns it, or `None`
    /// when the queue is exhausted or the next event lies beyond the
    /// horizon.
    pub fn next_event(&mut self) -> Option<Fired<E>> {
        self.next_event_before(SimTime::MAX)
    }

    /// [`Simulation::next_event`] with a per-call limit on top of the
    /// horizon: an event later than `limit` stays queued. One settling
    /// of the queue head per delivered event.
    pub fn next_event_before(&mut self, limit: SimTime) -> Option<Fired<E>> {
        let popped = {
            let _t = self.obs.as_ref().map(|o| o.next_event_scope.enter());
            self.queue.pop_due(limit.min(self.horizon))
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

    /// Runs `handler` for every event until the queue drains (or the
    /// horizon/`max_events` safety valve trips). Returns the number of
    /// events delivered by this call.
    pub fn run<W>(
        &mut self,
        world: &mut W,
        max_events: u64,
        mut handler: impl FnMut(&mut Self, &mut W, Fired<E>),
    ) -> u64 {
        let start = self.delivered;
        while self.delivered - start < max_events {
            match self.next_event() {
                Some(ev) => handler(self, world, ev),
                None => break,
            }
        }
        self.delivered - start
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
        while let Some(ev) = sim.next_event() {
            assert!(ev.at >= last);
            last = ev.at;
            seen.push(ev.payload);
        }
        assert_eq!(seen, vec![2, 1, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(9));
    }

    #[test]
    fn horizon_stops_delivery() {
        let mut sim: Simulation<&str> = Simulation::new(7);
        sim.schedule_at(SimTime::from_secs(1), "early");
        sim.schedule_at(SimTime::from_secs(100), "late");
        sim.set_horizon(SimTime::from_secs(10));
        assert_eq!(sim.next_event().unwrap().payload, "early");
        assert!(sim.next_event().is_none());
        assert_eq!(sim.pending(), 1, "late event is retained, not dropped");
    }

    #[test]
    fn cancel_through_sim() {
        let mut sim: Simulation<&str> = Simulation::new(7);
        let id = sim.schedule_at(SimTime::from_secs(1), "x");
        assert!(sim.is_pending(id));
        assert!(sim.cancel(id));
        assert!(sim.next_event().is_none());
    }

    #[test]
    fn run_loop_with_respawning_events() {
        let mut sim: Simulation<u32> = Simulation::new(7);
        sim.schedule_in(SimDuration::from_secs(1), 0);
        let mut world = 0u32; // counts handled events
        let n = sim.run(&mut world, 1_000, |sim, world, ev| {
            *world += 1;
            if ev.payload < 4 {
                sim.schedule_in(SimDuration::from_secs(1), ev.payload + 1);
            }
        });
        assert_eq!(n, 5);
        assert_eq!(world, 5);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn max_events_safety_valve() {
        let mut sim: Simulation<()> = Simulation::new(7);
        sim.schedule_in(SimDuration::from_secs(1), ());
        let mut world = ();
        // Self-perpetuating event stream, bounded by max_events.
        let n = sim.run(&mut world, 50, |sim, _, _| {
            sim.schedule_in(SimDuration::from_secs(1), ());
        });
        assert_eq!(n, 50);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn identical_seeds_identical_draws() {
        let mut a: Simulation<()> = Simulation::new(99);
        let mut b: Simulation<()> = Simulation::new(99);
        let xa: Vec<u64> = (0..32).map(|_| a.rng().next_u64()).collect();
        let xb: Vec<u64> = (0..32).map(|_| b.rng().next_u64()).collect();
        assert_eq!(xa, xb);
    }
}
