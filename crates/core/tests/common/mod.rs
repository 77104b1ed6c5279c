//! Shared by the run-equality tests.

use vmr_desim::SimTime;
use vmr_obs::{MetricValue, Obs};
use vmr_vcore::{Db, Engine};

/// What two runs that must be the same run may not disagree on.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    /// Completion instant of every work unit, in id order.
    pub finished: Vec<Option<SimTime>>,
    /// The clock at the end.
    pub now: SimTime,
    /// Events `run_until` delivered.
    pub events: u64,
    /// Every counter in the engine's registry.
    pub counters: Vec<(String, u64)>,
}

impl Outcome {
    pub fn of(eng: &Engine, events: u64) -> Self {
        Outcome::from_parts(&eng.db, eng.now(), events, &eng.obs)
    }

    /// The outcome of a run whose engine is gone: its database (live or
    /// recovered from the run's WAL), end clock, event count and
    /// registry.
    pub fn from_parts(db: &Db, now: SimTime, events: u64, obs: &Obs) -> Self {
        let finished = db.wu_ids().map(|id| db.wu(id).finished_at).collect();
        let counters = obs
            .snapshot()
            .entries
            .into_iter()
            .filter_map(|(name, v)| match v {
                MetricValue::Counter(n) => Some((name, n)),
                _ => None,
            })
            .collect();
        Outcome {
            finished,
            now,
            events,
            counters,
        }
    }

    /// This outcome minus the kernel's event count (`events` and the
    /// `desim.events_delivered` counter): what a run with the event
    /// journal off, whose idle clients' empty RPCs may run in bulk off
    /// the event queue, must still share with its journaled twin.
    #[allow(dead_code)]
    pub fn without_event_count(&self) -> Self {
        Outcome {
            finished: self.finished.clone(),
            now: self.now,
            events: 0,
            counters: self
                .counters
                .iter()
                .filter(|(name, _)| name != "desim.events_delivered")
                .cloned()
                .collect(),
        }
    }
}
