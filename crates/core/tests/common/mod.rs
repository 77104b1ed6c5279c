//! Shared by the run-equality tests.

use vmr_desim::SimTime;
use vmr_obs::MetricValue;
use vmr_vcore::Engine;

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
        let finished = eng
            .db
            .wu_ids()
            .map(|id| eng.db.wu(id).finished_at)
            .collect();
        let counters = eng
            .obs
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
            now: eng.now(),
            events,
            counters,
        }
    }
}
