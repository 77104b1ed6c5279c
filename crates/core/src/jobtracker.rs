//! The JobTracker — the paper's new server-side module.
//!
//! "JobTracker, a new module on the server, provides information on map
//! or reduce tasks to be given to the client … Information on which
//! users ran map tasks for each MapReduce job is saved on the central
//! database, so the scheduler appends to each reduce result the address
//! (IP and port) of mappers holding output for the same job."

use crate::config::MrJobConfig;
use std::collections::BTreeMap;
use vmr_desim::SimTime;
use vmr_durable::{Dec, Enc, StateChange, WireError};
use vmr_vcore::{ClientId, StrategyKind, WuId};

/// Which MapReduce task a work unit implements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskKind {
    /// Map task `m`.
    Map(usize),
    /// Reduce task `r`.
    Reduce(usize),
}

/// Phase of one job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Map work units outstanding.
    Map,
    /// All maps validated; reduce work units outstanding.
    Reduce,
    /// All reduce work units validated.
    Done,
    /// A work unit failed permanently; the job cannot complete.
    Failed,
}

impl Phase {
    /// Wire tag (the `phase` byte of `StateChange::MrPhase`).
    pub fn to_wire(self) -> u8 {
        match self {
            Phase::Map => 0,
            Phase::Reduce => 1,
            Phase::Done => 2,
            Phase::Failed => 3,
        }
    }

    /// Inverse of [`Phase::to_wire`].
    pub fn from_wire(t: u8) -> Result<Self, WireError> {
        match t {
            0 => Ok(Phase::Map),
            1 => Ok(Phase::Reduce),
            2 => Ok(Phase::Done),
            3 => Ok(Phase::Failed),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Server-side state of one MapReduce job.
#[derive(Debug)]
pub struct JobState {
    /// Job configuration.
    pub cfg: MrJobConfig,
    /// Map work units, indexed by map task.
    pub map_wus: Vec<WuId>,
    /// Reduce work units, indexed by reduce task (empty until the map
    /// phase completes).
    pub reduce_wus: Vec<WuId>,
    /// Validated holders of each map task's output (the clients whose
    /// results matched the canonical fingerprint).
    pub holders: Vec<Vec<ClientId>>,
    /// Current phase.
    pub phase: Phase,
    /// Map WUs validated so far.
    pub maps_validated: usize,
    /// Reduce WUs validated so far.
    pub reduces_validated: usize,
    /// Index of the map task that validated last (its partitions are the
    /// only ones a prefetching reducer still needs).
    pub last_validated_map: Option<usize>,
    /// Shuffle strategy the reduce fetch plan was derived with. Stays
    /// baseline until a non-baseline plan is fixed at the map→reduce
    /// transition and journaled as `MrShufflePlanned`.
    pub shuffle_strategy: StrategyKind,
    /// Coded reducer group size of the plan (1 = no grouping).
    pub shuffle_group: u32,

    // ----- phase timestamps (Table I semantics) -----
    /// First map task assigned to a client ("phase execution is
    /// considered to start once the first task is assigned").
    pub first_map_assign: Option<SimTime>,
    /// Last accepted map report ("the end of a phase is signaled by the
    /// report or upload of the last output file").
    pub last_map_report: Option<SimTime>,
    /// When the final map WU validated (reduce WUs are created here).
    pub map_phase_validated_at: Option<SimTime>,
    /// First reduce task assigned.
    pub first_reduce_assign: Option<SimTime>,
    /// Last accepted reduce report.
    pub last_reduce_report: Option<SimTime>,
    /// When the final reduce WU validated (job complete).
    pub done_at: Option<SimTime>,
}

/// Wire tags for `StateChange::MrStamp::which` — the job timestamps
/// with set-once or take-max merge semantics.
pub mod stamp {
    /// `first_map_assign` (set-once).
    pub const FIRST_MAP_ASSIGN: u8 = 0;
    /// `last_map_report` (take-max).
    pub const LAST_MAP_REPORT: u8 = 1;
    /// `first_reduce_assign` (set-once).
    pub const FIRST_REDUCE_ASSIGN: u8 = 2;
    /// `last_reduce_report` (take-max).
    pub const LAST_REDUCE_REPORT: u8 = 3;
    /// `map_phase_validated_at` (set-once).
    pub const MAP_PHASE_VALIDATED: u8 = 4;
}

impl JobState {
    /// A fresh job in the map phase.
    pub fn new(cfg: MrJobConfig) -> Self {
        let n_maps = cfg.job.n_maps;
        JobState {
            cfg,
            map_wus: Vec::new(),
            reduce_wus: Vec::new(),
            holders: vec![Vec::new(); n_maps],
            phase: Phase::Map,
            maps_validated: 0,
            reduces_validated: 0,
            last_validated_map: None,
            shuffle_strategy: StrategyKind::Baseline,
            shuffle_group: 1,
            first_map_assign: None,
            last_map_report: None,
            map_phase_validated_at: None,
            first_reduce_assign: None,
            last_reduce_report: None,
            done_at: None,
        }
    }

    /// Map-phase duration per Table I (first assignment → last report).
    pub fn map_time(&self) -> Option<f64> {
        Some(
            self.map_phase_validated_at?
                .saturating_since(self.first_map_assign?)
                .as_secs_f64(),
        )
    }

    /// Reduce-phase duration per Table I.
    pub fn reduce_time(&self) -> Option<f64> {
        Some(
            self.done_at?
                .saturating_since(self.first_reduce_assign?)
                .as_secs_f64(),
        )
    }

    /// Total makespan per Table I ("interval between the scheduling of
    /// the first map task and the return of the last reduce output").
    pub fn total_time(&self) -> Option<f64> {
        Some(
            self.done_at?
                .saturating_since(self.first_map_assign?)
                .as_secs_f64(),
        )
    }
}

/// Registry of all jobs plus the WU → (job, task) reverse index.
#[derive(Debug, Default)]
pub struct JobTracker {
    /// All submitted jobs.
    pub jobs: Vec<JobState>,
    index: BTreeMap<WuId, (usize, TaskKind)>,
}

impl JobTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        JobTracker::default()
    }

    /// Registers a job, returning its index.
    pub fn add_job(&mut self, state: JobState) -> usize {
        self.jobs.push(state);
        self.jobs.len() - 1
    }

    /// Indexes a work unit as (job, task).
    pub fn index_wu(&mut self, wu: WuId, job: usize, task: TaskKind) {
        self.index.insert(wu, (job, task));
    }

    /// Looks up which job/task a WU implements (None for non-MR WUs —
    /// the `mapreduce` tag check).
    pub fn lookup(&self, wu: WuId) -> Option<(usize, TaskKind)> {
        self.index.get(&wu).copied()
    }

    /// True when every job has finished (validated or failed).
    pub fn all_done(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| matches!(j.phase, Phase::Done | Phase::Failed))
    }

    /// The job `job` names, or [`WireError::BadId`] when no such job
    /// was submitted.
    fn job_mut(&mut self, job: u32) -> Result<&mut JobState, WireError> {
        self.jobs.get_mut(job as usize).ok_or(WireError::BadId(job))
    }

    /// Applies one replayed WAL record; `Ok(false)` when the record
    /// belongs to another subsystem. Records arrive in emission order,
    /// so a job always exists before its WUs are indexed and holders
    /// land before the phase flips; a record that breaks this order, or
    /// names a map task the job does not have, is a
    /// [`WireError::BadId`].
    pub fn apply_change(&mut self, c: &StateChange) -> Result<bool, WireError> {
        let t = |us: u64| SimTime::from_micros(us);
        match c {
            StateChange::MrJobSubmitted { job, cfg } => {
                if *job as usize != self.jobs.len() {
                    return Err(WireError::BadId(*job));
                }
                let cfg = MrJobConfig::from_bytes(cfg)?;
                self.add_job(JobState::new(cfg));
            }
            StateChange::MrWuIndexed {
                wu,
                job,
                reduce,
                idx,
            } => {
                let j = self.job_mut(*job)?;
                let idx = *idx as usize;
                let task = if *reduce {
                    j.reduce_wus.push(WuId(*wu));
                    TaskKind::Reduce(idx)
                } else {
                    j.map_wus.push(WuId(*wu));
                    TaskKind::Map(idx)
                };
                self.index_wu(WuId(*wu), *job as usize, task);
            }
            StateChange::MrMapValidated {
                job,
                m,
                holders,
                at_us: _,
            } => {
                let j = self.job_mut(*job)?;
                *j.holders.get_mut(*m as usize).ok_or(WireError::BadId(*m))? =
                    holders.iter().copied().map(ClientId).collect();
                j.maps_validated += 1;
                j.last_validated_map = Some(*m as usize);
            }
            StateChange::MrReduceValidated { job } => {
                self.job_mut(*job)?.reduces_validated += 1;
            }
            StateChange::MrShufflePlanned {
                job,
                strategy,
                group,
            } => {
                let j = self.job_mut(*job)?;
                j.shuffle_strategy =
                    StrategyKind::from_wire_tag(*strategy).ok_or(WireError::BadValue)?;
                j.shuffle_group = *group;
            }
            StateChange::MrPhase { job, phase, at_us } => {
                let j = self.job_mut(*job)?;
                j.phase = Phase::from_wire(*phase)?;
                if j.phase == Phase::Done {
                    j.done_at = Some(t(*at_us));
                }
            }
            StateChange::MrStamp { job, which, at_us } => {
                let j = self.job_mut(*job)?;
                let now = t(*at_us);
                match *which {
                    stamp::FIRST_MAP_ASSIGN => {
                        j.first_map_assign = j.first_map_assign.or(Some(now))
                    }
                    stamp::LAST_MAP_REPORT => {
                        j.last_map_report = Some(j.last_map_report.unwrap_or(now).max(now))
                    }
                    stamp::FIRST_REDUCE_ASSIGN => {
                        j.first_reduce_assign = j.first_reduce_assign.or(Some(now))
                    }
                    stamp::LAST_REDUCE_REPORT => {
                        j.last_reduce_report = Some(j.last_reduce_report.unwrap_or(now).max(now))
                    }
                    stamp::MAP_PHASE_VALIDATED => j.map_phase_validated_at = Some(now),
                    w => return Err(WireError::BadTag(w)),
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Canonical snapshot of every job (the WU → task index is derived
    /// and rebuilt on decode). Equal trackers encode byte-identically:
    /// vectors keep submission order and timestamps are raw micros.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(64 + self.jobs.len() * 256);
        self.encode_state_into(&mut e);
        e.into_vec()
    }

    /// Appends [`JobTracker::encode_state`]'s bytes to `e`.
    pub fn encode_state_into(&self, e: &mut Enc) {
        let ot = |e: &mut Enc, v: Option<SimTime>| e.opt_u64(v.map(|t| t.as_micros()));
        e.u32(self.jobs.len() as u32);
        for j in &self.jobs {
            j.cfg.encode(e);
            e.vec_u32(&j.map_wus.iter().map(|w| w.0).collect::<Vec<_>>());
            e.vec_u32(&j.reduce_wus.iter().map(|w| w.0).collect::<Vec<_>>());
            e.u32(j.holders.len() as u32);
            for h in &j.holders {
                e.vec_u32(&h.iter().map(|c| c.0).collect::<Vec<_>>());
            }
            e.u8(j.phase.to_wire());
            e.u32(j.maps_validated as u32);
            e.u32(j.reduces_validated as u32);
            e.opt_u32(j.last_validated_map.map(|m| m as u32));
            e.u8(j.shuffle_strategy.wire_tag());
            e.u32(j.shuffle_group);
            ot(e, j.first_map_assign);
            ot(e, j.last_map_report);
            ot(e, j.map_phase_validated_at);
            ot(e, j.first_reduce_assign);
            ot(e, j.last_reduce_report);
            ot(e, j.done_at);
        }
    }

    /// Rebuilds a tracker from a [`JobTracker::encode_state`] snapshot
    /// section.
    pub fn decode_state(b: &[u8]) -> Result<JobTracker, WireError> {
        let mut d = Dec::new(b);
        let n = d.u32()? as usize;
        let mut t = JobTracker::new();
        for _ in 0..n {
            let cfg = MrJobConfig::decode(&mut d)?;
            let mut j = JobState::new(cfg);
            j.map_wus = d.vec_u32()?.into_iter().map(WuId).collect();
            j.reduce_wus = d.vec_u32()?.into_iter().map(WuId).collect();
            let nh = d.u32()? as usize;
            let mut holders = Vec::with_capacity(nh.min(1 << 16));
            for _ in 0..nh {
                holders.push(d.vec_u32()?.into_iter().map(ClientId).collect());
            }
            j.holders = holders;
            j.phase = Phase::from_wire(d.u8()?)?;
            j.maps_validated = d.u32()? as usize;
            j.reduces_validated = d.u32()? as usize;
            j.last_validated_map = d.opt_u32()?.map(|m| m as usize);
            j.shuffle_strategy = StrategyKind::from_wire_tag(d.u8()?).ok_or(WireError::BadValue)?;
            j.shuffle_group = d.u32()?;
            let mut ot = || -> Result<Option<SimTime>, WireError> {
                Ok(d.opt_u64()?.map(SimTime::from_micros))
            };
            j.first_map_assign = ot()?;
            j.last_map_report = ot()?;
            j.map_phase_validated_at = ot()?;
            j.first_reduce_assign = ot()?;
            j.last_reduce_report = ot()?;
            j.done_at = ot()?;
            let ji = t.add_job(j);
            let j = &t.jobs[ji];
            let (maps, reduces) = (j.map_wus.clone(), j.reduce_wus.clone());
            for (m, wu) in maps.into_iter().enumerate() {
                t.index_wu(wu, ji, TaskKind::Map(m));
            }
            for (r, wu) in reduces.into_iter().enumerate() {
                t.index_wu(wu, ji, TaskKind::Reduce(r));
            }
        }
        d.finish()?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MrJobConfig, MrMode};

    fn job() -> JobState {
        JobState::new(MrJobConfig::paper_wordcount(4, 2, MrMode::InterClient))
    }

    #[test]
    fn fresh_job_is_mapping() {
        let j = job();
        assert_eq!(j.phase, Phase::Map);
        assert_eq!(j.holders.len(), 4);
        assert_eq!(j.map_time(), None);
    }

    #[test]
    fn phase_times_compute() {
        let mut j = job();
        j.first_map_assign = Some(SimTime::from_secs(10));
        j.map_phase_validated_at = Some(SimTime::from_secs(110));
        j.first_reduce_assign = Some(SimTime::from_secs(150));
        j.done_at = Some(SimTime::from_secs(250));
        assert_eq!(j.map_time(), Some(100.0));
        assert_eq!(j.reduce_time(), Some(100.0));
        assert_eq!(j.total_time(), Some(240.0));
    }

    #[test]
    fn tracker_index_roundtrip() {
        let mut t = JobTracker::new();
        let ji = t.add_job(job());
        t.index_wu(WuId(7), ji, TaskKind::Map(3));
        assert_eq!(t.lookup(WuId(7)), Some((ji, TaskKind::Map(3))));
        assert_eq!(t.lookup(WuId(8)), None);
        assert!(!t.all_done());
        t.jobs[ji].phase = Phase::Done;
        assert!(t.all_done());
    }

    /// A mid-job tracker with every field populated.
    fn busy_tracker() -> JobTracker {
        let mut t = JobTracker::new();
        let ji = t.add_job(job());
        for m in 0..4 {
            t.jobs[ji].map_wus.push(WuId(m));
            t.index_wu(WuId(m), ji, TaskKind::Map(m as usize));
        }
        t.jobs[ji].holders[1] = vec![ClientId(3), ClientId(0)];
        t.jobs[ji].maps_validated = 1;
        t.jobs[ji].last_validated_map = Some(1);
        t.jobs[ji].first_map_assign = Some(SimTime::from_secs(5));
        t.jobs[ji].last_map_report = Some(SimTime::from_secs(40));
        t
    }

    #[test]
    fn tracker_snapshot_round_trip_is_canonical() {
        let t = busy_tracker();
        let enc = t.encode_state();
        let back = JobTracker::decode_state(&enc).unwrap();
        assert_eq!(back.encode_state(), enc);
        assert_eq!(back.lookup(WuId(2)), Some((0, TaskKind::Map(2))));
        assert_eq!(back.jobs[0].holders[1], vec![ClientId(3), ClientId(0)]);
        assert_eq!(back.jobs[0].maps_validated, 1);
        assert_eq!(back.jobs[0].first_map_assign, Some(SimTime::from_secs(5)));
        assert_eq!(back.jobs[0].done_at, None);
    }

    #[test]
    fn wal_replay_rebuilds_tracker() {
        use crate::jobtracker::stamp;
        use vmr_durable::StateChange;
        let live = busy_tracker();
        // The change sequence that produces `busy_tracker` state.
        let cfg = live.jobs[0].cfg.to_bytes();
        let changes = vec![
            StateChange::MrJobSubmitted { job: 0, cfg },
            StateChange::MrWuIndexed {
                wu: 0,
                job: 0,
                reduce: false,
                idx: 0,
            },
            StateChange::MrWuIndexed {
                wu: 1,
                job: 0,
                reduce: false,
                idx: 1,
            },
            StateChange::MrWuIndexed {
                wu: 2,
                job: 0,
                reduce: false,
                idx: 2,
            },
            StateChange::MrWuIndexed {
                wu: 3,
                job: 0,
                reduce: false,
                idx: 3,
            },
            StateChange::MrStamp {
                job: 0,
                which: stamp::FIRST_MAP_ASSIGN,
                at_us: 5_000_000,
            },
            // Set-once: a later first-assign stamp must not move it.
            StateChange::MrStamp {
                job: 0,
                which: stamp::FIRST_MAP_ASSIGN,
                at_us: 9_000_000,
            },
            StateChange::MrMapValidated {
                job: 0,
                m: 1,
                holders: vec![3, 0],
                at_us: 30_000_000,
            },
            // Take-max: an out-of-order earlier report must not win.
            StateChange::MrStamp {
                job: 0,
                which: stamp::LAST_MAP_REPORT,
                at_us: 40_000_000,
            },
            StateChange::MrStamp {
                job: 0,
                which: stamp::LAST_MAP_REPORT,
                at_us: 20_000_000,
            },
        ];
        let mut replayed = JobTracker::new();
        for c in &changes {
            assert!(replayed.apply_change(c).unwrap(), "unhandled {c:?}");
        }
        assert_eq!(replayed.encode_state(), live.encode_state());
    }
}
