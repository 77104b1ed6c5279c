//! The BOINC-MR orchestration policy: map/reduce phase coordination
//! plugged into the vcore engine hooks (§III.B of the paper).
//!
//! * Map work units are scheduled like ordinary BOINC work ("BOINC-MR
//!   follows the traditional protocol when scheduling work during the
//!   map phase").
//! * When a map task finishes executing on a BOINC-MR client, the client
//!   starts serving its partitioned outputs to peers.
//! * "Once all the map work units have been returned and the results
//!   have been validated, the system moves to the reduce phase": reduce
//!   work units are created automatically, each carrying the locations
//!   (holders) of every map output partition it needs.
//! * When all reduce work units validate, the job is done and mappers
//!   stop serving ("we … stop accepting connections when there are no
//!   more files available for upload").

use crate::config::{MrJobConfig, MrMode};
use crate::jobtracker::{stamp, JobState, JobTracker, Phase, TaskKind};
use vmr_desim::SimDuration;
use vmr_durable::{SectionWriter, StateChange};
use vmr_obs::{Actor, Detail, Mark, PhaseMark};
use vmr_shuffle::coded_groups;
use vmr_vcore::config::SERVING_TIMEOUT_S;
use vmr_vcore::{
    ClientId, Engine, FileRef, FileSource, Policy, ResultId, StrategyKind, WorkUnitSpec, WuId,
};

/// The BOINC-MR server policy.
#[derive(Debug, Default)]
pub struct MrPolicy {
    /// Job registry (public so harnesses can read phase times).
    pub tracker: JobTracker,
}

impl MrPolicy {
    /// An empty policy; submit jobs with [`MrPolicy::submit_job`].
    pub fn new() -> Self {
        MrPolicy::default()
    }

    /// Submits a job: inserts its map work units and registers it with
    /// the JobTracker. Returns the job index.
    pub fn submit_job(&mut self, eng: &mut Engine, mut cfg: MrJobConfig) -> usize {
        let job_idx = self.tracker.jobs.len();
        cfg.job.name = format!("mr{job_idx}");
        eng.durable().append(&StateChange::MrJobSubmitted {
            job: job_idx as u32,
            cfg: cfg.to_bytes(),
        });
        let mut state = JobState::new(cfg);
        let cfg = &state.cfg;
        let chunk = cfg.chunk_bytes();
        // Coded shuffle needs every map output on `r` hosts; the strategy
        // raises replication/quorum when the job config alone would leave
        // too few holders. Baseline/Swarm pass the config through.
        let (map_repl, map_quorum) = eng
            .shuffle_strategy()
            .map_placement(cfg.replication, cfg.quorum);
        for m in 0..cfg.job.n_maps {
            let mut spec = WorkUnitSpec::basic(
                format!("{}_map_{m}", cfg.job.name),
                format!("{}_map", cfg.job.name),
                cfg.sizing.map_flops(chunk),
            );
            spec.inputs = vec![FileRef::on_server(
                format!("{}_in_{m}", cfg.job.name),
                chunk,
            )];
            spec.target_nresults = map_repl;
            spec.min_quorum = map_quorum;
            spec.max_total_results = map_repl * 4;
            spec.delay_bound = vmr_desim::SimDuration::from_secs_f64(cfg.delay_bound_s);
            spec.output_bytes = cfg.sizing.map_output_bytes(chunk);
            // Plain BOINC always uploads; BOINC-MR v1 keeps uploading as
            // fall-back insurance unless configured otherwise.
            spec.upload_outputs = match cfg.mode {
                MrMode::ServerRelay => true,
                MrMode::InterClient => cfg.map_outputs_to_server,
            };
            spec.payload = m as u64;
            let wu = eng.insert_workunit(spec);
            state.map_wus.push(wu);
        }
        let map_wus = state.map_wus.clone();
        self.tracker.add_job(state);
        for (m, wu) in map_wus.into_iter().enumerate() {
            eng.durable().append(&StateChange::MrWuIndexed {
                wu: wu.0,
                job: job_idx as u32,
                reduce: false,
                idx: m as u32,
            });
            self.tracker.index_wu(wu, job_idx, TaskKind::Map(m));
        }
        job_idx
    }

    /// True when every submitted job is done or failed.
    pub fn all_done(&self) -> bool {
        self.tracker.all_done()
    }

    /// Creates the reduce work units of job `job_idx` (the automatic
    /// phase transition). Requires every map WU validated.
    fn create_reduce_wus(&mut self, eng: &mut Engine, job_idx: usize) {
        let job = &self.tracker.jobs[job_idx];
        let cfg = &job.cfg;
        let chunk = cfg.chunk_bytes();
        let n_maps = cfg.job.n_maps;
        let n_reduces = cfg.job.n_reduces;
        let total_intermediate = cfg.sizing.map_output_bytes(chunk) * n_maps as u64;
        // Fix the fetch plan before any work unit exists: the strategy
        // decides how many bytes of each partition a reducer pulls and
        // from which holders (Coded shares a partition across a reducer
        // group; Baseline and Swarm pass the inputs through untouched).
        let strat = eng.shuffle_strategy();
        let kind = strat.kind();
        let group = strat.coding_group(n_reduces);
        let mut plans = Vec::with_capacity(n_reduces);
        for r in 0..n_reduces {
            let mut row = Vec::with_capacity(n_maps);
            for m in 0..n_maps {
                let mut bytes = cfg.sizing.partition_bytes(chunk, n_reduces);
                // §IV.C "intermediate data downloads": everything except
                // the last-validated map was prefetched during the map
                // phase; only the tail remains to fetch.
                if cfg.intermediate_downloads && job.last_validated_map != Some(m) {
                    bytes = 0;
                }
                let holders: Vec<u32> = job.holders[m].iter().map(|c| c.0).collect();
                row.push(strat.plan_fetch(m, r, n_reduces, bytes, &holders));
            }
            plans.push(row);
        }
        let mut new_wus = Vec::with_capacity(n_reduces);
        for (r, row) in plans.iter().enumerate() {
            let mut inputs = Vec::with_capacity(n_maps);
            for (m, plan) in row.iter().enumerate() {
                let source = match cfg.mode {
                    MrMode::ServerRelay => FileSource::DataServer,
                    MrMode::InterClient => {
                        FileSource::Peers(plan.sources.iter().map(|&c| ClientId(c)).collect())
                    }
                };
                inputs.push(FileRef {
                    name: cfg.job.partition_file(m, r),
                    bytes: plan.bytes,
                    source,
                });
            }
            let in_bytes = total_intermediate / n_reduces as u64;
            let mut spec = WorkUnitSpec::basic(
                format!("{}_red_{r}", cfg.job.name),
                format!("{}_red", cfg.job.name),
                cfg.sizing.reduce_flops(in_bytes),
            );
            spec.inputs = inputs;
            spec.target_nresults = cfg.replication;
            spec.min_quorum = cfg.quorum;
            spec.max_total_results = cfg.replication * 4;
            spec.delay_bound = vmr_desim::SimDuration::from_secs_f64(cfg.delay_bound_s);
            spec.output_bytes = cfg.sizing.reduce_output_bytes(cfg.input_bytes, n_reduces);
            spec.upload_outputs = true; // "the output is uploaded back to the server"
            spec.payload = r as u64;
            new_wus.push(eng.insert_workunit(spec));
        }
        // Journal the plan only when it deviates from baseline so default
        // runs keep the pre-shuffle WAL byte stream (the baseline plan is
        // the JobState default and needs no record to replay).
        if kind != StrategyKind::Baseline {
            eng.durable().append(&StateChange::MrShufflePlanned {
                job: job_idx as u32,
                strategy: kind.wire_tag(),
                group: group as u32,
            });
        }
        if kind == StrategyKind::Coded {
            // One coded send serves a whole reducer group: count the
            // sends the plan implies (per map, per group).
            eng.shuffle_obs()
                .coded_sends
                .add((n_maps * coded_groups(n_reduces, group)) as u64);
        }
        eng.durable().append(&StateChange::MrPhase {
            job: job_idx as u32,
            phase: Phase::Reduce.to_wire(),
            at_us: eng.now().as_micros(),
        });
        let job = &mut self.tracker.jobs[job_idx];
        job.reduce_wus = new_wus.clone();
        job.phase = Phase::Reduce;
        if kind != StrategyKind::Baseline {
            job.shuffle_strategy = kind;
            job.shuffle_group = group as u32;
        }
        for (r, wu) in new_wus.into_iter().enumerate() {
            eng.durable().append(&StateChange::MrWuIndexed {
                wu: wu.0,
                job: job_idx as u32,
                reduce: true,
                idx: r as u32,
            });
            self.tracker.index_wu(wu, job_idx, TaskKind::Reduce(r));
        }
    }

    /// Marks a job phase transition: one timeline point on the server
    /// lane (Fig. 4) plus a labeled counter in the metrics registry.
    fn mark_phase(eng: &mut Engine, phase: PhaseMark, now: vmr_desim::SimTime) {
        eng.obs.journal.point(
            Actor::Server,
            Mark::Phase,
            Detail::Phase(phase),
            now.as_micros(),
        );
        eng.obs
            .counter_labeled("core.phase_marks", &[("phase", phase.as_str())])
            .inc();
    }

    /// Stops all mapper serving for a done or failed job: every
    /// partition file, from every client that registered it.
    fn stop_serving(&self, eng: &mut Engine, job_idx: usize) {
        let job = &self.tracker.jobs[job_idx].cfg.job;
        for m in 0..job.n_maps {
            for r in 0..job.n_reduces {
                eng.stop_serving_file(&job.partition_file(m, r));
            }
        }
    }
}

impl Policy for MrPolicy {
    fn on_task_granted(&mut self, eng: &mut Engine, _client: ClientId, rid: ResultId) {
        let wu = eng.db.result(rid).wu;
        let Some((ji, task)) = self.tracker.lookup(wu) else {
            return;
        };
        let now = eng.now();
        let job = &mut self.tracker.jobs[ji];
        match task {
            TaskKind::Map(_) => {
                if job.first_map_assign.is_none() {
                    eng.durable().append(&StateChange::MrStamp {
                        job: ji as u32,
                        which: stamp::FIRST_MAP_ASSIGN,
                        at_us: now.as_micros(),
                    });
                    job.first_map_assign = Some(now);
                    Self::mark_phase(eng, PhaseMark::MapStart, now);
                }
            }
            TaskKind::Reduce(_) => {
                if job.first_reduce_assign.is_none() {
                    eng.durable().append(&StateChange::MrStamp {
                        job: ji as u32,
                        which: stamp::FIRST_REDUCE_ASSIGN,
                        at_us: now.as_micros(),
                    });
                    job.first_reduce_assign = Some(now);
                    Self::mark_phase(eng, PhaseMark::ReduceStart, now);
                }
            }
        }
    }

    fn on_task_executed(&mut self, eng: &mut Engine, client: ClientId, rid: ResultId) {
        let wu = eng.db.result(rid).wu;
        let Some((ji, TaskKind::Map(m))) = self.tracker.lookup(wu) else {
            return;
        };
        let job = &self.tracker.jobs[ji];
        if job.cfg.mode != MrMode::InterClient {
            return;
        }
        // "We open a TCP [socket] for listening to incoming connections
        // whenever a map task has finished and its output(s) is
        // available" — register every partition file, with the serving
        // timeout of the project.
        let until = eng.now() + SimDuration::from_secs_f64(SERVING_TIMEOUT_S);
        for r in 0..job.cfg.job.n_reduces {
            eng.register_served_file(client, job.cfg.job.partition_file(m, r), Some(until));
        }
    }

    fn on_result_reported(&mut self, eng: &mut Engine, rid: ResultId) {
        let r = eng.db.result(rid);
        if !r.is_success() {
            return;
        }
        let wu = r.wu;
        let Some((ji, task)) = self.tracker.lookup(wu) else {
            return;
        };
        let now = eng.now();
        let job = &mut self.tracker.jobs[ji];
        let which = match task {
            TaskKind::Map(_) => {
                job.last_map_report = Some(job.last_map_report.unwrap_or(now).max(now));
                stamp::LAST_MAP_REPORT
            }
            TaskKind::Reduce(_) => {
                job.last_reduce_report = Some(job.last_reduce_report.unwrap_or(now).max(now));
                stamp::LAST_REDUCE_REPORT
            }
        };
        eng.durable().append(&StateChange::MrStamp {
            job: ji as u32,
            which,
            at_us: now.as_micros(),
        });
    }

    fn on_wu_validated(&mut self, eng: &mut Engine, wu: WuId, agreeing: &[ClientId]) {
        let Some((ji, task)) = self.tracker.lookup(wu) else {
            return;
        };
        let now = eng.now();
        match task {
            TaskKind::Map(m) => {
                eng.durable().append(&StateChange::MrMapValidated {
                    job: ji as u32,
                    m: m as u32,
                    holders: agreeing.iter().map(|c| c.0).collect(),
                    at_us: now.as_micros(),
                });
                {
                    let job = &mut self.tracker.jobs[ji];
                    job.holders[m] = agreeing.to_vec();
                    job.maps_validated += 1;
                    job.last_validated_map = Some(m);
                }
                // "In case the server decides a reduce task should be …
                // scheduled on another client, the map outputs' timeout
                // is reset": extend serving windows of this map's files.
                let (names, until) = {
                    let job = &self.tracker.jobs[ji];
                    let names: Vec<String> = (0..job.cfg.job.n_reduces)
                        .map(|r| job.cfg.job.partition_file(m, r))
                        .collect();
                    (names, now + SimDuration::from_secs_f64(SERVING_TIMEOUT_S))
                };
                for c in agreeing {
                    for name in &names {
                        eng.reset_serving_timeout(*c, name, Some(until));
                    }
                }
                let job = &self.tracker.jobs[ji];
                if job.maps_validated == job.cfg.job.n_maps {
                    eng.durable().append(&StateChange::MrStamp {
                        job: ji as u32,
                        which: stamp::MAP_PHASE_VALIDATED,
                        at_us: now.as_micros(),
                    });
                    self.tracker.jobs[ji].map_phase_validated_at = Some(now);
                    Self::mark_phase(eng, PhaseMark::MapsValidated, now);
                    self.create_reduce_wus(eng, ji);
                }
            }
            TaskKind::Reduce(_) => {
                eng.durable()
                    .append(&StateChange::MrReduceValidated { job: ji as u32 });
                let job = &mut self.tracker.jobs[ji];
                job.reduces_validated += 1;
                if job.reduces_validated == job.cfg.job.n_reduces {
                    eng.durable().append(&StateChange::MrPhase {
                        job: ji as u32,
                        phase: Phase::Done.to_wire(),
                        at_us: now.as_micros(),
                    });
                    let job = &mut self.tracker.jobs[ji];
                    job.phase = Phase::Done;
                    job.done_at = Some(now);
                    Self::mark_phase(eng, PhaseMark::JobDone, now);
                    self.stop_serving(eng, ji);
                }
            }
        }
    }

    fn on_wu_failed(&mut self, eng: &mut Engine, wu: WuId) {
        if let Some((ji, _)) = self.tracker.lookup(wu) {
            eng.durable().append(&StateChange::MrPhase {
                job: ji as u32,
                phase: Phase::Failed.to_wire(),
                at_us: eng.now().as_micros(),
            });
            self.tracker.jobs[ji].phase = Phase::Failed;
            Self::mark_phase(eng, PhaseMark::JobFailed, eng.now());
            self.stop_serving(eng, ji);
        }
    }

    fn durable_sections(&self, out: &mut SectionWriter<'_>) {
        use vmr_durable::section;
        out.section(section::NAMES[section::TRACKER], |e| {
            self.tracker.encode_state_into(e)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_desim::SimTime;
    use vmr_netsim::HostLink;
    use vmr_vcore::HostProfile;

    fn engine(n: usize) -> Engine {
        Engine::builder(1)
            .clients((0..n).map(|_| {
                (
                    HostProfile::pc3001(),
                    HostLink::symmetric_mbit(100.0, 0.000_5),
                )
            }))
            .build()
    }

    fn tiny_job(mode: MrMode) -> MrJobConfig {
        let mut cfg = MrJobConfig::paper_wordcount(3, 2, mode);
        cfg.input_bytes = 6_000_000; // 6 MB → 2 MB chunks: seconds, not hours
        cfg
    }

    #[test]
    fn submit_creates_map_wus_only() {
        let mut eng = engine(4);
        let mut pol = MrPolicy::new();
        let ji = pol.submit_job(&mut eng, tiny_job(MrMode::InterClient));
        assert_eq!(pol.tracker.jobs[ji].map_wus.len(), 3);
        assert!(pol.tracker.jobs[ji].reduce_wus.is_empty());
        assert_eq!(eng.db.n_wus(), 3);
        // Replication 2 → 6 results.
        assert_eq!(eng.db.n_results(), 6);
    }

    #[test]
    fn full_job_interclient_completes() {
        let mut eng = engine(5);
        let mut pol = MrPolicy::new();
        let ji = pol.submit_job(&mut eng, tiny_job(MrMode::InterClient));
        eng.run_until(&mut pol, SimTime::from_secs(50_000), |e| {
            e.db.all_wus_terminal()
        });
        let job = &pol.tracker.jobs[ji];
        assert_eq!(job.phase, Phase::Done, "job should finish");
        assert!(job.map_time().unwrap() > 0.0);
        assert!(job.reduce_time().unwrap() > 0.0);
        assert!(job.total_time().unwrap() >= job.map_time().unwrap());
        // Inter-client mode with everyone open: no server fallbacks.
        assert_eq!(eng.obs.snapshot().counter("vcore.server_fallbacks"), 0);
        // Holders recorded for every map.
        for h in &job.holders {
            assert_eq!(h.len(), 2, "quorum-2 leaves two holders");
        }
    }

    #[test]
    fn full_job_server_relay_completes() {
        let mut eng = engine(5);
        let mut pol = MrPolicy::new();
        let ji = pol.submit_job(&mut eng, tiny_job(MrMode::ServerRelay));
        eng.run_until(&mut pol, SimTime::from_secs(50_000), |e| {
            e.db.all_wus_terminal()
        });
        assert_eq!(pol.tracker.jobs[ji].phase, Phase::Done);
        // Server-relay reduces download from the data server only.
        let snap = eng.obs.snapshot();
        for path in ["direct", "reversal", "hole_punch", "relay"] {
            assert_eq!(
                snap.counter(&format!("vcore.nat_connects{{outcome={path}}}")),
                0
            );
        }
    }

    #[test]
    fn reduce_wus_created_exactly_on_map_validation() {
        let mut eng = engine(5);
        let mut pol = MrPolicy::new();
        let ji = pol.submit_job(&mut eng, tiny_job(MrMode::InterClient));
        eng.run_until(&mut pol, SimTime::from_secs(50_000), |e| {
            e.db.n_wus() > 3 // stop as soon as reduce WUs appear
        });
        let job = &pol.tracker.jobs[ji];
        assert_eq!(job.phase, Phase::Reduce);
        assert_eq!(job.reduce_wus.len(), 2);
        assert!(job.map_phase_validated_at.is_some());
        assert!(job.first_reduce_assign.is_none(), "not yet assigned");
        // Reduce inputs must point at the map holders.
        let rwu = job.reduce_wus[0];
        let inputs = &eng.db.wu(rwu).spec.inputs;
        assert_eq!(inputs.len(), 3, "one partition per map");
        for (m, f) in inputs.iter().enumerate() {
            match &f.source {
                FileSource::Peers(peers) => assert_eq!(peers, &job.holders[m]),
                other => panic!("expected peer source, got {other:?}"),
            }
        }
    }

    #[test]
    fn interclient_moves_less_data_through_server() {
        let run = |mode| {
            let mut eng = engine(6);
            let mut pol = MrPolicy::new();
            let mut cfg = tiny_job(mode);
            cfg.map_outputs_to_server = false; // pure BOINC-MR data path
            pol.submit_job(&mut eng, cfg);
            eng.run_until(&mut pol, SimTime::from_secs(50_000), |e| {
                e.db.all_wus_terminal()
            });
            assert!(pol.all_done());
            eng.obs.snapshot().counter("vcore.bytes_via_server") as f64
        };
        let relay = run(MrMode::ServerRelay);
        let p2p = run(MrMode::InterClient);
        assert!(
            p2p < relay * 0.7,
            "inter-client should cut server traffic: p2p={p2p} relay={relay}"
        );
    }

    #[test]
    fn mitigation_intermediate_downloads_shrinks_reduce_inputs() {
        let mut eng = engine(5);
        let mut pol = MrPolicy::new();
        let mut cfg = tiny_job(MrMode::InterClient);
        cfg.intermediate_downloads = true;
        let ji = pol.submit_job(&mut eng, cfg);
        eng.run_until(&mut pol, SimTime::from_secs(50_000), |e| e.db.n_wus() > 3);
        let job = &pol.tracker.jobs[ji];
        let rwu = job.reduce_wus[0];
        let inputs = &eng.db.wu(rwu).spec.inputs;
        let nonzero = inputs.iter().filter(|f| f.bytes > 0).count();
        assert_eq!(nonzero, 1, "only the last-validated map still costs bytes");
    }

    #[test]
    fn two_concurrent_jobs_complete() {
        let mut eng = engine(8);
        let mut pol = MrPolicy::new();
        pol.submit_job(&mut eng, tiny_job(MrMode::InterClient));
        pol.submit_job(&mut eng, tiny_job(MrMode::ServerRelay));
        eng.run_until(&mut pol, SimTime::from_secs(100_000), |e| {
            e.db.all_wus_terminal()
        });
        assert!(pol.all_done());
        assert_eq!(pol.tracker.jobs[0].phase, Phase::Done);
        assert_eq!(pol.tracker.jobs[1].phase, Phase::Done);
    }
}
