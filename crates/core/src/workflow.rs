//! MapReduce workflows: chained jobs.
//!
//! §II: "MapReduce can be considered as a gateway to allow other
//! paradigms or more complex applications to be run on a VC system.
//! There are several examples of MapReduce workflows, and one could
//! consider other types of scientific workflows … as candidates to run
//! on desktop grids."
//!
//! A [`Workflow`] is a linear chain of MapReduce stages; stage *i+1*'s
//! input is stage *i*'s final output, so it is submitted only when the
//! previous stage's last reduce work unit validates. The policy wrapper
//! drives the chain from the same engine hooks BOINC-MR uses.

use crate::config::MrJobConfig;
use crate::jobtracker::Phase;
use crate::policy::MrPolicy;
use vmr_vcore::{ClientId, Engine, Policy, ResultId, WuId};

/// One stage of a workflow.
#[derive(Clone, Debug)]
pub struct Stage {
    /// Job parameters. `input_bytes` is used as-is for the first stage;
    /// later stages scale it by the data the previous stage produced
    /// (its reduce output total), times `input_scale`.
    pub cfg: MrJobConfig,
    /// Multiplier on the previous stage's output size (1.0 = consume it
    /// verbatim; >1 models a join against reference data).
    pub input_scale: f64,
}

/// A linear chain of MapReduce jobs.
pub struct Workflow {
    inner: MrPolicy,
    stages: Vec<Stage>,
    /// Tracker job index of each *submitted* stage.
    submitted: Vec<usize>,
}

impl Workflow {
    /// Builds a workflow from its stages (at least one).
    pub fn new(stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "workflow needs at least one stage");
        Workflow {
            inner: MrPolicy::new(),
            stages,
            submitted: Vec::new(),
        }
    }

    /// Submits the first stage; later stages auto-submit on completion.
    pub fn start(&mut self, eng: &mut Engine) {
        let cfg = self.stages[0].cfg.clone();
        let ji = self.inner.submit_job(eng, cfg);
        self.submitted.push(ji);
    }

    /// The underlying MR policy (phase times per stage live here).
    pub fn policy(&self) -> &MrPolicy {
        &self.inner
    }

    /// True when the final stage is done (or any stage failed).
    pub fn finished(&self) -> bool {
        let all_submitted = self.submitted.len() == self.stages.len();
        let last_done = self
            .submitted
            .last()
            .map(|&ji| {
                matches!(
                    self.inner.tracker.jobs[ji].phase,
                    Phase::Done | Phase::Failed
                )
            })
            .unwrap_or(false);
        let any_failed = self
            .submitted
            .iter()
            .any(|&ji| self.inner.tracker.jobs[ji].phase == Phase::Failed);
        (all_submitted && last_done) || any_failed
    }

    /// Did the whole chain complete successfully?
    pub fn succeeded(&self) -> bool {
        self.submitted.len() == self.stages.len()
            && self
                .submitted
                .iter()
                .all(|&ji| self.inner.tracker.jobs[ji].phase == Phase::Done)
    }

    fn maybe_advance(&mut self, eng: &mut Engine) {
        let Some(&last_ji) = self.submitted.last() else {
            return;
        };
        if self.inner.tracker.jobs[last_ji].phase != Phase::Done {
            return;
        }
        if self.submitted.len() == self.stages.len() {
            return;
        }
        // Previous stage's output feeds the next stage's input.
        let prev = &self.inner.tracker.jobs[last_ji];
        let produced = prev
            .cfg
            .sizing
            .reduce_output_bytes(prev.cfg.input_bytes, prev.cfg.job.n_reduces)
            * prev.cfg.job.n_reduces as u64;
        let next_stage = &self.stages[self.submitted.len()];
        let mut cfg = next_stage.cfg.clone();
        cfg.input_bytes = ((produced as f64 * next_stage.input_scale) as u64).max(1);
        let ji = self.inner.submit_job(eng, cfg);
        self.submitted.push(ji);
    }
}

impl Policy for Workflow {
    fn on_wu_validated(&mut self, eng: &mut Engine, wu: WuId, agreeing: &[ClientId]) {
        self.inner.on_wu_validated(eng, wu, agreeing);
        self.maybe_advance(eng);
    }
    fn on_wu_failed(&mut self, eng: &mut Engine, wu: WuId) {
        self.inner.on_wu_failed(eng, wu);
    }
    fn on_task_granted(&mut self, eng: &mut Engine, client: ClientId, rid: ResultId) {
        self.inner.on_task_granted(eng, client, rid);
    }
    fn on_task_executed(&mut self, eng: &mut Engine, client: ClientId, rid: ResultId) {
        self.inner.on_task_executed(eng, client, rid);
    }
    fn on_result_reported(&mut self, eng: &mut Engine, rid: ResultId) {
        self.inner.on_result_reported(eng, rid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MrMode;
    use vmr_desim::SimTime;
    use vmr_netsim::HostLink;
    use vmr_vcore::HostProfile;

    fn engine(n: usize) -> Engine {
        Engine::builder(3)
            .clients((0..n).map(|_| {
                (
                    HostProfile::pc3001(),
                    HostLink::symmetric_mbit(100.0, 0.000_5),
                )
            }))
            .build()
    }

    fn stage(n_maps: usize, n_reduces: usize, input: u64) -> Stage {
        let mut cfg = MrJobConfig::paper_wordcount(n_maps, n_reduces, MrMode::InterClient);
        cfg.input_bytes = input;
        Stage {
            cfg,
            input_scale: 1.0,
        }
    }

    #[test]
    fn two_stage_chain_completes_in_order() {
        let mut eng = engine(6);
        let mut wf = Workflow::new(vec![
            stage(4, 2, 8 << 20),
            stage(2, 1, 0), // input comes from stage 1's output
        ]);
        wf.start(&mut eng);
        assert_eq!(wf.policy().tracker.jobs.len(), 1);
        eng.run_until(&mut wf, SimTime::from_secs(100_000), |e| {
            e.db.all_wus_terminal()
        });
        assert!(wf.finished());
        assert!(wf.succeeded());
        assert_eq!(wf.policy().tracker.jobs.len(), 2);
        let jobs = &wf.policy().tracker.jobs;
        // Stage 2 starts only after stage 1 is fully done.
        assert!(jobs[1].first_map_assign.unwrap() >= jobs[0].done_at.unwrap());
        // Stage 2's input is stage 1's (small) output.
        assert!(jobs[1].cfg.input_bytes < jobs[0].cfg.input_bytes);
        assert!(jobs[1].cfg.input_bytes > 0);
    }

    #[test]
    fn three_stage_chain() {
        let mut eng = engine(6);
        let mut wf = Workflow::new(vec![stage(3, 2, 4 << 20), stage(2, 2, 0), stage(2, 1, 0)]);
        wf.start(&mut eng);
        eng.run_until(&mut wf, SimTime::from_secs(200_000), |e| {
            e.db.all_wus_terminal()
        });
        assert!(
            wf.succeeded(),
            "phases: {:?}",
            wf.policy()
                .tracker
                .jobs
                .iter()
                .map(|j| j.phase)
                .collect::<Vec<_>>()
        );
        assert_eq!(wf.policy().tracker.jobs.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_workflow_rejected() {
        Workflow::new(vec![]);
    }
}
