//! `internet100k_mr`: one InterClient word count on a 100 000-host
//! Anderson-&-Fedak population behind ISP tiers (`Preset::Internet`).
//!
//! Almost every scheduler RPC gets an empty reply (a few hundred grants
//! against a million-odd RPCs), the event queue is 100 000 deep, and
//! most shuffle bytes take the server fall-back: the scheduler's empty
//! path and the event kernel do the work, and this is the memory
//! workload.
//!
//! Two choices keep host time a property of the code rather than of the
//! seed. Each task has three replicas at quorum 2 (BOINC's usual guard
//! against one slow host; with two, a single volunteer's off-period
//! moves the makespan between 500 s and 10 000 s from seed to seed).
//! And the fleet is simulated for a fixed hour, in which the job
//! completes, rather than until the job's last report: the RPC count
//! then depends on the fleet, not on where the last straggler landed.

use super::{
    engine_counts, journal_events, run_engine, unvalidated, EngineProbe, Params, RepeatOut,
};
use crate::span::Tracer;
use crate::stats::mix;
use std::time::Instant;
use vmr_core::{MrJobConfig, MrMode, MrPolicy, Phase};
use vmr_desim::SimTime;
use vmr_vcore::{Engine, FileSource, PopulationSpec, Preset, ProjectConfig, ResultOutcome};

struct Size {
    hosts: usize,
    n_maps: usize,
    n_reduces: usize,
    input_bytes: u64,
    /// Simulated seconds the fleet runs for (longer if the job needs it).
    fleet_s: u64,
}

fn size(p: &Params) -> Size {
    if p.smoke {
        Size {
            hosts: 5_000,
            n_maps: 20,
            n_reduces: 4,
            input_bytes: 64 << 20,
            fleet_s: 3_600,
        }
    } else {
        Size {
            hosts: 100_000,
            n_maps: 40,
            n_reduces: 8,
            input_bytes: 128 << 20,
            fleet_s: 3_600,
        }
    }
}

fn build(p: &Params) -> (Engine, MrPolicy) {
    let sz = size(p);
    let seed = mix(p.seed, 3);
    let mut eng = Engine::builder(seed)
        .config(ProjectConfig::preset(Preset::Internet))
        .population(PopulationSpec::internet(sz.hosts, seed))
        .build();
    // As every harness in the repository does at this scale: the event
    // journal is a bounded ring, useless over a million events.
    eng.obs.journal.set_enabled(false);
    let mut pol = MrPolicy::new();
    let mut jc = MrJobConfig::paper_wordcount(sz.n_maps, sz.n_reduces, MrMode::InterClient);
    jc.input_bytes = sz.input_bytes;
    jc.replication = 3;
    jc.quorum = 2;
    pol.submit_job(&mut eng, jc);
    (eng, pol)
}

pub(super) fn setup_only(p: &Params) -> f64 {
    let t = Instant::now();
    std::hint::black_box(build(p));
    t.elapsed().as_secs_f64()
}

/// Bytes the reduce results were planned to pull from peers: a lower
/// bound from the results that reported success (each fetched every
/// input it did not hold itself) and an upper bound from every input
/// of every result ever sent.
fn planned_shuffle_bytes(eng: &Engine, pol: &MrPolicy) -> (u64, u64) {
    let (mut low, mut high) = (0u64, 0u64);
    for &wu in &pol.tracker.jobs[0].reduce_wus {
        for &rid in eng.db.results_of(wu) {
            let r = eng.db.result(rid);
            let Some(client) = r.client else { continue };
            for f in eng.db.inputs_of(rid) {
                let FileSource::Peers(holders) = &f.source else {
                    continue;
                };
                high += f.bytes;
                // A reducer that holds the map output reads it locally.
                if r.outcome == Some(ResultOutcome::Success) && !holders.contains(&client) {
                    low += f.bytes;
                }
            }
        }
    }
    (low, high)
}

pub(super) fn repeat(p: &Params, tr: &mut Tracer) -> RepeatOut {
    let s = tr.begin("setup");
    let t = Instant::now();
    let (mut eng, mut pol) = build(p);
    let setup_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let s = tr.begin("run");
    let until = SimTime::from_secs(size(p).fleet_s);
    let mut probe = EngineProbe::for_repeat(tr, &eng);
    let t = Instant::now();
    run_engine(&mut eng, &mut pol, &mut probe, |e| {
        e.now() >= until && e.db.all_wus_terminal()
    });
    let wall_s = t.elapsed().as_secs_f64();
    tr.end(s);

    let s = tr.begin("check");
    let snap = eng.obs.snapshot();
    let job = &pol.tracker.jobs[0];
    let mut violations = Vec::new();
    if job.phase != Phase::Done {
        violations.push(format!("job ended in phase {:?}", job.phase));
    }
    let moved = snap.counter("shuffle.bytes_p2p") + snap.counter("shuffle.bytes_server_fallback");
    let (low, high) = planned_shuffle_bytes(&eng, &pol);
    if moved < low || moved > high {
        violations.push(format!(
            "shuffle moved {moved} B, outside the planned {low}..={high} B"
        ));
    }
    let mut exact = engine_counts(&snap, journal_events(&eng));
    exact.push(("sim_makespan_s", job.total_time().unwrap_or(0.0)));
    exact.push(("sim_end_s", eng.now().as_secs_f64()));
    exact.push(("shape.hosts", eng.n_clients() as f64));
    exact.push(("shape.wus", eng.db.n_wus() as f64));
    exact.push(("shape.n_maps", job.cfg.job.n_maps as f64));
    exact.push(("shape.n_reduces", job.cfg.job.n_reduces as f64));
    exact.push(("shape.generated_population", 1.0));
    let out = RepeatOut {
        setup_s,
        wall_s,
        attempted: eng.db.n_wus() as u64,
        failed: unvalidated(&eng),
        violations,
        exact,
        timed: Vec::new(),
        probes: probe.map_or(Vec::new(), |pr| pr.finish(&snap)),
    };
    tr.end(s);
    out
}
