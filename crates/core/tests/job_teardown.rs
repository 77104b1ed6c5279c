//! A finished job stops serving every one of its map outputs — from
//! every client that registered one, not only from the validated
//! holders the JobTracker records. A byzantine mapper executes map
//! tasks (and so registers their partition files) without ever being a
//! holder, and a host dropping out mid-map has its task re-run
//! elsewhere; neither may leave a file served once the job is done.
//! A job that fails stops serving the same way.

use vmr_core::{MrJobConfig, MrMode, MrPolicy, Phase};
use vmr_desim::{SimDuration, SimTime};
use vmr_netsim::HostLink;
use vmr_vcore::config::SERVING_TIMEOUT_S;
use vmr_vcore::{ClientId, Engine, FaultPlan, HostProfile, WuId, WuState};

const N_CLIENTS: u32 = 6;

fn testbed(n_clients: u32) -> Engine {
    Engine::builder(3)
        .clients((0..n_clients).map(|_| {
            (
                HostProfile::pc3001(),
                HostLink::symmetric_mbit(100.0, 0.000_5),
            )
        }))
        .build()
}

/// Asserts that no client of `eng` serves any partition file of job
/// `ji` at the current instant.
fn assert_serves_nothing(eng: &Engine, pol: &MrPolicy, ji: usize, n_clients: u32) {
    let job = &pol.tracker.jobs[ji].cfg.job;
    let now = eng.now();
    for m in 0..job.n_maps {
        for r in 0..job.n_reduces {
            let name = job.partition_file(m, r);
            for c in (0..n_clients).map(ClientId) {
                assert!(!eng.serves(c, &name, now), "{c:?} still serves {name}");
            }
        }
    }
}

#[test]
fn a_done_job_serves_no_partition_file_from_any_client() {
    let mut eng = testbed(N_CLIENTS);
    eng.fault = FaultPlan {
        byzantine: vec![ClientId(0)],
        corruption_prob: 1.0,
        dropouts: vec![(ClientId(4), SimDuration::from_secs(10))],
        ..FaultPlan::none()
    };
    let mut pol = MrPolicy::new();
    let mut cfg = MrJobConfig::paper_wordcount(3, 2, MrMode::InterClient);
    cfg.input_bytes = 6_000_000;
    cfg.delay_bound_s = 600.0;
    let ji = pol.submit_job(&mut eng, cfg);
    let horizon = SimTime::from_secs(50_000);

    // At the phase boundary some client outside a map's validated
    // holders still serves that map's outputs: the teardown below has
    // more to remove than the JobTracker knows of.
    eng.run_until(&mut pol, horizon, |e| e.db.n_wus() > 3);
    let job = &pol.tracker.jobs[ji];
    assert_eq!(job.phase, Phase::Reduce);
    let now = eng.now();
    let stray = (0..job.cfg.job.n_maps).any(|m| {
        (0..N_CLIENTS).map(ClientId).any(|c| {
            !job.holders[m].contains(&c) && eng.serves(c, &job.cfg.job.partition_file(m, 0), now)
        })
    });
    assert!(stray, "no client outside the holders registered a file");

    eng.run_until(&mut pol, horizon, |e| e.db.all_wus_terminal());
    let job = &pol.tracker.jobs[ji];
    assert_eq!(job.phase, Phase::Done);
    assert!(eng.client_dropped(ClientId(4)));
    // Every window opened during the job is still open at its end, so
    // only the teardown can have closed them.
    let started = job.first_map_assign.expect("maps were assigned");
    let serving = SimDuration::from_secs_f64(SERVING_TIMEOUT_S);
    assert!(
        eng.now() <= started + serving,
        "the job outlived its windows"
    );
    assert_serves_nothing(&eng, &pol, ji, N_CLIENTS);
}

#[test]
fn a_failed_job_serves_no_partition_file_from_any_client() {
    // Every host corrupts every output, so no map ever reaches a
    // quorum; ten hosts let a map's result budget (4 × replication)
    // run out under the one-replica-per-host rule, and the job fails.
    const N: u32 = 10;
    let mut eng = testbed(N);
    eng.fault = FaultPlan {
        byzantine: (0..N).map(ClientId).collect(),
        corruption_prob: 1.0,
        ..FaultPlan::none()
    };
    let mut pol = MrPolicy::new();
    let mut cfg = MrJobConfig::paper_wordcount(3, 2, MrMode::InterClient);
    cfg.input_bytes = 6_000_000;
    let ji = pol.submit_job(&mut eng, cfg);
    eng.run_until(&mut pol, SimTime::from_secs(50_000), |e| {
        (0..e.db.n_wus() as u32).any(|w| e.db.wu(WuId(w)).state == WuState::Failed)
    });
    let job = &pol.tracker.jobs[ji];
    assert_eq!(job.phase, Phase::Failed);
    // The failure comes inside the windows the maps opened, so only
    // the teardown can have closed them.
    let started = job.first_map_assign.expect("maps were assigned");
    assert!(
        eng.now() <= started + SimDuration::from_secs_f64(SERVING_TIMEOUT_S),
        "the job outlived its windows"
    );
    assert_serves_nothing(&eng, &pol, ji, N);
}
