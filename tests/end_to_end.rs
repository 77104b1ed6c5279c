//! Cross-crate integration: the simulated volunteer cloud end to end.

use volunteer_mr::core::{
    run_experiment, ExperimentConfig, ExperimentOutcome, MitigationPlan, MrMode, NodeMix,
};

fn small(mode: MrMode, seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(10, 8, 3, mode);
    c.input_bytes = 128 << 20;
    c.seed = seed;
    c
}

#[test]
fn both_modes_complete_and_order_holds() {
    let relay = run_experiment(&small(MrMode::ServerRelay, 1)).expect("valid experiment config");
    let p2p = run_experiment(&small(MrMode::InterClient, 1)).expect("valid experiment config");
    assert!(relay.all_done && p2p.all_done);
    // The paper's headline: inter-client transfers make the reduce step
    // the fastest part.
    assert!(
        p2p.reports[0].reduce_s < relay.reports[0].reduce_s,
        "p2p {} vs relay {}",
        p2p.reports[0].reduce_s,
        relay.reports[0].reduce_s
    );
    // And BOINC-MR moves less data through the project server.
    let via_server = |out: &ExperimentOutcome| out.obs.snapshot().counter("vcore.bytes_via_server");
    assert!(via_server(&p2p) < via_server(&relay));
}

#[test]
fn phase_accounting_is_consistent() {
    let out = run_experiment(&small(MrMode::InterClient, 3)).expect("valid experiment config");
    let r = &out.reports[0];
    assert!(r.map_s > 0.0 && r.reduce_s > 0.0);
    // total covers both phases plus the transition gap.
    assert!(r.total_s >= r.map_s + r.reduce_s - 1e-9);
    // The gap exists (validation + daemon pass + backoff wake).
    let gap = r.total_s - r.map_s - r.reduce_s;
    assert!(gap >= 0.0, "gap {gap}");
}

#[test]
fn backoff_cap_increases_makespan() {
    // The §IV.B effect, demonstrated end to end: averaged over seeds,
    // a longer backoff cap cannot make the job faster.
    let avg = |cap: u64| -> f64 {
        (0..4)
            .map(|s| {
                let mut c = small(MrMode::ServerRelay, 100 + s);
                c.backoff_max_s = cap;
                run_experiment(&c).expect("valid experiment config").reports[0].total_s
            })
            .sum::<f64>()
            / 4.0
    };
    let short = avg(60);
    let long = avg(1200);
    assert!(
        long > short * 0.95,
        "long-cap runs should not be meaningfully faster: {long} vs {short}"
    );
}

#[test]
fn report_delays_are_recorded_and_bounded_by_cap() {
    let mut c = small(MrMode::ServerRelay, 9);
    c.backoff_max_s = 300;
    let out = run_experiment(&c).expect("valid experiment config");
    let delay = out.obs.snapshot().histogram("vcore.report_delay_s");
    assert!(delay.count > 0);
    // A report can never be delayed by more than one full backoff (plus
    // RPC scheduling slack).
    assert!(delay.max <= 300.0 + 30.0, "delay {} exceeds cap", delay.max);
}

#[test]
fn immediate_report_mitigation_cuts_delay() {
    let base = run_experiment(&small(MrMode::InterClient, 17)).expect("valid experiment config");
    let mut c = small(MrMode::InterClient, 17);
    c.mitigation = MitigationPlan {
        immediate_report: true,
        ..Default::default()
    };
    let fixed = run_experiment(&c).expect("valid experiment config");
    let mean_delay =
        |out: &ExperimentOutcome| out.obs.snapshot().histogram("vcore.report_delay_s").mean;
    assert!(
        mean_delay(&fixed) < mean_delay(&base),
        "immediate reporting must cut the mean report delay: {} vs {}",
        mean_delay(&fixed),
        mean_delay(&base)
    );
}

#[test]
fn concurrent_jobs_all_finish() {
    let mut c = small(MrMode::InterClient, 21);
    c.concurrent_jobs = 3;
    let out = run_experiment(&c).expect("valid experiment config");
    assert!(out.all_done);
    assert_eq!(out.reports.len(), 3);
    for r in &out.reports {
        assert!(r.total_s > 0.0);
    }
}

#[test]
fn experiments_are_bit_reproducible() {
    let a = run_experiment(&small(MrMode::InterClient, 5)).expect("valid experiment config");
    let b = run_experiment(&small(MrMode::InterClient, 5)).expect("valid experiment config");
    assert_eq!(a.reports[0].map_s, b.reports[0].map_s);
    assert_eq!(a.reports[0].reduce_s, b.reports[0].reduce_s);
    assert_eq!(a.reports[0].total_s, b.reports[0].total_s);
    for key in ["vcore.rpcs", "vcore.empty_replies"] {
        assert_eq!(a.obs.snapshot().counter(key), b.obs.snapshot().counter(key));
    }
    assert_eq!(a.finished_at, b.finished_at);
}

#[test]
fn faster_quadcore_mix_not_slower() {
    // §IV.A's second node type: quad-core pcr200 machines run four
    // tasks at once. Swapping half the fleet for them must not hurt.
    let slow = run_experiment(&small(MrMode::InterClient, 30)).expect("valid experiment config");
    let mut c = small(MrMode::InterClient, 30);
    c.nodes = NodeMix {
        pc3001: 5,
        pcr200: 5,
    };
    let mixed = run_experiment(&c).expect("valid experiment config");
    assert!(slow.all_done && mixed.all_done);
    assert!(
        mixed.reports[0].total_s <= slow.reports[0].total_s * 1.1,
        "mixed {} vs uniform {}",
        mixed.reports[0].total_s,
        slow.reports[0].total_s
    );
}

#[test]
fn assimilator_collects_every_wu_once() {
    let out_cfg = small(MrMode::InterClient, 31);
    // Re-run through the engine API to inspect the assimilator.
    use volunteer_mr::core::{MrJobConfig, MrPolicy};
    use volunteer_mr::netsim::HostLink;
    use volunteer_mr::vcore::{Engine, HostProfile, ProjectConfig};
    let mut eng = Engine::builder(out_cfg.seed)
        .config(ProjectConfig::default())
        .clients((0..10).map(|_| {
            (
                HostProfile::pc3001(),
                HostLink::symmetric_mbit(100.0, 0.000_5),
            )
        }))
        .build();
    let mut jc = MrJobConfig::paper_wordcount(8, 3, MrMode::InterClient);
    jc.input_bytes = 128 << 20;
    let mut pol = MrPolicy::new();
    pol.submit_job(&mut eng, jc);
    eng.run_until(
        &mut pol,
        volunteer_mr::desim::SimTime::from_secs(180_000),
        |e| e.db.all_wus_terminal(),
    );
    assert!(pol.all_done());
    // 8 map + 3 reduce WUs, each assimilated exactly once, in order.
    assert_eq!(eng.assimilator.len(), 11);
    assert_eq!(eng.assimilator.of_app("mr0_map").len(), 8);
    assert_eq!(eng.assimilator.of_app("mr0_red").len(), 3);
    let times: Vec<_> = eng.assimilator.all().iter().map(|r| r.at).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "validation order");
    // Every record has its quorum of holders.
    for rec in eng.assimilator.all() {
        assert_eq!(rec.holders.len(), 2);
    }
}

#[test]
fn timeline_contains_full_task_lifecycle() {
    let mut c = small(MrMode::InterClient, 7);
    c.record_timeline = true;
    let out = run_experiment(&c).expect("valid experiment config");
    let kinds: std::collections::HashSet<&str> = out
        .timeline
        .spans()
        .iter()
        .map(|s| s.mark.as_str())
        .collect();
    for k in ["download", "exec", "upload"] {
        assert!(kinds.contains(k), "missing span kind {k}");
    }
    let markers: Vec<String> = out
        .timeline
        .points()
        .iter()
        .map(|p| p.detail.to_string())
        .collect();
    for m in ["map-start", "maps-validated", "reduce-start", "job-done"] {
        assert!(markers.iter().any(|k| k == m), "missing phase marker {m}");
    }
}
