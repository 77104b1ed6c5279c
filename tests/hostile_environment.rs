//! Integration: the "insecure, unreliable VC environment" the paper
//! targets — NAT populations, churn, transfer faults — end to end.

use volunteer_mr::core::{run_experiment, ExperimentConfig, ExperimentOutcome, MrMode};
use volunteer_mr::desim::SimDuration;
use volunteer_mr::netsim::{NatMix, NatType, TraversalPolicy};
use volunteer_mr::vcore::{ClientId, FaultPlan};

fn base(seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::table1(12, 8, 3, MrMode::InterClient);
    c.input_bytes = 128 << 20;
    c.seed = seed;
    c
}

/// Peer connections that succeeded, over every traversal path.
fn p2p_connects(out: &ExperimentOutcome) -> u64 {
    let snap = out.obs.snapshot();
    ["direct", "reversal", "hole_punch", "relay"]
        .iter()
        .map(|path| snap.counter(&format!("vcore.nat_connects{{outcome={path}}}")))
        .sum()
}

#[test]
fn nat_mix_with_tiered_traversal_completes_p2p() {
    let mut c = base(2);
    c.nat_mix = Some(NatMix::internet_2011());
    c.traversal = TraversalPolicy::default();
    let out = run_experiment(&c).expect("valid experiment config");
    assert!(out.all_done);
    assert_eq!(
        out.obs.snapshot().counter("vcore.server_fallbacks"),
        0,
        "tiered traversal keeps transfers p2p"
    );
    assert!(p2p_connects(&out) > 0);
}

#[test]
fn nat_mix_direct_only_falls_back_to_server() {
    // The prototype's limitation: without traversal, NATed mappers are
    // unreachable and reducers fall back to the data server.
    let mut c = base(2);
    c.nat_mix = Some(NatMix::new(vec![(NatType::PortRestricted, 1.0)]));
    c.traversal = TraversalPolicy::direct_only();
    let out = run_experiment(&c).expect("valid experiment config");
    assert!(out.all_done, "fall-back must keep the job alive");
    assert!(out.obs.snapshot().counter("vcore.server_fallbacks") > 0);
    assert_eq!(p2p_connects(&out), 0);
}

#[test]
fn relay_paths_carry_data_through_server() {
    // All-symmetric population: hole punching ~never works; the tiered
    // policy ends at relay, which routes bytes through the server host.
    let mut c = base(4);
    c.nat_mix = Some(NatMix::new(vec![(NatType::Symmetric, 1.0)]));
    c.traversal = TraversalPolicy::default();
    let out = run_experiment(&c).expect("valid experiment config");
    assert!(out.all_done);
    let snap = out.obs.snapshot();
    assert!(
        snap.counter("vcore.nat_connects{outcome=relay}") > 0,
        "symmetric NATs must relay: {}",
        snap.to_json()
    );
}

#[test]
fn churn_recovers_via_timeout_and_retry() {
    let mut c = base(6);
    c.delay_bound_s = 600.0;
    c.fault = FaultPlan {
        dropouts: vec![
            (ClientId(0), SimDuration::from_secs(120)),
            (ClientId(5), SimDuration::from_secs(300)),
        ],
        ..FaultPlan::default()
    };
    let out = run_experiment(&c).expect("valid experiment config");
    assert!(out.all_done, "job must survive two dropouts");
}

#[test]
fn transient_peer_faults_are_retried() {
    let mut c = base(8);
    c.fault = FaultPlan {
        peer_transfer_failure_prob: 0.3,
        ..FaultPlan::default()
    };
    let out = run_experiment(&c).expect("valid experiment config");
    assert!(out.all_done);
    assert!(
        out.obs.snapshot().counter("vcore.peer_failures") > 0,
        "faults must actually fire"
    );
}

#[test]
fn task_errors_trigger_reissue() {
    let mut c = base(10);
    c.fault = FaultPlan {
        task_error_prob: 0.15,
        ..FaultPlan::default()
    };
    let out = run_experiment(&c).expect("valid experiment config");
    assert!(out.all_done);
    // Errors force extra grants beyond the 2×(maps+reduces) baseline.
    let baseline = 2 * (8 + 3) as u64;
    let grants = out.obs.snapshot().counter("vcore.grants");
    assert!(
        grants > baseline,
        "expected reissues: grants {grants} <= baseline {baseline}"
    );
}

#[test]
fn everything_at_once() {
    // NATs + churn + byzantine + flaky transfers, all together.
    let mut c = base(12);
    c.delay_bound_s = 900.0;
    c.nat_mix = Some(NatMix::internet_2011());
    c.traversal = TraversalPolicy::default();
    c.fault = FaultPlan {
        byzantine: vec![ClientId(2)],
        corruption_prob: 0.7,
        peer_transfer_failure_prob: 0.1,
        task_error_prob: 0.05,
        dropouts: vec![(ClientId(9), SimDuration::from_secs(400))],
        ..FaultPlan::default()
    };
    let out = run_experiment(&c).expect("valid experiment config");
    assert!(
        out.all_done,
        "the full hostile scenario must still complete"
    );
}
