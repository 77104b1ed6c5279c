//! A run with a dropout must be a function of its configuration.
//!
//! When a dropped host is in two or more flows at once, the engine
//! aborts them in a loop; that order decides the order of the
//! surviving downloaders' `PeerRetry` events at one instant and the
//! `FlowId`s their retries get. It used to be the iteration order of a
//! std `HashMap`, which differs between two engines in one process, so
//! the same seed gave different makespans and RPC counts (client 3
//! dropped at 562 s: finished at 697.508 s or 673.200 s, 101 or 96
//! RPCs). This sweeps the slice of dropout instants around that case,
//! where dropped hosts are mid-shuffle, and runs every configuration
//! several times.

use vmr_core::{run_experiment, ExperimentConfig, ExperimentOutcome, MrMode};
use vmr_desim::SimDuration;
use vmr_vcore::{ClientId, FaultPlan};

/// What two runs of one configuration may not disagree on.
fn fingerprint(out: &ExperimentOutcome) -> (u64, bool, [u64; 6], u64) {
    let snap = out.obs.snapshot();
    (
        out.finished_at.as_micros(),
        out.all_done,
        [
            "rpcs",
            "empty_replies",
            "grants",
            "reports",
            "peer_failures",
            "server_fallbacks",
        ]
        .map(|k| snap.counter(&format!("vcore.{k}"))),
        out.reports.first().map_or(0, |r| r.total_s.to_bits()),
    )
}

#[test]
fn dropout_runs_repeat_per_seed() {
    const REPEATS: usize = 5;
    for client in 1..5u32 {
        for dropout_s in (548..=590u64).step_by(7) {
            let mut cfg = ExperimentConfig::table1(20, 20, 5, MrMode::InterClient);
            cfg.seed = 7;
            cfg.delay_bound_s = 900.0;
            cfg.fault = FaultPlan {
                dropouts: vec![(ClientId(client), SimDuration::from_secs(dropout_s))],
                ..FaultPlan::none()
            };
            let first = fingerprint(&run_experiment(&cfg).expect("valid config"));
            for repeat in 1..REPEATS {
                let again = fingerprint(&run_experiment(&cfg).expect("valid config"));
                assert_eq!(
                    first, again,
                    "client {client} dropped at {dropout_s} s: run {repeat} differs from run 0"
                );
            }
        }
    }
}
