//! Beyond the cluster: what §III.D is about. Volunteers behind NATs and
//! firewalls, with the tiered traversal the paper proposes (direct →
//! connection reversal → hole punching → relay), byzantine volunteers,
//! and node churn — the "insecure, unreliable VC environment".
//!
//! ```text
//! cargo run --release --example internet_volunteers
//! ```

use vmr_core::{run_experiment, ExperimentConfig, ExperimentOutcome, MrMode};
use vmr_desim::SimDuration;
use vmr_netsim::{NatMix, TraversalPolicy};
use vmr_vcore::{ClientId, FaultPlan};

/// `vcore.server_fallbacks` of a finished run.
fn fallbacks(out: &ExperimentOutcome) -> u64 {
    out.obs.snapshot().counter("vcore.server_fallbacks")
}

fn main() {
    let base = || {
        let mut c = ExperimentConfig::table1(20, 16, 4, MrMode::InterClient);
        c.input_bytes = 512 << 20;
        c
    };

    // ----- 1. The testbed fiction: everyone publicly reachable -----
    let lan = run_experiment(&base()).expect("valid experiment config");
    println!(
        "all-open volunteers      : total {:>6.0} s, fallbacks {}",
        lan.reports[0].total_s,
        fallbacks(&lan)
    );

    // ----- 2. Realistic NAT mix, prototype's direct-only connects -----
    let mut cfg = base();
    cfg.nat_mix = Some(NatMix::internet_2011());
    cfg.traversal = TraversalPolicy::direct_only();
    let naive = run_experiment(&cfg).expect("valid experiment config");
    println!(
        "NAT mix, direct-only     : total {:>6.0} s, fallbacks {} (peer transfers mostly impossible)",
        naive.reports[0].total_s,
        fallbacks(&naive)
    );

    // ----- 3. Same mix with the paper's tiered traversal -----
    let mut cfg = base();
    cfg.nat_mix = Some(NatMix::internet_2011());
    cfg.traversal = TraversalPolicy::default();
    let tiered = run_experiment(&cfg).expect("valid experiment config");
    let t = &tiered.stats.traversal;
    println!(
        "NAT mix, tiered traversal: total {:>6.0} s, fallbacks {}",
        tiered.reports[0].total_s,
        fallbacks(&tiered)
    );
    println!(
        "  traversal outcomes: direct {} | reversal {} | hole-punch {} | relay {} (success rate {:.0}%)",
        t.direct,
        t.reversal,
        t.hole_punch,
        t.relay,
        t.success_rate() * 100.0
    );

    // ----- 4. Byzantine volunteers + churn under replication-2 -----
    let mut cfg = base();
    cfg.delay_bound_s = 900.0; // tight deadline so churn recovery is visible
    cfg.fault = FaultPlan {
        byzantine: vec![ClientId(3), ClientId(11)],
        corruption_prob: 0.8,
        peer_transfer_failure_prob: 0.05,
        task_error_prob: 0.02,
        dropouts: vec![(ClientId(7), SimDuration::from_secs(200))],
        ..FaultPlan::default()
    };
    let hostile = run_experiment(&cfg).expect("valid experiment config");
    println!(
        "hostile (2 byzantine, churn): done={} total {:>6.0} s, peer failures {}, fallbacks {}",
        hostile.all_done,
        hostile.reports[0].total_s,
        hostile.obs.snapshot().counter("vcore.peer_failures"),
        fallbacks(&hostile)
    );
    println!(
        "\nReplication+quorum absorbs byzantine outputs; retries and the \
         server fall-back absorb churn — the job still completes."
    );
}
