//! The Baseline shuffle strategy against the recorded runs of the
//! transfer path it was extracted from.
//!
//! The engine used to carry that path as a verbatim twin of the
//! strategy-driven one, and this test compared the two live. The twin
//! is gone; what it produced is not. `golden/shuffle_fingerprints.txt`
//! holds, recorded through the twin at the last commit that had it,
//! the fingerprint of the six configurations this test samples — both transfer modes, with
//! and without byzantine hosts, dropouts and 30 % flaky peer transfers:
//! the Table I row, phase-time f64 bits, engine counters, the
//! `shuffle.*` byte counters, the simulated finish time, and the full
//! WAL byte stream (as length + SHA-256). Baseline must reproduce every
//! line.
//!
//! Full experiment runs are too slow for the default 256-case budget,
//! so this drives the property runner directly with a small budget;
//! the runner's seed is fixed — `PROPTEST_SEED` and `PROPTEST_CASES`
//! do not apply to a replay of recorded runs — so the sampled
//! configurations are the same on every run (each golden line carries
//! its configuration, so a sampler change fails loudly instead of
//! silently moving coverage).

use proptest::prelude::*;
use proptest::test_runner::{Config, TestCaseError, TestRunner, DEFAULT_SEED};
use std::cell::Cell;
use vmr_core::{format_row, run_experiment, ExperimentConfig, ExperimentOutcome, MrMode};
use vmr_desim::SimDuration;
use vmr_durable::DurabilityPlan;
use vmr_mapreduce::hashes::{sha256, to_hex};
use vmr_vcore::{ClientId, FaultPlan};

/// Everything an outcome can disagree on, as one recorded line.
fn fingerprint(out: &ExperimentOutcome, nodes: usize) -> String {
    let r = &out.reports[0];
    let snap = out.obs.snapshot();
    let vcore = |k: &str| snap.counter(&format!("vcore.{k}"));
    let wal = out.wal.as_ref().expect("durable run must carry a WAL");
    format!(
        "row={:?} map_bits={} reduce_bits={} total_bits={} rpcs={} empty_replies={} grants={} \
         reports={} peer_failures={} server_fallbacks={} bytes_p2p={} bytes_server_fallback={} \
         finished_at_us={} all_done={} wal_len={} wal_sha256={}",
        format_row(nodes, 3, 2, r),
        r.map_s.to_bits(),
        r.reduce_s.to_bits(),
        r.total_s.to_bits(),
        vcore("rpcs"),
        vcore("empty_replies"),
        vcore("grants"),
        vcore("reports"),
        vcore("peer_failures"),
        vcore("server_fallbacks"),
        snap.counter("shuffle.bytes_p2p"),
        snap.counter("shuffle.bytes_server_fallback"),
        out.finished_at.as_micros(),
        out.all_done,
        wal.len(),
        to_hex(&sha256(wal)),
    )
}

#[test]
fn baseline_strategy_reproduces_recorded_legacy_runs() {
    let want: Vec<&str> = include_str!("golden/shuffle_fingerprints.txt")
        .lines()
        .collect();
    let case = Cell::new(0usize);
    let mut runner = TestRunner::with_seed(Config { cases: 6 }, DEFAULT_SEED);
    let strat = (
        any::<u64>(),  // experiment seed
        4usize..7,     // volunteer nodes
        any::<bool>(), // inter-client vs server relay
        any::<bool>(), // inject byzantine + dropout + flaky transfers
        60u64..900,    // dropout arming time
    );
    runner
        .run(&strat, |(seed, nodes, interclient, faulty, dropout_s)| {
            let mode = if interclient {
                MrMode::InterClient
            } else {
                MrMode::ServerRelay
            };
            let mut cfg = ExperimentConfig::table1(nodes, 3, 2, mode);
            cfg.seed = seed;
            cfg.input_bytes = 8 << 20;
            // Journal every run so the WAL byte streams are compared too.
            cfg.durable = DurabilityPlan::new(120.0);
            if faulty {
                cfg.fault = FaultPlan {
                    byzantine: vec![ClientId((seed % nodes as u64) as u32)],
                    corruption_prob: 1.0,
                    // Flaky transfers exercise retry + server fallback.
                    peer_transfer_failure_prob: 0.3,
                    dropouts: vec![(
                        ClientId(((seed >> 8) % nodes as u64) as u32),
                        SimDuration::from_secs(dropout_s),
                    )],
                    ..FaultPlan::none()
                };
            }
            let got = format!(
                "seed={seed:#018x} nodes={nodes} interclient={interclient} faulty={faulty} \
                 dropout_s={dropout_s} -> {}",
                fingerprint(&run_experiment(&cfg).expect("valid config"), nodes)
            );
            let i = case.replace(case.get() + 1);
            if want.get(i) != Some(&got.as_str()) {
                return Err(TestCaseError::fail(format!(
                    "case {i} diverged from the recorded legacy-path run:\n got {got}\nwant {}",
                    want.get(i).unwrap_or(&"<no such line>"),
                )));
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(case.get(), want.len(), "sampled case count moved");
}
