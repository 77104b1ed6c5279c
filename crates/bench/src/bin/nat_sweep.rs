//! Ablation **A5**: NAT population × traversal policy (§III.D).
//!
//! The paper's tiered proposal — direct, connection reversal, TCP hole
//! punching, relay — against the prototype's direct-only connects and a
//! relay-only strawman, over increasingly hostile NAT mixes.
//!
//! Usage: `cargo run -p vmr-bench --release --bin nat_sweep`

use vmr_bench::calibrated_sizing;
use vmr_bench::run_or_exit;
use vmr_core::{ExperimentConfig, MrMode};
use vmr_netsim::{NatMix, NatType, TraversalPolicy};

fn main() {
    let sizing = calibrated_sizing();
    let mixes: Vec<(&str, Option<NatMix>)> = vec![
        ("all-open (Emulab)", None),
        ("internet 2011 mix", Some(NatMix::internet_2011())),
        (
            "hostile (70% sym/blocked)",
            Some(NatMix::new(vec![
                (NatType::Open, 0.05),
                (NatType::PortRestricted, 0.25),
                (NatType::Symmetric, 0.45),
                (NatType::BlockedInbound, 0.25),
            ])),
        ),
    ];
    let policies: Vec<(&str, TraversalPolicy)> = vec![
        ("direct-only (prototype)", TraversalPolicy::direct_only()),
        ("direct+relay", TraversalPolicy::direct_or_relay()),
        ("tiered (paper §III.D)", TraversalPolicy::default()),
    ];
    println!("# A5 — NAT mix × traversal policy (16 nodes, 12 maps, 4 reduces, 512 MB, BOINC-MR)");
    println!(
        "{:<26} | {:<24} | {:>8} | {:>9} | {:>10} | {:>26}",
        "population", "policy", "total s", "fallbacks", "p2p OK", "paths d/r/h/relay"
    );
    for (mix_name, mix) in &mixes {
        for (pol_name, pol) in &policies {
            let mut cfg = ExperimentConfig::table1(16, 12, 4, MrMode::InterClient);
            cfg.sizing = sizing;
            cfg.input_bytes = 512 << 20;
            cfg.nat_mix = mix.clone();
            cfg.traversal = pol.clone();
            cfg.seed = 0xAA7;
            let out = run_or_exit(&cfg);
            assert!(out.all_done);
            let snap = out.obs.snapshot();
            let [direct, reversal, hole_punch, relay] =
                ["direct", "reversal", "hole_punch", "relay"]
                    .map(|path| snap.counter(&format!("vcore.nat_connects{{outcome={path}}}")));
            println!(
                "{:<26} | {:<24} | {:>8.0} | {:>9} | {:>10} | {:>6}/{}/{}/{}",
                mix_name,
                pol_name,
                out.reports[0].total_s,
                snap.counter("vcore.server_fallbacks"),
                direct + reversal + hole_punch + relay,
                direct,
                reversal,
                hole_punch,
                relay
            );
        }
    }
    println!(
        "\nShape: direct-only degenerates to the server fall-back as soon as \
         volunteers sit behind NATs (the prototype's limitation); the tiered \
         policy keeps transfers peer-to-peer, leaning on relay only for the \
         symmetric/blocked tail."
    );
}
