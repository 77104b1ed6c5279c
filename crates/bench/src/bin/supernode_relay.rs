//! Ablation **A7**: who should carry relayed transfers? (§III.D)
//!
//! "In a volunteer computing environment the server could work as a
//! relay node, but that would require all map output to be sent back to
//! the project servers, thus minimizing the advantages of having
//! inter-client communication. Another possibility would be to have a
//! client fulfill that role, thus creating a supernode-based P2P
//! network."
//!
//! All volunteers sit behind symmetric NATs (worst case: every peer
//! transfer must relay); we compare relaying through the server versus
//! through 2/4/8 promoted volunteer supernodes.
//!
//! Usage: `cargo run -p vmr-bench --release --bin supernode_relay`

use vmr_bench::calibrated_sizing;
use vmr_bench::run_or_exit;
use vmr_core::{ExperimentConfig, MrMode};
use vmr_netsim::{NatMix, NatType, TraversalPolicy};

fn main() {
    let sizing = calibrated_sizing();
    println!("# A7 — relay node selection under all-symmetric NATs (16 nodes, 12 maps, 4 reduces, 512 MB)");
    println!(
        "{:<22} | {:>8} | {:>9} | {:>14} | {:>7}",
        "relay", "total s", "reduce s", "GB to server", "relayed"
    );
    for supernodes in [0usize, 2, 4, 8] {
        let mut cfg = ExperimentConfig::table1(16, 12, 4, MrMode::InterClient);
        cfg.sizing = sizing;
        cfg.input_bytes = 512 << 20;
        cfg.nat_mix = Some(NatMix::new(vec![(NatType::Symmetric, 1.0)]));
        cfg.traversal = TraversalPolicy::default();
        cfg.supernode_relays = supernodes;
        cfg.seed = 0x5003 + supernodes as u64;
        let out = run_or_exit(&cfg);
        assert!(out.all_done);
        let snap = out.obs.snapshot();
        let label = if supernodes == 0 {
            "server (TURN)".to_string()
        } else {
            format!("{supernodes} supernodes")
        };
        println!(
            "{:<22} | {:>8.0} | {:>9.0} | {:>14.2} | {:>7}",
            label,
            out.reports[0].total_s,
            out.reports[0].reduce_s,
            snap.counter("vcore.bytes_via_server") as f64 / 1e9,
            snap.counter("vcore.nat_connects{outcome=relay}"),
        );
    }
    println!(
        "\nShape: supernodes lift the relayed shuffle off the server uplink — \
         the server carries only inputs/outputs again — and spread relay \
         load across volunteer links, shortening the reduce phase. \
         (Supernodes are also directly reachable, so some transfers \
         stop needing a relay at all.)"
    );
}
