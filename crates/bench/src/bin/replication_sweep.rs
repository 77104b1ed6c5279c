//! Ablation **A4**: replication factor / quorum under byzantine
//! volunteers (§III.B's validation design).
//!
//! Cost axis: more replicas = more redundant compute + transfers.
//! Benefit axis: byzantine outputs survive only if they reach quorum.
//!
//! Usage: `cargo run -p vmr-bench --release --bin replication_sweep`

use vmr_bench::calibrated_sizing;
use vmr_bench::run_or_exit;
use vmr_core::{ExperimentConfig, MrMode};
use vmr_vcore::{ClientId, FaultPlan};

fn main() {
    let sizing = calibrated_sizing();
    println!("# A4 — replication/quorum sweep (12 nodes, 8 maps, 2 reduces, 256 MB)");
    println!(
        "{:>11} | {:>9} | {:>8} | {:>10} | {:>7}",
        "replication", "byzantine", "done", "total s", "grants"
    );
    for replication in [1u32, 2, 3] {
        for n_byz in [0usize, 2] {
            let mut cfg = ExperimentConfig::table1(12, 8, 2, MrMode::InterClient);
            cfg.sizing = sizing;
            cfg.input_bytes = 256 << 20;
            cfg.replication = replication;
            cfg.seed = 1000 + replication as u64 * 10 + n_byz as u64;
            cfg.fault = FaultPlan {
                byzantine: (0..n_byz).map(|i| ClientId(i as u32)).collect(),
                corruption_prob: 1.0,
                ..FaultPlan::default()
            };
            let out = run_or_exit(&cfg);
            let total = out.reports.first().map(|r| r.total_s).unwrap_or(f64::NAN);
            println!(
                "{:>11} | {:>9} | {:>8} | {:>10.0} | {:>7}",
                replication,
                n_byz,
                out.all_done,
                total,
                out.obs.snapshot().counter("vcore.grants")
            );
        }
    }
    println!(
        "\nShape: replication 1 is fastest but accepts byzantine outputs \
         unchecked (correctness silently lost — with quorum 1 any reply \
         validates); replication 2 (the paper's choice) detects disagreement \
         and re-issues replicas, trading time for integrity; replication 3 \
         pays more redundant work for faster conflict resolution."
    );
}
