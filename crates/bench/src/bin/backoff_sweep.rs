//! Ablation **A1**: sweep the exponential-backoff cap (§IV.B).
//!
//! The paper identifies the 600 s cap as the source of both the in-phase
//! straggler and the map→reduce transition gap. This sweep quantifies
//! that: total makespan and mean report delay versus the cap.
//!
//! Usage: `cargo run -p vmr-bench --release --bin backoff_sweep`

use vmr_bench::{calibrated_sizing, report, run_or_exit};
use vmr_core::{ExperimentConfig, MrMode};

fn main() {
    let sizing = calibrated_sizing();
    println!("# A1 — backoff cap sweep (20 nodes, 20 maps, 5 reduces, BOINC mode)");
    println!(
        "{:>9} | {:>8} | {:>8} | {:>8} | {:>12} | {:>9} | {:>9}",
        "cap s", "map s", "reduce s", "total s", "mean delay s", "p95 s", "empties"
    );
    for cap in [60u64, 120, 300, 600, 1200, 2400] {
        // Average over three seeds to smooth jitter.
        let mut tm = 0.0;
        let mut tr = 0.0;
        let mut tt = 0.0;
        let mut delay = 0.0;
        let mut p95 = 0.0f64;
        let mut empties = 0u64;
        const SEEDS: [u64; 3] = [11, 22, 33];
        for seed in SEEDS {
            let mut cfg = ExperimentConfig::table1(20, 20, 5, MrMode::ServerRelay);
            cfg.sizing = sizing;
            cfg.backoff_max_s = cap;
            cfg.seed = seed;
            let out = run_or_exit(&cfg);
            assert!(out.all_done);
            let r = &out.reports[0];
            tm += r.map_s;
            tr += r.reduce_s;
            tt += r.total_s;
            let d = report::report_delay(&out);
            delay += d.mean;
            p95 = p95.max(d.p95);
            empties += out.obs.snapshot().counter("vcore.empty_replies");
        }
        let n = SEEDS.len() as f64;
        println!(
            "{:>9} | {:>8.0} | {:>8.0} | {:>8.0} | {:>12.1} | {:>9.0} | {:>9}",
            cap,
            tm / n,
            tr / n,
            tt / n,
            delay / n,
            p95,
            empties / SEEDS.len() as u64
        );
    }
    println!(
        "\nShape: larger caps inflate the report delay and the phase-transition \
         gap; small caps trade that for more scheduler traffic (empties)."
    );
}
