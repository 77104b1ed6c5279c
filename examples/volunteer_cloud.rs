//! Volunteer cloud scenario: the paper's full 1 GB word-count run on a
//! simulated 20-node testbed — both systems of Table I side by side,
//! plus the per-node timeline that exposes the backoff straggler.
//!
//! ```text
//! cargo run --release --example volunteer_cloud
//! ```

use vmr_core::{run_experiment, ExperimentConfig, MrMode};

fn main() {
    println!("=== 1 GB word count, 20 volunteers, 20 map WUs, 5 reduce WUs ===\n");
    for mode in [MrMode::ServerRelay, MrMode::InterClient] {
        let mut cfg = ExperimentConfig::table1(20, 20, 5, mode);
        cfg.record_timeline = true;
        let out = run_experiment(&cfg).expect("valid experiment config");
        assert!(out.all_done);
        let r = &out.reports[0];
        println!("--- {mode} ---");
        println!(
            "map {:>5.0} s   reduce {:>5.0} s   total {:>6.0} s",
            r.map_s, r.reduce_s, r.total_s
        );
        if let (Some(m), Some(t)) = (r.map_no_slowest_s, r.total_no_slowest_s) {
            println!("without the slowest node: map {m:.0} s, total {t:.0} s");
        }
        let snap = out.obs.snapshot();
        println!(
            "scheduler RPCs {:>5}   empty replies {:>4}   mean report delay {:>5.1} s",
            snap.counter("vcore.rpcs"),
            snap.counter("vcore.empty_replies"),
            snap.histogram("vcore.report_delay_s").mean
        );
        let setups: u64 = ["direct", "reversal", "hole_punch", "relay"]
            .iter()
            .map(|path| snap.counter(&format!("vcore.nat_connects{{outcome={path}}}")))
            .sum();
        println!(
            "bytes through server {:.2} GB   peer-transfer setups {}",
            snap.counter("vcore.bytes_via_server") as f64 / 1e9,
            setups,
        );
        // A condensed per-node view of the run (d=download, e=exec,
        // u=upload; lanes are volunteers).
        println!("\nper-node activity (first 8 lanes):");
        let art = out.timeline.render_ascii(100);
        for line in art.lines().filter(|l| l.starts_with("node-")).take(8) {
            println!("  {line}");
        }
        println!();
    }
    println!(
        "Shape check (paper, Table I): BOINC-MR's reduce phase is the fastest \
         because reducers pull map outputs from the volunteers directly \
         instead of hammering the project server."
    );
}
