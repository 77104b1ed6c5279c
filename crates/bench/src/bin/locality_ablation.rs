//! Ablation **A9**: locality-aware reduce scheduling in a pull model.
//!
//! A reducer that also mapped part of the data already holds its own
//! partitions locally; preferring such volunteers sounds like a free
//! win (Hadoop schedules this way). The pull model changes the picture:
//!
//! * **Single job** — hash partitioning makes the shuffle *symmetric*:
//!   every reduce work unit needs one partition from every map, so
//!   every candidate reduce WU has the same local coverage for any
//!   holder, and candidate re-ordering cannot express affinity. The
//!   measured delta is (provably) zero — a negative result the pull
//!   model forces, and worth knowing.
//! * **Concurrent jobs** — coverage becomes asymmetric (a volunteer
//!   that mapped job 0 holds no job-1 partitions), and the preference
//!   starts steering grants toward local data.
//!
//! Usage: `cargo run -p vmr-bench --release --bin locality_ablation`

use vmr_bench::calibrated_sizing;
use vmr_bench::run_or_exit;
use vmr_core::{ExperimentConfig, MrMode};

fn main() {
    let sizing = calibrated_sizing();

    println!("# A9a — single job (symmetric shuffle): locality is a provable no-op");
    println!(
        "{:<9} | {:<9} | {:>8} | {:>8}",
        "nodes", "locality", "reduce s", "total s"
    );
    for nodes in [10usize, 20] {
        for locality in [false, true] {
            let mut cfg = ExperimentConfig::table1(nodes, nodes, 5, MrMode::InterClient);
            cfg.sizing = sizing;
            cfg.locality_scheduling = locality;
            cfg.seed = 0x10CA;
            let out = run_or_exit(&cfg);
            assert!(out.all_done);
            println!(
                "{:<9} | {:<9} | {:>8.0} | {:>8.0}",
                nodes, locality, out.reports[0].reduce_s, out.reports[0].total_s
            );
        }
    }

    println!("\n# A9b — 3 concurrent jobs (asymmetric coverage): locality steers grants");
    println!(
        "{:<9} | {:>14} | {:>14} | {:>12}",
        "locality", "mean reduce s", "fleet done s", "peer setups"
    );
    for locality in [false, true] {
        let mut cfg = ExperimentConfig::table1(15, 10, 4, MrMode::InterClient);
        cfg.sizing = sizing;
        cfg.input_bytes = 512 << 20;
        cfg.concurrent_jobs = 3;
        cfg.locality_scheduling = locality;
        cfg.seed = 0x10CB;
        let out = run_or_exit(&cfg);
        assert!(out.all_done);
        let mean_red: f64 =
            out.reports.iter().map(|r| r.reduce_s).sum::<f64>() / out.reports.len() as f64;
        let snap = out.obs.snapshot();
        let p2p_connects: u64 = ["direct", "reversal", "hole_punch", "relay"]
            .iter()
            .map(|path| snap.counter(&format!("vcore.nat_connects{{outcome={path}}}")))
            .sum();
        println!(
            "{:<9} | {:>14.0} | {:>14.0} | {:>12}",
            locality,
            mean_red,
            out.finished_at.as_secs_f64(),
            p2p_connects,
        );
    }
    println!(
        "\nShape — a *negative result* the pull model forces: all rows are\n\
         identical. Hash partitioning makes the shuffle symmetric (every\n\
         reduce WU needs one partition from every map), so every candidate\n\
         scores the same for any holder; and even with concurrent jobs,\n\
         volunteers end up mapping chunks of *all* jobs, so coverage stays\n\
         symmetric. In a pull model the scheduler picks tasks for a\n\
         volunteer — never volunteers for a task — so Hadoop-style reduce\n\
         locality needs data-aware *partitioning* (per-job volunteer pools,\n\
         range partitioning), not matchmaking preferences. The mechanism\n\
         stays in the scheduler (locality_scheduling) for workloads with\n\
         genuinely asymmetric coverage, e.g. retry tails."
    );
}
