//! Two more MapReduce workloads through the real TCP cluster:
//! distributed grep over a synthetic access log, and per-URL byte
//! aggregation — the classic companions to word count, exercising the
//! line-oriented input path and non-unit values.
//!
//! ```text
//! cargo run --release --example grep_logs
//! ```

use std::sync::Arc;
use vmr_cluster::{run_cluster, ClusterConfig};
use vmr_mapreduce::apps::{pi_estimate, pi_input, synth_log, DistGrep, MonteCarloPi, UrlVisits};
use vmr_mapreduce::{run_sequential, JobSpec};

fn main() {
    let log = Arc::new(synth_log(1 << 20, 400, 7));
    println!("synthetic access log: {} bytes", log.len());

    // ----- distributed grep -----
    let app = Arc::new(DistGrep::new("/page/3"));
    let cfg = ClusterConfig::new(5, JobSpec::new("grep", 6, 2));
    let report = run_cluster(app.clone(), log.clone(), &cfg).expect("the cluster job completes");
    let oracle = run_sequential(app.as_ref(), &[&log[..]]);
    assert_eq!(report.output, oracle);
    let matches: u64 = report.output.values().sum();
    println!(
        "grep '/page/3': {} distinct matching lines, {} total occurrences — TCP cluster == oracle",
        report.output.len(),
        matches
    );

    // ----- per-URL byte aggregation -----
    let app = Arc::new(UrlVisits);
    let cfg = ClusterConfig::new(5, JobSpec::new("uv", 4, 2));
    let report = run_cluster(app.clone(), log.clone(), &cfg).expect("the cluster job completes");
    let oracle = run_sequential(app.as_ref(), &[&log[..]]);
    assert_eq!(report.output, oracle);
    let mut top: Vec<(&String, &u64)> = report.output.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1));
    println!("\ntop URLs by bytes served (validated by replication-2 quorum):");
    for (url, bytes) in top.iter().take(5) {
        println!("  {url:<12} {bytes:>12} bytes");
    }
    println!(
        "\n{} URLs aggregated — TCP cluster == oracle",
        report.output.len()
    );

    // ----- Monte-Carlo π: classic volunteer computing as MapReduce -----
    let input = Arc::new(pi_input(24, 100_000, 1));
    let cfg = ClusterConfig::new(5, JobSpec::new("pi", 6, 1));
    let report = run_cluster(Arc::new(MonteCarloPi), input.clone(), &cfg)
        .expect("the cluster job completes");
    let oracle = run_sequential(&MonteCarloPi, &[&input[..]]);
    assert_eq!(report.output, oracle);
    let pi = pi_estimate(&report.output).unwrap();
    println!(
        "\nMonte-Carlo π over the TCP cluster: {pi:.5} from {} samples \
         (replication-2 quorum agreed bit-for-bit)",
        report.output["total"]
    );
}
