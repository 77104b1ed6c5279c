//! Quickstart: run a word-count MapReduce job three ways and check they
//! all agree.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! 1. **Oracle** — sequential in-process run.
//! 2. **Real cluster** — pull-model volunteers over loopback TCP with
//!    replication-2 quorum validation (the BOINC-MR protocol for real).
//! 3. **Simulated volunteer cloud** — the paper's testbed in the
//!    deterministic simulator, reporting phase makespans.

use std::sync::Arc;
use vmr_cluster::{run_cluster_with_obs, ClusterConfig};
use vmr_core::{run_experiment, ExperimentConfig, MrMode};
use vmr_mapreduce::apps::WordCount;
use vmr_mapreduce::{run_sequential, CorpusGen, CorpusSpec, JobSpec};

fn main() {
    // ----- a small synthetic corpus (the paper used a 1 GB text file;
    // 2 MB keeps the quickstart instant) -----
    let mut gen = CorpusGen::new(&CorpusSpec::default());
    let data = Arc::new(gen.generate(2 << 20));
    println!("corpus: {} bytes of Zipf text", data.len());

    // ----- 1. sequential oracle -----
    let oracle = run_sequential(&WordCount, &[&data[..]]);
    let total_tokens: u64 = oracle.values().sum();
    println!(
        "oracle: {} distinct words, {} tokens",
        oracle.len(),
        total_tokens
    );

    // ----- 2. real pull-model TCP cluster -----
    let cfg = ClusterConfig::new(6, JobSpec::new("wc", 8, 3));
    let obs = vmr_obs::Obs::new();
    let report = run_cluster_with_obs(Arc::new(WordCount), data.clone(), &cfg, &obs)
        .expect("the cluster job completes");
    assert_eq!(report.output, oracle, "TCP cluster must match the oracle");
    let snap = obs.snapshot();
    println!(
        "real TCP cluster: OK ({} peer fetches, {} local reads, {} fallbacks, {} map execs)",
        snap.counter("rtnet.peer_fetches"),
        snap.counter("rtnet.local_reads"),
        snap.counter("rtnet.fallback_fetches"),
        snap.counter("rtnet.map_execs"),
    );

    // ----- 3. simulated volunteer cloud (one Table I style cell) -----
    let mut sim = ExperimentConfig::table1(10, 10, 2, MrMode::InterClient);
    sim.input_bytes = 256 << 20; // 256 MB keeps the demo snappy
    let out = run_experiment(&sim).expect("valid experiment config");
    let r = &out.reports[0];
    println!(
        "simulated BOINC-MR (10 nodes, 10 maps, 2 reducers, 256 MB):\n  \
         map {:.0} s | reduce {:.0} s | total {:.0} s | {} scheduler RPCs, {} empty replies",
        r.map_s,
        r.reduce_s,
        r.total_s,
        out.obs.snapshot().counter("vcore.rpcs"),
        out.obs.snapshot().counter("vcore.empty_replies")
    );
    println!("quickstart complete: all three runtimes agree on the job");
}
