//! Real-cluster properties: for random small corpora and geometries,
//! the TCP cluster equals the oracle (fewer cases than a pure proptest
//! — each case spins up real threads and sockets).

use proptest::prelude::*;
use proptest::test_runner::{Config, TestRunner};
use std::sync::Arc;
use vmr_cluster::{run_cluster, ClusterConfig};
use vmr_mapreduce::apps::WordCount;
use vmr_mapreduce::{run_sequential, JobSpec};

/// Checks the cluster against the oracle over random geometries with
/// `n_workers` drawn from `workers`; the `byzantine` workers corrupt
/// every map output they produce.
fn equals_oracle(workers: std::ops::Range<usize>, byzantine: Vec<usize>) {
    let mut runner = TestRunner::new(Config { cases: 8 });
    runner
        .run(
            &(
                proptest::collection::vec("[a-e]{1,5}", 10..200),
                2usize..6,
                1usize..4,
                workers,
            ),
            |(words, n_maps, n_reduces, n_workers)| {
                let data = Arc::new(words.join(" ").into_bytes());
                let mut cfg = ClusterConfig::new(n_workers, JobSpec::new("wc", n_maps, n_reduces));
                cfg.replication = if n_workers >= 2 { 2 } else { 1 };
                cfg.byzantine = byzantine.clone();
                let report =
                    run_cluster(Arc::new(WordCount), data.clone(), &cfg).expect("job completes");
                let oracle = run_sequential(&WordCount, &[&data[..]]);
                prop_assert_eq!(report.output, oracle);
                Ok(())
            },
        )
        .unwrap();
}

#[test]
fn cluster_equals_oracle_random_geometries() {
    equals_oracle(2..5, Vec::new());
}

/// With at least three workers, one byzantine worker is always
/// outvoted: its replica's retry can go to a third, honest worker.
#[test]
fn byzantine_minority_equals_oracle() {
    equals_oracle(3..6, vec![0]);
}
