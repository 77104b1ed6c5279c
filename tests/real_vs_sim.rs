//! Fidelity bridge: the *real* runtime and the *simulated* runtime must
//! agree — on data (every executor produces the oracle's output) and on
//! volumes (the simulator's transfer sizes track the real application's
//! measured partition sizes).

use std::sync::Arc;
use volunteer_mr::cluster::{run_cluster, ClusterConfig};
use volunteer_mr::core::SizingModel;
use volunteer_mr::mapreduce::apps::{synth_log, DistGrep, InvertedIndex, UrlVisits, WordCount};
use volunteer_mr::mapreduce::{
    run_sequential, split_input, CorpusGen, CorpusSpec, HashPartitioner, JobSpec, MapReduceApp,
};

fn corpus(bytes: usize) -> Vec<u8> {
    CorpusGen::new(&CorpusSpec::default()).generate(bytes)
}

#[test]
fn tcp_cluster_equals_oracle_wordcount() {
    let data = Arc::new(corpus(300_000));
    let cfg = ClusterConfig::new(5, JobSpec::new("wc", 5, 3));
    let report = run_cluster(Arc::new(WordCount), data.clone(), &cfg).expect("job completes");
    assert_eq!(report.output, run_sequential(&WordCount, &[&data[..]]));
}

#[test]
fn tcp_cluster_equals_oracle_grep() {
    let data = Arc::new(synth_log(200_000, 200, 3));
    let app = Arc::new(DistGrep::new("/page/1"));
    let cfg = ClusterConfig::new(4, JobSpec::new("g", 4, 2));
    let report = run_cluster(app.clone(), data.clone(), &cfg).expect("job completes");
    assert_eq!(report.output, run_sequential(app.as_ref(), &[&data[..]]));
}

#[test]
fn tcp_cluster_equals_oracle_urlvisits() {
    let data = Arc::new(synth_log(200_000, 150, 5));
    let cfg = ClusterConfig::new(4, JobSpec::new("u", 3, 2));
    let report = run_cluster(Arc::new(UrlVisits), data.clone(), &cfg).expect("job completes");
    assert_eq!(report.output, run_sequential(&UrlVisits, &[&data[..]]));
}

#[test]
fn tcp_cluster_equals_oracle_invindex() {
    // doc-id \t text lines.
    let text = corpus(100_000);
    let mut log = String::new();
    for (i, line) in String::from_utf8_lossy(&text).lines().enumerate() {
        if !line.trim().is_empty() {
            log.push_str(&format!("d{i}\t{line}\n"));
        }
    }
    let data = Arc::new(log.into_bytes());
    let cfg = ClusterConfig::new(4, JobSpec::new("ix", 4, 2));
    let report = run_cluster(Arc::new(InvertedIndex), data.clone(), &cfg).expect("job completes");
    assert_eq!(report.output, run_sequential(&InvertedIndex, &[&data[..]]));
}

/// The sizing model the simulator uses is *calibrated* from the real
/// application; verify the calibrated volumes predict the real per-map
/// partition sizes within a reasonable tolerance.
#[test]
fn sizing_model_tracks_real_partition_sizes() {
    let data = corpus(1 << 20);
    let sizing = SizingModel::calibrate(&WordCount, &data[..256 << 10]);
    let n_maps = 4;
    let n_reduces = 3;
    let part = HashPartitioner::new(n_reduces);
    let ranges = split_input(&WordCount, &data, n_maps);
    let chunk_bytes = (data.len() / n_maps) as u64;
    let predicted = sizing.partition_bytes(chunk_bytes, n_reduces) as f64;
    for r in &ranges {
        for p in 0..n_reduces {
            // The paper's pipeline is combiner-less; our real map task
            // applies the word-count combiner, so the *encoded* size is
            // an under-estimate of the raw stream. Compare against the
            // raw (uncombined) stream size instead.
            let mut raw = 0usize;
            let mut line = String::new();
            WordCount.map(&data[r.clone()], &mut |k, v| {
                if part.partition_bytes(k.as_bytes()) == p {
                    line.clear();
                    WordCount.encode(&k, &v, &mut line);
                    raw += line.len();
                }
            });
            let err = (raw as f64 - predicted).abs() / predicted;
            assert!(
                err < 0.25,
                "partition size prediction off by {:.0}%: predicted {predicted}, real {raw}",
                err * 100.0
            );
        }
    }
}

/// Replication quorum on the real cluster rejects a byzantine worker's
/// corrupted partitions, matching the simulator's validator semantics.
#[test]
fn byzantine_rejected_in_both_worlds() {
    // Real cluster.
    let data = Arc::new(corpus(150_000));
    let mut cfg = ClusterConfig::new(5, JobSpec::new("wc", 3, 2));
    cfg.byzantine = vec![1];
    let report = run_cluster(Arc::new(WordCount), data.clone(), &cfg).expect("job completes");
    assert_eq!(report.output, run_sequential(&WordCount, &[&data[..]]));

    // Simulator.
    use volunteer_mr::core::{run_experiment, ExperimentConfig, MrMode};
    use volunteer_mr::vcore::{ClientId, FaultPlan};
    let mut sim = ExperimentConfig::table1(8, 4, 2, MrMode::InterClient);
    sim.input_bytes = 64 << 20;
    sim.fault = FaultPlan {
        byzantine: vec![ClientId(1)],
        corruption_prob: 1.0,
        ..FaultPlan::default()
    };
    let out = run_experiment(&sim).expect("valid experiment config");
    assert!(
        out.all_done,
        "simulated job must survive a byzantine minority"
    );
}

/// Each work unit's lifecycle as its server journaled it, work units in
/// insertion order. A work unit's own records (`WuInserted`,
/// `WuValidated`, `WuFailed`) appear in log order; between two of them,
/// each result's records appear as one line, results in creation order
/// within the work unit. Replicas of one work unit interleave by thread
/// timing in the real world and by the two-slot work request in the
/// simulated one, so only the order of their records relative to each
/// other is left out; every record is kept. Instants, client ids,
/// fingerprints and spec blobs are ignored.
fn lifecycles(wal: &[u8]) -> Vec<Vec<String>> {
    use std::collections::BTreeMap;
    use vmr_durable::StateChange as C;
    use volunteer_mr::vcore::ResultOutcome;

    /// Per result (by creation ordinal within its work unit): the kinds
    /// journaled since the work unit's last own record.
    type Open = BTreeMap<usize, Vec<String>>;

    /// Appends one line per result in `open` to `life`.
    fn flush(life: &mut Vec<String>, open: &mut Open) {
        for (ordinal, kinds) in std::mem::take(open) {
            life.push(format!("r{ordinal}: {}", kinds.join(", ")));
        }
    }

    let tail = vmr_durable::recover(wal).expect("a committed log").tail;
    // Per work unit: its lifecycle so far, and its open result lines.
    let mut wus: Vec<(Vec<String>, Open)> = Vec::new();
    let mut result_of: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
    for c in &tail {
        let (rid, kind) = match c {
            C::WuInserted { wu, .. } => {
                assert_eq!(*wu as usize, wus.len(), "dense work unit ids");
                wus.push((vec!["WuInserted".into()], Open::new()));
                continue;
            }
            C::WuValidated { wu, .. } | C::WuFailed { wu, .. } => {
                let (life, open) = &mut wus[*wu as usize];
                flush(life, open);
                let validated = matches!(c, C::WuValidated { .. });
                life.push(if validated { "WuValidated" } else { "WuFailed" }.into());
                continue;
            }
            C::ResultCreated { rid, wu } => {
                let wu = *wu as usize;
                let ordinal = result_of.values().filter(|(w, _)| *w == wu).count();
                result_of.insert(*rid, (wu, ordinal));
                (rid, "ResultCreated".to_string())
            }
            C::ResultSent { rid, .. } => (rid, "ResultSent".into()),
            C::ResultReported { rid, outcome, .. } => {
                let outcome = ResultOutcome::from_wire(*outcome).expect("a known outcome");
                (rid, format!("ResultReported({outcome:?})"))
            }
            C::ResultCancelled { rid } => (rid, "ResultCancelled".into()),
            _ => continue,
        };
        let (wu, ordinal) = result_of[rid];
        wus[wu].1.entry(ordinal).or_default().push(kind);
    }
    wus.into_iter()
        .map(|(mut life, mut open)| {
            flush(&mut life, &mut open);
            life
        })
        .collect()
}

/// ROADMAP 2's fence: the real cluster's project server and the
/// simulator's journal the same work-unit and result lifecycles for
/// the same job geometry (5 volunteers, 4 maps, 2 reduces,
/// replication 2, no faults).
#[test]
fn real_and_simulated_servers_journal_the_same_lifecycles() {
    use volunteer_mr::core::{run_experiment, ExperimentConfig, MrMode};

    let data = Arc::new(corpus(200_000));
    let cfg = ClusterConfig::new(5, JobSpec::new("wc", 4, 2));
    let real = run_cluster(Arc::new(WordCount), data.clone(), &cfg).expect("job completes");
    assert_eq!(real.output, run_sequential(&WordCount, &[&data[..]]));

    let mut sim = ExperimentConfig::table1(5, 4, 2, MrMode::InterClient);
    sim.durable = vmr_durable::DurabilityPlan::new(0.0);
    let sim = run_experiment(&sim).expect("valid experiment config");
    assert!(sim.all_done);

    let real = lifecycles(&real.wal);
    assert_eq!(real.len(), 6, "4 map and 2 reduce work units");
    assert_eq!(
        real,
        lifecycles(sim.wal.as_deref().expect("a journaled run"))
    );
}
