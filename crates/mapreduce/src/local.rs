//! Local execution: the sequential oracle and the task runners.
//!
//! * [`run_sequential`] — the correctness oracle: single-threaded,
//!   deterministic, no partitioning.
//! * [`run_map_task`] / [`run_reduce_task`] — the task-level building
//!   blocks every distributed runtime (simulated BOINC-MR, real TCP
//!   cluster) composes.
//!
//! All of them group pairs by key through one group-by,
//! `group_pairs` (and [`map_grouped`], which feeds it straight from
//! `app.map`): a hash table keyed with the seedless `Fnv1a` hasher,
//! drained into a `Vec` sorted by key. The table's own order is never
//! read, so every output is a function of the input alone.

use crate::api::{Key, MapReduceApp};
use crate::hashes::Fnv1a;
use crate::partition::HashPartitioner;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

/// Splits `data` into `n` chunks at the record boundary the app needs.
pub fn split_input<A: MapReduceApp>(app: &A, data: &[u8], n: usize) -> Vec<std::ops::Range<usize>> {
    match app.input_format() {
        crate::api::InputFormat::Tokens => crate::record::split_text(data, n),
        crate::api::InputFormat::Lines => crate::record::split_lines(data, n),
    }
}

/// Groups the pairs `feed` emits by key: one entry per distinct key,
/// sorted by key, each key's values in emission order.
fn group_pairs<K: Key, V>(feed: impl FnOnce(&mut dyn FnMut(K, V))) -> Vec<(K, Vec<V>)> {
    let mut table: HashMap<K, Vec<V>, BuildHasherDefault<Fnv1a>> = HashMap::default();
    feed(&mut |k, v| table.entry(k).or_default().push(v));
    let mut groups: Vec<(K, Vec<V>)> = table.into_iter().collect();
    // Keys are distinct, so the unstable sort is still one order.
    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    groups
}

/// Maps every chunk and groups the output by key: one entry per
/// distinct key, sorted by key, each key's values in emission order.
/// `seen` sees each pair as it is emitted.
pub fn map_grouped<A: MapReduceApp>(
    app: &A,
    chunks: &[&[u8]],
    seen: &mut dyn FnMut(&A::K, &A::V),
) -> Vec<(A::K, Vec<A::V>)> {
    group_pairs(|emit| {
        for chunk in chunks {
            app.map(chunk, &mut |k, v| {
                seen(&k, &v);
                emit(k, v);
            });
        }
    })
}

/// Runs the whole job single-threaded without partitioning; the output
/// is the ground truth other executors are checked against.
pub fn run_sequential<A: MapReduceApp>(app: &A, chunks: &[&[u8]]) -> BTreeMap<A::K, A::V> {
    map_grouped(app, chunks, &mut |_, _| {})
        .into_iter()
        .map(|(k, vs)| {
            let out = app.reduce(&k, &vs);
            (k, out)
        })
        .collect()
}

/// Output of one map task: intermediate pairs bucketed by reduce
/// partition, with the combiner already applied per key.
pub struct MapOutput<A: MapReduceApp> {
    /// `partitions[p]` holds the pairs reducer `p` will consume, sorted
    /// by key for determinism.
    pub partitions: Vec<Vec<(A::K, A::V)>>,
}

impl<A: MapReduceApp> MapOutput<A> {
    /// Renders partition `p` in the app's line format (what actually
    /// crosses the wire in the real runtime).
    pub fn encode_partition(&self, app: &A, p: usize) -> String {
        let mut s = String::new();
        for (k, v) in &self.partitions[p] {
            app.encode(k, v, &mut s);
        }
        s
    }
}

/// Executes one map task over `chunk`, partitioning by `part`.
pub fn run_map_task<A: MapReduceApp>(
    app: &A,
    chunk: &[u8],
    part: &HashPartitioner,
    key_bytes: impl Fn(&A::K) -> Vec<u8>,
) -> MapOutput<A> {
    // Group within the task so the combiner sees all local values.
    let mut partitions: Vec<Vec<(A::K, A::V)>> =
        (0..part.n_reduces()).map(|_| Vec::new()).collect();
    for (k, vs) in map_grouped(app, &[chunk], &mut |_, _| {}) {
        let p = part.partition_bytes(&key_bytes(&k));
        for v in app.combine(&k, &vs) {
            partitions[p].push((k.clone(), v));
        }
    }
    MapOutput { partitions }
}

/// Parses an encoded partition back into pairs (the receiving side of
/// an inter-client transfer).
pub fn decode_partition<A: MapReduceApp>(app: &A, text: &str) -> Vec<(A::K, A::V)> {
    text.lines().filter_map(|l| app.decode(l)).collect()
}

/// Executes one reduce task over its partition slice from every map.
pub fn run_reduce_task<A: MapReduceApp>(
    app: &A,
    inputs: Vec<Vec<(A::K, A::V)>>,
) -> BTreeMap<A::K, A::V> {
    group_pairs(|emit| {
        for (k, v) in inputs.into_iter().flatten() {
            emit(k, v);
        }
    })
    .into_iter()
    .map(|(k, vs)| {
        let out = app.reduce(&k, &vs);
        (k, out)
    })
    .collect()
}

/// The full partitioned pipeline, one task after another: split the
/// input into `job.n_maps` chunks, map each, reduce each partition over
/// every map's slice, merge. String keys only (the canonical wire form).
#[cfg(test)]
pub(crate) fn run_pipeline<A: MapReduceApp<K = String>>(
    app: &A,
    data: &[u8],
    job: &crate::api::JobSpec,
) -> BTreeMap<A::K, A::V> {
    let part = HashPartitioner::new(job.n_reduces);
    let maps: Vec<MapOutput<A>> = split_input(app, data, job.n_maps)
        .into_iter()
        .map(|r| run_map_task(app, &data[r], &part, |k| k.as_bytes().to_vec()))
        .collect();
    let mut merged = BTreeMap::new();
    for p in 0..job.n_reduces {
        let inputs = maps.iter().map(|m| m.partitions[p].clone()).collect();
        merged.extend(run_reduce_task(app, inputs));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::JobSpec;
    use crate::apps::wordcount::WordCount;

    const TEXT: &[u8] = b"the quick brown fox jumps over the lazy dog the end";

    #[test]
    fn sequential_counts_are_right() {
        let out = run_sequential(&WordCount, &[TEXT]);
        assert_eq!(out["the"], 3);
        assert_eq!(out["fox"], 1);
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn map_task_partitions_cover_all_pairs() {
        let part = HashPartitioner::new(3);
        let mo = run_map_task(&WordCount, TEXT, &part, |k| k.as_bytes().to_vec());
        let total: usize = mo.partitions.iter().map(Vec::len).sum();
        // Combiner collapses the three "the"s into one pair.
        assert_eq!(total, 9);
        // All copies of a key are in exactly one partition.
        for p in &mo.partitions {
            for (k, _) in p {
                assert_eq!(
                    part.partition_bytes(k.as_bytes()),
                    mo.partitions
                        .iter()
                        .position(|q| std::ptr::eq(q, p))
                        .unwrap()
                );
            }
        }
    }

    #[test]
    fn task_pipeline_equals_oracle() {
        let job = JobSpec::new("wc", 3, 4);
        let out = run_pipeline(&WordCount, TEXT, &job);
        assert_eq!(out, run_sequential(&WordCount, &[TEXT]));
    }

    /// More map tasks than reduce partitions, on an input large enough
    /// that every map task emits into every partition.
    #[test]
    fn parallel_equals_oracle() {
        let data = TEXT.repeat(200);
        let job = JobSpec::new("wc", 8, 3);
        let out = run_pipeline(&WordCount, &data, &job);
        assert_eq!(out, run_sequential(&WordCount, &[&data[..]]));
    }

    #[test]
    fn encode_decode_partition_roundtrip() {
        let part = HashPartitioner::new(2);
        let mo = run_map_task(&WordCount, TEXT, &part, |k| k.as_bytes().to_vec());
        let text = mo.encode_partition(&WordCount, 0);
        let decoded = decode_partition(&WordCount, &text);
        assert_eq!(decoded, mo.partitions[0]);
    }

    #[test]
    fn single_thread_single_partition() {
        let job = JobSpec::new("wc", 1, 1);
        let out = run_pipeline(&WordCount, TEXT, &job);
        assert_eq!(out, run_sequential(&WordCount, &[TEXT]));
    }
}
