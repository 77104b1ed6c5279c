//! Property tests: the distributed pipeline must equal the sequential
//! oracle for arbitrary inputs and job geometries, and the supporting
//! primitives must hold their invariants.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;
use vmr_mapreduce::apps::{DistGrep, InvertedIndex, UrlVisits, WordCount};
use vmr_mapreduce::{
    map_grouped, run_map_task, run_reduce_task, run_sequential, split_input, HashPartitioner,
    JobSpec, MapReduceApp, Sha256,
};

/// The partitioned pipeline, one task after another: split the input,
/// map each chunk, reduce each partition over every map's slice, merge.
fn pipeline<A: MapReduceApp<K = String>>(
    app: &A,
    data: &[u8],
    job: &JobSpec,
) -> BTreeMap<String, A::V> {
    let part = HashPartitioner::new(job.n_reduces);
    let maps: Vec<_> = split_input(app, data, job.n_maps)
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

/// The kernels as they were before they shared one hashed group-by:
/// every pair inserted into a `BTreeMap`, a second `BTreeMap` on the
/// reduce side. Kept here as the model the shared group-by must equal.
mod model {
    use std::collections::BTreeMap;
    use vmr_mapreduce::{HashPartitioner, MapReduceApp};

    pub fn run_sequential<A: MapReduceApp>(app: &A, chunks: &[&[u8]]) -> BTreeMap<A::K, A::V> {
        let mut grouped: BTreeMap<A::K, Vec<A::V>> = BTreeMap::new();
        for chunk in chunks {
            app.map(chunk, &mut |k, v| grouped.entry(k).or_default().push(v));
        }
        grouped
            .into_iter()
            .map(|(k, vs)| {
                let out = app.reduce(&k, &vs);
                (k, out)
            })
            .collect()
    }

    pub fn run_map_task<A: MapReduceApp<K = String>>(
        app: &A,
        chunk: &[u8],
        part: &HashPartitioner,
    ) -> Vec<Vec<(A::K, A::V)>> {
        let mut grouped: BTreeMap<A::K, Vec<A::V>> = BTreeMap::new();
        app.map(chunk, &mut |k, v| grouped.entry(k).or_default().push(v));
        let mut partitions: Vec<Vec<(A::K, A::V)>> =
            (0..part.n_reduces()).map(|_| Vec::new()).collect();
        for (k, vs) in grouped {
            let p = part.partition_bytes(k.as_bytes());
            for v in app.combine(&k, &vs) {
                partitions[p].push((k.clone(), v));
            }
        }
        partitions
    }

    pub fn run_reduce_task<A: MapReduceApp>(
        app: &A,
        inputs: Vec<Vec<(A::K, A::V)>>,
    ) -> BTreeMap<A::K, A::V> {
        let mut grouped: BTreeMap<A::K, Vec<A::V>> = BTreeMap::new();
        for part in inputs {
            for (k, v) in part {
                grouped.entry(k).or_default().push(v);
            }
        }
        grouped
            .into_iter()
            .map(|(k, vs)| {
                let out = app.reduce(&k, &vs);
                (k, out)
            })
            .collect()
    }

    /// Each key's values, in emission order, over every chunk.
    pub fn groups<A: MapReduceApp>(app: &A, chunks: &[&[u8]]) -> Vec<(A::K, Vec<A::V>)> {
        let mut grouped: BTreeMap<A::K, Vec<A::V>> = BTreeMap::new();
        for chunk in chunks {
            app.map(chunk, &mut |k, v| grouped.entry(k).or_default().push(v));
        }
        grouped.into_iter().collect()
    }
}

/// Text made of a few repeated words, separators, tab-led document ids
/// and stray non-UTF-8 bytes, so keys repeat, lines are empty or
/// malformed, and some tokens are not UTF-8.
fn mixed_bytes_strategy() -> impl Strategy<Value = Vec<u8>> {
    const PIECES: [&[u8]; 13] = [
        b"ab",
        b"ba",
        b"cab",
        b"a",
        b" ",
        b" ",
        b"\n",
        b"\t",
        b"d1\t",
        b"d2\t",
        b"\xff",
        b"\xc3",
        b"\xc3\xa9",
    ];
    proptest::collection::vec(0..PIECES.len(), 0..120)
        .prop_map(|ix| ix.iter().flat_map(|&i| PIECES[i]).copied().collect())
}

/// Cuts `data` at the given fractions: chunks may be empty and may
/// split a token or a line (every kernel maps each chunk alone).
fn cut<'a>(data: &'a [u8], fracs: &[f64]) -> Vec<&'a [u8]> {
    let mut at: Vec<usize> = fracs
        .iter()
        .map(|f| (data.len() as f64 * f) as usize)
        .collect();
    at.sort_unstable();
    let mut chunks = Vec::new();
    let mut start = 0;
    for end in at.into_iter().chain([data.len()]) {
        chunks.push(&data[start..end]);
        start = end;
    }
    chunks
}

/// Every kernel that groups by key equals its `BTreeMap` model on
/// `chunks`: the grouped map output (values in emission order), the
/// sequential oracle, each map task's partitions and each reduce
/// task's output.
fn kernels_equal_model<A>(app: &A, chunks: &[&[u8]], n_reduces: usize) -> Result<(), TestCaseError>
where
    A: MapReduceApp<K = String>,
    A::V: PartialEq + Debug,
{
    let mut seen = Vec::new();
    let groups = map_grouped(app, chunks, &mut |k, v| seen.push((k.clone(), v.clone())));
    prop_assert_eq!(&groups, &model::groups(app, chunks));
    let mut emitted = Vec::new();
    for chunk in chunks {
        app.map(chunk, &mut |k, v| emitted.push((k, v)));
    }
    prop_assert_eq!(seen, emitted, "seen sees every pair, in emission order");
    prop_assert_eq!(
        run_sequential(app, chunks),
        model::run_sequential(app, chunks)
    );

    let part = HashPartitioner::new(n_reduces);
    let mut maps = Vec::new();
    for chunk in chunks {
        let got = run_map_task(app, chunk, &part, |k| k.as_bytes().to_vec()).partitions;
        prop_assert_eq!(&got, &model::run_map_task(app, chunk, &part));
        maps.push(got);
    }
    for p in 0..n_reduces {
        let inputs: Vec<_> = maps.iter().map(|m| m[p].clone()).collect();
        prop_assert_eq!(
            run_reduce_task(app, inputs.clone()),
            model::run_reduce_task(app, inputs)
        );
    }
    Ok(())
}

/// Arbitrary whitespace-y text.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-d]{1,6}", 0..300).prop_map(|words| words.join(" "))
}

proptest! {
    /// The shared group-by equals the `BTreeMap` kernels it replaced,
    /// for an app with a summing combiner (word count), one with the
    /// default combiner, so a key keeps many values (grep), and one
    /// whose `String` values are order-sensitive (inverted index).
    #[test]
    fn grouped_kernels_equal_btreemap_model(
        data in mixed_bytes_strategy(),
        fracs in proptest::collection::vec(0.0f64..1.0, 0..4),
        n_reduces in 1usize..4,
    ) {
        let chunks = cut(&data, &fracs);
        kernels_equal_model(&WordCount, &chunks, n_reduces)?;
        kernels_equal_model(&DistGrep::new("a"), &chunks, n_reduces)?;
        kernels_equal_model(&InvertedIndex, &chunks, n_reduces)?;
    }

    /// Word count through the partitioned task pipeline equals the
    /// oracle for any text and any geometry.
    #[test]
    fn wordcount_pipeline_equals_oracle(
        text in text_strategy(),
        n_maps in 1usize..8,
        n_reduces in 1usize..6,
    ) {
        let data = text.as_bytes().to_vec();
        let job = JobSpec::new("wc", n_maps, n_reduces);
        let out = pipeline(&WordCount, &data, &job);
        prop_assert_eq!(out, run_sequential(&WordCount, &[&data[..]]));
    }

    /// Total count conservation: the sum of all word counts equals the
    /// number of tokens, under any geometry.
    #[test]
    fn wordcount_conserves_tokens(
        text in text_strategy(),
        n_maps in 1usize..6,
        n_reduces in 1usize..6,
    ) {
        let data = text.as_bytes().to_vec();
        let job = JobSpec::new("wc", n_maps, n_reduces);
        let out = pipeline(&WordCount, &data, &job);
        let total: u64 = out.values().sum();
        let tokens = vmr_mapreduce::record::tokens(&data).count() as u64;
        prop_assert_eq!(total, tokens);
    }

    /// Every intermediate pair lands in exactly the partition its key
    /// hashes to — the §III.C invariant that lets each reducer fetch
    /// only its own slice from every mapper.
    #[test]
    fn partitioning_is_total_and_consistent(
        text in text_strategy(),
        n_reduces in 1usize..8,
    ) {
        let part = HashPartitioner::new(n_reduces);
        let mo = run_map_task(&WordCount, text.as_bytes(), &part, |k| k.as_bytes().to_vec());
        prop_assert_eq!(mo.partitions.len(), n_reduces);
        for (p, pairs) in mo.partitions.iter().enumerate() {
            for (k, _) in pairs {
                prop_assert_eq!(part.partition_bytes(k.as_bytes()), p);
            }
        }
    }

    /// Grep: reduce output counts equal raw match counts.
    #[test]
    fn grep_counts_match(
        lines in proptest::collection::vec("[a-c x]{0,12}", 0..60),
        pattern in "[a-c]",
    ) {
        let data = lines.join("\n").into_bytes();
        let app = DistGrep::new(pattern.clone());
        let part = HashPartitioner::new(3);
        let mo = run_map_task(&app, &data, &part, |k| k.as_bytes().to_vec());
        let inputs: Vec<_> = (0..3).map(|p| mo.partitions[p].clone()).collect();
        let reduced = run_reduce_task(&app, inputs);
        let expected: u64 = lines
            .iter()
            .filter(|l| !l.is_empty() && l.contains(&pattern))
            .count() as u64;
        let got: u64 = reduced.values().sum();
        prop_assert_eq!(got, expected);
    }

    /// UrlVisits conserves total bytes through the full pipeline.
    #[test]
    fn urlvisits_conserves_bytes(
        entries in proptest::collection::vec(("[a-f]{1,5}", 1u64..10_000), 0..80),
        n_maps in 1usize..5,
        n_reduces in 1usize..5,
    ) {
        let data: String = entries
            .iter()
            .map(|(u, b)| format!("/{u} {b}\n"))
            .collect();
        let job = JobSpec::new("uv", n_maps, n_reduces);
        let out = pipeline(&UrlVisits, data.as_bytes(), &job);
        let expected: u64 = entries.iter().map(|(_, b)| b).sum();
        let got: u64 = out.values().sum();
        prop_assert_eq!(got, expected);
    }

    /// SHA-256 streaming at any split equals one-shot.
    #[test]
    fn sha256_split_invariance(
        data in proptest::collection::vec(any::<u8>(), 0..400),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((data.len() as f64) * split_frac) as usize;
        let mut a = Sha256::new();
        a.update(&data);
        let mut b = Sha256::new();
        b.update(&data[..split]);
        b.update(&data[split..]);
        prop_assert_eq!(a.finalize(), b.finalize());
    }

    /// split_text tiles any input exactly.
    #[test]
    fn split_tiles_input(
        data in proptest::collection::vec(any::<u8>(), 0..2_000),
        n in 1usize..12,
    ) {
        let ranges = vmr_mapreduce::record::split_text(&data, n);
        prop_assert_eq!(ranges.len(), n);
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges.last().unwrap().end, data.len());
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }

    /// Wire codec: encode → decode is the identity on map outputs.
    #[test]
    fn codec_roundtrip(text in text_strategy()) {
        let part = HashPartitioner::new(2);
        let mo = run_map_task(&WordCount, text.as_bytes(), &part, |k| k.as_bytes().to_vec());
        for p in 0..2 {
            let enc = mo.encode_partition(&WordCount, p);
            let dec = vmr_mapreduce::decode_partition(&WordCount, &enc);
            prop_assert_eq!(&dec, &mo.partitions[p]);
        }
    }
}
