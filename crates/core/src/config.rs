//! BOINC-MR job configuration — the model-side equivalent of the
//! paper's `mr_jobtracker.xml` ("a general configuration file … used to
//! specify MapReduce parameters, such as number of mappers and
//! reducers").

use serde::{Deserialize, Serialize};
use vmr_durable::{Dec, Enc, WireError};
use vmr_mapreduce::{map_grouped, JobSpec, MapReduceApp};
pub use vmr_vcore::population::{GeneratedHost, HostPopulation, PopulationSpec, VolunteerClass};

/// How reduce tasks obtain their map-output inputs (the two systems
/// Table I compares).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MrMode {
    /// Plain BOINC clients: every byte relays through the project data
    /// server ("this option is nowhere near optimal since all data must
    /// go through the server").
    ServerRelay,
    /// BOINC-MR clients: reducers download map outputs straight from
    /// the mappers over TCP, with server fall-back.
    InterClient,
}

impl std::fmt::Display for MrMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MrMode::ServerRelay => f.write_str("BOINC"),
            MrMode::InterClient => f.write_str("BOINC-MR"),
        }
    }
}

// The paper's prototype parses text word by word through BOINC's C
// API; ~1.5 MB/s on the P4 Xeon reproduces its phase lengths (map:
// tokenize + hash + write ~1.4× output; reduce: parse + accumulate,
// roughly 3× cheaper).
/// FLOPs charged per input byte mapped (text scanning + hashing).
pub const MAP_FLOPS_PER_BYTE: f64 = 1000.0;
/// FLOPs charged per intermediate byte reduced.
pub const REDUCE_FLOPS_PER_BYTE: f64 = 150.0;

/// Byte-size model of a MapReduce job on a given application, used to
/// parameterize the timing simulation. Calibrated by actually running
/// the app's map function on a corpus sample (see
/// [`SizingModel::calibrate`]), so the simulated transfer volumes track
/// the real data volumes. The compute cost per byte is the paper's
/// word count's ([`MAP_FLOPS_PER_BYTE`], [`REDUCE_FLOPS_PER_BYTE`]).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SizingModel {
    /// map_output_bytes ≈ input_bytes × expansion.
    pub expansion: f64,
    /// Total final-output bytes across all reducers. Word-count output
    /// is *vocabulary*-bound, not input-bound, so this is an absolute
    /// size rather than an input fraction.
    pub reduce_output_total_bytes: u64,
}

impl Default for SizingModel {
    fn default() -> Self {
        // Word-count-like defaults; `calibrate` refines the data ratios.
        SizingModel {
            expansion: 1.3,
            reduce_output_total_bytes: 800 << 10,
        }
    }
}

impl SizingModel {
    /// Measures `expansion` and `reduce_output_total_bytes` by running
    /// the app's real map/reduce over `sample`. This ties the
    /// simulator's transfer volumes to the actual application data.
    pub fn calibrate<A>(app: &A, sample: &[u8]) -> Self
    where
        A: MapReduceApp<K = String>,
    {
        // The paper's pipeline has no combiner (one line per word), so
        // expansion is measured against the *uncombined* stream, pair
        // by pair as the one map pass emits it.
        let mut raw_bytes = 0usize;
        let mut line = String::new();
        let groups = map_grouped(app, &[sample], &mut |k, v| {
            line.clear();
            app.encode(k, v, &mut line);
            raw_bytes += line.len();
        });
        // What one map task and one reduce task over a single partition
        // would write: each key's combined values, reduced.
        let mut out_bytes = 0usize;
        for (k, vs) in &groups {
            line.clear();
            app.encode(k, &app.reduce(k, &app.combine(k, vs)), &mut line);
            out_bytes += line.len();
        }
        let n = sample.len().max(1) as f64;
        SizingModel {
            expansion: raw_bytes as f64 / n,
            // The sample sees most of the vocabulary (Zipf); pad for
            // the unseen tail.
            reduce_output_total_bytes: (out_bytes as f64 * 1.5) as u64,
        }
    }

    /// Bytes of one map task's full output for a chunk of `chunk` bytes.
    pub fn map_output_bytes(&self, chunk: u64) -> u64 {
        (chunk as f64 * self.expansion) as u64
    }

    /// Bytes of one (map, partition) intermediate file.
    pub fn partition_bytes(&self, chunk: u64, n_reduces: usize) -> u64 {
        self.map_output_bytes(chunk) / n_reduces.max(1) as u64
    }

    /// Bytes of one reduce task's final output.
    pub fn reduce_output_bytes(&self, _input_total: u64, n_reduces: usize) -> u64 {
        (self.reduce_output_total_bytes / n_reduces.max(1) as u64).max(1)
    }

    /// FLOPs of a map task over `chunk` bytes.
    pub fn map_flops(&self, chunk: u64) -> f64 {
        chunk as f64 * MAP_FLOPS_PER_BYTE
    }

    /// FLOPs of a reduce task over `bytes` of intermediate data.
    pub fn reduce_flops(&self, bytes: u64) -> f64 {
        bytes as f64 * REDUCE_FLOPS_PER_BYTE
    }
}

/// Full description of one MapReduce job submitted to the project.
#[derive(Clone, Debug)]
pub struct MrJobConfig {
    /// Job geometry (maps, reduces).
    pub job: JobSpec,
    /// Total initial input bytes (the paper's 1 GB).
    pub input_bytes: u64,
    /// Replication per work unit (paper: 2).
    pub replication: u32,
    /// Quorum of identical outputs (paper: 2).
    pub quorum: u32,
    /// Transfer mode (the Table I comparison axis).
    pub mode: MrMode,
    /// Data/compute sizing.
    pub sizing: SizingModel,
    /// Whether BOINC-MR mappers also return outputs to the server (v1
    /// prototype behaviour: required for the server fall-back path).
    pub map_outputs_to_server: bool,
    /// §IV.C intermediate data downloads: reducers prefetch map
    /// outputs while the map phase still runs, so at reduce start only
    /// the partitions of the *last-validated* map remain to fetch.
    /// (Approximation: the shuffle overlap leaves only the
    /// critical-path tail.)
    pub intermediate_downloads: bool,
    /// Report deadline per result, seconds (BOINC `delay_bound`).
    pub delay_bound_s: f64,
}

impl MrJobConfig {
    /// The paper's word-count setup: 1 GB input, replication 2/quorum 2.
    pub fn paper_wordcount(n_maps: usize, n_reduces: usize, mode: MrMode) -> Self {
        MrJobConfig {
            job: JobSpec::new("mr0", n_maps, n_reduces),
            input_bytes: 1 << 30,
            replication: 2,
            quorum: 2,
            mode,
            sizing: SizingModel::default(),
            map_outputs_to_server: true,
            intermediate_downloads: false,
            delay_bound_s: 6.0 * 3600.0,
        }
    }

    /// Bytes of one map input chunk.
    pub fn chunk_bytes(&self) -> u64 {
        self.input_bytes / self.job.n_maps as u64
    }

    /// Encodes the full config through the WAL wire codec (the opaque
    /// `cfg` blob of `StateChange::MrJobSubmitted`).
    pub fn encode(&self, e: &mut Enc) {
        e.str(&self.job.name);
        e.u32(self.job.n_maps as u32);
        e.u32(self.job.n_reduces as u32);
        e.u64(self.input_bytes);
        e.u32(self.replication);
        e.u32(self.quorum);
        e.u8(match self.mode {
            MrMode::ServerRelay => 0,
            MrMode::InterClient => 1,
        });
        e.f64(self.sizing.expansion);
        e.u64(self.sizing.reduce_output_total_bytes);
        e.bool(self.map_outputs_to_server);
        e.bool(self.intermediate_downloads);
        e.f64(self.delay_bound_s);
    }

    /// Standalone encoding of [`MrJobConfig::encode`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(96);
        self.encode(&mut e);
        e.into_vec()
    }

    /// Decodes a config written by [`MrJobConfig::encode`]. A job with
    /// no map or no reduce task is a [`WireError::BadValue`].
    pub fn decode(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let name = d.str()?;
        let n_maps = d.u32()? as usize;
        let n_reduces = d.u32()? as usize;
        if n_maps == 0 || n_reduces == 0 {
            return Err(WireError::BadValue);
        }
        Ok(MrJobConfig {
            job: JobSpec::new(name, n_maps, n_reduces),
            input_bytes: d.u64()?,
            replication: d.u32()?,
            quorum: d.u32()?,
            mode: match d.u8()? {
                0 => MrMode::ServerRelay,
                1 => MrMode::InterClient,
                t => return Err(WireError::BadTag(t)),
            },
            sizing: SizingModel {
                expansion: d.f64()?,
                reduce_output_total_bytes: d.u64()?,
            },
            map_outputs_to_server: d.bool()?,
            intermediate_downloads: d.bool()?,
            delay_bound_s: d.f64()?,
        })
    }

    /// Decodes a standalone [`MrJobConfig::to_bytes`] blob.
    pub fn from_bytes(b: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(b);
        let cfg = Self::decode(&mut d)?;
        d.finish()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vmr_mapreduce::apps::{DistGrep, InvertedIndex, WordCount};
    use vmr_mapreduce::{CorpusGen, CorpusSpec};

    #[test]
    fn paper_config_shape() {
        let c = MrJobConfig::paper_wordcount(20, 5, MrMode::InterClient);
        assert_eq!(c.chunk_bytes(), (1u64 << 30) / 20);
        assert_eq!(c.replication, 2);
        assert_eq!(c.quorum, 2);
    }

    #[test]
    fn calibration_on_real_corpus() {
        let mut gen = CorpusGen::new(&CorpusSpec::default());
        let sample = gen.generate(200_000);
        let s = SizingModel::calibrate(&WordCount, &sample);
        // Word count without combiner: map output a bit larger than the
        // input ("word 1\n" per token).
        assert!(
            s.expansion > 1.0 && s.expansion < 2.0,
            "expansion = {}",
            s.expansion
        );
        // Zipf text: distinct words ≪ tokens, so the final output is
        // far smaller than the sample it was measured on.
        assert!(
            s.reduce_output_total_bytes < 200_000 * 3,
            "reduce_output_total_bytes = {}",
            s.reduce_output_total_bytes
        );
        assert!(s.reduce_output_total_bytes > 0);
    }

    #[test]
    fn sizing_arithmetic() {
        let s = SizingModel {
            expansion: 1.5,
            reduce_output_total_bytes: 1000,
        };
        assert_eq!(s.map_output_bytes(1000), 1500);
        assert_eq!(s.partition_bytes(1000, 3), 500);
        assert_eq!(s.reduce_output_bytes(100_000, 2), 500);
        assert_eq!(s.map_flops(100), 100_000.0);
        assert_eq!(s.reduce_flops(100), 15_000.0);
    }

    #[test]
    fn mode_labels_match_table1() {
        assert_eq!(MrMode::ServerRelay.to_string(), "BOINC");
        assert_eq!(MrMode::InterClient.to_string(), "BOINC-MR");
    }

    #[test]
    fn job_config_wire_round_trip() {
        let mut c = MrJobConfig::paper_wordcount(20, 5, MrMode::InterClient);
        c.input_bytes = 123_456_789;
        c.map_outputs_to_server = false;
        c.intermediate_downloads = true;
        c.delay_bound_s = 1234.5;
        c.sizing.expansion = 1.375;
        let back = MrJobConfig::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(back.job.name, c.job.name);
        assert_eq!(back.job.n_maps, 20);
        assert_eq!(back.job.n_reduces, 5);
        assert_eq!(back.input_bytes, c.input_bytes);
        assert_eq!(back.mode, c.mode);
        assert_eq!(
            back.sizing.expansion.to_bits(),
            c.sizing.expansion.to_bits()
        );
        assert!(!back.map_outputs_to_server);
        assert!(back.intermediate_downloads);
        assert_eq!(back.delay_bound_s.to_bits(), c.delay_bound_s.to_bits());
        // Canonical: re-encoding reproduces the same bytes.
        assert_eq!(back.to_bytes(), c.to_bytes());
    }

    #[test]
    fn job_config_without_maps_or_reduces_is_a_wire_error() {
        let good = MrJobConfig::paper_wordcount(2, 1, MrMode::InterClient).to_bytes();
        // The name's u32 length and bytes, then n_maps, then n_reduces.
        let at = 4 + "mr0".len();
        for field in [at, at + 4] {
            let mut bad = good.clone();
            bad[field..field + 4].copy_from_slice(&0u32.to_be_bytes());
            assert_eq!(
                MrJobConfig::from_bytes(&bad).unwrap_err(),
                WireError::BadValue
            );
        }
    }

    /// `calibrate` as it was before it shared the one group-by: a
    /// second, uncombined map pass for the raw bytes, and a map task
    /// over one partition whose output a reduce task groups again, both
    /// through `BTreeMap`s. Returns (raw bytes, reduced-output bytes).
    fn model_calibrate<A: MapReduceApp<K = String>>(app: &A, sample: &[u8]) -> (usize, usize) {
        use std::collections::BTreeMap;
        let mut line = String::new();
        let mut raw_bytes = 0;
        let mut grouped: BTreeMap<String, Vec<A::V>> = BTreeMap::new();
        app.map(sample, &mut |k, v| {
            line.clear();
            app.encode(&k, &v, &mut line);
            raw_bytes += line.len();
            grouped.entry(k).or_default().push(v);
        });
        let mut regrouped: BTreeMap<String, Vec<A::V>> = BTreeMap::new();
        for (k, vs) in grouped {
            for v in app.combine(&k, &vs) {
                regrouped.entry(k.clone()).or_default().push(v);
            }
        }
        let mut out_bytes = 0;
        for (k, vs) in &regrouped {
            line.clear();
            app.encode(k, &app.reduce(k, vs), &mut line);
            out_bytes += line.len();
        }
        (raw_bytes, out_bytes)
    }

    /// `calibrate`'s two numbers, to the bit, equal the model's byte
    /// counts put through the same arithmetic.
    fn calibrate_equals_model<A: MapReduceApp<K = String>>(
        app: &A,
        sample: &[u8],
    ) -> Result<(), TestCaseError> {
        let (raw_bytes, out_bytes) = model_calibrate(app, sample);
        let s = SizingModel::calibrate(app, sample);
        let n = sample.len().max(1) as f64;
        prop_assert_eq!(s.expansion.to_bits(), (raw_bytes as f64 / n).to_bits());
        prop_assert_eq!(s.reduce_output_total_bytes, (out_bytes as f64 * 1.5) as u64);
        Ok(())
    }

    proptest! {
        /// On text with repeated keys, empty and malformed lines and
        /// non-UTF-8 bytes, for a summing combiner (word count), the
        /// default combiner (grep) and order-sensitive `String` values
        /// (inverted index).
        #[test]
        fn calibrate_equals_btreemap_model(
            pieces in proptest::collection::vec(0usize..11, 0..150),
        ) {
            const PIECES: [&[u8]; 11] = [
                b"ab", b"ba", b"cab", b" ", b" ", b"\n", b"\t", b"d1\t", b"d2\t", b"\xff",
                b"\xc3\xa9",
            ];
            let sample: Vec<u8> = pieces.iter().flat_map(|&i| PIECES[i]).copied().collect();
            calibrate_equals_model(&WordCount, &sample)?;
            calibrate_equals_model(&DistGrep::new("a"), &sample)?;
            calibrate_equals_model(&InvertedIndex, &sample)?;
        }
    }
}
