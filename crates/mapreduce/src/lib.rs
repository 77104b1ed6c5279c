//! # vmr-mapreduce — the MapReduce framework
//!
//! The paper inlined word count into a modified BOINC client (§III.C:
//! "we inserted MapReduce functionalities into the code" rather than
//! building an API). This crate provides the API the paper deferred:
//!
//! * [`api::MapReduceApp`] — map + reduce + combiner + line codec;
//! * [`partition::HashPartitioner`] — hash(key) mod R (§III.C);
//! * [`record`] — boundary-respecting input splitting (§IV.A's 1 GB /
//!   #maps chunks);
//! * [`local`] — the sequential oracle and the task-level building
//!   blocks shared by all runtimes;
//! * [`apps`] — word count (the paper's app), distributed grep,
//!   inverted index, URL-visit aggregation;
//! * [`corpus`] — deterministic Zipf text generation (the 1 GB input);
//! * [`hashes`] — in-crate FNV-1a and SHA-256 (output fingerprints).

#![warn(missing_docs)]

pub mod api;
pub mod apps;
pub mod corpus;
pub mod hashes;
pub mod local;
pub mod partition;
pub mod record;

pub use api::{InputFormat, JobSpec, MapReduceApp};
pub use corpus::{CorpusGen, CorpusSpec};
pub use hashes::{fnv1a, sha256, Sha256};
pub use local::{
    decode_partition, map_grouped, run_map_task, run_reduce_task, run_sequential, split_input,
    MapOutput,
};
pub use partition::HashPartitioner;
