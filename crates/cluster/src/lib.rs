//! # vmr-cluster — BOINC-MR end to end over real sockets
//!
//! [`run_cluster`] runs a complete word-count (or any
//! [`vmr_mapreduce::MapReduceApp`]) job on loopback TCP. Volunteer
//! threads *pull* assignments (communication is always
//! worker-initiated), serve their map-output partitions from their own
//! [`vmr_rtnet::PollServer`], and download reduce inputs from the
//! mappers with retry and server fall-back. The coordinator is the
//! project server the simulator runs: vmr-vcore's `Db`, its scheduler
//! rule (`pick_results`) and its transitioner (`transition_wu`),
//! journaled to a `vmr_durable` log. It also holds the input chunks and
//! the fall-back copies of map outputs ("this requires map outputs to
//! be always returned to the server").

#![warn(missing_docs)]

mod cluster;

pub use cluster::{run_cluster, run_cluster_with_obs, ClusterConfig, ClusterError, ClusterReport};
