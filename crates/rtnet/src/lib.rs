//! # vmr-rtnet — the real pull-model TCP runtime
//!
//! The simulator (vmr-netsim/vmr-vcore) reproduces the paper's *timing*;
//! this crate proves the *protocol* works over genuine sockets:
//!
//! * [`proto`] — length-prefixed request/response frames with SHA-256
//!   integrity trailers (§III.C's TCP transfers + hash reporting).
//! * [`store`] — per-volunteer output store with serving windows,
//!   timeout reset, and job-completion cleanup.
//! * [`server`] — the volunteer's serving endpoint: accept gating and
//!   the max-inter-client-connection threshold, one thread per
//!   connection. Not a serving runtime of [`cluster`] any more: kept
//!   as the reference the poll runtime is differentially tested
//!   against (`differential_server.rs`, `proptest_rtnet.rs`, the soak).
//! * [`poll`] — stub-level `mio`: a rebuilt-per-tick readiness set
//!   over `poll(2)`.
//! * [`pollserver`] — rtnet v2's runtime: every peer multiplexed on
//!   one nonblocking event loop, with a connection pool, idle-timeout
//!   reaping, per-connection write-queue backpressure, the same
//!   `Busy` threshold as the threaded server, and a live
//!   `GET /metrics` + `GET /dash` operations endpoint.
//! * [`fetch`] — reducer-side downloads: retry over holders, then fall
//!   back to the project server.
//! * [`load`] — nonblocking load generation: thousands of concurrent
//!   fetcher state machines from one thread (the soak harness).
//! * [`cluster`] — `run_cluster`: a complete word-count (or any
//!   [`vmr_mapreduce::MapReduceApp`]) job over loopback TCP with
//!   pull-model scheduling, replication + quorum, byzantine workers,
//!   mapper-failure fall-back, every endpoint served by [`pollserver`].
//! * [`wait`] — deadline-bounded condition polling for real-socket
//!   tests (no bare sleeps).

#![warn(missing_docs)]

pub mod cluster;
pub mod fetch;
pub mod load;
pub mod poll;
pub mod pollserver;
pub mod proto;
pub mod server;
pub mod store;
pub mod wait;

pub use cluster::{run_cluster, run_cluster_with_obs, ClusterConfig, ClusterReport};
pub use fetch::{fetch_once, fetch_with_fallback, http_get, FetchError, FetchPolicy, FetchSource};
pub use load::{run_load, LoadConfig, LoadReport};
pub use pollserver::{PollServer, PollServerConfig};
pub use proto::{Request, Response};
pub use server::{PeerServer, ServerStats};
pub use store::OutputStore;
pub use wait::wait_until;
