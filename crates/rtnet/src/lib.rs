//! # vmr-rtnet — the real pull-model TCP transport
//!
//! The simulator (vmr-netsim/vmr-vcore) reproduces the paper's *timing*;
//! this crate carries the *protocol* over genuine sockets (`vmr-cluster`
//! runs a whole job on it):
//!
//! * [`proto`] — length-prefixed request/response frames with SHA-256
//!   integrity trailers (§III.C's TCP transfers + hash reporting).
//! * [`store`] — per-volunteer output store with serving windows,
//!   timeout reset, and job-completion cleanup.
//! * [`server`] — the volunteer's serving endpoint: accept gating and
//!   the max-inter-client-connection threshold, one thread per
//!   connection. Kept as the reference the poll runtime is
//!   differentially tested against (`differential_server.rs`,
//!   `proptest_rtnet.rs`, the soak).
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
//! * [`wait`] — deadline-bounded condition polling for real-socket
//!   tests (no bare sleeps).

#![warn(missing_docs)]

pub mod fetch;
pub mod load;
pub mod poll;
pub mod pollserver;
pub mod proto;
pub mod server;
pub mod store;
pub mod wait;

pub use fetch::{fetch_once, fetch_with_fallback, http_get, FetchError};
pub use load::{run_load, LoadConfig, LoadReport};
pub use pollserver::{PollServer, PollServerConfig};
pub use proto::{Request, Response};
pub use server::{PeerServer, ServerStats};
pub use store::OutputStore;
pub use wait::wait_until;
