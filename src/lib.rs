//! # volunteer-mr — umbrella crate
//!
//! Re-exports the whole workspace of the BOINC-MR reproduction
//! (*Volunteer Cloud Computing: MapReduce over the Internet*,
//! Costa/Silva/Dahlin, IPDPS Workshops 2011):
//!
//! * [`desim`] — deterministic discrete-event kernel.
//! * [`netsim`] — network model (fair sharing, NAT, TCP-Nice).
//! * [`vcore`] — BOINC-like middleware (scheduler, validator, backoff…).
//! * [`mapreduce`] — the MapReduce framework and applications.
//! * [`core`] — BOINC-MR: JobTracker, phases, experiments.
//! * [`rtnet`] — the real pull-model TCP transport.
//! * [`cluster`] — a whole MapReduce job over that transport, run by
//!   [`vcore`]'s project server.
//!
//! See `examples/` for runnable entry points and DESIGN.md for the
//! system inventory.

pub use vmr_cluster as cluster;
pub use vmr_core as core;
pub use vmr_desim as desim;
pub use vmr_mapreduce as mapreduce;
pub use vmr_netsim as netsim;
pub use vmr_obs as obs;
pub use vmr_rtnet as rtnet;
pub use vmr_vcore as vcore;
