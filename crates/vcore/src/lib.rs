//! # vmr-vcore — a BOINC-like volunteer-computing middleware model
//!
//! A from-scratch implementation of the mechanisms the paper builds on
//! (it extended BOINC server 6.11 / client 6.11–6.13):
//!
//! * **Project database** ([`db::Db`]) — work units, replica results,
//!   and the indexes the daemons use.
//! * **Scheduler** ([`sched`]) — pull-model work dispatch honouring
//!   BOINC's one-replica-per-host rule.
//! * **Transitioner** ([`transition`]) — replica lifecycle: retries on
//!   error/timeout/disagreement, failure on budget exhaustion.
//! * **Validator** ([`validate`]) — replication with quorum of identical
//!   outputs (§III.B).
//! * **Client** (inside [`engine`]) — work fetch with **exponential
//!   backoff** (§IV.B's 600 s cap), download → execute → upload →
//!   report-at-next-RPC, peer downloads with server fall-back.
//! * **Fault injection** ([`fault`]) — byzantine outputs, transfer
//!   failures, churn.
//!
//! The engine is project-agnostic; vmr-core layers BOINC-MR's MapReduce
//! orchestration on top through the [`engine::Policy`] hooks.

#![warn(missing_docs)]

pub mod assimilate;
pub mod backoff;
pub mod config;
pub mod credit;
pub mod db;
pub mod engine;
pub mod fault;
pub mod host;
mod idset;
pub mod population;
pub mod sched;
pub mod transition;
pub mod types;
pub mod validate;
pub mod workunit;

pub use assimilate::{Assimilated, Assimilator};
pub use backoff::Backoff;
pub use config::{Preset, ProjectConfig};
pub use credit::{claimed_credit, CreditLedger, HostAccount};
pub use db::Db;
pub use engine::{
    clique_fingerprint, honest_fingerprint, Engine, Ev, NullPolicy, Policy, RelayChoice,
};
pub use engine::{BuildError, EngineBuilder};
pub use fault::{Corruption, FaultIndex, FaultPlan};
pub use host::{Availability, HostProfile};
pub use population::{GeneratedHost, HostPopulation, PopulationSpec, VolunteerClass};
pub use sched::{serve_batch, BatchGrant, Feeder, WorkerPool};
pub use transition::{run_transition_pass, Transition};
pub use types::{ClientId, FileRef, FileSource, OutputFingerprint, ResultId, WuId};
pub use validate::{check_quorum, Verdict};
pub use vmr_shuffle::{FetchObs, ShuffleConfig, ShuffleStrategy, StrategyKind};
pub use vmr_trust::{
    Outcome as TrustOutcome, ReplicationDecision, ReplicationPolicy, TrustConfig, TrustLedger,
};
pub use workunit::{ResultOutcome, ResultRec, ResultState, WorkUnit, WorkUnitSpec, WuState};
