//! # vmr-core — BOINC-MR
//!
//! The paper's contribution: MapReduce over a pull-model volunteer
//! computing middleware.
//!
//! * [`config`] — `mr_jobtracker.xml` equivalents: job geometry,
//!   replication/quorum, transfer mode, data sizing calibrated against
//!   the real word-count application, §IV.C intermediate downloads.
//! * [`jobtracker`] — the paper's new server module: WU ↔ (job, task)
//!   index, validated map-output holders, phase state and timestamps.
//! * [`policy`] — the orchestration: map WUs scheduled as ordinary
//!   BOINC work, mapper-side serving registration, automatic reduce WU
//!   creation carrying mapper addresses, job completion.
//! * [`experiment`] — the §IV harness: build a testbed, run a job,
//!   report Table I rows and Fig. 4 timelines.
//! * [`recover`] — crash-replay recovery: materialize all server state
//!   from a WAL image and resume an interrupted experiment with
//!   bit-identical output.

#![warn(missing_docs)]

pub mod config;
pub mod experiment;
pub mod jobtracker;
pub mod policy;
pub mod recover;
pub mod workflow;

pub use config::{
    GeneratedHost, HostPopulation, MrJobConfig, MrMode, PopulationSpec, SizingModel, VolunteerClass,
};
pub use experiment::{
    format_row, run_experiment, ConfigError, ExperimentConfig, ExperimentOutcome, MitigationPlan,
    NodeMix, PhaseReport,
};
pub use jobtracker::{JobState, JobTracker, Phase, TaskKind};
pub use policy::MrPolicy;
pub use recover::{resume_experiment, RecoveredServerState, RecoveryError};
pub use vmr_shuffle::{FetchObs, ShuffleConfig, StrategyKind};
pub use workflow::{Stage, Workflow};
