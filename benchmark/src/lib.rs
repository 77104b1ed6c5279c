//! Whole-stack benchmark for volunteer-mr.
//!
//! Six workloads, each run in its own process by `run.sh`. The library
//! half (this crate root) holds everything the end-to-end binary needs
//! and touches the stack only through the crates' root re-exports of
//! their stable entry points (`Engine::builder` / `run_until`,
//! `run_experiment`, `MrPolicy`, `DurabilityPlan` /
//! `RecoveredServerState::from_log` / `compact`, `PollServer` /
//! `run_load` / `OutputStore`). The per-layer legs, which reach into
//! layer internals, live only in the `vmr-bench-trace` binary so an
//! internal API change can break that binary without taking the
//! end-to-end numbers with it.

pub mod args;
pub mod driver;
pub mod report;
pub mod span;
pub mod stats;
pub mod workloads;
