//! # vmr-netsim — network substrate for the BOINC-MR reproduction
//!
//! Replaces the paper's physical Emulab testbed (§IV.A: ~40 machines on
//! 100 Mbit links) with a deterministic model:
//!
//! * [`topology`] — hosts with up/down access links; unconstrained core
//!   (the non-blocking switch) or, beyond testbed scale, a hierarchy of
//!   ISP/AS aggregation tiers and an optional shared backbone.
//! * [`bandwidth`] — max–min fair rate allocation (progressive filling).
//! * [`flow`] — event-driven transfer manager: start flows, advance
//!   virtual time, collect completions; integrates with `vmr-desim`.
//!   Built on incremental data structures (anchor-based progress, lazy
//!   completion/setup heaps) so per-event cost is independent of the
//!   in-flight flow population. The original scan-everything engine and
//!   map-based allocator are executable specifications in the test tree
//!   (`tests/spec`), which the differential tests diff it against.
//! * [`nat`] / [`traversal`] — NAT endpoint classes and the tiered
//!   direct → reversal → hole-punch → relay escalation of §III.D.

#![warn(missing_docs)]

pub mod bandwidth;
mod compat;
pub mod flow;
pub mod nat;
mod obs;
pub mod topology;
pub mod traversal;

pub use bandwidth::{allocate, FlowDemand};
#[doc(hidden)]
pub use compat::{AggregateNetwork, ScalePolicy};
pub use flow::{Completion, FlowId, FlowSpec, Network};
pub use nat::{NatMix, NatType};
pub use topology::{Direction, HostId, HostLink, LinkRef, TierId, TierLink, Topology};
pub use traversal::{connect, ConnectOutcome, Path, TraversalPolicy};
