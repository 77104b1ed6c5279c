//! Benchmark compatibility, kept in this one place: the frozen
//! `benchmark/` trace leg (`legs/netsim.rs`) was written against the
//! deleted aggregate engine and still builds
//! `AggregateNetwork::with_policy(.., ScalePolicy::internet())`. There is
//! one network engine; both types are vestigial and forward to it, to be
//! dropped with the trace leg's next revision (ROADMAP).

use crate::flow::{Completion, FlowId, FlowSpec, Network};
use crate::topology::Topology;
use vmr_desim::SimTime;

/// Vestigial: there is no regime left to choose.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalePolicy;

impl ScalePolicy {
    /// The only policy there is.
    pub fn internet() -> Self {
        ScalePolicy
    }
}

/// [`Network`] under the deleted engine's name.
pub struct AggregateNetwork(Network);

impl AggregateNetwork {
    /// [`Network::with_obs`]; the policy is ignored.
    pub fn with_policy(topo: Topology, obs: &vmr_obs::Obs, _: ScalePolicy) -> Self {
        AggregateNetwork(Network::with_obs(topo, obs))
    }
    /// [`Network::start_flow`].
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        self.0.start_flow(now, spec)
    }
    /// [`Network::advance`].
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        self.0.advance(now)
    }
    /// [`Network::next_event_time`].
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.0.next_event_time()
    }
}
