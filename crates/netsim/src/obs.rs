//! Pre-resolved observability handles of the flow engine.

/// Counters, journal and profiling scopes the flow engine records into.
/// Resolved once at engine construction; hot-path updates are atomic
/// bumps.
pub(crate) struct NetObs {
    pub started: vmr_obs::Counter,
    pub completed: vmr_obs::Counter,
    pub aborted: vmr_obs::Counter,
    pub bytes: vmr_obs::Counter,
    pub realloc_waves: vmr_obs::Counter,
    pub realloc_scope: vmr_obs::Scope,
    /// Whole `Network::start_flow` / `Network::advance` calls; the
    /// reallocation waves they run nest inside.
    pub start_flow_scope: vmr_obs::Scope,
    pub advance_scope: vmr_obs::Scope,
    pub journal: vmr_obs::Journal,
}

impl NetObs {
    /// Resolve handles from a live bundle.
    pub fn attach(obs: &vmr_obs::Obs) -> Self {
        NetObs {
            started: obs.counter("netsim.flows_started"),
            completed: obs.counter("netsim.flows_completed"),
            aborted: obs.counter("netsim.flows_aborted"),
            bytes: obs.counter("netsim.bytes_delivered"),
            realloc_waves: obs.counter("netsim.realloc_waves"),
            realloc_scope: obs.scope("netsim.realloc_wave"),
            start_flow_scope: obs.scope("netsim.start_flow"),
            advance_scope: obs.scope("netsim.advance"),
            journal: obs.journal.clone(),
        }
    }
}
