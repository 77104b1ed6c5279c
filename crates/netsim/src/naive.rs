//! The scan-everything flow engine, kept as an executable specification.
//!
//! [`NaiveNetwork`] implements the same flow semantics as
//! [`crate::Network`] with none of its incremental machinery: completion
//! prediction scans all flows, **every** settle reallocates, every
//! reallocation clones the whole demand set and runs the map-based
//! reference allocator. O(F) per event query and O(F² · d) per
//! reallocation wave, which is fine for the paper's 40-host testbed and
//! hopeless at thousands of concurrent flows.
//!
//! Byte progress uses the same anchor discipline as the incremental
//! engine — a flow's remaining bytes are materialized only when its rate
//! changes, in one multiply from the anchor instant. This makes the
//! observable behaviour independent of *when* the caller happens to call
//! `advance` (the pre-rewrite engine re-integrated bytes at every
//! observation, so the `ceil` to whole microseconds could land one
//! microsecond differently depending on the call pattern), and it is
//! what lets the differential tests in `tests/equivalence.rs` demand the
//! two engines produce **bit-identical completion streams**.
//!
//! The reference allocator speaks the flat [`LinkRef`] vocabulary
//! (host access links only), so this engine models **flat topologies
//! only** — construction rejects tiered/backbone hierarchies. That is
//! deliberate: the spec engine pins down testbed-scale semantics, and
//! the hierarchical regimes are validated against [`crate::Network`]
//! (which shares the dense-index path code) instead.
//!
//! Do not use this in simulations; use [`crate::Network`].

use crate::bandwidth::{allocate_reference, FlowDemand};
use crate::flow::{Completion, FlowId, FlowSpec};
use crate::obs::NetObs;
use crate::topology::{Direction, LinkRef, Topology};
use std::collections::BTreeMap;
use vmr_desim::{SimDuration, SimTime};
use vmr_obs::EventKind;

#[derive(Clone, Debug)]
struct ActiveFlow {
    spec: FlowSpec,
    links: Vec<LinkRef>,
    /// Bytes still to transfer as of `anchor`.
    bytes_at_anchor: f64,
    /// Instant `bytes_at_anchor` refers to; reset whenever `rate` changes.
    anchor: SimTime,
    starts_at: SimTime,
    created_at: SimTime,
    rate: f64,
}

impl ActiveFlow {
    /// Bytes left at `t ≥ anchor` under the current rate. Identical
    /// arithmetic to the incremental engine's `ActiveFlow::bytes_left_at`.
    fn bytes_left_at(&self, t: SimTime) -> f64 {
        let active_from = self.starts_at.max(self.anchor);
        if t > active_from && self.rate > 0.0 {
            let dt = t.saturating_since(active_from).as_secs_f64();
            (self.bytes_at_anchor - self.rate * dt).max(0.0)
        } else {
            self.bytes_at_anchor
        }
    }

    /// Projected completion instant, evaluated at the anchor. Identical
    /// arithmetic to the incremental engine's
    /// `ActiveFlow::completion_at_anchor`.
    fn completion_at_anchor(&self) -> SimTime {
        let start = self.starts_at.max(self.anchor);
        if self.bytes_at_anchor <= 1e-9 {
            return start;
        }
        if self.rate <= 1e-12 {
            return SimTime::MAX;
        }
        // Round *up* to the next microsecond so that by the completion
        // instant the flow has provably moved all its bytes (a nearest-
        // rounding here could fire half a microsecond early and leave a
        // handful of bytes unsent).
        let us = (self.bytes_at_anchor / self.rate * 1e6).ceil();
        let us = if us >= u64::MAX as f64 {
            u64::MAX
        } else {
            us as u64
        };
        start + SimDuration::from_micros(us)
    }
}

/// The original scan-everything flow engine (see module docs).
pub struct NaiveNetwork {
    topo: Topology,
    flows: BTreeMap<FlowId, ActiveFlow>,
    next_id: u64,
    last_advance: SimTime,
    /// Pre-resolved observability handles (a detached sink by default).
    obs: NetObs,
}

impl NaiveNetwork {
    /// Wraps a topology with observability into a detached sink. Use
    /// [`NaiveNetwork::with_obs`] to record into a shared bundle.
    pub fn new(topo: Topology) -> Self {
        NaiveNetwork::with_obs(topo, &vmr_obs::Obs::detached())
    }

    /// Wraps a topology recording the same `netsim.*` counters and
    /// journal events as the incremental engine — the differential
    /// tests compare the two engines' counter streams. (The
    /// `netsim.realloc_waves` counter is still engine-defined: this
    /// engine reallocates on every settle by design.)
    pub fn with_obs(topo: Topology, obs: &vmr_obs::Obs) -> Self {
        assert!(
            !topo.is_hierarchical(),
            "NaiveNetwork models flat topologies only (see module docs)"
        );
        NaiveNetwork {
            topo,
            flows: BTreeMap::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            obs: NetObs::attach(obs),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Current rate of a flow, bytes/second (0 during setup).
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| f.rate)
    }

    /// Starts a transfer at `now`. Returns its id; completions are later
    /// reported by [`NaiveNetwork::advance`].
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        self.settle(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let mut links = Vec::with_capacity(2 + 2 * spec.via.len());
        if spec.src != spec.dst || !spec.via.is_empty() {
            links.push(LinkRef {
                host: spec.src,
                dir: Direction::Up,
            });
            for &hop in &spec.via {
                links.push(LinkRef {
                    host: hop,
                    dir: Direction::Down,
                });
                links.push(LinkRef {
                    host: hop,
                    dir: Direction::Up,
                });
            }
            links.push(LinkRef {
                host: spec.dst,
                dir: Direction::Down,
            });
        }
        let setup =
            SimDuration::from_secs_f64(spec.setup_s + self.topo.latency(spec.src, spec.dst));
        let flow = ActiveFlow {
            links,
            bytes_at_anchor: spec.bytes as f64,
            anchor: self.last_advance,
            starts_at: now + setup,
            created_at: now,
            rate: 0.0,
            spec,
        };
        let flow_bytes = flow.spec.bytes;
        self.flows.insert(id, flow);
        self.reallocate(now);
        self.obs.started.inc();
        self.obs
            .journal
            .record_with(now.as_micros(), || EventKind::FlowStart {
                id: id.0,
                bytes: flow_bytes,
            });
        id
    }

    /// Aborts a flow (e.g. peer failure injection). Returns `true` if it
    /// was still active.
    pub fn abort_flow(&mut self, now: SimTime, id: FlowId) -> bool {
        self.settle(now);
        let existed = self.flows.remove(&id).is_some();
        if existed {
            self.reallocate(now);
            self.obs.aborted.inc();
        }
        existed
    }

    /// Advances the network to `now` and returns every flow that has
    /// completed by then (possibly several).
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        let mut done = Vec::new();
        // Completing one flow frees capacity and speeds up the others, so
        // settle repeatedly until no flow completes before `now`.
        loop {
            let next = self.earliest_completion();
            match next {
                Some((t, _)) if t <= now => {
                    // Setup boundaries crossed by `t` reallocate, and a
                    // flow they let in can be due at `t` with a lower id
                    // (a loopback flow finishes the instant it starts), so
                    // settle first and pick again.
                    self.settle(t);
                    let id = match self.earliest_completion() {
                        Some((due, id)) if due == t => id,
                        _ => continue,
                    };
                    let f = self.flows.remove(&id).expect("completing unknown flow");
                    // Infinite-rate flows (loopback: no constraining
                    // links) complete at their start instant with dt = 0,
                    // so their bytes are never integrated away.
                    debug_assert!(f.rate == f64::INFINITY || f.bytes_left_at(t) <= 1e-6);
                    let duration = t.saturating_since(f.created_at);
                    self.obs.completed.inc();
                    self.obs.bytes.add(f.spec.bytes);
                    self.obs
                        .journal
                        .record_with(t.as_micros(), || EventKind::FlowComplete {
                            id: id.0,
                            bytes: f.spec.bytes,
                            dur_us: duration.as_micros(),
                        });
                    self.reallocate(t);
                    done.push(Completion {
                        id,
                        at: t,
                        spec: f.spec,
                        duration,
                    });
                }
                _ => break,
            }
        }
        self.settle(now);
        done
    }

    /// The next instant at which the network's state changes by itself
    /// (a flow finishing its setup phase or completing).
    pub fn next_event_time(&self) -> Option<SimTime> {
        if self.flows.is_empty() {
            return None;
        }
        let completion = self.earliest_completion().map(|(t, _)| t);
        let setup_end = self
            .flows
            .values()
            .filter(|f| f.starts_at > self.last_advance)
            .map(|f| f.starts_at)
            .min();
        Some(match (completion, setup_end) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => SimTime::MAX,
        })
    }

    /// Projected completion instant of a specific flow under current
    /// rates (changes whenever other flows arrive or depart).
    pub fn projected_completion(&self, id: FlowId) -> Option<SimTime> {
        let f = self.flows.get(&id)?;
        let start = f.starts_at.max(self.last_advance);
        let bytes = f.bytes_left_at(self.last_advance);
        if bytes <= 1e-9 {
            return Some(start);
        }
        if f.rate <= 1e-12 {
            return Some(SimTime::MAX);
        }
        let us = (bytes / f.rate * 1e6).ceil();
        let us = if us >= u64::MAX as f64 {
            u64::MAX
        } else {
            us as u64
        };
        Some(start + SimDuration::from_micros(us))
    }

    fn earliest_completion(&self) -> Option<(SimTime, FlowId)> {
        self.flows
            .iter()
            .map(|(&id, f)| (f.completion_at_anchor().max(self.last_advance), id))
            .filter(|&(t, _)| t < SimTime::MAX)
            .min_by_key(|&(t, id)| (t, id))
    }

    /// Moves the clock to `t` and reallocates — unconditionally, this is
    /// the naive engine. When no demand eligibility changed the allocator
    /// reproduces every rate exactly, no flow is re-anchored, and the
    /// call is a (slow) no-op.
    fn settle(&mut self, t: SimTime) {
        if t <= self.last_advance {
            return;
        }
        self.last_advance = t;
        self.reallocate(t);
    }

    /// Recomputes max–min fair rates for all flows past their setup
    /// phase, in flow-id order; re-anchors exactly the flows whose rate
    /// changed.
    fn reallocate(&mut self, now: SimTime) {
        self.obs.realloc_waves.inc();
        let _wave = self.obs.realloc_scope.enter();
        let anchor = self.last_advance;
        let demands: Vec<FlowDemand<FlowId>> = self
            .flows
            .iter()
            .filter(|(_, f)| f.starts_at <= now && f.bytes_left_at(anchor) > 0.0)
            .map(|(&id, f)| FlowDemand {
                key: id,
                links: f.links.clone(),
                priority: f.spec.priority,
                rate_cap: f.spec.rate_cap,
            })
            .collect();
        let rates = allocate_reference(&self.topo, &demands);
        let in_demand: BTreeMap<FlowId, f64> = demands.iter().map(|d| d.key).zip(rates).collect();
        for (id, f) in self.flows.iter_mut() {
            let r = in_demand.get(id).copied().unwrap_or(0.0);
            if r != f.rate {
                f.bytes_at_anchor = f.bytes_left_at(anchor);
                f.anchor = anchor;
                f.rate = r;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{HostId, HostLink};

    #[test]
    fn naive_engine_still_works() {
        let mut t = Topology::new();
        for _ in 0..3 {
            t.add_host(HostLink::symmetric_mbit(100.0, 0.0));
        }
        let obs = vmr_obs::Obs::new();
        let mut n = NaiveNetwork::with_obs(t, &obs);
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
        );
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(2), 12_500_000),
        );
        let mut done = Vec::new();
        while let Some(t) = n.next_event_time() {
            assert!(t < SimTime::MAX, "stalled flow");
            done.extend(n.advance(t));
        }
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!((c.at.as_secs_f64() - 2.0).abs() < 1e-3, "{:?}", c.at);
        }
        assert_eq!(obs.snapshot().counter("netsim.bytes_delivered"), 25_000_000);
    }
}
