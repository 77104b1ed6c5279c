//! The executable specifications of the flow engine, kept as test
//! oracles: the map-based max–min allocator and the scan-everything
//! flow engine. `equivalence.rs` demands that [`vmr_netsim::allocate`]
//! and [`vmr_netsim::Network`] reproduce them bit for bit.

use std::collections::BTreeMap;
use vmr_desim::{SimDuration, SimTime};
use vmr_netsim::{Completion, Direction, FlowDemand, FlowId, FlowSpec, LinkRef, Topology};
use vmr_obs::EventKind;

/// The original map-based progressive filling, the executable
/// specification of [`vmr_netsim::allocate`] and of the engine's
/// persistent allocator. Its bottleneck search takes a minimum, so the
/// maps' walk order does not matter.
///
/// O(rounds · flows · path length) per call — fine for the paper's
/// 40-host testbed, quadratic pain at thousands of concurrent flows.
pub fn fill_reference<K>(topo: &Topology, flows: &[FlowDemand<K>]) -> Vec<f64> {
    let mut rates = vec![0.0; flows.len()];
    let mut remaining: BTreeMap<LinkRef, f64> = BTreeMap::new();
    for f in flows {
        for &l in &f.links {
            remaining.entry(l).or_insert_with(|| topo.capacity(l));
        }
    }
    // Flows traversing no links (loopback) are unbounded.
    let mut unfrozen: Vec<usize> = Vec::new();
    for (i, f) in flows.iter().enumerate() {
        if f.links.is_empty() {
            rates[i] = f64::INFINITY;
        } else {
            unfrozen.push(i);
        }
    }

    while !unfrozen.is_empty() {
        // Count unfrozen flows per link and find the bottleneck share.
        let mut counts: BTreeMap<LinkRef, u32> = BTreeMap::new();
        for &i in &unfrozen {
            for &l in &flows[i].links {
                *counts.entry(l).or_insert(0) += 1;
            }
        }
        let mut bottleneck_share = f64::INFINITY;
        for (&l, &n) in &counts {
            let cap = remaining.get(&l).copied().unwrap_or(0.0).max(0.0);
            let share = cap / n as f64;
            if share < bottleneck_share {
                bottleneck_share = share;
            }
        }
        // Freeze every flow on a bottleneck link.
        let freeze_set: Vec<usize> = unfrozen
            .iter()
            .copied()
            .filter(|&i| {
                flows[i].links.iter().any(|l| {
                    let cap = remaining.get(l).copied().unwrap_or(0.0).max(0.0);
                    let n = counts[l] as f64;
                    (cap / n - bottleneck_share).abs() <= 1e-9 * bottleneck_share.max(1.0)
                })
            })
            .collect();
        debug_assert!(!freeze_set.is_empty(), "progressive filling stalled");
        for &i in &freeze_set {
            rates[i] = bottleneck_share;
            for &l in &flows[i].links {
                if let Some(c) = remaining.get_mut(&l) {
                    *c = (*c - bottleneck_share).max(0.0);
                }
            }
        }
        unfrozen.retain(|i| !freeze_set.contains(i));
        if bottleneck_share == 0.0 {
            // No capacity left: everyone remaining gets 0.
            for &i in &unfrozen {
                rates[i] = 0.0;
            }
            break;
        }
    }
    rates
}

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
    /// Set when the flow leaves the demand set with its bytes run out:
    /// the due instant its last rate gave it, where it is reported, as
    /// in `Network`. The `ceil` to whole microseconds can put that
    /// instant a µs or two after the bytes ran out.
    ran_out_due: Option<SimTime>,
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
        if let Some(due) = self.ran_out_due {
            return due;
        }
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

/// The counters, scope and journal the engine records into, resolved
/// by name under the same `netsim.*` keys as `Network`'s.
struct SpecObs {
    started: vmr_obs::Counter,
    completed: vmr_obs::Counter,
    aborted: vmr_obs::Counter,
    bytes: vmr_obs::Counter,
    realloc_waves: vmr_obs::Counter,
    realloc_scope: vmr_obs::Scope,
    journal: vmr_obs::Journal,
}

impl SpecObs {
    fn attach(obs: &vmr_obs::Obs) -> Self {
        SpecObs {
            started: obs.counter("netsim.flows_started"),
            completed: obs.counter("netsim.flows_completed"),
            aborted: obs.counter("netsim.flows_aborted"),
            bytes: obs.counter("netsim.bytes_delivered"),
            realloc_waves: obs.counter("netsim.realloc_waves"),
            realloc_scope: obs.scope("netsim.realloc_wave"),
            journal: obs.journal.clone(),
        }
    }
}

/// The scan-everything flow engine, the executable specification of
/// [`vmr_netsim::Network`].
///
/// It implements the same flow semantics with none of the incremental
/// machinery: completion prediction scans all flows, **every** settle
/// reallocates, every reallocation clones the whole demand set and runs
/// [`fill_reference`]. O(F) per event query and O(F² · d) per
/// reallocation wave, which is fine for the paper's 40-host testbed and
/// hopeless at thousands of concurrent flows.
///
/// Byte progress uses the same anchor discipline as the incremental
/// engine — a flow's remaining bytes are materialized only when its rate
/// changes, in one multiply from the anchor instant. This makes the
/// observable behaviour independent of *when* the caller happens to call
/// `advance`, and it is what lets the differential tests demand the two
/// engines produce **bit-identical completion streams**.
///
/// The reference allocator speaks the flat [`LinkRef`] vocabulary
/// (host access links only), so this engine models **flat topologies
/// only** — construction rejects tiered/backbone hierarchies. The
/// hierarchical regimes are validated against `Network` (which shares
/// the dense-index path code) instead.
pub struct NaiveNetwork {
    topo: Topology,
    flows: BTreeMap<FlowId, ActiveFlow>,
    next_id: u64,
    last_advance: SimTime,
    obs: SpecObs,
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
            "NaiveNetwork models flat topologies only"
        );
        NaiveNetwork {
            topo,
            flows: BTreeMap::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            obs: SpecObs::attach(obs),
        }
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
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
            ran_out_due: None,
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
            })
            .collect();
        let rates = fill_reference(&self.topo, &demands);
        let in_demand: BTreeMap<FlowId, f64> = demands.iter().map(|d| d.key).zip(rates).collect();
        for (id, f) in self.flows.iter_mut() {
            let r = in_demand.get(id).copied().unwrap_or(0.0);
            if r != f.rate {
                if f.bytes_left_at(anchor) <= 0.0 {
                    f.ran_out_due = Some(f.completion_at_anchor());
                }
                f.bytes_at_anchor = f.bytes_left_at(anchor);
                f.anchor = anchor;
                f.rate = r;
            }
        }
    }
}
