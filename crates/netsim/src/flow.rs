//! Event-driven flow manager.
//!
//! `Network` tracks the set of in-flight transfers, advances their
//! progress under the current max–min fair rate allocation, and predicts
//! the next completion instant. The owning world keeps exactly one
//! "network wake-up" event scheduled at [`Network::next_event_time`]; on
//! every mutation (flow added / finished) it re-arms that event.
//!
//! A flow's life: `[created] --setup latency--> [transferring] --> [done]`.
//!
//! # Incremental design
//!
//! The engine is built so that per-event cost scales with the flows
//! *affected*, not with the total in-flight population:
//!
//! * **Anchor-based progress.** Each flow stores the bytes it had left
//!   at its `anchor` instant (the last time its rate changed); bytes at
//!   any later time follow from `bytes_at_anchor - rate · Δt`. Settling
//!   to a new instant is O(1) — no per-flow integration pass.
//! * **Cached due instants, found by scanning.** Each flow caches the
//!   instant it is `due` to complete, recomputed only when its rate
//!   changes (while the rate is unchanged the projection is invariant).
//!   A reallocation wave already walks every flow to apply the new
//!   rates, so the same walk tracks the minimum `due`;
//!   `next_event_time` reads that minimum, and [`Network::advance`]
//!   collects the flows due at an instant with one in-order walk of
//!   the flow table. There is no completion heap: on a shared
//!   bottleneck every arrival or departure changes every rate, so a
//!   heap of `(due, flow)` entries grows by one stale entry per flow
//!   per wave and popping them costs more than the allocator does.
//! * **An id-ordered paged flow table.** Ids are handed out in
//!   increasing order, so an insert is a push and a look-up a binary
//!   search; a removal leaves a hole that compaction closes once holes
//!   outnumber flows. Walks are linear over pages of 512 flows.
//! * **Setup boundary heap.** Pending setup completions live in their
//!   own min-heap; [`Network::advance`] only reallocates when a
//!   boundary was actually crossed, instead of on every settle.
//! * **Batched completions.** All flows finishing at the same instant
//!   are retired under a single reallocation.
//! * **A persistent demand set.** The allocator keeps the demand set
//!   between waves: each link's members in ascending `FlowId` order.
//!   A flow joins when a wave first finds it past setup with bytes
//!   left, and leaves when it runs out, completes or is aborted; its
//!   path moves into the allocator and back, uncopied. A wave is one walk that moves the
//!   flows whose eligibility changed, one solve — skipped when none
//!   did, since specs, paths and the topology are immutable (debug
//!   builds then check the kept rates against a fresh solve) — and one
//!   walk that applies the rates.
//! * **No-op waves are skipped.** Harvests, aborts of demand flows,
//!   setup crossings and joining starts all run a wave, so between
//!   waves the demand set can only shrink by a flow running out of
//!   bytes unharvested. That cannot have happened when the last wave
//!   ran at `now`, nor while every cached `due` lies more than
//!   `RUN_OUT_MARGIN` (2 µs) ahead. Then a start whose flow does not join
//!   (still in setup, or zero bytes) and the abort of a flow outside the
//!   demand set, or of one already gone, cost no walk at all: the start
//!   only folds its `due`
//!   into `min_due`. Debug builds check that each skipped wave is a
//!   no-op.
//!
//! Call instants must be non-decreasing across `start_flow` /
//! `abort_flow` / `advance` (event-driven callers do this naturally);
//! the engine then reproduces the completion stream of the scan-
//! everything reference implementation the differential tests keep
//! (`tests/spec`), bit for bit. A flow whose bytes run out in the µs or
//! two before its rounded-up `due` is reported at that `due` by both
//! (`pinned_run_out_before_due_pays_a_wave`).

use crate::bandwidth::Allocator;
use crate::obs::NetObs;
use crate::topology::{HostId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vmr_desim::{SimDuration, SimTime};
use vmr_obs::EventKind;

/// Identifies a transfer within a [`Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// Parameters of a new transfer.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Relay hops the data traverses between src and dst (usually empty;
    /// one hop for TURN-style relaying through the server or a peer).
    pub via: Vec<HostId>,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Extra setup delay before data flows (connection establishment,
    /// NAT traversal, HTTP request round-trip…), seconds.
    pub setup_s: f64,
}

impl FlowSpec {
    /// A plain transfer with no relay and no extra setup.
    pub fn simple(src: HostId, dst: HostId, bytes: u64) -> Self {
        FlowSpec {
            src,
            dst,
            via: Vec::new(),
            bytes,
            setup_s: 0.0,
        }
    }
}

#[derive(Clone, Debug)]
struct ActiveFlow {
    spec: FlowSpec,
    /// Dense link indices of the path (see [`Topology::link_index`]);
    /// held by the allocator while the flow is in the demand set.
    links: Vec<u32>,
    /// The flow's allocator slot while it is in the demand set.
    slot: Option<u32>,
    /// Bytes still to transfer as of `anchor`.
    bytes_at_anchor: f64,
    /// Instant `bytes_at_anchor` refers to; reset whenever `rate` changes.
    anchor: SimTime,
    starts_at: SimTime,
    created_at: SimTime,
    rate: f64,
    /// Cached completion instant: `completion_at_anchor()` as of the
    /// last rate change, `SimTime::MAX` while there is none (setup
    /// phase, starved). Kept when the flow leaves the demand set with
    /// its bytes exhausted, so `advance` still harvests it.
    due: SimTime,
}

impl ActiveFlow {
    /// Whether a wave at `now` (clock settled to `anchor`) puts this
    /// flow in the demand set: past its setup phase, bytes left.
    fn demands(&self, now: SimTime, anchor: SimTime) -> bool {
        self.starts_at <= now && self.bytes_left_at(anchor) > 0.0
    }

    /// Bytes left at `t ≥ anchor` under the current rate.
    fn bytes_left_at(&self, t: SimTime) -> f64 {
        let active_from = self.starts_at.max(self.anchor);
        if t > active_from && self.rate > 0.0 {
            let dt = t.saturating_since(active_from).as_secs_f64();
            (self.bytes_at_anchor - self.rate * dt).max(0.0)
        } else {
            self.bytes_at_anchor
        }
    }

    /// Projected completion instant, evaluated at the anchor (the same
    /// formula the reference engine applies at every settle; because the
    /// microsecond count is rounded *up*, the projection is reached with
    /// zero bytes left, so it stays valid while the rate is unchanged).
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

/// Flows per page of the flow table (see [`FlowTable`]).
const PAGE: usize = 512;

/// A flow table position: page, then index in the page.
type Pos = (usize, usize);

/// In-flight flows in ascending id order. Ids are handed out in
/// increasing order, so an insert is a push and a look-up is a binary
/// search. A removal leaves a hole, closed by compaction once holes
/// outnumber flows; walks skip holes. The flows live in pages of at
/// most [`PAGE`] (80 KiB), not in one vector: a table that grew past
/// glibc's 128 KiB mmap threshold and was freed with its engine would
/// raise that threshold for the rest of the process and, with it, the
/// peak memory of whatever runs next. A page grows as a vector does,
/// so a table of a few flows stays small.
#[derive(Default)]
struct FlowTable {
    pages: Vec<Vec<(FlowId, Option<ActiveFlow>)>>,
    /// Live flows.
    len: usize,
}

impl FlowTable {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, id: FlowId, f: ActiveFlow) {
        let last = self.pages.last().and_then(|p| p.last());
        debug_assert!(last.is_none_or(|&(k, _)| k < id));
        match self.pages.last_mut() {
            Some(page) if page.len() < PAGE => page.push((id, Some(f))),
            _ => self.pages.push(vec![(id, Some(f))]),
        }
        self.len += 1;
    }

    /// Position of the live flow `id`.
    fn position(&self, id: FlowId) -> Option<Pos> {
        let p = (self.pages).partition_point(|page| page.last().is_some_and(|&(k, _)| k < id));
        let i = (self.pages.get(p)?)
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()?;
        self.pages[p][i].1.is_some().then_some((p, i))
    }

    fn get(&self, id: FlowId) -> Option<&ActiveFlow> {
        let (p, i) = self.position(id)?;
        self.pages[p][i].1.as_ref()
    }

    fn contains(&self, id: FlowId) -> bool {
        self.position(id).is_some()
    }

    /// The first live flow at or after `*from` that is due by `t`;
    /// `*from` moves past it.
    fn next_due(&self, from: &mut Pos, t: SimTime) -> Option<Pos> {
        while let Some(page) = self.pages.get(from.0) {
            while let Some((_, f)) = page.get(from.1) {
                from.1 += 1;
                if f.as_ref().is_some_and(|f| f.due <= t) {
                    return Some((from.0, from.1 - 1));
                }
            }
            *from = (from.0 + 1, 0);
        }
        None
    }

    /// Removes the flow at `pos`, leaving a hole until the next
    /// [`FlowTable::compact`].
    fn take(&mut self, (p, i): Pos) -> (FlowId, ActiveFlow) {
        self.len -= 1;
        let (id, f) = &mut self.pages[p][i];
        (*id, f.take().expect("taking a live flow"))
    }

    /// Closes the holes once they outnumber the flows, merging
    /// neighbouring pages that then fit in one.
    fn compact(&mut self) {
        if self.pages.iter().map(Vec::len).sum::<usize>() <= 2 * self.len {
            return;
        }
        let mut kept: Vec<Vec<(FlowId, Option<ActiveFlow>)>> = Vec::new();
        for mut page in self.pages.drain(..) {
            page.retain(|(_, f)| f.is_some());
            match kept.last_mut() {
                Some(last) if last.len() + page.len() <= PAGE => last.append(&mut page),
                _ if page.is_empty() => {}
                _ => kept.push(page),
            }
        }
        self.pages = kept;
    }

    fn iter(&self) -> impl Iterator<Item = (FlowId, &ActiveFlow)> {
        (self.pages.iter().flatten()).filter_map(|(id, f)| f.as_ref().map(|f| (*id, f)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (FlowId, &mut ActiveFlow)> {
        (self.pages.iter_mut().flatten()).filter_map(|(id, f)| f.as_mut().map(|f| (*id, f)))
    }
}

/// A finished transfer, reported by [`Network::advance`].
#[derive(Clone, Debug)]
pub struct Completion {
    /// Which flow finished.
    pub id: FlowId,
    /// When it finished.
    pub at: SimTime,
    /// Original spec (src/dst/bytes…).
    pub spec: FlowSpec,
    /// Total transfer latency including setup.
    pub duration: SimDuration,
}

/// How far past `now` every cached `due` must lie for a skipped wave to
/// be provably a no-op. A flow's `due` is its anchor plus
/// `ceil(x)` µs, `x = bytes / rate · 1e6` rounded twice; `due > now + m`
/// means it has run for `dt ≤ ceil(x) − m − 1 < x − m` µs. Its bytes
/// left, `bytes − rate · dt` with two more roundings, carry a relative
/// error of at most about 4·2⁻⁵³ of `bytes`, against a true remainder
/// of more than `m` µs at `rate`; so they stay positive whenever
/// `x < m / (4 · 2⁻⁵³)`. With `m = 0` they do not: 3 075 bytes at
/// 100 Mbit/s are out at 246 µs but due at 247. One µs covers every
/// transfer shorter than [`LONG_TRANSFER_US`]; two leave a factor-two
/// slack on that bound.
const RUN_OUT_MARGIN: SimDuration = SimDuration::from_micros(2);

/// A demand flow whose projection lies this far (2⁵⁰ µs, 35.7 years)
/// past its anchor, or that has none while it holds a rate, is outside
/// the [`RUN_OUT_MARGIN`] argument; while one is in flight no wave is
/// skipped on the strength of `min_due`.
const LONG_TRANSFER_US: u64 = 1 << 50;

/// The shared-network state of one simulation.
pub struct Network {
    topo: Topology,
    /// In-flight flows, ascending id — the deterministic demand order.
    flows: FlowTable,
    next_id: u64,
    last_advance: SimTime,
    /// Earliest cached `due` over all flows, `SimTime::MAX` when no flow
    /// has one. Refreshed by every reallocation wave, which every
    /// mutation of `flows` ends in unless it provably changes nothing.
    min_due: SimTime,
    /// Instant of the last wave, or of the last start or abort that
    /// skipped one as a no-op: the demand set and every rate are what a
    /// wave at that instant leaves.
    wave_at: SimTime,
    /// A demand flow is outside the [`RUN_OUT_MARGIN`] argument (see
    /// [`LONG_TRANSFER_US`]).
    long_demand: bool,
    /// Min-heap of pending setup boundaries (starts_at, flow).
    setup_heap: BinaryHeap<Reverse<(SimTime, FlowId)>>,
    /// The demand set, kept between waves, and its rates.
    alloc: Allocator,
    /// Pre-resolved observability handles (a detached sink by default).
    obs: NetObs,
}

impl Network {
    /// Wraps a topology with observability into a detached sink. Use
    /// [`Network::with_obs`] to record into a shared bundle.
    pub fn new(topo: Topology) -> Self {
        Network::with_obs(topo, &vmr_obs::Obs::detached())
    }

    /// Wraps a topology, recording flow counters (`netsim.flows_*`,
    /// `netsim.bytes_delivered`, `netsim.realloc_waves`), journal
    /// flow-start/complete events and the `netsim.start_flow`,
    /// `netsim.advance` and (nested in both) `netsim.realloc_wave`
    /// profiling scopes into `obs`.
    pub fn with_obs(topo: Topology, obs: &vmr_obs::Obs) -> Self {
        Network {
            topo,
            flows: FlowTable::default(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            min_due: SimTime::MAX,
            wave_at: SimTime::ZERO,
            long_demand: false,
            setup_heap: BinaryHeap::new(),
            alloc: Allocator::default(),
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
        self.flows.get(id).map(|f| f.rate)
    }

    /// The flows that shared bandwidth at the last reallocation instant
    /// — past their setup phase, bytes left — in ascending id order,
    /// with the rates they hold. The rates are the max–min fair
    /// allocation of exactly this set; every other in-flight flow holds
    /// rate 0.
    pub fn demand_rates(&self) -> Vec<(FlowId, f64)> {
        let at = self.wave_at;
        self.flows
            .iter()
            .filter(|(_, f)| f.demands(at, at))
            .map(|(id, f)| (id, f.rate))
            .collect()
    }

    /// Starts a transfer at `now`. Returns its id; completions are later
    /// reported by [`Network::advance`].
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        let scope = self.obs.start_flow_scope.clone();
        let _timed = scope.enter();
        self.settle(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let mut links = Vec::with_capacity(2 + 2 * spec.via.len());
        self.topo
            .route_into(spec.src, &spec.via, spec.dst, &mut links);
        let setup =
            SimDuration::from_secs_f64(spec.setup_s + self.topo.latency(spec.src, spec.dst));
        let starts_at = now + setup;
        let bytes_at_anchor = spec.bytes as f64;
        let flow = ActiveFlow {
            links,
            slot: None,
            bytes_at_anchor,
            anchor: self.last_advance,
            starts_at,
            created_at: now,
            rate: 0.0,
            // Zero-byte flows never enter the demand set, so no rate
            // change will ever set this: due as soon as setup ends.
            due: if bytes_at_anchor <= 1e-9 {
                starts_at.max(self.last_advance)
            } else {
                SimTime::MAX
            },
            spec,
        };
        if starts_at > now && starts_at > self.last_advance {
            self.setup_heap.push(Reverse((starts_at, id)));
        }
        let flow_bytes = flow.spec.bytes;
        let (joins, due) = (flow.demands(now, self.last_advance), flow.due);
        self.flows.push(id, flow);
        if !joins && self.demand_set_unchanged(now) {
            // The demand set is the one the last wave solved, so a wave
            // would keep every rate and re-anchor nothing.
            debug_assert!(self.wave_is_noop(now), "skipped wave would change a rate");
            self.min_due = self.min_due.min(due);
            self.wave_at = now;
        } else {
            self.reallocate(now);
        }
        self.prune_setup_heap();
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
        let gone = self.flows.position(id).map(|pos| {
            let (_, f) = self.flows.take(pos);
            self.flows.compact();
            self.obs.aborted.inc();
            (f.slot, f.due)
        });
        match gone {
            Some((Some(slot), _)) => {
                self.alloc.leave(slot);
                self.reallocate(now);
            }
            // Outside the demand set or already gone, and not the flow
            // `min_due` came from: a wave would change nothing, unless a
            // flow ran out of bytes since the last one.
            _ if gone.is_none_or(|(_, due)| due == SimTime::MAX || due > self.min_due)
                && self.demand_set_unchanged(now) =>
            {
                debug_assert!(self.wave_is_noop(now), "skipped wave would change a rate");
                self.wave_at = now;
            }
            _ => self.reallocate(now),
        }
        self.prune_setup_heap();
        gone.is_some()
    }

    /// Advances the network to `now` and returns every flow that has
    /// completed by then (possibly several).
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        let scope = self.obs.advance_scope.clone();
        let _timed = scope.enter();
        let mut done = Vec::new();
        // Completing flows frees capacity and speeds up the others, so
        // follow the earliest due instant until none falls before `now`.
        while self.min_due < SimTime::MAX {
            let t = self.min_due.max(self.last_advance);
            if t > now {
                break;
            }
            // Setup boundaries crossed by `t` may reallocate and move
            // projections, so settle first and re-examine.
            self.settle(t);
            if self.min_due > t {
                continue;
            }
            // Retire every flow due by `t` in ascending id order (the
            // table's own order, and the reference engine's tie order)
            // under one reallocation; no simulated time passes between
            // them, so the intermediate reallocations the reference
            // performs are unobservable.
            let mut from = (0, 0);
            while let Some(pos) = self.flows.next_due(&mut from, t) {
                // Leaves a hole, so the positions ahead stay put.
                let (id, f) = self.flows.take(pos);
                if let Some(slot) = f.slot {
                    self.alloc.leave(slot);
                }
                // Infinite-rate flows (loopback: no constraining links)
                // complete at their start instant with dt = 0, so their
                // bytes are never integrated away.
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
                done.push(Completion {
                    id,
                    at: t,
                    spec: f.spec,
                    duration,
                });
            }
            self.flows.compact();
            self.reallocate(t);
        }
        self.settle(now);
        self.prune_setup_heap();
        done
    }

    /// The next instant at which the network's state changes by itself
    /// (a flow finishing its setup phase or completing). The world should
    /// keep a wake-up event scheduled at this time.
    pub fn next_event_time(&self) -> Option<SimTime> {
        if self.flows.len() == 0 {
            return None;
        }
        // Both are `SimTime::MAX` when absent: flows exist but none can
        // make progress (e.g. every one crosses a link of zero
        // capacity), so there is no self-event.
        let completion = self.min_due.max(self.last_advance);
        let setup_end = self
            .setup_heap
            .peek()
            .map_or(SimTime::MAX, |&Reverse((t, _))| t);
        Some(completion.min(setup_end))
    }

    /// Moves the clock to `t` and reallocates iff a setup boundary was
    /// crossed in `(last_advance, t]`. Byte progress needs no per-flow
    /// work: each flow's anchor carries it (rates are constant between
    /// reallocation instants, which are always settle points).
    fn settle(&mut self, t: SimTime) {
        if t <= self.last_advance {
            return;
        }
        self.last_advance = t;
        let mut crossed = false;
        while let Some(&Reverse((s, id))) = self.setup_heap.peek() {
            if s > t {
                break;
            }
            self.setup_heap.pop();
            if self.flows.contains(id) {
                crossed = true;
            }
        }
        if crossed {
            self.reallocate(t);
        }
    }

    /// Whether the demand set at `now` is provably the one the last
    /// wave solved, given that nothing joined or left since (harvests,
    /// aborts of demand flows, setup crossings and joining starts all
    /// run a wave). Only a flow running out of bytes could have left
    /// since: not if the last wave ran at `now`, nor while every `due`
    /// lies more than [`RUN_OUT_MARGIN`] ahead.
    fn demand_set_unchanged(&self, now: SimTime) -> bool {
        self.wave_at == now
            || (!self.long_demand && self.min_due.saturating_since(now) > RUN_OUT_MARGIN)
    }

    /// Recomputes max–min fair rates for all flows past their setup
    /// phase: one walk moves flows into and out of the allocator's
    /// demand set, one solve (skipped when none moved), one walk
    /// applies. Flows whose rate actually changed are re-anchored at
    /// `last_advance` and get a fresh `due`; the apply walk also
    /// refreshes `min_due`.
    fn reallocate(&mut self, now: SimTime) {
        self.obs.realloc_waves.inc();
        let _wave = self.obs.realloc_scope.enter();
        let anchor = self.last_advance;
        for (id, f) in self.flows.iter_mut() {
            match (f.demands(now, anchor), f.slot) {
                (true, None) => {
                    let links = std::mem::take(&mut f.links);
                    f.slot = Some(self.alloc.join(&self.topo, id.0, links));
                }
                (false, Some(slot)) => {
                    // Bytes exhausted but not yet harvested by `advance`.
                    f.links = self.alloc.leave(slot);
                    f.slot = None;
                }
                _ => {}
            }
        }
        if self.alloc.is_dirty() {
            self.alloc.solve(&self.topo);
        } else {
            // Specs, paths and the topology are immutable, so the rates
            // are a pure function of the demand set: keep them.
            debug_assert!(
                self.alloc.matches_fresh_solve(&self.topo),
                "skipped solve would have changed a rate"
            );
        }
        let mut min_due = SimTime::MAX;
        let mut long_demand = false;
        for (_, f) in self.flows.iter_mut() {
            if let Some(slot) = f.slot {
                let r = self.alloc.rate(slot);
                if r != f.rate {
                    f.bytes_at_anchor = f.bytes_left_at(anchor);
                    f.anchor = anchor;
                    f.rate = r;
                    f.due = f.completion_at_anchor();
                }
                long_demand |= f.rate > 0.0
                    && f.due.saturating_since(f.anchor)
                        >= SimDuration::from_micros(LONG_TRANSFER_US);
            } else if f.rate != 0.0 {
                // Left the demand set: release its capacity claim. Its
                // `due` is kept for the eventual harvest.
                f.bytes_at_anchor = f.bytes_left_at(anchor);
                f.anchor = anchor;
                f.rate = 0.0;
            }
            min_due = min_due.min(f.due);
        }
        self.min_due = min_due;
        self.long_demand = long_demand;
        self.wave_at = anchor;
    }

    /// Whether a wave at `now` would be a no-op: the demand set is the
    /// one last solved, each demand flow holds its solved rate and no
    /// other flow holds one. Checks a skipped wave in debug builds
    /// without counting as one.
    fn wave_is_noop(&self, now: SimTime) -> bool {
        !self.alloc.is_dirty()
            && self
                .flows
                .iter()
                .all(|(_, f)| match (f.demands(now, self.last_advance), f.slot) {
                    (true, Some(slot)) => f.rate == self.alloc.rate(slot),
                    (false, None) => f.rate == 0.0,
                    _ => false,
                })
    }

    /// Discards entries of aborted or completed flows from the top of
    /// the setup heap so that `&self` peeks (`next_event_time`) see a
    /// live top. Called at the end of every public mutator.
    fn prune_setup_heap(&mut self) {
        while let Some(&Reverse((_, id))) = self.setup_heap.peek() {
            if self.flows.contains(id) {
                break;
            }
            self.setup_heap.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::HostLink;

    fn topo(n: usize) -> Topology {
        let mut t = Topology::new();
        for _ in 0..n {
            t.add_host(HostLink::symmetric_mbit(100.0, 0.0));
        }
        t
    }

    fn net(n: usize) -> Network {
        Network::new(topo(n))
    }

    fn drive_to_completion(net: &mut Network) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(t) = net.next_event_time() {
            assert!(t < SimTime::MAX, "stalled flow");
            out.extend(net.advance(t));
        }
        out
    }

    #[test]
    fn single_transfer_takes_size_over_rate() {
        let mut n = net(2);
        // 12.5 MB over 12.5 MB/s = 1 s.
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
        );
        let done = drive_to_completion(&mut n);
        assert_eq!(done.len(), 1);
        assert!(
            (done[0].at.as_secs_f64() - 1.0).abs() < 1e-3,
            "{:?}",
            done[0].at
        );
    }

    #[test]
    fn two_transfers_share_then_speed_up() {
        let mut n = net(3);
        // Both flows leave host 0 (shared uplink). Equal sizes: both
        // finish at 2 s (each gets half rate for the whole time).
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
        );
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(2), 12_500_000),
        );
        let done = drive_to_completion(&mut n);
        assert_eq!(done.len(), 2);
        for c in &done {
            assert!((c.at.as_secs_f64() - 2.0).abs() < 1e-3, "{:?}", c.at);
        }
    }

    #[test]
    fn short_flow_departure_speeds_up_long_flow() {
        let mut n = net(3);
        // Long: 25 MB; short: 6.25 MB, both on h0 uplink.
        // Phase 1: both at 6.25 MB/s until short finishes at t=1 (6.25MB).
        // Long then has 25-6.25=18.75 MB left at 12.5 MB/s → +1.5 s → t=2.5.
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 25_000_000),
        );
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(2), 6_250_000),
        );
        let done = drive_to_completion(&mut n);
        assert_eq!(done.len(), 2);
        assert!((done[0].at.as_secs_f64() - 1.0).abs() < 1e-3);
        assert!((done[1].at.as_secs_f64() - 2.5).abs() < 1e-3);
    }

    #[test]
    fn setup_latency_delays_start() {
        let mut n = net(2);
        let mut spec = FlowSpec::simple(HostId(0), HostId(1), 12_500_000);
        spec.setup_s = 3.0;
        n.start_flow(SimTime::ZERO, spec);
        let done = drive_to_completion(&mut n);
        assert!(
            (done[0].at.as_secs_f64() - 4.0).abs() < 1e-3,
            "{:?}",
            done[0].at
        );
    }

    #[test]
    fn abort_flow_frees_capacity() {
        let mut n = net(3);
        let a = n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
        );
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(2), 12_500_000),
        );
        // Abort A at t=0.5: B has transferred 3.125MB, then full rate.
        let t_half = SimTime::from_millis(500);
        assert!(n.abort_flow(t_half, a));
        assert!(!n.abort_flow(t_half, a));
        let done = drive_to_completion(&mut n);
        assert_eq!(done.len(), 1);
        // B: 3.125 MB by 0.5s, 9.375 MB remaining at 12.5 MB/s = 0.75 s → 1.25 s.
        assert!(
            (done[0].at.as_secs_f64() - 1.25).abs() < 1e-3,
            "{:?}",
            done[0].at
        );
    }

    #[test]
    fn relay_flow_consumes_relay_bandwidth() {
        let mut t = Topology::new();
        let a = t.add_host(HostLink::symmetric_mbit(100.0, 0.0));
        let b = t.add_host(HostLink::symmetric_mbit(100.0, 0.0));
        let relay = t.add_host(HostLink::symmetric_mbit(10.0, 0.0));
        let mut n = Network::new(t);
        let mut spec = FlowSpec::simple(a, b, 1_250_000); // 1.25 MB
        spec.via = vec![relay];
        n.start_flow(SimTime::ZERO, spec);
        let done = drive_to_completion(&mut n);
        // 1.25 MB at 1.25 MB/s (10 Mbit relay) = 1 s.
        assert!(
            (done[0].at.as_secs_f64() - 1.0).abs() < 1e-3,
            "{:?}",
            done[0].at
        );
    }

    #[test]
    fn bytes_delivered_accumulates() {
        let obs = vmr_obs::Obs::new();
        let mut n = Network::with_obs(topo(2), &obs);
        n.start_flow(SimTime::ZERO, FlowSpec::simple(HostId(0), HostId(1), 1000));
        drive_to_completion(&mut n);
        assert_eq!(obs.snapshot().counter("netsim.bytes_delivered"), 1000);
    }

    #[test]
    fn zero_byte_flow_completes_after_setup() {
        let mut n = net(2);
        let mut spec = FlowSpec::simple(HostId(0), HostId(1), 0);
        spec.setup_s = 0.25;
        n.start_flow(SimTime::ZERO, spec);
        let done = drive_to_completion(&mut n);
        assert_eq!(done.len(), 1);
        assert!((done[0].at.as_secs_f64() - 0.25).abs() < 1e-3);
    }

    #[test]
    fn advance_reports_multiple_completions() {
        let mut n = net(3);
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 1_250_000),
        );
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(2), HostId(1), 1_250_000),
        );
        // Jump far past both completions in one advance call.
        let done = n.advance(SimTime::from_secs(100));
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn same_instant_completions_batch_in_id_order() {
        let mut n = net(5);
        // Two identical flows on disjoint links: both complete at
        // exactly the same instant and must batch in id order.
        for i in 0..2 {
            n.start_flow(
                SimTime::ZERO,
                FlowSpec::simple(HostId(i), HostId(i + 2), 12_500_000),
            );
        }
        let done = n.advance(SimTime::from_secs(10));
        assert_eq!(done.len(), 2);
        assert!(done.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(done[0].at, done[1].at);
    }

    #[test]
    fn idle_advance_does_not_disturb_projections() {
        let mut n = net(2);
        let id = n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
        );
        let before = n.next_event_time().unwrap();
        // Settles with no setup boundary crossed: no reallocation, and
        // the projected completion (the next event) must not move.
        for ms in [1u64, 5, 9, 400] {
            n.advance(SimTime::from_millis(ms));
            assert_eq!(n.next_event_time(), Some(before));
        }
        let done = n.advance(before);
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].id, done[0].at), (id, before));
    }

    /// A network of `n` hosts and its `netsim.realloc_waves` counter.
    fn counted_net(n: usize) -> (Network, vmr_obs::Counter) {
        let obs = vmr_obs::Obs::detached();
        let waves = obs.counter("netsim.realloc_waves");
        (Network::with_obs(net(n).topo, &obs), waves)
    }

    fn in_setup(src: u32, dst: u32, bytes: u64, setup_s: f64) -> FlowSpec {
        let mut spec = FlowSpec::simple(HostId(src), HostId(dst), bytes);
        spec.setup_s = setup_s;
        spec
    }

    #[test]
    fn same_instant_setup_starts_cost_one_wave() {
        let (mut n, waves) = counted_net(6);
        let now = SimTime::from_secs(1);
        for k in 0..5 {
            n.start_flow(now, in_setup(k, 5, 1_250_000, 0.1 * (k + 1) as f64));
        }
        assert_eq!(waves.get(), 0, "k in-setup starts at one instant");
        let done = drive_to_completion(&mut n);
        assert_eq!(done.len(), 5);
    }

    #[test]
    fn zero_setup_start_in_a_burst_pays_a_wave() {
        let (mut n, waves) = counted_net(6);
        let now = SimTime::from_secs(1);
        n.start_flow(now, in_setup(0, 5, 1_250_000, 0.5));
        n.start_flow(now, in_setup(1, 5, 1_250_000, 0.5));
        assert_eq!(waves.get(), 0);
        // Joins the demand set at once: it needs a rate now.
        let id = n.start_flow(now, in_setup(2, 4, 1_250_000, 0.0));
        assert_eq!(waves.get(), 1);
        assert_eq!(n.flow_rate(id), Some(12_500_000.0));
        n.start_flow(now, in_setup(3, 5, 1_250_000, 0.5));
        assert_eq!(waves.get(), 1);
        assert_eq!(drive_to_completion(&mut n).len(), 4);
    }

    #[test]
    fn zero_byte_start_in_a_burst_is_due() {
        let (mut n, waves) = counted_net(4);
        let now = SimTime::from_secs(1);
        n.start_flow(now, in_setup(0, 1, 1_250_000, 0.5));
        assert_eq!(n.next_event_time(), Some(SimTime::from_millis(1500)));
        // No setup, no bytes: never in the demand set, due right away.
        let id = n.start_flow(now, in_setup(2, 3, 0, 0.0));
        assert_eq!(waves.get(), 0);
        assert_eq!(n.next_event_time(), Some(now));
        let done = n.advance(now);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(n.next_event_time(), Some(SimTime::from_millis(1500)));
    }

    #[test]
    fn start_when_an_unharvested_flow_runs_out_pays_a_wave() {
        let (mut n, waves) = counted_net(3);
        // 12.5 kB at 12.5 MB/s: out of bytes after ~1 ms.
        let a = n.start_flow(SimTime::ZERO, in_setup(0, 1, 12_500, 0.0));
        let out_at = n.next_event_time().unwrap();
        assert_eq!(waves.get(), 1);
        // An in-setup start at that instant, before `advance` harvested
        // `a`: the wave it pays takes `a`'s rate away.
        n.start_flow(out_at, in_setup(0, 2, 12_500, 1.0));
        assert_eq!(waves.get(), 2);
        assert_eq!(n.flow_rate(a), Some(0.0));
        let done = drive_to_completion(&mut n);
        assert_eq!((done[0].id, done[0].at), (a, out_at));
    }

    #[test]
    fn in_setup_start_at_a_new_instant_costs_no_wave() {
        let (mut n, waves) = counted_net(4);
        let a = n.start_flow(SimTime::ZERO, in_setup(0, 1, 12_500_000, 0.0));
        assert_eq!(waves.get(), 1);
        let due = n.next_event_time().unwrap();
        // Half a second on, nothing is due: the demand set is {a}.
        n.start_flow(SimTime::from_millis(500), in_setup(2, 3, 1_250_000, 0.1));
        assert_eq!(waves.get(), 1);
        assert_eq!(n.flow_rate(a), Some(12_500_000.0));
        assert_eq!(n.next_event_time(), Some(SimTime::from_millis(600)));
        let done = drive_to_completion(&mut n);
        assert_eq!((done[1].id, done[1].at), (a, due));
    }

    #[test]
    fn abort_of_an_in_setup_flow_costs_no_wave() {
        let (mut n, waves) = counted_net(4);
        let a = n.start_flow(SimTime::ZERO, in_setup(0, 1, 12_500_000, 0.0));
        let b = n.start_flow(SimTime::ZERO, in_setup(2, 3, 1_250_000, 2.0));
        assert_eq!(waves.get(), 1);
        assert!(n.abort_flow(SimTime::from_millis(300), b));
        assert_eq!(waves.get(), 1);
        assert_eq!(n.next_event_time(), Some(SimTime::from_secs(1)));
        // A demand flow's abort frees capacity: that one pays.
        n.start_flow(SimTime::from_millis(400), in_setup(0, 2, 1_250_000, 0.0));
        assert_eq!(waves.get(), 2);
        assert!(n.abort_flow(SimTime::from_millis(500), a));
        assert_eq!(waves.get(), 3);
        assert_eq!(drive_to_completion(&mut n).len(), 1);
    }

    #[test]
    fn start_just_before_a_rounded_run_out_pays_a_wave() {
        let (mut n, waves) = counted_net(4);
        // 3 075 bytes at 12.5 MB/s: 246.000…03 µs, so due at 247 µs,
        // but the bytes left read 0 from 246 µs on.
        let a = n.start_flow(SimTime::ZERO, in_setup(0, 1, 3_075, 0.0));
        assert_eq!(n.next_event_time(), Some(SimTime::from_micros(247)));
        assert_eq!(waves.get(), 1);
        n.start_flow(SimTime::from_micros(246), in_setup(2, 3, 1_000, 1.0));
        assert_eq!(waves.get(), 2, "a is out of bytes one µs before its due");
        assert_eq!(n.flow_rate(a), Some(0.0));
        let done = drive_to_completion(&mut n);
        assert_eq!((done[0].id, done[0].at), (a, SimTime::from_micros(247)));
    }

    #[test]
    fn k_joins_at_one_instant_cost_one_solve() {
        let (mut n, waves) = counted_net(6);
        // Set-up phases all end at 1 s.
        for k in 0..5u32 {
            let at = SimTime::from_millis(100 * k as u64);
            n.start_flow(at, in_setup(k, 5, 1_250_000, 1.0 - 0.1 * k as f64));
        }
        assert_eq!(waves.get(), 0);
        assert_eq!(n.next_event_time(), Some(SimTime::from_secs(1)));
        assert!(n.advance(SimTime::from_secs(1)).is_empty());
        assert_eq!(waves.get(), 1, "five flows join in one wave");
        assert_eq!(n.demand_rates().len(), 5);
        assert_eq!(drive_to_completion(&mut n).len(), 5);
    }

    #[test]
    fn flow_table_spans_pages_and_compacts() {
        let mut n = net(2);
        let ids: Vec<FlowId> = (0..3 * PAGE as u64)
            .map(|_| n.start_flow(SimTime::ZERO, in_setup(0, 1, 1_000, 5.0)))
            .collect();
        // Two of every three go: holes outnumber flows, and the table
        // compacts across its pages.
        for (k, &id) in ids.iter().enumerate() {
            if k % 3 != 0 {
                assert!(n.abort_flow(SimTime::ZERO, id));
            }
        }
        assert_eq!(n.active_flows(), PAGE);
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(n.flow_rate(id).is_some(), k % 3 == 0);
        }
        // Equal flows on one uplink finish together, reported in id order.
        let done = drive_to_completion(&mut n);
        assert!(done.iter().map(|c| c.id).eq(ids.iter().copied().step_by(3)));
    }

    #[test]
    fn flow_rate_drops_to_zero_when_bytes_exhausted_unharvested() {
        let mut n = net(3);
        let a = n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500),
        );
        // Start another flow long after `a`'s bytes are done but before
        // any advance() harvested it: `a` must not hold capacity.
        let b = n.start_flow(
            SimTime::from_secs(5),
            FlowSpec::simple(HostId(0), HostId(2), 1),
        );
        assert_eq!(n.flow_rate(a), Some(0.0));
        assert_eq!(n.flow_rate(b), Some(12_500_000.0));
        let done = n.advance(SimTime::from_secs(6));
        assert_eq!(done.len(), 2);
        // `a` is harvested at the settle point where it was overtaken.
        assert_eq!(done[0].id, a);
        assert!(done[0].at >= SimTime::from_secs(5));
    }
}
