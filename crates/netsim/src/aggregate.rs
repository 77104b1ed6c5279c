//! Internet-scale flow engine: exact below a threshold, aggregated above.
//!
//! [`AggregateNetwork`] wraps two regimes behind the [`crate::Network`]
//! API:
//!
//! * **Exact regime.** Below [`ScalePolicy::coalesce_threshold`] active
//!   flows, every call delegates to an embedded [`Network`], so testbed-
//!   scale runs (the paper's ~40 Emulab hosts) reproduce the incremental
//!   engine — and therefore [`crate::NaiveNetwork`] — *bit for bit*.
//! * **Scale regime.** When the active-flow count reaches the threshold
//!   the engine migrates once (a one-way ratchet) to an aggregated
//!   fluid model built for 10⁵⁺ hosts:
//!
//!   - **Flow-class coalescing.** Flows sharing the same (path, class,
//!     rate-cap) collapse into one *pool* served processor-sharing
//!     style: a per-member service accumulator `S(t)` advances at the
//!     pool's per-member rate, each member carries a finish tag
//!     `S(join) + bytes`, and a per-pool min-heap of tags expands the
//!     aggregate back into per-flow completion events lazily.
//!   - **Min-share rates.** Instead of global progressive filling, each
//!     link publishes a per-flow share `cap / W` for its class (`W` =
//!     flows of that class crossing it); a pool's per-member rate is the
//!     minimum published share along its path, clamped by the rate cap.
//!     Published shares are a provable *lower bound* on the true
//!     max–min rates (progressive filling never freezes a flow below
//!     `cap/W` on any of its links), so aggregate makespans bound the
//!     exact ones from above — the equivalence suite asserts the ratio.
//!   - **Quantized publication.** Shares are truncated to a few
//!     mantissa bits ([`ScalePolicy::quantum_mantissa_bits`]), so a
//!     ±1-flow change on a busy ISP aggregation link usually lands in
//!     the same bucket and re-rates *nothing*; truncation rounds down,
//!     so quantization can never oversubscribe a link.
//!   - **Local event core.** Per-pool lazy-invalidation member heaps
//!     plus a generation-tagged pool-completion heap mean a rate change
//!     at one access link touches only the pools crossing the links
//!     whose published share actually moved — per-event cost follows
//!     the *affected* set, not the in-flight population.
//!
//! Priorities keep their TCP-Nice semantics: foreground shares are
//! computed first, background pools split each link's measured leftover
//! (`cap − Σ foreground rates`).

use crate::bandwidth::Priority;
use crate::flow::{Completion, Dismantled, FlowId, FlowSpec, MigratedFlow, Network};
use crate::obs::NetObs;
use crate::topology::Topology;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use vmr_desim::{SimDuration, SimTime, Tally};
use vmr_obs::EventKind;

/// When and how aggressively [`AggregateNetwork`] leaves the exact
/// regime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalePolicy {
    /// Active-flow count at which the engine migrates to the scale
    /// regime (one-way). `usize::MAX` never migrates.
    pub coalesce_threshold: usize,
    /// Mantissa bits kept when publishing per-link shares in the scale
    /// regime; `52` publishes exact quotients, `6` buckets shares into
    /// ~1.5 % steps so busy links re-rate their pools rarely.
    pub quantum_mantissa_bits: u32,
}

impl ScalePolicy {
    /// Never aggregate: every call delegates to the exact incremental
    /// engine. Output is bit-identical to [`Network`] at any scale.
    pub fn exact() -> Self {
        ScalePolicy {
            coalesce_threshold: usize::MAX,
            quantum_mantissa_bits: 52,
        }
    }

    /// Internet-scale default: ratchet into the aggregated regime once
    /// 256 flows are in flight, publish shares in ~1.5 % buckets.
    pub fn internet() -> Self {
        ScalePolicy {
            coalesce_threshold: 256,
            quantum_mantissa_bits: 6,
        }
    }
}

impl Default for ScalePolicy {
    fn default() -> Self {
        ScalePolicy::exact()
    }
}

/// Truncates a positive share down to the policy's bucket width.
/// Truncation never rounds up, so quantized shares cannot oversubscribe.
fn quantize(mask: u64, x: f64) -> f64 {
    if x <= 0.0 || !x.is_finite() {
        return x.max(0.0);
    }
    f64::from_bits(x.to_bits() & mask)
}

/// Member state of one in-flight flow in the scale regime.
#[derive(Clone, Debug)]
enum FState {
    /// Setup latency still running; joins its pool at `starts_at`.
    Pending,
    /// No constraining links or no bytes: completes at a fixed instant.
    Direct,
    /// Member of pool `pool`, finishing when its service accumulator
    /// reaches `tag`.
    Pooled { pool: u32, tag: f64 },
}

#[derive(Clone, Debug)]
struct ScaleFlow {
    spec: FlowSpec,
    links: Vec<u32>,
    /// Bytes to serve once the flow joins its pool (remaining bytes for
    /// flows migrated mid-transfer).
    bytes_f: f64,
    created_at: SimTime,
    starts_at: SimTime,
    state: FState,
}

/// One coalesced flow class: every member shares the same path links,
/// priority and rate cap, and is served processor-sharing style.
struct Pool {
    links: Vec<u32>,
    is_bg: bool,
    rate_cap: Option<f64>,
    /// Min-heap of (finish-tag bits, flow id); entries whose flow no
    /// longer exists (aborted / harvested) are discarded lazily.
    members: BinaryHeap<Reverse<(u64, u64)>>,
    /// Live member count (the heap may hold dead entries).
    n: u32,
    /// Per-member service (bytes) accumulated by `anchor`.
    service: f64,
    anchor: SimTime,
    /// Current per-member rate, bytes/second.
    rate: f64,
    /// Membership changed since the last republish, so the completion
    /// entry must be refreshed even if the rate is unchanged.
    members_dirty: bool,
}

impl Pool {
    fn service_at(&self, t: SimTime) -> f64 {
        self.service + self.rate * t.saturating_since(self.anchor).as_secs_f64()
    }

    fn reanchor(&mut self, t: SimTime) {
        self.service = self.service_at(t);
        self.anchor = t;
    }

    /// Completion instant of a member with finish tag `tag` under the
    /// current anchor/rate (the same ceil-to-µs rounding as the exact
    /// engine, so the instant is reached with the bytes provably sent).
    fn member_completion(&self, tag: f64) -> Option<SimTime> {
        if tag <= self.service {
            return Some(self.anchor);
        }
        if self.rate <= 1e-12 {
            return None;
        }
        let us = ((tag - self.service) / self.rate * 1e6).ceil();
        if us >= u64::MAX as f64 {
            return None;
        }
        Some(self.anchor + SimDuration::from_micros(us as u64))
    }
}

/// Pool arena slot. The generation outlives the pool (it is bumped on
/// destruction and survives slot reuse) so completion-heap entries for
/// a previous occupant can never validate against a new one.
struct Slot {
    gen: u64,
    pool: Option<Pool>,
}

/// Per-dense-link published-share state.
struct LinkState {
    cap: f64,
    /// Foreground / background flows crossing this link (pool members
    /// counted individually).
    fg_n: u32,
    bg_n: u32,
    /// Σ members · per-member-rate over foreground pools on this link —
    /// the measured foreground consumption the background class
    /// scavenges around.
    fg_consumed: f64,
    /// Published (quantized) per-flow share for each class.
    pub_fg: f64,
    pub_bg: f64,
    fg_pools: BTreeSet<u32>,
    bg_pools: BTreeSet<u32>,
}

type PoolKey = (Vec<u32>, bool, Option<u64>);

struct ScaleState {
    topo: Topology,
    quant_mask: u64,
    links: Vec<LinkState>,
    pools: Vec<Slot>,
    free_pools: Vec<u32>,
    pool_ids: HashMap<PoolKey, u32>,
    flows: HashMap<u64, ScaleFlow>,
    next_id: u64,
    last_advance: SimTime,
    fg_durations: Tally,
    bg_durations: Tally,
    bytes_delivered: f64,
    /// Min-heap of (instant, pool, generation); stale generations are
    /// discarded lazily.
    completion_heap: BinaryHeap<Reverse<(SimTime, u32, u64)>>,
    /// Min-heap of setup boundaries (starts_at, flow).
    pending_heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Min-heap of fixed-instant completions (loopback / zero-byte).
    direct_heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Completions already processed but not yet returned by `advance`.
    pending_out: Vec<Completion>,
    /// Links whose class weights changed since the last republish.
    dirty_links: Vec<u32>,
    /// Pools needing a re-rate / entry refresh, by class.
    touched_fg: Vec<u32>,
    touched_bg: Vec<u32>,
    /// Scratch for the per-instant completion batch.
    batch: Vec<Completion>,
    /// Pools currently coalescing ≥ 2 members, and the run's peak.
    aggregates: usize,
    peak_aggregates: usize,
    coalesce_hits: u64,
    splits: u64,
}

impl ScaleState {
    fn new(topo: Topology, quantum_mantissa_bits: u32) -> Self {
        let links = (0..topo.num_links())
            .map(|i| LinkState {
                cap: topo.capacity_at(i),
                fg_n: 0,
                bg_n: 0,
                fg_consumed: 0.0,
                pub_fg: 0.0,
                pub_bg: 0.0,
                fg_pools: BTreeSet::new(),
                bg_pools: BTreeSet::new(),
            })
            .collect();
        let quant_mask = if quantum_mantissa_bits >= 52 {
            !0u64
        } else {
            !((1u64 << (52 - quantum_mantissa_bits)) - 1)
        };
        ScaleState {
            topo,
            quant_mask,
            links,
            pools: Vec::new(),
            free_pools: Vec::new(),
            pool_ids: HashMap::new(),
            flows: HashMap::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            fg_durations: Tally::new(),
            bg_durations: Tally::new(),
            bytes_delivered: 0.0,
            completion_heap: BinaryHeap::new(),
            pending_heap: BinaryHeap::new(),
            direct_heap: BinaryHeap::new(),
            pending_out: Vec::new(),
            dirty_links: Vec::new(),
            touched_fg: Vec::new(),
            touched_bg: Vec::new(),
            batch: Vec::new(),
            aggregates: 0,
            peak_aggregates: 0,
            coalesce_hits: 0,
            splits: 0,
        }
    }

    fn pool(&self, id: u32) -> &Pool {
        self.pools[id as usize].pool.as_ref().expect("dead pool")
    }

    fn pool_mut(&mut self, id: u32) -> &mut Pool {
        self.pools[id as usize].pool.as_mut().expect("dead pool")
    }

    /// A member entry is live while its flow still points at this pool.
    fn member_live(&self, pool: u32, flow: u64) -> bool {
        self.flows
            .get(&flow)
            .is_some_and(|f| matches!(f.state, FState::Pooled { pool: p, .. } if p == pool))
    }

    fn set_aggregates(&mut self, v: usize, obs: &NetObs) {
        self.aggregates = v;
        self.peak_aggregates = self.peak_aggregates.max(v);
        obs.aggregates.set(v as f64);
    }

    /// Joins flow `id` (already in `flows`) to its pool at instant `t`
    /// with `bytes` left to serve. Marks links dirty; the caller runs
    /// `republish(t)` before time moves on.
    fn join(&mut self, t: SimTime, id: u64, bytes: f64, obs: &NetObs) {
        let (links, is_bg, rate_cap) = {
            let f = &self.flows[&id];
            (
                f.links.clone(),
                f.spec.priority == Priority::Background,
                f.spec.rate_cap,
            )
        };
        let key: PoolKey = (links.clone(), is_bg, rate_cap.map(f64::to_bits));
        let pid = match self.pool_ids.get(&key) {
            Some(&p) => p,
            None => {
                let pool = Pool {
                    links: links.clone(),
                    is_bg,
                    rate_cap,
                    members: BinaryHeap::new(),
                    n: 0,
                    service: 0.0,
                    anchor: t,
                    rate: 0.0,
                    members_dirty: false,
                };
                let pid = match self.free_pools.pop() {
                    Some(slot) => {
                        self.pools[slot as usize].pool = Some(pool);
                        slot
                    }
                    None => {
                        self.pools.push(Slot {
                            gen: 0,
                            pool: Some(pool),
                        });
                        (self.pools.len() - 1) as u32
                    }
                };
                for &l in &links {
                    let ls = &mut self.links[l as usize];
                    if is_bg {
                        ls.bg_pools.insert(pid);
                    } else {
                        ls.fg_pools.insert(pid);
                    }
                }
                self.pool_ids.insert(key, pid);
                pid
            }
        };
        let (tag, n_before, rate) = {
            let p = self.pool_mut(pid);
            let tag = p.service_at(t) + bytes;
            p.members.push(Reverse((tag.to_bits(), id)));
            let n_before = p.n;
            p.n += 1;
            p.members_dirty = true;
            (tag, n_before, p.rate)
        };
        if n_before >= 1 {
            self.coalesce_hits += 1;
            obs.coalesce_hits.inc();
            if n_before == 1 {
                self.set_aggregates(self.aggregates + 1, obs);
            }
        }
        for &l in &links {
            let ls = &mut self.links[l as usize];
            if is_bg {
                ls.bg_n += 1;
            } else {
                ls.fg_n += 1;
                ls.fg_consumed += rate;
            }
            self.dirty_links.push(l);
        }
        if is_bg {
            self.touched_bg.push(pid);
        } else {
            self.touched_fg.push(pid);
        }
        self.flows.get_mut(&id).expect("joining unknown flow").state =
            FState::Pooled { pool: pid, tag };
    }

    /// Removes `removed` members (already popped / invalidated) from
    /// pool `pid`'s accounting. Marks links dirty; destroys empty pools.
    fn shrink_pool(&mut self, pid: u32, removed: u32, obs: &NetObs) {
        let (links, is_bg, rate, n_after) = {
            let p = self.pool_mut(pid);
            debug_assert!(p.n >= removed);
            p.n -= removed;
            p.members_dirty = true;
            (p.links.clone(), p.is_bg, p.rate, p.n)
        };
        for &l in &links {
            let ls = &mut self.links[l as usize];
            if is_bg {
                ls.bg_n -= removed;
            } else {
                ls.fg_n -= removed;
                ls.fg_consumed -= removed as f64 * rate;
            }
            self.dirty_links.push(l);
        }
        if n_after + removed >= 2 && n_after < 2 {
            self.set_aggregates(self.aggregates - 1, obs);
        }
        if n_after == 0 {
            let slot = &mut self.pools[pid as usize];
            slot.gen += 1;
            let p = slot.pool.take().expect("dead pool");
            let key: PoolKey = (p.links.clone(), p.is_bg, p.rate_cap.map(f64::to_bits));
            self.pool_ids.remove(&key);
            for &l in &p.links {
                let ls = &mut self.links[l as usize];
                if p.is_bg {
                    ls.bg_pools.remove(&pid);
                } else {
                    ls.fg_pools.remove(&pid);
                }
            }
            self.free_pools.push(pid);
        } else if is_bg {
            self.touched_bg.push(pid);
        } else {
            self.touched_fg.push(pid);
        }
    }

    /// Min published share along the pool's path, clamped by its cap.
    fn pool_rate(&self, pid: u32) -> f64 {
        let p = self.pool(pid);
        let mut r = f64::INFINITY;
        for &l in &p.links {
            let ls = &self.links[l as usize];
            let share = if p.is_bg { ls.pub_bg } else { ls.pub_fg };
            r = r.min(share);
        }
        if let Some(cap) = p.rate_cap {
            r = r.min(cap);
        }
        r
    }

    /// Pushes a fresh completion-heap entry for the pool's earliest
    /// live member (bumping the generation so older entries go stale).
    fn refresh_entry(&mut self, pid: u32) {
        let due = loop {
            let Some(&Reverse((tag_bits, fid))) = self.pool(pid).members.peek() else {
                break None;
            };
            if self.member_live(pid, fid) {
                break self.pool(pid).member_completion(f64::from_bits(tag_bits));
            }
            self.pool_mut(pid).members.pop();
        };
        let slot = &mut self.pools[pid as usize];
        slot.gen += 1;
        if let Some(t) = due {
            self.completion_heap.push(Reverse((t, pid, slot.gen)));
        }
    }

    /// Recomputes published shares on dirty links and re-rates the
    /// affected pools, foreground first. Background scavenges the
    /// measured foreground consumption and influences nothing itself,
    /// so two phases suffice — no cascade.
    ///
    /// Two scale filters keep hot shared links (an ISP tier serving
    /// thousands of pools, the backbone serving all of them) from
    /// turning every bucket crossing into an O(pools) wave:
    /// * a pool bottlenecked strictly below both the old and the new
    ///   published share of a changed link cannot change rate, so it is
    ///   never visited;
    /// * a visited pool's completion entry is only refreshed when its
    ///   rate or membership actually changed (an untouched entry stays
    ///   valid — same generation, same members, same rate).
    fn republish(&mut self, t: SimTime) {
        let mask = self.quant_mask;
        let mut links = std::mem::take(&mut self.dirty_links);
        links.sort_unstable();
        links.dedup();
        let mut bg_links = links.clone();
        let mut fgp = std::mem::take(&mut self.touched_fg);
        for &l in &links {
            let ls = &mut self.links[l as usize];
            if ls.fg_n == 0 {
                continue;
            }
            let share = quantize(mask, ls.cap / ls.fg_n as f64);
            if share == ls.pub_fg {
                continue;
            }
            let lo = share.min(ls.pub_fg);
            ls.pub_fg = share;
            let ls = &self.links[l as usize];
            let pools = &self.pools;
            fgp.extend(ls.fg_pools.iter().copied().filter(|&pid| {
                pools[pid as usize]
                    .pool
                    .as_ref()
                    .is_some_and(|p| p.rate >= lo)
            }));
        }
        fgp.sort_unstable();
        fgp.dedup();
        for &pid in &fgp {
            if self.pools[pid as usize].pool.is_none() {
                continue;
            }
            let new_rate = self.pool_rate(pid);
            let p = self.pool_mut(pid);
            let dirty = std::mem::take(&mut p.members_dirty);
            if new_rate != p.rate {
                let old = p.rate;
                let n = p.n as f64;
                p.reanchor(t);
                p.rate = new_rate;
                let plinks = p.links.clone();
                for &l in &plinks {
                    self.links[l as usize].fg_consumed += n * (new_rate - old);
                    bg_links.push(l);
                }
                self.refresh_entry(pid);
            } else if dirty {
                self.refresh_entry(pid);
            }
        }
        fgp.clear();
        self.touched_fg = fgp;

        bg_links.sort_unstable();
        bg_links.dedup();
        let mut bgp = std::mem::take(&mut self.touched_bg);
        for &l in &bg_links {
            let ls = &mut self.links[l as usize];
            if ls.bg_n == 0 {
                continue;
            }
            let left = (ls.cap - ls.fg_consumed).max(0.0);
            let share = quantize(mask, left / ls.bg_n as f64);
            if share == ls.pub_bg {
                continue;
            }
            let lo = share.min(ls.pub_bg);
            ls.pub_bg = share;
            let ls = &self.links[l as usize];
            let pools = &self.pools;
            bgp.extend(ls.bg_pools.iter().copied().filter(|&pid| {
                pools[pid as usize]
                    .pool
                    .as_ref()
                    .is_some_and(|p| p.rate >= lo)
            }));
        }
        bgp.sort_unstable();
        bgp.dedup();
        for &pid in &bgp {
            if self.pools[pid as usize].pool.is_none() {
                continue;
            }
            let new_rate = self.pool_rate(pid);
            let p = self.pool_mut(pid);
            let dirty = std::mem::take(&mut p.members_dirty);
            if new_rate != p.rate {
                p.reanchor(t);
                p.rate = new_rate;
                self.refresh_entry(pid);
            } else if dirty {
                self.refresh_entry(pid);
            }
        }
        bgp.clear();
        self.touched_bg = bgp;
        links.clear();
        self.dirty_links = links;
    }

    /// Earliest internal event (setup boundary, direct completion, pool
    /// completion), assuming tops were pruned.
    fn next_internal_event(&self) -> Option<SimTime> {
        let mut t: Option<SimTime> = None;
        let mut fold = |x: Option<SimTime>| {
            t = match (t, x) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };
        fold(self.pending_heap.peek().map(|&Reverse((s, _))| s));
        fold(self.direct_heap.peek().map(|&Reverse((s, _))| s));
        fold(self.completion_heap.peek().map(|&Reverse((s, _, _))| s));
        t
    }

    /// Drops dead/stale entries from the top of every heap so `&self`
    /// peeks see valid tops.
    fn prune_tops(&mut self) {
        while let Some(&Reverse((_, id))) = self.pending_heap.peek() {
            if self
                .flows
                .get(&id)
                .is_some_and(|f| matches!(f.state, FState::Pending))
            {
                break;
            }
            self.pending_heap.pop();
        }
        while let Some(&Reverse((_, id))) = self.direct_heap.peek() {
            if self.flows.contains_key(&id) {
                break;
            }
            self.direct_heap.pop();
        }
        while let Some(&Reverse((_, pid, generation))) = self.completion_heap.peek() {
            let slot = &self.pools[pid as usize];
            if slot.pool.is_some() && slot.gen == generation {
                break;
            }
            self.completion_heap.pop();
        }
    }

    /// Processes every internal event up to and including `now`, in
    /// chronological order, buffering completions into `pending_out`.
    fn process_until(&mut self, now: SimTime, obs: &NetObs) {
        loop {
            self.prune_tops();
            let Some(t) = self.next_internal_event() else {
                break;
            };
            if t > now {
                break;
            }
            if t > self.last_advance {
                self.last_advance = t;
            }
            // Setup boundaries at `t`: flows enter their pools first, so
            // they share capacity from this instant on.
            while let Some(&Reverse((s, id))) = self.pending_heap.peek() {
                if s > t {
                    break;
                }
                self.pending_heap.pop();
                let Some(f) = self.flows.get(&id) else {
                    continue;
                };
                if !matches!(f.state, FState::Pending) {
                    continue;
                }
                let bytes = f.bytes_f;
                self.join(t, id, bytes, obs);
            }
            // Fixed-instant completions (loopback / zero-byte flows).
            let mut batch = std::mem::take(&mut self.batch);
            while let Some(&Reverse((s, id))) = self.direct_heap.peek() {
                if s > t {
                    break;
                }
                self.direct_heap.pop();
                let Some(f) = self.flows.remove(&id) else {
                    continue;
                };
                batch.push(Completion {
                    id: FlowId(id),
                    at: t,
                    duration: t.saturating_since(f.created_at),
                    spec: f.spec,
                });
            }
            // Pool completions due at `t`: expand the aggregates back
            // into per-flow events.
            loop {
                self.prune_tops();
                let Some(&Reverse((s, pid, _))) = self.completion_heap.peek() else {
                    break;
                };
                if s > t {
                    break;
                }
                self.completion_heap.pop();
                let mut harvested = 0u32;
                while let Some(&Reverse((tag_bits, fid))) = self.pool(pid).members.peek() {
                    if !self.member_live(pid, fid) {
                        self.pool_mut(pid).members.pop();
                        continue;
                    }
                    let due = self.pool(pid).member_completion(f64::from_bits(tag_bits));
                    if due.is_none_or(|d| d > t) {
                        break;
                    }
                    self.pool_mut(pid).members.pop();
                    let f = self.flows.remove(&fid).expect("live member vanished");
                    if self.pool(pid).n >= 2 {
                        self.splits += 1;
                        obs.splits.inc();
                    }
                    harvested += 1;
                    batch.push(Completion {
                        id: FlowId(fid),
                        at: t,
                        duration: t.saturating_since(f.created_at),
                        spec: f.spec,
                    });
                }
                if harvested > 0 {
                    self.pool_mut(pid).reanchor(t);
                    self.shrink_pool(pid, harvested, obs);
                } else {
                    // The due member was aborted out from under the
                    // entry: queue a fresh one so the pool cannot stall.
                    self.refresh_entry(pid);
                }
            }
            // Report the instant's batch in ascending flow-id order (the
            // exact engine's tie order).
            batch.sort_unstable_by_key(|c| c.id);
            for c in batch.drain(..) {
                match c.spec.priority {
                    Priority::Foreground => self.fg_durations.record_duration(c.duration),
                    Priority::Background => self.bg_durations.record_duration(c.duration),
                }
                self.bytes_delivered += c.spec.bytes as f64;
                obs.completed.inc();
                obs.bytes.add(c.spec.bytes);
                obs.journal
                    .record_with(c.at.as_micros(), || EventKind::FlowComplete {
                        id: c.id.0,
                        bytes: c.spec.bytes,
                        dur_us: c.duration.as_micros(),
                    });
                self.pending_out.push(c);
            }
            self.batch = batch;
            self.republish(t);
        }
        if now > self.last_advance {
            self.last_advance = now;
        }
    }

    fn start_flow(&mut self, now: SimTime, spec: FlowSpec, obs: &NetObs) -> FlowId {
        self.process_until(now, obs);
        let id = self.next_id;
        self.next_id += 1;
        let mut links = Vec::with_capacity(2 + 2 * spec.via.len());
        self.topo
            .route_into(spec.src, &spec.via, spec.dst, &mut links);
        let setup =
            SimDuration::from_secs_f64(spec.setup_s + self.topo.latency(spec.src, spec.dst));
        let starts_at = now + setup;
        let bytes_f = spec.bytes as f64;
        // A linkless (loopback) flow with a rate cap is still paced by
        // the cap, exactly as in the exact engine — only capless
        // linkless or zero-byte flows complete at setup end.
        let unconstrained = bytes_f <= 1e-9 || (links.is_empty() && spec.rate_cap.is_none());
        let flow_bytes = spec.bytes;
        self.flows.insert(
            id,
            ScaleFlow {
                spec,
                links,
                bytes_f,
                created_at: now,
                starts_at,
                state: if unconstrained {
                    FState::Direct
                } else {
                    FState::Pending
                },
            },
        );
        if unconstrained {
            // No constraining links or no bytes: done as soon as setup
            // ends.
            self.direct_heap
                .push(Reverse((starts_at.max(self.last_advance), id)));
        } else if starts_at > now {
            self.pending_heap.push(Reverse((starts_at, id)));
        } else {
            self.join(now, id, bytes_f, obs);
            self.republish(now);
        }
        obs.started.inc();
        obs.journal
            .record_with(now.as_micros(), || EventKind::FlowStart {
                id,
                bytes: flow_bytes,
            });
        self.prune_tops();
        FlowId(id)
    }

    fn abort_flow(&mut self, now: SimTime, id: FlowId, obs: &NetObs) -> bool {
        self.process_until(now, obs);
        let Some(f) = self.flows.remove(&id.0) else {
            self.prune_tops();
            return false;
        };
        if let FState::Pooled { pool, .. } = f.state {
            self.pool_mut(pool).reanchor(now);
            self.shrink_pool(pool, 1, obs);
            self.republish(now);
        }
        obs.aborted.inc();
        self.prune_tops();
        true
    }

    fn advance(&mut self, now: SimTime, obs: &NetObs) -> Vec<Completion> {
        self.process_until(now, obs);
        self.prune_tops();
        std::mem::take(&mut self.pending_out)
    }

    fn next_event_time(&self) -> Option<SimTime> {
        if !self.pending_out.is_empty() {
            // Already-processed completions wait for the next `advance`.
            return Some(self.last_advance);
        }
        if self.flows.is_empty() {
            return None;
        }
        // Flows exist but nothing can fire (e.g. starved background
        // pools): mirror the exact engine's "no self-event" sentinel.
        Some(self.next_internal_event().unwrap_or(SimTime::MAX))
    }

    fn flow_rate(&self, id: FlowId) -> Option<f64> {
        let f = self.flows.get(&id.0)?;
        Some(match f.state {
            FState::Pending => 0.0,
            FState::Direct => {
                if f.bytes_f > 1e-9 {
                    f64::INFINITY
                } else {
                    0.0
                }
            }
            FState::Pooled { pool, .. } => self.pool(pool).rate,
        })
    }

    fn projected_completion(&self, id: FlowId) -> Option<SimTime> {
        let f = self.flows.get(&id.0)?;
        Some(match f.state {
            FState::Pending | FState::Direct => f.starts_at.max(self.last_advance),
            FState::Pooled { pool, tag } => self
                .pool(pool)
                .member_completion(tag)
                .unwrap_or(SimTime::MAX),
        })
    }
}

enum Regime {
    Exact(Box<Network>),
    Scale(Box<ScaleState>),
}

/// Internet-scale network engine: [`Network`]-compatible API, exact
/// below [`ScalePolicy::coalesce_threshold`] in-flight flows and
/// aggregated (pools + published shares) above it. See the module docs
/// for the model.
pub struct AggregateNetwork {
    policy: ScalePolicy,
    obs: NetObs,
    regime: Regime,
}

impl AggregateNetwork {
    /// Wraps a topology with the default ([`ScalePolicy::exact`])
    /// policy and detached observability.
    pub fn new(topo: Topology) -> Self {
        AggregateNetwork::with_policy(topo, &vmr_obs::Obs::detached(), ScalePolicy::default())
    }

    /// Wraps a topology with the default policy, recording the same
    /// counters/journal as [`Network::with_obs`].
    pub fn with_obs(topo: Topology, obs: &vmr_obs::Obs) -> Self {
        AggregateNetwork::with_policy(topo, obs, ScalePolicy::default())
    }

    /// Wraps a topology with an explicit scale policy. Also records the
    /// scale-regime metrics `net.aggregates_active`, `net.coalesce_hits`
    /// and `net.splits` into `obs`.
    pub fn with_policy(topo: Topology, obs: &vmr_obs::Obs, policy: ScalePolicy) -> Self {
        AggregateNetwork {
            policy,
            obs: NetObs::attach(obs),
            regime: Regime::Exact(Box::new(Network::with_obs(topo, obs))),
        }
    }

    /// True once the engine has ratcheted into the aggregated regime.
    pub fn is_scale_regime(&self) -> bool {
        matches!(self.regime, Regime::Scale(_))
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        match &self.regime {
            Regime::Exact(n) => n.topology(),
            Regime::Scale(s) => &s.topo,
        }
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        match &self.regime {
            Regime::Exact(n) => n.active_flows(),
            Regime::Scale(s) => s.flows.len(),
        }
    }

    /// Total payload bytes delivered so far.
    pub fn bytes_delivered(&self) -> f64 {
        match &self.regime {
            Regime::Exact(n) => n.bytes_delivered(),
            Regime::Scale(s) => s.bytes_delivered,
        }
    }

    /// Completed-transfer duration statistics, foreground class.
    pub fn fg_durations(&self) -> &Tally {
        match &self.regime {
            Regime::Exact(n) => &n.fg_durations,
            Regime::Scale(s) => &s.fg_durations,
        }
    }

    /// Completed-transfer duration statistics, background class.
    pub fn bg_durations(&self) -> &Tally {
        match &self.regime {
            Regime::Exact(n) => &n.bg_durations,
            Regime::Scale(s) => &s.bg_durations,
        }
    }

    /// Pools currently coalescing ≥ 2 flows (0 in the exact regime).
    pub fn aggregates_active(&self) -> usize {
        match &self.regime {
            Regime::Exact(_) => 0,
            Regime::Scale(s) => s.aggregates,
        }
    }

    /// Highest concurrent aggregate count seen over the run.
    pub fn peak_aggregates(&self) -> usize {
        match &self.regime {
            Regime::Exact(_) => 0,
            Regime::Scale(s) => s.peak_aggregates,
        }
    }

    /// Flows that joined an already-populated pool.
    pub fn coalesce_hits(&self) -> u64 {
        match &self.regime {
            Regime::Exact(_) => 0,
            Regime::Scale(s) => s.coalesce_hits,
        }
    }

    /// Per-flow completions expanded out of multi-member pools.
    pub fn splits(&self) -> u64 {
        match &self.regime {
            Regime::Exact(_) => 0,
            Regime::Scale(s) => s.splits,
        }
    }

    /// Current rate of a flow, bytes/second (0 during setup).
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        match &self.regime {
            Regime::Exact(n) => n.flow_rate(id),
            Regime::Scale(s) => s.flow_rate(id),
        }
    }

    /// Projected completion instant of a flow under current rates.
    pub fn projected_completion(&self, id: FlowId) -> Option<SimTime> {
        match &self.regime {
            Regime::Exact(n) => n.projected_completion(id),
            Regime::Scale(s) => s.projected_completion(id),
        }
    }

    /// Starts a transfer at `now`; see [`Network::start_flow`]. Crossing
    /// the policy threshold here triggers the one-way migration into the
    /// aggregated regime.
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> FlowId {
        if let Regime::Exact(n) = &mut self.regime {
            if n.active_flows() < self.policy.coalesce_threshold {
                return n.start_flow(now, spec);
            }
            self.migrate(now);
        }
        let Regime::Scale(s) = &mut self.regime else {
            unreachable!("migrate leaves the scale regime installed");
        };
        s.start_flow(now, spec, &self.obs)
    }

    /// Aborts a flow; see [`Network::abort_flow`].
    pub fn abort_flow(&mut self, now: SimTime, id: FlowId) -> bool {
        match &mut self.regime {
            Regime::Exact(n) => n.abort_flow(now, id),
            Regime::Scale(s) => s.abort_flow(now, id, &self.obs),
        }
    }

    /// Advances to `now`, returning completions; see
    /// [`Network::advance`].
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        match &mut self.regime {
            Regime::Exact(n) => n.advance(now),
            Regime::Scale(s) => s.advance(now, &self.obs),
        }
    }

    /// Next self-event instant; see [`Network::next_event_time`].
    pub fn next_event_time(&self) -> Option<SimTime> {
        match &self.regime {
            Regime::Exact(n) => n.next_event_time(),
            Regime::Scale(s) => s.next_event_time(),
        }
    }

    /// One-way ratchet: harvest everything due, tear the exact engine
    /// down, and rebuild its in-flight flows as pool members.
    fn migrate(&mut self, now: SimTime) {
        let regime = std::mem::replace(
            &mut self.regime,
            Regime::Scale(Box::new(ScaleState::new(
                Topology::new(),
                self.policy.quantum_mantissa_bits,
            ))),
        );
        let Regime::Exact(mut net) = regime else {
            unreachable!("migrate called twice");
        };
        // Completions due by `now` keep their exact times; they sit in
        // the buffer until the caller's next `advance`.
        let due = net.advance(now);
        let d: Dismantled = net.dismantle();
        let mut s = ScaleState::new(d.topo, self.policy.quantum_mantissa_bits);
        s.last_advance = now.max(d.last_advance);
        s.next_id = d.next_id;
        s.fg_durations = d.fg_durations;
        s.bg_durations = d.bg_durations;
        s.bytes_delivered = d.bytes_delivered;
        s.pending_out = due;
        let at = s.last_advance;
        for mf in d.flows {
            let MigratedFlow {
                id,
                spec,
                links,
                bytes_left,
                starts_at,
                created_at,
            } = mf;
            let unconstrained = bytes_left <= 1e-9 || (links.is_empty() && spec.rate_cap.is_none());
            s.flows.insert(
                id.0,
                ScaleFlow {
                    spec,
                    links,
                    bytes_f: bytes_left,
                    created_at,
                    starts_at,
                    state: if unconstrained {
                        FState::Direct
                    } else {
                        FState::Pending
                    },
                },
            );
            if unconstrained {
                s.direct_heap.push(Reverse((starts_at.max(at), id.0)));
            } else if starts_at > at {
                s.pending_heap.push(Reverse((starts_at, id.0)));
            } else {
                s.join(at, id.0, bytes_left, &self.obs);
            }
        }
        s.republish(at);
        s.prune_tops();
        self.regime = Regime::Scale(Box::new(s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{HostId, HostLink, TierLink};

    fn topo(n: usize) -> Topology {
        let mut t = Topology::new();
        for _ in 0..n {
            t.add_host(HostLink::symmetric_mbit(100.0, 0.0));
        }
        t
    }

    fn scale_policy(bits: u32) -> ScalePolicy {
        ScalePolicy {
            coalesce_threshold: 0,
            quantum_mantissa_bits: bits,
        }
    }

    fn scale_net(topo: Topology, bits: u32) -> AggregateNetwork {
        AggregateNetwork::with_policy(topo, &vmr_obs::Obs::detached(), scale_policy(bits))
    }

    fn drain(net: &mut AggregateNetwork) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(t) = net.next_event_time() {
            assert!(t < SimTime::MAX, "stalled flow");
            out.extend(net.advance(t));
        }
        out
    }

    #[test]
    fn exact_regime_single_transfer() {
        let mut n = AggregateNetwork::new(topo(2));
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
        );
        assert!(!n.is_scale_regime());
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        assert!((done[0].at.as_secs_f64() - 1.0).abs() < 1e-3);
        assert_eq!(n.aggregates_active(), 0);
    }

    #[test]
    fn scale_regime_single_transfer_same_makespan() {
        let mut n = scale_net(topo(2), 52);
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
        );
        assert!(n.is_scale_regime());
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        assert!(
            (done[0].at.as_secs_f64() - 1.0).abs() < 1e-3,
            "{:?}",
            done[0].at
        );
    }

    #[test]
    fn coalesced_flows_processor_share() {
        // Pure scale regime: two same-path flows of sizes 1:2 coalesce
        // into one pool. Per-member rate is 6.25 MB/s, so the 6.25 MB
        // member finishes at t=1; the 12.5 MB member then runs alone at
        // 12.5 MB/s and finishes its remaining 6.25 MB at t=1.5.
        let mut n = scale_net(topo(2), 52);
        let small = n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 6_250_000),
        );
        let big = n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
        );
        assert_eq!(n.aggregates_active(), 1);
        assert_eq!(n.coalesce_hits(), 1);
        let done = drain(&mut n);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].id, small);
        assert!((done[0].at.as_secs_f64() - 1.0).abs() < 1e-3, "{done:?}");
        assert_eq!(done[1].id, big);
        assert!((done[1].at.as_secs_f64() - 1.5).abs() < 1e-3, "{done:?}");
        assert_eq!(n.splits(), 1);
        assert_eq!(n.aggregates_active(), 0);
    }

    #[test]
    fn migration_preserves_in_flight_progress() {
        // Threshold 2: the third start migrates mid-run. The two
        // migrated flows keep their progress and finish on time.
        let mut n = AggregateNetwork::with_policy(
            topo(4),
            &vmr_obs::Obs::detached(),
            ScalePolicy {
                coalesce_threshold: 2,
                quantum_mantissa_bits: 52,
            },
        );
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
        );
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(2), HostId(3), 12_500_000),
        );
        assert!(!n.is_scale_regime());
        n.start_flow(
            SimTime::from_millis(500),
            FlowSpec::simple(HostId(1), HostId(2), 12_500_000),
        );
        assert!(n.is_scale_regime());
        let done = drain(&mut n);
        assert_eq!(done.len(), 3);
        assert!((done[0].at.as_secs_f64() - 1.0).abs() < 1e-3, "{done:?}");
        assert!((done[1].at.as_secs_f64() - 1.0).abs() < 1e-3, "{done:?}");
        assert!((done[2].at.as_secs_f64() - 1.5).abs() < 1e-3, "{done:?}");
        assert_eq!(n.bytes_delivered(), 3.0 * 12_500_000.0);
        assert_eq!(n.fg_durations().count(), 3);
    }

    #[test]
    fn scale_background_scavenges_leftover() {
        let mut n = scale_net(topo(3), 52);
        let mut bg = FlowSpec::simple(HostId(0), HostId(2), 12_500_000);
        bg.priority = Priority::Background;
        n.start_flow(SimTime::ZERO, bg);
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
        );
        let done = drain(&mut n);
        assert_eq!(done.len(), 2);
        // fg saturates the shared uplink for 1 s; bg then runs alone.
        assert!((done[0].at.as_secs_f64() - 1.0).abs() < 1e-3, "{done:?}");
        assert!((done[1].at.as_secs_f64() - 2.0).abs() < 1e-3, "{done:?}");
        assert_eq!(n.fg_durations().count(), 1);
        assert_eq!(n.bg_durations().count(), 1);
    }

    #[test]
    fn scale_zero_byte_and_loopback() {
        let mut n = scale_net(topo(2), 52);
        let mut z = FlowSpec::simple(HostId(0), HostId(1), 0);
        z.setup_s = 0.25;
        n.start_flow(SimTime::ZERO, z);
        n.start_flow(SimTime::ZERO, FlowSpec::simple(HostId(1), HostId(1), 999));
        let done = drain(&mut n);
        assert_eq!(done.len(), 2);
        // Loopback completes instantly, zero-byte at its setup boundary.
        assert_eq!(done[0].at, SimTime::ZERO);
        assert!((done[1].at.as_secs_f64() - 0.25).abs() < 1e-3);
    }

    #[test]
    fn scale_abort_frees_capacity() {
        let mut n = scale_net(topo(3), 52);
        let a = n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
        );
        let b = n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(2), 12_500_000),
        );
        assert!(n.abort_flow(SimTime::from_millis(500), a));
        assert!(!n.abort_flow(SimTime::from_millis(500), a));
        let done = drain(&mut n);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, b);
        assert!(
            (done[0].at.as_secs_f64() - 1.25).abs() < 1e-3,
            "{:?}",
            done[0].at
        );
    }

    #[test]
    fn tiered_bottleneck_caps_scale_rates() {
        // 10 volunteers behind a 50 Mbit ISP uplink all push to one
        // server: the tier link (6.25 MB/s total) is the bottleneck, so
        // ten 625 kB transfers take ~1 s, not the ~0.5 s ten individual
        // 100 Mbit access uplinks would allow.
        let mut t = Topology::new();
        let server = t.add_host(HostLink::symmetric_mbit(1000.0, 0.0));
        let isp = t.add_tier(TierLink {
            up_bytes_per_sec: 50.0e6 / 8.0,
            down_bytes_per_sec: 50.0e6 / 8.0,
            latency_s: 0.0,
        });
        let vols: Vec<HostId> = (0..10)
            .map(|_| t.add_host_in(isp, HostLink::symmetric_mbit(100.0, 0.0)))
            .collect();
        let mut n = scale_net(t, 52);
        for &v in &vols {
            n.start_flow(SimTime::ZERO, FlowSpec::simple(v, server, 625_000));
        }
        let done = drain(&mut n);
        assert_eq!(done.len(), 10);
        let makespan = done.last().unwrap().at.as_secs_f64();
        assert!((makespan - 1.0).abs() < 1e-2, "makespan {makespan}");
    }

    #[test]
    fn quantized_shares_never_oversubscribe() {
        // Coarse 4-bit quantization, 16 flows through one 100 Mbit
        // uplink: truncation rounds shares down, so the sum of granted
        // rates must stay ≤ capacity and the makespan lands at or above
        // the exact 16 s (but within the bucket width of it).
        let mut n = scale_net(topo(17), 4);
        let mut ids = Vec::new();
        for i in 0..16 {
            ids.push(n.start_flow(
                SimTime::ZERO,
                FlowSpec::simple(HostId(0), HostId(i + 1), 12_500_000),
            ));
        }
        let total: f64 = ids.iter().filter_map(|&id| n.flow_rate(id)).sum();
        assert!(total <= 12_500_000.0 * (1.0 + 1e-9), "rates sum {total}");
        let done = drain(&mut n);
        let makespan = done.last().unwrap().at.as_secs_f64();
        assert!(makespan >= 16.0 - 1e-6, "makespan {makespan}");
        assert!(makespan <= 16.0 * 1.08, "makespan {makespan}");
    }

    #[test]
    fn next_event_time_reflects_buffered_completions() {
        let mut n = scale_net(topo(2), 52);
        n.start_flow(
            SimTime::ZERO,
            FlowSpec::simple(HostId(0), HostId(1), 12_500),
        );
        // Starting another flow long after the first finished processes
        // the completion internally; next_event_time must demand an
        // immediate advance to hand it over.
        n.start_flow(
            SimTime::from_secs(5),
            FlowSpec::simple(HostId(0), HostId(1), 12_500),
        );
        assert_eq!(n.next_event_time(), Some(SimTime::from_secs(5)));
        let done = n.advance(SimTime::from_secs(5));
        assert_eq!(done.len(), 1);
        assert!(done[0].at < SimTime::from_secs(5));
    }
}
