//! Max–min fair bandwidth allocation with two priority classes.
//!
//! Classic progressive filling: repeatedly find the most-constrained link
//! (least fair share per unfrozen flow), freeze its flows at that share,
//! subtract, repeat. Every active flow ends up with the largest rate it
//! can get without reducing any poorer flow's rate — which is what a set
//! of long-lived TCP flows over a shared access link approximates.
//!
//! The two-class variant models **TCP-Nice** (§III.C/D of the paper):
//! background flows are allocated only the capacity left over after all
//! foreground flows have been served, so volunteer-to-volunteer bulk
//! transfers do not hurt interactive traffic.
//!
//! Two implementations compute *bit-identical* rates:
//!
//! * [`Allocator`] — the production path, and the only one the flow
//!   engine runs. It keeps its demand set between solves: demands join
//!   and leave one at a time, each live link keeps its member list in
//!   ascending key order with a count per class, and the capped demands
//!   stay sorted by cap, so a solve rebuilds no membership. It resets per-link state
//!   for the links the set crosses, finds the first round's bottleneck
//!   with one scan (every share is current then, so the links within
//!   the tolerance of the minimum are exactly what a heap's first pops
//!   would return), freezes their members in ascending order, and only
//!   if flows remain builds a lazily-invalidated min-heap of shares:
//!   progressive filling only ever *raises* a link's per-flow share, so
//!   a stale heap entry is a lower bound and the first entry whose
//!   stored share matches its current share is the true minimum.
//!   [`allocate`] and [`Allocator::allocate_into`] are "drop every
//!   demand, join these, solve" over the same code.
//! * [`allocate_reference`] — the original O(rounds · F·d) map-based
//!   formulation, kept as the executable specification. Property tests
//!   assert the two agree; benches measure the gap.

use crate::topology::{LinkRef, Topology};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Scheduling class of a flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Priority {
    /// Normal traffic; shares links max–min fairly with its own class.
    #[default]
    Foreground,
    /// TCP-Nice style scavenger traffic; uses leftover capacity only.
    Background,
}

/// A flow the allocator should assign a rate to.
#[derive(Clone, Debug)]
pub struct FlowDemand<K> {
    /// Caller's key for this flow.
    pub key: K,
    /// Directed link endpoints the flow traverses.
    pub links: Vec<LinkRef>,
    /// Scheduling class.
    pub priority: Priority,
    /// Optional application-level rate cap, bytes/second.
    pub rate_cap: Option<f64>,
}

/// A demand whose path is given as dense link indices (see
/// [`Topology::link_index`]): the input of [`Allocator::allocate_into`].
#[derive(Clone, Copy, Debug)]
pub struct RouteDemand<'a> {
    /// Dense indices of the links the flow traverses.
    pub links: &'a [u32],
    /// Scheduling class.
    pub priority: Priority,
    /// Optional application-level rate cap, bytes/second.
    pub rate_cap: Option<f64>,
}

/// Computes max–min fair rates for `flows` over `topo`.
///
/// Returns one rate per input flow, in input order, bytes/second.
/// Foreground flows are allocated first; background flows divide the
/// remaining headroom max–min fairly among themselves.
///
/// Convenience wrapper over [`Allocator`]; callers that reallocate
/// frequently should hold an `Allocator` to reuse its scratch state.
pub fn allocate<K: Clone>(topo: &Topology, flows: &[FlowDemand<K>]) -> Vec<f64> {
    let mut alloc = Allocator::new();
    for (i, f) in flows.iter().enumerate() {
        let links = f.links.iter().map(|&l| topo.link_index(l) as u32).collect();
        alloc.join(topo, i as u64, links, f.priority, f.rate_cap);
    }
    alloc.solve(topo);
    (0..flows.len() as u32).map(|s| alloc.rate(s)).collect()
}

/// `f64` ordered by `total_cmp` so shares and caps can key a heap.
/// The allocator never produces NaN (subtractions are clamped at zero),
/// so the total order coincides with the numeric one.
#[derive(Clone, Copy, PartialEq, Debug)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One entry of a link's member list: the demand's ordering key, its
/// slot and its class (0 foreground, 1 background).
type Member = (u64, u32, u8);

/// A demand the allocator holds between solves.
#[derive(Debug, Default)]
struct Demand {
    /// Ordering key; the flow engine passes the flow id.
    key: u64,
    /// Dense link indices, owned while the demand is held.
    links: Vec<u32>,
    priority: Priority,
    rate_cap: Option<f64>,
    in_use: bool,
}

fn class_of(p: Priority) -> usize {
    match p {
        Priority::Foreground => 0,
        Priority::Background => 1,
    }
}

/// Progressive filling over a demand set kept between solves.
///
/// Demands [`join`](Allocator::join) and [`leave`](Allocator::leave)
/// one at a time; each keeps its slot until it leaves. The allocator
/// keeps every live link's member list in ascending key order, with each
/// class's count, and per class the capped demands in ascending
/// `(cap, key)` order, so a solve rebuilds no membership: it resets
/// `remaining` and `count` on the live links, finds the first round's
/// bottleneck by one scan (all shares are current then), and builds
/// its lazy min-heap only when flows remain unfrozen after that round.
///
/// Memory follows the links that carry flows, not the topology: member
/// lists and class counts exist only for live links (parallel to
/// `live`), and the dense per-link arrays indexed by
/// [`Topology::link_index`] are allocated zeroed at the first join, so
/// the pages of links that never go live are never touched.
#[derive(Debug, Default)]
pub struct Allocator {
    demands: Vec<Demand>,
    /// Per slot, the rate the demand was last frozen at and the epoch
    /// of that solve; `u64::MAX` for a loopback demand, whose rate is
    /// fixed at join.
    frozen: Vec<(f64, u64)>,
    free: Vec<u32>,
    /// Held demands with a non-empty path, per class.
    pathed: [usize; 2],
    /// Capped demands with a non-empty path, per class, ascending.
    capped: [Vec<(OrdF64, u64, u32)>; 2],
    /// Per live link, parallel to `live`: the held demands crossing it,
    /// ascending key. A path that crosses the link twice is listed twice.
    members: Vec<Vec<Member>>,
    /// Emptied member lists, kept for the next link that goes live.
    spare: Vec<Vec<Member>>,
    /// Per live link, parallel to `live`: how many of its members are of
    /// each class.
    class_count: Vec<[u32; 2]>,
    /// The links with members, in no order.
    live: Vec<u32>,
    /// Per dense link index: 1 + its position in `live`, 0 if none.
    live_pos: Vec<u32>,
    /// A demand joined or left since the last solve.
    dirty: bool,
    /// Solve counter; `frozen` epochs compare against it.
    epoch: u64,
    /// Capacity still unassigned on each live link.
    remaining: Vec<f64>,
    /// Unfrozen demands of the current class on each live link.
    count: Vec<u32>,
    /// Lazy min-heap of (share lower bound, link). Valid because shares
    /// only grow as flows freeze: a stale entry under-estimates.
    link_heap: BinaryHeap<Reverse<(OrdF64, u32)>>,
    /// Demands frozen in the current round: key, then slot.
    freeze_buf: Vec<(u64, u32)>,
    /// Links at the bottleneck share in the current round.
    bottleneck_links: Vec<u32>,
    /// Each live link's share at the start of the class's first round.
    shares: Vec<f64>,
}

impl Allocator {
    /// An allocator holding no demand.
    pub fn new() -> Self {
        Allocator::default()
    }

    /// Computes max–min fair rates for `demands` over `topo` into
    /// `rates` (cleared and resized to `demands.len()`), bytes/second:
    /// drops every held demand, joins `demands` in order and solves.
    ///
    /// Produces bit-identical results to [`allocate_reference`]: same
    /// bottleneck shares, same freeze order (ascending demand index
    /// within a round), same floating-point operation sequence.
    pub fn allocate_into(
        &mut self,
        topo: &Topology,
        demands: &[RouteDemand<'_>],
        rates: &mut Vec<f64>,
    ) {
        self.clear();
        for (i, d) in demands.iter().enumerate() {
            self.join(topo, i as u64, d.links.to_vec(), d.priority, d.rate_cap);
        }
        self.solve(topo);
        rates.clear();
        rates.extend((0..demands.len() as u32).map(|s| self.rate(s)));
    }

    /// Drops every held demand; slots are handed out from 0 again.
    fn clear(&mut self) {
        for l in self.live.drain(..) {
            self.live_pos[l as usize] = 0;
        }
        self.class_count.clear();
        for mut m in self.members.drain(..) {
            m.clear();
            self.spare.push(m);
        }
        self.demands.clear();
        self.frozen.clear();
        self.free.clear();
        self.pathed = [0; 2];
        self.capped.iter_mut().for_each(Vec::clear);
        self.dirty = true;
    }

    /// Adds a demand with ordering `key` (unique among held demands;
    /// within a round, demands freeze in ascending key order) and
    /// returns its slot. The allocator owns `links` until the demand
    /// leaves.
    pub(crate) fn join(
        &mut self,
        topo: &Topology,
        key: u64,
        links: Vec<u32>,
        priority: Priority,
        rate_cap: Option<f64>,
    ) -> u32 {
        let n = topo.num_links();
        if self.live_pos.len() < n {
            // A topology is complete before its first flow, and
            // `allocate_into` drops every demand first: no link is live
            // here. A zeroed allocation leaves the pages of links that
            // never go live untouched.
            debug_assert!(self.live.is_empty(), "the topology grew under live links");
            self.live_pos = vec![0; n];
            self.remaining = vec![0.0; n];
            self.count = vec![0; n];
        }
        self.dirty = true;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.demands.push(Demand::default());
            self.frozen.push((0.0, 0));
            (self.demands.len() - 1) as u32
        });
        let class = class_of(priority);
        for &l in &links {
            let li = l as usize;
            if self.live_pos[li] == 0 {
                self.live.push(l);
                self.live_pos[li] = self.live.len() as u32;
                self.members.push(self.spare.pop().unwrap_or_default());
                self.class_count.push([0; 2]);
            }
            let pos = self.live_pos[li] as usize - 1;
            let m = &mut self.members[pos];
            let at = m.partition_point(|&(k, ..)| k < key);
            m.insert(at, (key, slot, class as u8));
            self.class_count[pos][class] += 1;
        }
        let s = slot as usize;
        if links.is_empty() {
            // Loopback demands are only bounded by their cap.
            self.frozen[s] = (rate_cap.unwrap_or(f64::INFINITY), u64::MAX);
        } else {
            self.pathed[class] += 1;
            if let Some(c) = rate_cap {
                let capped = &mut self.capped[class];
                let entry = (OrdF64(c), key, slot);
                let at = capped.partition_point(|e| *e < entry);
                capped.insert(at, entry);
            }
            self.frozen[s] = (0.0, 0);
        }
        self.demands[s] = Demand {
            key,
            links,
            priority,
            rate_cap,
            in_use: true,
        };
        slot
    }

    /// Removes the demand in `slot` and hands its path back.
    pub(crate) fn leave(&mut self, slot: u32) -> Vec<u32> {
        self.dirty = true;
        let d = &mut self.demands[slot as usize];
        d.in_use = false;
        let (key, class, links) = (d.key, class_of(d.priority), std::mem::take(&mut d.links));
        for &l in &links {
            let li = l as usize;
            let pos = self.live_pos[li] as usize - 1;
            let m = &mut self.members[pos];
            let at = m
                .binary_search_by_key(&key, |&(k, ..)| k)
                .expect("a demand is a member of every link on its path");
            m.remove(at);
            self.class_count[pos][class] -= 1;
            if m.is_empty() {
                let emptied = self.members.swap_remove(pos);
                self.spare.push(emptied);
                self.class_count.swap_remove(pos);
                self.live.swap_remove(pos);
                self.live_pos[li] = 0;
                if let Some(&moved) = self.live.get(pos) {
                    self.live_pos[moved as usize] = pos as u32 + 1;
                }
            }
        }
        if !links.is_empty() {
            self.pathed[class] -= 1;
            if let Some(c) = self.demands[slot as usize].rate_cap {
                let capped = &mut self.capped[class];
                let at = capped
                    .binary_search(&(OrdF64(c), key, slot))
                    .expect("a capped demand is listed");
                capped.remove(at);
            }
        }
        self.free.push(slot);
        links
    }

    /// Whether a demand joined or left since the last solve.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// The rate the last solve gave the demand in `slot`, bytes/second.
    pub(crate) fn rate(&self, slot: u32) -> f64 {
        let (rate, at) = self.frozen[slot as usize];
        if at >= self.epoch {
            rate
        } else {
            // Unfrozen when its class ran out of capacity.
            0.0
        }
    }

    /// Solves max–min fair rates for the held demands: foreground
    /// first, then background over the leftovers.
    pub(crate) fn solve(&mut self, topo: &Topology) {
        self.dirty = false;
        self.epoch += 1;
        for &l in &self.live {
            self.remaining[l as usize] = topo.capacity_at(l as usize);
        }
        for class in 0..2 {
            if self.pathed[class] > 0 {
                self.fill_class(class);
            }
        }
    }

    /// Whether the held rates are those a fresh allocator computes for
    /// the held demands. Backs the debug check on skipped solves.
    pub(crate) fn matches_fresh_solve(&self, topo: &Topology) -> bool {
        let mut held: Vec<(u64, u32)> = (self.demands.iter().enumerate())
            .filter(|(_, d)| d.in_use)
            .map(|(s, d)| (d.key, s as u32))
            .collect();
        held.sort_unstable();
        let mut fresh = Allocator::new();
        for &(key, s) in &held {
            let d = &self.demands[s as usize];
            fresh.join(topo, key, d.links.clone(), d.priority, d.rate_cap);
        }
        fresh.solve(topo);
        (0..)
            .zip(&held)
            .all(|(k, &(_, s))| self.rate(s).to_bits() == fresh.rate(k).to_bits())
    }

    /// Progressive filling for one priority class over the capacities
    /// left in `remaining`; a later class sees the leftovers.
    fn fill_class(&mut self, class: usize) {
        // First round: every share is current, so the minimum is one
        // scan away; `shares` keeps them for the tolerance window.
        let mut first_share = f64::INFINITY;
        self.shares.clear();
        for (&l, counts) in self.live.iter().zip(&self.class_count) {
            let li = l as usize;
            let n = counts[class];
            self.count[li] = n;
            let share = self.remaining[li].max(0.0) / n as f64;
            if n > 0 && share < first_share {
                first_share = share;
            }
            self.shares.push(share);
        }
        let mut unfrozen = self.pathed[class];
        let mut capped_next = 0usize;
        let mut heaped = false;
        while unfrozen > 0 {
            let bottleneck_share = if heaped {
                self.heap_bottleneck()
            } else {
                first_share
            };

            // Rate-capped flows below the bottleneck share freeze at
            // their cap (strict `<`, as in the reference).
            self.freeze_buf.clear();
            let capped = &self.capped[class];
            while let Some(&(c, key, slot)) = capped.get(capped_next) {
                if self.frozen[slot as usize].1 == self.epoch {
                    capped_next += 1;
                } else if c.0 < bottleneck_share {
                    capped_next += 1;
                    self.freeze_buf.push((key, slot));
                } else {
                    break;
                }
            }
            if !self.freeze_buf.is_empty() {
                self.freeze_buf.sort_unstable();
                unfrozen -= self.freeze_buf.len();
                for k in 0..self.freeze_buf.len() {
                    let slot = self.freeze_buf[k].1;
                    let r = self.demands[slot as usize]
                        .rate_cap
                        .expect("capped freeze without cap");
                    self.freeze(slot, r);
                }
                if !heaped {
                    self.heapify();
                    heaped = true;
                }
                continue;
            }

            // Freeze every flow on a link whose share is within the
            // reference's tolerance window of the bottleneck share.
            let tol = 1e-9 * bottleneck_share.max(1.0);
            self.bottleneck_links.clear();
            if heaped {
                self.heap_window(bottleneck_share, tol);
            } else {
                let live = self.live.iter().zip(&self.class_count);
                for ((&l, counts), &share) in live.zip(&self.shares) {
                    if counts[class] > 0 && share - bottleneck_share <= tol {
                        self.bottleneck_links.push(l);
                    }
                }
            }
            self.freeze_buf.clear();
            for &l in &self.bottleneck_links {
                let pos = self.live_pos[l as usize] as usize - 1;
                for &(key, slot, c) in &self.members[pos] {
                    if c as usize == class && self.frozen[slot as usize].1 != self.epoch {
                        self.freeze_buf.push((key, slot));
                    }
                }
            }
            if self.bottleneck_links.len() > 1 {
                self.freeze_buf.sort_unstable();
            }
            // A path crossing a bottleneck link twice is listed twice.
            self.freeze_buf.dedup();
            debug_assert!(!self.freeze_buf.is_empty(), "progressive filling stalled");
            unfrozen -= self.freeze_buf.len();
            for k in 0..self.freeze_buf.len() {
                let slot = self.freeze_buf[k].1;
                let cap = self.demands[slot as usize].rate_cap;
                self.freeze(slot, bottleneck_share.min(cap.unwrap_or(f64::INFINITY)));
            }
            if bottleneck_share == 0.0 {
                // No capacity left for this class: everyone remaining
                // keeps the 0 an unfrozen demand reads as.
                break;
            }
            if !heaped && unfrozen > 0 {
                self.heapify();
                heaped = true;
            }
        }
    }

    /// Freezes the demand in `slot` at rate `r` and takes `r` from every
    /// link on its path, in path order.
    fn freeze(&mut self, slot: u32, r: f64) {
        self.frozen[slot as usize] = (r, self.epoch);
        for &l in &self.demands[slot as usize].links {
            let li = l as usize;
            self.remaining[li] = (self.remaining[li] - r).max(0.0);
            self.count[li] -= 1;
        }
    }

    /// Fills the heap with the current share of every live link that
    /// still carries an unfrozen demand of the class.
    fn heapify(&mut self) {
        let mut entries = std::mem::take(&mut self.link_heap).into_vec();
        entries.clear();
        for &l in &self.live {
            let li = l as usize;
            if self.count[li] > 0 {
                let share = self.remaining[li].max(0.0) / self.count[li] as f64;
                entries.push(Reverse((OrdF64(share), l)));
            }
        }
        self.link_heap = BinaryHeap::from(entries);
    }

    /// Lazy bottleneck discovery: pops stale entries (share lower
    /// bounds) until the top matches its link's current share — shares
    /// never shrink, so that entry is the global minimum.
    fn heap_bottleneck(&mut self) -> f64 {
        loop {
            let &Reverse((s, l)) = self
                .link_heap
                .peek()
                .expect("progressive filling: unfrozen flows but no links");
            let li = l as usize;
            if self.count[li] == 0 {
                self.link_heap.pop();
                continue;
            }
            let cur = self.remaining[li].max(0.0) / self.count[li] as f64;
            if cur == s.0 {
                return cur;
            }
            self.link_heap.pop();
            self.link_heap.push(Reverse((OrdF64(cur), l)));
        }
    }

    /// Pops every heap entry within `tol` of the bottleneck share into
    /// `bottleneck_links`, re-pushing stale ones at their current share.
    fn heap_window(&mut self, bottleneck_share: f64, tol: f64) {
        while let Some(&Reverse((s, l))) = self.link_heap.peek() {
            if s.0 - bottleneck_share > tol {
                break;
            }
            self.link_heap.pop();
            let li = l as usize;
            if self.count[li] == 0 {
                continue;
            }
            let cur = self.remaining[li].max(0.0) / self.count[li] as f64;
            if cur != s.0 {
                self.link_heap.push(Reverse((OrdF64(cur), l)));
                continue;
            }
            self.bottleneck_links.push(l);
        }
    }
}

/// The original map-based progressive filling, kept as the executable
/// specification of [`allocate`] / [`Allocator`]. Its bottleneck search
/// takes a minimum, so the maps' walk order does not matter.
///
/// O(rounds · flows · path length) per call — fine for the paper's
/// 40-host testbed, quadratic pain at thousands of concurrent flows.
/// Property tests assert [`Allocator`] matches it bit-for-bit; the
/// `flow_churn` bench measures the speedup.
pub fn allocate_reference<K: Clone>(topo: &Topology, flows: &[FlowDemand<K>]) -> Vec<f64> {
    let mut rates = vec![0.0; flows.len()];
    let mut remaining: BTreeMap<LinkRef, f64> = BTreeMap::new();
    for f in flows {
        for &l in &f.links {
            remaining.entry(l).or_insert_with(|| topo.capacity(l));
        }
    }
    let fg: Vec<usize> = indices_of(flows, Priority::Foreground);
    let bg: Vec<usize> = indices_of(flows, Priority::Background);
    fill_class_reference(flows, &fg, &mut remaining, &mut rates);
    fill_class_reference(flows, &bg, &mut remaining, &mut rates);
    rates
}

fn indices_of<K>(flows: &[FlowDemand<K>], p: Priority) -> Vec<usize> {
    flows
        .iter()
        .enumerate()
        .filter(|(_, f)| f.priority == p)
        .map(|(i, _)| i)
        .collect()
}

/// Progressive filling for one priority class over the capacities left
/// in `remaining`. Mutates `remaining` so a later class sees leftovers.
fn fill_class_reference<K>(
    flows: &[FlowDemand<K>],
    class: &[usize],
    remaining: &mut BTreeMap<LinkRef, f64>,
    rates: &mut [f64],
) {
    let mut unfrozen: Vec<usize> = class
        .iter()
        .copied()
        .filter(|&i| !flows[i].links.is_empty())
        .collect();
    // Flows traversing no links (loopback) are only bounded by their cap.
    for &i in class {
        if flows[i].links.is_empty() {
            rates[i] = flows[i].rate_cap.unwrap_or(f64::INFINITY);
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
        // Rate-capped flows below the bottleneck share freeze at their cap.
        let capped: Vec<usize> = unfrozen
            .iter()
            .copied()
            .filter(|&i| flows[i].rate_cap.is_some_and(|c| c < bottleneck_share))
            .collect();
        let (freeze_set, share): (Vec<usize>, Option<f64>) = if !capped.is_empty() {
            (capped, None)
        } else {
            // Freeze every flow on a bottleneck link.
            let set: Vec<usize> = unfrozen
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
            (set, Some(bottleneck_share))
        };
        debug_assert!(!freeze_set.is_empty(), "progressive filling stalled");
        for &i in &freeze_set {
            let r = match share {
                Some(s) => s.min(flows[i].rate_cap.unwrap_or(f64::INFINITY)),
                None => flows[i].rate_cap.expect("capped freeze without cap"),
            };
            rates[i] = r;
            for &l in &flows[i].links {
                if let Some(c) = remaining.get_mut(&l) {
                    *c = (*c - r).max(0.0);
                }
            }
        }
        unfrozen.retain(|i| !freeze_set.contains(i));
        if share == Some(0.0) {
            // No capacity left for this class: everyone remaining gets 0.
            for &i in &unfrozen {
                rates[i] = 0.0;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Direction, HostId, HostLink};

    fn topo(n: usize, mbit: f64) -> Topology {
        let mut t = Topology::new();
        for _ in 0..n {
            t.add_host(HostLink::symmetric_mbit(mbit, 0.001));
        }
        t
    }

    fn demand(src: u32, dst: u32, prio: Priority) -> FlowDemand<u32> {
        FlowDemand {
            key: src * 1000 + dst,
            links: vec![
                LinkRef {
                    host: HostId(src),
                    dir: Direction::Up,
                },
                LinkRef {
                    host: HostId(dst),
                    dir: Direction::Down,
                },
            ],
            priority: prio,
            rate_cap: None,
        }
    }

    const MBIT100: f64 = 100.0 * 1e6 / 8.0;

    #[test]
    fn single_flow_gets_full_link() {
        let t = topo(2, 100.0);
        let rates = allocate(&t, &[demand(0, 1, Priority::Foreground)]);
        assert!((rates[0] - MBIT100).abs() < 1.0);
    }

    #[test]
    fn shared_uplink_splits_fairly() {
        // Two flows out of host 0 to different destinations: both are
        // bottlenecked on h0's uplink → 50/50.
        let t = topo(3, 100.0);
        let rates = allocate(
            &t,
            &[
                demand(0, 1, Priority::Foreground),
                demand(0, 2, Priority::Foreground),
            ],
        );
        assert!((rates[0] - MBIT100 / 2.0).abs() < 1.0);
        assert!((rates[1] - MBIT100 / 2.0).abs() < 1.0);
    }

    #[test]
    fn max_min_not_just_equal_split() {
        // h0 uplink carries flows to h1 and h2; h1's downlink also carries
        // a flow from h3. All links 100 Mbit.
        //   f0: 0→1, f1: 0→2, f2: 3→1.
        // h1.down has two flows → share 50; h0.up has two flows → share 50.
        // Everyone converges at 50 here. Now shrink h3's uplink to 20 Mbit:
        // f2 freezes at 20; f0 gets min(h0.up share, h1.down leftover 80) =
        // 50 from h0.up; f1 gets 50.
        let mut t = topo(3, 100.0);
        let h3 = t.add_host(HostLink::symmetric_mbit(20.0, 0.001));
        assert_eq!(h3, HostId(3));
        let rates = allocate(
            &t,
            &[
                demand(0, 1, Priority::Foreground),
                demand(0, 2, Priority::Foreground),
                demand(3, 1, Priority::Foreground),
            ],
        );
        let mbit = |x: f64| x * 8.0 / 1e6;
        assert!(
            (mbit(rates[2]) - 20.0).abs() < 0.01,
            "f2={}",
            mbit(rates[2])
        );
        assert!(
            (mbit(rates[0]) - 50.0).abs() < 0.01,
            "f0={}",
            mbit(rates[0])
        );
        assert!(
            (mbit(rates[1]) - 50.0).abs() < 0.01,
            "f1={}",
            mbit(rates[1])
        );
    }

    #[test]
    fn background_yields_to_foreground() {
        let t = topo(2, 100.0);
        let rates = allocate(
            &t,
            &[
                demand(0, 1, Priority::Foreground),
                demand(0, 1, Priority::Background),
            ],
        );
        assert!((rates[0] - MBIT100).abs() < 1.0, "fg gets the whole link");
        assert!(
            rates[1] < 1.0,
            "bg starved while fg active, got {}",
            rates[1]
        );
    }

    #[test]
    fn background_uses_leftover() {
        let t = topo(3, 100.0);
        // fg: 0→1 capped at 40 Mbit; bg: 0→2 should get the remaining 60.
        let mut fg = demand(0, 1, Priority::Foreground);
        fg.rate_cap = Some(40.0 * 1e6 / 8.0);
        let bg = demand(0, 2, Priority::Background);
        let rates = allocate(&t, &[fg, bg]);
        assert!((rates[0] * 8.0 / 1e6 - 40.0).abs() < 0.01);
        assert!((rates[1] * 8.0 / 1e6 - 60.0).abs() < 0.01);
    }

    #[test]
    fn rate_cap_respected() {
        let t = topo(2, 100.0);
        let mut f = demand(0, 1, Priority::Foreground);
        f.rate_cap = Some(1000.0);
        let rates = allocate(&t, &[f]);
        assert_eq!(rates[0], 1000.0);
    }

    #[test]
    fn relay_path_constrained_by_middle_hop() {
        // 0 → relay(2) → 1 where the relay has a 10 Mbit link.
        let mut t = topo(2, 100.0);
        let relay = t.add_host(HostLink::symmetric_mbit(10.0, 0.001));
        let f = FlowDemand {
            key: 0u32,
            links: vec![
                LinkRef {
                    host: HostId(0),
                    dir: Direction::Up,
                },
                LinkRef {
                    host: relay,
                    dir: Direction::Down,
                },
                LinkRef {
                    host: relay,
                    dir: Direction::Up,
                },
                LinkRef {
                    host: HostId(1),
                    dir: Direction::Down,
                },
            ],
            priority: Priority::Foreground,
            rate_cap: None,
        };
        let rates = allocate(&t, &[f]);
        assert!((rates[0] * 8.0 / 1e6 - 10.0).abs() < 0.01);
    }

    #[test]
    fn loopback_flow_unbounded_unless_capped() {
        let t = topo(1, 100.0);
        let f: FlowDemand<u32> = FlowDemand {
            key: 0,
            links: vec![],
            priority: Priority::Foreground,
            rate_cap: Some(5.0),
        };
        assert_eq!(allocate(&t, &[f])[0], 5.0);
        let f2: FlowDemand<u32> = FlowDemand {
            key: 0,
            links: vec![],
            priority: Priority::Foreground,
            rate_cap: None,
        };
        assert!(allocate(&t, &[f2])[0].is_infinite());
    }

    #[test]
    fn many_flows_conservation() {
        // 8 clients all downloading from host 0: h0.up is the bottleneck;
        // the sum of rates must equal its capacity.
        let t = topo(9, 100.0);
        let flows: Vec<_> = (1..9).map(|d| demand(0, d, Priority::Foreground)).collect();
        let rates = allocate(&t, &flows);
        let sum: f64 = rates.iter().sum();
        assert!((sum - MBIT100).abs() < 1.0, "sum {sum}");
        for r in &rates {
            assert!((r - MBIT100 / 8.0).abs() < 1.0);
        }
    }

    #[test]
    fn matches_reference_on_mixed_workload() {
        // Asymmetric links, caps, relays, both classes — the fast path
        // must reproduce the reference bit-for-bit.
        let mut t = Topology::new();
        for i in 0..12 {
            if i % 3 == 0 {
                t.add_host(HostLink::asymmetric_mbit(16.0, 1.0, 0.02));
            } else {
                t.add_host(HostLink::symmetric_mbit(100.0, 0.001));
            }
        }
        let mut flows = Vec::new();
        for i in 0..40u32 {
            let src = i % 12;
            let dst = (i * 7 + 3) % 12;
            if src == dst {
                continue;
            }
            let mut d = demand(
                src,
                dst,
                if i % 3 == 0 {
                    Priority::Background
                } else {
                    Priority::Foreground
                },
            );
            if i % 5 == 0 {
                d.rate_cap = Some(1e5 + i as f64 * 1e4);
            }
            if i % 7 == 0 {
                let relay = (i * 5 + 1) % 12;
                if relay != src && relay != dst {
                    d.links.insert(
                        1,
                        LinkRef {
                            host: HostId(relay),
                            dir: Direction::Up,
                        },
                    );
                    d.links.insert(
                        1,
                        LinkRef {
                            host: HostId(relay),
                            dir: Direction::Down,
                        },
                    );
                }
            }
            flows.push(d);
        }
        let fast = allocate(&t, &flows);
        let slow = allocate_reference(&t, &flows);
        assert_eq!(fast.len(), slow.len());
        for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "flow {i}: fast {a} != reference {b}"
            );
        }
    }

    /// Member lists follow the live links, not the topology: on a
    /// 100 000-host topology, k joins leave one list per link they
    /// cross, and once every demand has left there are none.
    #[test]
    fn member_lists_exist_only_for_live_links() {
        let t = topo(100_000, 100.0);
        let mut alloc = Allocator::new();
        let mut slots = Vec::new();
        let mut crossed = std::collections::BTreeSet::new();
        for k in 0..64u32 {
            // Fan-in on a few servers: shared and private links both.
            let d = demand(k % 4, 1_000 + 1_537 * k, Priority::Foreground);
            let links: Vec<u32> = d.links.iter().map(|&l| t.link_index(l) as u32).collect();
            crossed.extend(links.iter().copied());
            slots.push(alloc.join(&t, u64::from(k), links, d.priority, None));
            assert_eq!(alloc.members.len(), crossed.len());
            assert_eq!(alloc.class_count.len(), crossed.len());
            assert_eq!(alloc.live.len(), crossed.len());
            assert!(alloc.members.iter().all(|m| !m.is_empty()));
        }
        alloc.solve(&t);
        assert_eq!(alloc.rate(slots[0]).to_bits(), (MBIT100 / 16.0).to_bits());
        for s in slots {
            alloc.leave(s);
        }
        assert!(alloc.members.is_empty());
        assert!(alloc.live.is_empty());
        assert!(alloc.class_count.is_empty());
    }

    #[test]
    fn allocator_reuse_is_stateless_across_calls() {
        // Same demand set through one Allocator twice (epoch reuse) must
        // give the same rates as a fresh call.
        let t = topo(4, 100.0);
        let flows = vec![
            demand(0, 1, Priority::Foreground),
            demand(0, 2, Priority::Foreground),
        ];
        let links: Vec<Vec<u32>> = flows
            .iter()
            .map(|f| f.links.iter().map(|&l| t.link_index(l) as u32).collect())
            .collect();
        let demands: Vec<RouteDemand<'_>> = flows
            .iter()
            .zip(&links)
            .map(|(f, l)| RouteDemand {
                links: l,
                priority: f.priority,
                rate_cap: f.rate_cap,
            })
            .collect();
        let mut alloc = Allocator::new();
        let mut r1 = Vec::new();
        let mut r2 = Vec::new();
        alloc.allocate_into(&t, &demands, &mut r1);
        alloc.allocate_into(&t, &demands, &mut r2);
        assert_eq!(r1, r2);
        assert_eq!(r1, allocate(&t, &flows));
    }
}
