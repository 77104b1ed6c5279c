//! Hosts, access links, and the internet-scale tier hierarchy.
//!
//! The Emulab testbed the paper used is a set of machines on 100 Mbit
//! NICs behind non-blocking switches, so the base model is *access-link
//! limited*: each host has an uplink and a downlink capacity, and the
//! switch core is unconstrained. A flow from A to B is limited by A's
//! uplink and B's downlink (and by any relay hop's links).
//!
//! For volunteer populations beyond testbed scale the topology grows a
//! **hierarchy**: hosts may be placed behind an ISP/AS *tier* whose
//! aggregation links (up/down) carry every flow entering or leaving
//! that tier, and inter-tier traffic may additionally cross a single
//! shared *backbone* pipe. A topology with no tiers and no backbone
//! behaves exactly like the original flat model — same link set, same
//! dense indices, same latencies — so testbed-scale runs are unchanged
//! bit for bit.

use std::fmt;

/// Identifies a host in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// One direction of a host's access link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Direction {
    /// Traffic leaving the host.
    Up,
    /// Traffic entering the host.
    Down,
}

impl Direction {
    /// Position of this direction within a host's pair of dense link
    /// slots (see [`Topology::link_index`]).
    pub fn index(self) -> usize {
        match self {
            Direction::Up => 0,
            Direction::Down => 1,
        }
    }
}

/// A directed link endpoint — the unit of capacity in the allocator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkRef {
    /// The host the link belongs to.
    pub host: HostId,
    /// Which direction of the host's access link.
    pub dir: Direction,
}

/// Static description of one host's connectivity.
#[derive(Clone, Debug)]
pub struct HostLink {
    /// Uplink capacity in bytes/second.
    pub up_bytes_per_sec: f64,
    /// Downlink capacity in bytes/second.
    pub down_bytes_per_sec: f64,
    /// One-way propagation latency to the switch core, seconds.
    pub latency_s: f64,
}

impl HostLink {
    /// Symmetric link of `mbit` megabits per second with `latency_s`
    /// one-way latency (the paper's testbed: 100 Mbit, LAN latency).
    pub fn symmetric_mbit(mbit: f64, latency_s: f64) -> Self {
        let bps = mbit * 1e6 / 8.0;
        HostLink {
            up_bytes_per_sec: bps,
            down_bytes_per_sec: bps,
            latency_s,
        }
    }

    /// Asymmetric consumer-style link (e.g. ADSL volunteers).
    pub fn asymmetric_mbit(down_mbit: f64, up_mbit: f64, latency_s: f64) -> Self {
        HostLink {
            up_bytes_per_sec: up_mbit * 1e6 / 8.0,
            down_bytes_per_sec: down_mbit * 1e6 / 8.0,
            latency_s,
        }
    }

    /// Capacity of the given direction, bytes/second.
    pub fn capacity(&self, dir: Direction) -> f64 {
        match dir {
            Direction::Up => self.up_bytes_per_sec,
            Direction::Down => self.down_bytes_per_sec,
        }
    }
}

/// Identifies an ISP/AS aggregation tier in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TierId(pub u32);

impl fmt::Debug for TierId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "isp{}", self.0)
    }
}

/// Static description of one ISP/AS tier's aggregation links.
#[derive(Clone, Debug)]
pub struct TierLink {
    /// Capacity of the tier's uplink toward the backbone, bytes/second.
    pub up_bytes_per_sec: f64,
    /// Capacity of the tier's downlink from the backbone, bytes/second.
    pub down_bytes_per_sec: f64,
    /// One-way propagation latency across the tier's aggregation
    /// network, seconds (added per side when a flow crosses tiers).
    pub latency_s: f64,
}

impl TierLink {
    /// Symmetric aggregation link of `gbit` gigabits per second.
    pub fn symmetric_gbit(gbit: f64, latency_s: f64) -> Self {
        let bps = gbit * 1e9 / 8.0;
        TierLink {
            up_bytes_per_sec: bps,
            down_bytes_per_sec: bps,
            latency_s,
        }
    }
}

/// Sentinel in `tier_of` for hosts not placed behind any tier.
const NO_TIER: u32 = u32::MAX;

/// The set of hosts, their access links, and the optional tier
/// hierarchy above them.
///
/// Every directed link endpoint also has a *dense index* in
/// `0..num_links()`: host `h` owns slots `2h` / `2h+1` for up / down,
/// tier `t` owns slots `2H + 2t` / `2H + 2t + 1` (where `H` is the host
/// count), and the backbone — if constrained — owns the final slot.
/// Per-link state can therefore live in flat arrays instead of hash
/// maps — the bandwidth allocator and flow engines depend on this.
/// Because tier/backbone indices embed the host count, a topology must
/// be fully built before an engine starts routing over it (engines own
/// their topology, so this holds by construction).
#[derive(Clone, Debug, Default)]
pub struct Topology {
    hosts: Vec<HostLink>,
    /// Tier membership per host (`NO_TIER` = directly on the core).
    tier_of: Vec<u32>,
    tiers: Vec<TierLink>,
    /// Shared backbone pipe crossed by inter-tier flows, bytes/second;
    /// `None` models the original unconstrained core.
    backbone: Option<f64>,
    backbone_latency_s: f64,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Makes room for `additional` more hosts, so that adding them does
    /// not grow the per-host arrays by doubling.
    pub fn reserve_hosts(&mut self, additional: usize) {
        self.hosts.reserve_exact(additional);
        self.tier_of.reserve_exact(additional);
    }

    /// Adds a host directly on the unconstrained core, returning its id.
    pub fn add_host(&mut self, link: HostLink) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(link);
        self.tier_of.push(NO_TIER);
        id
    }

    /// Adds an ISP/AS tier, returning its id.
    pub fn add_tier(&mut self, link: TierLink) -> TierId {
        let id = TierId(self.tiers.len() as u32);
        self.tiers.push(link);
        id
    }

    /// Adds a host behind the given tier, returning its id.
    ///
    /// # Panics
    /// If `tier` is not in this topology.
    pub fn add_host_in(&mut self, tier: TierId, link: HostLink) -> HostId {
        assert!((tier.0 as usize) < self.tiers.len(), "unknown {tier:?}");
        let id = self.add_host(link);
        self.tier_of[id.0 as usize] = tier.0;
        id
    }

    /// Constrains the backbone: inter-tier flows cross one shared pipe
    /// of `bytes_per_sec` with `latency_s` one-way latency.
    pub fn set_backbone(&mut self, bytes_per_sec: f64, latency_s: f64) {
        self.backbone = Some(bytes_per_sec);
        self.backbone_latency_s = latency_s;
    }

    /// The tier a host sits behind, if any.
    pub fn tier_of(&self, host: HostId) -> Option<TierId> {
        match self.tier_of[host.0 as usize] {
            NO_TIER => None,
            t => Some(TierId(t)),
        }
    }

    /// Number of tiers.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// The aggregation-link description of `tier`.
    ///
    /// # Panics
    /// If `tier` is not in this topology.
    pub fn tier_link(&self, tier: TierId) -> &TierLink {
        &self.tiers[tier.0 as usize]
    }

    /// True when the topology has tier or backbone structure that the
    /// flat `LinkRef` vocabulary (host links only) cannot express.
    pub fn is_hierarchical(&self) -> bool {
        !self.tiers.is_empty() || self.backbone.is_some()
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when no hosts exist.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The link description of `host`.
    ///
    /// # Panics
    /// If `host` is not in this topology.
    pub fn link(&self, host: HostId) -> &HostLink {
        &self.hosts[host.0 as usize]
    }

    /// Capacity of a directed link endpoint, bytes/second.
    pub fn capacity(&self, l: LinkRef) -> f64 {
        self.link(l.host).capacity(l.dir)
    }

    /// Number of dense link slots: two per host, two per tier, plus one
    /// for the backbone when it is constrained.
    pub fn num_links(&self) -> usize {
        2 * (self.hosts.len() + self.tiers.len()) + self.backbone.is_some() as usize
    }

    /// Dense index of a directed host-link endpoint.
    pub fn link_index(&self, l: LinkRef) -> usize {
        l.host.0 as usize * 2 + l.dir.index()
    }

    /// Dense index of a directed tier-link endpoint.
    pub fn tier_link_index(&self, tier: TierId, dir: Direction) -> usize {
        2 * self.hosts.len() + tier.0 as usize * 2 + dir.index()
    }

    /// Dense index of the backbone slot.
    ///
    /// # Panics
    /// If the backbone is unconstrained.
    pub fn backbone_index(&self) -> usize {
        assert!(self.backbone.is_some(), "backbone is unconstrained");
        2 * (self.hosts.len() + self.tiers.len())
    }

    /// Capacity of the dense link slot `idx`, bytes/second.
    ///
    /// # Panics
    /// If `idx >= num_links()`.
    pub fn capacity_at(&self, idx: usize) -> f64 {
        let nh = 2 * self.hosts.len();
        let up = idx.is_multiple_of(2);
        if idx < nh {
            let link = &self.hosts[idx / 2];
            if up {
                link.up_bytes_per_sec
            } else {
                link.down_bytes_per_sec
            }
        } else if idx < nh + 2 * self.tiers.len() {
            let link = &self.tiers[(idx - nh) / 2];
            if up {
                link.up_bytes_per_sec
            } else {
                link.down_bytes_per_sec
            }
        } else {
            self.backbone.expect("backbone slot without backbone")
        }
    }

    /// One-way latency between two hosts, seconds: the sum of both
    /// access-link latencies, plus — when the hosts sit behind different
    /// tiers — each side's tier latency and the backbone latency.
    pub fn latency(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            return 0.0;
        }
        let mut l = self.link(a).latency_s + self.link(b).latency_s;
        let (ta, tb) = (self.tier_of[a.0 as usize], self.tier_of[b.0 as usize]);
        if ta != tb {
            if ta != NO_TIER {
                l += self.tiers[ta as usize].latency_s;
            }
            if tb != NO_TIER {
                l += self.tiers[tb as usize].latency_s;
            }
            l += self.backbone_latency_s;
        }
        l
    }

    /// Appends the dense link indices a transfer from `src` through the
    /// `via` relay chain to `dst` traverses, in path order.
    ///
    /// Each hop-to-hop segment contributes the sender's uplink, then —
    /// when the endpoints sit behind different tiers — the source tier's
    /// uplink, the (constrained) backbone, and the destination tier's
    /// downlink, then the receiver's downlink. A loopback transfer
    /// (`src == dst`, no relays) traverses nothing. On a flat topology
    /// this produces exactly the original host-link path.
    pub fn route_into(&self, src: HostId, via: &[HostId], dst: HostId, out: &mut Vec<u32>) {
        if src == dst && via.is_empty() {
            return;
        }
        let mut from = src;
        for k in 0..=via.len() {
            let to = if k < via.len() { via[k] } else { dst };
            out.push((from.0 as usize * 2 + Direction::Up.index()) as u32);
            let (tf, tt) = (self.tier_of[from.0 as usize], self.tier_of[to.0 as usize]);
            if tf != tt {
                if tf != NO_TIER {
                    out.push(self.tier_link_index(TierId(tf), Direction::Up) as u32);
                }
                if self.backbone.is_some() {
                    out.push(self.backbone_index() as u32);
                }
                if tt != NO_TIER {
                    out.push(self.tier_link_index(TierId(tt), Direction::Down) as u32);
                }
            }
            out.push((to.0 as usize * 2 + Direction::Down.index()) as u32);
            from = to;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_link_capacity() {
        let l = HostLink::symmetric_mbit(100.0, 0.001);
        assert!((l.up_bytes_per_sec - 12_500_000.0).abs() < 1e-6);
        assert_eq!(l.up_bytes_per_sec, l.down_bytes_per_sec);
        assert_eq!(l.capacity(Direction::Up), l.up_bytes_per_sec);
    }

    #[test]
    fn asymmetric_link() {
        let l = HostLink::asymmetric_mbit(16.0, 1.0, 0.02);
        assert!(l.down_bytes_per_sec > l.up_bytes_per_sec);
    }

    #[test]
    fn topology_add_and_query() {
        let mut t = Topology::new();
        assert!(t.is_empty());
        let a = t.add_host(HostLink::symmetric_mbit(100.0, 0.001));
        let b = t.add_host(HostLink::symmetric_mbit(10.0, 0.005));
        assert_eq!(t.len(), 2);
        assert_eq!(a, HostId(0));
        assert_eq!(b, HostId(1));
        assert!((t.latency(a, b) - 0.006).abs() < 1e-12);
        assert_eq!(t.latency(a, a), 0.0);
    }

    #[test]
    fn flat_route_matches_legacy_path() {
        let mut t = Topology::new();
        let a = t.add_host(HostLink::symmetric_mbit(100.0, 0.001));
        let b = t.add_host(HostLink::symmetric_mbit(100.0, 0.001));
        let v = t.add_host(HostLink::symmetric_mbit(10.0, 0.001));
        assert!(!t.is_hierarchical());
        let mut out = Vec::new();
        t.route_into(a, &[], b, &mut out);
        assert_eq!(out, vec![0, 3]); // a.up, b.down
        out.clear();
        t.route_into(a, &[v], b, &mut out);
        assert_eq!(out, vec![0, 5, 4, 3]); // a.up, v.down, v.up, b.down
        out.clear();
        t.route_into(a, &[], a, &mut out);
        assert!(out.is_empty(), "loopback traverses nothing");
    }

    #[test]
    fn tiered_route_crosses_aggregation_and_backbone() {
        let mut t = Topology::new();
        let isp0 = t.add_tier(TierLink::symmetric_gbit(1.0, 0.005));
        let isp1 = t.add_tier(TierLink::symmetric_gbit(2.0, 0.004));
        let a = t.add_host_in(isp0, HostLink::symmetric_mbit(100.0, 0.001));
        let b = t.add_host_in(isp0, HostLink::symmetric_mbit(100.0, 0.001));
        let c = t.add_host_in(isp1, HostLink::symmetric_mbit(10.0, 0.002));
        t.set_backbone(100e9 / 8.0, 0.01);
        assert!(t.is_hierarchical());
        assert_eq!(t.tier_of(a), Some(isp0));
        assert_eq!(t.tier_of(c), Some(isp1));
        // 3 hosts → slots 0..6; 2 tiers → 6..10; backbone → 10.
        assert_eq!(t.num_links(), 11);
        assert_eq!(t.tier_link_index(isp0, Direction::Up), 6);
        assert_eq!(t.tier_link_index(isp1, Direction::Down), 9);
        assert_eq!(t.backbone_index(), 10);
        assert_eq!(t.capacity_at(6), 1e9 / 8.0);
        assert_eq!(t.capacity_at(10), 100e9 / 8.0);

        // Intra-tier: access links only (traffic stays inside the ISP).
        let mut out = Vec::new();
        t.route_into(a, &[], b, &mut out);
        assert_eq!(out, vec![0, 3]);
        // Inter-tier: a.up, isp0.up, backbone, isp1.down, c.down.
        out.clear();
        t.route_into(a, &[], c, &mut out);
        assert_eq!(out, vec![0, 6, 10, 9, 5]);
        // Latency gains tier + backbone terms only across tiers.
        assert!((t.latency(a, b) - 0.002).abs() < 1e-12);
        assert!((t.latency(a, c) - (0.001 + 0.002 + 0.005 + 0.004 + 0.01)).abs() < 1e-12);
    }

    #[test]
    fn untiered_hosts_mixed_with_tiered() {
        let mut t = Topology::new();
        let server = t.add_host(HostLink::symmetric_mbit(1000.0, 0.0005));
        let isp = t.add_tier(TierLink::symmetric_gbit(1.0, 0.005));
        let vol = t.add_host_in(isp, HostLink::asymmetric_mbit(16.0, 1.0, 0.02));
        let mut out = Vec::new();
        // Untiered → tiered crosses the destination tier's downlink
        // (no backbone configured → no backbone slot).
        t.route_into(server, &[], vol, &mut out);
        assert_eq!(out, vec![0, 5, 3]);
        assert!((t.latency(server, vol) - (0.0005 + 0.02 + 0.005)).abs() < 1e-12);
    }

    #[test]
    fn capacity_at_reads_each_direction_from_its_link() {
        let mut t = Topology::new();
        let isp = t.add_tier(TierLink {
            up_bytes_per_sec: 3e8,
            down_bytes_per_sec: 7e8,
            latency_s: 0.005,
        });
        let a = t.add_host_in(isp, HostLink::asymmetric_mbit(16.0, 1.0, 0.02));
        let b = t.add_host(HostLink::asymmetric_mbit(8.0, 0.5, 0.02));
        t.set_backbone(1e9, 0.01);
        let caps: Vec<f64> = (0..t.num_links()).map(|i| t.capacity_at(i)).collect();
        assert_eq!(caps, vec![125_000.0, 2e6, 62_500.0, 1e6, 3e8, 7e8, 1e9]);
        for host in [a, b] {
            for dir in [Direction::Up, Direction::Down] {
                let l = LinkRef { host, dir };
                assert_eq!(t.capacity_at(t.link_index(l)), t.capacity(l));
            }
        }
        assert_eq!(t.capacity_at(t.tier_link_index(isp, Direction::Down)), 7e8);
    }

    #[test]
    fn dense_link_index_roundtrip() {
        let mut t = Topology::new();
        let a = t.add_host(HostLink::asymmetric_mbit(16.0, 1.0, 0.02));
        let b = t.add_host(HostLink::symmetric_mbit(100.0, 0.001));
        assert_eq!(t.num_links(), 4);
        for host in [a, b] {
            for dir in [Direction::Up, Direction::Down] {
                let l = LinkRef { host, dir };
                let idx = t.link_index(l);
                assert!(idx < t.num_links());
                assert_eq!(t.capacity_at(idx), t.capacity(l));
            }
        }
        // Up/Down of the same host occupy adjacent slots.
        assert_eq!(
            t.link_index(LinkRef {
                host: b,
                dir: Direction::Up
            }),
            2
        );
        assert_eq!(
            t.link_index(LinkRef {
                host: b,
                dir: Direction::Down
            }),
            3
        );
    }
}
