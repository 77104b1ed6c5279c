//! Synthetic volunteer populations in the style of Anderson & Fedak's
//! BOINC host census ("The Computational and Storage Potential of
//! Volunteer Computing", CCGrid'06): a heavy-tailed mixture of access
//! classes spread over oversubscribed ISP tiers, rather than anything
//! resembling the uniform 100 Mbit Emulab testbed.
//!
//! [`PopulationSpec::generate`] draws a standalone population (used by
//! the netsim benches); [`PopulationSpec::generate_into`] draws the
//! same population into an existing topology so an engine can place its
//! server host on the core first, and streams the hosts it placed (used
//! by the engine builder's `.population(spec)`). Both replay one
//! per-host draw sequence from the spec's seed.

use crate::host::{Availability, HostProfile};
use vmr_netsim::{HostId, HostLink, NatType, TierId, TierLink, Topology};

/// One access/compute class in a volunteer population.
#[derive(Clone, Debug)]
pub struct VolunteerClass {
    /// Class label (becomes the generated hosts' profile model name).
    pub name: &'static str,
    /// Relative share of the population drawing this class.
    pub weight: f64,
    /// Access downlink, megabit/s (before per-host jitter).
    pub down_mbit: f64,
    /// Access uplink, megabit/s (before per-host jitter).
    pub up_mbit: f64,
    /// One-way access latency, seconds.
    pub latency_s: f64,
    /// Sustained compute speed, FLOPS.
    pub flops_per_sec: f64,
    /// Mean (on, off) period lengths in seconds of the owner-usage
    /// availability pattern; `None` = always-on machine.
    pub availability: Option<(f64, f64)>,
}

/// Parameters of a synthetic internet-scale volunteer population:
/// `hosts` volunteers drawn from a class mixture, spread over `isps`
/// oversubscribed aggregation tiers behind a shared backbone.
#[derive(Clone, Debug)]
pub struct PopulationSpec {
    /// Number of volunteer hosts to generate.
    pub hosts: usize,
    /// Deterministic generator seed.
    pub seed: u64,
    /// Number of ISP/AS aggregation tiers.
    pub isps: usize,
    /// Contention ratio of an ISP tier: tier capacity = the sum of its
    /// subscribers' access downlinks divided by this (8–20 is typical
    /// for consumer broadband).
    pub isp_oversubscription: f64,
    /// One-way latency of an ISP aggregation hop, seconds.
    pub isp_latency_s: f64,
    /// Backbone capacity = the sum of tier capacities divided by this.
    pub backbone_oversubscription: f64,
    /// One-way backbone traversal latency, seconds.
    pub backbone_latency_s: f64,
    /// The class mixture (weights need not sum to 1).
    pub classes: Vec<VolunteerClass>,
}

/// One generated volunteer: its class, tier placement, access rates and
/// a ready-made [`HostProfile`] for the vcore scheduler.
#[derive(Clone, Debug)]
pub struct GeneratedHost {
    /// Index into [`PopulationSpec::classes`].
    pub class: usize,
    /// The ISP tier the host subscribes to.
    pub tier: TierId,
    /// Jittered access downlink, megabit/s.
    pub down_mbit: f64,
    /// Jittered access uplink, megabit/s.
    pub up_mbit: f64,
    /// Compute/availability profile for the BOINC model.
    pub profile: HostProfile,
}

/// A generated volunteer population: the hierarchical topology plus
/// per-host metadata, index-aligned with the topology's `HostId`s.
#[derive(Debug)]
pub struct HostPopulation {
    /// Hierarchical network (host access links → ISP tiers → backbone).
    pub topo: Topology,
    /// Per-host metadata; `hosts[i]` describes `HostId(i as u32)`.
    pub hosts: Vec<GeneratedHost>,
}

/// splitmix64 — small deterministic generator, no external dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)`.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

impl PopulationSpec {
    /// An Anderson-&-Fedak-flavoured consumer-internet mixture: mostly
    /// DSL/cable with a slow satellite/dial-up floor and a fibre/campus
    /// tail, giving the measured heavy-tailed access-bandwidth
    /// distribution (median a few Mbit, p95 tens of Mbit).
    pub fn internet(hosts: usize, seed: u64) -> Self {
        PopulationSpec {
            hosts,
            seed,
            isps: (hosts / 64).clamp(1, 2048),
            isp_oversubscription: 8.0,
            isp_latency_s: 0.008,
            backbone_oversubscription: 3.0,
            backbone_latency_s: 0.02,
            classes: vec![
                VolunteerClass {
                    name: "satellite",
                    weight: 0.05,
                    down_mbit: 0.5,
                    up_mbit: 0.25,
                    latency_s: 0.15,
                    flops_per_sec: 1.0e9,
                    availability: Some((1_800.0, 1_800.0)),
                },
                VolunteerClass {
                    name: "dsl",
                    weight: 0.40,
                    down_mbit: 4.0,
                    up_mbit: 0.5,
                    latency_s: 0.03,
                    flops_per_sec: 1.5e9,
                    availability: Some((3_600.0, 1_800.0)),
                },
                VolunteerClass {
                    name: "cable",
                    weight: 0.35,
                    down_mbit: 16.0,
                    up_mbit: 1.0,
                    latency_s: 0.02,
                    flops_per_sec: 2.4e9,
                    availability: Some((7_200.0, 3_600.0)),
                },
                VolunteerClass {
                    name: "fiber",
                    weight: 0.15,
                    down_mbit: 100.0,
                    up_mbit: 20.0,
                    latency_s: 0.005,
                    flops_per_sec: 3.0e9,
                    availability: Some((14_400.0, 3_600.0)),
                },
                VolunteerClass {
                    name: "campus",
                    weight: 0.05,
                    down_mbit: 100.0,
                    up_mbit: 100.0,
                    latency_s: 0.002,
                    flops_per_sec: 3.2e9,
                    availability: None,
                },
            ],
        }
    }

    /// Draws the population. Deterministic in the spec: the same spec
    /// yields bit-identical topologies and profiles.
    pub fn generate(&self) -> HostPopulation {
        let mut topo = Topology::new();
        let hosts = self.generate_into(&mut topo).map(|(_, h)| h).collect();
        HostPopulation { topo, hosts }
    }

    /// Draws the population into an existing topology and returns each
    /// generated host paired with the [`HostId`] it received, in host
    /// order. The draw sequence is independent of whatever `topo`
    /// already contains, so an engine can place its server host on the
    /// core first and still get the exact hosts
    /// [`PopulationSpec::generate`] would produce.
    ///
    /// Nothing per host is stored: the per-host draws are replayed from
    /// the seed once per pass. The first pass sizes every tier from its
    /// actual subscriber load (the sum of member downlinks, in host
    /// order, over the contention ratio); the tiers then go in before
    /// any host (tier ids must exist before `add_host_in`), and the
    /// second pass adds the access links. The returned iterator is the
    /// third pass; it borrows the spec, not `topo`.
    pub fn generate_into(
        &self,
        topo: &mut Topology,
    ) -> impl ExactSizeIterator<Item = (HostId, GeneratedHost)> + '_ {
        let mut isp_down_mbit = vec![0.0f64; self.isps.max(1)];
        for d in self.draws() {
            isp_down_mbit[d.isp] += self.classes[d.class].down_mbit * d.bw_jitter;
        }
        let first_tier = topo.num_tiers() as u32;
        let mut total_gbit = 0.0;
        for &down in &isp_down_mbit {
            let gbit = (down / 1_000.0 / self.isp_oversubscription).max(0.001);
            total_gbit += gbit;
            topo.add_tier(TierLink::symmetric_gbit(gbit, self.isp_latency_s));
        }
        topo.set_backbone(
            total_gbit / self.backbone_oversubscription * 1e9 / 8.0,
            self.backbone_latency_s,
        );
        let first_host = topo.len() as u32;
        let tier = move |d: &Draw| TierId(first_tier + d.isp as u32);
        topo.reserve_hosts(self.hosts);
        for d in self.draws() {
            let h = self.host(&d, tier(&d));
            let latency_s = self.classes[d.class].latency_s;
            topo.add_host_in(
                h.tier,
                HostLink::asymmetric_mbit(h.down_mbit, h.up_mbit, latency_s),
            );
        }
        (self.draws().enumerate())
            .map(move |(i, d)| (HostId(first_host + i as u32), self.host(&d, tier(&d))))
    }

    /// The per-host draw sequence, replayed from the seed: each host's
    /// class, ISP, bandwidth jitter and CPU jitter, in that order.
    fn draws(&self) -> impl ExactSizeIterator<Item = Draw> + '_ {
        assert!(!self.classes.is_empty(), "population needs ≥ 1 class");
        let total_w: f64 = self.classes.iter().map(|c| c.weight).sum();
        let isps = self.isps.max(1) as u64;
        let mut rng = self.seed ^ 0x5851_f42d_4c95_7f2d;
        (0..self.hosts).map(move |_| {
            let mut roll = unit_f64(&mut rng) * total_w;
            let mut class = self.classes.len() - 1;
            for (i, c) in self.classes.iter().enumerate() {
                if roll < c.weight {
                    class = i;
                    break;
                }
                roll -= c.weight;
            }
            let isp = (splitmix64(&mut rng) % isps) as usize;
            let bw_jitter = 0.75 + 0.5 * unit_f64(&mut rng);
            let cpu_jitter = 0.75 + 0.5 * unit_f64(&mut rng);
            Draw {
                class,
                isp,
                bw_jitter,
                cpu_jitter,
            }
        })
    }

    /// The host one draw describes, behind `tier`.
    fn host(&self, d: &Draw, tier: TierId) -> GeneratedHost {
        let c = &self.classes[d.class];
        GeneratedHost {
            class: d.class,
            tier,
            down_mbit: c.down_mbit * d.bw_jitter,
            up_mbit: c.up_mbit * d.bw_jitter,
            profile: HostProfile {
                model: c.name.into(),
                flops_per_sec: c.flops_per_sec * d.cpu_jitter,
                slots: 1,
                nat: NatType::Open,
                availability: c.availability.map(|(on_mean_s, off_mean_s)| Availability {
                    on_mean_s,
                    off_mean_s,
                }),
            },
        }
    }
}

/// One host's draws: the only randomness in a population.
struct Draw {
    class: usize,
    isp: usize,
    bw_jitter: f64,
    cpu_jitter: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_deterministic() {
        let a = PopulationSpec::internet(500, 42).generate();
        let b = PopulationSpec::internet(500, 42).generate();
        assert_eq!(a.hosts.len(), b.hosts.len());
        for (x, y) in a.hosts.iter().zip(&b.hosts) {
            assert_eq!(x.class, y.class);
            assert_eq!(x.tier, y.tier);
            assert_eq!(x.down_mbit.to_bits(), y.down_mbit.to_bits());
            assert_eq!(
                x.profile.flops_per_sec.to_bits(),
                y.profile.flops_per_sec.to_bits()
            );
        }
        // A different seed actually changes the draw.
        let c = PopulationSpec::internet(500, 43).generate();
        assert!(a
            .hosts
            .iter()
            .zip(&c.hosts)
            .any(|(x, y)| x.down_mbit.to_bits() != y.down_mbit.to_bits()));
    }

    #[test]
    fn generate_into_matches_generate_with_shifted_ids() {
        let spec = PopulationSpec::internet(300, 11);
        let standalone = spec.generate();
        // Pre-populate the target topology with a server host on the
        // core, as the engine builder does.
        let mut topo = Topology::new();
        let server = topo.add_host(HostLink::symmetric_mbit(100.0, 0.000_5));
        assert_eq!(server, HostId(0));
        let placed: Vec<_> = spec.generate_into(&mut topo).collect();
        assert_eq!(placed.len(), standalone.hosts.len());
        for (i, ((id, got), want)) in placed.iter().zip(&standalone.hosts).enumerate() {
            // Ids are shifted by exactly the pre-existing host count.
            assert_eq!(id.0 as usize, i + 1);
            assert_eq!(got.class, want.class);
            assert_eq!(got.tier, want.tier);
            assert_eq!(got.down_mbit.to_bits(), want.down_mbit.to_bits());
            assert_eq!(
                got.profile.flops_per_sec.to_bits(),
                want.profile.flops_per_sec.to_bits()
            );
            assert_eq!(topo.tier_of(*id), Some(got.tier));
        }
        // Tier structure is identical; the server stays on the core.
        assert_eq!(topo.num_tiers(), standalone.topo.num_tiers());
        assert_eq!(topo.tier_of(server), None);
        assert!(topo.is_hierarchical());
    }

    #[test]
    fn population_class_mix_tracks_weights() {
        let spec = PopulationSpec::internet(10_000, 7);
        let pop = spec.generate();
        let total_w: f64 = spec.classes.iter().map(|c| c.weight).sum();
        let mut counts = vec![0usize; spec.classes.len()];
        for h in &pop.hosts {
            counts[h.class] += 1;
        }
        for (c, &n) in spec.classes.iter().zip(&counts) {
            let expect = c.weight / total_w;
            let got = n as f64 / 10_000.0;
            assert!(
                (got - expect).abs() < 0.03,
                "{}: drew {} expected ~{}",
                c.name,
                got,
                expect
            );
        }
    }

    #[test]
    fn population_bandwidth_is_heavy_tailed() {
        let pop = PopulationSpec::internet(10_000, 1).generate();
        let mut down: Vec<f64> = pop.hosts.iter().map(|h| h.down_mbit).collect();
        down.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let median = down[down.len() / 2];
        let p95 = down[down.len() * 95 / 100];
        assert!(
            p95 / median > 4.0,
            "tail too flat: median {median}, p95 {p95}"
        );
    }

    #[test]
    fn population_topology_is_oversubscribed_hierarchy() {
        let spec = PopulationSpec::internet(2_000, 9);
        let pop = spec.generate();
        assert!(pop.topo.is_hierarchical());
        assert_eq!(pop.topo.num_tiers(), spec.isps);
        // Every tier with subscribers publishes less capacity than the
        // sum of its members' access downlinks (contention ratio > 1).
        let mut member_down = vec![0.0f64; spec.isps];
        for h in &pop.hosts {
            member_down[h.tier.0 as usize] += h.down_mbit * 1e6 / 8.0;
        }
        for (i, &sum) in member_down.iter().enumerate() {
            if sum > 0.0 {
                let tier = pop.topo.tier_link(TierId(i as u32));
                assert!(tier.down_bytes_per_sec < sum, "tier {i} not oversubscribed");
            }
        }
        // Availability classes propagate into the vcore profiles; the
        // always-on campus class keeps `None`.
        assert!(pop.hosts.iter().any(|h| h.profile.availability.is_some()));
        assert!(pop
            .hosts
            .iter()
            .filter(|h| h.profile.model == "campus")
            .all(|h| h.profile.availability.is_none()));
    }
}
