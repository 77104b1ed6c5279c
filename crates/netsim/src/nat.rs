//! NAT boxes and their effect on peer connectivity.
//!
//! §III.D of the paper discusses why inter-client transfers are hard on
//! the open Internet: volunteers sit behind NATs and firewalls with
//! non-standardized behaviour. This module classifies endpoints with the
//! usual STUN taxonomy and answers the question the traversal tier cares
//! about: *can X establish a TCP connection to Y, and by which method?*

use std::fmt;

/// Endpoint connectivity class (STUN/RFC-3489 taxonomy, as cited by the
/// paper's references \[18\]\[19\]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum NatType {
    /// Publicly reachable address, no NAT/firewall.
    Open,
    /// Full-cone NAT: any external host may use a discovered mapping.
    FullCone,
    /// (Address-)restricted cone: mapping usable only by previously
    /// contacted remote addresses.
    RestrictedCone,
    /// Port-restricted cone: mapping bound to remote (addr, port).
    PortRestricted,
    /// Symmetric NAT: fresh mapping per destination — hole punching
    /// generally fails, TCP hole punching essentially always.
    Symmetric,
    /// Inbound-blocking firewall with no traversal cooperation (UDP
    /// blocked, no STUN): only outbound connections work.
    BlockedInbound,
}

impl NatType {
    /// All variants, for sweeps.
    pub const ALL: [NatType; 6] = [
        NatType::Open,
        NatType::FullCone,
        NatType::RestrictedCone,
        NatType::PortRestricted,
        NatType::Symmetric,
        NatType::BlockedInbound,
    ];

    /// Can this endpoint accept a *direct* unsolicited TCP connection?
    pub fn accepts_inbound(self) -> bool {
        matches!(self, NatType::Open)
    }

    /// Baseline probability that **TCP hole punching** (STUN-assisted
    /// simultaneous open, per Ford et al. \[18\]) succeeds when this
    /// endpoint is one side. The paper notes TCP punching works "less
    /// effectively" than UDP; these per-side factors multiply.
    pub fn tcp_punch_factor(self) -> f64 {
        match self {
            NatType::Open => 1.0,
            NatType::FullCone => 0.95,
            NatType::RestrictedCone => 0.9,
            NatType::PortRestricted => 0.8,
            NatType::Symmetric => 0.05,
            NatType::BlockedInbound => 0.0,
        }
    }
}

impl fmt::Display for NatType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NatType::Open => "open",
            NatType::FullCone => "full-cone",
            NatType::RestrictedCone => "restricted-cone",
            NatType::PortRestricted => "port-restricted",
            NatType::Symmetric => "symmetric",
            NatType::BlockedInbound => "blocked",
        };
        f.write_str(s)
    }
}

/// A population mix of NAT types, used to draw volunteer endpoints.
#[derive(Clone, Debug)]
pub struct NatMix {
    weights: Vec<(NatType, f64)>,
}

impl NatMix {
    /// A mix from `(type, weight)` pairs; weights need not sum to 1.
    ///
    /// # Panics
    /// If all weights are zero/negative or the list is empty.
    pub fn new(weights: Vec<(NatType, f64)>) -> Self {
        let total: f64 = weights.iter().map(|(_, w)| w.max(0.0)).sum();
        assert!(total > 0.0, "NatMix needs positive total weight");
        NatMix { weights }
    }

    /// A rough residential-Internet mix (majority behind some NAT; a
    /// meaningful symmetric fraction), for the §III.D ablation.
    pub fn internet_2011() -> Self {
        NatMix::new(vec![
            (NatType::Open, 0.12),
            (NatType::FullCone, 0.18),
            (NatType::RestrictedCone, 0.20),
            (NatType::PortRestricted, 0.30),
            (NatType::Symmetric, 0.15),
            (NatType::BlockedInbound, 0.05),
        ])
    }

    /// Draws a NAT type with the configured weights.
    pub fn draw(&self, rng: &mut vmr_desim::RngStream) -> NatType {
        let total: f64 = self.weights.iter().map(|(_, w)| w.max(0.0)).sum();
        let mut x = rng.uniform() * total;
        for &(t, w) in &self.weights {
            let w = w.max(0.0);
            if x < w {
                return t;
            }
            x -= w;
        }
        self.weights.last().expect("non-empty").0
    }

    /// The configured `(type, weight)` pairs.
    pub fn weights(&self) -> &[(NatType, f64)] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_desim::RngStream;

    #[test]
    fn only_open_accepts_inbound() {
        for t in NatType::ALL {
            assert_eq!(t.accepts_inbound(), t == NatType::Open);
        }
    }

    #[test]
    fn punch_factors_monotone_with_restrictiveness() {
        let f: Vec<f64> = NatType::ALL.iter().map(|t| t.tcp_punch_factor()).collect();
        for w in f.windows(2) {
            assert!(w[0] >= w[1], "punch factor should not increase: {f:?}");
        }
        assert_eq!(NatType::BlockedInbound.tcp_punch_factor(), 0.0);
    }

    #[test]
    fn mix_draw_respects_support() {
        let mix = NatMix::new(vec![(NatType::Symmetric, 1.0)]);
        let mut rng = RngStream::new(1);
        for _ in 0..100 {
            assert_eq!(mix.draw(&mut rng), NatType::Symmetric);
        }
    }

    #[test]
    fn mix_draw_roughly_proportional() {
        let mix = NatMix::new(vec![(NatType::Open, 3.0), (NatType::Symmetric, 1.0)]);
        let mut rng = RngStream::new(7);
        let n = 40_000;
        let open = (0..n)
            .filter(|_| mix.draw(&mut rng) == NatType::Open)
            .count();
        let frac = open as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "open fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn zero_weight_mix_panics() {
        NatMix::new(vec![(NatType::Open, 0.0)]);
    }

    #[test]
    fn internet_mix_covers_all_types() {
        let mix = NatMix::internet_2011();
        assert_eq!(mix.weights().len(), 6);
    }
}
