//! Tiered NAT traversal (§III.D).
//!
//! The paper proposes exactly this escalation for client↔client
//! connections, modelled on Skype's approach:
//!
//! 1. **Direct** — works when the serving peer is publicly reachable.
//! 2. **Connection reversal** — if the *requester* is reachable, the
//!    server (rendezvous) asks the NATed peer to connect outwards.
//! 3. **TCP hole punching** — STUN-style simultaneous open, probabilistic
//!    per the NAT-pair matrix.
//! 4. **Relay** — TURN-style forwarding through a reachable node (the
//!    project server, or a supernode volunteer); always works, at the
//!    cost of carrying data through the relay's links.
//!
//! The connect attempt returns which tier succeeded and how long the
//! escalation took, so the flow model can charge setup latency.

use crate::nat::NatType;
use vmr_desim::RngStream;

/// Which mechanism finally established the connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Path {
    /// Requester connected straight to the peer.
    Direct,
    /// Peer connected out to the requester after a rendezvous nudge.
    Reversal,
    /// STUN-assisted TCP simultaneous open.
    HolePunch,
    /// Data forwarded through a relay node.
    Relay,
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Path::Direct => "direct",
            Path::Reversal => "reversal",
            Path::HolePunch => "hole-punch",
            Path::Relay => "relay",
        };
        f.write_str(s)
    }
}

/// Traversal policy knobs (which tiers are enabled, timing).
#[derive(Clone, Debug)]
pub struct TraversalPolicy {
    /// Attempt direct connection first.
    pub allow_direct: bool,
    /// Attempt connection reversal through the rendezvous server.
    pub allow_reversal: bool,
    /// Attempt TCP hole punching.
    pub allow_hole_punch: bool,
    /// Fall back to relaying through the server/supernode.
    pub allow_relay: bool,
    /// Time to establish a direct TCP connection, seconds.
    pub direct_setup_s: f64,
    /// Extra time for a reversal (one server round-trip + reconnect).
    pub reversal_setup_s: f64,
    /// Extra time for a punch attempt (STUN exchange + simultaneous open).
    pub punch_setup_s: f64,
    /// Extra time to provision a relay session.
    pub relay_setup_s: f64,
    /// Time wasted by each tier that fails before the next is tried.
    pub failed_tier_cost_s: f64,
}

impl Default for TraversalPolicy {
    fn default() -> Self {
        TraversalPolicy {
            allow_direct: true,
            allow_reversal: true,
            allow_hole_punch: true,
            allow_relay: true,
            direct_setup_s: 0.2,
            reversal_setup_s: 0.8,
            punch_setup_s: 1.5,
            relay_setup_s: 1.0,
            failed_tier_cost_s: 3.0,
        }
    }
}

impl TraversalPolicy {
    /// Direct-only policy: what the prototype in the paper actually ships
    /// (volunteers must open ports; no traversal implemented yet).
    pub fn direct_only() -> Self {
        TraversalPolicy {
            allow_reversal: false,
            allow_hole_punch: false,
            allow_relay: false,
            ..TraversalPolicy::default()
        }
    }

    /// Direct with server-relay fall-back but no fancy traversal.
    pub fn direct_or_relay() -> Self {
        TraversalPolicy {
            allow_reversal: false,
            allow_hole_punch: false,
            ..TraversalPolicy::default()
        }
    }
}

/// Outcome of one connect attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnectOutcome {
    /// The tier that succeeded.
    pub path: Path,
    /// Total connection-establishment time, including failed tiers.
    pub setup_s: f64,
    /// Number of tiers tried before success (1 = first tier worked).
    pub tiers_tried: u32,
}

/// Attempts to open a TCP connection from `requester` (NAT type `req`)
/// to the file-serving peer (NAT type `srv`), escalating through the
/// enabled tiers. Returns `None` if every enabled tier fails.
pub fn connect(
    req: NatType,
    srv: NatType,
    policy: &TraversalPolicy,
    rng: &mut RngStream,
) -> Option<ConnectOutcome> {
    let mut elapsed = 0.0;
    let mut tiers = 0u32;

    if policy.allow_direct {
        tiers += 1;
        if srv.accepts_inbound() {
            return Some(ConnectOutcome {
                path: Path::Direct,
                setup_s: elapsed + policy.direct_setup_s,
                tiers_tried: tiers,
            });
        }
        elapsed += policy.failed_tier_cost_s;
    }

    if policy.allow_reversal {
        tiers += 1;
        // The serving peer dials out to the requester, so the requester
        // must accept inbound. NATed peers can always dial out.
        if req.accepts_inbound() {
            return Some(ConnectOutcome {
                path: Path::Reversal,
                setup_s: elapsed + policy.reversal_setup_s,
                tiers_tried: tiers,
            });
        }
        elapsed += policy.failed_tier_cost_s;
    }

    if policy.allow_hole_punch {
        tiers += 1;
        let p = req.tcp_punch_factor() * srv.tcp_punch_factor();
        if rng.chance(p) {
            return Some(ConnectOutcome {
                path: Path::HolePunch,
                setup_s: elapsed + policy.punch_setup_s,
                tiers_tried: tiers,
            });
        }
        elapsed += policy.failed_tier_cost_s;
    }

    if policy.allow_relay {
        tiers += 1;
        // Relaying only needs outbound connections from both sides.
        return Some(ConnectOutcome {
            path: Path::Relay,
            setup_s: elapsed + policy.relay_setup_s,
            tiers_tried: tiers,
        });
    }

    None
}

/// Aggregated traversal statistics for a sweep.
#[derive(Clone, Debug, Default)]
pub struct TraversalStats {
    /// Successful connections per path.
    pub direct: u64,
    /// Connections established via reversal.
    pub reversal: u64,
    /// Connections established via hole punching.
    pub hole_punch: u64,
    /// Connections established via relay.
    pub relay: u64,
    /// Attempts where every enabled tier failed.
    pub failed: u64,
    /// Sum of setup seconds over successful attempts.
    pub setup_total_s: f64,
}

impl TraversalStats {
    /// Records one outcome.
    pub fn record(&mut self, outcome: Option<ConnectOutcome>) {
        match outcome {
            Some(o) => {
                match o.path {
                    Path::Direct => self.direct += 1,
                    Path::Reversal => self.reversal += 1,
                    Path::HolePunch => self.hole_punch += 1,
                    Path::Relay => self.relay += 1,
                }
                self.setup_total_s += o.setup_s;
            }
            None => self.failed += 1,
        }
    }

    /// Total successful connections.
    pub fn successes(&self) -> u64 {
        self.direct + self.reversal + self.hole_punch + self.relay
    }

    /// Success ratio over all attempts.
    pub fn success_rate(&self) -> f64 {
        let total = self.successes() + self.failed;
        if total == 0 {
            0.0
        } else {
            self.successes() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmr_desim::RngStream;

    fn rng() -> RngStream {
        RngStream::new(11)
    }

    #[test]
    fn open_server_connects_directly() {
        let o = connect(
            NatType::Symmetric,
            NatType::Open,
            &TraversalPolicy::default(),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(o.path, Path::Direct);
        assert_eq!(o.tiers_tried, 1);
        assert!(o.setup_s < 1.0);
    }

    #[test]
    fn reversal_when_requester_open() {
        let o = connect(
            NatType::Open,
            NatType::Symmetric,
            &TraversalPolicy::default(),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(o.path, Path::Reversal);
        assert_eq!(o.tiers_tried, 2);
    }

    #[test]
    fn symmetric_pair_relays() {
        // Symmetric↔symmetric punch probability is 0.0025; over a few
        // trials we should overwhelmingly see relay.
        let mut r = rng();
        let mut relays = 0;
        for _ in 0..100 {
            let o = connect(
                NatType::Symmetric,
                NatType::Symmetric,
                &TraversalPolicy::default(),
                &mut r,
            )
            .unwrap();
            if o.path == Path::Relay {
                relays += 1;
            }
        }
        assert!(relays >= 95, "relays={relays}");
    }

    #[test]
    fn blocked_pair_without_relay_fails() {
        let p = TraversalPolicy {
            allow_relay: false,
            ..TraversalPolicy::default()
        };
        let o = connect(
            NatType::BlockedInbound,
            NatType::BlockedInbound,
            &p,
            &mut rng(),
        );
        assert_eq!(o, None);
    }

    #[test]
    fn direct_only_policy_mirrors_prototype() {
        let p = TraversalPolicy::direct_only();
        assert!(connect(NatType::Open, NatType::Open, &p, &mut rng()).is_some());
        assert!(connect(NatType::Open, NatType::PortRestricted, &p, &mut rng()).is_none());
    }

    #[test]
    fn failed_tiers_add_latency() {
        let p = TraversalPolicy::default();
        let direct = connect(NatType::Open, NatType::Open, &p, &mut rng()).unwrap();
        let relayed = connect(
            NatType::BlockedInbound,
            NatType::BlockedInbound,
            &p,
            &mut rng(),
        )
        .unwrap();
        assert_eq!(relayed.path, Path::Relay);
        assert!(relayed.setup_s > direct.setup_s + 2.0 * p.failed_tier_cost_s);
        assert_eq!(relayed.tiers_tried, 4);
    }

    #[test]
    fn stats_aggregate() {
        let mut s = TraversalStats::default();
        s.record(Some(ConnectOutcome {
            path: Path::Direct,
            setup_s: 0.2,
            tiers_tried: 1,
        }));
        s.record(Some(ConnectOutcome {
            path: Path::Relay,
            setup_s: 1.0,
            tiers_tried: 4,
        }));
        s.record(None);
        assert_eq!(s.successes(), 2);
        assert!((s.success_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
