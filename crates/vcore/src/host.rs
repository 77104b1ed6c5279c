//! Host (volunteer machine) profiles.
//!
//! The paper's testbed has two node types (§IV.A):
//! * `pc3001` — Dell PowerEdge 2850, 3 GHz Pentium IV Xeon, 1 GB RAM;
//! * `pcr200` — Dell PowerEdge r200, quad-core Intel Xeon X3220, 8 GB.
//!
//! We characterize a host by sustained FLOPS (scales compute time), the
//! number of concurrent task slots the BOINC client uses, and its NAT
//! class (always [`NatType::Open`] on the testbed).

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use vmr_netsim::NatType;

/// Static performance/connectivity description of a volunteer machine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HostProfile {
    /// Human-readable type name (borrowed for the built-in classes, so
    /// generating a population allocates nothing per host).
    pub model: Cow<'static, str>,
    /// Sustained FLOPS for project workloads.
    pub flops_per_sec: f64,
    /// Concurrent tasks the client runs (≈ cores BOINC is allowed).
    pub slots: u32,
    /// NAT/firewall class of the host's connection.
    #[serde(skip, default = "default_nat")]
    pub nat: NatType,
    /// Volunteer availability: `None` = dedicated machine (the Emulab
    /// testbed); `Some` = the host alternates between computing and
    /// being used by its owner (execution pauses while suspended).
    pub availability: Option<Availability>,
}

/// An on/off availability pattern with exponentially distributed
/// period lengths — the standard model for volunteer hosts, whose
/// owners preempt BOINC whenever they use the machine.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Availability {
    /// Mean length of a computing (available) period, seconds.
    pub on_mean_s: f64,
    /// Mean length of a suspended period, seconds.
    pub off_mean_s: f64,
}

impl Availability {
    /// Long-run fraction of time the host computes.
    pub fn duty_cycle(&self) -> f64 {
        self.on_mean_s / (self.on_mean_s + self.off_mean_s)
    }
}

/// Deserialization default for [`HostProfile::nat`] (referenced from the
/// `#[serde(default)]` attribute; kept callable so the vendored serde
/// stub, which ignores field attributes, does not orphan it).
pub fn default_nat() -> NatType {
    NatType::Open
}

impl HostProfile {
    /// The testbed's Pentium-IV Xeon node (single task slot).
    ///
    /// A 3 GHz NetBurst Xeon sustains roughly 1.5 GFLOPS on integer-ish
    /// text workloads once memory stalls are accounted for.
    pub fn pc3001() -> Self {
        HostProfile {
            model: "pc3001".into(),
            flops_per_sec: 1.5e9,
            slots: 1,
            nat: NatType::Open,
            availability: None,
        }
    }

    /// The testbed's quad-core Xeon X3220 node.
    ///
    /// Per-core throughput about 2.4 GFLOPS; BOINC runs one task per
    /// core.
    pub fn pcr200() -> Self {
        HostProfile {
            model: "pcr200".into(),
            flops_per_sec: 2.4e9,
            slots: 4,
            nat: NatType::Open,
            availability: None,
        }
    }

    /// Seconds to execute a task of `flops` FLOPs on one slot.
    pub fn compute_seconds(&self, flops: f64) -> f64 {
        flops / self.flops_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_profiles() {
        let a = HostProfile::pc3001();
        let b = HostProfile::pcr200();
        assert_eq!(a.slots, 1);
        assert_eq!(b.slots, 4);
        assert!(b.flops_per_sec > a.flops_per_sec);
    }

    #[test]
    fn compute_time_scales_inversely() {
        let h = HostProfile::pc3001();
        let t1 = h.compute_seconds(3e9);
        let t2 = h.compute_seconds(6e9);
        assert!((t2 - 2.0 * t1).abs() < 1e-9);
        assert!((t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn availability_duty_cycle() {
        let a = Availability {
            on_mean_s: 3.0,
            off_mean_s: 1.0,
        };
        assert!((a.duty_cycle() - 0.75).abs() < 1e-12);
        let h = Availability {
            on_mean_s: 600.0,
            off_mean_s: 300.0,
        };
        assert!((h.duty_cycle() - 2.0 / 3.0).abs() < 1e-12);
        assert!(HostProfile::pc3001().availability.is_none());
    }
}
