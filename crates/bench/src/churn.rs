//! Flow-churn workload for the netsim engine benchmarks.
//!
//! Models the hot phase the incremental flow engine was built for: a
//! MapReduce shuffle where every reducer fetches partitions from many
//! mappers at once — hundreds to thousands of short overlapping flows,
//! with relay paths, rate caps and background (TCP-Nice) traffic mixed
//! in. The script is deterministic, so every run replays the same flows.
//! (netsim's `equivalence.rs` replays the 12-host script on the
//! scan-everything reference engine too.)

use vmr_core::PopulationSpec;
use vmr_desim::{SimDuration, SimTime};
use vmr_netsim::{Completion, FlowSpec, HostId, HostLink, Network, Priority, Topology};

/// splitmix64 — small deterministic generator, no external dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shape of one churn run.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    /// Volunteer hosts (paper's testbed is ~40; scaling target is 2000+).
    pub hosts: usize,
    /// Concurrent fetches each host issues per wave.
    pub fetches_per_host: usize,
    /// Shuffle waves (each wave starts `wave_gap` after the previous).
    pub waves: usize,
    /// Seed for the deterministic flow layout.
    pub seed: u64,
}

/// Access-link population: mostly 100 Mbit symmetric (the Emulab
/// testbed), with a 10 Mbit DSL-ish tail.
pub fn churn_topology(spec: &ChurnSpec) -> Topology {
    let mut rng = spec.seed ^ 0xC0FF_EE00;
    let mut topo = Topology::new();
    for _ in 0..spec.hosts {
        let r = splitmix64(&mut rng) % 100;
        if r < 75 {
            topo.add_host(HostLink::symmetric_mbit(100.0, 0.001));
        } else {
            topo.add_host(HostLink::asymmetric_mbit(10.0, 1.0, 0.02));
        }
    }
    topo
}

/// Internet-scale access-link population for the 20k/100k legs: the
/// Anderson-&-Fedak-style volunteer mixture (heavy-tailed access
/// bandwidth, oversubscribed ISP tiers, shared backbone) from
/// [`vmr_core::PopulationSpec::internet`].
pub fn population_topology(spec: &ChurnSpec) -> Topology {
    PopulationSpec::internet(spec.hosts, spec.seed)
        .generate()
        .topo
}

/// The scripted flow starts: `(start instant, spec)`, ascending in time.
pub fn churn_script(spec: &ChurnSpec) -> Vec<(SimTime, FlowSpec)> {
    let mut rng = spec.seed;
    let n = spec.hosts as u64;
    let mut script = Vec::with_capacity(spec.hosts * spec.fetches_per_host * spec.waves);
    for wave in 0..spec.waves {
        let wave_start = SimTime::from_secs(10 * wave as u64);
        for dst in 0..spec.hosts {
            for _ in 0..spec.fetches_per_host {
                let jitter = splitmix64(&mut rng) % 2_000_000; // ≤ 2 s
                let at = wave_start + SimDuration::from_micros(jitter);
                let src = HostId((splitmix64(&mut rng) % n) as u32);
                let dst = HostId(dst as u32);
                let bytes = 200_000 + splitmix64(&mut rng) % 3_800_000;
                let mut fs = FlowSpec::simple(src, dst, bytes);
                fs.setup_s = 0.05 + (splitmix64(&mut rng) % 250) as f64 / 1_000.0;
                let roll = splitmix64(&mut rng) % 100;
                if roll < 20 {
                    fs.priority = Priority::Background;
                }
                if roll < 5 {
                    // NAT-relayed path through a supernode (§III.D).
                    fs.via = vec![HostId((splitmix64(&mut rng) % n) as u32)];
                }
                if roll >= 90 {
                    fs.rate_cap = Some(250_000.0);
                }
                script.push((at, fs));
            }
        }
    }
    script.sort_by_key(|(at, _)| *at);
    script
}

/// Result of driving one churn script to completion.
#[derive(Clone, Copy, Debug)]
pub struct ChurnOutcome {
    /// Flows started.
    pub started: usize,
    /// Flows completed (== started: the script has no aborts).
    pub completed: usize,
    /// Engine events processed: starts, plus every completion/setup
    /// boundary the event loop stopped at.
    pub events: usize,
    /// Peak concurrent in-flight flows observed.
    pub peak_concurrent: usize,
    /// Simulated instant the last flow finished.
    pub makespan: SimTime,
    /// Total payload bytes delivered (`netsim.bytes_delivered`).
    pub bytes: u64,
}

/// Replays the script event-by-event (the same pattern the simulation's
/// world loop uses: advance to `next_event_time` or the next scripted
/// start, whichever is sooner) until every flow has completed.
pub fn run_churn(topo: Topology, script: &[(SimTime, FlowSpec)]) -> ChurnOutcome {
    let obs = vmr_obs::Obs::detached();
    let mut net = Network::with_obs(topo, &obs);
    let mut out = ChurnOutcome {
        started: 0,
        completed: 0,
        events: 0,
        peak_concurrent: 0,
        makespan: SimTime::ZERO,
        bytes: 0,
    };
    let harvest = |done: Vec<Completion>, out: &mut ChurnOutcome| {
        for c in &done {
            out.makespan = out.makespan.max(c.at);
        }
        out.completed += done.len();
    };
    let mut i = 0usize;
    while i < script.len() {
        let (at, ref fs) = script[i];
        // Drain self-events strictly before the next scripted start.
        while let Some(t) = net.next_event_time() {
            if t >= at {
                break;
            }
            harvest(net.advance(t), &mut out);
            out.events += 1;
        }
        harvest(net.advance(at), &mut out);
        net.start_flow(at, fs.clone());
        out.started += 1;
        out.events += 1;
        out.peak_concurrent = out.peak_concurrent.max(net.active_flows());
        i += 1;
    }
    while let Some(t) = net.next_event_time() {
        assert!(t < SimTime::MAX, "stalled churn flow");
        harvest(net.advance(t), &mut out);
        out.events += 1;
    }
    assert_eq!(out.completed, out.started, "lost flows");
    out.bytes = obs.counter("netsim.bytes_delivered").get();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_topology_is_hierarchical() {
        let spec = ChurnSpec {
            hosts: 300,
            fetches_per_host: 1,
            waves: 1,
            seed: 3,
        };
        let topo = population_topology(&spec);
        assert_eq!(topo.len(), 300);
        assert!(topo.is_hierarchical());
    }
}
