//! Property tests for the bandwidth allocator and flow manager.

use proptest::prelude::*;
use vmr_desim::SimTime;
use vmr_netsim::{
    allocate, Direction, FlowDemand, FlowSpec, HostId, HostLink, LinkRef, Network, Topology,
};

fn random_topology(n_hosts: usize, caps: &[f64]) -> Topology {
    let mut t = Topology::new();
    for i in 0..n_hosts {
        t.add_host(HostLink::symmetric_mbit(caps[i % caps.len()], 0.0));
    }
    t
}

proptest! {
    /// No link ever carries more than its capacity, for any flow pattern.
    #[test]
    fn allocation_never_oversubscribes(
        n_hosts in 2usize..12,
        caps in proptest::collection::vec(1.0f64..1000.0, 1..4),
        pairs in proptest::collection::vec((0u32..12, 0u32..12), 1..40),
    ) {
        let topo = random_topology(n_hosts, &caps);
        let flows: Vec<FlowDemand<usize>> = pairs
            .iter()
            .enumerate()
            .filter(|(_, (s, d))| {
                (*s as usize) < n_hosts && (*d as usize) < n_hosts && s != d
            })
            .map(|(i, (s, d))| FlowDemand {
                key: i,
                links: vec![
                    LinkRef { host: HostId(*s), dir: Direction::Up },
                    LinkRef { host: HostId(*d), dir: Direction::Down },
                ],
            })
            .collect();
        let rates = allocate(&topo, &flows);
        // Sum per link.
        let mut usage = std::collections::HashMap::new();
        for (f, r) in flows.iter().zip(&rates) {
            for l in &f.links {
                *usage.entry(*l).or_insert(0.0) += *r;
            }
        }
        for (l, used) in usage {
            let cap = topo.capacity(l);
            prop_assert!(
                used <= cap * (1.0 + 1e-6) + 1e-6,
                "link {:?} oversubscribed: {} > {}", l, used, cap
            );
        }
    }

    /// All rates are non-negative and every flow with at least one link
    /// of positive capacity gets a positive rate when it is alone on its
    /// links.
    #[test]
    fn lone_flow_gets_positive_rate(
        cap in 1.0f64..1000.0,
        bytes in 1u64..1_000_000_000,
    ) {
        let mut topo = Topology::new();
        let a = topo.add_host(HostLink::symmetric_mbit(cap, 0.0));
        let b = topo.add_host(HostLink::symmetric_mbit(cap, 0.0));
        let mut net = Network::new(topo);
        net.start_flow(SimTime::ZERO, FlowSpec::simple(a, b, bytes));
        let t = net.next_event_time().unwrap();
        prop_assert!(t < SimTime::MAX);
        let done = net.advance(t);
        prop_assert_eq!(done.len(), 1);
        // Completion time == bytes / capacity.
        let expect = bytes as f64 / (cap * 1e6 / 8.0);
        let got = done[0].at.as_secs_f64();
        prop_assert!((got - expect).abs() < expect.max(1e-3) * 1e-3 + 2e-6,
            "expected {} got {}", expect, got);
    }

    /// Max–min property: you cannot raise any flow's rate without
    /// lowering the rate of some flow that has an equal or smaller rate.
    /// We verify the standard certificate: every flow has at least one
    /// saturated link on which it has the maximal rate among its users.
    #[test]
    fn max_min_certificate(
        n_hosts in 2usize..8,
        pairs in proptest::collection::vec((0u32..8, 0u32..8), 1..20),
    ) {
        let topo = random_topology(n_hosts, &[100.0]);
        let flows: Vec<FlowDemand<usize>> = pairs
            .iter()
            .enumerate()
            .filter(|(_, (s, d))| (*s as usize) < n_hosts && (*d as usize) < n_hosts && s != d)
            .map(|(i, (s, d))| FlowDemand {
                key: i,
                links: vec![
                    LinkRef { host: HostId(*s), dir: Direction::Up },
                    LinkRef { host: HostId(*d), dir: Direction::Down },
                ],
            })
            .collect();
        prop_assume!(!flows.is_empty());
        let rates = allocate(&topo, &flows);
        let mut usage = std::collections::HashMap::new();
        for (f, r) in flows.iter().zip(&rates) {
            for l in &f.links {
                *usage.entry(*l).or_insert(0.0) += *r;
            }
        }
        for (i, f) in flows.iter().enumerate() {
            let has_certificate = f.links.iter().any(|l| {
                let cap = topo.capacity(*l);
                let used: f64 = usage[l];
                let saturated = used >= cap * (1.0 - 1e-6);
                let is_max_user = flows
                    .iter()
                    .enumerate()
                    .filter(|(_, g)| g.links.contains(l))
                    .all(|(j, _)| rates[j] <= rates[i] * (1.0 + 1e-6));
                saturated && is_max_user
            });
            prop_assert!(has_certificate, "flow {} lacks a bottleneck certificate", i);
        }
    }

    /// The flow manager conserves bytes: total delivered equals the sum
    /// of all completed flow sizes, regardless of arrival pattern.
    #[test]
    fn byte_conservation(
        specs in proptest::collection::vec((0u32..6, 0u32..6, 1u64..10_000_000, 0u64..5_000), 1..20)
    ) {
        let topo = random_topology(6, &[100.0]);
        let mut net = Network::new(topo);
        let mut expected = 0u64;
        // The Network API requires non-decreasing call times.
        let mut specs = specs;
        specs.sort_by_key(|(_, _, _, start_ms)| *start_ms);
        for (s, d, bytes, start_ms) in &specs {
            if s == d { continue; }
            expected += bytes;
            net.start_flow(
                SimTime::from_millis(*start_ms),
                FlowSpec::simple(HostId(*s), HostId(*d), *bytes),
            );
        }
        let mut completed = 0usize;
        let mut bytes_done = 0u64;
        while let Some(t) = net.next_event_time() {
            prop_assert!(t < SimTime::MAX, "flow stalled forever");
            for c in net.advance(t) {
                completed += 1;
                bytes_done += c.spec.bytes;
            }
        }
        prop_assert_eq!(bytes_done, expected);
        prop_assert_eq!(net.active_flows(), 0);
        let _ = completed;
    }
}
