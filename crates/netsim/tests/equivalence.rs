//! Differential tests: the incremental allocator/flow engine against
//! the scan-everything reference implementations in [`spec`].
//!
//! * [`vmr_netsim::Allocator`] (behind [`allocate`]) must reproduce
//!   [`allocate_reference`] bit-for-bit on arbitrary topologies and
//!   demand sets, and never oversubscribe a link.
//! * [`Network`] must produce the **bit-identical completion stream** of
//!   [`NaiveNetwork`] — same flows, same order, same microsecond, same
//!   durations, the same `netsim.*` counters — for arbitrary monotone
//!   event scripts, and be deterministic across repeated runs.
//! * On tiered topologies, which the reference cannot model, [`Network`]
//!   must account for every flow and replay deterministically.

mod spec;

use proptest::prelude::*;
use spec::{allocate_reference, NaiveNetwork};
use vmr_desim::{SimDuration, SimTime};
use vmr_netsim::{
    allocate, Direction, FlowDemand, FlowSpec, HostId, HostLink, LinkRef, Network, Priority,
    TierLink, Topology,
};

fn host_link(sel: u8) -> HostLink {
    match sel % 4 {
        0 => HostLink::symmetric_mbit(100.0, 0.0),
        1 => HostLink::symmetric_mbit(10.0, 0.001),
        2 => HostLink::asymmetric_mbit(16.0, 1.0, 0.02),
        _ => HostLink::symmetric_mbit(0.5, 0.005),
    }
}

fn build_topology(hosts: &[u8]) -> Topology {
    let mut t = Topology::new();
    for &h in hosts {
        t.add_host(host_link(h));
    }
    t
}

/// Builds a demand set from raw generator tuples; src == dst produces a
/// loopback (no-link) demand, `relay_sel` sometimes adds a relay hop.
#[allow(clippy::type_complexity)]
fn build_demands(
    n_hosts: u32,
    raw: &[((u32, u32, u32), (bool, u8, u8))],
) -> Vec<FlowDemand<usize>> {
    raw.iter()
        .enumerate()
        .map(|(i, &((src, dst, relay_sel), (bg, cap_sel, _)))| {
            let src = HostId(src % n_hosts);
            let dst = HostId(dst % n_hosts);
            let mut links = Vec::new();
            if src != dst {
                links.push(LinkRef {
                    host: src,
                    dir: Direction::Up,
                });
                if relay_sel % 5 == 0 {
                    let relay = HostId(relay_sel % n_hosts);
                    links.push(LinkRef {
                        host: relay,
                        dir: Direction::Down,
                    });
                    links.push(LinkRef {
                        host: relay,
                        dir: Direction::Up,
                    });
                }
                links.push(LinkRef {
                    host: dst,
                    dir: Direction::Down,
                });
            }
            FlowDemand {
                key: i,
                links,
                priority: if bg {
                    Priority::Background
                } else {
                    Priority::Foreground
                },
                rate_cap: if cap_sel % 3 == 0 {
                    Some(500.0 + cap_sel as f64 * 4_321.0)
                } else {
                    None
                },
            }
        })
        .collect()
}

/// One scripted flow start: `(src, dst, relay_sel, bytes, setup_ms,
/// prio_sel)` then `(cap_sel, dt_us, abort_sel)`.
type RawFlow = ((u32, u32, u32, u64, u16, u8), (u8, u32, u8));

/// The obs counters both engines must agree on: flows started,
/// completed, aborted, and payload bytes delivered. (Deliberately not
/// `netsim.realloc_waves`, which is engine-defined: the reference
/// engine reallocates on every settle.)
fn obs_counters(obs: &vmr_obs::Obs) -> [u64; 4] {
    let snap = obs.snapshot();
    [
        snap.counter("netsim.flows_started"),
        snap.counter("netsim.flows_completed"),
        snap.counter("netsim.flows_aborted"),
        snap.counter("netsim.bytes_delivered"),
    ]
}

/// Replays a script on either engine; both expose the same API, so the
/// runner is stamped out per engine type. Alongside the completion
/// stream, returns the engine's obs counter vector for differential
/// comparison.
macro_rules! script_runner {
    ($name:ident, $on_name:ident, $engine:ty) => {
        fn $name(hosts: &[u8], flows: &[RawFlow]) -> (Vec<(u64, u64, u64)>, [u64; 4]) {
            $on_name(build_topology(hosts), flows)
        }

        fn $on_name(topo: Topology, flows: &[RawFlow]) -> (Vec<(u64, u64, u64)>, [u64; 4]) {
            let n = topo.len() as u32;
            let obs = vmr_obs::Obs::new();
            let mut net = <$engine>::with_obs(topo, &obs);
            let mut now = SimTime::ZERO;
            let mut out = Vec::new();
            let mut started = Vec::new();
            let record =
                |c: vmr_netsim::Completion| (c.id.0, c.at.as_micros(), c.duration.as_micros());
            for &((src, dst, relay_sel, bytes, setup_ms, prio_sel), (cap_sel, dt_us, abort_sel)) in
                flows
            {
                now += SimDuration::from_micros(dt_us as u64 % 3_000_000);
                out.extend(net.advance(now).into_iter().map(record));
                if abort_sel % 7 == 0 && !started.is_empty() {
                    let victim = started[abort_sel as usize % started.len()];
                    net.abort_flow(now, victim);
                }
                let src = HostId(src % n);
                let dst = HostId(dst % n);
                let mut spec = FlowSpec::simple(src, dst, bytes % 5_000_000);
                spec.setup_s = (setup_ms % 2_000) as f64 / 1_000.0;
                if prio_sel % 3 == 0 {
                    spec.priority = Priority::Background;
                }
                if cap_sel % 4 == 0 {
                    spec.rate_cap = Some(1_000.0 + cap_sel as f64 * 977.0);
                }
                if relay_sel % 6 == 0 && n >= 3 {
                    spec.via = vec![HostId((relay_sel + 1) % n)];
                }
                started.push(net.start_flow(now, spec));
            }
            let mut guard = 0u32;
            while let Some(t) = net.next_event_time() {
                if t == SimTime::MAX {
                    break;
                }
                guard += 1;
                assert!(guard < 100_000, "script did not converge");
                out.extend(net.advance(t).into_iter().map(record));
            }
            (out, obs_counters(&obs))
        }
    };
}

script_runner!(run_incremental, run_incremental_on, Network);
script_runner!(run_naive, run_naive_on, NaiveNetwork);

/// A three-ISP tiered topology with a constrained backbone: the
/// incremental engine allocates over tier and backbone links through
/// the same dense index space as over host links.
fn tiered_topology(hosts: &[u8]) -> Topology {
    let mut t = Topology::new();
    let tiers = [
        t.add_tier(TierLink::symmetric_gbit(0.04, 0.004)),
        t.add_tier(TierLink::symmetric_gbit(0.1, 0.006)),
        t.add_tier(TierLink::symmetric_gbit(0.02, 0.008)),
    ];
    for (i, &h) in hosts.iter().enumerate() {
        t.add_host_in(tiers[i % tiers.len()], host_link(h));
    }
    t.set_backbone(60e6 / 8.0, 0.012);
    t
}

/// Compares two completion streams for exact equality — same flows, in
/// the same order, at the same microsecond, with the same durations —
/// and checks each stream is time-ordered. Returns a description of the
/// first violation, if any.
///
/// Exactness is achievable because both engines materialize a flow's
/// bytes only at its rate changes, with identical arithmetic from
/// identical anchors, and the allocator is proven bit-identical to the
/// reference. (The pre-rewrite engine instead re-integrated bytes at
/// every `advance` call, so its `ceil` to whole microseconds shifted by
/// ±1 µs with the caller's observation pattern; both engines now use the
/// observation-independent anchor semantics.)
fn stream_divergence(inc: &[(u64, u64, u64)], nai: &[(u64, u64, u64)]) -> Option<String> {
    if inc.len() != nai.len() {
        return Some(format!("lengths differ: {} vs {}", inc.len(), nai.len()));
    }
    for (i, (a, b)) in inc.iter().zip(nai).enumerate() {
        if a != b {
            return Some(format!(
                "entry {}: incremental (id {}, at {} µs, dur {}) vs naive (id {}, at {} µs, dur {})",
                i, a.0, a.1, a.2, b.0, b.1, b.2
            ));
        }
    }
    for s in [inc, nai] {
        if s.windows(2).any(|w| w[0].1 > w[1].1) {
            return Some("completion stream not time-ordered".into());
        }
    }
    None
}

/// A fixed mixed script (relays, aborts, setup phases, both priorities,
/// loopback flows) pinned as a regression case: it sits on several of
/// the `ceil`-boundary instants where the pre-rewrite observation-
/// dependent byte integration used to shift completions by 1 µs.
#[test]
fn pinned_mixed_script_matches_naive() {
    let hosts = [0u8, 3, 1, 2, 3, 2, 1];
    let flows: Vec<RawFlow> = vec![
        ((6, 7, 2, 4884319, 1838, 3), (1, 2769706, 7)),
        ((0, 6, 5, 3918933, 801, 5), (4, 1820795, 8)),
        ((1, 7, 3, 4087075, 910, 0), (2, 1485187, 4)),
        ((3, 6, 1, 4191922, 553, 4), (4, 1385974, 5)),
        ((6, 2, 0, 2783030, 76, 4), (5, 890703, 2)),
        ((2, 0, 4, 3318767, 630, 2), (6, 125313, 12)),
        ((5, 7, 11, 3511820, 154, 4), (5, 2789263, 2)),
        ((6, 2, 2, 1568056, 1391, 2), (6, 2247833, 2)),
        ((1, 2, 0, 2958001, 1492, 3), (0, 2379743, 11)),
        ((4, 6, 6, 4618704, 1753, 0), (4, 2198808, 2)),
        ((0, 6, 11, 2066412, 54, 4), (7, 967746, 8)),
        ((5, 7, 1, 2474246, 220, 3), (2, 1358664, 10)),
        ((7, 1, 0, 3189491, 854, 4), (6, 1332666, 10)),
        ((6, 1, 6, 2047573, 923, 3), (7, 91435, 12)),
        ((0, 5, 11, 205501, 1, 5), (7, 978067, 4)),
        ((5, 5, 3, 4830722, 1271, 3), (3, 1510680, 5)),
        ((4, 5, 9, 1791366, 1471, 1), (5, 161319, 11)),
    ];
    let (inc, inc_obs) = run_incremental(&hosts, &flows);
    let (nai, nai_obs) = run_naive(&hosts, &flows);
    assert_eq!(stream_divergence(&inc, &nai), None);
    assert_eq!(inc_obs, nai_obs, "obs counters diverge");
    assert!(inc_obs[0] > 0, "script started no flows");
}

/// One scripted step of the star script below.
enum StarStep {
    /// `advance` to the instant, then start the flow.
    Start(FlowSpec),
    /// Start the flow *without* advancing first and without waking for
    /// any network event since the previous step: flows whose due
    /// instant passed in between sit unharvested through this
    /// `start_flow`'s reallocation.
    StartUnharvested(FlowSpec),
    /// `advance`, then abort the flow the given earlier step started.
    Abort(usize),
}

const STAR_CLIENTS: u32 = 64;
const STAR_SETUP_S: f64 = 0.25;

/// The shape `volunteers2k_files` runs: every client pulls 4 MB from
/// one server and pushes 1 MB back when the download completes, so
/// every arrival and departure moves every rate on the server's links.
/// Starts are 10 ms apart with a 250 ms set-up phase, so most
/// `start_flow` calls see an unchanged demand set (the solve-once
/// shortcut), first an empty one and then a populated one.
fn star_script() -> Vec<(SimTime, StarStep)> {
    let server = HostId(0);
    let spec = |src, dst, bytes, setup_s| {
        let mut s = FlowSpec::simple(src, dst, bytes);
        s.setup_s = setup_s;
        s
    };
    let mut script: Vec<(SimTime, StarStep)> = (1..=STAR_CLIENTS)
        .map(|c| {
            (
                SimTime::from_millis(10 * c as u64),
                StarStep::Start(spec(server, HostId(c), 4_000_000, STAR_SETUP_S)),
            )
        })
        .collect();
    // A zero-byte flow: never in the demand set, due when set-up ends.
    script.push((
        SimTime::from_millis(655),
        StarStep::Start(spec(HostId(5), server, 0, STAR_SETUP_S)),
    ));
    // Aborted while still in its set-up phase.
    let victim = script.len();
    script.push((
        SimTime::from_millis(660),
        StarStep::Start(spec(server, HostId(7), 4_000_000, 2.0)),
    ));
    script.push((SimTime::from_millis(900), StarStep::Abort(victim)));
    // A 1 kB flow between two zero-latency clients, due within a
    // millisecond of its start, then half a blind second in the thick
    // of the download completions: it and every download that finishes
    // meanwhile are past their due instants when the next flow starts.
    script.push((
        SimTime::from_millis(16_500),
        StarStep::Start(spec(HostId(9), HostId(13), 1_000, 0.0)),
    ));
    script.push((
        SimTime::from_secs(17),
        StarStep::StartUnharvested(spec(server, HostId(11), 4_000_000, STAR_SETUP_S)),
    ));
    // After the star has drained: a flow due at 200.1 s and one whose
    // set-up ends at 200.05 s on a ten times slower path, with no wake
    // before 200.2 s. That wave's demand set is the previous one with
    // one flow swapped for another: same length, different rates.
    let t = SimTime::from_secs(200);
    script.push((
        t,
        StarStep::Start(spec(HostId(1), HostId(5), 1_250_000, 0.0)),
    ));
    script.push((
        t,
        StarStep::Start(spec(HostId(9), HostId(2), 1_250_000, 0.05)),
    ));
    script.push((
        SimTime::from_millis(200_200),
        StarStep::StartUnharvested(spec(HostId(13), HostId(17), 1_000, STAR_SETUP_S)),
    ));
    script
}

/// Event-driven replay of [`star_script`]: wakes at every
/// `next_event_time`, like the engine's network wake-up, and starts a
/// client's upload at the instant its download is reported.
macro_rules! star_runner {
    ($name:ident, $engine:ty) => {
        fn $name() -> (Vec<(u64, u64, u64)>, [u64; 4]) {
            let mut topo = Topology::new();
            let server = topo.add_host(HostLink::symmetric_mbit(100.0, 0.0));
            for c in 0..STAR_CLIENTS {
                topo.add_host(host_link(c as u8));
            }
            let obs = vmr_obs::Obs::new();
            let mut net = <$engine>::with_obs(topo, &obs);
            let script = star_script();
            let mut started = Vec::new();
            let mut downloads = std::collections::BTreeMap::new();
            let mut out = Vec::new();
            let mut step = 0;
            loop {
                let scripted = script.get(step).map(|(t, _)| *t);
                let blind = matches!(script.get(step), Some((_, StarStep::StartUnharvested(_))));
                let wake = net
                    .next_event_time()
                    .filter(|&t| t < SimTime::MAX && !blind);
                let (now, run_step) = match (scripted, wake) {
                    (Some(s), Some(w)) if w < s => (w, false),
                    (Some(s), _) => (s, true),
                    (None, Some(w)) => (w, false),
                    (None, None) => break,
                };
                if !blind {
                    for c in net.advance(now) {
                        out.push((c.id.0, c.at.as_micros(), c.duration.as_micros()));
                        if let Some(client) = downloads.remove(&c.id) {
                            let mut up = FlowSpec::simple(client, server, 1_000_000);
                            up.setup_s = STAR_SETUP_S;
                            net.start_flow(now, up);
                        }
                    }
                }
                if run_step {
                    match &script[step].1 {
                        StarStep::Start(spec) | StarStep::StartUnharvested(spec) => {
                            let id = net.start_flow(now, spec.clone());
                            if spec.src == server {
                                downloads.insert(id, spec.dst);
                            }
                            started.push(Some(id));
                        }
                        StarStep::Abort(victim) => {
                            let id = started[*victim].expect("victim step started a flow");
                            assert!(net.abort_flow(now, id), "victim already gone");
                            downloads.remove(&id);
                            started.push(None);
                        }
                    }
                    step += 1;
                }
                assert!(out.len() < 10_000, "star script did not converge");
            }
            (out, obs_counters(&obs))
        }
    };
}

star_runner!(run_star_incremental, Network);
star_runner!(run_star_naive, NaiveNetwork);

/// The server-bottleneck star the benchmark runs, pinned: the cases a
/// cached due instant, the tracked minimum and the solve-once shortcut
/// can get wrong (see [`star_script`]).
#[test]
fn pinned_star_script_matches_naive() {
    let (inc, inc_obs) = run_star_incremental();
    let (nai, nai_obs) = run_star_naive();
    assert_eq!(stream_divergence(&inc, &nai), None);
    assert_eq!(inc_obs, nai_obs, "obs counters diverge");
    // 64 + 1 downloads and their uploads, the zero-byte flow, the
    // 1 kB flow and the closing three complete; the aborted download
    // does neither.
    let completed = 2 * (STAR_CLIENTS as usize + 1) + 2 + 3;
    assert_eq!(inc.len(), completed);
    let bytes = (STAR_CLIENTS as u64 + 1) * 5_000_000 + 2 * 1_000 + 2 * 1_250_000;
    assert_eq!(inc_obs, [completed as u64 + 1, completed as u64, 1, bytes]);
    // The blind window really left flows unharvested: the 1 kB flow
    // and a batch of downloads are all reported at its end.
    let blind_end = SimTime::from_secs(17).as_micros();
    assert!(inc.iter().filter(|c| c.1 == blind_end).count() >= 10);
}

proptest! {
    /// The incremental allocator reproduces the reference bit-for-bit
    /// (same shares, same freeze order, same float operation sequence),
    /// on random topologies with relays, caps and both priorities.
    #[test]
    fn allocator_matches_reference_bitwise(
        hosts in proptest::collection::vec(0u8..4, 2usize..12),
        raw in proptest::collection::vec(
            ((0u32..16, 0u32..16, 0u32..16), (any::<bool>(), 0u8..9, 0u8..4)),
            0usize..50,
        ),
    ) {
        let topo = build_topology(&hosts);
        let demands = build_demands(topo.len() as u32, &raw);
        let fast = allocate(&topo, &demands);
        let slow = allocate_reference(&topo, &demands);
        prop_assert_eq!(fast.len(), slow.len());
        for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "flow {}: incremental {} != reference {}", i, a, b
            );
        }
    }

    /// Per-link conservation under the incremental allocator: the rates
    /// crossing any link sum to at most its capacity.
    #[test]
    fn allocator_conserves_link_capacity(
        hosts in proptest::collection::vec(0u8..4, 2usize..12),
        raw in proptest::collection::vec(
            ((0u32..16, 0u32..16, 0u32..16), (any::<bool>(), 0u8..9, 0u8..4)),
            1usize..50,
        ),
    ) {
        let topo = build_topology(&hosts);
        let demands = build_demands(topo.len() as u32, &raw);
        let rates = allocate(&topo, &demands);
        let mut usage = std::collections::HashMap::new();
        for (f, r) in demands.iter().zip(&rates) {
            prop_assert!(*r >= 0.0, "negative rate {}", r);
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

    /// The incremental engine and the naive engine emit the same
    /// completion stream — same flows, same instants (exact, to the
    /// microsecond), same durations, same counters — for arbitrary
    /// monotone scripts of starts, aborts and advances.
    #[test]
    fn completion_stream_matches_naive_engine(
        hosts in proptest::collection::vec(0u8..4, 2usize..8),
        flows in proptest::collection::vec(
            (
                (0u32..8, 0u32..8, 0u32..12, 0u64..5_000_000, 0u16..2_000, 0u8..6),
                (0u8..8, 0u32..3_000_000, 0u8..15),
            ),
            1usize..25,
        ),
    ) {
        let (inc, inc_obs) = run_incremental(&hosts, &flows);
        let (naive, naive_obs) = run_naive(&hosts, &flows);
        let diff = stream_divergence(&inc, &naive);
        prop_assert!(diff.is_none(), "completion streams diverge: {}", diff.unwrap());
        // Differential obs check: both engines must have recorded the
        // same started/completed/aborted/bytes counters.
        prop_assert_eq!(inc_obs, naive_obs);
        prop_assert!(inc_obs[0] >= inc_obs[1] + inc_obs[2]);
        prop_assert_eq!(inc_obs[1], inc.len() as u64);
    }

    /// Two runs of the incremental engine over the same script are
    /// identical — no iteration-order or allocation-order effects.
    #[test]
    fn completion_stream_deterministic_across_runs(
        hosts in proptest::collection::vec(0u8..4, 2usize..8),
        flows in proptest::collection::vec(
            (
                (0u32..8, 0u32..8, 0u32..12, 0u64..5_000_000, 0u16..2_000, 0u8..6),
                (0u8..8, 0u32..3_000_000, 0u8..15),
            ),
            1usize..25,
        ),
    ) {
        let first = run_incremental(&hosts, &flows);
        let second = run_incremental(&hosts, &flows);
        prop_assert_eq!(first, second);
    }

    /// On a hierarchical topology every started flow is either
    /// completed or aborted, exactly once, and a replay reproduces the
    /// completion stream and every counter.
    #[test]
    fn tiered_topology_accounts_for_every_flow(
        hosts in proptest::collection::vec(0u8..4, 3usize..8),
        flows in proptest::collection::vec(
            (
                (0u32..8, 0u32..8, 0u32..12, 0u64..5_000_000, 0u16..2_000, 0u8..6),
                (0u8..8, 0u32..3_000_000, 0u8..15),
            ),
            1usize..25,
        ),
    ) {
        let (first, obs) = run_incremental_on(tiered_topology(&hosts), &flows);
        let [started, completed, aborted, _] = obs;
        prop_assert_eq!(started, flows.len() as u64);
        prop_assert_eq!(completed + aborted, started);
        prop_assert_eq!(first.len() as u64, completed);
        let again = run_incremental_on(tiered_topology(&hosts), &flows);
        prop_assert_eq!((first, obs), again);
    }
}

/// An `advance` that jumps over a loopback flow's set-up boundary to
/// another flow's completion: the settle at that instant lets the
/// loopback flow in, due at once, and it has the lower id. Both engines
/// must report the pair in id order (the naive engine used to pick the
/// flow it had found before settling, and reported it first).
#[test]
fn pinned_setup_crossing_tie_matches_naive() {
    let hosts = [0u8, 0];
    let flows: Vec<RawFlow> = vec![
        // h0 -> h0, no links, set-up ends at 0.1 s.
        ((0, 0, 1, 1_000, 100, 1), (1, 0, 1)),
        // h1 -> h0, 4 MB at 100 Mbit/s from 0 s: done at 0.32 s.
        ((1, 0, 1, 4_000_000, 0, 1), (1, 0, 1)),
        // The next step, at 0.9 s, advances over both instants.
        ((0, 1, 1, 1_000, 0, 1), (1, 900_000, 1)),
    ];
    let (inc, ..) = run_incremental(&hosts, &flows);
    let (nai, ..) = run_naive(&hosts, &flows);
    assert_eq!(stream_divergence(&inc, &nai), None);
    let first_two: Vec<(u64, u64)> = inc[..2].iter().map(|c| (c.0, c.1)).collect();
    assert_eq!(first_two, [(0, 320_000), (1, 320_000)]);
}

/// Turns generated flows into a script of same-instant bursts: every
/// flow whose `shape` is not 0 starts at its predecessor's instant
/// (`dt = 0`), shape 1 with no set-up phase (joins the demand set in the
/// middle of the burst unless its path has latency), shape 2 with zero
/// bytes (never joins it, due when its set-up ends).
fn burst_script(raw: &[(RawFlow, u8)]) -> Vec<RawFlow> {
    raw.iter()
        .map(
            |&(((src, dst, relay, bytes, setup_ms, prio), (cap, dt_us, abort)), shape)| {
                let dt_us = if shape == 0 { dt_us } else { 0 };
                let setup_ms = if shape == 1 { 0 } else { setup_ms };
                let bytes = if shape == 2 { 0 } else { bytes };
                (
                    (src, dst, relay, bytes, setup_ms, prio),
                    (cap, dt_us, abort),
                )
            },
        )
        .collect()
}

proptest! {
    /// Same-instant bursts of starts — in-setup, zero-setup and
    /// zero-byte flows mixed, with aborts and harvests inside a burst —
    /// leave the completion stream bit-identical to the naive engine's,
    /// although most of the burst's starts run no reallocation wave.
    #[test]
    fn same_instant_bursts_match_naive_engine(
        hosts in proptest::collection::vec(0u8..4, 2usize..8),
        raw in proptest::collection::vec(
            (
                (
                    (0u32..8, 0u32..8, 0u32..12, 0u64..5_000_000, 0u16..2_000, 0u8..6),
                    (0u8..8, 0u32..3_000_000, 0u8..15),
                ),
                0u8..6,
            ),
            1usize..40,
        ),
    ) {
        let flows = burst_script(&raw);
        let (inc, inc_obs) = run_incremental(&hosts, &flows);
        let (naive, naive_obs) = run_naive(&hosts, &flows);
        let diff = stream_divergence(&inc, &naive);
        prop_assert!(diff.is_none(), "completion streams diverge: {}", diff.unwrap());
        prop_assert_eq!(inc_obs, naive_obs);
    }
}

/// The directed host links a transfer crosses on a flat topology, in
/// path order: the sender's uplink and the receiver's downlink for
/// each hop of the relay chain.
fn link_path(spec: &FlowSpec) -> Vec<LinkRef> {
    let mut links = Vec::new();
    if spec.src == spec.dst && spec.via.is_empty() {
        return links;
    }
    let mut from = spec.src;
    for &to in spec.via.iter().chain([&spec.dst]) {
        links.push(LinkRef {
            host: from,
            dir: Direction::Up,
        });
        links.push(LinkRef {
            host: to,
            dir: Direction::Down,
        });
        from = to;
    }
    links
}

/// What a lockstep replay of a [`WaveStep`] script drives and sees.
struct Lockstep {
    inc: Network,
    nai: NaiveNetwork,
    /// Every flow started, by id.
    specs: Vec<FlowSpec>,
    /// Ids of the flows still in flight.
    live: std::collections::BTreeSet<u64>,
    /// `(id, at µs, duration µs)` per engine.
    incremental: Vec<(u64, u64, u64)>,
    naive: Vec<(u64, u64, u64)>,
}

fn record(c: &vmr_netsim::Completion) -> (u64, u64, u64) {
    (c.id.0, c.at.as_micros(), c.duration.as_micros())
}

impl Lockstep {
    fn advance(&mut self, t: SimTime) {
        for c in self.inc.advance(t) {
            self.live.remove(&c.id.0);
            self.incremental.push(record(&c));
        }
        self.naive.extend(self.nai.advance(t).iter().map(record));
    }

    fn start(&mut self, now: SimTime, spec: FlowSpec) {
        let id = self.inc.start_flow(now, spec.clone());
        assert_eq!(self.nai.start_flow(now, spec.clone()), id);
        assert_eq!(id.0 as usize, self.specs.len());
        self.specs.push(spec);
        self.live.insert(id.0);
    }

    /// Checks the state the last wave left in the incremental engine:
    /// the rates of the flows in its demand set are, bit for bit, what
    /// `allocate_reference` computes for that set, and every other
    /// in-flight flow holds rate 0.
    fn audit(&self) -> Result<(), String> {
        let held = self.inc.demand_rates();
        let demands: Vec<FlowDemand<u64>> = held
            .iter()
            .map(|&(id, _)| {
                let spec = &self.specs[id.0 as usize];
                FlowDemand {
                    key: id.0,
                    links: link_path(spec),
                    priority: spec.priority,
                    rate_cap: spec.rate_cap,
                }
            })
            .collect();
        let reference = allocate_reference(self.inc.topology(), &demands);
        for (&(id, rate), want) in held.iter().zip(&reference) {
            if rate.to_bits() != want.to_bits() {
                return Err(format!("flow {}: rate {rate} != reference {want}", id.0));
            }
        }
        for &id in &self.live {
            let id = vmr_netsim::FlowId(id);
            let rate = self.inc.flow_rate(id);
            if held.binary_search_by_key(&id, |&(k, _)| k).is_err() && rate != Some(0.0) {
                return Err(format!(
                    "flow {} outside the demand set holds {rate:?}",
                    id.0
                ));
            }
        }
        Ok(())
    }
}

/// [`host_link`]'s four classes (`sel` 0–3), then 100 and 10 Mbit/s
/// links nudged within the allocator's `1e-9` relative tie tolerance
/// (4, 5) and plain ones (6, 7): links whose shares differ only in the
/// last bits must freeze in one round, the first included.
fn near_tie_link(sel: u8) -> HostLink {
    let nudged = |mut l: HostLink| {
        l.up_bytes_per_sec *= 1.0 + 3e-10;
        l.down_bytes_per_sec *= 1.0 - 2e-10;
        l
    };
    match sel % 8 {
        4 => nudged(HostLink::symmetric_mbit(100.0, 0.0)),
        5 => nudged(HostLink::symmetric_mbit(10.0, 0.001)),
        6 => host_link(0),
        7 => host_link(1),
        s => host_link(s),
    }
}

/// One step of a differential script: `(op, a, b, c)`, then the flow's
/// `(bytes, setup_ms, flags)`, then the time step in µs.
type WaveStep = ((u8, u32, u32, u32), (u64, u16, u8), u32);

/// Replays `steps` on [`Network`] and [`NaiveNetwork`] in lockstep and
/// audits the incremental engine's rates after every call. Host `h`
/// gets [`near_tie_link`]`(hosts[h])`. Ops:
///
/// * 0–3: start a flow (`flags`: bit 0 background, bit 1 capped, bit 2
///   zero bytes, bit 3 loopback, bit 4 one relay, bit 5 a relay chain
///   through the destination, which crosses its downlink twice, bit 6
///   advance to the instant first); `setup_ms % 4 == 0` means no set-up
///   phase beyond the path latency;
/// * 4: abort an earlier flow, in or out of the demand set;
/// * 5: wake at the next event instant, as the engine's loop does;
/// * 6: with `near_due`, step to one or two µs before the next event
///   instant, where a flow may have run out of bytes ahead of its
///   rounded-up due, and start an in-setup flow there; else as 5;
/// * 7: advance to the current instant.
///
/// Both engines wake at the incremental engine's next event instant.
fn run_lockstep(hosts: &[u8], steps: &[WaveStep], near_due: bool) -> Result<Lockstep, String> {
    let mut topo = Topology::new();
    for &h in hosts {
        topo.add_host(near_tie_link(h));
    }
    let n = topo.len() as u32;
    let mut run = Lockstep {
        inc: Network::new(topo.clone()),
        nai: NaiveNetwork::new(topo),
        specs: Vec::new(),
        live: Default::default(),
        incremental: Vec::new(),
        naive: Vec::new(),
    };
    let mut now = SimTime::ZERO;
    for (k, &((op, a, b, c), (bytes, setup_ms, flags), dt_us)) in steps.iter().enumerate() {
        if c % 3 != 0 {
            now += SimDuration::from_micros(dt_us as u64 % 2_000_000);
        }
        match op % 8 {
            0..=3 => {
                if flags & 64 != 0 {
                    run.advance(now);
                }
                let src = HostId(a % n);
                let mut spec = FlowSpec::simple(src, HostId(b % n), bytes % 3_000_000);
                if flags & 8 != 0 {
                    spec.dst = src;
                } else if flags & 32 != 0 && spec.dst != src {
                    let back = if c % n == spec.dst.0 {
                        src
                    } else {
                        HostId(c % n)
                    };
                    spec.via = vec![spec.dst, back];
                } else if flags & 16 != 0 {
                    spec.via = vec![HostId(c % n)];
                }
                if flags & 4 != 0 {
                    spec.bytes = 0;
                }
                if setup_ms % 4 != 0 {
                    spec.setup_s = (setup_ms % 700) as f64 / 1_000.0;
                }
                if flags & 1 != 0 {
                    spec.priority = Priority::Background;
                }
                if flags & 2 != 0 {
                    spec.rate_cap = Some(2_000.0 + (c % 500) as f64 * 1_013.0);
                }
                run.start(now, spec);
            }
            4 => {
                // Any flow started so far; aborting a finished one is a
                // no-op on both engines.
                let victim = vmr_netsim::FlowId(a as u64 % run.specs.len().max(1) as u64);
                let gone = run.inc.abort_flow(now, victim);
                if gone != run.nai.abort_flow(now, victim) || gone != run.live.remove(&victim.0) {
                    return Err(format!("step {k}: abort of flow {} disagrees", victim.0));
                }
            }
            op => {
                let near = near_due && op == 6;
                if let Some(t) = run.inc.next_event_time().filter(|&t| t < SimTime::MAX) {
                    let before = SimDuration::from_micros(1 + (b % 2) as u64);
                    now = match op {
                        7 => now,
                        _ if near => now.max(t - before),
                        _ => now.max(t),
                    };
                }
                run.advance(now);
                if near {
                    // In its set-up phase, so only a wave that had to
                    // run would move a rate.
                    let mut spec = FlowSpec::simple(HostId(a % n), HostId(b % n), 1_000);
                    spec.setup_s = 0.5;
                    run.start(now, spec);
                }
            }
        }
        run.audit().map_err(|e| format!("step {k}: {e}"))?;
    }
    let mut guard = 0u32;
    while let Some(t) = run.inc.next_event_time().filter(|&t| t < SimTime::MAX) {
        guard += 1;
        if guard > 100_000 {
            return Err("script did not converge".into());
        }
        now = now.max(t);
        run.advance(now);
        run.audit().map_err(|e| format!("drain at {now:?}: {e}"))?;
    }
    let rest = run.nai.advance(SimTime::from_secs(1 << 30));
    run.naive.extend(rest.iter().map(record));
    Ok(run)
}

/// An abort of a flow that is already gone, with a foreground flow run
/// out of bytes but not yet harvested: the abort must pay the wave that
/// hands the uplink to the background flow behind it, as the naive
/// engine's settle does, not leave it to the next start. (A fresh-seed
/// pass of the lockstep proptest found this; the background flow
/// finished 58 ms late.)
#[test]
fn pinned_abort_of_a_gone_flow_pays_a_wave() {
    let hosts = [0u8, 0, 0];
    let steps: Vec<WaveStep> = vec![
        // h1 -> h2, 1 kB, then harvested at 10 ms by the next start.
        ((0, 1, 2, 0), (1_000, 0, 0), 0),
        // h0 -> h1 in the foreground, 1 MB: runs out at 90 ms.
        ((0, 0, 1, 1), (1_000_000, 0, 64), 10_000),
        // h0 -> h2 in the background: nothing left on h0's uplink.
        ((0, 0, 2, 0), (1_000_000, 0, 1), 0),
        // At 200 ms, abort flow 0, long gone.
        ((4, 0, 0, 1), (0, 0, 0), 190_000),
        // At 300 ms, a start that runs a wave.
        ((0, 1, 0, 1), (1_000, 0, 0), 100_000),
    ];
    let run = run_lockstep(&hosts, &steps, false).unwrap();
    assert_eq!(stream_divergence(&run.incremental, &run.naive), None);
    // Flow 2 runs from 200 ms, done by 280 ms, harvested at 300 ms.
    assert_eq!(
        run.incremental,
        [
            (0, 80, 80),
            (1, 300_000, 290_000),
            (2, 300_000, 290_000),
            (3, 300_080, 80)
        ]
    );
}

/// A flow whose bytes run out one µs before its rounded-up due instant
/// (3 075 bytes at 50 Mbit/s: 492.000…06 µs, due at 493 µs), and an
/// in-setup start at that µs: the start must pay the wave that takes
/// the flow out of the demand set and hands its capacity on, so the
/// rates audited there are the reference's for the set without it.
/// Both engines still report it at its due instant.
#[test]
fn pinned_run_out_before_due_pays_a_wave() {
    let hosts = [0u8, 0, 0];
    let steps: Vec<WaveStep> = vec![
        // h0 -> h1, 3 075 bytes, and h2 -> h1 alongside: 6.25 MB/s each.
        ((0, 0, 1, 1), (3_075, 0, 0), 0),
        ((0, 2, 1, 1), (2_000_000, 0, 0), 0),
        // One µs before the next event, then an in-setup start.
        ((6, 0, 0, 0), (0, 0, 0), 0),
    ];
    let run = run_lockstep(&hosts, &steps, true).unwrap();
    assert_eq!(run.incremental[0], (0, 493, 493));
    assert_eq!(run.incremental.len(), 3);
    assert_eq!(run.incremental, run.naive);
}

proptest! {
    /// The persistent demand set, its per-link member lists and the
    /// no-op wave skips leave every rate bit where `allocate_reference`
    /// puts it after every call — starts (zero-byte, in-setup, loopback,
    /// relayed, repeated-link, capped, background), aborts in and out of
    /// the demand set, wakes, and blind steps to just short of a due
    /// instant — and the completion stream where the naive engine puts
    /// it. Half the topologies have only 100 and 10 Mbit/s links, half of
    /// them nudged off a tie, so that the first round's bottleneck often
    /// has near-tie companions.
    #[test]
    fn persistent_solver_matches_reference_after_every_wave(
        hosts in proptest::collection::vec(0u8..8, 2usize..8),
        near_ties_only in any::<bool>(),
        steps in proptest::collection::vec(
            (
                (0u8..8, 0u32..64, 0u32..64, 0u32..1_000),
                (0u64..3_000_000, 0u16..2_000, 0u8..128),
                0u32..3_000_000,
            ),
            1usize..40,
        ),
        near_due in any::<bool>(),
    ) {
        let hosts: Vec<u8> = if near_ties_only {
            hosts.iter().map(|h| 4 + h % 4).collect()
        } else {
            hosts
        };
        let run = run_lockstep(&hosts, &steps, near_due);
        prop_assert!(run.is_ok(), "{}", run.err().unwrap_or_default());
        let run = run.unwrap();
        let diff = stream_divergence(&run.incremental, &run.naive);
        prop_assert!(diff.is_none(), "completion streams diverge: {}", diff.unwrap());
    }
}

/// Asymmetric links, caps, relays, both classes — the allocator must
/// reproduce the reference bit-for-bit.
#[test]
fn matches_reference_on_mixed_workload() {
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
        let mut d = FlowDemand {
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
            priority: if i % 3 == 0 {
                Priority::Background
            } else {
                Priority::Foreground
            },
            rate_cap: None,
        };
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

#[test]
fn naive_engine_still_works() {
    let mut t = Topology::new();
    for _ in 0..3 {
        t.add_host(HostLink::symmetric_mbit(100.0, 0.0));
    }
    let obs = vmr_obs::Obs::new();
    let mut n = NaiveNetwork::with_obs(t, &obs);
    n.start_flow(
        SimTime::ZERO,
        FlowSpec::simple(HostId(0), HostId(1), 12_500_000),
    );
    n.start_flow(
        SimTime::ZERO,
        FlowSpec::simple(HostId(0), HostId(2), 12_500_000),
    );
    let mut done = Vec::new();
    while let Some(t) = n.next_event_time() {
        assert!(t < SimTime::MAX, "stalled flow");
        done.extend(n.advance(t));
    }
    assert_eq!(done.len(), 2);
    for c in &done {
        assert!((c.at.as_secs_f64() - 2.0).abs() < 1e-3, "{:?}", c.at);
    }
    assert_eq!(obs.snapshot().counter("netsim.bytes_delivered"), 25_000_000);
}

/// splitmix64, as `vmr-bench`'s churn workload draws it.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `vmr-bench`'s `churn_topology` and `churn_script` at 12 hosts, three
/// fetches per host, two waves, seed 7: the same draws in the same
/// order. Returns the topology and the starts, ascending in time.
fn small_churn() -> (Topology, Vec<(SimTime, FlowSpec)>) {
    const HOSTS: u32 = 12;
    const SEED: u64 = 7;
    let mut rng = SEED ^ 0xC0FF_EE00;
    let mut topo = Topology::new();
    for _ in 0..HOSTS {
        if splitmix64(&mut rng) % 100 < 75 {
            topo.add_host(HostLink::symmetric_mbit(100.0, 0.001));
        } else {
            topo.add_host(HostLink::asymmetric_mbit(10.0, 1.0, 0.02));
        }
    }
    let mut rng = SEED;
    let n = HOSTS as u64;
    let mut script = Vec::new();
    for wave in 0..2 {
        let wave_start = SimTime::from_secs(10 * wave);
        for dst in 0..HOSTS {
            for _ in 0..3 {
                let at = wave_start + SimDuration::from_micros(splitmix64(&mut rng) % 2_000_000);
                let src = HostId((splitmix64(&mut rng) % n) as u32);
                let bytes = 200_000 + splitmix64(&mut rng) % 3_800_000;
                let mut fs = FlowSpec::simple(src, HostId(dst), bytes);
                fs.setup_s = 0.05 + (splitmix64(&mut rng) % 250) as f64 / 1_000.0;
                let roll = splitmix64(&mut rng) % 100;
                if roll < 20 {
                    fs.priority = Priority::Background;
                }
                if roll < 5 {
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
    (topo, script)
}

/// Replays a churn script the way the world loop does — advance to the
/// next network event or the next scripted start, whichever is sooner —
/// and returns `(makespan µs, completions, peak in-flight flows,
/// netsim.bytes_delivered)`.
macro_rules! churn_runner {
    ($name:ident, $engine:ty) => {
        fn $name(topo: Topology, script: &[(SimTime, FlowSpec)]) -> (u64, usize, usize, u64) {
            let obs = vmr_obs::Obs::new();
            let mut net = <$engine>::with_obs(topo, &obs);
            let (mut makespan, mut completed, mut peak) = (SimTime::ZERO, 0, 0);
            let mut harvest = |done: Vec<vmr_netsim::Completion>| {
                for c in &done {
                    makespan = makespan.max(c.at);
                }
                completed += done.len();
            };
            for (at, fs) in script {
                while let Some(t) = net.next_event_time().filter(|t| t < at) {
                    harvest(net.advance(t));
                }
                harvest(net.advance(*at));
                net.start_flow(*at, fs.clone());
                peak = peak.max(net.active_flows());
            }
            while let Some(t) = net.next_event_time() {
                assert!(t < SimTime::MAX, "stalled churn flow");
                harvest(net.advance(t));
            }
            let bytes = obs.snapshot().counter("netsim.bytes_delivered");
            (makespan.as_micros(), completed, peak, bytes)
        }
    };
}

churn_runner!(run_churn_incremental, Network);
churn_runner!(run_churn_naive, NaiveNetwork);

/// The 12-host churn script on both engines. The pinned outcome is what
/// `vmr-bench`'s `run_churn` reads on that script, so the copy above
/// draws the same flows.
#[test]
fn small_churn_runs_identically_on_both_engines() {
    let (topo, script) = small_churn();
    let inc = run_churn_incremental(topo.clone(), &script);
    let nai = run_churn_naive(topo, &script);
    assert_eq!(inc, nai);
    assert_eq!(inc.1, script.len(), "lost flows");
    assert!(inc.2 > 12, "workload barely overlaps");
    assert_eq!(inc, (101_456_651, 72, 25, 142_744_158));
}
